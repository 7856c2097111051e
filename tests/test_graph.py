import pytest

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from conftest import (two_component_system, feeder_system, packed_system,
                      random_graph_complete_system, random_packed_system)


def banded_cf(width=1, truncate=None):
    return gk.cf_system(gk.IncidenceSpec(gg.BANDED, width), truncate=truncate)


def upper_cf(truncate=None):
    return gk.cf_system(gk.IncidenceSpec(gg.UPPER), truncate=truncate)


class TestAdmissibility:
    def test_banded_neighbour_word(self):
        assert gk.is_admissible(banded_cf(), (3, 4, 5))

    def test_single_letter_always_admissible(self):
        assert gk.is_admissible(upper_cf(), (5,))
        assert gk.is_admissible(two_component_system(), ("a",))

    def test_upper_triangular_rejects_descent(self):
        assert not gk.is_admissible(upper_cf(), (5, 3))

    def test_unknown_edge_id_rejected(self):
        with pytest.raises(gk.InputError):
            gk.is_admissible(two_component_system(), ("a", "zz"))
        with pytest.raises(gk.InputError):
            gk.is_admissible(upper_cf(), (0, 1))


def _successors_by_definition(system):
    edges = system.graph.edges
    return {a.id: tuple(b.id for b in edges if gg.edge_allows(system.incidence, a, b))
            for a in edges}


class TestSuccessorMap:
    def test_matches_edge_allows_on_random_systems(self, rng):
        checked = 0
        while checked < 20:
            make = (random_packed_system, random_graph_complete_system)[checked % 2]
            sys = make(rng)
            if sys is None:
                continue
            checked += 1
            assert sys.successor_map == _successors_by_definition(sys)
            # allow pairs that name dropped edges are ignored
            keep = rng.sample(sys.edge_ids, rng.randint(1, len(sys.edge_ids)))
            sub = sys.restrict(keep)
            assert sub.successor_map == _successors_by_definition(sub)

    def test_explicit_pairs_need_matching_vertices(self):
        space = {v: gm.VertexSpace(v, 0.0, 1.0) for v in ("u", "w")}
        edges = [("p", "u", "w", gm.SimilarityMap(0.3, 0.0)),
                 ("q", "w", "u", gm.SimilarityMap(0.3, 0.0)),
                 ("r", "u", "u", gm.SimilarityMap(0.3, 0.5))]
        allowed = frozenset((a, b) for a in "pqr" for b in "pqr")
        sys = gk.similarity_system("two-vertex", ("u", "w"), space, edges,
                                   gk.IncidenceSpec(gg.EXPLICIT, allowed=allowed))
        assert sys.successor_map == {"p": ("q",), "q": ("p", "r"), "r": ("p", "r")}
        assert sys.successor_map == _successors_by_definition(sys)

    @pytest.mark.parametrize("kind,width", [(gg.FULL, 0), (gg.BANDED, 1),
                                            (gg.BANDED, 3), (gg.UPPER, 0)])
    def test_matches_edge_allows_on_rule_truncations(self, kind, width):
        sys = gk.cf_system(gk.IncidenceSpec(kind, width), truncate=12)
        assert sys.successor_map == _successors_by_definition(sys)
        sub = sys.restrict((2, 3, 5, 6, 7, 11))
        assert sub.successor_map == _successors_by_definition(sub)


class TestEnumeration:
    def test_full_two_edge_shift_counts(self):
        sys = gk.full_shift([1 / 2, 1 / 2])
        assert len(list(gk.enumerate_words(sys, 3))) == 8

    def test_upper_truncation_has_no_long_words(self):
        sys = upper_cf(truncate=4)
        assert list(gk.enumerate_words(sys, 5)) == []

    def test_two_component_pair_count(self):
        sys = two_component_system(linked=True)
        assert len(list(gk.enumerate_words(sys, 2))) == 9

    def test_count_guard(self):
        sys = gk.full_shift([1 / 2, 1 / 2])
        with pytest.raises(gk.ResourceGuardError):
            list(gk.enumerate_words(sys, 10, limit=100))

    def test_matches_brute_force_filter(self, rng):
        # enumeration must equal filtering all |E|^n sequences by is_admissible
        from itertools import product
        checked = 0
        while checked < 12:
            sys = random_packed_system(rng)
            if sys is None:
                continue
            checked += 1
            ids = sys.edge_ids
            for n in (1, 2, 3, 4):
                brute = [w for w in product(ids, repeat=n) if gk.is_admissible(sys, w)]
                assert list(gk.enumerate_words(sys, n)) == brute


class TestScc:
    def test_full_shift_single_component(self):
        report = gk.scc_decompose(gk.full_shift([1 / 2, 1 / 2]))
        assert report.components == (frozenset({"e1", "e2"}),)
        assert report.isolated == frozenset()

    def test_upper_truncation_all_isolated(self):
        report = gk.scc_decompose(upper_cf(truncate=5))
        assert report.components == ()
        assert report.isolated == frozenset({1, 2, 3, 4, 5})

    def test_two_component_communication(self):
        report = gk.scc_decompose(two_component_system(linked=True))
        comps = set(report.components)
        assert comps == {frozenset({"a", "b"}), frozenset({"c", "d"})}
        i = report.components.index(frozenset({"a", "b"}))
        j = report.components.index(frozenset({"c", "d"}))
        assert (i, j) in report.communication
        assert (j, i) not in report.communication
        assert (i, j) in report.condensation

    def test_unlinked_components_do_not_communicate(self):
        report = gk.scc_decompose(two_component_system(linked=False))
        assert report.communication == frozenset()

    def test_feeder_isolated_edges(self):
        report = gk.scc_decompose(feeder_system())
        assert report.components == (frozenset({"a", "b"}),)
        assert report.isolated == frozenset({"x1", "x2"})

    def test_component_soundness_and_condensation_acyclic(self, rng):
        # every ordered pair inside a component is joined by a word using only
        # letters of that component; the condensation admits a topological sort
        checked = 0
        while checked < 12:
            sys = random_packed_system(rng)
            if sys is None:
                continue
            checked += 1
            report = gk.scc_decompose(sys)
            for comp in report.components:
                sub = sys.restrict(comp)
                succ = sub.successor_map
                for c1 in comp:
                    seen = set()
                    stack = list(succ[c1])
                    while stack:
                        v = stack.pop()
                        if v in seen:
                            continue
                        seen.add(v)
                        stack.extend(succ[v])
                    assert seen == set(comp)
            _assert_acyclic(report.condensation, len(report.components))
            # communication must be consistent with condensation reachability
            closure = _transitive_closure(report.condensation, len(report.components))
            assert set(report.communication) == closure


    def test_condensation_and_communication_match_definitions(self, rng):
        systems = [_two_step_bridge_system()]
        while len(systems) < 60:
            make = random_packed_system if len(systems) % 2 else random_graph_complete_system
            sys = make(rng, max_edges=8)
            if sys is None:
                continue
            systems.append(sys)
            keep = [e for e in sys.edge_ids if rng.random() < 0.7]
            if keep:
                systems.append(sys.restrict(keep))
        for sys in systems:
            report = gk.scc_decompose(sys)
            condensation, communication = _reachability_oracle(sys, report.components)
            assert report.condensation == condensation
            assert report.communication == communication

    def test_two_isolated_edges_bridge_components(self):
        # {a, b} -> x1 -> x2 -> {c, d} -> {e}: the first two components are
        # joined through isolated edges only; {a, b} reaches {e} but has no
        # condensation arc to it
        report = gk.scc_decompose(_two_step_bridge_system())
        assert report.components == (frozenset("ab"), frozenset("cd"), frozenset("e"))
        assert report.isolated == frozenset({"x1", "x2"})
        assert report.condensation == frozenset({(0, 1), (1, 2)})
        assert report.communication == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_one_tarjan_pass_per_fresh_system(self, monkeypatch):
        # components and the reachability pass read the same cached SCC list
        calls = []
        tarjan = gg.tarjan_scc

        def counted(nodes, succ):
            calls.append(1)
            return tarjan(nodes, succ)
        monkeypatch.setattr(gg, "tarjan_scc", counted)
        for make in (lambda: two_component_system(linked=True), feeder_system,
                     _two_step_bridge_system):
            sys = make()
            report = gk.scc_decompose(sys)
            assert len(calls) == 1
            assert gk.scc_decompose(sys) == report
            assert len(calls) == 1
            calls.clear()


def _two_step_bridge_system():
    ratios = {"a": 0.1, "b": 0.1, "x1": 0.1, "x2": 0.1, "c": 0.1, "d": 0.1, "e": 0.1}
    allowed = {(p, q) for p in "ab" for q in "ab"} | {(p, q) for p in "cd" for q in "cd"}
    allowed |= {("b", "x1"), ("x1", "x2"), ("x2", "c"), ("d", "e"), ("e", "e")}
    return packed_system("bridge", ratios, allowed)


def _reachability_oracle(sys, components):
    """(condensation, communication) by breadth-first search on edges: (i, j)
    is a condensation arc when an edge of component j follows component i
    through isolated edges only, and a communication pair when some
    admissible word leads from component i to component j."""
    succ = sys.successor_map
    owner = {e: k for k, comp in enumerate(components) for e in comp}
    condensation, communication = set(), set()
    for i, comp in enumerate(components):
        for through_isolated, found in ((True, condensation), (False, communication)):
            queue = [w for e in comp for w in succ[e]]
            seen = set(queue)
            while queue:
                v = queue.pop(0)
                j = owner.get(v)
                if j is not None and j != i:
                    found.add((i, j))
                if through_isolated and j is not None:
                    continue
                for w in succ[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
    return frozenset(condensation), frozenset(communication)


def _assert_acyclic(arcs, n):
    indeg = {k: 0 for k in range(n)}
    for _, j in arcs:
        indeg[j] += 1
    queue = [k for k in range(n) if indeg[k] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for i, j in arcs:
            if i == v:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
    assert seen == n


def _transitive_closure(arcs, n):
    reach = {k: {j for i, j in arcs if i == k} for k in range(n)}
    changed = True
    while changed:
        changed = False
        for k in range(n):
            extra = set()
            for j in reach[k]:
                extra |= reach[j]
            if not extra <= reach[k]:
                reach[k] |= extra
                changed = True
    return {(i, j) for i in range(n) for j in reach[i]}


class TestPruning:
    def test_prune_removes_dead_chain(self):
        sys = upper_cf(truncate=5)
        pruned, removed = gk.prune(sys)
        assert pruned.edge_ids == ()
        assert set(removed) == {1, 2, 3, 4, 5}

    def test_prune_idempotent(self, rng):
        checked = 0
        while checked < 12:
            sys = random_packed_system(rng)
            if sys is None:
                continue
            checked += 1
            once, _ = gk.prune(sys)
            twice, removed_again = gk.prune(once)
            assert removed_again == ()
            assert twice.edge_ids == once.edge_ids


class TestMatrixProperties:
    def test_full_shift_all_true(self):
        props = gk.matrix_properties(gk.full_shift([1 / 2, 1 / 2]))
        assert (props.irreducible, props.primitive, props.finitely_irreducible) \
            == (True, True, True)

    def test_banded_rule_irreducible_not_finitely(self):
        props = gk.matrix_properties(banded_cf())
        assert props.irreducible
        assert not props.finitely_irreducible
        assert not props.primitive

    def test_full_rule_all_true(self):
        props = gk.matrix_properties(gk.cf_system(gk.IncidenceSpec(gg.FULL)))
        assert (props.irreducible, props.primitive, props.finitely_irreducible) \
            == (True, True, True)

    def test_upper_rule_all_false(self):
        props = gk.matrix_properties(upper_cf())
        assert (props.irreducible, props.primitive, props.finitely_irreducible) \
            == (False, False, False)

    def test_alternating_matrix_not_primitive(self):
        # A = [[0,1],[1,0]]: all cycle lengths even
        from gdmskit import maps as gm, system as gs
        space = gm.VertexSpace("v", 0.0, 1.0)
        edges = [("e1", "v", "v", gm.SimilarityMap(1 / 3, 0.0)),
                 ("e2", "v", "v", gm.SimilarityMap(1 / 3, 2 / 3))]
        sys = gs.similarity_system("alt", ("v",), {"v": space}, edges,
                                   gk.IncidenceSpec(gg.EXPLICIT,
                                                    allowed=frozenset({("e1", "e2"), ("e2", "e1")})))
        props = gk.matrix_properties(sys)
        assert props.irreducible
        assert not props.primitive
        assert props.finitely_irreducible

    def test_irreducible_is_one_cyclic_strong_component(self, rng):
        checked = 0
        while checked < 12:
            sys = random_packed_system(rng)
            if sys is None:
                continue
            checked += 1
            ids, succ = sys.edge_ids, sys.successor_map
            sccs = gg.tarjan_scc(ids, succ)
            want = len(sccs) == 1 and (len(ids) > 1 or ids[0] in succ[ids[0]])
            assert sys.irreducible == want
            assert gk.matrix_properties(sys).irreducible == want
        assert not two_component_system(linked=True).irreducible

    def test_finite_equivalence_of_irreducibility_notions(self, rng):
        checked = 0
        while checked < 12:
            sys = random_packed_system(rng)
            if sys is None:
                continue
            checked += 1
            props = gk.matrix_properties(sys)
            assert props.finitely_irreducible == props.irreducible
            if props.irreducible:
                assert props.witness is not None
