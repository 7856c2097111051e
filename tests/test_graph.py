import tracemalloc

import numpy as np
import pytest

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from gdmskit import system as gs
from conftest import (two_component_system, feeder_system, packed_system,
                      random_graph_complete_system, random_packed_system,
                      random_packed_system_and_pairs)


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


def _successors_by_definition(system, allowed=None):
    """b follows a when t(a) = i(b) and the labels are allowed: by the
    named rule, or by `allowed`, the allow pairs an explicit system was made
    from. The incidence matrix is not read."""
    def allows(a, b):
        if system.incidence.kind == gg.EXPLICIT:
            return (a.id, b.id) in allowed
        return system.incidence.allows_labels(a.id, b.id)

    edges = system.graph.edges
    return {a.id: tuple(b.id for b in edges if a.dst == b.src and allows(a, b))
            for a in edges}


class TestSuccessorMap:
    def test_matches_edge_allows_on_random_systems(self, rng):
        checked = 0
        while checked < 20:
            if checked % 2:
                sys, allowed = random_graph_complete_system(rng), None
            else:
                sys, allowed = random_packed_system_and_pairs(rng) or (None, None)
            if sys is None:
                continue
            checked += 1
            assert sys.successor_map == _successors_by_definition(sys, allowed)
            # allow pairs that name dropped edges are ignored
            keep = rng.sample(sys.edge_ids, rng.randint(1, len(sys.edge_ids)))
            sub = sys.restrict(keep)
            assert sub.successor_map == _successors_by_definition(sub, allowed)

    def test_explicit_pairs_need_matching_vertices(self):
        space = {v: gm.VertexSpace(v, 0.0, 1.0) for v in ("u", "w")}
        edges = [("p", "u", "w", gm.SimilarityMap(0.3, 0.0)),
                 ("q", "w", "u", gm.SimilarityMap(0.3, 0.0)),
                 ("r", "u", "u", gm.SimilarityMap(0.3, 0.5))]
        every_pair = {(a, b) for a in "pqr" for b in "pqr"}
        with pytest.raises(gk.SpecError, match=r"allow pair \('p', 'p'\) is incompatible"):
            gk.similarity_system("two-vertex", ("u", "w"), space, edges,
                                 gk.IncidenceSpec(gg.EXPLICIT), every_pair)
        allowed = {("p", "q"), ("q", "p"), ("q", "r"), ("r", "p"), ("r", "r")}
        sys = gk.similarity_system("two-vertex", ("u", "w"), space, edges,
                                   gk.IncidenceSpec(gg.EXPLICIT), allowed)
        assert sys.successor_map == {"p": ("q",), "q": ("p", "r"), "r": ("p", "r")}
        assert sys.successor_map == _successors_by_definition(sys, allowed)

    def test_allow_pairs_need_explicit_incidence(self):
        space = {"v": gm.VertexSpace("v", 0.0, 1.0)}
        edges = [("p", "v", "v", gm.SimilarityMap(0.3, 0.0))]
        with pytest.raises(gk.InputError, match="explicit incidence"):
            gk.similarity_system("full", ("v",), space, edges, gk.IncidenceSpec(gg.FULL),
                                 {("p", "p")})

    @pytest.mark.parametrize("kind,width", [(gg.FULL, 0), (gg.BANDED, 1),
                                            (gg.BANDED, 3), (gg.UPPER, 0)])
    def test_matches_edge_allows_on_rule_truncations(self, kind, width):
        sys = gk.cf_system(gk.IncidenceSpec(kind, width), truncate=12)
        assert sys.successor_map == _successors_by_definition(sys)
        sub = sys.restrict((2, 3, 5, 6, 7, 11))
        assert sub.successor_map == _successors_by_definition(sub)


class TestRuleRefusals:
    def test_cf_system_refuses_explicit_incidence(self):
        with pytest.raises(gk.InputError, match="the cf family uses a named incidence rule"):
            gk.cf_system(gk.IncidenceSpec(gg.EXPLICIT))

    @pytest.mark.parametrize("kind,width", [(gg.BANDED, 1), (gg.UPPER, 0)])
    def test_similarity_system_refuses_non_integer_ids(self, kind, width):
        space = {"v": gm.VertexSpace("v", 0.0, 1.0)}
        edges = [("a", "v", "v", gm.SimilarityMap(0.3, 0.0)),
                 ("b", "v", "v", gm.SimilarityMap(0.3, 0.5))]
        message = f"incidence rule '{kind}' needs integer edge ids, got 'a'"
        with pytest.raises(gk.InputError) as exc:
            gk.similarity_system("s", ("v",), space, edges, gk.IncidenceSpec(kind, width))
        assert str(exc.value) == message

    @pytest.mark.parametrize("kwargs, message", [
        ({"signs": [1]}, "signs has 1 entries for 2 ratios"),
        ({"offsets": [0.0]}, "offsets has 1 entries for 2 ratios"),
        ({"signs": [1, 1, 1]}, "signs has 3 entries for 2 ratios"),
    ])
    def test_full_shift_refuses_offsets_or_signs_of_another_length(self, kwargs, message):
        # a short list raised a bare IndexError, a long one lost its extra entries
        with pytest.raises(gk.InputError) as exc:
            gk.full_shift([0.3, 0.3], **kwargs)
        assert str(exc.value) == message

    def test_width_is_kept_only_by_the_banded_rule(self):
        assert gk.IncidenceSpec(gg.FULL, 1) == gk.IncidenceSpec(gg.FULL)
        assert gk.IncidenceSpec(gg.UPPER, 3).width == 0
        assert gk.IncidenceSpec(gg.EXPLICIT, 2) == gk.IncidenceSpec(gg.EXPLICIT)
        assert gk.IncidenceSpec(gg.BANDED, 2).width == 2
        with pytest.raises(gk.InputError, match="band width must be >= 1"):
            gk.IncidenceSpec(gg.BANDED, 0)


class TestInfiniteRefusal:
    """Every analysis that needs the edge graph refuses an infinite system
    where the system builds that graph, with one message."""

    @pytest.mark.parametrize("analysis", [
        lambda s: s.incidence_matrix,
        lambda s: s.log_norms,
        gk.scc_decompose,
        lambda s: list(gk.enumerate_words(s, 2)),
        gk.bowen_dimension,
        gk.component_dimensions,
        gk.classify_hausdorff_measure,
        lambda s: gk.sample_points(s, 10, 5, seed=0),
    ], ids=["incidence_matrix", "log_norms", "scc_decompose", "enumerate_words",
            "bowen_dimension", "component_dimensions", "classify_hausdorff_measure",
            "sample_points"])
    @pytest.mark.parametrize("system", [banded_cf, upper_cf])
    def test_truncate_first(self, analysis, system):
        with pytest.raises(gk.NotApplicableError) as exc:
            analysis(system())
        assert str(exc.value) == "truncate the system first"


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

    def test_long_words_need_no_recursion(self):
        # the walk keeps its prefix on an explicit stack, so a word may be
        # longer than the interpreter's recursion limit
        assert list(gk.enumerate_words(gk.full_shift([0.5]), 5000)) == [("e1",) * 5000]

    @pytest.mark.parametrize("n,match", [(2.5, "integer, got 2.5"), (0, "n must be >= 1")])
    def test_word_length_must_be_a_positive_integer(self, n, match):
        # a length of 2.5 was never reached, so the prefixes grew until
        # the interpreter's recursion limit
        with pytest.raises(gk.InputError, match=match):
            list(gk.enumerate_words(gk.full_shift([1 / 2, 1 / 2]), n))

    @pytest.mark.parametrize("raw", ["0", "-3", "x"])
    def test_count_guard_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("GDMS_COUNT_GUARD", raw)
        with pytest.raises(gk.InputError,
                           match=f"GDMS_COUNT_GUARD must be a positive integer, got '{raw}'"):
            gg.count_guard()

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

    def test_report_is_built_once_per_system(self, monkeypatch):
        # the report is kept on the system: a second call, and the one that
        # classify makes, return it with no Tarjan or grouping pass
        sys = two_component_system(r2=1 / 3, linked=True)
        report = gk.scc_decompose(sys)
        # a subsystem, even on the same edges, builds its own
        assert gk.scc_decompose(sys.restrict(sys.edge_ids)) is not report

        def refused(*args):
            raise AssertionError("SCC pass repeated")
        monkeypatch.setattr(gg, "tarjan_scc", refused)
        monkeypatch.setattr(gg, "grouped", refused)
        assert gk.scc_decompose(sys) is report
        verdict = gk.classify_hausdorff_measure(sys, n_range=range(1, 4))
        assert verdict.communicating_pairs == tuple(sorted(report.communication)) == ((0, 1),)

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
        # components and the reachability pass read the same cached SCC
        # list, from one Tarjan pass on the k successor-set states: three
        # edges of a full shift are one state
        calls = []
        tarjan = gg.tarjan_scc

        def counted(succ):
            calls.append(len(succ))
            return tarjan(succ)
        monkeypatch.setattr(gg, "tarjan_scc", counted)
        for make in (lambda: two_component_system(linked=True), feeder_system,
                     _two_step_bridge_system, lambda: gk.full_shift([0.2, 0.2, 0.2])):
            sys = make()
            report = gk.scc_decompose(sys)
            assert calls == [len(sys.lumping.members)]
            assert gk.scc_decompose(sys) == report
            assert calls == [len(sys.lumping.members)]
            calls.clear()
        assert len(sys.lumping.members) == 1


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

    def test_dead_chain_is_pruned_by_one_slice(self, monkeypatch):
        # block {a, b}, fed by f; the chain d4 -> d3 -> d2 -> d1 and s -> d2, d1
        # reach no cycle. Each dead edge goes one round after its last
        # successor, and the ids of a round come in edge order
        ratios = {k: 0.1 for k in ("d1", "a", "d3", "b", "d2", "s", "d4", "f")}
        allowed = {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("f", "a"),
                   ("d4", "d3"), ("d3", "d2"), ("d2", "d1"), ("s", "d2"), ("s", "d1")}
        sys = packed_system("dead-chain", ratios, allowed)
        slices = []
        subsystem = gk.GdmsSystem.subsystem

        def counted(self, idx):
            slices.append(list(idx))
            return subsystem(self, idx)
        monkeypatch.setattr(gk.GdmsSystem, "subsystem", counted)
        pruned, warnings = gk.validate(sys)
        assert slices == [[1, 3, 7]]
        assert pruned.edge_ids == ("a", "b", "f")
        assert warnings == ("pruned 5 edge(s) with no successor: d1, d2, d3, s, d4",)
        assert gk.prune(pruned) == (pruned, ())
        assert len(slices) == 1

    def test_prune_matches_round_by_round_removal(self, rng):
        checked = 0
        while checked < 40:
            sys = random_packed_system(rng, max_edges=8)
            if sys is None:
                continue
            checked += 1
            pruned, removed = gk.prune(sys)
            live, want = list(sys.edge_ids), []
            succ = sys.successor_map
            while dead := [a for a in live if not set(succ[a]) & set(live)]:
                want += dead
                live = [a for a in live if a not in dead]
            assert removed == tuple(want)
            assert pruned.edge_ids == tuple(live)


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
        space = gm.VertexSpace("v", 0.0, 1.0)
        edges = [("e1", "v", "v", gm.SimilarityMap(1 / 3, 0.0)),
                 ("e2", "v", "v", gm.SimilarityMap(1 / 3, 2 / 3))]
        sys = gs.similarity_system("alt", ("v",), {"v": space}, edges,
                                   gk.IncidenceSpec(gg.EXPLICIT), {("e1", "e2"), ("e2", "e1")})
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
            # Tarjan on the edges themselves, read from the matrix rows
            ids = sys.edge_ids
            succ = [np.flatnonzero(row).tolist() for row in sys.incidence_matrix]
            sccs = gg.tarjan_scc(succ)
            want = len(sccs) == 1 and (len(ids) > 1 or 0 in succ[0])
            assert sys.irreducible == want
            assert gk.matrix_properties(sys).irreducible == want
        assert not two_component_system(linked=True).irreducible

    def test_finite_equivalence_of_irreducibility_notions(self, rng):
        # about 2% of these systems are irreducible with a period above 1
        checked, periodic = 0, 0
        while checked < 300:
            made = random_packed_system_and_pairs(rng)
            if made is None:
                continue
            checked += 1
            sys, allowed = made
            props = gk.matrix_properties(sys)
            assert props.finitely_irreducible == props.irreducible
            assert props.primitive == _wielandt_primitive(sys.edge_ids, allowed)
            periodic += props.irreducible and not props.primitive
        assert periodic > 0

    def test_cost_is_linear_in_the_edge_graph(self):
        # a 300-edge ring with out-degree 2: e_k -> e_{k+1}, e_{k+2}, whose
        # successor sets are all distinct, so the quotient is the edge graph.
        # Once the cached views are built, the verdicts need only the period
        # BFS; one connecting word per ordered pair would hold about E^3/2
        # letters.
        E = 300
        space = gm.VertexSpace("v", 0.0, 1.0)
        edges = [(f"e{k}", "v", "v", gm.SimilarityMap(0.5 / E, k / E)) for k in range(E)]
        allow = {(f"e{k}", f"e{(k + d) % E}") for k in range(E) for d in (1, 2)}
        sys = gs.similarity_system("ring", ("v",), {"v": space}, edges,
                                   gk.IncidenceSpec(gg.EXPLICIT), allow)
        assert sys.irreducible and len(sys.state_arcs) == E
        tracemalloc.start()
        try:
            props = gk.matrix_properties(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (props.irreducible, props.primitive, props.finitely_irreducible) \
            == (True, True, True)
        assert peak < 1_000_000


def _wielandt_primitive(ids, allowed):
    """Whether A^k > 0 at k = (E - 1)^2 + 1, A the 0/1 matrix of the allow
    pairs: Wielandt's bound, past which a primitive matrix stays positive."""
    index = {e: k for k, e in enumerate(ids)}
    A = np.zeros((len(ids), len(ids)), dtype=bool)
    for a, b in allowed:
        A[index[a], index[b]] = True
    power = A
    for _ in range((len(ids) - 1) ** 2):
        power = (power.astype(int) @ A.astype(int)) > 0
    return bool(power.all())
