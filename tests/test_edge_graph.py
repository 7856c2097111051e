"""One edge graph per parsed system: restrictions slice it, the level-1 open
set check sweeps it, the incidence matrix is built once, and every reader
walks it on successor-set states with the answers of the edges."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from gdmskit import system as gs
from conftest import (packed_system, random_graph_complete_system,
                      random_packed_system_and_pairs)
from test_dimension import _explicit_specs, _many_edge_spec

# image ends on a grid of eighths, nudged around the 1e-12 overlap threshold,
# so that images touch, share lower ends and nest
_NUDGES = (0.0, 0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1.5e-12, -2e-12)


@st.composite
def _level1_systems(draw):
    vertices = tuple(f"v{k}" for k in range(draw(st.integers(1, 3))))
    spaces = {v: gm.VertexSpace(v, 0.0, 1.0) for v in vertices}
    edges = []
    for k in range(draw(st.integers(1, 25))):
        a = draw(st.integers(0, 7))
        b = draw(st.integers(a + 1, min(8, a + 7)))
        lo = max(0.0, a / 8 + draw(st.sampled_from(_NUDGES)))
        hi = min(1.0, b / 8 + draw(st.sampled_from(_NUDGES)))
        sign = draw(st.sampled_from((1, -1)))
        sim = gm.SimilarityMap(hi - lo, lo if sign == 1 else hi, sign)
        edges.append((f"e{k}", draw(st.sampled_from(vertices)),
                      draw(st.sampled_from(vertices)), sim))
    return gk.similarity_system("osc", vertices, spaces, edges, gk.IncidenceSpec(gg.FULL))


def _pair_loop_warnings(system):
    """The reference: every pair of edges with a common source vertex, in
    edge order."""
    edges = system.graph.edges
    images = [system.word_interval((e.id,)) for e in edges]
    warnings = []
    for i, a in enumerate(edges):
        lo_a, hi_a = images[i]
        for j in range(i + 1, len(edges)):
            b = edges[j]
            lo_b, hi_b = images[j]
            if a.src != b.src:
                continue
            overlap = min(hi_a, hi_b) - max(lo_a, lo_b)
            if overlap > 1e-12:
                warnings.append(
                    f"images of edges {a.id!r} and {b.id!r} overlap on interior "
                    f"width {overlap:.3g}; open set condition may fail")
    return tuple(warnings)


@settings(max_examples=300, deadline=None)
@given(_level1_systems())
def test_osc_sweep_matches_pair_loop(system):
    _, warnings = gs.validate(system)
    assert warnings == _pair_loop_warnings(system)


def test_osc_sweep_threshold_cases():
    # touching within 1e-12 (no warning), equal lower ends, nested images and
    # an overlap on another source vertex (no warning across sources)
    spaces = {v: gm.VertexSpace(v, 0.0, 1.0) for v in ("u", "w")}
    images = {"p": ("u", 0.0, 0.25), "q": ("u", 0.25 - 5e-13, 0.5),
              "r": ("u", 0.0, 0.125), "s": ("u", 0.0625, 0.09375),
              "t": ("w", 0.0, 0.5)}
    edges = [(e, v, v, gm.SimilarityMap(hi - lo, lo)) for e, (v, lo, hi) in images.items()]
    system = gk.similarity_system("touch", ("u", "w"), spaces, edges,
                                  gk.IncidenceSpec(gg.FULL))
    _, warnings = gs.validate(system)
    assert warnings == _pair_loop_warnings(system)
    assert [w.split(" overlap")[0] for w in warnings] == [
        "images of edges 'p' and 'r'", "images of edges 'p' and 's'",
        "images of edges 'r' and 's'"]


def _fresh(system, keep, allowed=None):
    """The subsystem on `keep` with nothing carried over: its incidence
    matrix comes from the named rule or, for an explicit incidence, from
    `allowed`, the allow pairs the system was made from."""
    keep = set(keep)
    edges = tuple(e for e in system.graph.edges if e.id in keep)
    if allowed is None:
        return replace(system, graph=gg.MultiGraph(system.graph.vertices, edges))
    return gk.similarity_system(
        system.name, system.graph.vertices, system.spaces,
        [(e.id, e.src, e.dst, system.family.map_for(e.id)) for e in edges],
        system.incidence, {(a, b) for a, b in allowed if a in keep and b in keep})


def _assert_same_edge_graph(sliced, fresh):
    assert sliced.edge_ids == fresh.edge_ids
    assert np.array_equal(sliced.incidence_matrix, fresh.incidence_matrix)
    assert np.array_equal(sliced.log_norms, fresh.log_norms)
    assert not sliced.incidence_matrix.flags.writeable
    assert not sliced.log_norms.flags.writeable
    assert sliced.successor_map == fresh.successor_map
    assert sliced.sccs == fresh.sccs
    assert sliced.components == fresh.components


def _subsets(rng, system):
    ids = list(system.edge_ids)
    yield ids
    yield []
    for _ in range(4):
        yield rng.sample(ids, rng.randint(1, len(ids)))
    yield from system.components


def test_sliced_restriction_equals_fresh_build_explicit(rng):
    checked = 0
    while checked < 40:
        if checked % 2:
            system, allowed = random_graph_complete_system(rng, max_edges=9), None
        else:
            system, allowed = random_packed_system_and_pairs(rng, max_edges=9) or (None, None)
        if system is None:
            continue
        checked += 1
        for keep in _subsets(rng, system):
            sub = system.restrict(keep)
            fresh = _fresh(system, keep, allowed)
            _assert_same_edge_graph(sub, fresh)
            assert gk.serialize_spec(sub) == gk.serialize_spec(fresh)


@pytest.mark.parametrize("kind,width", [(gg.FULL, 0), (gg.BANDED, 1), (gg.BANDED, 2)])
def test_sliced_restriction_equals_fresh_build_cf_heads(rng, kind, width):
    system = gk.cf_system(gk.IncidenceSpec(kind, width), truncate=12)
    for keep in _subsets(rng, system):
        _assert_same_edge_graph(system.restrict(keep), _fresh(system, keep))
    # restrictions of restrictions slice the sliced arrays again
    sub = system.restrict((2, 3, 5, 6, 7, 11))
    _assert_same_edge_graph(sub.restrict((3, 5, 6)), _fresh(system, (3, 5, 6)))


LINKED = """\
system linked
space v 0 1
edge a v v similarity 0.3333333333333333 0 1
edge b v v similarity 0.3333333333333333 0.66666666666666674 1
edge c v v similarity 0.125 0.375 1
edge d v v similarity 0.125 0.53125 1
edge z v v similarity 0.015625 0.34375 1
incidence explicit
allow a a
allow a b
allow b a
allow b b
allow b c
allow c c
allow c d
allow d c
allow d d
allow d z
"""


def test_incidence_matrix_is_built_once_per_parse(monkeypatch):
    calls = []
    build = gg.incidence_array

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(gg, "incidence_array", counted)
    system, warnings = gk.parse_spec(LINKED)
    assert warnings == ("pruned 1 edge(s) with no successor: z",)
    gk.scc_decompose(system)
    gk.bowen_dimension(system)
    result = gk.classify_hausdorff_measure(system, n_range=range(1, 6))
    core = max(system.components, key=len)
    gk.conformal_cylinder_measure(system.restrict(core), result.dimension.mid)
    gk.sample_points(system, 20, 4, 1)
    assert len(calls) == 1


@st.composite
def _vertex_determined_systems(draw):
    """1-4 vertices and 1-10 edges between random ends under `incidence
    full`: b follows a exactly when a ends where b starts, so the edges
    that end at one vertex share a successor set."""
    vertices = tuple(f"v{k}" for k in range(draw(st.integers(1, 4))))
    spaces = {v: gm.VertexSpace(v, 0.0, 1.0) for v in vertices}
    n = draw(st.integers(1, 10))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         min_size=n, max_size=n))
    edges = [(f"e{k}", a, b, gm.SimilarityMap(0.5 / n, k / n)) for k, (a, b) in enumerate(ends)]
    return gk.similarity_system("vd", vertices, spaces, edges, gk.IncidenceSpec(gg.FULL))


@st.composite
def _layered_specs(draw):
    """`_explicit_specs` of up to 10 edges keeping the pair (a, b) only when
    b has at least as many successors as a: equal rows stay equal, most
    cycles break, and components chain through isolated edges and through
    each other, so that condensation and communication differ."""
    name, ratios, allowed = draw(_explicit_specs(10))
    out = {a: sum(1 for p in allowed if p[0] == a) for a in ratios}
    return name, ratios, {(a, b) for a, b in allowed if out[b] >= out[a]}


def _edge_level_answers(system):
    """Every structural answer computed on the edges themselves, from the
    rows of the incidence matrix and Tarjan on the edge graph: components
    (ordered by their first edge), isolated ids, condensation and
    communication pairs by breadth-first search, the period of an
    irreducible graph (gcd of the n <= E with a closed walk of length n,
    which include every simple cycle) and the prune removal order, round by
    round."""
    A, ids = system.incidence_matrix, system.edge_ids
    succ = [np.flatnonzero(row).tolist() for row in A]
    comps = sorted(sorted(c) for c in gg.tarjan_scc(succ) if len(c) > 1 or c[0] in succ[c[0]])
    owner = {e: i for i, comp in enumerate(comps) for e in comp}
    condensation, communication = set(), set()
    for i, comp in enumerate(comps):
        for through_isolated, found in ((True, condensation), (False, communication)):
            queue = [w for e in comp for w in succ[e]]
            seen = set(queue)
            while queue:
                v = queue.pop()
                j = owner.get(v)
                if j is not None and j != i:
                    found.add((i, j))
                if through_isolated and j is not None:
                    continue
                for w in set(succ[v]) - seen:
                    seen.add(w)
                    queue.append(w)
    period = None
    if len(comps) == 1 and len(comps[0]) == len(ids):
        walks, power, period = A.astype(int), A.astype(int), 0
        for n in range(1, len(ids) + 1):
            if np.trace(power):
                period = math.gcd(period, n)
            power = np.minimum(power @ walks, 1)
    live, removed = list(range(len(ids))), []
    while dead := [a for a in live if not set(succ[a]) & set(live)]:
        removed += dead
        live = [a for a in live if a not in dead]
    return (tuple(frozenset(ids[e] for e in comp) for comp in comps),
            frozenset(ids[e] for e in range(len(ids)) if e not in owner),
            frozenset(condensation), frozenset(communication), period,
            tuple(ids[e] for e in removed))


@settings(max_examples=300, deadline=None)
@given((_explicit_specs() | _layered_specs()).map(lambda spec: packed_system(*spec))
       | _vertex_determined_systems())
def test_state_quotient_gives_the_edge_graph_answers(system):
    # the explicit specs repeat rows, so edges share successor sets; an edge
    # of a state on a quotient cycle can still be isolated
    components, isolated, condensation, communication, period, removed = \
        _edge_level_answers(system)
    report = gk.scc_decompose(system)
    assert system.components == report.components == components
    assert report.isolated == isolated
    assert report.condensation == condensation
    assert report.communication == communication
    props = gk.matrix_properties(system)
    assert props.irreducible == (period is not None) == system.irreducible
    if period is not None:
        assert props.primitive == (period == 1)
        assert props.justification["primitive"].startswith(f"gcd of cycle lengths is {period}")
    pruned, dropped = gk.prune(system)
    assert dropped == removed
    assert set(pruned.edge_ids) == set(system.edge_ids) - set(removed)


def test_vertex_determined_edge_graph_is_read_on_four_states():
    # 2400 edges on 4 vertices under `incidence full`: 5.76 million allowed
    # pairs, but 4 successor sets, so the SCC report, the verdicts, pruning
    # and sampling all walk a 4-state quotient and hold no list per edge
    system, _ = gk.parse_spec(_many_edge_spec(4, 600))
    tracemalloc.start()
    try:
        report = gk.scc_decompose(system)
        props = gk.matrix_properties(system)
        pruned, removed = gk.prune(system)
        sample = gk.sample_points(system, 2000, 12, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert len(system.lumping.members) == 4
    # the 4 x 4 vertex graph (edge j of vertex i ends at i + j mod 4) is
    # primitive: some power of it is positive
    where = {v: k for k, v in enumerate(system.graph.vertices)}
    V = np.zeros((4, 4), dtype=int)
    for e in system.graph.edges:
        V[where[e.src], where[e.dst]] = 1
    assert (np.linalg.matrix_power(V, 10) > 0).all()
    assert report.components == (frozenset(system.edge_ids),)
    assert report.isolated == report.condensation == report.communication == frozenset()
    assert (props.irreducible, props.primitive, props.finitely_irreducible) == (True, True, True)
    assert pruned is system and removed == ()
    assert len(sample.entries) == 2000


def test_edge_tables_are_built_once_and_read_only(monkeypatch):
    # a parse builds the Moebius coefficients and end-space bounds of the
    # edges once; every later edge walk (the level-1 check, the sampler's
    # intervals, the contraction bound) reads them and asks the family
    # about no single edge
    system, _ = gk.parse_spec(_many_edge_spec(2, 30))
    assert system.edge_ids is system.edge_ids
    coefficients, bounds = system.coefficients, system.end_bounds
    lo, hi = bounds
    for table in (*coefficients, bounds, lo, hi, system.log_norms):
        assert not table.flags.writeable
    for got, want in zip(coefficients, system.family.coefficients(system.edge_ids)):
        assert np.array_equal(got, want)
    ends = [system.spaces[e.dst] for e in system.graph.edges]
    assert lo.tolist() == [s.lo for s in ends] and hi.tolist() == [s.hi for s in ends]
    looked_up = []
    map_for = gm.SimilarityFamily.map_for
    monkeypatch.setattr(gm.SimilarityFamily, "map_for",
                        lambda family, e: looked_up.append(e) or map_for(family, e))
    gs.validate(system)
    gk.sample_points(system, 200, 6, seed=3)
    assert system.contraction_bound() == (max(abs(coefficients[0])), 1)
    gk.bowen_dimension(system)
    assert looked_up == []
    assert system.coefficients is coefficients and system.end_bounds is bounds
