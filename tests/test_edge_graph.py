"""One edge graph per parsed system: restrictions slice it, the level-1 open
set check sweeps it, and the incidence matrix is built once."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from gdmskit import system as gs
from conftest import random_graph_complete_system, random_packed_system_and_pairs

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
