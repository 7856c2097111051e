import math
import random

import numpy as np
import pytest

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from gdmskit import system as gs

# dim E_2, the reals whose continued-fraction digits all lie in {1, 2}
# (Jenkinson and Pollicott, Ergodic Theory Dynam. Systems 21, 2001)
E2 = 0.53128050627720514


def log_rho(system):
    """ln rho(A) of the 0/1 incidence matrix, from numpy eigvals: the
    entropy P(0) of a finite system."""
    return math.log(max(abs(np.linalg.eigvals(system.incidence_matrix))))


def dense_lumping(A):
    """(state_of, members, state_lists, state_arcs) of the square boolean
    matrix A, its letters grouped by their rows as the edge graph was
    lumped from a stored dense incidence matrix: each row hashed as its
    packed bytes and named by its first letter, states numbered in that
    order; each state's set as ascending positions, and the ascending
    distinct states of those positions."""
    A, index = np.ascontiguousarray(A, dtype=bool), {}
    packed = np.packbits(A, axis=1)
    sets = packed.view(f"V{packed.shape[1]}").ravel().tolist()
    leader = np.array([index.setdefault(p, a) for a, p in enumerate(sets)], dtype=np.intp)
    first = np.fromiter(index.values(), dtype=np.intp, count=len(index))
    state_of = np.searchsorted(first, leader)
    lists = tuple(np.flatnonzero(row).tolist() for row in A[first])
    return state_of, A[first], lists, tuple(sorted(set(state_of[s].tolist())) for s in lists)


def intra_full(ids):
    return {(a, b) for a in ids for b in ids}


def two_component_system(r1=1 / 3, r2=1 / 4, linked=False):
    """Two 2-edge Cantor blocks on one vertex; optional crossing pair (b, c)."""
    allowed = intra_full(["a", "b"]) | intra_full(["c", "d"])
    if linked:
        allowed.add(("b", "c"))
    space = gm.VertexSpace("v", 0.0, 1.0)
    edges = [
        ("a", "v", "v", gm.SimilarityMap(r1, 0.0)),
        ("b", "v", "v", gm.SimilarityMap(r1, 1.0 - r1)),
        ("c", "v", "v", gm.SimilarityMap(r2, 0.0)),
        ("d", "v", "v", gm.SimilarityMap(r2, 1.0 - r2)),
    ]
    return gs.similarity_system("two-component", ("v",), {"v": space}, edges,
                                gg.IncidenceSpec(gg.EXPLICIT), allowed)


def feeder_system():
    """One full 2-edge component plus two isolated edges chaining into it."""
    allowed = intra_full(["a", "b"]) | {("x1", "x2"), ("x2", "a")}
    space = gm.VertexSpace("v", 0.0, 1.0)
    edges = [
        ("a", "v", "v", gm.SimilarityMap(1 / 3, 0.0)),
        ("b", "v", "v", gm.SimilarityMap(1 / 3, 2 / 3)),
        ("x1", "v", "v", gm.SimilarityMap(1 / 2, 0.0)),
        ("x2", "v", "v", gm.SimilarityMap(1 / 2, 1 / 2)),
    ]
    return gs.similarity_system("feeder", ("v",), {"v": space}, edges,
                                gg.IncidenceSpec(gg.EXPLICIT), allowed)


def reference_image(family, word, x):
    """phi_word(x) without `maps.word_images`: a continued-fraction word
    from its exact integer continuants, (p_n + p_{n-1} x) / (q_n + q_{n-1} x);
    a similarity word by composing x -> a*x + b in Python floats from the
    last letter to the first."""
    if isinstance(family, gm.MoebiusCfFamily):
        p, p_prev, q, q_prev = gm.cf_continuants(word)
        return (p + p_prev * x) / (q + q_prev * x)
    a, b = 1.0, 0.0
    for e in reversed(word):
        m = family.map_for(e)
        a, b = m.sign * m.ratio * a, m.sign * m.ratio * b + m.offset
    return a * x + b


def packed_system(name, ratios, allowed):
    """One-vertex explicit-incidence system; `ratios` maps edge id -> ratio
    and the level-1 images are packed left to right inside [0, 1]."""
    space = gm.VertexSpace("v", 0.0, 1.0)
    edges, cursor = [], 0.0
    for eid, ratio in ratios.items():
        edges.append((eid, "v", "v", gm.SimilarityMap(ratio, cursor)))
        cursor += ratio
    return gs.similarity_system(name, ("v",), {"v": space}, edges,
                                gg.IncidenceSpec(gg.EXPLICIT), allowed)


def mirrored_blocks_system():
    """Two copies of one irreducible 3-edge block, linked one way (a3 -> b1).

    The blocks have equal spectral radius, so the whole transfer matrix has
    a Jordan block at its Perron root. The edges of the two blocks
    alternate, so the matrix is not block triangular in edge order."""
    pattern = [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1)]
    allowed = {(f"{k}{i}", f"{k}{j}") for k in "ab" for i, j in pattern}
    allowed.add(("a3", "b1"))
    ratios = {f"{k}{i}": r for i, r in zip((1, 2, 3), (0.2, 0.12, 0.08)) for k in "ab"}
    return packed_system("mirrored", ratios, allowed)


def three_block_system(seed, sizes=(120, 120, 60)):
    """Seeded one-vertex explicit similarity system in three blocks a, b, c:
    each block is a ring plus every other ordered pair with probability 0.3,
    b a copy of a (same ratios, same pairs), and one-way links a -> b and
    b -> c with probability 0.01 each. Every block's ratios sum to 0.3, so
    the packed level-1 images fit in [0, 1]."""
    rng = random.Random(seed)
    ids = [[f"{p}{k:03d}" for k in range(n)] for p, n in zip("abc", sizes)]
    raw = {}
    patterns = {}
    for name, n in (("a", sizes[0]), ("c", sizes[2])):
        weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
        raw[name] = [0.3 * w / sum(weights) for w in weights]
        patterns[name] = {(i, (i + 1) % n) for i in range(n)} | {
            (i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}
    raw["b"], patterns["b"] = raw["a"], patterns["a"]
    ratios = {eid: r for block, name in zip(ids, "abc") for eid, r in zip(block, raw[name])}
    allowed = {(block[i], block[j]) for block, name in zip(ids, "abc")
               for i, j in patterns[name]}
    allowed |= {(x, y) for src, dst in ((0, 1), (1, 2)) for x in ids[src] for y in ids[dst]
                if rng.random() < 0.01}
    return packed_system(f"three-block-{seed}", ratios, allowed)


def period_two_system():
    """Irreducible with period 2: p-edges are always followed by q-edges."""
    ps, qs = ("p1", "p2"), ("q1", "q2")
    allowed = {(a, b) for a in ps for b in qs} | {(b, a) for a in ps for b in qs}
    return packed_system("period-two", {"p1": 0.3, "p2": 0.2, "q1": 0.25, "q2": 0.1},
                         allowed)


def random_packed_system(rng, max_edges=6):
    """Random explicit-incidence similarity system with disjoint level-1 images."""
    made = random_packed_system_and_pairs(rng, max_edges)
    return None if made is None else made[0]


def random_packed_system_and_pairs(rng, max_edges=6):
    """(`random_packed_system`, the set of allow pairs it was made from)."""
    n_vertices = rng.randint(1, 3)
    vertices = tuple(f"v{k}" for k in range(n_vertices))
    spaces = {v: gm.VertexSpace(v, 0.0, 1.0) for v in vertices}
    n_edges = rng.randint(2, max_edges)
    raw = [(f"e{k}", rng.choice(vertices), rng.choice(vertices))
           for k in range(n_edges)]
    edges = []
    cursor = {v: 0.0 for v in vertices}
    for eid, src, dst in raw:
        room = 1.0 - cursor[src]
        ratio = rng.uniform(0.15, 0.8) * room
        if ratio < 1e-3:
            continue
        edges.append((eid, src, dst, gm.SimilarityMap(ratio, cursor[src])))
        cursor[src] += ratio
    if len(edges) < 2:
        return None
    ids = [e[0] for e in edges]
    by_id = {e[0]: e for e in edges}
    compatible = [(a, b) for a in ids for b in ids
                  if by_id[a][2] == by_id[b][1]]
    allowed = {pair for pair in compatible if rng.random() < 0.7}
    if not allowed:
        return None
    return gs.similarity_system("random", vertices, spaces, edges,
                                gg.IncidenceSpec(gg.EXPLICIT), allowed), allowed


def random_graph_complete_system(rng, max_edges=6):
    """Random multigraph system whose incidence is the full compatibility
    matrix (b may follow a exactly when t(a) = i(b)); retried until the edge
    graph is strongly connected."""
    n_vertices = rng.randint(1, 3)
    vertices = tuple(f"v{k}" for k in range(n_vertices))
    spaces = {v: gm.VertexSpace(v, 0.0, 1.0) for v in vertices}
    n_edges = rng.randint(max(2, n_vertices), max_edges)
    edges = []
    cursor = {v: 0.0 for v in vertices}
    for k in range(n_edges):
        src = rng.choice(vertices)
        dst = rng.choice(vertices)
        room = 1.0 - cursor[src]
        ratio = rng.uniform(0.15, 0.7) * room
        if ratio < 1e-3:
            continue
        edges.append((f"e{k}", src, dst, gm.SimilarityMap(ratio, cursor[src])))
        cursor[src] += ratio
    if len(edges) < 2:
        return None
    sys = gs.similarity_system("random-gc", vertices, spaces, edges,
                               gg.IncidenceSpec(gg.FULL))
    if not gk.matrix_properties(sys).irreducible:
        return None
    return sys


@pytest.fixture
def rng():
    return random.Random(20260826)
