"""Seeded inputs for the benchmark workloads.

Every input reaches the program as spec text written here from the grammar
documented in `gdmskit/specfile.py`. Nothing is produced by the program's own
`serialize_spec`, so a change to the program cannot change what it is fed.
The same seed always yields byte-identical text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- sim-blocks ---------------------------------------------------------------

BLOCK_SIZES = (120, 120, 60)
BLOCK_PREFIX = ("a", "b", "c")
INTRA_P = 0.3
LINK_P = 0.01
# Share of [0, 1] taken by each block's images: block a on the left, block b
# its mirror image on the right, block c in the middle.
BLOCK_SPAN = (0.4, 0.4, 0.2)


@dataclass(frozen=True)
class SimBlocks:
    """A generated block system plus everything the oracles need to know."""

    text: str
    ids: tuple           # edge ids in spec order
    ratios: tuple        # contraction ratio per edge, same order
    allowed: frozenset   # (a, b) pairs of edge ids
    blocks: tuple        # tuple of tuples of edge ids, one per block


def _block_layout(rng, n, lo, span):
    """Ratios and left ends of n disjoint images packed into [lo, lo + span]."""
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(weights)
    gap = 0.1 * span / n
    ratios, offsets = [], []
    cursor = lo
    for w in weights:
        r = 0.9 * span * w / total
        ratios.append(r)
        offsets.append(cursor)
        cursor += r + gap
    return ratios, offsets


def _intra_pairs(rng, n):
    """Index pairs of one block: a ring keeps the block strongly connected
    for every seed, and every other ordered pair is allowed with INTRA_P."""
    pairs = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if rng.random() < INTRA_P:
                pairs.add((i, j))
    return sorted(pairs)


def sim_blocks(seed: int) -> SimBlocks:
    """Explicit-incidence similarity system on one vertex in three blocks.

    Block b is the mirror image of block a (x -> 1 - x conjugation, same
    ratios and the same intra-block pattern), so the two have equal
    dimension. One-way links a -> b and b -> c make a and b communicate, so
    the Hausdorff measure at the dimension is infinite. Block c has half the
    edges at the same density and a strictly smaller dimension.
    """
    rng = random.Random(f"sim-blocks/{seed}")
    na, nb, nc = BLOCK_SIZES
    ids = [[f"{p}{k:03d}" for k in range(n)] for p, n in zip(BLOCK_PREFIX, BLOCK_SIZES)]

    ra, oa = _block_layout(rng, na, 0.0, BLOCK_SPAN[0])
    rb = list(ra)
    ob = [1.0 - o - r for o, r in zip(oa, ra)]
    rc, oc = _block_layout(rng, nc, BLOCK_SPAN[0], BLOCK_SPAN[2])

    pattern_a = _intra_pairs(rng, na)
    pattern_c = _intra_pairs(rng, nc)
    allowed = []
    allowed += [(ids[0][i], ids[0][j]) for i, j in pattern_a]
    allowed += [(ids[1][i], ids[1][j]) for i, j in pattern_a]
    allowed += [(ids[2][i], ids[2][j]) for i, j in pattern_c]
    for src, dst in ((0, 1), (1, 2)):
        for a in ids[src]:
            for b in ids[dst]:
                if rng.random() < LINK_P:
                    allowed.append((a, b))

    lines = [f"system sim-blocks-{seed}", "space v 0 1"]
    all_ids, all_ratios = [], []
    for block, ratios, offsets in zip(ids, (ra, rb, rc), (oa, ob, oc)):
        for eid, r, o in zip(block, ratios, offsets):
            lines.append(f"edge {eid} v v similarity {r!r} {o!r} 1")
            all_ids.append(eid)
            all_ratios.append(r)
    lines.append("incidence explicit")
    lines += [f"allow {a} {b}" for a, b in allowed]
    return SimBlocks("\n".join(lines) + "\n", tuple(all_ids), tuple(all_ratios),
                     frozenset(allowed), tuple(tuple(b) for b in ids))


SIM_SAMPLE_COUNT = 2000
SIM_SAMPLE_DEPTH = 12

# -- cf-trunc -------------------------------------------------------------------


@dataclass(frozen=True)
class CfCase:
    """One continued-fraction truncation whose dimension is bracketed."""

    name: str
    rule: str            # "full" | "banded" | "upper"
    width: int           # band width, banded only
    size: int            # truncation {1..size}
    n_max: int
    guard_case: bool = False  # expected to trip the enumeration count guard

    @property
    def text(self) -> str:
        return cf_text(self.name, self.rule, self.width, self.size)


def cf_text(name, rule, width=0, size=None) -> str:
    family = "family cf" if size is None else f"family cf truncate {size}"
    incidence = f"incidence banded {width}" if rule == "banded" else f"incidence {rule}"
    return f"system {name}\n{family}\n{incidence}\n"


CF_CASES = (
    CfCase("full2", "full", 0, 2, 14),
    CfCase("full3", "full", 0, 3, 12),
    CfCase("full4", "full", 0, 4, 10),
    CfCase("banded8", "banded", 1, 8, 10),
    CfCase("upper6", "upper", 0, 6, 14),
    CfCase("full5", "full", 0, 5, 14, guard_case=True),
)
CF_INFINITE_RULES = (("full", 0), ("banded", 1), ("upper", 0))
CF_SWEEP_SIZES = (4, 6, 8)
CF_CURVE_POINTS = 11


@dataclass(frozen=True)
class CfPlan:
    cases: tuple         # CfCase, in seeded order
    curve_ts: tuple      # t grid for the full N=2 pressure curve


def cf_plan(seed: int) -> CfPlan:
    """Seeded order of the dimension cases and offset of the curve's t grid."""
    rng = random.Random(f"cf-trunc/{seed}")
    cases = list(CF_CASES)
    rng.shuffle(cases)
    offset = rng.uniform(0.0, 0.05)
    ts = tuple(offset + k / (CF_CURVE_POINTS - 1) for k in range(CF_CURVE_POINTS))
    return CfPlan(tuple(cases), ts)


# -- cli-corpus -----------------------------------------------------------------

THIRD = 1.0 / 3.0

CANTOR = ("system cantor\nspace v 0 1\n"
          f"edge e1 v v similarity {THIRD!r} 0 1\n"
          f"edge e2 v v similarity {THIRD!r} {2 * THIRD!r} 1\n"
          "incidence full\n")

GOLDEN = ("system golden\nspace v 0 1\n"
          "edge e1 v v similarity 0.5 0 1\n"
          "edge e2 v v similarity 0.25 0.75 1\n"
          "incidence full\n")


def _two_component(linked: bool) -> str:
    """Two middle-thirds Cantor blocks {a, b} and {c, d} on one vertex, with
    the crossing pair b -> c when linked. Both blocks have dimension
    ln 2 / ln 3, so linking them turns a finite Hausdorff measure into an
    infinite one. The blocks' images coincide; the open-set check only warns."""
    name = "linked" if linked else "unlinked"
    allows = ["a a", "a b", "b a", "b b", "c c", "c d", "d c", "d d"]
    if linked:
        allows.append("b c")
    return (f"system {name}\nspace v 0 1\n"
            f"edge a v v similarity {THIRD!r} 0 1\n"
            f"edge b v v similarity {THIRD!r} {2 * THIRD!r} 1\n"
            f"edge c v v similarity {THIRD!r} 0 1\n"
            f"edge d v v similarity {THIRD!r} {2 * THIRD!r} 1\n"
            "incidence explicit\n" + "".join(f"allow {p}\n" for p in allows))


FEEDER = ("system feeder\nspace v 0 1\n"
          f"edge a v v similarity {THIRD!r} 0 1\n"
          f"edge b v v similarity {THIRD!r} {2 * THIRD!r} 1\n"
          "edge x1 v v similarity 0.5 0 1\n"
          "edge x2 v v similarity 0.5 0.5 1\n"
          "incidence explicit\n"
          "allow a a\nallow a b\nallow b a\nallow b b\nallow x1 x2\nallow x2 a\n")


def random_packed(seed: int, n_edges: int = 8) -> tuple:
    """Small one-vertex system with disjoint images and a planted ring, so it
    is irreducible for every seed. Returns (text, ratios, allowed pairs)."""
    rng = random.Random(f"cli-corpus/{seed}")
    weights = [rng.uniform(0.5, 1.5) for _ in range(n_edges)]
    total = sum(weights)
    ids = [f"e{k}" for k in range(n_edges)]
    ratios = [0.8 * w / total for w in weights]
    gap = 0.2 / n_edges
    lines = [f"system random-{seed}", "space v 0 1"]
    cursor = 0.0
    for eid, r in zip(ids, ratios):
        lines.append(f"edge {eid} v v similarity {r!r} {cursor!r} 1")
        cursor += r + gap
    allowed = {(ids[k], ids[(k + 1) % n_edges]) for k in range(n_edges)}
    allowed |= {(a, b) for a in ids for b in ids if rng.random() < 0.4}
    lines.append("incidence explicit")
    lines += [f"allow {a} {b}" for a, b in sorted(allowed)]
    return "\n".join(lines) + "\n", dict(zip(ids, ratios)), frozenset(allowed)


def cli_specs(seed: int) -> dict:
    """File name -> spec text for the cli-corpus workload."""
    random_text, _, _ = random_packed(seed)
    return {
        "cantor.gdms": CANTOR,
        "golden.gdms": GOLDEN,
        "linked.gdms": _two_component(True),
        "unlinked.gdms": _two_component(False),
        "feeder.gdms": FEEDER,
        "random.gdms": random_text,
        "cf-full2.gdms": cf_text("cf-full2", "full", 0, 2),
        "cf-full.gdms": cf_text("cf-full", "full"),
        "cf-banded.gdms": cf_text("cf-banded", "banded", 1),
        "cf-upper.gdms": cf_text("cf-upper", "upper"),
    }
