"""Random limit-set points and box-counting dimension cross-checks.

Words are drawn by uniform random successor choice, so point density is
biased relative to the conformal measure, but the support is not; the box
slope only sees the support.

Step j of every walk reads one keyed stream, the raw 64-bit output of
PCG64 seeded with SeedSequence([seed, j]), and walk k takes its value k.
NEP 19 keeps that raw stream fixed across numpy versions. So word k depends
only on (seed, k): the first `count` words of a larger sample are the same
words, and a word at depth d is the prefix of the same walk at any greater
depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotApplicableError, ResourceGuardError
from .graph import as_integer, count_guard
from .system import GdmsSystem, diameter_bound, empty_limit_set, prune

RNG_NAME = "numpy-pcg64-per-step"


@dataclass(frozen=True)
class SampleEntry:
    word: tuple
    interval: tuple
    midpoint: float


@dataclass(frozen=True)
class LimitPointSample:
    seed: int
    depth: int
    entries: tuple
    diameter_bound: float
    anchor: float
    rng_name: str = RNG_NAME

    @property
    def points(self):
        return [e.midpoint for e in self.entries]


@dataclass(frozen=True)
class BoxCount:
    scales: tuple
    counts: tuple
    slope: float
    residual: float


def _step_draws(seed: int, step: int, count: int):
    """The first `count` raw 64-bit draws of the stream of walk step `step`:
    PCG64 seeded with SeedSequence([seed, step]). Walk k reads entry k."""
    return np.random.PCG64(np.random.SeedSequence([seed, step])).random_raw(count)


def _pick(raw, n):
    """floor(u * n) with u = (raw >> 11) * 2^-53, the top 53 bits of each
    raw draw as a double in [0, 1). For n < 2^53 the index is below n even
    at the largest draw, and the choice is uniform up to a total variation
    of at most n * 2^-53."""
    return ((raw >> np.uint64(11)) * 2.0 ** -53 * n).astype(np.intp)


def sample_points(system: GdmsSystem, count: int, depth: int, seed: int) -> LimitPointSample:
    """Draw `count` admissible words of length `depth`, reproducibly.

    Words are walked on the pruned system, where every edge has a
    successor, so every walk reaches `depth`. All walks advance together,
    one vectorized step per letter on the pruned system's cached `lumping`:
    letter j of walk k is `_pick`ed by entry k of `_step_draws(seed, j,
    count)`, the first among all edges, each later one among the successors
    of the letter before it, in edge order: its state's `feeding` row.
    Midpoints of the terminal image intervals approximate coding-map values
    within the interval diameter. Raises InputError unless count, depth and
    seed are integers (`graph.as_integer`) with count, depth >= 1 and
    seed >= 0, and ResourceGuardError before any draw when count * depth
    letters exceed the count guard.
    """
    count = as_integer(count, "count")
    depth = as_integer(depth, "depth")
    seed = as_integer(seed, "seed")
    if depth < 1:
        raise InputError("depth must be >= 1")
    if count < 1:
        raise InputError("count must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    if empty_limit_set(system):
        raise NotApplicableError("empty limit set: nothing to sample")

    guard = count_guard()
    if count * depth > guard:
        raise ResourceGuardError(
            f"sample of {count} words of length {depth} exceeds count guard of {guard}")

    system = prune(system)[0]
    lumping = system.lumping
    starts, deg = lumping.starts[lumping.state_of], np.diff(lumping.starts)[lumping.state_of]
    walks = np.empty((depth, count), dtype=np.intp)
    walks[0] = e = _pick(_step_draws(seed, 0, count), len(deg))
    for j in range(1, depth):
        walks[j] = e = lumping.feeding[starts[e] + _pick(_step_draws(seed, j, count), deg[e])]
    walks = walks.T

    labels = np.array(system.edge_ids, dtype=object)
    los, his = system.word_intervals(walks)
    entries = tuple(map(SampleEntry, map(tuple, labels[walks].tolist()),
                        zip(los.tolist(), his.tolist()), (0.5 * (los + his)).tolist()))

    anchor = min(s.lo for s in system.spaces.values())
    return LimitPointSample(seed, depth, entries, diameter_bound(system, depth), anchor)


def sample_from_points(points, anchor: float = 0.0,
                       error_bound: float = 0.0) -> LimitPointSample:
    """Wrap bare point values (e.g. re-read from CSV) for box counting."""
    entries = tuple(SampleEntry((), (p, p), float(p)) for p in points)
    return LimitPointSample(0, 0, entries, error_bound, anchor)


def box_dimension(sample: LimitPointSample, scales) -> BoxCount:
    """Occupied-box counts on a grid anchored at the vertex-space lower end,
    with the least-squares slope of log N against log(1/scale). Raises
    InputError for fewer than two scales, a point, scale or anchor that is
    not finite, or a position error bound that is not finite and >= 0."""
    points = np.asarray(sample.points, dtype=float)
    if points.size < 1000:
        raise InputError("box counting needs at least 1000 points")
    scales = [float(s) for s in scales]
    if len(scales) < 2:
        raise InputError("box counting needs at least two scales to fit a slope")
    if not (np.isfinite(points).all() and np.isfinite(scales).all()
            and math.isfinite(sample.anchor) and 0 <= sample.diameter_bound < math.inf):
        raise InputError("box counting needs finite points, scales, anchor and error bound >= 0")
    if any(s <= 0 for s in scales) or any(b >= a for a, b in zip(scales, scales[1:])):
        raise InputError("scales must be positive and strictly decreasing")
    floor = 10.0 * sample.diameter_bound
    if any(s < floor for s in scales):
        raise InputError(
            f"scales finer than 10x the sample position error ({floor:.3g}) "
            "would count noise")

    counts = []
    for eps in scales:
        boxes = np.unique(np.floor((points - sample.anchor) / eps))
        counts.append(int(boxes.size))
    xs = np.log([1.0 / s for s in scales])
    ys = np.log(counts)
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return BoxCount(tuple(scales), tuple(counts), float(slope), residual)
