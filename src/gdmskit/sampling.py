"""Random limit-set points and box-counting dimension cross-checks.

Words are drawn by uniform random successor choice, so point density is
biased relative to the conformal measure, but the support is not; the box
slope only sees the support.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotApplicableError, ResourceGuardError
from .graph import count_guard
from .system import GdmsSystem, diameter_bound, empty_limit_set, prune

RNG_NAME = "python-mt19937-per-point"
_SEED_MIX = 0x9E3779B97F4A7C15


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


def sample_points(system: GdmsSystem, count: int, depth: int, seed: int) -> LimitPointSample:
    """Draw `count` admissible words of length `depth`, reproducibly.

    Words are walked on the pruned system, where every edge has a
    successor, so every walk reaches `depth`. Point k uses its own generator
    derived from (seed, k), so the output is independent of evaluation
    order. Midpoints of the terminal image intervals approximate coding-map
    values within the interval diameter. More than the count guard of
    letters (count * depth) raises ResourceGuardError before any is drawn.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if count < 1:
        raise InputError("count must be >= 1")
    if empty_limit_set(system):
        raise NotApplicableError("empty limit set: nothing to sample")

    guard = count_guard()
    if count * depth > guard:
        raise ResourceGuardError(
            f"sample of {count} words of length {depth} exceeds count guard of {guard}")

    system = prune(system)[0]
    succ = system.successors
    edges = range(len(succ))
    walks = []
    for k in range(count):
        choice = random.Random(seed * _SEED_MIX + k).choice
        e = choice(edges)
        walk = [e]
        for _ in range(depth - 1):
            e = choice(succ[e])
            walk.append(e)
        walks.append(walk)
    los, his = system.word_intervals(walks)
    ids = system.edge_ids
    entries = [SampleEntry(tuple(map(ids.__getitem__, walk)), (lo, hi), 0.5 * (lo + hi))
               for walk, lo, hi in zip(walks, los.tolist(), his.tolist())]

    anchor = min(s.lo for s in system.spaces.values())
    return LimitPointSample(seed, depth, tuple(entries),
                            diameter_bound(system, depth), anchor)


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
