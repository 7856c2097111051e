"""Bowen dimension, component structure checks and truncation sweeps.

The dimension of the limit set is the infimum of {t >= 0 : P(t) < 0}.
Similarity systems expose the exact pressure ln rho(B(t)); its zero is the
largest zero over strongly connected components (Mauldin and Urbanski,
Graph Directed Markov Systems, 2003), each found by safeguarded Newton
steps with Ruelle's derivative, and the bracket ends are then certified by
the sign of the whole-system pressure. Continued-fraction systems bisect
the rigorous pressure brackets instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as g
from . import thermo
from .errors import (ConvergenceError, InputError, NotApplicableError,
                     UnsupportedAnalysisError)
from .system import GdmsSystem

MORAN_EXACT = "moran-exact"
PERRON_NEWTON = "perron-newton"
BRACKET_BISECTION = "bracket-bisection"
EMPTY_LIMIT_SET = "empty-limit-set"


@dataclass(frozen=True)
class DimensionEstimate:
    lo: float
    hi: float
    method: str
    iterations: int = 0
    flagged: bool = False
    warnings: tuple = ()

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


FINITE_H_MEASURE = "FiniteHMeasure"
INFINITE_H_MEASURE = "InfiniteHMeasure"
NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class MeasureClassification:
    verdict: str
    dimension: DimensionEstimate
    maximal_components: tuple        # indices into the SCC report
    communicating_pairs: tuple       # ordered pairs of maximal-component indices
    evidence_n: tuple
    evidence_z: tuple
    growth_slope: float
    explanation: str


@dataclass(frozen=True)
class SweepEntry:
    size: int
    estimate: DimensionEstimate
    irreducible: bool


@dataclass(frozen=True)
class TruncationSweep:
    entries: tuple
    sup_lo: float
    final_interval: tuple
    monotone: bool
    warnings: tuple


@dataclass(frozen=True)
class ComponentDimensionReport:
    components: tuple           # frozensets of edge ids
    estimates: tuple            # DimensionEstimate per component
    overall: DimensionEstimate
    max_component: DimensionEstimate
    difference: float


def _bisect_decreasing(fn, lo, hi, tolerance, positive_at=None):
    """Bracket the sign change of a non-increasing function on [lo, hi].

    Maintains fn(lo) >= 0 >= is-negative side; `positive_at` chooses whether
    the kept invariant is fn(mid) >= 0 (default) or fn(mid) > 0.
    """
    strictly = positive_at == "strict"
    iterations = 0
    while hi - lo > tolerance and iterations < 200:
        mid = 0.5 * (lo + hi)
        value = fn(mid)
        keep_low = value > 0 if strictly else value >= 0
        if keep_low:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, hi, iterations


def _moran_root(ratios, tolerance):
    """Independent root of the Moran equation sum r_e^t = 1 on [0, 1]."""
    def fn(t):
        return math.fsum(r ** t for r in ratios) - 1.0
    lo, hi, _ = _bisect_decreasing(fn, 0.0, 1.0, tolerance)
    return 0.5 * (lo + hi)


def _is_full_shift(system):
    succ = system.successor_map
    ids = system.edge_ids
    return all(len(succ[e]) == len(ids) for e in ids)


# Most pressure evaluations one component root or one certificate may take.
STEP_CAP = 100
# P(1) above this means the images overlap too much for the open set condition.
P1_SLACK = 1e-12


def _component_root(A, log_norms, tolerance):
    """Zero of P(t) = ln rho(B(t)), B(t) = A * exp(t log r), A irreducible.

    Safeguarded Newton from t = 0 with Ruelle's derivative
    P'(t) = sum_b w_b v_b ln r_b / sum_b w_b v_b (v, w the right and left
    Perron vectors of B(t)). P is convex and decreasing, so Newton steps
    from the left climb monotonically to the zero; the bracket [a, b] with
    P(a) >= 0 > P(b) absorbs rounding, and a step that would leave it
    becomes a bisection step. The right end t = 1 is only evaluated when a
    step reaches it. Returns (root, steps).
    """
    a, b, b_known = 0.0, 1.0, False
    t = 0.0
    for steps in range(1, STEP_CAP + 1):
        rho, v, w = thermo.perron(A * np.exp(t * log_norms))
        p = math.log(rho)
        if t == 1.0 and p >= 0.0:
            if p > P1_SLACK:
                raise UnsupportedAnalysisError(
                    "P(1) > 0: total contraction exceeds the interval, the "
                    "system cannot satisfy the open set condition")
            return 1.0, steps
        if p == 0.0:
            return t, steps
        if p > 0.0:
            a = t
        else:
            b, b_known = t, True
        wv = w * v
        step = float(-p * wv.sum() / (wv @ log_norms))
        if not a <= t + step <= b:
            if not b_known:
                t = b
                continue
            step = 0.5 * (a + b) - t
        if abs(step) <= tolerance / 8:
            return t + step, steps
        t += step
    raise ConvergenceError(f"Perron-Newton took more than {STEP_CAP} steps")


def _certified_bracket(pressure_at, h, tolerance):
    """[lo, hi] around h with pressure_at(lo) >= 0 > pressure_at(hi).

    Starts from h -/+ tolerance/4. lo = 0 needs no check: the dimension is
    nonnegative. An end that fails its sign test is a valid end of the other
    kind, so that side is widened by doubling, and the bracket is bisected
    back to width tolerance/2. Returns (lo, hi, widening and bisection steps).
    """
    down = up = tolerance / 4
    lo, hi = max(0.0, h - down), h + up
    while hi - lo > tolerance / 2:  # rounding can add an ulp to the width
        hi = math.nextafter(hi, lo)
    steps = 0
    moved_down = False
    while lo > 0.0 and pressure_at(lo) < 0.0:
        hi, down, moved_down = lo, 2 * down, True
        lo = max(0.0, h - down)
        steps += 1
    while not moved_down and pressure_at(hi) >= 0.0:
        lo, up = hi, 2 * up
        hi = h + up
        steps += 1
        if steps > STEP_CAP:
            raise ConvergenceError(f"no negative pressure found up to t = {hi}")
    if steps:
        lo, hi, n = _bisect_decreasing(pressure_at, lo, hi, tolerance / 2)
        steps += n
    return lo, hi, steps


def _similarity_dimension(system, tolerance):
    """HD(J) = max over components of the component pressure zero."""
    h, steps = 0.0, 0
    for A, log_norms in system.component_blocks():
        root, n = _component_root(A, log_norms, tolerance)
        h, steps = max(h, root), steps + n
    lo, hi, n = _certified_bracket(lambda t: thermo.pressure(system, t).upper,
                                   h, tolerance)
    method = PERRON_NEWTON
    if _is_full_shift(system):
        ratios = [system.family.map_for(e).ratio for e in system.edge_ids]
        moran = _moran_root(ratios, tolerance)
        if not (lo - tolerance <= moran <= hi + tolerance):
            raise InputError(
                f"Perron-Newton bracket [{lo}, {hi}] disagrees with the Moran "
                f"root {moran}")
        method = MORAN_EXACT
    return DimensionEstimate(lo, hi, method, steps + n)


def bowen_dimension(system: GdmsSystem, tolerance: float = 1e-10,
                    n_max: int = 14) -> DimensionEstimate:
    """Bracket HD(J) = inf{t : P(t) < 0} for a finite system.

    Similarity systems get a bracket of width at most tolerance / 2;
    `iterations` counts their Newton steps, plus any widening or bisection
    steps the end certificate needed.
    """
    if tolerance <= 0:
        raise InputError("tolerance must be positive")
    if system.infinite:
        raise NotApplicableError("truncate the system first")
    if not system.components:
        return DimensionEstimate(0.0, 0.0, EMPTY_LIMIT_SET)
    if system.family.kind == "similarity":
        return _similarity_dimension(system, tolerance)

    # continued-fraction truncation: bisect the pressure bracket signs
    cache = thermo.CfPartitionCache(system)
    core = max(system.components, key=len)
    restriction_cache = thermo.CfPartitionCache(system.restrict(core))

    def bounds(t):
        est = thermo.pressure(system, t, n_max=n_max, cache=cache,
                              restriction_cache=restriction_cache)
        return est.lower, est.upper

    warnings = []
    flagged = False
    # smallest t with P_upper(t) < 0
    if bounds(0.0)[1] < 0:
        hi = 0.0
        iters_hi = 0
    elif bounds(1.0)[1] >= 0:
        hi, iters_hi, flagged = 1.0, 0, True
        warnings.append("upper pressure bound still nonnegative at t = 1")
    else:
        _, hi, iters_hi = _bisect_decreasing(lambda t: bounds(t)[1], 0.0, 1.0, tolerance)
    # largest t with P_lower(t) > 0
    if bounds(0.0)[0] <= 0:
        lo = 0.0
        iters_lo = 0
    elif bounds(1.0)[0] > 0:
        lo, iters_lo, flagged = 1.0, 0, True
        warnings.append("lower pressure bound still positive at t = 1")
    else:
        lo, _, iters_lo = _bisect_decreasing(lambda t: bounds(t)[0], 0.0, 1.0,
                                             tolerance, positive_at="strict")
    lo = min(lo, hi)
    return DimensionEstimate(lo, hi, BRACKET_BISECTION, iters_hi + iters_lo,
                             flagged, tuple(warnings))


def component_dimensions(system: GdmsSystem, tolerance: float = 1e-10) -> ComponentDimensionReport:
    """Per-component Bowen dimensions plus the whole-system value.

    The overall dimension must equal the maximum over strongly connected
    components (isolated edges only contribute a geometrically decaying tail).
    """
    components = system.components
    estimates = tuple(bowen_dimension(system.restrict(comp), tolerance)
                      for comp in components)
    overall = bowen_dimension(system, tolerance)
    if estimates:
        max_est = max(estimates, key=lambda e: e.mid)
    else:
        max_est = DimensionEstimate(0.0, 0.0, EMPTY_LIMIT_SET)
    difference = abs(overall.mid - max_est.mid)
    return ComponentDimensionReport(components, estimates, overall,
                                    max_est, difference)


def classify_hausdorff_measure(system: GdmsSystem, tolerance: float = 1e-9,
                               n_range=range(1, 31)) -> MeasureClassification:
    """Finite/infinite verdict for the h-dimensional Hausdorff measure.

    Maximal components are those whose dimension interval overlaps the
    whole-system interval (exact equality is a measure-zero event). The
    verdict is structural: the measure is infinite exactly when two distinct
    maximal components communicate. Z_n(h) evidence is attached but never
    overrides the structural verdict.
    """
    if system.infinite:
        raise NotApplicableError("truncate the system first")
    report = g.scc_decompose(system)
    if not report.components:
        return MeasureClassification(NOT_APPLICABLE,
                                     DimensionEstimate(0.0, 0.0, EMPTY_LIMIT_SET),
                                     (), (), (), (), 0.0,
                                     "empty limit set: no dimension to classify")
    comp_report = component_dimensions(system, tolerance)
    overall = comp_report.overall
    maximal = tuple(
        i for i, est in enumerate(comp_report.estimates)
        if est.hi >= overall.lo - tolerance and est.lo <= overall.hi + tolerance)
    communicating = tuple(sorted(
        (i, j) for (i, j) in report.communication
        if i in maximal and j in maximal))
    verdict = INFINITE_H_MEASURE if communicating else FINITE_H_MEASURE
    if communicating:
        explanation = ("communicating maximal components => infinite h-measure "
                       "(crossing words pile up linearly in Z_n(h))")
    else:
        explanation = ("no two maximal components communicate => finite h-measure "
                       "(Z_n(h) stays bounded)")

    h = overall.mid
    ns = tuple(int(n) for n in n_range)
    zs = tuple(thermo.partition_sum(system, n, h).value for n in ns)
    slope = float(np.polyfit(ns, zs, 1)[0]) if len(ns) > 1 else 0.0
    return MeasureClassification(verdict, overall, maximal, communicating,
                                 ns, zs, slope, explanation)


def truncation_sweep(system: GdmsSystem, sizes, tolerance: float = 1e-3,
                     n_max: int = 14) -> TruncationSweep:
    """Dimensions of the finite heads {1..N} of an infinite system.

    For irreducible exhaustions the truncation dimensions increase towards
    sup{HD(J_F) : F finite}. The strictly-increasing-labels rule is accepted
    but flagged: all its truncations have empty limit sets, so the sup is 0
    even though the finiteness parameter is 1/2.
    """
    if not system.infinite:
        raise NotApplicableError("truncation sweeps apply to infinite systems")
    sizes = [int(s) for s in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
        raise InputError("sizes must be strictly increasing")

    entries = []
    warnings = []
    for size in sizes:
        head = system.truncate(size)
        props = g.matrix_properties(head)
        est = bowen_dimension(head, tolerance, n_max=n_max)
        entries.append(SweepEntry(size, est, props.irreducible))
    sup_lo = max(e.estimate.lo for e in entries)
    monotone = all(entries[k].estimate.lo <= entries[k + 1].estimate.lo + 2 * tolerance
                   for k in range(len(entries) - 1))
    if system.incidence.kind == g.UPPER:
        theta = thermo.finiteness_parameters(system, [1]).theta
        warnings.append(
            f"sup over finite subsystems = {sup_lo:g} < theta = {float(theta):g}: "
            "the pressure-root dimension formula fails for this system "
            "(every finite truncation has an empty limit set)")
    return TruncationSweep(tuple(entries), sup_lo, (sup_lo, 1.0), monotone,
                           tuple(warnings))
