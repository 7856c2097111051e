"""Bowen dimension, component structure checks and truncation sweeps.

The dimension of the limit set is the infimum of {t >= 0 : P(t) < 0}, the
largest zero over strongly connected components (Mauldin and Urbanski,
Graph Directed Markov Systems, 2003). Each component zero is found by
safeguarded Newton steps (the engine's `find_root`) of nonlinear inverse
iteration, one linear solve each: on the lumped transfer matrix of a
similarity block from the row-sum model's root, or on the Chebyshev
collocation of a continued-fraction transfer operator from the root of a
coarser one, which serves tolerances from 1e-4 up alone. The level that found
a root certifies the bracket around it once per distinct engine, from its own
proved pressure bounds and lower bound on -P', and the system's bracket is
[max lo, max hi] of its components' brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import graph as g
from . import thermo
from .errors import ConvergenceError, InputError, NotApplicableError
from .system import GdmsSystem
from .thermo import COLLOCATION_NEWTON, PERRON_NEWTON  # the engines' dimension methods
from .thermo import _component_root, _full_shift_pressure, _kept_root

MORAN_EXACT = "moran-exact"
EMPTY_LIMIT_SET = "empty-limit-set"


@dataclass(frozen=True)
class DimensionEstimate:
    lo: float
    hi: float
    method: str
    iterations: int = 0

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


FINITE_H_MEASURE = "FiniteHMeasure"
INFINITE_H_MEASURE = "InfiniteHMeasure"


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


def _certified_bracket(bounds, h, tolerance, decay=0.0):
    """[lo, hi] around h with P(lo) >= 0 > P(hi) proved.

    bounds(t) returns (P_lower, P_upper), bounds that hold the pressure.
    lo = max(0, h - tolerance/4) (lo = 0 needs no check: the dimension is
    nonnegative) and hi = h + tolerance/4, less an ulp of rounding. With
    `decay` > 0, a proved lower bound on -P', one call bounds(h) tries both
    ends: P(lo) >= P_lower(h) + decay (h - lo), P(hi) <= P_upper(h) -
    decay (hi - h). An end it leaves open must show P_lower(lo) >= 0 or
    P_upper(hi) < 0 itself, or, when lo = 0, P_upper(tolerance/2) < 0. An
    end still open (bounds too wide, or h more than tolerance/4 from the
    zero), or ends that do not differ from h in doubles, raise
    ConvergenceError. Returns (lo, hi).
    """
    lo, hi = max(0.0, h - tolerance / 4), h + tolerance / 4
    while hi - lo > tolerance / 2:  # rounding can add an ulp to the width
        hi = math.nextafter(hi, lo)
    if not (lo < h or lo == 0.0) or not h < hi:
        raise ConvergenceError(f"tolerance {tolerance!r} is below the spacing of doubles "
                               f"at t = {h!r}: the bracket ends cannot be separated there")
    lo_done = hi_done = False
    if decay > 0.0:
        lower, upper = bounds(h)
        # decay (b - a) less the 3 roundings of the difference and products
        lo_done = lower >= -decay * (h - lo) * (1 - 4 * thermo.UNIT_ROUNDOFF)
        hi_done = upper < decay * (hi - h) * (1 - 4 * thermo.UNIT_ROUNDOFF)
    open_end = None
    if not lo_done and lo > 0.0 and bounds(lo)[0] < 0.0:
        open_end = lo
    elif not hi_done and bounds(hi)[1] >= 0.0:
        if lo == 0.0:
            hi = tolerance / 2  # the bracket [0, hi] is still tolerance/2 wide
        if lo > 0.0 or bounds(hi)[1] >= 0.0:
            open_end = hi
    if open_end is not None:
        raise ConvergenceError(f"pressure bounds at t = {open_end!r} hold 0: they cannot "
                               f"certify a bracket of width {tolerance / 2:g}")
    return lo, hi


def _check_tolerance(tolerance):
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise InputError(f"tolerance must be positive and finite, got {tolerance!r}")


def _engine_estimate(block, tolerance):
    """One engine's DimensionEstimate: the `_kept_root` of the level serving
    `tolerance` (`block.level`; the engine itself if a coarser one raises
    ConvergenceError), whose steps it counts, and the `_certified_bracket`
    around it from that level's bounds and `decay`. A similarity full shift
    (one state holding every edge) is cross-checked against the Moran root,
    the zero of `_full_shift_pressure`, and takes method MORAN_EXACT."""
    for level in dict.fromkeys((block.level(tolerance), block)):
        try:
            root, steps = _kept_root(level, tolerance)
            lo, hi = _certified_bracket(level.certified_pressure, root, tolerance, level.decay)
            break
        except ConvergenceError:
            if level is block:
                raise
    method = block.dimension_method
    if method == PERRON_NEWTON and block.lumping.members.all():
        moran, _ = _component_root(lambda t: _full_shift_pressure(block.log_norms, t), tolerance)
        if not (lo - tolerance <= moran <= hi + tolerance):
            raise ConvergenceError(f"Perron-Newton bracket [{lo}, {hi}] disagrees "
                                   f"with the Moran root {moran}")
        method = MORAN_EXACT
    return DimensionEstimate(lo, hi, method, steps)


def _component_estimates(system, tolerance):
    """An `_engine_estimate` per component, once per distinct engine: a
    later component of that engine takes it with 0 iterations."""
    _check_tolerance(tolerance)
    certified, estimates = {}, []
    for block in system.engines:
        estimates.append(replace(certified[block], iterations=0) if block in certified
                         else certified.setdefault(block, _engine_estimate(block, tolerance)))
    return tuple(estimates)


def _combined(estimates, method):
    """[max lo, max hi] of the component `estimates`: P is the max of the
    decreasing component pressures, so both ends are proved, and the bracket
    is no wider than the one whose hi it takes. The method is the lone
    component's own, else `method`, and `iterations` is their sum."""
    if len(estimates) == 1:
        return estimates[0]
    if not estimates:
        return DimensionEstimate(0.0, 0.0, EMPTY_LIMIT_SET)
    return DimensionEstimate(max(e.lo for e in estimates), max(e.hi for e in estimates),
                             method, sum(e.iterations for e in estimates))


def bowen_dimension(system: GdmsSystem, tolerance: float = 1e-10,
                    n_max: int = 14) -> DimensionEstimate:
    """Bracket HD(J) = inf{t : P(t) < 0} for a finite system.

    HD(J) is the largest component root, so the bracket, of width at most
    tolerance / 2, combines the component brackets (`_combined`). Each is
    [h - tolerance/4, h + tolerance/4] around its engine's root h (by
    nonlinear inverse iteration, a similarity block falling back to
    Perron-Newton steps), certified once per distinct engine or refused (see
    `_certified_bracket`): a component that cannot certify its bracket
    refuses the system's, largest root or not. `iterations` counts the Newton
    steps of the certifying levels of the distinct engines (`GdmsSystem.engines`).
    The method is MORAN_EXACT when the one cyclic component is a similarity
    full shift, whose bracket is cross-checked against the root of Moran's
    equation sum r_e^h = 1. `n_max` is accepted for compatibility and does
    not affect the result.
    """
    return _combined(_component_estimates(system, tolerance),
                     system.family.engine_type.dimension_method)


def component_dimensions(system: GdmsSystem, tolerance: float = 1e-10) -> ComponentDimensionReport:
    """Per-component Bowen dimensions plus the whole-system value.

    The overall dimension is the maximum over strongly connected components
    (isolated edges only contribute a geometrically decaying tail), so
    `overall` combines the component `estimates` as `bowen_dimension` does,
    with no certificate of its own.
    """
    estimates = _component_estimates(system, tolerance)
    overall = _combined(estimates, system.family.engine_type.dimension_method)
    max_est = max(estimates, key=lambda e: e.mid, default=overall)
    return ComponentDimensionReport(system.components, estimates, overall, max_est,
                                    abs(overall.mid - max_est.mid))


def classify_hausdorff_measure(system: GdmsSystem, tolerance: float = 1e-9,
                               n_range=range(1, 31)) -> MeasureClassification:
    """Finite/infinite verdict for the h-dimensional Hausdorff measure.

    Maximal components are those whose dimension interval overlaps the
    whole-system interval (exact equality is a measure-zero event). The
    verdict is structural: the measure is infinite exactly when two distinct
    maximal components communicate. Z_n(h) evidence is attached but never
    overrides the structural verdict; its growth slope is fitted over
    n_range, which must hold at least two word lengths, all integers >= 1.
    A system with an empty limit set has no dimension to classify and
    raises NotApplicableError.
    """
    ns = tuple(g.word_lengths(n_range))
    if len(set(ns)) < 2:
        raise InputError("need at least two word lengths in n_range")
    _check_tolerance(tolerance)
    report = g.scc_decompose(system)
    if not report.components:
        raise NotApplicableError("empty limit set: no dimension to classify")
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
    zs = tuple(z.value for z in thermo.partition_sums(system, ns, h))
    slope = float(np.polyfit(ns, zs, 1)[0])
    return MeasureClassification(verdict, overall, maximal, communicating,
                                 ns, zs, slope, explanation)


def truncation_sweep(system: GdmsSystem, sizes, tolerance: float = 1e-3,
                     n_max: int = 14) -> TruncationSweep:
    """Dimensions of the finite heads {1..N} of an infinite system.

    For irreducible exhaustions the truncation dimensions increase towards
    sup{HD(J_F) : F finite}. The strictly-increasing-labels rule is accepted
    but flagged: all its truncations have empty limit sets, so the sup is 0
    even though the finiteness parameter is 1/2. `n_max` is accepted for
    compatibility and does not affect the result. Raises InputError unless
    every size is an integer (`graph.as_integer`), before any is solved.
    """
    if not system.infinite:
        raise NotApplicableError("truncation sweeps apply to infinite systems")
    sizes = [g.as_integer(s, "truncation size") for s in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
        raise InputError("sizes must be strictly increasing")
    _check_tolerance(tolerance)

    entries = []
    warnings = []
    for size in sizes:
        head = system.truncate(size)
        est = bowen_dimension(head, tolerance)
        entries.append(SweepEntry(size, est, head.irreducible))
    sup_lo = max(e.estimate.lo for e in entries)
    monotone = all(entries[k].estimate.lo <= entries[k + 1].estimate.lo + 2 * tolerance
                   for k in range(len(entries) - 1))
    rule = system.incidence.rule
    if rule.gap:
        warnings.append(
            f"sup over finite subsystems = {sup_lo:g} < theta = {float(rule.theta):g}: "
            f"the pressure-root dimension formula fails for this system ({rule.gap})")
    return TruncationSweep(tuple(entries), sup_lo, (sup_lo, 1.0), monotone,
                           tuple(warnings))
