"""Partition sums, topological pressure and conformal cylinder measures.

Similarity systems are exact: Z_n(t) comes from the weighted transfer matrix
B(t)_{ab} = A_{ab} r_b^t and the pressure is ln rho(B(t)). Continued-fraction
systems are enumerated through continuants (exact per word) and bracketed in
pressure via subadditivity from above and bounded distortion from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import graph as g
from .errors import (ConvergenceError, DomainError, InputError,
                     NotApplicableError, ResourceGuardError,
                     UnsupportedAnalysisError)
from .maps import distortion_constant
from .system import GdmsSystem

# Continued-fraction partition sums stay exact (full enumeration) up to this
# word length; beyond it they collapse to product/distortion brackets.
CF_EXACT_LENGTH_CAP = 30

ENUMERATION = "enumeration"
TRANSFER_MATRIX = "transfer-matrix"
RULE_ANALYTIC = "rule-analytic"


@dataclass(frozen=True)
class PartitionSum:
    n: int
    t: float
    lower: float
    upper: float
    method: str
    divergent: bool = False

    @property
    def value(self) -> float:
        """Midpoint in log space; equals the exact value when lower == upper."""
        if self.lower == self.upper:
            return self.lower
        if self.lower <= 0.0:
            return 0.5 * (self.lower + self.upper)
        return math.exp(0.5 * (math.log(self.lower) + math.log(self.upper)))


@dataclass(frozen=True)
class PressureEstimate:
    t: float
    lower: float
    upper: float
    n_used: int
    method: str
    is_infinite: bool = False


@dataclass(frozen=True)
class FinitenessReport:
    theta: Fraction
    theta_n: dict  # n -> Fraction
    justification: str
    witness: dict = field(default_factory=dict)


# -- transfer matrices ------------------------------------------------------

def transfer_matrix(system: GdmsSystem, t: float):
    """B(t)_{ab} = A_{ab} * ||phi_b'||^t and the vector u_a = ||phi_a'||^t."""
    u = np.exp(t * system.log_norms)
    return system.incidence_matrix * u, u


def spectral_radius(B) -> float:
    if B.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(B))))


# Relative gap between the Perron root and the inverse-iteration shift.
PERRON_SHIFT = 1e-14


def perron(B, tolerance: float = 1e-9):
    """(rho, v, w) of an irreducible nonnegative matrix B.

    rho is the spectral radius; v and w are the right and left Perron
    vectors, each scaled to sum 1. Each vector is one inverse-iteration
    solve (B - sI) x = 1 with s just above rho: the Perron root is simple,
    so the solve amplifies its direction by about 1/PERRON_SHIFT over every
    other one. Raises ConvergenceError unless both vectors are strictly
    positive with max|Bv - rho v| and max|wB - rho w| at most
    tolerance * rho * max(vector), and w.v / (max v * max w) exceeds
    tolerance (a defective root, as in a reducible B with two equal blocks,
    drives it to 0).
    """
    rho = spectral_radius(B)
    if not rho > 0.0:
        raise ConvergenceError("Perron root of a nilpotent matrix")
    shifted = B - rho * (1.0 + PERRON_SHIFT) * np.eye(B.shape[0])
    ones = np.ones(B.shape[0])
    v = np.linalg.solve(shifted, ones)
    w = np.linalg.solve(shifted.T, ones)
    v, w = v / v.sum(), w / w.sum()
    for name, vec, image in (("right", v, B @ v), ("left", w, w @ B)):
        residual = float(np.max(np.abs(image - rho * vec)))
        if not (vec.min() > 0.0 and residual <= tolerance * rho * vec.max()):
            raise ConvergenceError(
                f"{name} Perron vector failed: min entry {vec.min():.3g}, "
                f"residual {residual:.3g} against rho = {rho:.17g}")
    overlap = float(w @ v) / (v.max() * w.max())
    if not overlap > tolerance:
        raise ConvergenceError(f"Perron root is not simple: w.v overlap {overlap:.3g}")
    return rho, v, w


def _transfer_partition_sums(system, t, n_max):
    B, u = transfer_matrix(system, t)
    w = np.ones(len(u))
    out = []
    for _ in range(n_max):
        out.append(float(u @ w))
        w = B @ w
    return out


# -- continued-fraction enumeration -----------------------------------------

class CfPartitionCache:
    """Level-synchronous continuant tables for a finite CF system.

    Level n stores, grouped by last letter, the pair (ln q_{n-1}, ln q_n) for
    every admissible word of length n. The tables are t-independent, so one
    cache serves every exponent during bisection.
    """

    def __init__(self, system: GdmsSystem, guard: int | None = None):
        if system.family.kind != "cf":
            raise InputError("CfPartitionCache is for continued-fraction systems")
        if system.infinite:
            raise NotApplicableError("truncate the system before enumeration")
        self.system = system
        self.labels = list(system.edge_ids)
        self.succ = system.successor_map
        self.guard = g.count_guard() if guard is None else guard
        self._levels = []
        self._nodes = 0

    def _ensure(self, n):
        while len(self._levels) < n:
            if not self._levels:
                level = {e: (np.zeros(1), np.array([math.log(e)])) for e in self.labels}
            else:
                prev = self._levels[-1]
                parts = {}
                for e in self.labels:
                    lq_prev, lq = prev.get(e, (None, None))
                    if lq is None or lq.size == 0:
                        continue
                    for b in self.succ[e]:
                        new_prev = lq
                        new_q = np.logaddexp(math.log(b) + lq, lq_prev)
                        parts.setdefault(b, []).append((new_prev, new_q))
                level = {}
                for b, chunks in parts.items():
                    level[b] = (np.concatenate([c[0] for c in chunks]),
                                np.concatenate([c[1] for c in chunks]))
            self._nodes += sum(arr.size for _, arr in level.values())
            if self._nodes > self.guard:
                raise ResourceGuardError(
                    f"continued-fraction enumeration exceeded count guard of {self.guard}")
            self._levels.append(level)

    def log_qs(self, n):
        self._ensure(n)
        level = self._levels[n - 1]
        chunks = [level[b][1] for b in self.labels if b in level]
        if not chunks:
            return np.empty(0)
        return np.concatenate(chunks)

    def word_count(self, n) -> int:
        return int(self.log_qs(n).size)

    def partition_sum(self, n, t) -> float:
        lq = self.log_qs(n)
        if lq.size == 0:
            return 0.0
        return float(np.exp(-2.0 * t * lq).sum())


def _cf_product_bracket(system, n, t):
    """[K^{-t(n-1)} * S_n, S_n] with S_n the one-step-product transfer sum."""
    S_n = _transfer_partition_sums(system, t, n)[-1]
    K = distortion_constant(system.family)
    return S_n * K ** (-t * (n - 1)), S_n


# -- operations --------------------------------------------------------------

def partition_sum(system: GdmsSystem, n: int, t: float,
                  method: str = "auto", guard: int | None = None) -> PartitionSum:
    """Z_n(t) = sum over admissible length-n words of ||phi_word'||^t."""
    if n < 1:
        raise InputError("n must be >= 1")
    if t < 0:
        raise InputError("t must be >= 0")
    if system.infinite:
        report = finiteness_parameters(system, [n])
        if t <= report.theta_n[n]:
            return PartitionSum(n, t, math.inf, math.inf, RULE_ANALYTIC, divergent=True)
        raise UnsupportedAnalysisError(
            "infinite-alphabet partition sums are only classified as finite or "
            "divergent; truncate the system for numeric values")

    if system.family.kind == "similarity":
        if method in ("auto", TRANSFER_MATRIX):
            z = _transfer_partition_sums(system, t, n)[-1]
            if not math.isfinite(z):
                raise ResourceGuardError(f"Z_{n}({t}) exceeded the overflow budget")
            return PartitionSum(n, t, z, z, TRANSFER_MATRIX)
        if method == ENUMERATION:
            logs = system.one_step_log_norms()
            total = math.fsum(
                math.exp(t * sum(logs[e] for e in w))
                for w in g.enumerate_words(system, n, limit=guard))
            return PartitionSum(n, t, total, total, ENUMERATION)
        raise InputError(f"unknown method {method!r}")

    # continued-fraction family
    if method in ("auto", ENUMERATION) and n <= CF_EXACT_LENGTH_CAP:
        try:
            cache = CfPartitionCache(system, guard=guard)
            z = cache.partition_sum(n, t)
            return PartitionSum(n, t, z, z, ENUMERATION)
        except ResourceGuardError:
            if method == ENUMERATION:
                raise
    lo, hi = _cf_product_bracket(system, n, t)
    return PartitionSum(n, t, lo, hi, TRANSFER_MATRIX)


def pressure(system: GdmsSystem, t: float, n_max: int = 14,
             cache: CfPartitionCache | None = None,
             restriction_cache: CfPartitionCache | None = None) -> PressureEstimate:
    """Rigorous bracket for P(t) = lim (1/n) ln Z_n(t).

    Similarity systems: exact, P = ln rho(B(t)), computed as the max of
    ln rho(B_k(t)) over the diagonal blocks of `system.components`. In a
    topological order of the components B(t) is block triangular, and the
    remaining diagonal blocks are nilpotent, so the two agree; dense eigvals
    of the whole matrix would instead carry an error near sqrt(eps) when two
    linked components have equal radius (a Jordan block at rho).
    Continued-fraction truncations:
    upper bound min_n (1/n) ln Z_n (subadditivity), lower bound
    max_n (1/n)(ln Z_n - t ln K) on a strongly connected restriction.
    """
    if t < 0:
        raise InputError("t must be >= 0")
    if system.infinite:
        theta = finiteness_parameters(system, [1]).theta
        if t < theta:
            return PressureEstimate(t, math.inf, math.inf, 0, RULE_ANALYTIC, is_infinite=True)
        raise UnsupportedAnalysisError(
            "pressure of an infinite system needs a truncation sweep")

    if system.family.kind == "similarity":
        rho = max((spectral_radius(A * np.exp(t * logs))
                   for A, logs in system.component_blocks()), default=0.0)
        p = math.log(rho) if rho > 0 else -math.inf
        return PressureEstimate(t, p, p, 0, TRANSFER_MATRIX)

    if cache is None:
        cache = CfPartitionCache(system)
    uppers = []
    for n in range(1, n_max + 1):
        z = cache.partition_sum(n, t)
        if z == 0.0:
            return PressureEstimate(t, -math.inf, -math.inf, n, ENUMERATION)
        uppers.append(math.log(z) / n)
    p_upper = min(uppers)

    if restriction_cache is None:
        if not system.components:
            return PressureEstimate(t, -math.inf, p_upper, n_max, ENUMERATION)
        core = max(system.components, key=len)
        restriction_cache = CfPartitionCache(system.restrict(core))
    log_k = math.log(distortion_constant(system.family))
    lowers = []
    for n in range(1, n_max + 1):
        z = restriction_cache.partition_sum(n, t)
        if z > 0.0:
            lowers.append((math.log(z) - t * log_k) / n)
    p_lower = max(lowers) if lowers else -math.inf
    return PressureEstimate(t, min(p_lower, p_upper), p_upper, n_max, ENUMERATION)


_THETA_JUSTIFICATION = {
    g.FULL: ("sum over labels e of e^(-2t) converges exactly when t > 1/2, "
             "at every word length"),
    g.BANDED: ("length-n words stay within the band, so the label-k block "
               "contributes about k^(-2tn); convergence needs t > 1/(2n)"),
    g.UPPER: ("labels strictly increase; the n-fold sum behaves like the "
              "n-th power of sum e^(-2t), so every level needs t > 1/2"),
}


def finiteness_parameters(system: GdmsSystem, n_list=(1, 2, 3)) -> FinitenessReport:
    """theta and theta_n: where Z_n(t) becomes a finite sum.

    Finite systems: 0 (finite sums are always finite). Infinite
    continued-fraction rules have closed forms; each comes with a numeric
    witness (partial product-bound sums at theta_n +/- 0.05 against integral
    tail bounds).
    """
    n_list = sorted(set(int(n) for n in n_list))
    if any(n < 1 for n in n_list):
        raise InputError("n values must be >= 1")
    if not system.infinite:
        return FinitenessReport(Fraction(0), {n: Fraction(0) for n in n_list},
                                "finite sums")

    if system.family.kind != "cf":
        raise UnsupportedAnalysisError("no analytic finiteness table for this family")
    kind = system.incidence.kind
    if kind == g.FULL:
        theta = Fraction(1, 2)
        theta_n = {n: Fraction(1, 2) for n in n_list}
    elif kind == g.BANDED:
        theta = Fraction(0)
        theta_n = {n: Fraction(1, 2 * n) for n in n_list}
    elif kind == g.UPPER:
        theta = Fraction(1, 2)
        theta_n = {n: Fraction(1, 2) for n in n_list}
    else:
        raise UnsupportedAnalysisError(
            "finiteness analysis supports only the full, banded and "
            "upper-triangular rules")
    witness = {n: _theta_witness(system, n, theta_n[n]) for n in n_list}
    return FinitenessReport(theta, theta_n, _THETA_JUSTIFICATION[kind], witness)


def _theta_witness(system, n, theta_n, caps=(25, 50, 100, 200)):
    """Partial product-bound sums on growing label heads at theta_n +/- 0.05.

    Above theta_n the partial sums approach the integral tail bound; below it
    they keep growing without one.
    """
    t_plus = float(theta_n) + 0.05
    t_minus = max(float(theta_n) - 0.05, float(theta_n) / 2.0)
    rows = []
    for cap in caps:
        head = system.truncate(cap)
        s_plus = _transfer_partition_sums(head, t_plus, n)[-1]
        s_minus = _transfer_partition_sums(head, t_minus, n)[-1]
        rows.append({"cap": cap, "sum_at_t_plus": s_plus, "sum_at_t_minus": s_minus})
    # integral comparison: tail of sum e^(-2t) past the largest cap
    tail = caps[-1] ** (1.0 - 2.0 * t_plus) / (2.0 * t_plus - 1.0) if t_plus > 0.5 else math.inf
    return {"t_plus": t_plus, "t_minus": t_minus, "partial_sums": rows,
            "one_step_tail_bound_at_t_plus": tail}


# -- conformal cylinder measure ----------------------------------------------

@dataclass(frozen=True)
class CylinderMeasure:
    h: float
    edge_masses: dict    # edge id -> m([e])
    vertex_masses: dict  # vertex id -> m(X_v)
    right_vector: dict   # edge id -> Perron right-eigenvector entry
    normalizer: float

    def word_mass(self, system: GdmsSystem, word) -> float:
        word = tuple(word)
        log_r = sum(system.family.one_step_log_norm(e) for e in word)
        return math.exp(self.h * log_r) * self.right_vector[word[-1]] / self.normalizer

    @property
    def min_vertex_mass(self) -> float:
        return min(self.vertex_masses.values())


def conformal_cylinder_measure(system: GdmsSystem, h: float,
                               pressure_tolerance: float = 1e-9) -> CylinderMeasure:
    """Cylinder masses of the h-conformal measure of a finite irreducible
    similarity system; h must be the pressure zero.

    With rho(B(h)) = 1 and Perron right eigenvector v, the masses
    m([word]) = r_word^h * v_last / Z (Z = sum_e r_e^h v_e) are nonnegative,
    sum to one at every level, and satisfy the refinement identity
    m([word]) = sum over admissible extensions of m([word e]). v comes from
    `perron`, which raises ConvergenceError when it is not strictly positive
    or its residual exceeds pressure_tolerance.
    """
    if system.infinite:
        raise UnsupportedAnalysisError("conformal measures need a finite system")
    if system.family.kind != "similarity":
        raise UnsupportedAnalysisError("conformal measures are built for similarity systems")
    props = g.matrix_properties(system)
    if not props.irreducible:
        raise UnsupportedAnalysisError("conformal measures need an irreducible incidence matrix")
    B, u = transfer_matrix(system, h)
    rho, v, _ = perron(B, pressure_tolerance)
    if abs(math.log(rho)) > pressure_tolerance:
        raise DomainError(
            f"h={h} is not a pressure zero: ln rho(B(h)) = {math.log(rho):.3g}")

    ids = system.edge_ids
    weights = u * v
    z = float(weights.sum())
    edge_masses = {e: float(weights[k] / z) for k, e in enumerate(ids)}
    vertex_masses = {vx: 0.0 for vx in system.graph.vertices}
    for e in system.graph.edges:
        vertex_masses[e.src] += edge_masses[e.id]
    return CylinderMeasure(h, edge_masses, vertex_masses,
                           {e: float(v[k]) for k, e in enumerate(ids)}, z)

