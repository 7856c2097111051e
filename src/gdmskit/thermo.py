"""Partition sums, topological pressure and conformal cylinder measures.

Similarity partition sums are exact: Z_n(t) = u B(t)^(n-1) 1 for the weighted
transfer matrix B(t)_{ab} = A_{ab} r_b^t and u_a = r_a^t, iterated on the
matrix M(t) of B(t) lumped by successor set, and the pressure ln rho(B(t)) is
bracketed by Collatz-Wielandt bounds from Noda's inverse iteration on M(t).
Continued-fraction partition sums are enumerated level by level through
continuants (exact per word) up to the count guard and bracketed beyond it by
the one-step products of the same lumped iteration; their pressure is the log
spectral radius of the transfer operator L_t, bracketed by a Chebyshev
collocation of L_t and a certificate that holds on all of [0, 1]. Both
engines find the pressure's zero by nonlinear inverse iteration, on M(t) or
on the collocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import graph as g
from .errors import (ConvergenceError, DomainError, InputError, ResourceGuardError,
                     UnsupportedAnalysisError)
if TYPE_CHECKING:  # system imports maps, which imports this module
    from .system import GdmsSystem

ENUMERATION = "enumeration"
TRANSFER_MATRIX = "transfer-matrix"
RULE_ANALYTIC = "rule-analytic"
CHEBYSHEV_COLLOCATION = "chebyshev-collocation"
# the methods of `dimension.bowen_dimension` on the two pressure engines
PERRON_NEWTON = "perron-newton"
COLLOCATION_NEWTON = "collocation-newton"


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


# -- transfer matrices ------------------------------------------------------

# Relative gap between the Perron root and the inverse-iteration shift.
PERRON_SHIFT = 1e-14
# Most steps one Collatz-Wielandt iteration takes. Noda's shifts converge
# quadratically once near rho, so a few suffice; a reducible input
# converges slowly and ends with a wide bracket.
NODA_STEPS = 50
# Bound spread high / low above which `collatz_wielandt` tries a shift
# halfway between the bounds in log scale before Noda's shift.
SHIFT_SPREAD = 4.0
# A step that moves no entry of x by more than this relative amount has
# reached the fixed point that rounding allows.
FIXED_POINT = 1e-9
UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2
TINY = float(np.finfo(float).tiny)


@cache
def _ones(n):
    """n ones, read-only: the right-hand side of the solves of size n."""
    return g.read_only(np.ones(n))


def _shift_less(shift, X):
    """shift I - X, entry for entry `shift * np.eye(n) - X`, written over X
    (a new array of the caller's), so that no identity matrix is built."""
    diagonal = shift - X.diagonal()
    np.subtract(shift * 0.0, X, out=X)
    np.fill_diagonal(X, diagonal)
    return X


def _less_one(X):
    """X - I, entry for entry `X - np.eye(n)`, written over X as `_shift_less`."""
    np.fill_diagonal(X, X.diagonal() - 1.0)
    return X


class _Underflow(ConvergenceError):
    """Row sums of `collatz_wielandt` fell below the normal range."""


def collatz_wielandt(B, start=None):
    """(lower, upper, x): lower <= rho(B) <= upper for an irreducible
    nonnegative matrix B, and the positive vector x that proves them.

    For x > 0, min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i
    (Collatz-Wielandt). Noda's inverse iteration x <- (sI - B)^-1 x with
    s = max_i (Bx)_i / x_i (here its rounded-up bound) keeps x positive and
    drives both ratios to rho quadratically once near it (Noda, Numer.
    Math. 17, 1971; Elsner, Linear Algebra Appl. 15, 1976). While the
    bounds are far apart a step first tries the shift halfway between them
    in log scale. Starts from `start` (any positive vector, such as the x
    of a nearby matrix) or from ones, and stops when the ratios agree to
    the rounding slack, when x stops moving, or after NODA_STEPS steps;
    the narrowest bracket seen is returned.

    (Bx)_i sums nonnegative terms, so its computed value is within
    relative n u of the exact one (u the unit roundoff), plus n times the
    subnormal spacing for products that underflow; a row sum of at least
    2 n times the least normal number keeps that part below u relative.
    The bounds carry (n + 5) u relative slack for all of it and the
    division. Raises ConvergenceError when a row with a nonzero entry sums
    below that, in moduli.

    A collocation matrix of `CfCollocation` has entries of both signs, so
    its ratios bound nothing; the iteration still drives them to its
    leading eigenvalue when its eigenvector is positive, and a row whose
    sum is not positive only gives a ratio <= 0.
    """
    n = len(B)
    x = np.ones(n) if start is None else start / np.max(start)
    if n == 0:
        return 0.0, 0.0, x
    slack = (n + 5) * UNIT_ROUNDOFF

    def step(x, shift):
        """(sI - B)^-1 x scaled to max 1, or None unless it is positive;
        solved on D^-1 B D, D = diag(x), so small entries keep their digits."""
        try:
            y = x * np.linalg.solve(_shift_less(shift, B * x / x[:, None]), _ones(n))
        except np.linalg.LinAlgError:
            return None
        y = y / np.max(y)
        return y if y.min() > 0.0 else None

    best, width, floor, previous = None, math.inf, 0.0, None
    for _ in range(NODA_STEPS + 1):
        image = B @ x
        small = image < 2 * n * TINY
        if small.any():
            rows = B[small]
            if (rows.any(axis=1) & (np.abs(rows) @ x < 2 * n * TINY)).any():
                raise _Underflow("Collatz-Wielandt row sums underflow")
        ratios = image / x
        low, high = ratios.min(), ratios.max()
        if high - low < width:
            best, width = (low * (1 - slack), high * (1 + slack), x), high - low
        if high - low <= 2 * slack * high:
            break
        if previous is not None and np.max(np.abs(x / previous - 1.0)) <= FIXED_POINT:
            break  # rounding, not the shift, now sets the bracket
        previous = x
        # Far from rho, Noda's shift moves x little (on a weighted cycle,
        # by a factor 2 per step). A positive result of the log-midpoint
        # shift proves it above rho; a failed one raises the floor.
        floor = max(floor, low)
        if 0.0 < floor < high / SHIFT_SPREAD:
            trial = math.sqrt(floor * high)
            y = step(x, trial)
            if y is not None:
                x = y
                continue
            floor = trial
        # the upper bound as shift keeps sI - B a nonsingular M-matrix
        y = step(x, high * (1 + slack))
        if y is None:
            break
        x = y
    if best is None:
        raise ConvergenceError("Collatz-Wielandt ratios are not numbers")
    return best


# Widest relative Collatz-Wielandt bracket a Newton step accepts as the
# Perron root; Noda's iteration normally ends near 1e-14. Also the least
# |w . v| relative to max |w o v| that shows the eigenvalue simple.
PERRON_WIDTH = 1e-9


def equilibrium_weights(B, v, upper):
    """w o v / (w . v) for the left eigenvector w of B's leading eigenvalue,
    given its right eigenvector v > 0 and a bound upper >= that eigenvalue.

    w o v is the left eigenvector of D^-1 B D, D = diag(v), whose right
    one is flat; one inverse-iteration solve (s I - D^-1 B D)^T z = 1 with
    s = upper (1 + PERRON_SHIFT) gives it. A simple eigenvalue has its
    direction amplified by about 1/PERRON_SHIFT over every other one, and
    the scaling keeps the digits of the small entries of v. A defective one
    has w . v = 0, so ConvergenceError is raised unless |sum z| exceeds
    PERRON_WIDTH max |z| before z is divided by it, or when the solve is
    singular.
    """
    n = len(B)
    shifted = _shift_less(upper * (1.0 + PERRON_SHIFT), B * v / v[:, None])
    try:
        z = np.linalg.solve(shifted.T, _ones(n))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"leading eigenvalue is not simple: {exc}") from exc
    total = z.sum()
    if not abs(total) > PERRON_WIDTH * np.abs(z).max():
        raise ConvergenceError(f"leading eigenvalue is not simple: w.v = {total:.3g} "
                               f"against max |w o v| = {np.abs(z).max():.3g}")
    return z / total


def perron_root(B, t, start=None):
    """(lam, upper, v): the midpoint and upper end of the `collatz_wielandt`
    bracket of B = B(t) from `start`, and its positive vector v. lam is 1.0
    when the bracket holds 1, so that a pressure ln lam that the bracket
    cannot tell from 0 is 0 and Newton stops there. Raises
    ConvergenceError unless the bracket is positive (it is 0 for a
    nilpotent B, and for a leading eigenvector that is not positive) and
    PERRON_WIDTH narrow."""
    lower, upper, v = collatz_wielandt(B, start)
    if not (lower > 0.0 and upper - lower <= PERRON_WIDTH * upper):
        raise ConvergenceError(
            f"Perron root at t = {t!r} not resolved: bracket [{lower:.17g}, {upper:.17g}]")
    lam = 1.0 if lower <= 1.0 <= upper else float(0.5 * (lower + upper))
    return lam, upper, v


def _full_shift_pressure(log_r, t, weights=1.0):
    """(P, P') of a full shift in closed form: P(t) = ln sum w r^t and
    P'(t) = sum w r^t ln r / sum w r^t, the weights w all 1 by default."""
    terms = weights * np.exp(t * log_r)
    total = float(terms.sum())
    return math.log(total), float(terms @ log_r) / total


# Most pressure evaluations one Newton solve for a component root may take.
STEP_CAP = 100
# P(1) above this means the images overlap too much for the open set condition.
P1_SLACK = 1e-12


def _component_root(pressure_slope, tolerance, t0=0.0):
    """Zero of a convex decreasing pressure on [0, 1].

    pressure_slope(t) returns (P(t), P'(t)), or a pair of P's sign whose
    -P/P' is a Newton step. Safeguarded Newton from t0: P is convex and
    decreasing, so steps from the left climb monotonically to the zero, and
    one from its right lands on its left; the bracket [a, b] with
    P(a) >= 0 > P(b) absorbs rounding, and a step that would not land inside
    it becomes a bisection step. t = 1 is only evaluated when a step reaches
    it. It stops at a step of at most tolerance/8, within reach of the ends
    h -/+ tolerance/4 that `dimension._certified_bracket` tests, at a step
    that no longer moves t, or with no double left inside [a, b]. Returns
    (root, steps).
    """
    a, b, b_known = 0.0, 1.0, False
    t = t0
    for steps in range(1, STEP_CAP + 1):
        p, slope = pressure_slope(t)
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
        step = -p / slope
        if t + step != t and not a < t + step < b:
            if not b_known:
                t = b
                continue
            step = 0.5 * (a + b) - t
            if not a < t + step < b:
                return t, steps
        if abs(step) <= tolerance / 8 or t + step == t:
            # P(0) = ln rho(A) >= 0: a root within tolerance/8 of 0 stays 0
            return (t + step if t > 0.0 else t), steps
        t += step
    raise ConvergenceError(f"Newton on the pressure took more than {STEP_CAP} steps")


def _kept_root(block, tolerance):
    """(root, Newton steps) of one pressure engine's `find_root`, kept as
    its `root` with the tolerance it was solved at. A root kept at a
    tolerance no looser than this one is returned with 0 steps; one kept at
    a looser tolerance starts the search in place of its `newton_start`."""
    if block.root is None:
        t0 = block.newton_start(tolerance)
    else:
        root, solved_at = block.root
        if solved_at <= tolerance:
            return root, 0
        t0 = root
    root, steps = block.find_root(t0, tolerance)
    block.root = root, tolerance
    return root, steps


class PerronBlock:
    """One irreducible block B(t) = A o exp(t log r) of a similarity system,
    with the `size`, `matrix`, `find_root`, `certified_pressure`, `decay`,
    `newton_start` and `level` of a CfCollocation.

    A row of B(t) depends only on the edge's successor set, so the engine
    works on the k x k matrix M(t) of its `lumping` by successor sets (one
    node per state, kernel 1, log-weights ln r): rho(M(t)) = rho(B(t)), and
    `right`, M's Perron vector, read at `lumping.state_of` is B's; with all rows
    distinct, M(t) = B(t). `find_root` starts at the row-sum model's root
    and takes one solve per step, by nonlinear inverse iteration; each
    `collatz_wielandt` call starts from the last vector, so at the root the
    certificate needs no solve, and near it about one. `root` is the
    (root, tolerance) of the last Newton solve that `_kept_root` ran on
    this engine, or None.
    """

    pressure_method, dimension_method = TRANSFER_MATRIX, PERRON_NEWTON

    def __init__(self, lumping, log_norms):
        self.lumping, self.log_norms = lumping, log_norms
        self.size = len(self.lumping.members)
        # every letter has one successor: the block is one cycle
        self.cycle = self.size > 0 and bool((self.lumping.members.sum(axis=1) == 1).all())
        self.right = self.root = None

    @staticmethod
    def letter_values(system, idx):
        """The vector the block reads per letter: `log_norms` at `idx`."""
        return system.log_norms[idx]

    @property
    def decay(self) -> float:
        """A lower bound on -P'(t) for every t: -max ln r, rounded down.

        For s > t, B(s) = B(t) o exp((s - t) log r) <= (max r)^(s - t) B(t)
        entrywise, and rho is monotone in the entries of a nonnegative
        matrix, so P(s) <= P(t) + (s - t) max ln r."""
        return _rounded_down(-float(self.log_norms.max()))

    def level(self, tolerance):
        """The engine that serves every tolerance (see CfCollocation): this one."""
        return self

    def newton_start(self, tolerance) -> float:
        """Where Newton on this block starts: the root in [0, 1] of the
        row-sum model m(t) = ln(sum_j c_j r_j^t / n), c the column sums of
        the n x n matrix A (in exact integers, each state's successor set
        times its row count), or 1.0 when m(1) >= 0: only P itself can show
        P(1) > 0, which `_component_root` then refuses.

        m(t) is ln of the mean row sum of B(t), and rho(B(t)) lies between
        its least and largest row sums (Collatz-Wielandt with x = 1), so m
        tracks P. Its root is `_component_root` on its closed form,
        `_full_shift_pressure` with weights c / n. For a full shift
        c / n = 1 and m = P, so the start is the Moran root.
        """
        lumping = self.lumping
        weights = lumping.counts @ lumping.members / len(lumping.state_of)

        def model(t):
            return _full_shift_pressure(self.log_norms, t, weights)
        if model(1.0)[0] >= 0.0:
            return 1.0
        return _component_root(model, tolerance)[0]

    def find_root(self, t0, tolerance):
        """(root, steps) of `_component_root` on `_inverse_step` from t0 and
        `right`, the vector of ones on a fresh engine."""
        self.right = np.ones(self.size) if self.right is None else self.right
        return _component_root(self._inverse_step, tolerance, t0)

    def _inverse_step(self, t):
        """`CfCollocation._inverse_step` on M(t), v = `right` scaled to sum 1,
        solved on D^-1 M D, D = diag(v), so that small entries keep their
        digits. As M' v <= 0, a positive new `right` proves the step's sign
        (Collatz-Wielandt: M u <= u for u > 0). A singular solve, or a vector
        that is not positive (another eigenvalue of M(t) near 1), takes the
        `pressure_slope` step instead."""
        M, dM = self.matrix(t, derivative=True)
        v = self.right / self.right.sum()
        try:
            u = v * np.linalg.solve(_less_one(M * v / v[:, None]), dM @ v / v)
        except np.linalg.LinAlgError:
            return self.pressure_slope(t)
        total = float(u.sum())
        if math.isfinite(total) and total != 0.0 and (u / total).min() > 0.0:
            self.right = u / total
            return -1.0 / total, -1.0
        return self.pressure_slope(t)

    def matrix(self, t, derivative=False):
        """M(t), and with `derivative` also M'(t), for the Newton steps."""
        weights = np.exp(t * self.log_norms)
        M = self.lumping.blocks(weights)
        return (M, self.lumping.blocks(weights * self.log_norms)) if derivative else M

    def pressure_slope(self, t):
        """(P, P'): P is ln of the `perron_root` lam of M(t), whose vector v
        is kept as `right`, and P' = sum_i (z_i / v_i) (M' v)_i / lam
        (Ruelle) with z = w o v / (w . v) the `equilibrium_weights` of v.
        Raises ConvergenceError unless z is positive."""
        M, dM = self.matrix(t, derivative=True)
        lam, upper, v = perron_root(M, t, self.right)
        self.right, weights = v, equilibrium_weights(M, v, upper)
        slope = float((weights / v) @ (dM @ v)) / lam
        if not weights.min() > 0.0:
            raise ConvergenceError(
                f"left Perron vector at t = {t!r} is not positive: min weight {weights.min():.3g}")
        return math.log(lam), slope

    def certified_pressure(self, t):
        """[P_lower, P_upper] holding ln rho(B(t)), from `collatz_wielandt` on
        M(t) started at `right`, whose vector becomes the new `right`.

        With c the largest exponent t ln r, rho(B) = e^c rho(M_c) for M_c
        built from the weights exp(t log r - c), which lie in (0, 1]; the
        bounds are c + ln of the bracket of rho(M_c), rounded outward. The
        computed weights are within relative u (4 |t ln r| + spread + 16) of
        the exact ones, spread the largest minus the smallest exponent: ln r
        and its product with t err by 3u relative, which exp turns into
        3u |t ln r|; subtracting c adds u spread; exp itself errs by at most
        4 ulp. An entry of M_c sums the weights of letters of one state, at
        most g of them (the largest `counts`), which adds (g - 1) u. rho is
        monotone in the entries of a nonnegative matrix, so the bracket
        widens by that relative amount before its logarithm. Raises
        ConvergenceError when the spread is so large (above about 708) that
        a weight falls below the least normal number, which has no such
        relative bound.

        A `cycle` through n letters has B(t)^n = (prod r)^t I, so it returns
        P(t) = (t/n) sum ln r with (n + 5) u relative slack, rounded
        outward: the logs err by 2u, their sum by (n - 1) u, the product
        and quotient by 2u, relative to (t/n) sum |ln r|.
        """
        if self.cycle:
            n = self.size
            p = t * float(self.log_norms.sum()) / n
            err = (n + 5) * UNIT_ROUNDOFF * t * float(np.abs(self.log_norms).sum()) / n
            return math.nextafter(p - err, -math.inf), math.nextafter(p + err, math.inf)
        exponents = t * self.log_norms
        c = float(exponents.max())
        weights = np.exp(exponents - c)
        if not weights.min() >= TINY:
            raise ConvergenceError(f"weights r^t span more than the double range at t = {t}")
        lower, upper, self.right = collatz_wielandt(self.lumping.blocks(weights), self.right)
        spread = c - float(exponents.min())
        weight_err = UNIT_ROUNDOFF * (4 * float(np.max(np.abs(exponents))) + spread + 16
                                      + int(self.lumping.counts.max(initial=1)) - 1)
        p_lower, p_upper = _log_bounds(lower * (1 - weight_err), upper * (1 + weight_err))
        return math.nextafter(c + p_lower, -math.inf), math.nextafter(c + p_upper, math.inf)


def _transfer_partition_sums(system, t, n_max):
    """[u B^(n-1) 1 for n = 1..n_max], B = A o r^t and u = r^t, iterated on
    M(t) = `system.lumping.blocks`(r^t): B^(n-1) 1 is constant on the
    edges of one successor set, so its values per state are M(t)^(n-1) 1,
    and u is summed per state (M = B when all successor sets are distinct).
    A sum past the float range comes out inf, or nan where a 0 entry of M
    meets an inf; the caller refuses it, so neither raises a floating-point
    warning here."""
    lumping, r_t = system.lumping, np.exp(t * system.log_norms)
    M, u = lumping.blocks(r_t), np.bincount(lumping.state_of, r_t)
    w = np.ones(len(u))
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_max):
            out.append(float(u @ w))
            w = M @ w
    return out


# -- continued-fraction enumeration -----------------------------------------

def _cf_level_sums(system, ns, t):
    """{n: Z_n(t)}, exact, for each n in ns up to the last word length that
    the count guard allows on a finite continued-fraction system.

    Level n holds ln q_{n-1} and ln q_n of every admissible length-n word
    in two flat arrays, ordered by last letter, then by the letter before
    it, then by the order of level n - 1; `counts[b]` words end in letter b.
    q_{n+1} = b q_n + q_{n-1} builds level n + 1 from level n alone, one
    block per allowed pair a -> b in that order, so only one level is kept.
    A level is built only while the words of all levels up to it stay
    within the guard; that is checked before it is built.
    """
    guard, pred = g.count_guard(), system.lumping.reversed  # the predecessor sets
    pairs = np.argwhere(pred.members[pred.state_of]).tolist()  # [b, a] for a -> b, by b, then a
    log_labels = [math.log(e) for e in system.edge_ids]
    lq_prev, lq = np.zeros(len(log_labels)), np.array(log_labels)
    counts = np.ones(len(log_labels), dtype=int)
    wanted, words, out = set(ns), 0, {}
    for n in range(1, max(ns) + 1):
        grown = counts if n == 1 else (pred.members @ counts)[pred.state_of]
        size = int(grown.sum())
        words += size
        if words > guard:
            break
        if n > 1:
            starts = np.cumsum(counts) - counts
            next_prev, next_q, pos = np.empty(size), np.empty(size), 0
            for b, a in pairs:
                part = slice(starts[a], starts[a] + counts[a])
                stop = pos + counts[a]
                next_prev[pos:stop] = lq[part]
                np.logaddexp(log_labels[b] + lq[part], lq_prev[part], out=next_q[pos:stop])
                pos = stop
            lq_prev, lq, counts = next_prev, next_q, grown
        if n in wanted:
            terms = -2.0 * t * lq
            out[n] = float(np.exp(terms, out=terms).sum())
    return out


# -- continued-fraction transfer operator ------------------------------------

# Chebyshev nodes per state of the collocation. The eigenfunctions of L_t
# are analytic on [0, 1] up to the branch point at x = -1, so the
# collocation error falls like (3 + sqrt 8)^-M: about 1e-15 at M = 20,
# below the rounding slack of the certificate for t in [0, 2].
COLLOCATION_NODES = 20
# Nodes per state of the coarse collocation whose root starts the inverse
# iteration on the COLLOCATION_NODES one: that root lies about 2e-8 from the
# full-size one (full N = 2 and 5, banded N = 8 and 20), so one full-size
# step reaches the tolerance and the next confirms it.
COARSE_NODES = 8
# Least tolerance the coarse collocation serves alone (`CfCollocation.level`):
# it certifies down to 1e-5 on full N <= 300, banded w = 1 N <= 120, w = 2
# N <= 10 and w = 3, 5 N = 30, leaving a factor 10 for larger alphabets.
COARSE_WIDTH = 1e-4
# The certificate splits [0, 1] into equal panels and bounds the residual on
# each through its interpolant at PANEL_POINTS first-kind Chebyshev points
# (at least COLLOCATION_NODES), with the remainder estimated on the
# Bernstein ellipse of parameter PANEL_ELLIPSE around the panel.
CERTIFICATE_PANELS = 8
PANEL_POINTS = 24
PANEL_ELLIPSE = 8.0


def _chebyshev_nodes(m, lo=0.0, hi=1.0):
    """The m first-kind Chebyshev points of [lo, hi], largest first."""
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _values_to_coefficients(m):
    """Matrix taking values at `_chebyshev_nodes(m)` to the coefficients of
    the interpolant in T_k(2x - 1)."""
    theta = (2 * np.arange(m) + 1) * np.pi / (2 * m)
    to_coef = (2.0 / m) * np.cos(np.outer(np.arange(m), theta))
    to_coef[0] /= 2
    return to_coef


@cache
def _node_tables(m):
    """(`_chebyshev_nodes(m)`, `_values_to_coefficients(m)`), read-only, as is
    every table that depends only on node counts: a constant of the process,
    built at its first use and shared by every engine."""
    return g.read_only(_chebyshev_nodes(m)), g.read_only(_values_to_coefficients(m))


@cache
def _interpolation_grid(m):
    """T_k(2x - 1) for k < COARSE_NODES at the m nodes x, read-only: it takes
    a coarse vector's coefficients to its values on m nodes."""
    return g.read_only(_chebyshev_vander(2.0 * _node_tables(m)[0] - 1.0, COARSE_NODES))


@cache
def _panel_tables(m):
    """The certificate's tables for m nodes per state, read-only: the disk
    radius around each panel's ellipse, the panel centers and points y of
    [0, 1], T_k(2y - 1) (points x m), R^k of the disks (1 x panels x m),
    j^2 and the values-to-coefficients matrix for j < PANEL_POINTS."""
    half = 0.5 / CERTIFICATE_PANELS
    centers = (2 * np.arange(CERTIFICATE_PANELS) + 1) * half
    y = np.concatenate([_chebyshev_nodes(PANEL_POINTS, c - half, c + half) for c in centers])
    reach = half * (PANEL_ELLIPSE + 1 / PANEL_ELLIPSE) / 2  # disk around each ellipse
    r_self = _ellipse_parameter(2 * centers - 1, 2 * reach)
    tables = (centers, y, _chebyshev_vander(2 * y - 1, m), r_self[None, :, None] ** np.arange(m),
              np.arange(PANEL_POINTS) ** 2.0)
    return (reach, *map(g.read_only, tables), _node_tables(PANEL_POINTS)[1])


# the letters per node count whose tables the process keeps: about 37.5 kB
# each at 20 nodes and 15 kB at 8, so at most 3.4 MB
LETTER_TABLE_LIMIT = 64


class _LetterTables:
    """Tables elementwise in a letter a, kept for the process: for each
    node count m, read-only arrays with one row per letter held, at most
    `LETTER_TABLE_LIMIT` of them, in the order they were kept. `build(a, m)`
    computes the tables for a column a of letters. Being elementwise in a,
    no row depends on the batch it was built in."""

    def __init__(self, build):
        self.build, self.held = build, {}  # m -> ({letter: row}, tables)

    def take(self, letters, m):
        """The tables' rows of `letters`: a view of the first rows held when
        `letters` are the first letters held, in order (every head {1..N}
        of an integer alphabet), else a copy. The rows of the letters new to
        the process are built in one batch and kept, appended to a new pair,
        unless the process would then hold more than `LETTER_TABLE_LIMIT`
        letters; then all of `letters` are built for the caller alone. A
        held pair is read once and never changed, so calls from several
        threads each index a consistent pair (at worst one of them drops
        the letters another appended)."""
        rows, tables = self.held.get(m, ({}, None))
        new = [a for a in dict.fromkeys(letters) if a not in rows]
        if len(rows) + len(new) > LETTER_TABLE_LIMIT:
            return self.build(np.array(letters)[:, None], m)
        if new:
            built = self.build(np.array(new)[:, None], m)
            if tables is not None:
                built = [np.concatenate(pair) for pair in zip(tables, built)]
            rows = {**rows, **dict(zip(new, range(len(rows), len(rows) + len(new))))}
            tables = [g.read_only(table) for table in built]
            self.held[m] = rows, tables
        order = [rows[a] for a in letters]
        if order == list(range(len(order))):
            return [table[:len(order)] for table in tables]
        return [table[order] for table in tables]

    def cache_clear(self):
        self.held.clear()


def _collocation_rows(a, m):
    """At the m nodes x: the log-weights -2 ln(a + x_i) and the Chebyshev
    image table T_k(2/(a + x_i) - 1) (m x m)."""
    shifted = a + _node_tables(m)[0]
    return -2.0 * np.log(shifted), _chebyshev_vander(2.0 / shifted - 1.0, m)


def _certificate_rows(a, m):
    """The certificate's tables for m nodes, over the panel points y of
    [0, 1] and the disks around the panels' ellipses: a + y, T_k(2/(a + y)
    - 1) (points x m), a + Re z, which is <= |a + z| on the disks, and R^k
    of the disks' images under z -> 1/(a + z) (panels x m)."""
    reach, centers, y = _panel_tables(m)[:3]
    mid = a + centers
    spread = mid * mid - reach * reach
    r_image = _ellipse_parameter(2 * mid / spread - 1, 2 * reach / spread)
    return (a + y, _chebyshev_vander(2.0 / (a + y) - 1.0, m), mid - reach,
            r_image[:, :, None] ** np.arange(m))


# an engine's collocation rows, taken when it is built, and its
# certificate rows, taken at its first certificate (`CfCollocation._plan`)
_letter_tables = _LetterTables(_collocation_rows)
_letter_plan = _LetterTables(_certificate_rows)


def _chebyshev_vander(u, m):
    """T_0(u) .. T_{m-1}(u) on a new last axis, by the three-term recurrence."""
    T = np.empty(np.shape(u) + (m,))
    T[..., 0] = 1.0
    T[..., 1] = u
    for k in range(2, m):
        T[..., k] = 2.0 * u * T[..., k - 1] - T[..., k - 2]
    return T


def _ellipse_parameter(center, radius):
    """Parameter R of a Bernstein ellipse (foci -1, 1) holding the disk
    |u - center| <= radius, center real: |T_k(u)| <= R^k on the disk."""
    a = np.maximum(1.0, np.abs(center)) + radius
    return a + np.sqrt(a * a - 1.0)


def _rounded_down(x):
    """x lowered by 4 unit roundoffs of |x|: a lower bound on the exact
    value of an x computed with up to three roundings."""
    return x - 4 * UNIT_ROUNDOFF * abs(x)


def _log_bounds(low, high):
    """Outward-rounded [ln low, ln high]; ln of a nonpositive low is -inf."""
    slack = 4 * UNIT_ROUNDOFF
    lower = -math.inf if not low > 0.0 else math.log(low) - slack * (1 + abs(math.log(low)))
    upper = math.log(high) + slack * (1 + abs(math.log(high)))
    return lower, upper


class CfCollocation:
    """Chebyshev collocation of the transfer operator of one strongly
    connected finite continued-fraction system, given by its `block`, the
    `graph.StateLumping` of the successor sets of its letters, and the
    letters, their labels:

        (L_t f)_c(x) = sum over a with a -> c allowed of (a + x)^(-2t) f_a(1/(a + x)),

    and rho(L_t) = exp P(t). The unknowns are one function per state (one
    for the full rule), stored by its values at `nodes` first-kind
    Chebyshev nodes x_i (COLLOCATION_NODES unless the engine is the `coarse`
    level of another). With l_j the Lagrange basis of the nodes and
    s(a) the state of letter a, the collocation matrix is

        L(t) = Q (K o exp(t Lam)),   K[(a, i), (s(a), j)] = l_j(1/(a + x_i)),
                                     Lam[(a, i), .] = -2 ln(a + x_i),

    where Q (the `members` of `lumping`, the block `reversed`) adds up the
    rows of the letters in each predecessor set; L'(t) = Q (K o Lam o
    exp(t Lam)) gives the `_inverse_step`. `PerronBlock` is this assembly
    with one node, K = 1 and Lam = ln r.
    """

    # -P'(t) >= ln 2 for every t: each length-2 word has
    # ||phi_w'|| = q_2^-2 <= 1/4, and the norms are submultiplicative, so
    # Z_n(s) <= 4^(-floor(n/2) (s - t)) Z_n(t) for s > t
    decay = _rounded_down(math.log(2.0))
    pressure_method, dimension_method = CHEBYSHEV_COLLOCATION, COLLOCATION_NEWTON

    def __init__(self, block, letters, nodes=COLLOCATION_NODES):
        self.block, self.lumping, self.nodes = block, block.reversed, nodes
        self.size = len(self.lumping.members) * nodes
        guard = g.count_guard()
        if self.size * self.size > guard:
            raise ResourceGuardError(
                f"collocation matrix of size {self.size} exceeds count guard of {guard}")
        self.letters = np.array(letters, dtype=float)
        self.to_coef = _node_tables(nodes)[1]
        self.log_weights, images = _letter_tables.take(self.letters.tolist(), nodes)
        self.kernel = images @ self.to_coef
        # right vector of the last `_perron` or `find_root` call and the
        # `_state_sizes` it was scaled by, from which the next call starts;
        # `at`, the t where a loose search left `right` (see `_start`), else
        # None; the (root, tolerance) of the last `_kept_root` solve
        self.right = self.sizes = self.at = self.root = None

    @cached_property
    def model(self):
        """The state model: a PerronBlock on `lumping` whose letter a has
        log-weight ln (a + 1/2)^-2, one per block, which `coarse` shares."""
        return PerronBlock(self.lumping, -2.0 * np.log(self.letters + 0.5))

    @staticmethod
    def letter_values(system, idx):
        """The vector the collocation reads per letter: the letters at `idx`
        as floats, the delta of the maps x -> 1/(a + x) in `coefficients`."""
        return system.coefficients[3][idx]

    def matrix(self, t, derivative=False):
        """L(t), and with `derivative` also L'(t), each summed by
        `lumping.blocks` straight into its (state, node) x (state, node) layout."""
        scaled = self.kernel * np.exp(t * self.log_weights)[:, :, None]
        L = self.lumping.blocks(scaled)
        return (L, self.lumping.blocks(scaled * self.log_weights[:, :, None])) if derivative else L

    def _state_sizes(self, t, start=None):
        """x > 0, one entry per state: the Perron vector, from
        `collatz_wielandt` started at `start`, of the state model `model`,
        summing (a + 1/2)^(-2t) over the letters a of each block. It models
        the sizes of the state functions by the letter weights at the middle
        of [0, 1], exact at t = 0, where the constants are eigenfunctions.
        The weights a^(-2t) at x = 0 bound rho(L_t), but along a band the
        ratios of neighbouring states compound their excess: on banded
        N = 40 for t in [0.24, 0.54], a start built from them errs by
        factors spanning e^8.5, one built from these by e^1.6. From
        COARSE_WIDTH up the coarse level's first sizes are not computed
        here: they are the vector the model's own root search ended with
        (`newton_start`), and this runs only when a later call moves t.
        """
        # one state: `collatz_wielandt` would return [1.0] itself, with no
        # solve, while the entry sums a weight above e^-700 (no underflow)
        if self.model.size == 1 and t * self.model.log_norms.max() > -700.0:
            return _ones(1)
        return collatz_wielandt(self.model.matrix(t), start)[2]

    def _start(self, t):
        """(x, sizes): x is the `_state_sizes(t)` on every node for a fresh
        engine, after a failed search and at t = 0, where they are exact;
        `right` and `sizes` unchanged at `at`, where a loose search left
        them; else the previous right vector times the change of the sizes
        from `sizes` to `_state_sizes(t)`."""
        if self.right is None or t == 0.0 or not self.right.min() > 0.0:
            sizes = self._state_sizes(t)
            return np.repeat(sizes, self.nodes), sizes
        if t == self.at:
            return self.right, self.sizes
        sizes = self._state_sizes(t, self.sizes)
        return self.right * np.repeat(sizes / self.sizes, self.nodes), sizes

    def _perron(self, t, L):
        """`perron_root` of L = L(t) from `_start(t)`; row sums that underflow
        are refused as state functions spanning more than the double range."""
        try:
            start, sizes = self._start(t)
            lam, upper, v = perron_root(L, t, start)
        except _Underflow as exc:
            raise ConvergenceError(f"the collocation's state functions span more than the "
                                   f"double range at t = {t!r}") from exc
        self.right, self.sizes, self.at = v, sizes, None
        return lam, upper, v

    @cached_property
    def coarse(self):
        """The COARSE_NODES collocation of this block, kept for every later
        call, with this engine's `model`."""
        coarse = CfCollocation(self.block, self.letters, COARSE_NODES)
        coarse.model = self.model
        return coarse

    def level(self, tolerance):
        """The engine that serves `tolerance`: `coarse` from COARSE_WIDTH up, else this one."""
        return self.coarse if tolerance >= COARSE_WIDTH else self

    def newton_start(self, tolerance) -> float:
        """Where `find_root` here starts. On the coarse level: the root of
        the state model `model` from a cold vector. From COARSE_WIDTH up it is
        found by the model's inverse iteration, whose final vector becomes
        `sizes` at `at`, the model root, and `right` on every node, so the
        search starts with no sizes pass; below, by Newton on
        `pressure_slope`. Else the `_kept_root` of `coarse`, cleared first
        below COARSE_WIDTH (tight certificates depend on the last bits of a
        cold search), whose vector interpolated onto these nodes becomes
        `right`, with its `sizes`; if it raises ConvergenceError, the model
        root, with both cleared."""
        if self.nodes == COARSE_NODES:
            model, start = self.model, self.model.newton_start(tolerance)
            model.right = None
            if tolerance < COARSE_WIDTH:
                return _component_root(model.pressure_slope, tolerance, start)[0]
            root = model.find_root(start, tolerance)[0]
            self.right, self.sizes, self.at = np.repeat(model.right, self.nodes), model.right, root
            return root
        coarse = self.coarse
        if tolerance < COARSE_WIDTH:
            coarse.right = coarse.root = None
        try:
            root, _ = _kept_root(coarse, tolerance)
        except ConvergenceError:
            self.right = self.sizes = None
            return coarse.newton_start(tolerance)
        coef = coarse.right.reshape(-1, COARSE_NODES) @ coarse.to_coef.T
        right = (coef @ _interpolation_grid(self.nodes).T).ravel()
        if not right.min() > 0.0:
            raise ConvergenceError("coarse collocation vector does not interpolate positive")
        self.right, self.sizes, self.at = right, coarse.sizes, None
        return root

    def _inverse_step(self, t):
        """(step, -1.0) for `_component_root`: one solve of
        (L(t) - I) u = L'(t) v, v = `right`, gives Newton's step -1/(c . u)
        on L(t) v = v, c . v = 1 (c all ones) and the new `right` u/(c . u):
        nonlinear inverse iteration (Ruhe, SIAM J. Numer. Anal. 10, 1973).
        A singular L(t) - I makes t the root."""
        L, dL = self.matrix(t, derivative=True)
        try:
            u = np.linalg.solve(_less_one(L), dL @ self.right)
        except np.linalg.LinAlgError:
            return 0.0, -1.0
        total = float(u.sum())
        if not (math.isfinite(total) and total != 0.0):
            raise ConvergenceError(f"inverse iteration at t = {t!r} has no step")
        self.right = u / total
        return -1.0 / total, -1.0

    def find_root(self, t0, tolerance):
        """(root, steps) of `_component_root` on `_inverse_step` from t0 and
        `_start(t0)`. The final vector stays as `right`; ConvergenceError
        unless it is positive. Below COARSE_WIDTH the `_state_sizes` at the
        root become `sizes`; from it up `sizes` stay those of the start and
        `at` is the root, so a certificate there starts from `right`
        unchanged and runs no sizes pass."""
        start, self.sizes = self._start(t0)
        self.right, self.at = start / start.sum(), None
        root, steps = _component_root(self._inverse_step, tolerance, t0)
        if not self.right.min() > 0.0:
            raise ConvergenceError(f"inverse iteration vector at t = {root!r} is not positive")
        if tolerance >= COARSE_WIDTH:
            self.at = root
        else:
            self.sizes = self._state_sizes(root, self.sizes)
        return root, steps

    def certified_pressure(self, t):
        """[P_lower, P_upper] holding P(t) = ln rho(L_t), proved on all of
        [0, 1] by `_residual_bound` at the `perron_root` lam of L(t).
        Raises ConvergenceError when the residual bound s is not below lam,
        where the lower bound would be lost."""
        lam, _, v = self._perron(t, self.matrix(t))
        s = self._residual_bound(t, lam, v)
        if not lam - s > 0.0:
            raise ConvergenceError(
                f"collocation residual bound {s:.3g} at t = {t!r} is not below lam = {lam:.3g}")
        return _log_bounds(lam - s, lam + s)

    @cached_property
    def _plan(self):
        """The tables of `_residual_bound` that depend on the letters: the
        `_letter_plan` rows of this engine's letters, taken at its first
        certificate and kept for every later t, and the shared
        `_panel_tables` of its node count m:

            (a + y,                  letters x points
             T_k(2/(a + y) - 1),     letters x points x m
             a + Re z on the disks,  letters x panels
             R^k of the disks' images under z -> 1/(a + z), letters x panels x m
             `_panel_tables(m)`).
        """
        shifted, image, near, image_powers = _letter_plan.take(self.letters.tolist(), self.nodes)
        if not near.min() > 0.0:
            raise ConvergenceError("certificate ellipse reaches a branch point")
        return shifted, image, near, image_powers, _panel_tables(self.nodes)

    def _residual_bound(self, t, lam, v):
        """s >= max over states c and x in [0, 1] of |r_c(x)| / g_c(x).

        g_c is the polynomial whose Chebyshev coefficients are those of the
        collocation vector v, as stored, and r = L_t g - lam g. L_t is a
        positive operator, so g > 0 and -s g <= r <= s g give
        (lam - s) g <= L_t g <= (lam + s) g, hence rho(L_t) in
        [lam - s, lam + s] (Collatz-Wielandt). Per state and panel of [0, 1]:

        - sup |r| <= Lebesgue constant * max |r| at the panel's Chebyshev
          points, plus the interpolation remainder 4 M R^(1-n) / (R - 1),
          where M bounds |r| on a disk around the panel's Bernstein ellipse
          of parameter R (through |a + z| >= a + Re z and the ellipse
          parameter of the image of that disk under z -> 1/(a + z));
        - the values at the points carry explicit floating-point slack:
          rounding of the weights, of the Chebyshev recurrence (about k^2 ulp
          for T_k) and of the sums, and the rounding of the points
          themselves, through a bound on |r'|;
        - inf g >= min of g at the points, less sup |g'| on the panel times
          the distance to the nearest point; g has degree below the number
          of points, so its own panel interpolant bounds |g'| there.

        The terms that depend only on the letters and the node count (the
        points a + y, the Chebyshev tables at y and at 1/(a + y), the disk
        bounds, the ellipse powers and the panel interpolation matrix) come
        from `_plan`; what is computed here depends on v, lam and t.

        Raises ConvergenceError when g cannot be shown positive.
        """
        u, m, n, rho = UNIT_ROUNDOFF, self.nodes, PANEL_POINTS, PANEL_ELLIPSE
        shifted, image, near, image_powers, panels = self._plan
        self_image, self_powers, squares, panel_to_coef = panels[3:]
        members, own = self.lumping.members, self.lumping.state_of
        states = len(members)
        coef = v.reshape(states, m) @ self.to_coef.T
        size0 = np.abs(coef).sum(axis=1)                      # >= sup |g|
        size1 = 2.0 * np.abs(coef) @ np.arange(m) ** 2.0      # >= sup |g'|
        eval_err = u * (5.0 * size1 + 2.0 * m * size0)

        half = 0.5 / CERTIFICATE_PANELS
        weights = shifted ** (-2.0 * t)
        g_image_y = np.einsum("apk,ak->ap", image, coef[own])
        terms = weights * g_image_y
        g_y = (self_image @ coef.T).T
        r = members @ terms - lam * g_y
        letters = self.letters
        # rounding of the weights, products and sums; of g; and of the
        # points, which lie within 3u of the exact ones, times sup |r'|
        arithmetic = (len(letters) + 8 + 2 * t) * u * (members @ np.abs(terms)
                                                       + lam * np.abs(g_y))
        evaluation = members @ (weights * eval_err[own][:, None]) + (lam * eval_err)[:, None]
        drift = (members @ (2 * t * letters ** (-2 * t - 1) * size0[own]
                                 + letters ** (-2 * t - 2) * size1[own])
                 + lam * size1)
        slack = arithmetic + evaluation + 3 * u * drift[:, None] + u * np.abs(r)
        worst = (np.abs(r) + slack).reshape(states, CERTIFICATE_PANELS, n).max(axis=2)

        g_image = (np.abs(coef[own])[:, None, :] * image_powers).sum(axis=2)
        g_self = (np.abs(coef)[:, None, :] * self_powers).sum(axis=2)
        disk_max = members @ (near ** (-2 * t) * g_image) + lam * g_self
        lebesgue = 2 / np.pi * math.log(n) + 1
        sup_r = lebesgue * worst + 4 * disk_max * rho ** (1 - n) / (rho - 1)

        # g has degree m - 1 < n, so on each panel it is its own interpolant
        # at the panel's points, which bounds |g'| there
        values = g_y.reshape(states, CERTIFICATE_PANELS, n)
        value_err = (eval_err + 3 * u * size1)[:, None]
        panel_coef_err = 2 * value_err + 2 * n * u * np.abs(values).max(axis=2)
        slope = (np.abs(values @ panel_to_coef.T) @ squares
                 + panel_coef_err * squares.sum()) / half
        floor = values.min(axis=2) - value_err - slope * half * np.pi / (2 * n)
        if not floor.min() > 0.0:
            raise ConvergenceError(
                "collocation eigenfunction is not certified positive on [0, 1]")
        bound = float(np.max(sup_r / floor)) * (1 + 1e-9)
        if not math.isfinite(bound):
            raise ConvergenceError("collocation residual bound is not finite")
        return bound


# -- operations --------------------------------------------------------------

def partition_sum(system: GdmsSystem, n: int, t: float) -> PartitionSum:
    """Z_n(t) = sum over admissible length-n words of ||phi_word'||^t."""
    return partition_sums(system, [n], t)[0]


def partition_sums(system: GdmsSystem, ns, t: float) -> list:
    """[partition_sum(system, n, t) for n in ns], sharing the work across n.

    One run of products with the lumped transfer matrix M(t) up to max(ns)
    (`_transfer_partition_sums`) gives the sums S_n over the length-n words
    of the products of one-step norms ||phi_e'||^t. A word's norm lies
    within a factor K^(n-1), K = the family's `distortion`, below that
    product, so Z_n(t) lies in [K^(-t(n-1)) S_n, S_n], exact when K = 1.
    The n that the family's `level_sums` enumerates take those exact sums
    instead, with method `enumeration`.
    """
    ns = g.word_lengths(ns)
    if not (t >= 0 and math.isfinite(t)):
        raise InputError(f"t must be finite and >= 0, got {t!r}")
    if not ns:
        return []
    if system.infinite:
        if any(t > system.incidence.rule.theta_n(n) for n in ns):
            raise UnsupportedAnalysisError(
                "infinite-alphabet partition sums are only classified as finite or "
                "divergent; truncate the system for numeric values")
        return [PartitionSum(n, t, math.inf, math.inf, RULE_ANALYTIC, divergent=True)
                for n in ns]

    sums = _transfer_partition_sums(system, t, max(ns))
    if not all(math.isfinite(sums[n - 1]) for n in ns):
        raise ResourceGuardError(f"Z_n({t}) exceeded the overflow budget")
    exact = system.family.level_sums(system, ns, t)
    K = system.family.distortion
    out = []
    for n in ns:
        if n in exact:
            out.append(PartitionSum(n, t, exact[n], exact[n], ENUMERATION))
        else:
            S_n = sums[n - 1]
            out.append(PartitionSum(n, t, S_n * K ** (-t * (n - 1)), S_n, TRANSFER_MATRIX))
    return out


def pressure(system: GdmsSystem, t: float, n_max: int = 14) -> PressureEstimate:
    """Rigorous bracket for P(t) = lim (1/n) ln Z_n(t): the max over the
    cached `system.engines` of their `certified_pressure` bounds, each
    distinct engine evaluated once, from its vector of the previous call.
    In a topological order of the components the transfer matrix is block
    triangular, with nilpotent diagonal blocks off the components, so P is
    the max over components; a dense eigen-solve of the whole matrix would
    err near sqrt(eps) when two linked components have equal radius. A
    system with no cyclic component has P = -inf. `n_max` is accepted for
    compatibility and affects neither family.
    """
    if not (t >= 0 and math.isfinite(t)):
        raise InputError(f"t must be finite and >= 0, got {t!r}")
    if system.infinite:
        if t < system.incidence.rule.theta:
            return PressureEstimate(t, math.inf, math.inf, 0, RULE_ANALYTIC, is_infinite=True)
        raise UnsupportedAnalysisError(
            "pressure of an infinite system needs a truncation sweep")

    bounds = [block.certified_pressure(t) for block in dict.fromkeys(system.engines)]
    return PressureEstimate(t, max((lo for lo, _ in bounds), default=-math.inf),
                            max((hi for _, hi in bounds), default=-math.inf), 0,
                            system.family.engine_type.pressure_method)


def finiteness_parameters(system: GdmsSystem, n_list=(1, 2, 3)) -> FinitenessReport:
    """theta and theta_n: where Z_n(t) becomes a finite sum.

    Finite systems: 0 (finite sums are always finite). Infinite systems,
    all from `system.cf_system`, have the closed forms of their `graph.NamedRule`.
    Raises InputError unless n_list holds at least one word length.
    """
    n_list = sorted(set(g.word_lengths(n_list)))
    if not n_list:
        raise InputError("need at least one word length")
    if not system.infinite:
        return FinitenessReport(Fraction(0), {n: Fraction(0) for n in n_list},
                                "finite sums")
    rule = system.incidence.rule
    return FinitenessReport(rule.theta, {n: rule.theta_n(n) for n in n_list}, rule.theta_reason)


# -- conformal cylinder measure ----------------------------------------------

@dataclass(frozen=True)
class CylinderMeasure:
    h: float
    edge_masses: dict    # edge id -> m([e])
    vertex_masses: dict  # vertex id -> m(X_v)
    right_vector: dict   # edge id -> Perron right-eigenvector entry
    normalizer: float

    def word_mass(self, system: GdmsSystem, word) -> float:
        """m([word]); 0 when the word is not admissible, its cylinder then
        being empty."""
        word = tuple(word)
        if not g.is_admissible(system, word):
            return 0.0
        log_r = system.family.log_norm(word)
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
    m([word]) = sum over admissible extensions of m([word e]). v is the
    `perron_root` vector of M(h) from the `right` of the system's one
    `engines` entry, which keeps it, read at each edge's state; it raises
    ConvergenceError unless the bracket of rho(B(h)) is positive and
    PERRON_WIDTH narrow. pressure_tolerance bounds only |P(h)|. Raises
    InputError unless h is finite and >= 0 and pressure_tolerance finite and > 0.
    """
    if not (0 <= h < math.inf and 0 < pressure_tolerance < math.inf):
        raise InputError(f"h must be finite and >= 0 and pressure_tolerance finite and > 0, "
                         f"got {h!r} and {pressure_tolerance!r}")
    # the masses r_word^h v_last / Z need derivatives constant on each cylinder
    if system.family.distortion != 1.0:
        raise UnsupportedAnalysisError("conformal measures are built for similarity systems")
    if not system.irreducible:
        raise UnsupportedAnalysisError("conformal measures need an irreducible incidence matrix")
    (block,) = system.engines
    lam, _, block.right = perron_root(block.matrix(h), h, block.right)
    if abs(math.log(lam)) > pressure_tolerance:
        raise DomainError(f"h={h} is not a pressure zero: ln rho(B(h)) = {math.log(lam):.3g}")

    ids = system.edge_ids
    v = block.right[block.lumping.state_of]
    v = v / v.sum()
    weights = np.exp(h * system.log_norms) * v
    z = float(weights.sum())
    edge_masses = {e: float(weights[k] / z) for k, e in enumerate(ids)}
    vertex_masses = {vx: 0.0 for vx in system.graph.vertices}
    for e in system.graph.edges:
        vertex_masses[e.src] += edge_masses[e.id]
    return CylinderMeasure(h, edge_masses, vertex_masses,
                           {e: float(v[k]) for k, e in enumerate(ids)}, z)

