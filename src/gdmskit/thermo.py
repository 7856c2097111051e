"""Partition sums, topological pressure and conformal cylinder measures.

Similarity partition sums are exact: Z_n(t) comes from the weighted transfer
matrix B(t)_{ab} = A_{ab} r_b^t, and the pressure ln rho(B(t)) is bracketed by
Collatz-Wielandt bounds from Noda's inverse iteration. Continued-fraction
partition sums are enumerated through continuants (exact per word); their
pressure is the log spectral radius of the transfer operator L_t, bracketed
by a Chebyshev collocation of L_t and a Collatz-Wielandt certificate that
holds on all of [0, 1].
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
CHEBYSHEV_COLLOCATION = "chebyshev-collocation"


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
    below that.
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
            y = x * np.linalg.solve(shift * np.eye(n) - B * x / x[:, None], np.ones(n))
        except np.linalg.LinAlgError:
            return None
        y = y / np.max(y)
        return y if y.min() > 0.0 else None

    best, width, floor, previous = None, math.inf, 0.0, None
    for _ in range(NODA_STEPS + 1):
        image = B @ x
        small = image < 2 * n * TINY
        if small.any() and B[small].any():
            raise ConvergenceError("Collatz-Wielandt row sums underflow")
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
    return best


def perron(B, tolerance: float = 1e-9):
    """(rho, v, w) of an irreducible nonnegative matrix B.

    rho is the midpoint of the Collatz-Wielandt bracket of `collatz_wielandt`
    and v its positive vector; w = `equilibrium_weights` / v. Both vectors
    are scaled to sum 1. Raises ConvergenceError when the lower bound is not
    positive (a nilpotent matrix); when a vector is not strictly positive
    or max|Bv - rho v|, max|wB - rho w| exceeds tolerance * rho * max(vector);
    or when w.v / (max v * max w) is at most tolerance (a defective root, as
    in a reducible B with two equal blocks, drives it to 0).
    """
    lower, upper, v = collatz_wielandt(B)
    if not lower > 0.0:
        raise ConvergenceError("Perron root of a nilpotent matrix")
    rho = 0.5 * (lower + upper)
    w = equilibrium_weights(B, v, upper) / v
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


def equilibrium_weights(B, v, upper):
    """w o v / (w . v) for the left Perron vector w of B, given its right
    Perron vector v > 0 and a bound upper >= rho(B).

    w o v is the left Perron vector of D^-1 B D, D = diag(v), whose right
    one is flat; one inverse-iteration solve (s I - D^-1 B D)^T z = 1 with
    s = upper (1 + PERRON_SHIFT) gives it. The root is simple, so the solve
    amplifies its direction by about 1/PERRON_SHIFT over every other one,
    and the scaling keeps the digits of the small entries of v.
    """
    n = len(B)
    shifted = upper * (1.0 + PERRON_SHIFT) * np.eye(n) - B * v / v[:, None]
    z = np.linalg.solve(shifted.T, np.ones(n))
    return z / z.sum()


def block_pressure(A, log_norms, t, start=None):
    """(P_lower, P_upper, x): bounds on ln rho(B) for B = A o exp(t log r)
    of one irreducible block, from `collatz_wielandt` started at `start`.

    With c the largest exponent t ln r, rho(B) = e^c rho(B_c) for
    B_c = A o exp(t log r - c), whose weights lie in (0, 1]; the bounds are
    c + ln of the bracket of rho(B_c), rounded outward. The computed
    weights of B_c are within relative u (4 |t ln r| + spread + 16) of the
    exact ones, spread the largest minus the smallest exponent: ln r and
    its product with t err by 3u relative, which exp turns into
    3u |t ln r|; subtracting c adds u spread; exp itself errs by at most
    4 ulp. rho is monotone in the entries of a nonnegative matrix, so the
    bracket widens by that relative amount before its logarithm. Raises
    ConvergenceError when the spread is so large (above about 708) that a
    weight of B_c falls below the least normal number, which has no such
    relative bound.
    """
    exponents = t * log_norms
    c = float(exponents.max())
    weights = np.exp(exponents - c)
    if not weights.min() >= TINY:
        raise ConvergenceError(f"weights r^t span more than the double range at t = {t}")
    lower, upper, x = collatz_wielandt(A * weights, start)
    spread = c - float(exponents.min())
    weight_err = UNIT_ROUNDOFF * (4 * float(np.max(np.abs(exponents))) + spread + 16)
    p_lower, p_upper = _log_bounds(lower * (1 - weight_err), upper * (1 + weight_err))
    return math.nextafter(c + p_lower, -math.inf), math.nextafter(c + p_upper, math.inf), x


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


# -- continued-fraction transfer operator ------------------------------------

# Chebyshev nodes per state of the collocation. The eigenfunctions of L_t
# are analytic on [0, 1] up to the branch point at x = -1, so the
# collocation error falls like (3 + sqrt 8)^-M: about 1e-15 at M = 20,
# below the rounding slack of the certificate for t in [0, 2].
COLLOCATION_NODES = 20
# The certificate splits [0, 1] into equal panels and bounds the residual on
# each through its interpolant at PANEL_POINTS first-kind Chebyshev points
# (at least COLLOCATION_NODES), with the remainder estimated on the
# Bernstein ellipse of parameter PANEL_ELLIPSE around the panel.
CERTIFICATE_PANELS = 8
PANEL_POINTS = 24
PANEL_ELLIPSE = 8.0
# Most inverse-iteration steps one `CfCollocation._eigenpair` call takes.
EIGEN_STEPS = 100


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


def _log_bounds(low, high):
    """Outward-rounded [ln low, ln high]; ln of a nonpositive low is -inf."""
    slack = 4 * UNIT_ROUNDOFF
    lower = -math.inf if not low > 0.0 else math.log(low) - slack * (1 + abs(math.log(low)))
    upper = math.log(high) + slack * (1 + abs(math.log(high)))
    return lower, upper


class CfCollocation:
    """Chebyshev collocation of the transfer operator of one strongly
    connected finite continued-fraction system.

    The operator acts on one function per letter c on [0, 1]:

        (L_t f)_c(x) = sum over a with a -> c allowed of (a + x)^(-2t) f_a(1/(a + x)),

    and rho(L_t) = exp P(t). The image depends on c only through its
    predecessor set, so the unknowns are one function per distinct
    predecessor set (a state), stored by its values at the
    COLLOCATION_NODES first-kind Chebyshev nodes x_i; the full rule has a
    single state. With l_j the Lagrange basis of the nodes and s(a) the
    state of letter a, the collocation matrix is

        L(t) = Q (K o exp(t Lam)),   K[(a, i), (s(a), j)] = l_j(1/(a + x_i)),
                                     Lam[(a, i), .] = -2 ln(a + x_i),

    where Q adds up the rows of the letters in each predecessor set. With
    Q = I this is the similarity matrix B(t) = A o exp(t log r), and
    L'(t) = Q (K o Lam o exp(t Lam)) gives Ruelle's derivative.
    """

    def __init__(self, system: GdmsSystem):
        ids = system.edge_ids
        succ = system.successor_map
        preds = [frozenset(a for a in ids if c in succ[a]) for c in ids]
        states = list(dict.fromkeys(preds))
        size = len(states) * COLLOCATION_NODES
        guard = g.count_guard()
        if size * size > guard:
            raise ResourceGuardError(
                f"collocation matrix of size {size} exceeds count guard of {guard}")
        index = {p: k for k, p in enumerate(states)}
        self.letters = np.array(ids, dtype=float)
        self.state_of = np.array([index[p] for p in preds])
        # members[s, a] = 1 when letter a is in predecessor set s: this is Q
        self.members = np.array([[a in p for a in ids] for p in states], dtype=float)
        self.to_coef = _values_to_coefficients(COLLOCATION_NODES)
        shifted = self.letters[:, None] + _chebyshev_nodes(COLLOCATION_NODES)
        self.log_weights = -2.0 * np.log(shifted)
        self.kernel = _chebyshev_vander(2.0 / shifted - 1.0, COLLOCATION_NODES) @ self.to_coef
        # The letters a in predecessor set s, grouped by the block (s, s(a))
        # of L they add to: feeding[starts[k]:starts[k + 1]] for block k,
        # which sits at (block_rows[k], block_cols[k]).
        rows, feeding = np.nonzero(self.members)
        keys = rows * len(states) + self.state_of[feeding]
        order = np.argsort(keys, kind="stable")
        self.feeding, keys = feeding[order], keys[order]
        self.starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        self.block_rows, self.block_cols = np.divmod(keys[self.starts], len(states))
        # right vector of the last eigenpair and the `_state_sizes` at its t,
        # from which the next eigenpair starts
        self.right = self.sizes = None

    @property
    def size(self) -> int:
        return len(self.members) * COLLOCATION_NODES

    def _blocks(self, per_letter):
        """Sum per_letter[a] (one array per letter) into the block (s, s(a))
        for every predecessor set s holding a: shape (states, states, ...)."""
        states = len(self.members)
        out = np.zeros((states, states) + per_letter.shape[1:])
        out[self.block_rows, self.block_cols] = np.add.reduceat(
            per_letter[self.feeding], self.starts, axis=0)
        return out

    def matrix(self, t, derivative=False):
        """L(t), and with `derivative` also L'(t)."""
        def assemble(scaled):
            return self._blocks(scaled).transpose(0, 2, 1, 3).reshape(self.size, self.size)
        scaled = self.kernel * np.exp(t * self.log_weights)[:, :, None]
        L = assemble(scaled)
        if not derivative:
            return L
        return L, assemble(scaled * self.log_weights[:, :, None])

    def _state_sizes(self, t, start=None):
        """x > 0, one entry per state: the Perron vector of the state matrix
        that sums (a + 1/2)^(-2t) over the letters a of each block, from
        `collatz_wielandt` started at `start`.

        It models the sizes of the state functions by the letter weights at
        the middle of [0, 1]; at t = 0, where the constants are
        eigenfunctions, it is exact. The weights a^(-2t) at x = 0 would
        bound rho(L_t) instead, but their eigenvalue sits above rho(L_t) by
        a factor that the ratio of neighbouring states along a band
        compounds. Measured on banded N = 40 from t = 0.24 to 0.54, the
        entries of a start built from them err by factors spanning e^8.5,
        and of one built from these by e^1.6.
        """
        S = self._blocks(np.exp(-2.0 * t * np.log(self.letters + 0.5)))
        return collatz_wielandt(S, start)[2]

    @staticmethod
    def _eigenpair(L, tolerance=1e-9, start=None):
        """(lam, v, w): the eigenvalue of largest real part, its right vector
        scaled to max 1 and its left vector scaled to w.v = 1.

        Shifted inverse iteration (Noda, Numer. Math. 17, 1971) from
        `start`, a positive vector such as the v of a nearby t, or from
        ones; no eigenvalue solver runs. Each step solves
        (s I - D^-1 L D) x = sign(v) with D = diag |v| for the current
        vector v, and moves v to D x. The scaling keeps the relative digits
        of every entry: the state functions of a banded rule differ in size
        by many orders. The shift s is
        - for a positive v, the largest ratio (L v)_i / v_i (Noda's shift).
          (L v)_i is L_t g at node i for the interpolant g of v, so this is
          the Collatz-Wielandt upper bound sup (L_t g) / g >= rho(L_t)
          sampled at the nodes. Unlike a Rayleigh quotient, which averages
          the ratios, it does not fall below lam beyond that sampling, so
          lam stays the eigenvalue nearest s: |s - mu| > s - lam for every
          other eigenvalue mu once s >= lam >= Re mu. The ratios then close
          in on lam quadratically.
        - for a v with an entry of the wrong sign, as after a step pulled
          towards another eigenvector, ||D^-1 L D||_inf, which is proved to
          be at least |mu| for every eigenvalue mu, so that again no other
          eigenvalue lies nearer s than lam.
        The iteration stops when a step from a positive v moves no entry by
        more than FIXED_POINT relative; lam is the two-sided Rayleigh
        quotient of that step's right and left solutions.

        Raises ConvergenceError when EIGEN_STEPS steps do not converge (as
        for a complex leading pair) or the vector leaves the double range;
        and unless lam is positive, v is positive at every node with
        max|Lv - lam v| <= tolerance * lam, and the rescaled right and left
        vectors, each of max modulus 1, have a dot product above tolerance
        (a defective eigenvalue drives it to 0). The left vector of a
        collocation matrix need not be positive and is not checked.
        """
        n = len(L)
        v = np.ones(n) if start is None else start / np.max(start)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                for _ in range(EIGEN_STEPS):
                    scale, sign = np.abs(v), np.sign(v)
                    M = L * scale
                    M /= scale[:, None]
                    shift = M.sum(axis=1).max()
                    noda = sign.min() > 0.0 and shift > 0.0
                    if not noda:
                        shift = np.abs(M).sum(axis=1).max()
                    shifted = -M
                    shifted.flat[::n + 1] += shift * (1.0 + PERRON_SHIFT)
                    x = np.linalg.solve(shifted, sign)
                    x = x / x[np.argmax(np.abs(x))]
                    v = scale * x
                    if noda and np.ptp(x) <= FIXED_POINT:
                        break
                else:
                    raise ConvergenceError(
                        f"collocation eigenvector did not converge in {EIGEN_STEPS} steps")
                y = np.linalg.solve(shifted.T, np.ones(n))
                y = y / y[np.argmax(np.abs(y))]
                lam = float(y @ M @ x) / float(y @ x)
        except (FloatingPointError, np.linalg.LinAlgError) as exc:
            raise ConvergenceError(f"collocation eigenvector iteration failed: {exc}") from exc
        if not lam > 0.0:
            raise ConvergenceError(f"collocation matrix has no positive leading eigenvalue ({lam})")
        v = v / v[np.argmax(np.abs(v))]
        residual = float(np.max(np.abs(L @ v - lam * v)))
        if not (v.min() > 0.0 and residual <= tolerance * lam):
            raise ConvergenceError(
                f"collocation right vector failed: min entry {v.min():.3g}, "
                f"residual {residual:.3g} against lam = {lam:.17g}")
        overlap = float(x @ y)
        if not abs(overlap) > tolerance:
            raise ConvergenceError(f"collocation eigenvalue is not simple: x.y = {overlap:.3g}")
        w = y / scale
        return lam, v, w / (w @ v)

    def _leading_pair(self, t, L):
        """`_eigenpair` of L = L(t). The first call starts from
        `_state_sizes(t)` on every node, the next from the previous right
        vector times the change of the state sizes since its t."""
        sizes = self._state_sizes(t, self.sizes)
        if self.right is None:
            start = np.repeat(sizes, COLLOCATION_NODES)
        else:
            start = self.right * np.repeat(sizes / self.sizes, COLLOCATION_NODES)
        lam, v, w = self._eigenpair(L, start=start)
        self.right, self.sizes = v, sizes
        return lam, v, w

    def pressure_slope(self, t):
        """(ln lam, lam'/lam) of the collocation matrix: P(t) and P'(t) up to
        the collocation error, without a certificate."""
        L, dL = self.matrix(t, derivative=True)
        lam, v, w = self._leading_pair(t, L)
        return math.log(lam), float(w @ dL @ v) / lam

    def certified_pressure(self, t):
        """[P_lower, P_upper] holding P(t) = ln rho(L_t), proved on all of
        [0, 1]. Raises ConvergenceError when the residual bound s is not
        below lam, where the lower bound would be lost."""
        lam, v, _ = self._leading_pair(t, self.matrix(t))
        s = self._residual_bound(t, lam, v)
        if not lam - s > 0.0:
            raise ConvergenceError(
                f"collocation residual bound {s:.3g} at t = {t!r} is not below lam = {lam:.3g}")
        return _log_bounds(lam - s, lam + s)

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

        Raises ConvergenceError when g cannot be shown positive.
        """
        u, m, n, rho = UNIT_ROUNDOFF, COLLOCATION_NODES, PANEL_POINTS, PANEL_ELLIPSE
        states = len(self.members)
        coef = v.reshape(states, m) @ self.to_coef.T
        size0 = np.abs(coef).sum(axis=1)                      # >= sup |g|
        size1 = 2.0 * np.abs(coef) @ np.arange(m) ** 2.0      # >= sup |g'|
        eval_err = u * (5.0 * size1 + 2.0 * m * size0)
        own = self.state_of

        half = 0.5 / CERTIFICATE_PANELS
        centers = (2 * np.arange(CERTIFICATE_PANELS) + 1) * half
        y = np.concatenate([_chebyshev_nodes(n, c - half, c + half) for c in centers])
        a = self.letters[:, None]
        weights = (a + y) ** (-2.0 * t)
        g_image_y = np.einsum("apk,ak->ap", _chebyshev_vander(2.0 / (a + y) - 1.0, m), coef[own])
        terms = weights * g_image_y
        g_y = (_chebyshev_vander(2.0 * y - 1.0, m) @ coef.T).T
        r = self.members @ terms - lam * g_y
        # rounding of the weights, products and sums; of g; and of the
        # points, which lie within 3u of the exact ones, times sup |r'|
        arithmetic = (len(a) + 8 + 2 * t) * u * (self.members @ np.abs(terms)
                                                 + lam * np.abs(g_y))
        evaluation = self.members @ (weights * eval_err[own][:, None]) + (lam * eval_err)[:, None]
        letters = self.letters
        drift = (self.members @ (2 * t * letters ** (-2 * t - 1) * size0[own]
                                 + letters ** (-2 * t - 2) * size1[own])
                 + lam * size1)
        slack = arithmetic + evaluation + 3 * u * drift[:, None] + u * np.abs(r)
        worst = (np.abs(r) + slack).reshape(states, CERTIFICATE_PANELS, n).max(axis=2)

        reach = half * (rho + 1 / rho) / 2          # disk around each ellipse
        near = a + centers - reach                  # <= |a + z| on the disk
        if not near.min() > 0.0:
            raise ConvergenceError("certificate ellipse reaches a branch point")
        mid = a + centers
        spread = mid * mid - reach * reach
        r_image = _ellipse_parameter(2 * mid / spread - 1, 2 * reach / spread)
        r_self = _ellipse_parameter(2 * centers - 1, 2 * reach)
        powers = np.arange(m)
        g_image = (np.abs(coef[own])[:, None, :] * r_image[:, :, None] ** powers).sum(axis=2)
        g_self = (np.abs(coef)[:, None, :] * r_self[None, :, None] ** powers).sum(axis=2)
        disk_max = self.members @ (near ** (-2 * t) * g_image) + lam * g_self
        lebesgue = 2 / np.pi * math.log(n) + 1
        sup_r = lebesgue * worst + 4 * disk_max * rho ** (1 - n) / (rho - 1)

        # g has degree m - 1 < n, so on each panel it is its own interpolant
        # at the panel's points, which bounds |g'| there
        values = g_y.reshape(states, CERTIFICATE_PANELS, n)
        value_err = (eval_err + 3 * u * size1)[:, None]
        panel_coef_err = 2 * value_err + 2 * n * u * np.abs(values).max(axis=2)
        squares = np.arange(n) ** 2.0
        slope = (np.abs(values @ _values_to_coefficients(n).T) @ squares
                 + panel_coef_err * squares.sum()) / half
        floor = values.min(axis=2) - value_err - slope * half * np.pi / (2 * n)
        if not floor.min() > 0.0:
            raise ConvergenceError(
                "collocation eigenfunction is not certified positive on [0, 1]")
        bound = float(np.max(sup_r / floor)) * (1 + 1e-9)
        if not math.isfinite(bound):
            raise ConvergenceError("collocation residual bound is not finite")
        return bound


def cf_collocations(system: GdmsSystem):
    """One CfCollocation per cyclic component of a finite continued-fraction
    system, in the order of `system.components`."""
    return [CfCollocation(system.restrict(comp)) for comp in system.components]


# -- operations --------------------------------------------------------------

def partition_sum(system: GdmsSystem, n: int, t: float,
                  method: str = "auto", guard: int | None = None) -> PartitionSum:
    """Z_n(t) = sum over admissible length-n words of ||phi_word'||^t."""
    return partition_sums(system, [n], t, method, guard)[0]


def partition_sums(system: GdmsSystem, ns, t: float,
                   method: str = "auto", guard: int | None = None) -> list:
    """[partition_sum(system, n, t, method, guard) for n in ns], sharing the
    work across n.

    Similarity transfer sums come from one run of matrix-vector products up
    to max(ns). A continued-fraction system enumerates its levels once in a
    single CfPartitionCache up to CF_EXACT_LENGTH_CAP, and after the count
    guard trips at some n every n at or above it takes the product bracket
    (method "auto") or raises (method "enumeration").
    """
    ns = [int(n) for n in ns]
    if any(n < 1 for n in ns):
        raise InputError("n must be >= 1")
    if t < 0:
        raise InputError("t must be >= 0")
    if not ns:
        return []
    if system.infinite:
        report = finiteness_parameters(system, ns)
        if any(t > report.theta_n[n] for n in ns):
            raise UnsupportedAnalysisError(
                "infinite-alphabet partition sums are only classified as finite or "
                "divergent; truncate the system for numeric values")
        return [PartitionSum(n, t, math.inf, math.inf, RULE_ANALYTIC, divergent=True)
                for n in ns]

    if system.family.kind == "similarity":
        if method in ("auto", TRANSFER_MATRIX):
            sums = _transfer_partition_sums(system, t, max(ns))
            if not all(math.isfinite(sums[n - 1]) for n in ns):
                raise ResourceGuardError(f"Z_n({t}) exceeded the overflow budget")
            return [PartitionSum(n, t, sums[n - 1], sums[n - 1], TRANSFER_MATRIX) for n in ns]
        if method == ENUMERATION:
            logs = system.one_step_log_norms()
            out = []
            for n in ns:
                total = math.fsum(
                    math.exp(t * sum(logs[e] for e in w))
                    for w in g.enumerate_words(system, n, limit=guard))
                out.append(PartitionSum(n, t, total, total, ENUMERATION))
            return out
        raise InputError(f"unknown method {method!r}")

    # continued-fraction family
    enumerate_up_to = CF_EXACT_LENGTH_CAP if method in ("auto", ENUMERATION) else 0
    cache = CfPartitionCache(system, guard=guard)
    out = []
    for n in ns:
        if n <= enumerate_up_to:
            try:
                z = cache.partition_sum(n, t)
                out.append(PartitionSum(n, t, z, z, ENUMERATION))
                continue
            except ResourceGuardError:
                if method == ENUMERATION:
                    raise
                enumerate_up_to = n - 1
        lo, hi = _cf_product_bracket(system, n, t)
        out.append(PartitionSum(n, t, lo, hi, TRANSFER_MATRIX))
    return out


def pressure(system: GdmsSystem, t: float, n_max: int = 14) -> PressureEstimate:
    """Rigorous bracket for P(t) = lim (1/n) ln Z_n(t).

    Similarity systems: P = ln rho(B(t)) is the max of ln rho(B_k(t)) over
    the diagonal blocks of `system.components`. In a topological order of
    the components B(t) is block triangular, and the remaining diagonal
    blocks are nilpotent, so the two agree; a dense eigenvalue solve of the
    whole matrix would instead carry an error near sqrt(eps) when two linked
    components have equal radius. Each block contributes the proved
    Collatz-Wielandt bracket of `block_pressure`, about 1e-14 wide.
    Continued-fraction truncations: the max over `system.components` of the
    certified bounds on ln rho(L_t) from `CfCollocation.certified_pressure`.
    A system with no cyclic component has P = -inf. `n_max` is accepted for
    compatibility and affects neither family.
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
        bounds = [block_pressure(A, logs, t)[:2] for A, logs in system.component_blocks()]
        method = TRANSFER_MATRIX
    else:
        bounds = [engine.certified_pressure(t) for engine in cf_collocations(system)]
        method = CHEBYSHEV_COLLOCATION
    lower = max((lo for lo, _ in bounds), default=-math.inf)
    upper = max((hi for _, hi in bounds), default=-math.inf)
    return PressureEstimate(t, lower, upper, 0, method)


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
    if not system.irreducible:
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

