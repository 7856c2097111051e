"""Reference values and checks that do not call gdmskit.

Sources:
- Moran (1946): a full shift of similarities with ratios r_e has dimension
  the root t of sum_e r_e^t = 1.
- Jenkinson and Pollicott, Ergodic Theory Dynam. Systems 21 (2001):
  dim E_2 = 0.53128050627720514, E_2 the reals whose continued-fraction
  digits all lie in {1, 2}.
- Mauldin and Urbanski, Graph Directed Markov Systems (2003): the pressure
  at t = 0 of a finite system is the entropy ln rho(A) of its 0/1 incidence
  matrix A; the dimension of a similarity system is the zero of
  t -> ln rho(B(t)), B(t)_ab = A_ab r_b^t; the finiteness parameters of the
  infinite continued-fraction rules have closed forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

E2 = 0.53128050627720514


def _bisect_root(fn, lo, hi, tolerance=1e-14):
    """Root of a decreasing function with fn(lo) >= 0 >= fn(hi)."""
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if fn(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moran_root(ratios) -> float:
    return _bisect_root(lambda t: math.fsum(r ** t for r in ratios) - 1.0, 0.0, 1.0)


def log_spectral_radius(matrix) -> float:
    """ln rho of a nonnegative matrix; -inf for a nilpotent one."""
    if matrix.size == 0:
        return -math.inf
    rho = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    return math.log(rho) if rho > 1e-12 else -math.inf


def cf_incidence(rule: str, width: int, size: int):
    """0/1 incidence matrix of a continued-fraction truncation {1..size}."""
    labels = np.arange(1, size + 1)
    a, b = labels[:, None], labels[None, :]
    if rule == "full":
        allowed = np.ones((size, size), dtype=bool)
    elif rule == "banded":
        allowed = np.abs(a - b) <= width
    elif rule == "upper":
        allowed = a < b
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return allowed.astype(float)


def cf_full_pressure_interval(size: int, t: float):
    """Interval that holds P(t) of the full truncation {1..size}.

    The derivative norm of a word is q_n^-2 with a_n q_{n-1} <= q_n <=
    (a_n + 1) q_{n-1}, so Z_n(t) lies between (sum_e (e+1)^-2t)^n and
    (sum_e e^-2t)^n.
    """
    labels = range(1, size + 1)
    return (math.log(math.fsum((e + 1) ** (-2 * t) for e in labels)),
            math.log(math.fsum(e ** (-2 * t) for e in labels)))


def cf_theta(rule: str, n_list):
    """Closed-form (theta, {n: theta_n}) of the infinite continued-fraction rules.

    full: sum_e e^-2t converges iff t > 1/2, at every word length.
    banded: a length-n word stays within the band, so the label-k block
    behaves like k^-2tn and converges iff t > 1/(2n); theta = inf = 0.
    upper: the n-fold sum over increasing labels converges iff t > 1/2.
    """
    if rule == "banded":
        return Fraction(0), {n: Fraction(1, 2 * n) for n in n_list}
    half = Fraction(1, 2)
    return half, {n: half for n in n_list}


class SimilarityOracle:
    """ln rho(B(t)) from the benchmark's own incidence and ratios."""

    def __init__(self, ids, ratios, allowed, blocks):
        pos = {e: k for k, e in enumerate(ids)}
        n = len(ids)
        self.adjacency = np.zeros((n, n))
        for a, b in allowed:
            self.adjacency[pos[a], pos[b]] = 1.0
        self.log_ratios = np.log(np.asarray(ratios, dtype=float))
        self.block_index = [np.array([pos[e] for e in block]) for block in blocks]
        self._block_roots = None

    def matrix(self, t, index=None):
        B = self.adjacency * np.exp(t * self.log_ratios)[None, :]
        return B if index is None else B[np.ix_(index, index)]

    def log_rho(self, t) -> float:
        return log_spectral_radius(self.matrix(t))

    @property
    def block_roots(self):
        """Dimension of each block on its own; the system's dimension is
        their maximum, because B(t) is block triangular."""
        if self._block_roots is None:
            self._block_roots = tuple(
                _bisect_root(lambda t, ix=ix: log_spectral_radius(self.matrix(t, ix)),
                             0.0, 1.0, 1e-13)
                for ix in self.block_index)
        return self._block_roots

    @property
    def dimension(self) -> float:
        return max(self.block_roots)
