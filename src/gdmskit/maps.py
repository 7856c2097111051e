"""Contraction families on real intervals.

Two families are supported: orientation-aware affine similarities, and the
continued-fraction Moebius maps x -> 1/(e + x) on [0, 1] with positive
integer labels. Every map of both is linear-fractional,
phi(x) = (alpha*x + beta) / (gamma*x + delta): a family states the four
coefficients of each letter (`coefficients`), and `word_images` composes
them for every word at once. Continuants are exact only in the
continued-fraction `log_norm`, which walks the integer recurrence
q_k = a_k*q_{k-1} + q_{k-2} (`cf_continuants`) at every word length.
Images are float compositions: bit-equal to the exact-continuant formula
while the continuants stay below 2^53, and within a few ulp beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import thermo
from .errors import InputError
from .graph import as_integer, positive_labels

RESCALE_ABOVE = 2.0 ** 512  # see `word_images`
CF_REFUSAL = "continued-fraction labels are positive integers, got "

@dataclass(frozen=True)
class VertexSpace:
    """A closed interval [lo, hi] attached to one vertex."""

    vertex: object
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InputError("space needs lo < hi")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InputError(f"space for vertex {self.vertex!r} needs finite ends")

    @property
    def diameter(self) -> float:
        return self.hi - self.lo

    def contains(self, x, slack=1e-12) -> bool:
        return self.lo - slack <= x <= self.hi + slack


@dataclass(frozen=True)
class SimilarityMap:
    """x -> sign * ratio * x + offset, ratio in (0, 1), sign the int 1 or -1."""

    ratio: float
    offset: float
    sign: int = 1

    def __post_init__(self):
        sign = as_integer(self.sign, "sign")
        if sign not in (-1, 1):
            raise InputError("sign must be 1 or -1")
        object.__setattr__(self, "sign", sign)
        if not 0.0 < self.ratio < 1.0:
            raise InputError("ratio must lie strictly between 0 and 1")

    def __call__(self, x: float) -> float:
        return self.sign * self.ratio * x + self.offset


@dataclass(frozen=True)
class SimilarityFamily:
    """A finite family of affine similarities keyed by edge id."""

    maps: dict = field(default_factory=dict)

    # derivatives are constant, so sup|phi_w'| = inf|phi_w'| for every word
    distortion = 1.0
    engine_type = thermo.PerronBlock  # the pressure engine of each component

    def map_for(self, edge_id) -> SimilarityMap:
        try:
            return self.maps[edge_id]
        except KeyError:
            raise InputError(f"unknown edge id {edge_id!r}") from None

    def log_norm(self, word) -> float:
        """ln sup|phi_word'|, exact: the sum of ln ratio over the letters."""
        return sum(math.log(self.map_for(e).ratio) for e in word)

    def log_norms(self, letters):
        """`log_norm((e,))` of each letter e, bit for bit: ln of its ratio."""
        return np.array([math.log(self.map_for(e).ratio) for e in letters])

    def contraction_bound(self, system):
        """(largest |alpha| in `system.coefficients`, the ratio, 1): each step contracts."""
        return float(np.abs(system.coefficients[0]).max(initial=0.0)), 1

    def level_sums(self, system, ns, t):
        """{}: no word is enumerated, the transfer-matrix sums being exact."""
        return {}

    def spec_lines(self, system):
        """The `space` and `edge` lines of `system` in a spec file."""
        lines = []
        for vertex in sorted(system.spaces):
            s = system.spaces[vertex]
            lines.append(f"space {vertex} {s.lo:.17g} {s.hi:.17g}")
        for e in system.graph.edges:
            sm = self.map_for(e.id)
            lines.append(f"edge {e.id} {e.src} {e.dst} similarity "
                         f"{sm.ratio:.17g} {sm.offset:.17g} {sm.sign}")
        return lines

    def coefficients(self, letters):
        """(alpha, beta, gamma, delta) of each letter's map
        x -> (sign*ratio*x + offset) / (0*x + 1): four float arrays."""
        maps = [self.map_for(e) for e in letters]
        return (np.array([m.sign * m.ratio for m in maps]), np.array([m.offset for m in maps]),
                np.zeros(len(maps)), np.ones(len(maps)))


def cf_continuants(word):
    """Exact continuants (p_n, p_{n-1}, q_n, q_{n-1}) for the composed map.

    phi_word(x) = (p_n + p_{n-1} * x) / (q_n + q_{n-1} * x).
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in positive_labels(word, CF_REFUSAL):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, p_prev, q, q_prev


@dataclass(frozen=True)
class MoebiusCfFamily:
    """The continued-fraction maps phi_e(x) = 1/(e + x) on [0, 1]."""

    # sup|phi_w'| / inf|phi_w'| = ((q_n + q_{n-1}) / q_n)^2 <= 4, since q_{n-1} <= q_n
    distortion = 4.0
    engine_type = thermo.CfCollocation  # the pressure engine of each component

    def log_norm(self, word) -> float:
        """ln sup|phi_word'| = -2 ln q_n, attained at x = 0, from the exact
        integer continuant q_n: exact at every word length."""
        _, _, q, _ = cf_continuants(word)
        return -2.0 * math.log(q)

    def log_norms(self, letters):
        """`log_norm((a,))` of each letter a, bit for bit: -2 ln a, q_1 being a."""
        return -2.0 * np.array([math.log(a) for a in positive_labels(letters, CF_REFUSAL)])

    def contraction_bound(self, system):
        """(s_eff, 2): the norm is 1 at label 1, but every two-letter word ab
        has norm 1/(ab + 1)^2 <= 1/4, so decay is certified per pair of steps."""
        if system.infinite:  # the least pair is (1, 1) if the rule allows it, else (1, 2)
            b = 1 if system.incidence.allows_labels(1, 1) else 2
            return 1.0 / (b + 1) ** 2, 2
        ids = system.edge_ids
        # 1/(ab + 1)^2 is largest at the least product ab: the least label
        # of a state (the last one written) times the least in its successor set
        least = {s: a for a, s in sorted(zip(ids, system.lumping.state_of.tolist()), reverse=True)}
        products = [least[s] * min(map(ids.__getitem__, row))
                    for s, row in enumerate(system.state_lists) if row]
        return (1.0 / (min(products) + 1) ** 2 if products else 0.25), 2

    def level_sums(self, system, ns, t):
        """`thermo._cf_level_sums`: exact Z_n(t) for the n the count guard allows."""
        return thermo._cf_level_sums(system, ns, t)

    def spec_lines(self, system):
        """The `family` line of `system`; its [0, 1] space is implicit. The
        line states a truncation by its size N, so InputError unless the
        edges are the digits 1..N, N >= 1."""
        if system.infinite:
            return ["family cf"]
        ids = system.edge_ids
        if not ids or ids != tuple(range(1, len(ids) + 1)):
            raise InputError(f"a spec file states only the cf digits 1..N, not {list(ids)}")
        return [f"family cf truncate {len(ids)}"]

    def coefficients(self, letters):
        """(0, 1, 1, a) for each label a, the map x -> 1/(a + x): four float
        arrays. InputError unless each label is an integer >= 1."""
        a = np.array(positive_labels(letters, CF_REFUSAL), dtype=float)
        return np.zeros(len(a)), np.ones(len(a)), np.ones(len(a)), a


def word_images(coefficients, words, points):
    """phi_w(x) for each row w of `words` (an integer array, letter j of
    word k being letter words[k, j] of the `coefficients`, a family's
    `coefficients(letters)`) at the points in column k of `points`; the
    result has the shape of `points`. Each word's matrices
    [[alpha, beta], [gamma, delta]] are multiplied from the last letter to
    the first. A product with an entry above `RESCALE_ABOVE` is scaled by a
    power of two: exact, and phi_w is unchanged, so images stay finite at
    any depth."""
    alpha, beta, gamma, delta = coefficients
    words = np.asarray(words)
    k = len(words)
    a, b, c, d = np.ones(k), np.zeros(k), np.zeros(k), np.ones(k)
    for column in words.T[::-1]:
        al, be, ga, de = alpha[column], beta[column], gamma[column], delta[column]
        a, b, c, d = al * a + be * c, al * b + be * d, ga * a + de * c, ga * b + de * d
        big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        over = big > RESCALE_ABOVE
        if over.any():
            shift = np.where(over, -np.frexp(big)[1], 0)
            a, b, c, d = (np.ldexp(v, shift) for v in (a, b, c, d))
    x = np.asarray(points, dtype=float)
    return (a * x + b) / (c * x + d)
