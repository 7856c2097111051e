"""Contraction families on real intervals.

Two families are supported: orientation-aware affine similarities, and the
continued-fraction Moebius maps x -> 1/(e + x) on [0, 1] with positive
integer labels. Continued-fraction compositions are evaluated through the
integer continuant recurrence q_k = a_k*q_{k-1} + q_{k-2}, exact at every
word length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import thermo
from .errors import DomainError, InputError
from .graph import as_integer

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
class DerivativeNorm:
    """sup-norm of a composed derivative, carried as a natural log."""

    word: tuple
    log_value: float

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


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

    def contraction_bound(self, system):
        """(largest ratio, 1): similarities contract at every step."""
        return max(f.ratio for f in self.maps.values()), 1

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

    def apply(self, word, x: float) -> float:
        """phi_word(x) = a*x + b, the coefficients (a, b) composed from the
        last letter to the first."""
        a, b = 1.0, 0.0
        for e in reversed(word):
            m = self.map_for(e)
            a, b = m.sign * m.ratio * a, m.sign * m.ratio * b + m.offset
        return a * x + b

    def interval_images(self, letters, words, lo, hi):
        """Images [min, max] of phi_w([lo_k, hi_k]) for the words w whose
        letters are letters[words[k, j]] (words an integer array, one word
        of equal length per row): two float arrays. The coefficients are
        composed from the last letter to the first, as in `apply`."""
        maps = [self.map_for(e) for e in letters]
        scale = np.array([m.sign * m.ratio for m in maps])
        offset = np.array([m.offset for m in maps])
        words = np.asarray(words)
        a, b = np.ones(len(words)), np.zeros(len(words))
        for column in words.T[::-1]:
            s = scale[column]
            a, b = s * a, s * b + offset[column]
        u, v = a * np.asarray(lo) + b, a * np.asarray(hi) + b
        ordered = u <= v
        return np.where(ordered, u, v), np.where(ordered, v, u)


def cf_continuants(word):
    """Exact continuants (p_n, p_{n-1}, q_n, q_{n-1}) for the composed map.

    phi_word(x) = (p_n + p_{n-1} * x) / (q_n + q_{n-1} * x).
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in word:
        if not isinstance(a, int) or a < 1:
            raise InputError(f"continued-fraction labels are positive integers, got {a!r}")
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

    def contraction_bound(self, system):
        """(s_eff, 2): the norm is 1 at label 1, but every two-letter word ab
        has norm 1/(ab + 1)^2 <= 1/4, so decay is certified per pair of steps."""
        if system.infinite:  # the least pair is (1, 1) if the rule allows it, else (1, 2)
            b = 1 if system.incidence.allows_labels(1, 1) else 2
            return 1.0 / (b + 1) ** 2, 2
        ids = system.edge_ids
        # 1/(ab + 1)^2 is largest at the least product ab
        products = [ids[a] * ids[b] for a, row in enumerate(system.successors) for b in row]
        return (1.0 / (min(products) + 1) ** 2 if products else 0.25), 2

    def level_sums(self, system, ns, t):
        """`thermo._cf_level_sums`: exact Z_n(t) for the n the count guard allows."""
        return thermo._cf_level_sums(system, ns, t)

    def spec_lines(self, system):
        """The `family` line of `system`; its [0, 1] space is implicit."""
        size = "" if system.infinite else f" truncate {len(system.graph.edges)}"
        return [f"family cf{size}"]

    def apply(self, word, x: float) -> float:
        p, p_prev, q, q_prev = cf_continuants(word)
        return (p + p_prev * x) / (q + q_prev * x)

    def interval_images(self, letters, words, lo, hi):
        """As `SimilarityFamily.interval_images`, each word through its
        exact continuants."""
        images = []
        for row, x, y in zip(np.asarray(words).tolist(), lo, hi):
            word = [letters[k] for k in row]
            u, v = self.apply(word, x), self.apply(word, y)
            images.append((u, v) if u <= v else (v, u))
        return np.array([u for u, _ in images]), np.array([v for _, v in images])


def evaluate(family, word, x, space: VertexSpace | None = None) -> float:
    """Evaluate the composed contraction phi_word at x.

    `space` is the vertex space of the terminal vertex; when given, x must
    lie inside it.
    """
    if not word:
        raise InputError("word must have length >= 1")
    if space is not None and not space.contains(x):
        raise DomainError(f"point {x} outside vertex space [{space.lo}, {space.hi}]")
    return family.apply(tuple(word), x)


def derivative_norm(family, word) -> DerivativeNorm:
    """sup over the domain of |phi_word'|, exact: the family's `log_norm`
    of a nonempty word."""
    word = tuple(word)
    if not word:
        raise InputError("word must have length >= 1")
    return DerivativeNorm(word, family.log_norm(word))
