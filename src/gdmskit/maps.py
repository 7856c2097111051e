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

from .errors import DomainError, InputError

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
    """x -> sign * ratio * x + offset with ratio in (0, 1)."""

    ratio: float
    offset: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise InputError("sign must be 1 or -1")
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

    kind = "similarity"

    def map_for(self, edge_id) -> SimilarityMap:
        try:
            return self.maps[edge_id]
        except KeyError:
            raise InputError(f"unknown edge id {edge_id!r}") from None

    def one_step_log_norm(self, edge_id) -> float:
        return math.log(self.map_for(edge_id).ratio)

    def affine(self, word):
        """Coefficients (a, b) of the composed map phi_word(x) = a*x + b."""
        a, b = 1.0, 0.0
        for e in reversed(word):
            m = self.map_for(e)
            a, b = m.sign * m.ratio * a, m.sign * m.ratio * b + m.offset
        return a, b

    def apply(self, word, x: float) -> float:
        a, b = self.affine(word)
        return a * x + b

    def interval_images(self, letters, words, lo, hi):
        """Images [min, max] of phi_w([lo_k, hi_k]) for the words w whose
        letters are letters[words[k, j]] (words an integer array, one word
        of equal length per row): two float arrays. The coefficients are
        composed from the last letter to the first, as in `affine`."""
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


def _check_cf_label(edge_id):
    if not isinstance(edge_id, int) or edge_id < 1:
        raise InputError(f"continued-fraction labels are positive integers, got {edge_id!r}")


def cf_continuants(word):
    """Exact continuants (p_n, p_{n-1}, q_n, q_{n-1}) for the composed map.

    phi_word(x) = (p_n + p_{n-1} * x) / (q_n + q_{n-1} * x).
    """
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    for a in word:
        _check_cf_label(a)
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, p_prev, q, q_prev


@dataclass(frozen=True)
class MoebiusCfFamily:
    """The continued-fraction maps phi_e(x) = 1/(e + x) on [0, 1]."""

    kind = "cf"

    def one_step_log_norm(self, edge_id) -> float:
        _check_cf_label(edge_id)
        return -2.0 * math.log(edge_id)

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
    """sup over the domain of |phi_word'|.

    Exact for similarities (constant derivative) and for continued-fraction
    words of any length: sup = 1/q_n^2 at x = 0, from the integer
    continuant q_n.
    """
    word = tuple(word)
    if not word:
        raise InputError("word must have length >= 1")
    if family.kind == "similarity":
        return DerivativeNorm(word, sum(family.one_step_log_norm(e) for e in word))
    _, _, q, _ = cf_continuants(word)
    return DerivativeNorm(word, -2.0 * math.log(q))


def distortion_constant(family) -> float:
    """Uniform bound K on sup|phi_word'| / inf|phi_word'| over all words.

    Similarities have constant derivatives (K = 1). For continued-fraction
    words the ratio is ((q_n + q_{n-1}) / q_n)^2 <= 4 since q_{n-1} <= q_n.
    """
    return 1.0 if family.kind == "similarity" else 4.0
