"""Directed multigraph, incidence rules, admissible words and SCC structure.

The edge graph has an arrow a -> b whenever the incidence matrix allows b
to follow a. Every analysis reads it on the k states of `StateLumping`, its
edges grouped by successor set (README "The edge graph on states").
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import InputError, NotApplicableError, ResourceGuardError, SpecError

DEFAULT_COUNT_GUARD = 10_000_000
COUNT_GUARD_ENV = "GDMS_COUNT_GUARD"


def count_guard() -> int:
    raw = os.environ.get(COUNT_GUARD_ENV)
    if raw is None:
        return DEFAULT_COUNT_GUARD
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise InputError(f"{COUNT_GUARD_ENV} must be a positive integer, got {raw!r}") from None
    return value


@dataclass(frozen=True)
class Edge:
    id: object
    src: object
    dst: object


@dataclass(frozen=True)
class MultiGraph:
    vertices: tuple
    edges: tuple  # tuple[Edge]

    def __post_init__(self):
        vset = set(self.vertices)
        seen = set()
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise InputError(f"edge {e.id!r} references unknown vertex")
            if e.id in seen:
                raise InputError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)


FULL = "full"
BANDED = "banded"
UPPER = "upper"
EXPLICIT = "explicit"


@dataclass(frozen=True)
class NamedRule:
    """All that a named incidence rule over the labels 1, 2, 3, ... means:
    which label may follow which, and the closed forms of the infinite
    alphabet, each with its reason. Every analysis of a rule reads it here."""

    directive: str      # the spec file's incidence line, "{}" standing for the width
    allows: object      # (a, b, width) -> may b follow a; elementwise on label arrays
    integer_ids: bool   # whether `allows` compares edge ids as integers
    verdicts: tuple     # (irreducible, primitive, finitely irreducible, reason)
    theta: Fraction     # the limit of theta_n(n), past which Z_n(t) is a finite sum
    theta_n: object
    theta_reason: str
    gap: str | None = None  # why sup HD(J_F) over finite F stays below theta


RULES = {
    FULL: NamedRule(
        "full", lambda a, b, width: True, False,
        (True, True, True, "every entry is 1, so any edge follows any edge"),
        Fraction(1, 2), lambda n: Fraction(1, 2),
        "sum over labels e of e^(-2t) converges exactly when t > 1/2, at every word length"),
    BANDED: NamedRule(
        "banded {}", lambda a, b, width: abs(a - b) <= width, True,
        (True, False, False, "labels walk the band one step at a time, so any two labels "
         "are joined, but no finite word set connects arbitrarily distant labels"),
        Fraction(0), lambda n: Fraction(1, 2 * n),
        "length-n words stay within the band, so the label-k block contributes "
        "about k^(-2tn); convergence needs t > 1/(2n)"),
    UPPER: NamedRule(
        "upper", lambda a, b, width: a < b, True,
        (False, False, False, "labels must strictly increase, so no label is ever revisited"),
        Fraction(1, 2), lambda n: Fraction(1, 2),
        "labels strictly increase; the n-fold sum behaves like the n-th power "
        "of sum e^(-2t), so every level needs t > 1/2",
        "every finite truncation has an empty limit set"),
}


@dataclass(frozen=True)
class IncidenceSpec:
    """One of the named rules of `RULES` over integer edge ids, or
    `explicit`: a boolean matrix given by allow pairs and kept only as the
    system's `lumping` (see `incidence_lumping`). Only `banded` reads
    its width, an int >= 1 (`as_integer`); every other kind stores 0."""

    kind: str
    width: int = 0

    def __post_init__(self):
        if self.kind not in RULES and self.kind != EXPLICIT:
            raise InputError(f"unknown incidence kind {self.kind!r}")
        width = as_integer(self.width, "band width") if self.kind == BANDED else 0
        if self.kind == BANDED and width < 1:
            raise InputError("band width must be >= 1")
        object.__setattr__(self, "width", width)

    @property
    def rule(self) -> NamedRule:
        if self.kind == EXPLICIT:
            raise NotApplicableError("an explicit incidence has no rule, only allow pairs")
        return RULES[self.kind]

    def allows_labels(self, a, b):
        """`rule.allows` at this width: on raw labels, or elementwise on
        numeric label arrays."""
        return self.rule.allows(a, b, self.width)

    def check_ids(self, ids):
        """Raise InputError at the first of `ids` that is not an integer,
        when this is a named rule that compares integer labels."""
        for eid in ids if self.kind != EXPLICIT and self.rule.integer_ids else ():
            if not isinstance(eid, (int, np.integer)):
                raise InputError(INTEGER_IDS.format(self.kind, eid))


INTEGER_IDS = "incidence rule {!r} needs integer edge ids, got {!r}"


def allow_positions(labels, position):
    """(m, 2) integer array: the positions (`position`: edge id -> position)
    of the 2m edge ids `labels`, pairs laid out flat (a1, b1, a2, b2, ...),
    -1 for an unknown id."""
    return np.fromiter(map(position.get, labels, repeat(-1)),
                       dtype=int, count=len(labels)).reshape(-1, 2)


def incidence_lumping(incidence, edges, labels=None, lines=None):
    """The `StateLumping` of the successor sets of `edges`. b may follow a
    only when t(a) = i(b): under `full` a's successor set is the row of the
    edges that leave its terminal vertex, one row per vertex; another named
    rule applies `allows_labels` to all pairs of labels at once.

    An explicit incidence allows its allow pairs, which `labels` holds flat
    (a1, b1, a2, b2, ...); a repeated pair counts once. A pair that names an
    unknown edge or whose edges do not meet raises SpecError, for the first
    such pair in the order of str((a, b)). `lines`, the spec-file line of
    each pair, puts the line on the error and reports unknown edges as the
    file is read: the first one in line order.
    """
    vertex = {}
    src = np.array([vertex.setdefault(e.src, len(vertex)) for e in edges], dtype=int)
    dst = np.array([vertex.setdefault(e.dst, len(vertex)) for e in edges], dtype=int)
    letters = np.arange(len(edges))
    if labels is not None:
        pairs = allow_positions(labels, {e.id: k for k, e in enumerate(edges)})
        unknown = (pairs < 0).any(axis=1)
        bad = unknown.copy()
        bad[~unknown] = dst[pairs[~unknown, 0]] != src[pairs[~unknown, 1]]
        if bad.any():
            raise _allow_pair_error(edges, labels, pairs, unknown, bad, lines)
        A = np.zeros((len(edges), len(edges)), dtype=bool)
        A[pairs[:, 0], pairs[:, 1]] = True
    elif incidence.kind == FULL:
        leaving = np.zeros((len(vertex), len(edges)), dtype=bool)
        leaving[src, letters] = True
        return StateLumping(dst, leaving)
    else:  # `rule` refuses an explicit incidence without its pairs
        ids = np.array([e.id for e in edges])
        A = dst[:, None] == src[None, :]
        A &= incidence.allows_labels(ids[:, None], ids[None, :])
    return StateLumping(letters, A)


def _allow_pair_error(edges, labels, pairs, unknown, bad, lines):
    """The SpecError `incidence_lumping` raises for the allow pairs flagged in
    `bad`, those in `unknown` naming an unknown edge."""
    if lines is not None and unknown.any():
        k = int(unknown.argmax())
        return SpecError(f"allow pair names unknown edge ({labels[2 * k]!r}, "
                         f"{labels[2 * k + 1]!r})", lines[k])
    k = min(np.flatnonzero(bad).tolist(), key=lambda k: str((labels[2 * k], labels[2 * k + 1])))
    a, b = labels[2 * k], labels[2 * k + 1]
    line = None if lines is None else lines[k]
    if unknown[k]:
        return SpecError(f"allow pair ({a!r}, {b!r}) names an unknown edge", line)
    return SpecError(f"allow pair ({a!r}, {b!r}) is incompatible: terminal vertex of {a!r} "
                     f"is {edges[pairs[k, 0]].dst!r} but initial vertex of {b!r} is "
                     f"{edges[pairs[k, 1]].src!r}", line)


def is_admissible(system, word) -> bool:
    """True iff each letter after the first is in the successor set of the one before."""
    word = tuple(word)
    if not word:
        raise InputError("word must have length >= 1")
    if system.infinite:
        labels = positive_labels(word, "unknown edge id ")
        return all(system.incidence.allows_labels(a, b) for a, b in zip(labels, labels[1:]))
    index = system.edge_index
    for e in word:
        if e not in index:
            raise InputError(f"unknown edge id {e!r}")
    members, state = system.lumping.members, system.lumping.state_of
    return all(members[state[index[a]], index[b]] for a, b in zip(word, word[1:]))


def as_integer(value, what: str) -> int:
    """value as an int by `operator.index`, so numpy integers pass and 2.7
    is refused rather than truncated. Raises InputError naming `what`."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def positive_labels(word, refusal: str) -> list:
    """The letters of `word` as ints by `as_integer`, so numpy integers
    pass. A letter that is not an integer >= 1 raises InputError with
    `refusal` followed by its repr."""
    out = []
    for e in word:
        try:
            label = as_integer(e, "label")
        except InputError:
            label = 0
        if label < 1:
            raise InputError(f"{refusal}{e!r}")
        out.append(label)
    return out


def word_lengths(ns) -> list:
    """ns as a list of ints. Raises InputError unless each n is an integer
    (`as_integer`) and >= 1."""
    out = [as_integer(n, "word length") for n in ns]
    if any(n < 1 for n in out):
        raise InputError("n must be >= 1")
    return out


def enumerate_words(system, n: int, limit: int | None = None):
    """Yield the admissible length-n words in lexicographic edge-list order.

    Dead prefixes are pruned depth-first, on an explicit stack of iterators
    over the `state_lists` of the prefix's letters. Raises ResourceGuardError
    once the stream exceeds `limit` (default: the global count guard), and
    InputError unless n is a `word_lengths` entry.
    """
    (n,) = word_lengths([n])
    lists, state, ids = system.state_lists, system.lumping.state_of.tolist(), system.edge_ids
    bound = count_guard() if limit is None else limit
    emitted, prefix, stack = 0, [], [iter(range(len(ids)))]
    while stack:
        for nxt in stack[-1]:
            prefix.append(nxt)
            if len(prefix) < n:
                stack.append(iter(lists[state[nxt]]))
                break
            emitted += 1
            if emitted > bound:
                raise ResourceGuardError(f"enumeration exceeded count guard of {bound}")
            yield tuple(map(ids.__getitem__, prefix))
            prefix.pop()
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def read_only(array):
    """`array`, marked read-only."""
    array.flags.writeable = False
    return array


def grouped(rows, values, count):
    """For each row 0..count-1, the distinct `values` paired with it in
    `rows` (integer arrays, values >= 0), ascending, as one list per row."""
    base = int(values.max(initial=0)) + 1
    pairs = np.zeros(count * base, dtype=bool)
    pairs[rows * base + values] = True
    rows, values = np.divmod(np.flatnonzero(pairs), base)
    bounds, values = np.searchsorted(rows, np.arange(count + 1)).tolist(), values.tolist()
    return tuple(values[a:b] for a, b in zip(bounds, bounds[1:]))


class StateLumping:
    """Letters grouped into states by their sets, letter a's set the row
    patterns[group[a]] of a boolean matrix with a column per letter, states
    numbered in order of first occurrence. An operator whose image at c sums
    a term T_a on the unknown of a's state over the letters a in c's set
    has a block row and column per state, block (s, s(a)) summing T_a over
    a in set s (`blocks`). The sets are successor sets for an edge graph
    and its similarity blocks, predecessor sets for a collocation."""

    def __init__(self, group, patterns):
        index, patterns = {}, np.ascontiguousarray(patterns)
        packed = np.packbits(patterns, axis=1)
        sets = packed.view(f"V{packed.shape[1]}").ravel().tolist()  # a bytes object per row
        # each letter's state named by its first letter; `first` lists them in order
        leader = np.array([index.setdefault(sets[r], a) for a, r in enumerate(group.tolist())])
        first = np.fromiter(index.values(), dtype=np.intp, count=len(index))
        self.state_of = np.searchsorted(first, leader)
        self.counts = np.bincount(self.state_of)  # letters per state
        # members[s, a] is True when letter a is in set s
        self.members = patterns[group[first]]
        # (s, a) for each a in set s = feeding[starts[s]:starts[s + 1]]
        self.rows, self.feeding = np.divmod(np.flatnonzero(self.members), len(self.state_of))
        self.starts = np.searchsorted(self.rows, np.arange(len(self.members) + 1))
        self._keys = {}  # `blocks`' keys per node count m

    def restrict(self, idx):
        """The lumping of the letters at the ascending positions `idx`, from
        the rows of their states cut to them; itself if `idx` holds all."""
        if len(idx) == len(self.state_of):
            return self
        own = self.state_of[idx]
        used = np.bincount(own, minlength=len(self.members)) > 0
        return StateLumping((np.cumsum(used) - 1)[own], self.members[used].take(idx, axis=1))

    @cached_property
    def reversed(self):
        """The lumping by predecessor sets: letter c's set the letters whose set holds c."""
        return StateLumping(np.arange(len(self.state_of)), self.members.T[:, self.state_of])

    def blocks(self, per_letter):
        """Sum per_letter[a] into the block (s, s(a)) for every set s holding
        a, in ascending order of a. A number per letter gives the states x
        states matrix of the blocks; an m x m array per letter gives the
        (states m) x (states m) matrix whose row s m + i and column s' m + j
        are node i of state s and node j of state s'."""
        m = per_letter.shape[-1] if per_letter.ndim > 1 else 1
        keys = self._keys.get(m)
        if keys is None:  # the entry that node pair (i, j) of each pair (s, a) adds to
            rows = (self.rows * m)[:, None, None] + np.arange(m)[:, None]
            cols = (self.state_of[self.feeding] * m)[:, None, None] + np.arange(m)
            keys = self._keys[m] = (rows * (len(self.members) * m) + cols).ravel()
        n = len(self.members) * m
        return np.bincount(keys, per_letter[self.feeding].ravel(), minlength=n * n).reshape(n, n)


@dataclass(frozen=True)
class SccReport:
    components: tuple        # tuple of frozensets of edge ids
    condensation: frozenset  # ordered pairs of component indices
    isolated: frozenset      # edge ids in no strongly connected component
    communication: frozenset  # ordered pairs of component indices


def tarjan_scc(succ):
    """Iterative Tarjan on the graph whose node k has the successors
    succ[k] (positions 0..len(succ)-1); returns the SCCs as lists of
    positions, in reverse topological order. A node put in an SCC gets the
    low link len(succ), which no later minimum takes."""
    n, counter = len(succ), 0
    index, low, stack, sccs = [-1] * n, [0] * n, [], []
    for root in range(n):
        work = [(root, None)] if index[root] < 0 else []
        while work:
            v, it = work.pop()
            if it is None:  # first visit
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                it = iter(succ[v])
            for w in it:
                if index[w] < 0:
                    work += [(v, it), (w, None)]
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        low[w] = n
                    sccs.append(comp)
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return sccs


def scc_decompose(system) -> SccReport:
    """Strongly connected structure of the edge graph.

    An edge belongs to a component only if some admissible cycle passes
    through it; a singleton {e} counts only when e may follow itself.
    Everything else lands in the isolated set. Component i communicates
    with j when some admissible word leads from i to j, and (i, j) is a
    condensation arc when that word can pass through isolated edges only.
    The report is the system's `scc_report`, built once per system and
    shared by every caller.
    """
    return system.scc_report


@dataclass(frozen=True)
class MatrixProperties:
    """The three verdicts on the incidence matrix, each with the reason
    `justification` gives under its name."""

    irreducible: bool
    primitive: bool
    finitely_irreducible: bool
    justification: dict


def matrix_properties(system) -> MatrixProperties:
    """Irreducibility, primitivity and finite irreducibility.

    A finite system is read from its cached views: `system.irreducible`
    and the period of `system.state_arcs`, whose cycle lengths are the edge
    graph's, so past the lumping the cost is O(k + quotient arcs). For a
    finite edge set finitely irreducible coincides with irreducible, since
    one connecting word per ordered edge pair is a finite set. Named
    infinite rules get closed-form verdicts: truncation would change the
    answers.
    """
    if system.infinite:
        irr, prim, fin, why = system.incidence.rule.verdicts
        just = {"irreducible": why, "primitive": why, "finitely_irreducible": why}
        return MatrixProperties(irr, prim, fin, just)

    if not system.irreducible:
        just = {"irreducible": "the edge graph is not strongly connected"}
        just["primitive"] = just["irreducible"]
        just["finitely_irreducible"] = just["irreducible"]
        return MatrixProperties(False, False, False, just)

    period = _graph_period(system.state_arcs)
    primitive = period == 1
    just = {
        "irreducible": "the edge graph is strongly connected",
        "primitive": (f"gcd of cycle lengths is {period}"
                      + ("" if primitive else ", so powers of A stay patterned")),
        "finitely_irreducible": "finite edge set: one connecting word per ordered pair",
    }
    return MatrixProperties(True, primitive, True, just)


def _graph_period(succ):
    """gcd of cycle lengths of a strongly connected graph on positions."""
    level, queue = [0] + [-1] * (len(succ) - 1), [0]
    for v in queue:
        for w in succ[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                queue.append(w)
    g = 0
    for v, row in enumerate(succ):
        for w in row:
            g = math.gcd(g, level[v] + 1 - level[w])
    return abs(g) if g else 1

