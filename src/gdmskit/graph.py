"""Directed multigraph, incidence rules, admissible words and SCC structure.

The reachability analysis runs on the edge graph: its nodes are the edges of
the multigraph and there is an arrow a -> b whenever the incidence matrix
allows b to follow a.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
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
    system's incidence matrix (see `incidence_array`). Only `banded` reads
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


def incidence_array(incidence, edges, labels=None, lines=None):
    """Boolean matrix of the edge graph, rows and columns in the order of
    `edges`. b may follow a only when t(a) = i(b); a named rule applies
    `allows_labels` to all pairs of labels at once.

    An explicit incidence is True at each of its allow pairs, which `labels`
    holds flat (a1, b1, a2, b2, ...); a repeated pair counts once. A pair
    that names an unknown edge or whose edges do not meet raises SpecError,
    for the first such pair in the order of str((a, b)). `lines`, the
    spec-file line of each pair, puts the line on the error and reports
    unknown edges as the file is read: the first one in line order.
    """
    vertex = {}
    src = np.array([vertex.setdefault(e.src, len(vertex)) for e in edges], dtype=int)
    dst = np.array([vertex.setdefault(e.dst, len(vertex)) for e in edges], dtype=int)
    if labels is None:  # a named rule; `rule` refuses an explicit one
        ids = np.array([e.id for e in edges])
        A = dst[:, None] == src[None, :]
        A &= incidence.allows_labels(ids[:, None], ids[None, :])
        return A
    pairs = allow_positions(labels, {e.id: k for k, e in enumerate(edges)})
    unknown = (pairs < 0).any(axis=1)
    bad = unknown.copy()
    bad[~unknown] = dst[pairs[~unknown, 0]] != src[pairs[~unknown, 1]]
    if bad.any():
        raise _allow_pair_error(edges, labels, pairs, unknown, bad, lines)
    A = np.zeros((len(edges), len(edges)), dtype=bool)
    A[pairs[:, 0], pairs[:, 1]] = True
    return A


def _allow_pair_error(edges, labels, pairs, unknown, bad, lines):
    """The SpecError `incidence_array` raises for the allow pairs flagged in
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
    """True iff every consecutive pair of the word is allowed by A."""
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
    A = system.incidence_matrix
    return all(A[index[a], index[b]] for a, b in zip(word, word[1:]))


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

    Dead prefixes are pruned depth-first. Raises ResourceGuardError once the
    stream exceeds `limit` (default: the global count guard), and InputError
    unless n is a `word_lengths` entry.
    """
    (n,) = word_lengths([n])
    succ = system.successors
    bound = count_guard() if limit is None else limit
    ids = system.edge_ids
    emitted = 0

    def extend(prefix):
        nonlocal emitted
        if len(prefix) == n:
            emitted += 1
            if emitted > bound:
                raise ResourceGuardError(f"enumeration exceeded count guard of {bound}")
            yield tuple(map(ids.__getitem__, prefix))
            return
        for nxt in succ[prefix[-1]]:
            prefix.append(nxt)
            yield from extend(prefix)
            prefix.pop()

    for first in range(len(ids)):
        yield from extend([first])


@dataclass(frozen=True)
class SccReport:
    components: tuple        # tuple of frozensets of edge ids
    condensation: frozenset  # ordered pairs of component indices
    isolated: frozenset      # edge ids in no strongly connected component
    communication: frozenset  # ordered pairs of component indices


def tarjan_scc(succ):
    """Iterative Tarjan on the graph whose node k has the successors
    succ[k] (positions 0..len(succ)-1); returns the SCCs as lists of
    positions, in reverse topological order."""
    n = len(succ)
    index, low, onstack = [-1] * n, [0] * n, [False] * n
    stack, sccs = [], []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if onstack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


def cyclic_components(succ, sccs):
    """The components of `sccs` (from `tarjan_scc(succ)`) that an admissible
    cycle passes through (more than one edge, or one edge that may follow
    itself), each as a sorted tuple of positions, ordered by their first."""
    return tuple(sorted(tuple(sorted(c)) for c in sccs if len(c) > 1 or c[0] in succ[c[0]]))


def scc_decompose(system) -> SccReport:
    """Strongly connected structure of the edge graph.

    An edge belongs to a component only if some admissible cycle passes
    through it; a singleton {e} counts only when e may follow itself.
    Everything else lands in the isolated set. Component i communicates
    with j when some admissible word leads from i to j, and (i, j) is a
    condensation arc when that word can pass through isolated edges only.
    """
    ids = system.edge_ids
    succ = system.successors
    comp_of = [-1] * len(ids)
    for k, comp in enumerate(system.component_positions):
        for e in comp:
            comp_of[e] = k
    isolated = frozenset(ids[e] for e, k in enumerate(comp_of) if k < 0)

    # For each Tarjan component n: reached[n] holds the cyclic components
    # some word from n leads to, bridged[n] those it leads to through
    # isolated edges only. Tarjan lists components sink first, so the sets
    # of every successor of n are complete when n reads them.
    sccs = system.sccs
    position = [0] * len(ids)
    for n, scc in enumerate(sccs):
        for e in scc:
            position[e] = n
    reached, bridged = [], []
    communication, condensation = set(), set()
    for n, scc in enumerate(sccs):
        reach, bridge = set(), set()
        for m in {position[w] for e in scc for w in succ[e]} - {n}:
            reach |= reached[m]
            j = comp_of[sccs[m][0]]
            if j < 0:
                bridge |= bridged[m]
            else:
                reach.add(j)
                bridge.add(j)
        reached.append(reach)
        bridged.append(bridge)
        i = comp_of[scc[0]]
        if i >= 0:
            communication.update((i, j) for j in reach)
            condensation.update((i, j) for j in bridge)
    return SccReport(system.components, frozenset(condensation), isolated,
                     frozenset(communication))


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
    and the period of the edge graph, so the cost is O(E + nnz). For a
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

    period = _graph_period(system.successors)
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
    level = [-1] * len(succ)
    level[0] = 0
    queue = [0]
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

