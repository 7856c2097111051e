"""Directed multigraph, incidence rules, admissible words and SCC structure.

The reachability analysis runs on the edge graph: its nodes are the edges of
the multigraph and there is an arrow a -> b whenever the incidence matrix
allows b to follow a.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NotApplicableError, ResourceGuardError

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
class IncidenceSpec:
    """Explicit 0/1 matrix over edge ids, or one of three named rules."""

    kind: str
    width: int = 0
    allowed: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.kind not in (FULL, BANDED, UPPER, EXPLICIT):
            raise InputError(f"unknown incidence kind {self.kind!r}")
        if self.kind == BANDED and self.width < 1:
            raise InputError("banded incidence needs width >= 1")

    def allows_labels(self, a, b) -> bool:
        """Rule check on raw labels; explicit matrices use the stored pairs."""
        if self.kind == FULL:
            return True
        if self.kind == BANDED:
            return abs(a - b) <= self.width
        if self.kind == UPPER:
            return a < b
        return (a, b) in self.allowed


def edge_allows(incidence: IncidenceSpec, a: Edge, b: Edge) -> bool:
    """True when b may follow a. Composition also needs t(a) = i(b)."""
    if a.dst != b.src:
        return False
    if incidence.kind == EXPLICIT:
        return (a.id, b.id) in incidence.allowed
    if incidence.kind == FULL:
        return True
    return incidence.allows_labels(a.id, b.id)


def incidence_array(incidence: IncidenceSpec, edges, index):
    """0/1 float matrix of the edge graph, rows and columns placed by
    `index` (edge id -> position): entry (a, b) is 1 exactly when
    edge_allows(incidence, a, b), computed for all pairs at once."""
    vertex = {}
    src = np.array([vertex.setdefault(e.src, len(vertex)) for e in edges], dtype=int)
    dst = np.array([vertex.setdefault(e.dst, len(vertex)) for e in edges], dtype=int)
    allowed = dst[:, None] == src[None, :]
    if incidence.kind == EXPLICIT:
        rule = np.zeros_like(allowed)
        pairs = [(index[a], index[b]) for a, b in incidence.allowed
                 if a in index and b in index]
        if pairs:
            rule[tuple(np.array(pairs).T)] = True
        allowed &= rule
    elif incidence.kind != FULL:
        labels = np.array([e.id for e in edges])
        if incidence.kind == BANDED:
            allowed &= np.abs(labels[:, None] - labels[None, :]) <= incidence.width
        else:
            allowed &= labels[:, None] < labels[None, :]
    return allowed.astype(float)


def is_admissible(system, word) -> bool:
    """True iff every consecutive pair of the word is allowed by A."""
    word = tuple(word)
    if not word:
        raise InputError("word must have length >= 1")
    if system.infinite:
        for e in word:
            if not isinstance(e, int) or e < 1:
                raise InputError(f"unknown edge id {e!r}")
        return all(system.incidence.allows_labels(a, b) for a, b in zip(word, word[1:]))
    by_id = system.edges_by_id
    for e in word:
        if e not in by_id:
            raise InputError(f"unknown edge id {e!r}")
    return all(edge_allows(system.incidence, by_id[a], by_id[b]) for a, b in zip(word, word[1:]))


def enumerate_words(system, n: int, limit: int | None = None):
    """Yield the admissible length-n words in lexicographic edge-list order.

    Dead prefixes are pruned depth-first. Raises ResourceGuardError once the
    stream exceeds `limit` (default: the global count guard).
    """
    if n < 1:
        raise InputError("word length must be >= 1")
    _require_finite(system)
    bound = count_guard() if limit is None else limit
    succ = system.successor_map
    ids = system.edge_ids
    emitted = 0

    def extend(prefix):
        nonlocal emitted
        if len(prefix) == n:
            emitted += 1
            if emitted > bound:
                raise ResourceGuardError(f"enumeration exceeded count guard of {bound}")
            yield tuple(prefix)
            return
        for nxt in succ[prefix[-1]]:
            prefix.append(nxt)
            yield from extend(prefix)
            prefix.pop()

    for first in ids:
        yield from extend([first])


@dataclass(frozen=True)
class SccReport:
    components: tuple        # tuple of frozensets of edge ids
    condensation: frozenset  # ordered pairs of component indices
    isolated: frozenset      # edge ids in no strongly connected component
    communication: frozenset  # ordered pairs of component indices


def _require_finite(system):
    if system.infinite:
        raise NotApplicableError("analysis needs a finite edge set; truncate the system first")


def tarjan_scc(nodes, succ):
    """Iterative Tarjan; returns SCCs in reverse topological order."""
    index, low = {}, {}
    onstack, stack, sccs = set(), [], []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def cyclic_components(ids, succ, sccs):
    """The components of `sccs` (from `tarjan_scc(ids, succ)`) that an
    admissible cycle passes through (more than one edge, or one edge that
    may follow itself), as frozensets ordered by their first edge in `ids`."""
    order = {e: k for k, e in enumerate(ids)}
    comps = [frozenset(c) for c in sccs if len(c) > 1 or c[0] in succ[c[0]]]
    comps.sort(key=lambda c: min(order[e] for e in c))
    return tuple(comps)


def scc_decompose(system) -> SccReport:
    """Strongly connected structure of the edge graph.

    An edge belongs to a component only if some admissible cycle passes
    through it; a singleton {e} counts only when e may follow itself.
    Everything else lands in the isolated set. Component i communicates
    with j when some admissible word leads from i to j, and (i, j) is a
    condensation arc when that word can pass through isolated edges only.
    """
    _require_finite(system)
    ids = system.edge_ids
    succ = system.successor_map
    comp_index = {e: k for k, comp in enumerate(system.components) for e in comp}
    isolated = frozenset(e for e in ids if e not in comp_index)

    # For each Tarjan component n: reached[n] holds the cyclic components
    # some word from n leads to, bridged[n] those it leads to through
    # isolated edges only. Tarjan lists components sink first, so the sets
    # of every successor of n are complete when n reads them.
    sccs = system.sccs
    position = {e: n for n, scc in enumerate(sccs) for e in scc}
    reached, bridged = [], []
    communication, condensation = set(), set()
    for n, scc in enumerate(sccs):
        reach, bridge = set(), set()
        for m in {position[w] for e in scc for w in succ[e]} - {n}:
            reach |= reached[m]
            j = comp_index.get(sccs[m][0])
            if j is None:
                bridge |= bridged[m]
            else:
                reach.add(j)
                bridge.add(j)
        reached.append(reach)
        bridged.append(bridge)
        i = comp_index.get(scc[0])
        if i is not None:
            communication.update((i, j) for j in reach)
            condensation.update((i, j) for j in bridge)
    return SccReport(system.components, frozenset(condensation), isolated,
                     frozenset(communication))


@dataclass(frozen=True)
class MatrixProperties:
    irreducible: bool
    primitive: bool
    finitely_irreducible: bool
    witness: tuple | None  # connecting word set H, or None
    justification: dict


_RULE_VERDICTS = {
    FULL: (True, True, True,
           "every entry is 1, so any edge follows any edge"),
    BANDED: (True, False, False,
             "labels walk the band one step at a time, so any two labels are "
             "joined, but no finite word set connects arbitrarily distant labels"),
    UPPER: (False, False, False,
            "labels must strictly increase, so no label is ever revisited"),
}


def matrix_properties(system) -> MatrixProperties:
    """Irreducibility, primitivity and finite irreducibility.

    Finite explicit matrices are analysed directly; for a finite edge set,
    finitely irreducible coincides with irreducible (take one connecting word
    per ordered edge pair as the witness H). Named infinite rules get
    closed-form verdicts: truncation would change the answers.
    """
    if system.infinite:
        irr, prim, fin, why = _RULE_VERDICTS[system.incidence.kind]
        just = {"irreducible": why, "primitive": why, "finitely_irreducible": why}
        return MatrixProperties(irr, prim, fin, None, just)

    if not system.irreducible:
        just = {"irreducible": "the edge graph is not strongly connected"}
        just["primitive"] = just["irreducible"]
        just["finitely_irreducible"] = just["irreducible"]
        return MatrixProperties(False, False, False, None, just)

    ids = system.edge_ids
    succ = system.successor_map
    period = _graph_period(ids, succ)
    primitive = period == 1
    witness = _connecting_words(ids, succ, system)
    just = {
        "irreducible": "the edge graph is strongly connected",
        "primitive": (f"gcd of cycle lengths is {period}"
                      + ("" if primitive else ", so powers of A stay patterned")),
        "finitely_irreducible": "finite edge set: one connecting word per ordered pair",
    }
    return MatrixProperties(True, primitive, True, witness, just)


def _graph_period(ids, succ):
    """gcd of cycle lengths of a strongly connected graph."""
    root = ids[0]
    level = {root: 0}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in succ[v]:
            if w not in level:
                level[w] = level[v] + 1
                queue.append(w)
    g = 0
    for v in ids:
        for w in succ[v]:
            g = math.gcd(g, level[v] + 1 - level[w])
    return abs(g) if g else 1


def _connecting_words(ids, succ, system):
    """Shortest word w per ordered edge pair (i, j) with i w j admissible."""
    words = set()
    for i in ids:
        # BFS over successors, tracking the connecting word (without endpoints)
        parents = {w: (i, None) for w in succ[i]}
        queue = list(succ[i])
        reached = dict(parents)
        while queue:
            v = queue.pop(0)
            for w in succ[v]:
                if w not in reached:
                    reached[w] = (v, None)
                    queue.append(w)
        for j in ids:
            if j in succ[i]:
                continue  # empty connecting word
            if j not in reached:
                return None
            path = []
            v = reached[j][0]
            while v != i:
                path.append(v)
                v = reached[v][0]
            words.add(tuple(reversed(path)))
    return tuple(sorted(words))
