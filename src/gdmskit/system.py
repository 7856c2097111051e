"""The GdmsSystem container: multigraph + incidence + contractions + spaces.

A system is the single source of truth for every analysis. Finite systems
carry an explicit edge list; the continued-fraction family may instead be
left infinite (integer labels) and truncated on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import graph as g
from . import maps as m
from .errors import DomainError, InputError, NotApplicableError, SpecError


@dataclass
class GdmsSystem:
    name: str
    graph: g.MultiGraph
    incidence: g.IncidenceSpec
    family: object  # SimilarityFamily | MoebiusCfFamily
    spaces: dict    # vertex id -> VertexSpace
    infinite: bool = False
    # Built on first use. init=False keeps them out of `replace`, so every
    # derived system (restrict, truncate) starts with empty caches.
    _succ: dict = field(default=None, init=False, repr=False, compare=False)
    _sccs: tuple = field(default=None, init=False, repr=False, compare=False)
    _components: tuple = field(default=None, init=False, repr=False, compare=False)
    _ids: tuple = field(default=None, init=False, repr=False, compare=False)
    _dense: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for v in self.graph.vertices:
            if v not in self.spaces:
                raise InputError(f"vertex {v!r} has no vertex space")

    # -- structure ---------------------------------------------------------

    @property
    def edge_ids(self):
        return tuple(e.id for e in self.graph.edges)

    def _id_maps(self):
        if self._ids is None:
            edges = self.graph.edges
            self._ids = ({e.id: k for k, e in enumerate(edges)},
                         {e.id: e for e in edges})
        return self._ids

    @property
    def edge_index(self):
        """edge id -> row and column of the edge in `incidence_matrix`."""
        return self._id_maps()[0]

    @property
    def edges_by_id(self):
        return self._id_maps()[1]

    def _dense_arrays(self):
        if self.infinite:
            raise NotApplicableError("the edge graph needs a finite edge set")
        if self._dense is None:
            A = g.incidence_array(self.incidence, self.graph.edges, self.edge_index)
            log_norms = np.array([self.family.one_step_log_norm(e)
                                  for e in self.edge_ids])
            A.flags.writeable = log_norms.flags.writeable = False
            self._dense = (A, log_norms)
        return self._dense

    @property
    def incidence_matrix(self):
        """Read-only 0/1 matrix of the edge graph, rows and columns in edge order."""
        return self._dense_arrays()[0]

    @property
    def log_norms(self):
        """Read-only vector of ln ||phi_e'|| in edge order."""
        return self._dense_arrays()[1]

    @property
    def successor_map(self):
        """edge id -> tuple of allowed successor edge ids, in edge order:
        the nonzero columns of each row of `incidence_matrix`."""
        if self.infinite:
            raise NotApplicableError("successor map needs a finite edge set")
        if self._succ is None:
            ids = self.edge_ids
            self._succ = {a: tuple(ids[j] for j in np.flatnonzero(row))
                          for a, row in zip(ids, self.incidence_matrix)}
        return self._succ

    @property
    def sccs(self):
        """Every strongly connected component of the edge graph as a tuple
        of edge ids, sink first: the output of one `graph.tarjan_scc` pass,
        from which `components` and `graph.scc_decompose` both read."""
        if self._sccs is None:
            self._sccs = tuple(map(tuple, g.tarjan_scc(self.edge_ids, self.successor_map)))
        return self._sccs

    @property
    def components(self):
        """Edge sets of the strongly connected components that carry a
        cycle, ordered by their first edge (see `graph.cyclic_components`)."""
        if self._components is None:
            self._components = g.cyclic_components(self.edge_ids, self.successor_map, self.sccs)
        return self._components

    @property
    def irreducible(self) -> bool:
        """Whether the edge graph is one strongly connected component that
        carries a cycle, i.e. the incidence matrix is irreducible."""
        return self.components == (frozenset(self.edge_ids),)

    def component_blocks(self):
        """(A_k, log r_k) of each of `components`: the diagonal block of
        `incidence_matrix` and the entries of `log_norms` for its edges."""
        pos = self.edge_index
        blocks = []
        for comp in self.components:
            idx = sorted(pos[e] for e in comp)
            blocks.append((self.incidence_matrix[np.ix_(idx, idx)], self.log_norms[idx]))
        return blocks

    def restrict(self, edge_ids) -> "GdmsSystem":
        """Subsystem on a subset of edges (incidence restricted implicitly)."""
        keep = set(edge_ids)
        edges = tuple(e for e in self.graph.edges if e.id in keep)
        return replace(self, graph=g.MultiGraph(self.graph.vertices, edges))

    def truncate(self, size: int) -> "GdmsSystem":
        """Finite head {1..size} of an infinite integer-labelled family."""
        if not self.infinite:
            raise InputError("truncate applies to infinite systems only")
        if size < 1:
            raise InputError("truncation size must be >= 1")
        v = self.graph.vertices[0]
        edges = tuple(g.Edge(k, v, v) for k in range(1, size + 1))
        return replace(self, graph=g.MultiGraph(self.graph.vertices, edges),
                       infinite=False, name=f"{self.name}[1..{size}]")

    # -- geometry ----------------------------------------------------------

    def terminal_space(self, word) -> m.VertexSpace:
        if self.infinite:
            return self.spaces[self.graph.vertices[0]]
        last = self.edges_by_id[word[-1]]
        return self.spaces[last.dst]

    def evaluate(self, word, x: float) -> float:
        """phi_word(x); the word must be admissible, x in the terminal space."""
        word = tuple(word)
        if not g.is_admissible(self, word):
            raise InputError(f"word {word} is not admissible")
        return m.evaluate(self.family, word, x, self.terminal_space(word))

    def word_interval(self, word):
        """Image interval phi_word(X_t(word)), exact for monotone maps."""
        return self.family.interval_image(tuple(word), self.terminal_space(word))

    def one_step_log_norms(self):
        return {e: self.family.one_step_log_norm(e) for e in self.edge_ids}

    def contraction_bound(self):
        """(s_eff, step): diam decays like s_eff^floor(n/step).

        Similarities contract at every step. The continued-fraction family
        has one-step norm 1 at label 1, but every two-letter composition has
        norm 1/(ab+1)^2 <= 1/4, so decay is certified per pair of steps.
        """
        if self.family.kind == "similarity":
            return max(f.ratio for f in self.family.maps.values()), 1
        if self.infinite:
            a, b = _min_rule_pair(self.incidence)
            return 1.0 / (a * b + 1) ** 2, 2
        best = None
        for a in self.edge_ids:
            for b in self.successor_map[a]:
                val = 1.0 / (a * b + 1) ** 2
                best = val if best is None else max(best, val)
        return (best if best is not None else 0.25), 2

    def max_space_diameter(self) -> float:
        return max(s.diameter for s in self.spaces.values())


def _min_rule_pair(incidence):
    if incidence.kind == g.UPPER:
        return 1, 2
    return 1, 1  # full and banded both admit the pair (1, 1)


def cf_system(incidence: g.IncidenceSpec, truncate: int | None = None,
              name: str = "cf") -> GdmsSystem:
    """Continued-fraction system on the single vertex space [0, 1]."""
    space = m.VertexSpace("v", 0.0, 1.0)
    sys = GdmsSystem(name=name,
                     graph=g.MultiGraph(("v",), ()),
                     incidence=incidence,
                     family=m.MoebiusCfFamily(),
                     spaces={"v": space},
                     infinite=True)
    if truncate is not None:
        sys = sys.truncate(truncate)
    return sys


def similarity_system(name, vertices, spaces, edges, incidence) -> GdmsSystem:
    """Build a finite similarity system.

    edges: iterable of (id, src, dst, SimilarityMap).
    """
    edge_objs = tuple(g.Edge(eid, src, dst) for eid, src, dst, _ in edges)
    fam = m.SimilarityFamily({eid: sm for eid, _, _, sm in edges})
    return GdmsSystem(name=name, graph=g.MultiGraph(tuple(vertices), edge_objs),
                      incidence=incidence, family=fam,
                      spaces=dict(spaces), infinite=False)


def full_shift(ratios, offsets=None, signs=None, lo=0.0, hi=1.0, name="full-shift"):
    """Single-vertex similarity system with every transition allowed."""
    n = len(ratios)
    if offsets is None:
        # pack images left to right inside [lo, hi]
        offsets = []
        cursor = lo
        width = hi - lo
        for r in ratios:
            offsets.append(cursor - lo * r)
            cursor += r * width
    signs = signs or [1] * n
    space = m.VertexSpace("v", lo, hi)
    edges = [(f"e{k+1}", "v", "v", m.SimilarityMap(ratios[k], offsets[k], signs[k]))
             for k in range(n)]
    return similarity_system(name, ("v",), {"v": space}, edges,
                             g.IncidenceSpec(g.FULL))


def prune(system: GdmsSystem):
    """Drop edges with no allowed successor, iterated to a fixpoint.

    Removing such edges leaves the limit set unchanged: no infinite word can
    pass through them.
    """
    if system.infinite:
        return system, ()
    removed = []
    current = system
    while True:
        succ = current.successor_map
        dead = [e for e in current.edge_ids if not succ[e]]
        if not dead:
            break
        removed.extend(dead)
        keep = [e for e in current.edge_ids if succ[e]]
        current = current.restrict(keep)
    return current, tuple(removed)


def validate(system: GdmsSystem, do_prune: bool = True):
    """Run load-time checks; returns (system, warnings).

    Checks: explicit-incidence compatibility, contraction, image containment,
    successor pruning (explicit incidence only: rule truncations keep their
    edges so structural reports stay meaningful), and a pairwise level-1
    interior-overlap sanity check (warning only).
    """
    warnings = []
    if system.incidence.kind == g.EXPLICIT:
        by_id = system.edges_by_id
        for a, b in sorted(system.incidence.allowed, key=str):
            if a not in by_id or b not in by_id:
                raise SpecError(f"allow pair ({a!r}, {b!r}) names an unknown edge")
            if by_id[a].dst != by_id[b].src:
                raise SpecError(
                    f"allow pair ({a!r}, {b!r}) is incompatible: terminal vertex of "
                    f"{a!r} is {by_id[a].dst!r} but initial vertex of {b!r} is {by_id[b].src!r}")

    if system.family.kind == "similarity":
        for e in system.graph.edges:
            sm = system.family.map_for(e.id)
            src_space, dst_space = system.spaces[e.dst], system.spaces[e.src]
            lo, hi = system.family.interval_image((e.id,), src_space)
            if lo < dst_space.lo - 1e-12 or hi > dst_space.hi + 1e-12:
                raise SpecError(
                    f"edge {e.id!r}: image [{lo}, {hi}] leaves the target space "
                    f"[{dst_space.lo}, {dst_space.hi}]")
        warnings.extend(_osc_level1_warnings(system))

    if do_prune and not system.infinite and system.incidence.kind == g.EXPLICIT:
        system, removed = prune(system)
        if removed:
            warnings.append(f"pruned {len(removed)} edge(s) with no successor: "
                            + ", ".join(map(str, removed)))
    return system, tuple(warnings)


def _osc_level1_warnings(system):
    """Pairwise interior-overlap test of first-level image intervals."""
    warnings = []
    edges = system.graph.edges
    images = [system.word_interval((e.id,)) for e in edges]
    for i, a in enumerate(edges):
        lo_a, hi_a = images[i]
        for b, (lo_b, hi_b) in zip(edges[i + 1:], images[i + 1:]):
            if a.src != b.src:
                continue
            overlap = min(hi_a, hi_b) - max(lo_a, lo_b)
            if overlap > 1e-12:
                warnings.append(
                    f"images of edges {a.id!r} and {b.id!r} overlap on interior "
                    f"width {overlap:.3g}; open set condition may fail")
    return warnings


def empty_limit_set(system: GdmsSystem) -> bool:
    """True when no infinite admissible word exists (finite systems).

    Equivalent to the edge graph having no admissible cycle; words longer
    than |E| would otherwise revisit an edge.
    """
    if system.infinite:
        return False
    return not system.components


def diameter_bound(system: GdmsSystem, depth: int) -> float:
    """Upper bound on diam(phi_word(X)) over admissible words of `depth`."""
    s_eff, step = system.contraction_bound()
    return s_eff ** (depth // step) * system.max_space_diameter()
