"""The GdmsSystem container: multigraph + incidence + contractions + spaces.

A system is the single source of truth for every analysis. Finite systems
carry an explicit edge list; the continued-fraction family may instead be
left infinite (integer labels) and truncated on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import graph as g
from . import maps as m
from .errors import DomainError, InputError, NotApplicableError, SpecError


@dataclass
class GdmsSystem:
    """A graph-directed Markov system: multigraph, incidence, contraction
    family and vertex spaces. Its views of the edge graph, read on the
    states of `lumping`, from `edge_ids` to `engines`, are
    `functools.cached_property`s, built on first use (or given to
    `store_matrix`) and not to be modified, except by the `engines`
    themselves, which keep their last vectors and roots. Every
    derived system is a `dataclasses.replace` copy and starts with empty
    caches, but a subsystem (`subsystem`, `restrict`, `prune`) keeps its
    parent's `engine_pool`, so a block they share is one engine object.
    So neither one system object nor two that share a pool are to be
    analysed from two threads at once.
    An infinite system has no edge graph: `incidence_matrix` and
    `log_norms`, and so every view built on them, raise
    NotApplicableError."""

    name: str
    graph: g.MultiGraph
    incidence: g.IncidenceSpec
    family: object  # SimilarityFamily | MoebiusCfFamily
    spaces: dict    # vertex id -> VertexSpace
    infinite: bool = False
    # pool key (see `engines`) -> pressure engine; `subsystem` passes it on,
    # every other new system, a truncation too, starts an empty one
    engine_pool: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for v in self.graph.vertices:
            if v not in self.spaces:
                raise InputError(f"vertex {v!r} has no vertex space")

    # -- structure ---------------------------------------------------------

    @cached_property
    def edge_ids(self):
        return tuple(e.id for e in self.graph.edges)

    @cached_property
    def edge_index(self):
        """edge id -> row and column of the edge in `incidence_matrix`."""
        return {e.id: k for k, e in enumerate(self.graph.edges)}

    @cached_property
    def incidence_matrix(self):
        """Read-only boolean matrix of the edge graph, rows and columns in
        edge order, built from a named rule. An explicit incidence has no
        rule: its matrix is given to `store_matrix` when the system is made."""
        if self.infinite:
            raise NotApplicableError("truncate the system first")
        return g.read_only(g.incidence_array(self.incidence, self.graph.edges))

    def store_matrix(self, A):
        """Make A, marked read-only, this system's `incidence_matrix`."""
        self.__dict__["incidence_matrix"] = g.read_only(A)

    @cached_property
    def log_norms(self):
        """Read-only vector of ln ||phi_e'|| in edge order, by `family.log_norms`."""
        if self.infinite:
            raise NotApplicableError("truncate the system first")
        return g.read_only(self.family.log_norms(self.edge_ids))

    @cached_property
    def coefficients(self):
        """The four read-only arrays of `family.coefficients` of the edges."""
        return tuple(map(g.read_only, self.family.coefficients(self.edge_ids)))

    @cached_property
    def end_bounds(self):
        """Read-only rows (lo, hi): the ends of each edge's end space, in edge order."""
        ends = [self.spaces[e.dst] for e in self.graph.edges]
        return g.read_only(np.array([[s.lo for s in ends], [s.hi for s in ends]], dtype=float))

    @cached_property
    def lumping(self):
        """The edge graph on states: `graph.StateLumping` of the transposed
        `incidence_matrix`, one state per distinct successor set, in order
        of first occurrence; `state_of` maps each edge to its state."""
        return g.StateLumping(self.incidence_matrix.T)

    @cached_property
    def state_lists(self):
        """The successor set of each state as a list of positions, ascending."""
        return g.grouped(self.lumping.rows, self.lumping.feeding, len(self.lumping.members))

    @cached_property
    def state_arcs(self):
        """The quotient graph: for each state s, the distinct states of the
        edges in its successor set, ascending."""
        lumping = self.lumping
        return g.grouped(lumping.rows, lumping.state_of[lumping.feeding], len(lumping.members))

    @property
    def successor_map(self):
        """edge id -> tuple of allowed successor edge ids, in edge order:
        `state_lists` in labels, built on each call."""
        ids, lists, state = self.edge_ids, self.state_lists, self.lumping.state_of.tolist()
        return {a: tuple(ids[c] for c in lists[s]) for a, s in zip(ids, state)}

    @cached_property
    def sccs(self):
        """Every strongly connected component of `state_arcs` as a tuple of
        states, sink first: one `graph.tarjan_scc` pass on the k states, from
        which `components`, `prune` and `graph.scc_decompose` all read."""
        return tuple(map(tuple, g.tarjan_scc(self.state_arcs)))

    @cached_property
    def scc_of(self):
        """Each state's index in `sccs`: the one SCC index of the states."""
        scc_of = np.zeros(len(self.lumping.members), dtype=np.intp)
        for n, scc in enumerate(self.sccs):
            scc_of[list(scc)] = n
        return scc_of

    @cached_property
    def component_positions(self):
        """Sorted positions of each strongly connected component of the edge
        graph that carries a cycle, ordered by their first: the edges in the
        successor set of a state of their own state's quotient SCC, one
        component per quotient SCC."""
        lumping, comps, own = self.lumping, {}, self.scc_of[self.lumping.state_of]
        cyclic = np.zeros(len(own), dtype=bool)
        cyclic[lumping.feeding[self.scc_of[lumping.rows] == own[lumping.feeding]]] = True
        for e, n in zip(np.flatnonzero(cyclic).tolist(), own[cyclic].tolist()):
            comps.setdefault(n, []).append(e)
        return tuple(map(tuple, comps.values()))

    @cached_property
    def components(self):
        """Edge-id sets of `component_positions`, in their order."""
        ids = self.edge_ids
        return tuple(frozenset(map(ids.__getitem__, comp)) for comp in self.component_positions)

    @cached_property
    def engines(self):
        """The family's `engine_type` for each of `component_positions`, in
        their order, built from the lumping (`lumping_of`) of the component's
        boolean block of `incidence_matrix` and its `letter_values`. Each engine
        offers `find_root(t0, tolerance)`, `certified_pressure(t)`,
        `newton_start(tolerance)`, `decay` (a proved lower bound on -P') and
        its methods' names. It keeps its last vectors and roots, so every
        analysis starts from the work of the ones before it.

        An engine depends on nothing but its block and letter values, so
        it is looked up in `engine_pool` by the key (engine type, size,
        packed block, bytes of the values), equal only for blocks equal
        entry for entry in position order: components that are copies of
        one block get one engine, and a subsystem cut from this system gets
        the engines its components already have here."""
        engine_type, A, engines = self.family.engine_type, self.incidence_matrix, []
        for idx in map(list, self.component_positions):
            # a component of every edge is all of A, taken without a copy
            block = A if len(idx) == len(A) else A[idx][:, idx]
            values = engine_type.letter_values(self, idx)
            key = (engine_type, len(idx), np.packbits(block).tobytes(), values.tobytes())
            if key not in self.engine_pool:
                lumping = engine_type.lumping_of(self, idx, block)
                self.engine_pool[key] = engine_type(lumping, values)
            engines.append(self.engine_pool[key])
        return tuple(engines)

    @property
    def irreducible(self) -> bool:
        """Whether the edge graph is one strongly connected component that
        carries a cycle, i.e. the incidence matrix is irreducible."""
        cyclic = self.component_positions
        return len(cyclic) == 1 and len(cyclic[0]) == len(self.graph.edges)

    def restrict(self, edge_ids) -> "GdmsSystem":
        """Subsystem on the given edges, kept in this system's edge order
        (see `subsystem`). Raises InputError for an id that is not an edge
        of this system."""
        index, wanted = self.edge_index, set()
        for e in edge_ids:
            if e not in index:
                raise InputError(f"unknown edge id {e!r}")
            wanted.add(index[e])
        return self.subsystem(sorted(wanted))

    def subsystem(self, idx) -> "GdmsSystem":
        """Subsystem on the edges at the ascending positions `idx`.

        A finite subsystem slices this system's incidence matrix at those
        positions instead of rebuilding it, and shares its `engine_pool`.
        """
        edges = tuple(self.graph.edges[k] for k in idx)
        sub = replace(self, graph=g.MultiGraph(self.graph.vertices, edges))
        sub.engine_pool = self.engine_pool
        if not self.infinite:
            sub.store_matrix(self.incidence_matrix[idx][:, idx])
        return sub

    def truncate(self, size: int) -> "GdmsSystem":
        """Finite head {1..size} of an infinite integer-labelled family,
        with an empty `engine_pool`: heads of different sizes share no
        block, and a sweep should not keep every head's engines alive.
        Raises InputError unless size is an integer (`graph.as_integer`)
        and >= 1."""
        if not self.infinite:
            raise InputError("truncate applies to infinite systems only")
        size = g.as_integer(size, "truncation size")
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
        last = self.graph.edges[self.edge_index[word[-1]]]
        return self.spaces[last.dst]

    def _admitted(self, word):
        """(word as a tuple, its terminal space); InputError unless the word
        is admissible."""
        word = tuple(word)
        if not g.is_admissible(self, word):
            raise InputError(f"word {word} is not admissible")
        return word, self.terminal_space(word)

    def evaluate(self, word, x: float) -> float:
        """phi_word(x); the word must be admissible, x in the terminal space."""
        word, space = self._admitted(word)
        if not space.contains(x):
            raise DomainError(f"point {x} outside vertex space [{space.lo}, {space.hi}]")
        images = m.word_images(self.family.coefficients(word), [range(len(word))], [[x]])
        return float(images[0, 0])

    def word_interval(self, word):
        """Image interval phi_word(X_t(word)), exact for monotone maps; the
        word must be admissible."""
        word, space = self._admitted(word)
        images = m.word_images(self.family.coefficients(word), [range(len(word))],
                               [[space.lo], [space.hi]])
        return float(images.min()), float(images.max())

    def word_intervals(self, words):
        """`word_interval` of each row of `words`, an integer array of edge
        positions with one word of equal length per row, by one
        `maps.word_images` call on the edge tables: two float arrays."""
        words = np.asarray(words)
        images = m.word_images(self.coefficients, words, self.end_bounds[:, words[:, -1]])
        return images.min(axis=0), images.max(axis=0)

    def contraction_bound(self):
        """The family's `contraction_bound` (s_eff, step): diam decays like s_eff^floor(n/step)."""
        return self.family.contraction_bound(self)

    def max_space_diameter(self) -> float:
        return max(s.diameter for s in self.spaces.values())


def cf_system(incidence: g.IncidenceSpec, truncate: int | None = None,
              name: str = "cf") -> GdmsSystem:
    """Continued-fraction system on the vertex space [0, 1] under a named rule."""
    if incidence.kind == g.EXPLICIT:
        raise InputError("the cf family uses a named incidence rule")
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


def similarity_system(name, vertices, spaces, edges, incidence, allow=()) -> GdmsSystem:
    """Build a finite similarity system.

    edges: iterable of (id, src, dst, SimilarityMap).
    allow: the (a, b) edge-id pairs of an explicit incidence, b allowed to
    follow a. A pair that names an unknown edge or whose edges do not meet
    raises SpecError (see `graph.incidence_array`). A rule that compares
    integer labels refuses other edge ids with InputError.
    """
    return _similarity_system(name, vertices, spaces, edges, incidence,
                              [label for a, b in allow for label in (a, b)])


def _similarity_system(name, vertices, spaces, edges, incidence, labels, lines=None):
    """`similarity_system` with the allow pairs laid out flat in `labels`
    (a1, b1, a2, b2, ...); `lines`, the spec-file line of each pair, goes to
    `graph.incidence_array`."""
    incidence.check_ids(eid for eid, _, _, _ in edges)
    edge_objs = tuple(g.Edge(eid, src, dst) for eid, src, dst, _ in edges)
    fam = m.SimilarityFamily({eid: sm for eid, _, _, sm in edges})
    system = GdmsSystem(name=name, graph=g.MultiGraph(tuple(vertices), edge_objs),
                        incidence=incidence, family=fam,
                        spaces=dict(spaces), infinite=False)
    if incidence.kind == g.EXPLICIT:
        system.store_matrix(g.incidence_array(incidence, edge_objs, labels, lines))
    elif labels:
        raise InputError("allow pairs need an explicit incidence")
    return system


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
    signs = [1] * n if signs is None else signs
    for arg, values in (("offsets", offsets), ("signs", signs)):
        if len(values) != n:
            raise InputError(f"{arg} has {len(values)} entries for {n} ratios")
    space = m.VertexSpace("v", lo, hi)
    edges = [(f"e{k+1}", "v", "v", m.SimilarityMap(ratios[k], offsets[k], signs[k]))
             for k in range(n)]
    return similarity_system(name, ("v",), {"v": space}, edges,
                             g.IncidenceSpec(g.FULL))


def prune(system: GdmsSystem):
    """Drop edges with no allowed successor, iterated to a fixpoint: the
    edges from which no cycle can be reached. Returns (pruned system,
    removed ids in the order the iteration drops them).

    Removing such edges leaves the limit set unchanged: no infinite word can
    pass through them. One sweep over `system.sccs`, sink first, gives each
    state the round in which the iteration drops its edges (0: never), read
    from one member per SCC: a state stays if a successor state stays, else
    it goes one round after its last successor. The members of an SCC read
    each other as staying, so a cycle keeps them all.
    """
    if system.infinite:
        return system, ()
    arcs, rounds = system.state_arcs, [0] * len(system.state_arcs)
    for scc in system.sccs:
        later = [rounds[s] for s in arcs[scc[0]]]
        if 0 not in later:
            rounds[scc[0]] = 1 + max(later, default=0)
    rounds = np.array(rounds, dtype=np.intp)[system.lumping.state_of]
    dead, ids = np.flatnonzero(rounds), system.edge_ids
    if not dead.size:
        return system, ()
    return (system.subsystem(np.flatnonzero(rounds == 0).tolist()),
            tuple(ids[k] for k in dead[np.argsort(rounds[dead], kind="stable")].tolist()))


def validate(system: GdmsSystem):
    """Run load-time checks; returns (system, warnings).

    Checks: contraction, image containment of every edge, successor
    pruning (explicit incidence only: rule truncations keep their edges so
    structural reports stay meaningful), and a level-1 interior-overlap
    sanity check (warning only).
    """
    edges = system.graph.edges
    los, his = system.word_intervals(np.arange(len(edges))[:, None])
    images = list(zip(los.tolist(), his.tolist()))
    for e, (lo, hi) in zip(edges, images):
        dst_space = system.spaces[e.src]
        # written as "not inside" so that a NaN end is refused too
        if not (dst_space.lo - 1e-12 <= lo and hi <= dst_space.hi + 1e-12):
            raise SpecError(
                f"edge {e.id!r}: image [{lo}, {hi}] leaves the target space "
                f"[{dst_space.lo}, {dst_space.hi}]")
    warnings = _osc_level1_warnings(edges, images)

    if not system.infinite and system.incidence.kind == g.EXPLICIT:
        system, removed = prune(system)
        if removed:
            warnings.append(f"pruned {len(removed)} edge(s) with no successor: "
                            + ", ".join(map(str, removed)))
    return system, tuple(warnings)


def _osc_level1_warnings(edges, images):
    """Interior overlaps wider than 1e-12 between the first-level images
    `images[k] = (lo, hi)` of edges with a common source vertex.

    Per source vertex, a sweep in order of lower ends keeps a list of
    active images. An image p leaves it at the first q with
    hi_p - lo_q <= 1e-12: every later lower end is at least lo_q, and
    rounded subtraction is monotone, so p overlaps no later image by more
    than 1e-12. The cost is O(E log E) plus the pairs that are active
    together. Warnings come in edge-position order of the pair (i < j), the
    width min(hi) - max(lo) taken with edge i first, as a loop over all
    pairs would give them.
    """
    by_src = {}
    for k, e in enumerate(edges):
        by_src.setdefault(e.src, []).append(k)
    found = []
    for ks in by_src.values():
        ks.sort(key=lambda k: images[k][0])
        active = []
        for q in ks:
            lo_q = images[q][0]
            active = [p for p in active if images[p][1] - lo_q > 1e-12]
            for p in active:
                i, j = min(p, q), max(p, q)
                (lo_a, hi_a), (lo_b, hi_b) = images[i], images[j]
                overlap = min(hi_a, hi_b) - max(lo_a, lo_b)
                if overlap > 1e-12:
                    found.append((i, j, overlap))
            active.append(q)
    found.sort()
    return [f"images of edges {edges[i].id!r} and {edges[j].id!r} overlap on interior "
            f"width {overlap:.3g}; open set condition may fail"
            for i, j, overlap in found]


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
