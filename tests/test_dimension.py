import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdmskit as gk
from gdmskit import dimension as gd
from gdmskit import graph as gg
from gdmskit import thermo
from conftest import (E2, feeder_system, log_rho, mirrored_blocks_system,
                      packed_system, period_two_system, two_component_system,
                      random_packed_system)


def cf_sys(kind=gg.FULL, width=1, truncate=None):
    return gk.cf_system(gk.IncidenceSpec(kind, width), truncate=truncate)


class TestBowenDimension:
    def test_full_shift_moran_value(self):
        est = gk.bowen_dimension(gk.full_shift([1 / 3, 1 / 3]), tolerance=1e-10)
        want = math.log(2) / math.log(3)
        assert est.lo <= want <= est.hi
        assert est.width <= 1e-9

    def test_uneven_ratios_match_moran_equation(self):
        # sum r_e^t = 1 has the closed form log_2 of the golden ratio here
        est = gk.bowen_dimension(gk.full_shift([1 / 2, 1 / 4]))
        want = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
        assert est.lo - 1e-12 <= want <= est.hi + 1e-12

    def test_empty_limit_set(self):
        est = gk.bowen_dimension(cf_sys(gg.UPPER, truncate=5))
        assert (est.lo, est.hi) == (0.0, 0.0)
        assert est.method == gd.EMPTY_LIMIT_SET

    def test_cf_two_letter_bracket(self):
        est = gk.bowen_dimension(cf_sys(truncate=2), n_max=14)
        assert est.lo <= E2 <= est.hi
        assert est.width <= 1e-10
        assert est.method == gd.COLLOCATION_NEWTON

    def test_methods_agree_on_full_shifts(self, rng):
        # spectral bisection and the Moran root solve the same equation
        for _ in range(10):
            k = rng.randrange(2, 6)
            ratios = [rng.uniform(0.05, 0.9 / k) for _ in range(k)]
            sys = gk.full_shift(ratios)
            est = gk.bowen_dimension(sys, tolerance=1e-12)
            root = _moran_bisect(ratios)
            assert abs(est.mid - root) <= 1e-10

    def test_restriction_never_exceeds_whole(self, rng):
        checked = 0
        while checked < 8:
            sys = random_packed_system(rng)
            if sys is None or gk.empty_limit_set(sys):
                continue
            checked += 1
            whole = gk.bowen_dimension(sys)
            report = gk.scc_decompose(sys)
            for comp in report.components:
                part = gk.bowen_dimension(sys.restrict(comp))
                assert part.mid <= whole.mid + 1e-8


def _moran_bisect(ratios):
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if sum(r ** mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _dense_pressure(system):
    """t -> ln rho(B(t)) from dense eigvals of the whole E x E matrix.

    Edges are sorted by descending reach set first. Every arrow then stays
    in its strongly connected block or points to a later block, so B(t) is
    block upper triangular and eigvals deflates between blocks. In edge
    order, two linked blocks of equal radius can form a Jordan block at rho,
    where eigvals errs by about sqrt(eps).
    """
    ids = system.edge_ids
    n = len(ids)
    A = np.array([[float(gk.is_admissible(system, (a, b))) for b in ids] for a in ids])
    reach = np.eye(n, dtype=bool) | (A > 0)
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    order = sorted(range(n), key=lambda i: (-int(reach[i].sum()), tuple(reach[i])))
    A = A[np.ix_(order, order)]
    logs = np.array([math.log(system.family.map_for(ids[i]).ratio) for i in order])

    def pressure(t):
        rho = float(np.max(np.abs(np.linalg.eigvals(A * np.exp(t * logs)))))
        return math.log(rho) if rho > 0 else -math.inf
    return pressure


def _reference_root(pressure, tol=1e-13):
    """Plain bisection for the sign change of the whole-matrix pressure."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pressure(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _assert_certified(system, tolerance=1e-10):
    est = gk.bowen_dimension(system, tolerance)
    pressure = _dense_pressure(system)
    root = _reference_root(pressure)
    assert est.lo <= root <= est.hi
    assert est.width <= tolerance / 2
    assert est.lo == 0.0 or pressure(est.lo) >= 0.0
    assert pressure(est.hi) < 0.0
    return est, root


def _self_loop_system():
    return packed_system("self-loop", {"s": 0.5}, {("s", "s")})


class TestComponentRoot:
    def test_overshooting_slope_bisects(self):
        # P(t) = 1 - 2t with the slope -0.5: the first Newton step overshoots
        # to t = 1, the step back would leave [0, 1], so t bisects to 0.5
        ts = []

        def oracle(t):
            ts.append(t)
            return 1.0 - 2.0 * t, -0.5

        assert gd._component_root(oracle, 1e-10) == (0.5, 3)
        assert ts == [0.0, 1.0, 0.5]

    def test_steps_that_round_onto_tried_points_end_the_search(self):
        # P changes sign inside a 2-ulp bracket, and every Newton step of
        # 1.56 ulp rounds onto a point already tried, as on a closed-form
        # model at tolerance 5e-324: bisection takes the one double inside,
        # then no double is left, and the search ends there
        a = 0.36329231195052736

        def rounding(t):
            return (2.2e-16 if t <= a else -2.2e-16), -2.57

        root, steps = gd._component_root(rounding, 5e-324, a)
        assert root in (a, math.nextafter(a, 1.0)) and steps <= 4


class TestPerronNewton:
    def test_mirrored_linked_blocks(self):
        # equal radii and a link: the whole matrix has no simple Perron root
        est, _ = _assert_certified(mirrored_blocks_system())
        assert est.method == gd.PERRON_NEWTON
        assert 0 < est.iterations < 34

    def test_interleaved_equal_radius_components(self):
        # two golden-mean blocks {e0, e4} and {e1, e2}, linked by e2 -> e0;
        # dense eigvals of the whole matrix in edge order err near 1e-8 here
        allowed = {("e0", "e4"), ("e4", "e0"), ("e4", "e4"), ("e1", "e2"),
                   ("e2", "e1"), ("e2", "e2"), ("e2", "e0")}
        sys = packed_system("golden-pair", {f"e{k}": 0.19 for k in range(5)}, allowed)
        est, _ = _assert_certified(sys)
        want = math.log((1 + math.sqrt(5)) / 2) / math.log(1 / 0.19)
        assert est.lo <= want <= est.hi

    def test_singleton_self_loop_has_dimension_zero(self):
        est, root = _assert_certified(_self_loop_system())
        assert est.lo == 0.0
        assert root <= est.hi <= 1e-10

    def test_self_loop_beside_a_block(self):
        sys = packed_system("loop+block", {"s": 0.5, "a": 0.2, "b": 0.2},
                            {("s", "s"), ("s", "a"), ("a", "a"), ("a", "b"),
                             ("b", "a"), ("b", "b")})
        est, _ = _assert_certified(sys)
        want = math.log(2) / math.log(5)
        assert est.lo - 1e-12 <= want <= est.hi + 1e-12

    def test_period_two_component(self):
        # rho(B(t))^2 = (0.3^t + 0.2^t)(0.25^t + 0.1^t)
        est, _ = _assert_certified(period_two_system())
        h = est.mid
        assert (0.3 ** h + 0.2 ** h) * (0.25 ** h + 0.1 ** h) == pytest.approx(1.0, abs=1e-9)

    def test_feeder_and_isolated_edges(self):
        _assert_certified(feeder_system())
        _assert_certified(two_component_system(r1=1 / 3, r2=1 / 3, linked=True))

    def test_full_shifts_match_moran_root(self, rng):
        for _ in range(5):
            k = rng.randrange(2, 5)
            ratios = [rng.uniform(0.05, 0.9 / k) for _ in range(k)]
            est, _ = _assert_certified(gk.full_shift(ratios))
            assert est.method == gd.MORAN_EXACT
            assert est.lo - 1e-12 <= _moran_bisect(ratios) <= est.hi + 1e-12

    def test_moran_disagreement_is_refused(self, monkeypatch):
        # the closed form of ratios 1.2 times larger has a later root
        closed_form = gd._full_shift_pressure
        monkeypatch.setattr(gd, "_full_shift_pressure",
                            lambda log_r, t: closed_form(log_r + math.log(1.2), t))
        with pytest.raises(gk.ConvergenceError, match="disagrees with the Moran root"):
            gk.bowen_dimension(gk.full_shift([0.3, 0.4]))

    @pytest.mark.parametrize("offset, end", [(-3e-9, 1), (3e-9, -1), (-0.25, 1)])
    def test_root_more_than_a_quarter_tolerance_off_is_refused(self, offset, end):
        # a root estimate off by more than tol/4 fails the sign test of the
        # end on the near side of it, and the refusal names that end
        tol, h = 1e-10, 0.3 + offset
        calls = []

        def bounds(t):
            calls.append(t)
            return 0.3 - t, 0.3 - t
        with pytest.raises(gk.ConvergenceError) as refusal:
            gd._certified_bracket(bounds, h, tol)
        assert calls[-1] == pytest.approx(h + end * tol / 4, abs=1e-15)
        assert str(refusal.value) == (f"pressure bounds at t = {calls[-1]!r} hold 0: they "
                                      f"cannot certify a bracket of width 5e-11")

    def test_unresolved_perron_root_is_refused(self, monkeypatch):
        block = gk.full_shift([0.3, 0.4]).engines[0]
        monkeypatch.setattr(thermo, "collatz_wielandt",
                            lambda B, start: (0.9, 1.1, np.ones(len(B))))
        with pytest.raises(gk.ConvergenceError, match="not resolved"):
            block.pressure_slope(0.5)

    def test_nonpositive_left_perron_vector_is_refused(self, monkeypatch):
        # the golden-mean block {a -> a, a -> b, b -> a} has two states, one
        # per distinct successor set, so its Perron vectors have two entries
        block = packed_system("golden", {"a": 0.3, "b": 0.4},
                              {("a", "a"), ("a", "b"), ("b", "a")}).engines[0]
        assert block.size == 2
        monkeypatch.setattr(thermo, "equilibrium_weights",
                            lambda B, v, upper: np.array([1.5, -0.5]))
        with pytest.raises(gk.ConvergenceError, match="not positive"):
            block.pressure_slope(0.5)

    def test_overfull_system_rejected(self):
        sys = packed_system("overfull", {"a": 0.6, "b": 0.6},
                            {(x, y) for x in "ab" for y in "ab"})
        with pytest.raises(gk.UnsupportedAnalysisError, match="P\\(1\\) > 0"):
            gk.bowen_dimension(sys)


@st.composite
def _explicit_specs(draw, max_edges=6):
    """`packed_system` arguments of one-vertex systems of 2 to `max_edges`
    edges. Row i of the incidence matrix repeats the successor set of row
    copies[i] when copies[i] < i, so many systems have edges that share
    successor sets (fewer engine states than edges)."""
    n = draw(st.integers(2, max_edges))
    ratios = draw(st.lists(st.floats(0.01, 0.4), min_size=n, max_size=n))
    scale = min(1.0, 0.95 / sum(ratios))
    flags = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    copies = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    rows = []
    for i in range(n):
        rows.append(rows[copies[i]] if copies[i] < i else flags[i * n:(i + 1) * n])
    ids = [f"e{k}" for k in range(n)]
    allowed = {(ids[i], ids[j]) for i in range(n) for j in range(n) if rows[i][j]}
    return "hyp", {e: r * scale for e, r in zip(ids, ratios)}, allowed


def _explicit_systems():
    return _explicit_specs().map(lambda spec: packed_system(*spec))


@settings(max_examples=60, deadline=None)
@given(_explicit_systems())
def test_bracket_contains_dense_bisection_root(system):
    if gk.empty_limit_set(system):
        assert gk.bowen_dimension(system).method == gd.EMPTY_LIMIT_SET
    else:
        _assert_certified(system)


@settings(max_examples=60, deadline=None)
@given(_explicit_specs(), st.sampled_from([1e-4, 1e-7, 1e-10, 1e-12]))
def test_system_bracket_is_the_max_of_the_component_brackets(spec, tolerance):
    # HD(J) is the largest component root, so [max lo, max hi] of proved
    # component brackets is proved; each call runs on a fresh system
    system = packed_system(*spec)
    est = gk.bowen_dimension(system, tolerance)
    report = gk.component_dimensions(packed_system(*spec), tolerance)
    assert report.overall == est
    assert est.width <= tolerance / 2
    if not report.estimates:
        assert est.method == gd.EMPTY_LIMIT_SET
        return
    assert (est.lo, est.hi) == (max(e.lo for e in report.estimates),
                                max(e.hi for e in report.estimates))
    assert est.lo <= _reference_root(_dense_pressure(system)) <= est.hi


@settings(max_examples=60, deadline=None)
@given(_explicit_systems(), st.sampled_from([0.0, 0.3, 0.8, 1.5]))
def test_lumped_engines_hold_the_dense_pressure_and_measure(system, t):
    # each engine has one state per distinct successor set of its block,
    # and its certified bracket holds ln rho of the dense block B(t) from
    # eigvals, which is no proved bound: 1e-13 absorbs its rounding
    A, log_r = system.incidence_matrix, system.log_norms
    for engine, idx in zip(system.engines, system.component_positions):
        block = A[np.ix_(idx, idx)]
        assert engine.size == len({tuple(row) for row in block})
        rho = max(abs(np.linalg.eigvals(block * np.exp(t * log_r[list(idx)]))))
        lo, hi = engine.certified_pressure(t)
        assert lo - 1e-13 <= math.log(rho) <= hi + 1e-13
    if not system.irreducible:
        return
    # the measure's masses, expanded from the engine's states to the edges,
    # sum to 1 and refine: m([a]) = sum over allowed b of m([ab])
    h = gk.bowen_dimension(system, 1e-12).mid
    measure = gk.conformal_cylinder_measure(system, h)
    assert sum(measure.edge_masses.values()) == pytest.approx(1.0, abs=1e-12)
    for a in system.edge_ids:
        refined = sum(measure.word_mass(system, (a, b)) for b in system.edge_ids)
        assert measure.edge_masses[a] == pytest.approx(refined, rel=1e-8)


# a two-vertex graph-directed construction (Mauldin-Williams): the edges
# that end at one vertex share a successor set, the edges leaving it, so the
# engine has one state per vertex and works on the vertex matrix
# [[0.4^t, 0.3^t], [0.5^t, 0.2^t]]
TWO_VERTEX = """system two-vertex
space p 0 1
space q 0 1
edge a p p similarity 0.4 0 1
edge b p q similarity 0.3 0.5 1
edge c q p similarity 0.5 0 1
edge d q q similarity 0.2 0.6 1
incidence full
"""


def _many_edge_spec(vertices=4, per_vertex=200):
    """A vertex-determined system with `per_vertex` edges leaving each
    vertex, edge j of vertex i landing on vertex (i + j) mod `vertices`;
    the level-1 images are packed left to right inside [0, 1]."""
    lines = ["system many-edges"] + [f"space v{i} 0 1" for i in range(vertices)]
    for i in range(vertices):
        cursor = 0.0
        for j in range(per_vertex):
            ratio = (0.9 - 0.1 * i) / per_vertex * (0.75 + (j % 5) / 8)
            lines.append(f"edge e{i}_{j} v{i} v{(i + j) % vertices} similarity {ratio!r} "
                         f"{cursor!r} 1")
            cursor += ratio
    return "\n".join(lines + ["incidence full"]) + "\n"


def _vertex_matrix_root(system):
    """The zero of rho(M(t)) - 1 by bisection with numpy eigvals, M(t)[i, j]
    the sum of r_e^t over the edges e from vertex i to vertex j."""
    vertices = system.graph.vertices
    where = {v: k for k, v in enumerate(vertices)}
    ratios = [(where[e.src], where[e.dst], system.family.map_for(e.id).ratio)
              for e in system.graph.edges]

    def rho(t):
        M = np.zeros((len(vertices), len(vertices)))
        for i, j, r in ratios:
            M[i, j] += r ** t
        return max(abs(np.linalg.eigvals(M)))
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rho(mid) >= 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


class TestVertexDeterminedLumping:
    @pytest.mark.parametrize("text,states", [(TWO_VERTEX, 2), (_many_edge_spec(), 4)])
    def test_solves_are_vertex_sized(self, text, states, monkeypatch):
        system, _ = gk.parse_spec(text)
        assert [engine.size for engine in system.engines] == [states]
        solves = _solve_counter(monkeypatch)
        est = gk.bowen_dimension(system)
        assert solves and max(solves) <= states
        assert est.method == gd.PERRON_NEWTON
        assert est.lo <= _vertex_matrix_root(system) <= est.hi
        assert est.width <= 1e-10 / 2

    def test_two_vertex_bracket_agrees_with_the_dense_engine(self):
        # the dense 4 x 4 engine bracketed the same zero as
        # [0.65023327589243407, 0.65023327594243396]
        est = gk.bowen_dimension(gk.parse_spec(TWO_VERTEX)[0])
        assert abs(est.lo - 0.65023327589243407) <= 1e-14
        assert abs(est.hi - 0.65023327594243396) <= 1e-14


class TestCfDimension:
    def test_banded_bracket_below_enumeration_root(self):
        # word enumeration gave [0.6055, 0.6118]; Z_{n+1}/Z_n crosses 1 near 0.5773
        est = gk.bowen_dimension(cf_sys(gg.BANDED, 1, truncate=8), n_max=10)
        assert est.method == gd.COLLOCATION_NEWTON
        assert est.hi < 0.6118
        assert est.lo <= 0.57732 <= est.hi + 1e-5
        assert est.width <= 1e-10 / 2

    def test_five_letters_at_default_n_max(self):
        # enumeration to n_max = 14 tripped the count guard here
        est = gk.bowen_dimension(cf_sys(truncate=5))
        assert 0.8 < est.lo <= est.hi < 0.9
        assert gk.pressure(cf_sys(truncate=5), est.lo).lower >= 0.0
        assert gk.pressure(cf_sys(truncate=5), est.hi).upper < 0.0

    def test_single_letter_has_dimension_zero(self):
        est = gk.bowen_dimension(cf_sys(truncate=1), tolerance=1e-8)
        assert est.lo == 0.0 and est.hi <= 1e-8 / 2

    def test_bounds_holding_zero_are_refused(self):
        # a pressure known only to +/- 1e-3 cannot certify a 1e-10 bracket
        with pytest.raises(gk.ConvergenceError, match="cannot certify"):
            gd._certified_bracket(lambda t: (0.3 - t - 1e-3, 0.3 - t + 1e-3), 0.3, 1e-10)

    def test_bounds_certify_both_ends(self):
        lo, hi = gd._certified_bracket(lambda t: (0.3 - t - 1e-13, 0.3 - t + 1e-13),
                                       0.3, 1e-10)
        assert lo <= 0.3 - 1e-13 and 0.3 + 1e-13 < hi
        assert hi - lo <= 1e-10 / 2

    @pytest.mark.parametrize("h, tested", [(0.3, [0.3 - 2.5e-11, 0.3 + 2.5e-11]),
                                           (0.0, [2.5e-11, 5e-11])])
    def test_pressure_that_stays_positive_is_refused_at_hi(self, h, tested):
        # with lo = 0, the high end is tested at h + tol/4 and then at tol/2
        calls = []

        def bounds(t):
            calls.append(t)
            return 1.0, 1.0
        with pytest.raises(gk.ConvergenceError) as refusal:
            gd._certified_bracket(bounds, h, 1e-10)
        assert calls == pytest.approx(tested, rel=1e-15)
        assert str(refusal.value) == (f"pressure bounds at t = {calls[-1]!r} hold 0: they "
                                      f"cannot certify a bracket of width 5e-11")


class TestOnePointCertificate:
    def test_exact_linear_pressure_needs_one_bounds_call(self):
        calls = []

        def bounds(t):
            calls.append(t)
            return 0.3 - t, 0.3 - t
        lo, hi = gd._certified_bracket(bounds, 0.3, 1e-10, decay=1.0)
        assert calls == [0.3]
        assert lo <= 0.3 < hi
        assert hi - lo <= 1e-10 / 2

    def test_bounds_too_wide_fall_back_to_each_end(self):
        # +/- 2e-11 at h is more than decay * tol/4 = 1.25e-11, but each end
        # shows its sign from its own bounds
        calls = []

        def bounds(t):
            calls.append(t)
            return 0.3 - t - 2e-11, 0.3 - t + 2e-11
        lo, hi = gd._certified_bracket(bounds, 0.3, 1e-10, decay=0.5)
        assert calls == [0.3, lo, hi]
        assert lo <= 0.3 - 2e-11 and 0.3 + 2e-11 < hi

    @pytest.mark.parametrize("offset, end", [(-3e-9, 1), (3e-9, -1)])
    def test_one_end_decided_the_other_is_refused_at_its_own_test(self, offset, end):
        # h is off by 3e-9: the call at h decides only the end beyond the
        # root, and the near end fails its own test
        tol, h = 1e-10, 0.3 + offset
        calls = []

        def bounds(t):
            calls.append(t)
            return 0.3 - t, 0.3 - t
        with pytest.raises(gk.ConvergenceError) as refusal:
            gd._certified_bracket(bounds, h, tol, decay=1.0)
        assert calls == [h, pytest.approx(h + end * tol / 4, abs=1e-15)]
        assert str(refusal.value) == (f"pressure bounds at t = {calls[1]!r} hold 0: they "
                                      f"cannot certify a bracket of width 5e-11")

    def test_bounds_holding_zero_are_still_refused(self):
        with pytest.raises(gk.ConvergenceError, match="cannot certify"):
            gd._certified_bracket(lambda t: (0.3 - t - 1e-3, 0.3 - t + 1e-3), 0.3, 1e-10,
                                  decay=1.0)


class TestToleranceBelowTheDoubleSpacing:
    @staticmethod
    def _bounds(pressure):
        """`pressure` as the bounds of a bracket certificate that fails on
        its 1000th call, so that a certificate that never ends fails here."""
        calls = []

        def bounds(t):
            calls.append(t)
            assert len(calls) < 1000, "the bracket certificate does not end"
            return pressure(t)
        return bounds

    @pytest.mark.parametrize("tolerance", [5e-324, 1e-300, 1e-17])
    @pytest.mark.parametrize("decay", [0.0, 1.0])
    def test_ends_that_round_to_h_are_refused(self, tolerance, decay):
        # tolerance/4 is 0 or below half an ulp of h, so h -/+ tolerance/4 is h
        bounds = self._bounds(lambda t: (0.63 - t, 0.63 - t))
        with pytest.raises(gk.ConvergenceError,
                           match=f"tolerance {tolerance!r} is below the spacing of doubles "
                                 f"at t = 0.63:"):
            gd._certified_bracket(bounds, 0.63, tolerance, decay)

    def test_smallest_separable_tolerance_is_certified(self):
        bounds = self._bounds(lambda t: (0.63 - t, 0.63 - t))
        lo, hi = gd._certified_bracket(bounds, 0.63, 1e-15, decay=1.0)
        assert lo < 0.63 < hi and hi - lo <= 1e-15 / 2


class TestFixedEnds:
    """A bracket's ends are h -/+ tolerance/4 (or [0, tolerance/2] from
    lo = 0), each proved where it lies or refused: no end is searched for."""

    @settings(max_examples=300, deadline=None)
    @given(h=st.floats(0.0, 1.0), near_zero=st.booleans(),
           tolerance=st.floats(1e-15, 1e-3), decay=st.sampled_from([0.0, 0.5, 1.0]),
           data=st.data())
    def test_any_bounds_get_at_most_three_calls_and_fixed_ends(self, h, near_zero, tolerance,
                                                               decay, data):
        h = h * tolerance if near_zero else h
        calls = []

        def bounds(t):
            # arbitrary bounds at the scale of the sign tests
            calls.append(t)
            lower = data.draw(st.floats(-2.0, 2.0)) * tolerance
            return lower, lower + data.draw(st.floats(0.0, 2.0)) * tolerance
        try:
            lo, hi = gd._certified_bracket(bounds, h, tolerance, decay)
        except gk.ConvergenceError:
            assert len(calls) <= 3
            return
        assert len(calls) <= 3
        assert lo == max(0.0, h - tolerance / 4)
        top = h + tolerance / 4
        assert 0.0 <= top - hi <= 2 * math.ulp(top) or (lo == 0.0 and hi == tolerance / 2)
        assert lo <= h < hi and hi - lo <= tolerance / 2

    @settings(max_examples=200, deadline=None)
    @given(z=st.floats(-0.01, 1.0), offset=st.floats(-1.0, 1.0),
           tolerance=st.floats(1e-15, 1e-3), width=st.floats(0.0, 1.0),
           decay=st.sampled_from([0.0, 0.25, 0.5]))
    def test_a_certified_bracket_holds_the_zero_of_a_linear_pressure(self, z, offset, tolerance,
                                                                     width, decay):
        # P(t) = z - t, known to +/- width * tolerance, from an h within
        # tolerance/2 of z; decay is below the slope 1, with room for rounding
        h = max(0.0, z + offset * tolerance / 2)
        spread = width * tolerance
        try:
            lo, hi = gd._certified_bracket(lambda t: (z - t - spread, z - t + spread), h,
                                           tolerance, decay)
        except gk.ConvergenceError:
            return
        assert (lo == 0.0 or lo <= z) and z < hi

    @staticmethod
    def _recorded_bounds(monkeypatch):
        calls = []
        certified_pressure = thermo.CfCollocation.certified_pressure

        def recorded(engine, t):
            calls.append(t)
            return certified_pressure(engine, t)
        monkeypatch.setattr(thermo.CfCollocation, "certified_pressure", recorded)
        return calls

    @pytest.mark.parametrize("kind, size, tolerance", [(gg.FULL, 2, 3e-13),
                                                       (gg.BANDED, 8, 2e-13)])
    def test_ends_too_close_for_the_one_point_check_are_tested_themselves(
            self, kind, size, tolerance, monkeypatch):
        calls = self._recorded_bounds(monkeypatch)
        est = gk.bowen_dimension(cf_sys(kind, 1, truncate=size), tolerance)
        assert calls == [calls[0], est.lo, est.hi]
        assert est.lo < calls[0] < est.hi and est.width <= tolerance / 2

    def test_zero_dimension_takes_the_half_tolerance_end(self, monkeypatch):
        # h = 0 and P_upper(tol/4) >= 0: the bracket [0, tol/2] is proved
        calls = self._recorded_bounds(monkeypatch)
        est = gk.bowen_dimension(cf_sys(truncate=1), 1e-13)
        assert (est.lo, est.hi, est.iterations) == (0.0, 5e-14, 1)
        assert calls == [0.0, 2.5e-14, 5e-14]


class TestTwoLevelNewton:
    @pytest.mark.parametrize("size", [8, 20, 40])
    def test_banded_dimension_takes_few_full_size_solves(self, size, monkeypatch):
        # a cold Newton start took 31, 34 and 37 solves of size 20N, and a
        # second inverse iteration for the collocation eigenpair took 8;
        # Newton with Noda's iteration per step took 4 or 5 of size 20N and
        # 24 to 33 of size 8N. Inverse iteration takes one solve per step.
        solves = _solve_counter(monkeypatch)
        est = gk.bowen_dimension(cf_sys(gg.BANDED, 1, truncate=size))
        assert est.width <= 1e-10 / 2
        assert solves.count(size * thermo.COLLOCATION_NODES) <= 2
        assert solves.count(size * thermo.COARSE_NODES) <= 6

    def test_two_letters_at_tolerance_1e12_hold_e2(self):
        est = gk.bowen_dimension(cf_sys(truncate=2), tolerance=1e-12)
        assert est.lo <= E2 <= est.hi
        assert est.width <= 1e-12 / 2

    def test_two_letters_at_tolerance_1e13_are_refused(self):
        with pytest.raises(gk.ConvergenceError, match="cannot certify"):
            gk.bowen_dimension(cf_sys(truncate=2), tolerance=1e-13)

    def test_failed_coarse_engine_starts_at_the_model_root(self, monkeypatch):
        find_root = thermo.CfCollocation.find_root
        starts = []

        def coarse_fails(self, t0, tolerance):
            if self.nodes == thermo.COARSE_NODES:
                raise gk.ConvergenceError("coarse collocation refused")
            starts.append(t0)
            return find_root(self, t0, tolerance)
        monkeypatch.setattr(thermo.CfCollocation, "find_root", coarse_fails)
        est = gk.bowen_dimension(cf_sys(truncate=2))
        # the Moran root of the state model, ratios (a + 1/2)^-2, not t = 0
        assert starts == [pytest.approx(_moran_bisect([1.5 ** -2, 2.5 ** -2]), abs=1e-10)]
        assert est.lo <= E2 <= est.hi
        assert est.width <= 1e-10 / 2
        assert est.iterations == 4


class TestCoarseLevel:
    # from COARSE_WIDTH up the 8-node collocation finds the root and
    # certifies the bracket itself

    @pytest.mark.parametrize("size, model_solves", [(8, 14), (20, 18), (40, 26)])
    def test_loose_banded_dimension_takes_no_full_size_solve(self, size, model_solves,
                                                             monkeypatch):
        # the state model's solves (size N) are its own root search and the
        # sizes passes at the certificate's ends: its root vector is the
        # coarse level's first sizes, and the certificate at the coarse root
        # starts from the search's vector (24/31/44 when both were recomputed)
        solves = _solve_counter(monkeypatch)
        est = gk.bowen_dimension(cf_sys(gg.BANDED, 1, truncate=size), 1e-3)
        assert est.width <= 1e-3 / 2
        assert solves.count(size * thermo.COLLOCATION_NODES) == 0
        assert 0 < solves.count(size * thermo.COARSE_NODES) <= 6
        assert solves.count(size) <= model_solves

    def test_loose_sweep_takes_few_solves(self, monkeypatch):
        # 74 solves when each head's sizes were recomputed at the model and
        # coarse roots
        solves = _solve_counter(monkeypatch)
        sweep = gk.truncation_sweep(cf_sys(gg.BANDED, 1), [4, 6, 8], 1e-3)
        assert all(e.estimate.width <= 1e-3 / 2 for e in sweep.entries)
        assert len(solves) <= 45

    def test_refused_coarse_certificate_hands_its_root_to_the_full_level(self, monkeypatch):
        certified_pressure, find_root = (thermo.CfCollocation.certified_pressure,
                                         thermo.CfCollocation.find_root)
        starts = []

        def coarse_refuses(self, t):
            if self.nodes == thermo.COARSE_NODES:
                raise gk.ConvergenceError("coarse certificate refused")
            return certified_pressure(self, t)

        def recorded(self, t0, tolerance):
            starts.append((self.nodes, t0))
            return find_root(self, t0, tolerance)
        monkeypatch.setattr(thermo.CfCollocation, "certified_pressure", coarse_refuses)
        monkeypatch.setattr(thermo.CfCollocation, "find_root", recorded)
        sys = cf_sys(truncate=2)
        est = gk.bowen_dimension(sys, 1e-3)
        coarse = sys.engines[0].coarse
        # the coarse root is searched for once and starts the 20-node level
        assert starts == [(thermo.COARSE_NODES, starts[0][1]),
                          (thermo.COLLOCATION_NODES, coarse.root[0])]
        assert est.lo <= E2 <= est.hi and est.width <= 1e-3 / 2
        assert sys.engines[0].root[1] == 1e-3 and 0 < est.iterations <= 2

    def test_coarse_level_is_kept_and_the_tight_start_stays_cold(self):
        # one coarse engine per collocation; after a loose dimension has
        # warmed it, a tight start is still the one of a fresh engine
        fresh = cf_sys(gg.BANDED, 1, truncate=8).engines[0]
        engine = cf_sys(gg.BANDED, 1, truncate=8).engines[0]
        assert engine.level(1e-3) is engine.coarse is engine.coarse
        assert engine.level(thermo.COARSE_WIDTH) is engine.coarse
        assert engine.level(math.nextafter(thermo.COARSE_WIDTH, 0.0)) is engine
        block = gk.full_shift([0.3, 0.4]).engines[0]
        assert block.level(1e-2) is block.level(1e-10) is block
        gd._engine_estimate(engine, 1e-3)
        assert engine.coarse.root[1] == 1e-3 and engine.root is None
        assert engine.newton_start(1e-10) == fresh.newton_start(1e-10)
        assert np.array_equal(engine.right, fresh.right)

    def test_levels_share_one_state_model(self):
        engine = cf_sys(gg.BANDED, 1, truncate=8).engines[0]
        assert engine.coarse.model is engine.model

    @pytest.mark.parametrize("kind, width, size", [(gg.FULL, 1, 2), (gg.BANDED, 1, 8),
                                                   (gg.BANDED, 1, 20), (gg.BANDED, 2, 10)])
    def test_tight_dimension_after_a_loose_one_is_a_cold_one(self, kind, width, size):
        # whatever state the loose level leaves on the engines, a tight
        # dimension after it is the one of a fresh system, bit for bit
        fresh = gk.bowen_dimension(cf_sys(kind, width, truncate=size), 1e-10)
        warmed = cf_sys(kind, width, truncate=size)
        gk.bowen_dimension(warmed, 1e-3)
        est = gk.bowen_dimension(warmed, 1e-10)
        assert (est.lo, est.hi, est.iterations) == (fresh.lo, fresh.hi, fresh.iterations)


@cache
def _tight_mid(kind, width, size):
    """Midpoint of the 1e-12 bracket of the head {1..size} of a rule."""
    return gk.bowen_dimension(cf_sys(kind, width, truncate=size), 1e-12).mid


@st.composite
def _rule_heads(draw):
    """(kind, width, N) of a full (N <= 8), banded width 1 (N <= 40) or
    banded width 2 (N <= 10) head."""
    kind, width, most = draw(st.sampled_from([(gg.FULL, 1, 8), (gg.BANDED, 1, 40),
                                              (gg.BANDED, 2, 10)]))
    return kind, width, draw(st.integers(1, most))


@settings(max_examples=40, deadline=None)
@given(_rule_heads(), st.floats(thermo.COARSE_WIDTH, 1e-2))
def test_loose_brackets_hold_the_tight_midpoint(head, tol):
    kind, width, size = head
    est = gk.bowen_dimension(cf_sys(kind, width, truncate=size), tol)
    assert 0.0 <= est.lo <= est.hi <= 1.0 and est.width <= tol / 2
    assert est.lo <= _tight_mid(kind, width, size) <= est.hi
    if size == 2:  # every rule allows every pair of {1, 2}
        assert est.lo <= E2 <= est.hi


@pytest.mark.parametrize("tol", [1e-3, 1e-10])
def test_sweep_entries_are_the_dimensions_of_fresh_heads(tol):
    infinite = cf_sys(gg.BANDED, 1)
    sweep = gk.truncation_sweep(infinite, [2, 5, 8], tol)
    for entry in sweep.entries:
        est = gk.bowen_dimension(infinite.truncate(entry.size), tol)
        assert entry.estimate == est


@settings(max_examples=25, deadline=None)
@given(size=st.integers(1, 6), width=st.integers(1, 3),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_cf_truncations_are_certified_and_nested(size, width, tol):
    small = cf_sys(gg.BANDED, width, truncate=size)
    large = cf_sys(gg.BANDED, width, truncate=size + 1)
    est, est_large = gk.bowen_dimension(small, tol), gk.bowen_dimension(large, tol)
    for e in (est, est_large):
        assert 0.0 <= e.lo <= e.hi <= 1.0
        assert e.width <= tol / 2
    p0 = gk.pressure(small, 0.0)
    assert p0.lower <= log_rho(small) <= p0.upper
    # adding a letter cannot lower the dimension
    assert est.lo <= est_large.hi


@st.composite
def _nested_restrictions(draw):
    """(kind, width, N, F, G): letters F inside G inside {1..N} of a full
    (N <= 8), banded width 1 (N <= 12) or banded width 2 (N <= 10) rule."""
    kind, width, most = draw(st.sampled_from([(gg.FULL, 1, 8), (gg.BANDED, 1, 12),
                                              (gg.BANDED, 2, 10)]))
    size = draw(st.integers(1, most))
    outer = draw(st.lists(st.integers(1, size), min_size=1, unique=True))
    inner = draw(st.lists(st.sampled_from(sorted(outer)), min_size=1, unique=True))
    return kind, width, size, inner, outer


@settings(max_examples=100, deadline=None)
@given(_nested_restrictions(), st.sampled_from([1e-3, 1e-8, 1e-10, 1e-12]))
def test_restrictions_of_cf_truncations_are_certified_and_nested(case, tol):
    kind, width, size, inner, outer = case
    head = cf_sys(kind, width, truncate=size)
    est_f, est_g = (gk.bowen_dimension(head.restrict(ids), tol) for ids in (inner, outer))
    for e in (est_f, est_g):
        assert 0.0 <= e.lo <= e.hi <= 1.0
        assert e.width <= tol / 2
    # a subsystem cannot have the larger dimension
    assert est_f.lo <= est_g.hi
    if kind == gg.FULL:
        e2 = gk.bowen_dimension(cf_sys(truncate=max(size, 2)).restrict([1, 2]), tol)
        assert e2.lo <= E2 <= e2.hi and e2.width <= tol / 2


class TestComponentDimensions:
    def test_dimension_is_max_over_components(self):
        sys = two_component_system(linked=True)
        report = gk.component_dimensions(sys)
        overall = gk.bowen_dimension(sys)
        best = max(est.mid for est in report.estimates)
        assert abs(overall.mid - best) <= 1e-9
        assert abs(report.difference) <= 1e-9
        want = math.log(2) / math.log(3)
        assert abs(best - want) <= 1e-9

    def test_components_are_certified_without_restricting(self, monkeypatch):
        # two full-shift blocks joined by one pair: each component is
        # cross-checked as the full shift its block is, the whole system is not
        def no_restrict(*args):
            raise AssertionError("component_dimensions restricted the system")
        monkeypatch.setattr(gk.GdmsSystem, "restrict", no_restrict)
        report = gk.component_dimensions(two_component_system(linked=True))
        assert [est.method for est in report.estimates] == [gd.MORAN_EXACT, gd.MORAN_EXACT]
        assert report.overall.method == gd.PERRON_NEWTON
        first = report.estimates[0]
        assert (report.overall.lo, report.overall.hi) == (first.lo, first.hi)
        assert gk.component_dimensions(gk.full_shift([0.3, 0.4])).overall.method == gd.MORAN_EXACT

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-3])
    def test_non_finite_tolerance_is_refused(self, tolerance):
        sys = two_component_system(linked=True)
        for run in (lambda: gk.bowen_dimension(sys, tolerance),
                    lambda: gk.component_dimensions(sys, tolerance),
                    lambda: gk.classify_hausdorff_measure(sys, tolerance, range(1, 4)),
                    lambda: gk.truncation_sweep(cf_sys(), [2, 3], tolerance)):
            with pytest.raises(gk.InputError, match="tolerance must be positive and finite"):
                run()

    def test_feeder_edges_do_not_change_dimension(self):
        est = gk.bowen_dimension(feeder_system())
        want = math.log(2) / math.log(3)
        assert abs(est.mid - want) <= 1e-9

    def test_lone_full_shift_component_is_moran_exact(self):
        # the feeder chain carries no cycle, so the one block is the full
        # shift {a, b}: the whole system reports its component's bracket
        sys = feeder_system()
        est = gk.bowen_dimension(sys)
        first = gk.component_dimensions(sys).estimates[0]
        assert est.method == first.method == gd.MORAN_EXACT
        assert (est.lo, est.hi) == (first.lo, first.hi)


class TestHausdorffClassification:
    def test_unlinked_equal_dimension_components_finite(self):
        sys = two_component_system(r1=1 / 3, r2=1 / 3, linked=False)
        res = gk.classify_hausdorff_measure(sys)
        assert res.verdict == gd.FINITE_H_MEASURE
        assert len(res.maximal_components) == 2
        assert res.communicating_pairs == ()

    def test_linked_equal_dimension_components_infinite(self):
        sys = two_component_system(r1=1 / 3, r2=1 / 3, linked=True)
        res = gk.classify_hausdorff_measure(sys)
        assert res.verdict == gd.INFINITE_H_MEASURE
        assert res.communicating_pairs
        # partition sums grow linearly: Z_n = 2 + (n - 1) / 4
        assert res.growth_slope == pytest.approx(0.25, abs=1e-6)

    def test_linked_unequal_dimensions_finite(self):
        # the smaller component is not maximal, so the link is harmless
        sys = two_component_system(r1=1 / 3, r2=1 / 4, linked=True)
        res = gk.classify_hausdorff_measure(sys)
        assert res.verdict == gd.FINITE_H_MEASURE
        assert len(res.maximal_components) == 1

    @pytest.mark.parametrize("n_range", [range(5, 3), range(4, 5), (3, 3)])
    def test_fewer_than_two_word_lengths_are_refused(self, n_range):
        # a growth slope needs two distinct word lengths to fit
        with pytest.raises(gk.InputError, match="two word lengths"):
            gk.classify_hausdorff_measure(gk.full_shift([1 / 3, 1 / 3]), n_range=n_range)

    def test_word_length_below_one_is_refused_before_any_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("component_dimensions ran before the word lengths were checked")
        monkeypatch.setattr(gd, "component_dimensions", solve)
        with pytest.raises(gk.InputError, match="n must be >= 1"):
            gk.classify_hausdorff_measure(gk.full_shift([1 / 3, 1 / 3]), n_range=range(0, 4))

    def test_word_lengths_that_are_not_integers_are_refused_before_any_solve(self, monkeypatch):
        # n_range [1.2, 2.9] was evaluated at n = 1, 2
        def solve(*args, **kwargs):
            raise AssertionError("component_dimensions ran before the word lengths were checked")
        monkeypatch.setattr(gd, "component_dimensions", solve)
        with pytest.raises(gk.InputError, match="integer, got 1.2"):
            gk.classify_hausdorff_measure(gk.full_shift([1 / 3, 1 / 3]), n_range=[1.2, 2.9])

    def test_empty_limit_set_not_applicable(self):
        with pytest.raises(gk.NotApplicableError, match="empty limit set"):
            gk.classify_hausdorff_measure(cf_sys(gg.UPPER, truncate=4))

    def test_cf_evidence_enumerates_once(self, monkeypatch):
        # the collocation needs 20^2 = 400; the words of lengths 1..8 number
        # 510, so the guard trips at n = 8 and the product bracket takes over
        monkeypatch.setenv("GDMS_COUNT_GUARD", "400")
        built = []
        level_sums = thermo._cf_level_sums

        def counting_level_sums(*args, **kwargs):
            built.append(args)
            return level_sums(*args, **kwargs)
        sys = cf_sys(truncate=2)
        with monkeypatch.context() as patch:
            patch.setattr(thermo, "_cf_level_sums", counting_level_sums)
            res = gk.classify_hausdorff_measure(sys)
        assert len(built) == 1
        h = res.dimension.mid
        assert res.evidence_n == tuple(range(1, 31))
        for n, z in zip(res.evidence_n, res.evidence_z):
            exact = gk.partition_sum(sys, n, h)
            assert exact.method == (thermo.ENUMERATION if n < 8 else thermo.TRANSFER_MATRIX)
            assert z == exact.value

    def test_similarity_evidence_is_partition_sum(self):
        sys = two_component_system(linked=True)
        res = gk.classify_hausdorff_measure(sys)
        h = res.dimension.mid
        for n, z in zip(res.evidence_n, res.evidence_z):
            assert z == gk.partition_sum(sys, n, h).value

    def test_evidence_partition_sums_bounded_when_finite(self):
        sys = two_component_system(r1=1 / 3, r2=1 / 3, linked=False)
        res = gk.classify_hausdorff_measure(sys)
        assert max(res.evidence_z) <= 2.0 + 1e-9
        assert abs(res.growth_slope) <= 1e-6


class TestIsolatedEdgeEffects:
    def test_isolated_edges_contribute_boundedly(self):
        # words through the feeder chain add a bounded amount to Z_n at the
        # dimension, so Z_n stays bounded and the increments settle down
        sys = feeder_system()
        h = math.log(2) / math.log(3)
        core = sys.restrict(("a", "b"))
        diffs = []
        for n in range(3, 12):
            total = gk.partition_sum(sys, n, h).value
            core_part = gk.partition_sum(core, n, h).value
            diffs.append(total - core_part)
        assert all(d >= -1e-12 for d in diffs)
        assert max(diffs) <= 2.0
        assert abs(diffs[-1] - diffs[-2]) <= 1e-9


class TestTruncationSweep:
    def test_similarity_sweep_is_trivial(self):
        sys = gk.full_shift([1 / 3, 1 / 3])
        with pytest.raises(gk.NotApplicableError):
            gk.truncation_sweep(sys, [1, 2])

    @pytest.mark.parametrize("sizes", [[], [3, 2], [2, 2], [1, 3, 3]])
    def test_sizes_must_increase_strictly(self, sizes):
        with pytest.raises(gk.InputError, match="strictly increasing"):
            gk.truncation_sweep(cf_sys(), sizes)

    @pytest.mark.parametrize("sizes", [[2.5, 4.9], [2, 3.0], ["2", "3"]])
    def test_sizes_must_be_integers(self, sizes, monkeypatch):
        # refused before any truncation is solved
        monkeypatch.setattr(gd, "bowen_dimension", None)
        with pytest.raises(gk.InputError, match="truncation size must be an integer"):
            gk.truncation_sweep(cf_sys(), sizes)

    @pytest.mark.parametrize("size", [2.5, 3.0, "3"])
    def test_truncate_needs_an_integer_size(self, size):
        with pytest.raises(gk.InputError,
                           match=f"truncation size must be an integer, got {size!r}"):
            cf_sys().truncate(size)
        assert cf_sys().truncate(np.int64(3)).edge_ids == (1, 2, 3)

    def test_full_rule_sweep_converges_upward(self):
        sys = cf_sys(gg.FULL)
        sweep = gk.truncation_sweep(sys, [1, 2, 3, 4], n_max=10)
        los = [e.estimate.lo for e in sweep.entries]
        assert all(a <= b + 1e-12 for a, b in zip(los, los[1:]))
        assert sweep.monotone
        # the one-letter system {1} is a single parabolic-like word with
        # dimension zero, the two-letter one is near 0.5313
        assert sweep.entries[0].estimate.hi <= 1e-2
        assert sweep.entries[1].estimate.lo <= 0.5313 <= sweep.entries[1].estimate.hi

    def test_upper_rule_sweep_warns_about_gap(self):
        sys = cf_sys(gg.UPPER)
        sweep = gk.truncation_sweep(sys, [3, 6, 9], n_max=10)
        assert sweep.sup_lo == 0.0
        assert any("sup over finite subsystems = 0 < theta = 0.5" in w
                   for w in sweep.warnings)


def _solve_counter(monkeypatch, size=None):
    """A list that gets one entry per `np.linalg.solve` call (of matrices of
    `size` only, if given) from now on."""
    solves = []
    solve = np.linalg.solve

    def counted(a, b):
        if size is None or len(a) == size:
            solves.append(len(a))
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", counted)
    return solves


class TestEngineCache:
    def test_engines_are_built_once_per_system(self):
        # the tuple is cached per system object; the engines in it are
        # pooled, so a subsystem on the same edges lists the same objects
        sys = two_component_system(linked=True)
        assert sys.engines is sys.engines
        gk.bowen_dimension(sys)
        assert all(block.root is not None for block in sys.engines)
        sub = sys.restrict(sys.edge_ids)
        assert sub.engines is not sys.engines
        assert all(a is b for a, b in zip(sub.engines, sys.engines))

    def test_classify_after_dimension_reuses_the_roots(self, monkeypatch):
        fresh = gk.classify_hausdorff_measure(mirrored_blocks_system())
        sys = mirrored_blocks_system()
        est = gk.bowen_dimension(sys)
        solves = _solve_counter(monkeypatch)
        warm = gk.classify_hausdorff_measure(sys)
        assert len(solves) <= 10
        assert (warm.verdict, warm.maximal_components) == (fresh.verdict,
                                                           fresh.maximal_components)
        assert warm.dimension.iterations == 0
        root = _reference_root(_dense_pressure(sys))
        assert warm.dimension.lo <= root <= warm.dimension.hi
        assert (fresh.dimension.lo, fresh.dimension.hi) == (warm.dimension.lo,
                                                            warm.dimension.hi)
        assert est.lo <= root <= est.hi

    def test_tighter_tolerance_starts_newton_from_the_kept_root(self, monkeypatch):
        sys = cf_sys(truncate=2)
        gk.bowen_dimension(sys, 1e-6)
        # the coarse collocation of newton_start is not run again
        solves = _solve_counter(monkeypatch, thermo.COARSE_NODES)
        est = gk.bowen_dimension(sys, 1e-12)
        assert solves == []
        assert 0 < est.iterations and est.lo <= E2 <= est.hi
        assert est.width <= 1e-12 / 2
        assert sys.engines[0].root[1] == 1e-12
        assert gk.bowen_dimension(sys, 1e-8).iterations == 0

    def test_banded_curve_warm_starts_each_point(self, monkeypatch):
        sys = cf_sys(gg.BANDED, 1, truncate=20)
        solves = _solve_counter(monkeypatch, 20 * thermo.COLLOCATION_NODES)
        curve = [gk.pressure(sys, t) for t in np.linspace(0.5, 1.5, 11)]
        assert len(solves) <= 78
        assert all(p.lower < p.upper < p.lower + 1e-9 for p in curve)
        assert curve[0].lower > 0.0 > curve[-1].upper

    @pytest.mark.parametrize("kind,size", [(gg.BANDED, 8), (gg.FULL, 2)])
    def test_pressure_at_zero_after_a_dimension_starts_fresh(self, kind, size, monkeypatch):
        solves = _solve_counter(monkeypatch)
        fresh = gk.pressure(cf_sys(kind, 1, truncate=size), 0.0)
        cold = len(solves)
        sys = cf_sys(kind, 1, truncate=size)
        gk.bowen_dimension(sys)
        solves.clear()
        warm = gk.pressure(sys, 0.0)
        assert len(solves) <= cold
        assert (warm.lower, warm.upper) == (fresh.lower, fresh.upper)
        assert warm.lower <= log_rho(sys) <= warm.upper


def _mirrored_ids(block):
    return tuple(f"{block}{i}" for i in (1, 2, 3))


class TestEnginePool:
    # an engine depends only on its 0/1 block and its per-letter vector, so
    # equal blocks share one engine, within a system and with the
    # subsystems cut from it

    def test_mirrored_components_share_one_engine(self):
        sys = mirrored_blocks_system()
        assert len(sys.engines) == 2 and sys.engines[0] is sys.engines[1]
        # the second component reuses the first one's root: Newton runs once
        alone = mirrored_blocks_system().restrict(_mirrored_ids("a"))
        assert gk.bowen_dimension(sys).iterations == gk.bowen_dimension(alone).iterations == 4

    def test_brackets_are_those_of_one_engine_per_component(self):
        # hex values of the brackets when each component had its own engine
        est = gk.bowen_dimension(mirrored_blocks_system())
        assert (est.lo.hex(), est.hi.hex()) == ("0x1.546f346423f20p-2", "0x1.546f3464ffd8fp-2")
        res = gk.classify_hausdorff_measure(mirrored_blocks_system())
        assert (res.dimension.lo.hex(), res.dimension.hi.hex()) == ("0x1.546f346046628p-2",
                                                                    "0x1.546f3468dd687p-2")
        assert (res.verdict, res.maximal_components) == (gd.INFINITE_H_MEASURE, (0, 1))
        assert res.dimension.iterations == 4

    def test_restricted_component_reuses_the_parent_engine(self):
        sys = mirrored_blocks_system()
        h = gk.bowen_dimension(sys, 1e-12).mid
        core = sys.restrict(_mirrored_ids("b"))
        assert core.engines[0] is sys.engines[1]
        fresh = mirrored_blocks_system().restrict(_mirrored_ids("b"))
        assert fresh.engines[0] is not sys.engines[1]
        warm, cold = (gk.conformal_cylinder_measure(s, h) for s in (core, fresh))
        for eid in core.edge_ids:
            assert warm.edge_masses[eid] == pytest.approx(cold.edge_masses[eid], abs=1e-12)

    def test_truncations_share_no_engine(self):
        infinite = cf_sys()
        heads = [infinite.truncate(size) for size in (2, 2, 3)]
        assert len({id(head.engines[0]) for head in heads}) == 3
        assert all(head.engine_pool is not infinite.engine_pool for head in heads)

    @staticmethod
    def _counted_certificates(monkeypatch):
        calls = []
        certified = thermo.PerronBlock.certified_pressure

        def counted(block, t):
            calls.append(block)
            return certified(block, t)
        monkeypatch.setattr(thermo.PerronBlock, "certified_pressure", counted)
        return calls

    def test_pressure_evaluates_each_engine_once(self, monkeypatch):
        sys = mirrored_blocks_system()
        calls = self._counted_certificates(monkeypatch)
        gk.pressure(sys, 0.5)
        assert calls == [sys.engines[0]]
        gk.pressure(sys, 0.7)
        assert calls == [sys.engines[0]] * 2

    def test_dimensions_certify_each_engine_once(self, monkeypatch):
        # the two components share one engine and its root, so one
        # certificate at that root proves both brackets and the system's
        sys = mirrored_blocks_system()
        calls = self._counted_certificates(monkeypatch)
        gk.bowen_dimension(sys)
        calls.clear()
        gk.classify_hausdorff_measure(sys)
        assert calls == [sys.engines[0]]
        fresh = mirrored_blocks_system()
        calls.clear()
        report = gk.component_dimensions(fresh)
        assert calls == [fresh.engines[0]]
        a, b = report.estimates
        assert (a.lo, a.hi, a.method) == (b.lo, b.hi, b.method)

    @pytest.mark.parametrize("eid,ratio,shared", [
        ("b3", math.nextafter(0.08, 1.0), False),
        # ln r, the engine's input, rounds to the same double: one engine
        ("b2", math.nextafter(0.12, 1.0), True)])
    def test_a_ratio_one_ulp_away(self, eid, ratio, shared):
        pattern = [(1, 2), (2, 3), (3, 1), (1, 1), (2, 1)]
        allowed = {(f"{k}{i}", f"{k}{j}") for k in "ab" for i, j in pattern}
        allowed.add(("a3", "b1"))
        ratios = {f"{k}{i}": r for i, r in zip((1, 2, 3), (0.2, 0.12, 0.08)) for k in "ab"}
        ratios[eid] = ratio
        sys = packed_system("nudged", ratios, allowed)
        a, b = (sys.log_norms[list(idx)] for idx in sys.component_positions)
        assert np.array_equal(a, b) == shared
        assert len(sys.engines) == 2 and (sys.engines[0] is sys.engines[1]) == shared
        assert len(sys.engine_pool) == (1 if shared else 2)


# (kind, ratios) of systems whose dimension has an oracle: similarity full
# shifts (the Moran root) and continued-fraction digits {1, 2} (E_2)
_ORACLE_SYSTEMS = st.sampled_from([("moran", (0.3, 0.4)), ("moran", (0.2, 0.25, 0.3)),
                                   ("e2", None)])
_CACHE_OPS = st.lists(st.one_of(
    st.tuples(st.just("pressure"), st.sampled_from([0.0, 0.25, 0.5, 0.55, 0.7, 1.0, 2.0])),
    st.tuples(st.sampled_from(["dim", "components", "classify"]),
              st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]))), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(_ORACLE_SYSTEMS, _CACHE_OPS)
def test_any_call_sequence_on_one_system_holds_the_oracles(case, ops):
    kind, ratios = case

    def make():
        return gk.full_shift(list(ratios)) if kind == "moran" else cf_sys(truncate=2)
    sys = make()
    h = _moran_bisect(ratios) if kind == "moran" else E2
    for op, arg in ops:
        if op == "pressure":
            p = gk.pressure(sys, arg)
            fresh = gk.pressure(make(), arg)
            assert max(p.lower, fresh.lower) <= min(p.upper, fresh.upper)
            if kind == "moran":
                exact = math.log(sum(r ** arg for r in ratios))
                assert p.lower - 1e-15 <= exact <= p.upper + 1e-15
            if arg == 0.0:
                assert p.lower <= log_rho(sys) <= p.upper
            continue
        if op == "dim":
            ests = [gk.bowen_dimension(sys, arg)]
        elif op == "components":
            report = gk.component_dimensions(sys, arg)
            ests = [report.overall, *report.estimates]
        else:
            ests = [gk.classify_hausdorff_measure(sys, arg, range(1, 4)).dimension]
        for est in ests:
            assert est.lo - 1e-15 <= h <= est.hi + 1e-15
            assert est.width <= arg / 2
