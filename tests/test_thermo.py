import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import thermo
from conftest import (log_rho, period_two_system, two_component_system,
                      random_packed_system)


def cf_sys(kind=gg.FULL, width=1, truncate=None):
    return gk.cf_system(gk.IncidenceSpec(kind, width), truncate=truncate)


class TestPartitionSums:
    def test_full_shift_at_dimension_is_one(self):
        sys = gk.full_shift([1 / 3, 1 / 3])
        h = math.log(2) / math.log(3)
        for n in (1, 3, 7):
            z = gk.partition_sum(sys, n, h)
            assert abs(z.value - 1.0) < 1e-12

    def test_enumeration_matches_transfer_matrix(self, rng):
        checked = 0
        while checked < 10:
            sys = random_packed_system(rng)
            if sys is None or not sys.edge_ids:
                continue
            checked += 1
            for n in (1, 2, 4, 6):
                t = rng.uniform(0.1, 1.5)
                a = gk.partition_sum(sys, n, t, method="enumeration")
                b = gk.partition_sum(sys, n, t, method="transfer-matrix")
                assert abs(a.value - b.value) <= 1e-12 * max(abs(a.value), 1.0)

    def test_cf_truncated_pair_sum(self):
        # Z_2(t) for letters {1,2}: sum over 4 pairs of q_2^{-2t}
        sys = cf_sys(truncate=2)
        qs = {(a, b): b * a + 1 for a in (1, 2) for b in (1, 2)}
        t = 0.7
        want = sum(q ** (-2 * t) for q in qs.values())
        z = gk.partition_sum(sys, 2, t)
        assert abs(z.value - want) <= 1e-12 * want

    def test_infinite_cf_divergence_marker(self):
        sys = cf_sys()
        z = gk.partition_sum(sys, 1, 0.4)
        assert z.divergent
        with pytest.raises(gk.UnsupportedAnalysisError):
            gk.partition_sum(sys, 1, 0.8)

    def test_submultiplicative(self, rng):
        sys = cf_sys(truncate=6)
        for t in (0.4, 0.8, 1.2):
            z2 = gk.partition_sum(sys, 2, t)
            z4 = gk.partition_sum(sys, 4, t)
            assert z4.upper <= z2.upper ** 2 * (1 + 1e-12)

    def test_bracket_fallback_contains_exact(self):
        # beyond the exact-length cap the bracket must still cover the truth
        sys = cf_sys(truncate=3)
        t = 0.6
        n = 5
        exact = gk.partition_sum(sys, n, t, method="enumeration")
        assert exact.lower <= exact.value <= exact.upper


class TestTransferMatrix:
    def test_matches_definition(self, rng):
        checked = 0
        while checked < 5:
            sys = random_packed_system(rng)
            if sys is None:
                continue
            checked += 1
            t = rng.uniform(0.1, 1.5)
            B, u = thermo.transfer_matrix(sys, t)
            ids = sys.edge_ids
            for i, a in enumerate(ids):
                assert u[i] == pytest.approx(sys.family.map_for(a).ratio ** t, rel=1e-12)
                for j, b in enumerate(ids):
                    want = u[j] if gk.is_admissible(sys, (a, b)) else 0.0
                    assert B[i, j] == pytest.approx(want, rel=1e-12)

    def test_index_is_built_once_and_dropped_by_restrict(self):
        sys = two_component_system(linked=True)
        assert sys.edges_by_id is sys.edges_by_id
        assert sys.incidence_matrix is sys.incidence_matrix
        assert not sys.incidence_matrix.flags.writeable
        sub = sys.restrict(("c", "d"))
        assert set(sub.edges_by_id) == {"c", "d"}
        assert sub.edge_index == {"c": 0, "d": 1}
        assert sub.incidence_matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_index_is_dropped_by_truncate(self):
        sys = cf_sys()
        assert sys.truncate(3).incidence_matrix.shape == (3, 3)
        assert sys.truncate(5).edge_index == {k: k - 1 for k in range(1, 6)}


class TestPerron:
    def test_period_two_vectors(self):
        # eigenvalues +rho and -rho share the spectral circle
        B = np.array([[0.0, 2.0], [0.5, 0.0]])
        rho, v, w = thermo.perron(B)
        assert rho == pytest.approx(1.0)
        assert v == pytest.approx([2 / 3, 1 / 3])
        assert w == pytest.approx([1 / 3, 2 / 3])

    def test_reducible_matrix_is_refused(self):
        # a Jordan block at the spectral radius has no positive Perron vector
        with pytest.raises(gk.ConvergenceError):
            thermo.perron(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_nilpotent_matrix_is_refused(self):
        with pytest.raises(gk.ConvergenceError):
            thermo.perron(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("size", [0, 1])
    def test_zero_matrix_is_refused(self, size):
        with pytest.raises(gk.ConvergenceError, match="nilpotent"):
            thermo.perron(np.zeros((size, size)))


@st.composite
def _irreducible_matrices(draw):
    """Nonnegative n x n matrices made irreducible by the ring i -> i + 1,
    with entries spread over four decades. With `period` p > 1 the indices
    fall into p classes by i mod p and every arrow goes from one class to
    the next, so p eigenvalues share the spectral circle."""
    period = draw(st.sampled_from([1, 1, 2, 3]))
    n = period * draw(st.integers(1, 30 // period))
    density = draw(st.floats(0.0, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    classes = np.arange(n) % period
    pattern = (rng.random((n, n)) < density) & ((classes[:, None] + 1) % period
                                                 == classes[None, :])
    pattern[np.arange(n), (np.arange(n) + 1) % n] = True
    return pattern * 10.0 ** rng.uniform(-3.0, 1.0, (n, n))


@settings(max_examples=200, deadline=None)
@given(_irreducible_matrices())
def test_collatz_wielandt_brackets_the_spectral_radius(B):
    # numpy's rho is taken from D^-1 B D, D = diag(x): the same eigenvalues
    # for any positive x, but with rho well conditioned. On B itself a
    # weighted ring whose Perron vector spans 1e-11 puts eigvals 1e-10 off.
    lower, upper, x = thermo.collatz_wielandt(B)
    rho = max(abs(np.linalg.eigvals(B * x / x[:, None])))
    assert lower - 1e-12 * rho <= rho <= upper + 1e-12 * rho
    assert upper - lower <= 1e-12 * rho
    assert x.min() > 0.0


class TestCollatzWielandt:
    def test_bounds_of_a_known_matrix(self):
        # rho = 1 + sqrt 2, Perron vector (1 + sqrt 2, 1)
        B = np.array([[2.0, 1.0], [1.0, 0.0]])
        lower, upper, x = thermo.collatz_wielandt(B)
        assert lower <= 1 + math.sqrt(2) <= upper
        assert x / x.max() == pytest.approx([1.0, math.sqrt(2) - 1], rel=1e-14)

    def test_converged_start_costs_no_solve(self, monkeypatch):
        B = np.array([[0.0, 2.0, 1.0], [0.5, 0.0, 0.0], [0.0, 3.0, 0.25]])
        lower, upper, x = thermo.collatz_wielandt(B)

        def no_solve(*args):
            raise AssertionError("a converged start needs no solve")
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        assert thermo.collatz_wielandt(B, x)[:2] == (lower, upper)

    def test_weighted_cycle_far_from_its_radius(self):
        # Noda's shift alone gains a factor 2 per step here: the bounds
        # start 47 decades apart
        weights = np.array([2e-53, 1e-6, 2e-25])
        B = np.roll(np.diag(weights), 1, axis=1)
        lower, upper, x = thermo.collatz_wielandt(B)
        rho = np.prod(weights) ** (1 / 3)
        assert lower <= rho * (1 + 1e-14) and rho * (1 - 1e-14) <= upper
        assert upper - lower <= 1e-13 * rho

    def test_underflowing_row_sums_are_refused(self):
        B = np.array([[0.0, 1e-200], [1e-200, 0.0]])
        with pytest.raises(gk.ConvergenceError, match="underflow"):
            thermo.collatz_wielandt(B, np.array([1.0, 1e-200]))

    def test_weights_below_the_normal_range_are_rescaled(self):
        # 0.25^600 and 0.5^600 are below the least normal number, but their
        # ratio is not; P = 600 ln 0.5 + ln(1 + 2^-600)
        est = gk.pressure(gk.full_shift([0.25, 0.5]), 600.0)
        assert est.lower <= 600 * math.log(0.5) <= est.upper
        assert est.upper - est.lower <= 1e-14 * 600 * math.log(2)

    def test_weights_spanning_more_than_the_double_range_are_refused(self):
        # 0.25^t / 0.5^t = 2^-1100 is below the least normal number
        with pytest.raises(gk.ConvergenceError, match="double range"):
            gk.pressure(gk.full_shift([0.25, 0.5]), 1100.0)


class TestPressure:
    def test_similarity_full_shift_exact(self):
        sys = gk.full_shift([1 / 3, 1 / 3])
        est = gk.pressure(sys, 0.0)
        assert abs(est.lower - math.log(2)) < 1e-12
        assert abs(est.upper - math.log(2)) < 1e-12
        h = math.log(2) / math.log(3)
        est_h = gk.pressure(sys, h)
        assert abs(est_h.lower) < 1e-12

    def test_reducible_system_takes_max_over_blocks(self):
        sys = two_component_system(linked=True)
        t = 0.5
        est = gk.pressure(sys, t)
        want = max(math.log(2) + t * math.log(1 / 3),
                   math.log(2) + t * math.log(1 / 4))
        assert abs(est.lower - want) < 1e-12

    def test_monotone_decreasing_and_convex(self, rng):
        checked = 0
        while checked < 8:
            sys = random_packed_system(rng)
            if sys is None or gk.empty_limit_set(sys):
                continue
            checked += 1
            ts = [0.0, 0.25, 0.5, 0.75, 1.0]
            vals = [gk.pressure(sys, t).lower for t in ts]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9
            for i in range(1, len(ts) - 1):
                assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_similarity_bracket_holds_dense_eigvals(self, rng, t):
        checked = 0
        while checked < 10:
            sys = random_packed_system(rng)
            if sys is None or gk.empty_limit_set(sys):
                continue
            checked += 1
            est = gk.pressure(sys, t)
            assert est.method == thermo.TRANSFER_MATRIX
            B, _ = thermo.transfer_matrix(sys, t)
            want = math.log(max(abs(np.linalg.eigvals(B))))
            assert est.lower - 1e-12 <= want <= est.upper + 1e-12
            assert 0.0 < est.upper - est.lower <= 1e-12

    def test_cf_brackets_enclose_known_value(self):
        # pressure of the {1, 2} subsystem vanishes near t ~ 0.5313
        sys = cf_sys(truncate=2)
        est = gk.pressure(sys, 0.5313, n_max=14)
        assert est.lower <= 0.0 <= est.upper + 0.02
        assert est.upper - est.lower < 0.2

    def test_cf_pressure_at_zero_is_the_entropy(self):
        # the enumeration brackets put P(0) of banded N=8 at 1.1488
        sys = cf_sys(gg.BANDED, 1, truncate=8)
        est = gk.pressure(sys, 0.0)
        assert est.method == thermo.CHEBYSHEV_COLLOCATION
        assert abs(log_rho(sys) - 1.0575768135749) < 1e-12
        assert est.lower <= log_rho(sys) <= est.upper
        assert est.upper - est.lower < 1e-12

    @pytest.mark.parametrize("kind,size", [(gg.FULL, 3), (gg.BANDED, 6)])
    @pytest.mark.parametrize("t", [0.3, 0.6, 0.9])
    def test_cf_pressure_against_partition_sums(self, kind, size, t):
        sys = cf_sys(kind, 1, truncate=size)
        est = gk.pressure(sys, t)
        cache = thermo.CfPartitionCache(sys)
        z = {n: cache.partition_sum(n, t) for n in range(1, 13)}
        # subadditivity: P <= (1/n) ln Z_n for every n
        assert est.upper <= min(math.log(z[n]) / n for n in z)
        assert abs(0.5 * (est.lower + est.upper) - math.log(z[12] / z[11])) < 1e-2

    def test_cf_without_cycles_has_minus_infinite_pressure(self):
        est = gk.pressure(cf_sys(gg.UPPER, truncate=5), 0.4)
        assert (est.lower, est.upper) == (-math.inf, -math.inf)

    def test_infinite_full_rule_markers(self):
        sys = cf_sys()
        est = gk.pressure(sys, 0.3)
        assert est.is_infinite
        with pytest.raises(gk.UnsupportedAnalysisError):
            gk.pressure(sys, 0.9)


class TestCfCollocation:
    def test_states_are_distinct_predecessor_sets(self):
        full = thermo.CfCollocation(cf_sys(truncate=5))
        assert full.size == thermo.COLLOCATION_NODES
        banded = thermo.CfCollocation(cf_sys(gg.BANDED, 1, truncate=6))
        assert banded.size == 6 * thermo.COLLOCATION_NODES

    def test_constant_functions_at_zero(self):
        # L_0 maps constants to constants: the matrix is exact there
        engine = thermo.CfCollocation(cf_sys(truncate=3))
        L = engine.matrix(0.0)
        assert L @ np.ones(engine.size) == pytest.approx(3.0 * np.ones(engine.size), rel=1e-13)

    @pytest.mark.parametrize("kind,size", [(gg.FULL, 2), (gg.BANDED, 5)])
    def test_slope_matches_difference_quotient(self, kind, size):
        engine = thermo.cf_collocations(cf_sys(kind, 1, truncate=size))[0]
        t, h = 0.55, 1e-5
        p, slope = engine.pressure_slope(t)
        ahead, behind = engine.pressure_slope(t + h)[0], engine.pressure_slope(t - h)[0]
        assert slope == pytest.approx((ahead - behind) / (2 * h), rel=1e-7)
        lo, hi = engine.certified_pressure(t)
        assert lo <= p <= hi

    def test_certificate_holds_off_the_nodes(self):
        # Collatz-Wielandt: a positive g with (lam - s) g <= L g <= (lam + s) g
        # at points that are not collocation nodes
        engine = thermo.cf_collocations(cf_sys(gg.BANDED, 1, truncate=4))[0]
        t = 0.7
        lam, v, _ = engine._eigenpair(engine.matrix(t))
        s = engine._residual_bound(t, lam, v)
        m = thermo.COLLOCATION_NODES
        coef = v.reshape(-1, m) @ engine.to_coef.T

        def g(state, x):
            return np.polynomial.chebyshev.chebval(2 * x - 1, coef[state])

        xs = np.linspace(0.0, 1.0, 101)
        for state, members in enumerate(engine.members):
            image = sum(members[k] * (a + xs) ** (-2 * t)
                        * g(engine.state_of[k], 1 / (a + xs))
                        for k, a in enumerate(engine.letters))
            assert np.all(np.abs(image - lam * g(state, xs)) <= s * g(state, xs))

    def test_left_vector_may_be_negative(self):
        # the left collocation vector is not a Perron vector, so the
        # similarity solver refuses the matrix and the collocation checks
        # only the overlap of the two vectors
        engine = thermo.CfCollocation(cf_sys(truncate=2))
        L = engine.matrix(0.5)
        lam, v, w = engine._eigenpair(L)
        assert v.min() > 0 > w.min()
        assert w @ v == pytest.approx(1.0)
        with pytest.raises(gk.ConvergenceError, match="left Perron vector"):
            thermo.perron(L)

    def test_leading_vector_not_positive_is_refused(self):
        with pytest.raises(gk.ConvergenceError):
            thermo.CfCollocation._eigenpair(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(gk.ConvergenceError):  # leading pair is complex
            thermo.CfCollocation._eigenpair(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_certificate_needs_a_positive_function(self):
        engine = thermo.CfCollocation(cf_sys(truncate=2))
        lam, v, _ = engine._eigenpair(engine.matrix(0.5))
        with pytest.raises(gk.ConvergenceError):
            engine._residual_bound(0.5, lam, -v)

    def test_residual_bound_at_lam_is_refused(self, monkeypatch):
        # lam - s <= 0 would leave no lower bound
        engine = thermo.CfCollocation(cf_sys(truncate=2))
        monkeypatch.setattr(thermo.CfCollocation, "_residual_bound",
                            lambda self, t, lam, v: lam)
        with pytest.raises(gk.ConvergenceError, match="not below"):
            engine.certified_pressure(0.5)

    @pytest.mark.parametrize("size,t", [(20, 5.0), (20, 8.0), (12, 10.0)])
    def test_large_t_lower_bound_is_never_minus_infinity(self, size, t):
        system = cf_sys(gg.BANDED, 1, truncate=size)
        try:
            est = gk.pressure(system, t)
        except gk.ConvergenceError:
            return
        L = thermo.cf_collocations(system)[0].matrix(t)
        lam = max(np.linalg.eigvals(L).real)
        assert math.isfinite(est.lower)
        assert est.lower <= math.log(lam) <= est.upper

    def test_next_t_starts_from_the_previous_vector(self, monkeypatch):
        engine = thermo.cf_collocations(cf_sys(gg.BANDED, 1, truncate=6))[0]
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            if len(a) == engine.size:
                solves.append(1)
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        engine.pressure_slope(0.5)
        cold = len(solves)
        assert engine.right is not None
        solves.clear()
        engine.certified_pressure(0.5 + 1e-9)
        # a step or two until the vector stays in place, then the left solve
        assert len(solves) <= 3 < cold

    def test_matrix_size_honours_the_count_guard(self, monkeypatch):
        monkeypatch.setenv("GDMS_COUNT_GUARD", str(thermo.COLLOCATION_NODES ** 2 - 1))
        with pytest.raises(gk.ResourceGuardError):
            gk.pressure(cf_sys(truncate=3), 0.5)


def _cf_rules():
    """(kind, width, size): banded rules up to 10 letters wide 1 to 3, and
    full rules up to 8 letters."""
    banded = st.tuples(st.just(gg.BANDED), st.integers(1, 3), st.integers(1, 10))
    full = st.tuples(st.just(gg.FULL), st.just(1), st.integers(1, 8))
    return st.one_of(banded, full)


@settings(max_examples=60, deadline=None)
@given(_cf_rules(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_collocation_eigenpair_is_the_leading_one(rule, t, t_before):
    # numpy's eigenvalues are the oracle; the package itself runs none. The
    # engine is warm from another t, the bare call starts from ones.
    kind, width, size = rule
    system = cf_sys(kind, width, truncate=size)
    engine = thermo.cf_collocations(system)[0]
    engine.pressure_slope(t_before)
    L = engine.matrix(t)
    values = np.linalg.eigvals(L)
    leading = values[np.argmax(values.real)]
    assert leading.imag == 0.0
    for lam, v, _ in (engine._leading_pair(t, L), thermo.CfCollocation._eigenpair(L)):
        assert abs(lam - leading.real) <= 1e-12 * leading.real
        assert v.min() > 0.0
    p0 = gk.pressure(system, 0.0)
    assert p0.lower <= log_rho(system) <= p0.upper


class TestFiniteness:
    def test_finite_system_theta_zero(self):
        rep = gk.finiteness_parameters(gk.full_shift([1 / 2, 1 / 2]))
        assert rep.theta == 0

    def test_full_rule_theta_half(self):
        rep = gk.finiteness_parameters(cf_sys())
        assert rep.theta == Fraction(1, 2)
        assert all(v == Fraction(1, 2) for v in rep.theta_n.values())

    def test_banded_rule_theta_sequence(self):
        rep = gk.finiteness_parameters(cf_sys(gg.BANDED, 1))
        assert rep.theta == 0
        assert rep.theta_n[1] == Fraction(1, 2)
        assert rep.theta_n[2] == Fraction(1, 4)
        assert rep.theta_n[3] == Fraction(1, 6)

    def test_upper_rule_theta_half(self):
        rep = gk.finiteness_parameters(cf_sys(gg.UPPER))
        assert rep.theta == Fraction(1, 2)

    def test_witness_series_behaviour(self):
        # partial sums of the level-n bound keep growing below theta_n while
        # above theta_n the remaining tail is bounded
        rep = gk.finiteness_parameters(cf_sys())
        for data in rep.witness.values():
            sums = data["partial_sums"]
            below = [row["sum_at_t_minus"] for row in sums]
            above = [row["sum_at_t_plus"] for row in sums]
            assert all(b < c for b, c in zip(below, below[1:]))
            # increments shrink above theta_n and do not below it
            assert above[-1] - above[-2] < below[-1] - below[-2]
            assert math.isfinite(data["one_step_tail_bound_at_t_plus"])


class TestConformalMeasure:
    def test_equal_ratio_full_shift_masses(self):
        sys = gk.full_shift([1 / 3, 1 / 3])
        h = math.log(2) / math.log(3)
        m = gk.conformal_cylinder_measure(sys, h)
        assert abs(m.edge_masses["e1"] - 0.5) < 1e-12
        assert abs(m.edge_masses["e2"] - 0.5) < 1e-12

    def test_golden_case_masses(self):
        # ratios 1/2 and 1/4: at the dimension h the masses are 2^-h and 4^-h
        r = (1 / 2, 1 / 4)
        h = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
        sys = gk.full_shift(list(r))
        m = gk.conformal_cylinder_measure(sys, h)
        assert abs(m.edge_masses["e1"] - 2.0 ** -h) < 1e-12
        assert abs(m.edge_masses["e2"] - 4.0 ** -h) < 1e-12
        assert abs(sum(m.vertex_masses.values()) - 1.0) < 1e-12

    def test_cylinder_refinement(self):
        sys = gk.full_shift([1 / 2, 1 / 4])
        h = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
        m = gk.conformal_cylinder_measure(sys, h)
        for e in sys.edge_ids:
            parts = sum(m.word_mass(sys, (e, f)) for f in sys.edge_ids)
            assert abs(parts - m.word_mass(sys, (e,))) < 1e-12

    def test_period_two_masses_sum_and_refine(self):
        sys = period_two_system()
        assert not gk.matrix_properties(sys).primitive
        h = gk.bowen_dimension(sys).mid
        m = gk.conformal_cylinder_measure(sys, h)
        assert min(m.edge_masses.values()) > 0
        assert math.fsum(m.vertex_masses.values()) == pytest.approx(1.0, abs=1e-12)
        for e in sys.edge_ids:
            parts = [m.word_mass(sys, (e, f)) for f in sys.edge_ids
                     if gk.is_admissible(sys, (e, f))]
            assert math.fsum(parts) == pytest.approx(m.word_mass(sys, (e,)), abs=1e-12)

    def test_rejects_reducible_system(self):
        sys = two_component_system(r1=1 / 3, r2=1 / 3)
        with pytest.raises(gk.UnsupportedAnalysisError, match="irreducible"):
            gk.conformal_cylinder_measure(sys, math.log(2) / math.log(3))

    def test_rejects_wrong_exponent(self):
        sys = gk.full_shift([1 / 3, 1 / 3])
        with pytest.raises(gk.DomainError):
            gk.conformal_cylinder_measure(sys, 0.9)

    def test_rejects_infinite_system(self):
        with pytest.raises(gk.UnsupportedAnalysisError):
            gk.conformal_cylinder_measure(cf_sys(), 0.5)
