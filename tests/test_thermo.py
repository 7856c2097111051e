import math
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gdmskit as gk
from gdmskit import dimension as gd
from gdmskit import graph as gg
from gdmskit import maps as gm
from gdmskit import thermo
from conftest import (log_rho, packed_system, period_two_system, three_block_system,
                      two_component_system, random_packed_system)
from test_dimension import (_dense_pressure, _explicit_specs, _many_edge_spec,
                            _moran_bisect, _reference_root, _solve_counter)


def cf_sys(kind=gg.FULL, width=1, truncate=None):
    return gk.cf_system(gk.IncidenceSpec(kind, width), truncate=truncate)


def acyclic_similarity_system():
    """Two similarities where b may follow a and nothing else: no cycle."""
    edges = [("a", "v", "v", gm.SimilarityMap(0.3, 0.0)),
             ("b", "v", "v", gm.SimilarityMap(0.3, 0.5))]
    return gk.similarity_system("chain", ("v",), {"v": gm.VertexSpace("v", 0.0, 1.0)}, edges,
                                gk.IncidenceSpec(gg.EXPLICIT), allow=[("a", "b")])


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
            logs = dict(zip(sys.edge_ids, sys.log_norms))
            for n in (1, 2, 4, 6):
                t = rng.uniform(0.1, 1.5)
                a = math.fsum(math.exp(t * sum(logs[e] for e in w))
                              for w in gk.enumerate_words(sys, n))
                b = gk.partition_sum(sys, n, t)
                assert abs(a - b.value) <= 1e-12 * max(abs(a), 1.0)

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

    @pytest.mark.parametrize("kind,size", [(gg.FULL, 3), (gg.BANDED, 5)])
    def test_product_bracket_fallback_contains_exact(self, kind, size, monkeypatch):
        # 40 continuants hold levels 1-3 of full N = 3 and 1-2 of banded
        # N = 5, so the cache trips and the product bracket answers
        monkeypatch.setenv("GDMS_COUNT_GUARD", "40")
        sys = cf_sys(kind, 1, truncate=size)
        for n in (4, 5, 7):
            words = list(gk.enumerate_words(sys, n, limit=10 ** 6))
            for t in (0.3, 0.8, 1.5):
                exact = math.fsum(gm.cf_continuants(w)[2] ** (-2 * t) for w in words)
                z = gk.partition_sum(sys, n, t)
                assert z.method == thermo.TRANSFER_MATRIX
                assert z.lower < exact < z.upper


class TestTransferMatrix:
    @settings(max_examples=60, deadline=None)
    @given(_explicit_specs(), st.floats(0.0, 2.0))
    def test_matches_definition(self, spec, t):
        # Z_n(t) = u B^(n-1) 1 with the dense B(t) = A o r^t and u = r^t;
        # the partition sums iterate its lumping by successor set, which
        # sums the letters of one state first: equal bit for bit when every
        # successor set is distinct, within rounding when rows repeat
        system = packed_system(*spec)
        A = system.incidence_matrix
        u = np.exp(t * system.log_norms)
        B, w, want = A * u, np.ones(len(u)), []
        for _ in range(8):
            want.append(float(u @ w))
            w = B @ w
        got = [z.upper for z in thermo.partition_sums(system, range(1, 9), t)]
        if len({row.tobytes() for row in A}) == len(A):
            assert got == want
        for g, x in zip(got, want):
            assert abs(g - x) <= 1e-12 * x

    def test_partition_sums_run_on_the_vertex_states(self):
        # 2400 edges on 4 vertices under `incidence full`: the successor
        # sets are the 4 vertices' edge sets, so the sums iterate a 4 x 4
        # matrix and never build a dense 2400 x 2400 float one (46 MB).
        # Z_n = 1 V^n 1 for the vertex matrix V(t) of summed edge weights.
        system, _ = gk.parse_spec(_many_edge_spec(4, 600))
        tracemalloc.start()
        try:
            sums = thermo.partition_sums(system, range(1, 31), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        where = {v: k for k, v in enumerate(system.graph.vertices)}
        V = np.zeros((4, 4))
        for e, log_r in zip(system.graph.edges, system.log_norms):
            V[where[e.src], where[e.dst]] += math.exp(0.5 * log_r)
        w = np.ones(4)
        for z in sums:
            w = V @ w
            assert z.lower == z.upper == pytest.approx(w.sum(), rel=1e-12)

    def test_incidence_is_a_read_only_boolean_pattern(self):
        many, _ = gk.parse_spec(_many_edge_spec(4, 600))
        dead_end = packed_system("dead-end", {"a": 0.3, "b": 0.3}, {("a", "a"), ("a", "b")})
        pruned, removed = gk.prune(dead_end)
        assert removed == ("b",)
        for system in (many, many.restrict(["e0_0", "e1_3"]), dead_end, pruned,
                       cf_sys(truncate=3)):
            A = system.incidence_matrix
            assert A.dtype == bool and not A.flags.writeable

    def test_index_is_built_once_and_dropped_by_restrict(self):
        sys = two_component_system(linked=True)
        assert sys.incidence_matrix is sys.incidence_matrix
        assert not sys.incidence_matrix.flags.writeable
        sub = sys.restrict(("c", "d"))
        assert sub.edge_index == {"c": 0, "d": 1}
        assert sub.incidence_matrix.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_restrict_refuses_an_unknown_edge_id(self):
        # an unknown id is an input error, as in `is_admissible`, not an
        # edge to leave out: the empty subsystem would have dimension 0
        sys = gk.full_shift([1 / 3, 1 / 3])
        with pytest.raises(gk.InputError, match="unknown edge id 'nope'"):
            sys.restrict(["nope"])
        with pytest.raises(gk.InputError, match="unknown edge id 'nope'"):
            sys.restrict(["e1", "nope"])
        assert sys.restrict(["e2", "e1"]).edge_ids == ("e1", "e2")

    def test_index_is_dropped_by_truncate(self):
        sys = cf_sys()
        assert sys.truncate(3).incidence_matrix.shape == (3, 3)
        assert sys.truncate(5).edge_index == {k: k - 1 for k in range(1, 6)}


def _perron_block(A, log_norms):
    """The similarity engine of the boolean block A with log-ratios `log_norms`."""
    return thermo.PerronBlock(gg.StateLumping(np.arange(len(A)), A), log_norms)


class TestPerron:
    # the Perron data of one irreducible block, as every similarity caller
    # reads it: `PerronBlock.pressure_slope`

    def test_period_two_vectors(self):
        # eigenvalues +rho and -rho share the spectral circle: B(1) is
        # [[0, 2], [0.5, 0]], with rho = 1 at every t
        block = _perron_block(np.array([[False, True], [True, False]]),
                                   np.log([0.5, 2.0]))
        p, slope = block.pressure_slope(1.0)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert block.right / block.right.sum() == pytest.approx([2 / 3, 1 / 3])

    def test_nilpotent_matrix_is_refused(self):
        block = _perron_block(np.array([[False, True], [False, False]]), np.zeros(2))
        with pytest.raises(gk.ConvergenceError):
            block.pressure_slope(0.5)

    @pytest.mark.parametrize("size", [0, 1])
    def test_zero_matrix_is_refused(self, size):
        block = _perron_block(np.zeros((size, size), dtype=bool), np.zeros(size))
        with pytest.raises(gk.ConvergenceError, match="not resolved"):
            block.pressure_slope(0.5)

    @pytest.mark.parametrize("t", [0.0, 5e-15, 0.37, 2.0, 40.0])
    def test_one_cycle_has_the_closed_form_pressure(self, t):
        # e1 -> e2 -> e3 -> e1 has B(t)^3 = (r1 r2 r3)^t I, so P(t) is
        # (t/3) sum ln r, here to 40 digits; the golden-mean block is no cycle
        mpmath = pytest.importorskip("mpmath")
        ratios = [0.778, 0.06, 0.3]
        block = _perron_block(np.roll(np.eye(3, dtype=bool), 1, axis=1), np.log(ratios))
        assert block.cycle and block.size == 3
        lower, upper = block.certified_pressure(t)
        with mpmath.workdps(40):
            exact = mpmath.mpf(t) * mpmath.fsum(mpmath.log(r) for r in ratios) / 3
            assert lower <= exact <= upper
        assert upper - lower <= 4e-15 * abs(lower) + 1e-300
        golden = _perron_block(np.array([[True, True], [True, False]]), np.log([0.3, 0.4]))
        assert not golden.cycle


class TestStateLumping:
    def test_states_follow_first_occurrence(self):
        # successor sets a -> {a, b}, b -> {c}, c -> {a, b}, the rows of A,
        # give states {a, b} (holding a and c) and {c} (holding b)
        A = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=bool)
        lumping = gg.StateLumping(np.arange(3), A)
        assert lumping.state_of.tolist() == [0, 1, 0]
        assert lumping.counts.tolist() == [2, 1]
        assert lumping.members.tolist() == [[True, True, False], [False, False, True]]
        weights = np.array([0.5, 0.25, 0.125])
        M = lumping.blocks(weights)
        assert M.tolist() == [[0.5, 0.25], [0.125, 0.0]]
        B = A * weights
        assert max(abs(np.linalg.eigvals(M))) == pytest.approx(
            max(abs(np.linalg.eigvals(B))), rel=1e-14)
        # B's right Perron vector is M's read at each edge's state
        values, vectors = np.linalg.eig(M)
        k = np.argmax(abs(values))
        v = vectors[:, k].real[lumping.state_of]
        assert B @ v == pytest.approx(values[k].real * v, rel=1e-12)

    def test_node_blocks_are_summed_per_block(self):
        # an m x m array per letter: block (s, s(a)) at rows s m + i and
        # columns s(a) m + j, the letters of each block summed in order
        A = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=bool)
        lumping = gg.StateLumping(np.arange(3), A)
        per_letter = np.arange(12.0).reshape(3, 2, 2) + 1.0
        expected = np.zeros((4, 4))
        for s, a in zip(lumping.rows, lumping.feeding):
            t = lumping.state_of[a]
            expected[2 * s:2 * s + 2, 2 * t:2 * t + 2] += per_letter[a]
        assert lumping.blocks(per_letter).tolist() == expected.tolist()
        # one number per letter is the m = 1 case
        assert lumping.blocks(per_letter[:, :1, :1]).tolist() == \
            lumping.blocks(per_letter[:, 0, 0]).tolist()
        empty = gg.StateLumping(np.arange(0), np.zeros((0, 0), dtype=bool))
        assert empty.blocks(np.zeros(0)).shape == (0, 0)
        assert empty.blocks(np.zeros((0, 3, 3))).shape == (0, 0)

    @pytest.mark.parametrize("n,density", [(1, 0.5), (7, 0.3), (40, 0.05), (40, 0.9)])
    def test_states_are_numbered_by_their_first_letter(self, n, density):
        # states in order of first occurrence, and members[s] the set of the
        # first letter of state s, as a dictionary walk gives them; letters
        # share pattern rows, and rows repeat
        rng = np.random.default_rng(n)
        for rows in (1, 5, n):
            X = rng.random((rows, n)) < density
            X[: rows // 2] = X[rows // 2: 2 * (rows // 2)]  # repeat rows
            group = rng.integers(0, rows, n)
            lumping = gg.StateLumping(group, X)
            numbers, firsts = {}, []
            for a in range(n):
                if X[group[a]].tobytes() not in numbers:
                    numbers[X[group[a]].tobytes()] = len(firsts)
                    firsts.append(a)
            assert lumping.state_of.tolist() == [numbers[X[group[a]].tobytes()]
                                                 for a in range(n)]
            assert lumping.state_of.dtype == np.intp and lumping.members.dtype == bool
            assert np.array_equal(lumping.members, X[group[firsts]])

    def test_engine_of_every_edge_reads_the_system_lumping(self):
        # a similarity component that holds every edge reads the system's
        # lumping; a smaller component restricts it, and a collocation
        # reverses its block's, so both build their own
        system = gk.parse_spec(_many_edge_spec(4, 5))[0]
        assert system.engines[0].lumping is system.lumping
        assert system.engines[0].size == 4
        split = two_component_system()
        assert all(block.lumping is not split.lumping for block in split.engines)
        cf = cf_sys(gg.BANDED, 1, truncate=4)
        assert cf.engines[0].lumping is not cf.lumping

    def test_distinct_rows_give_the_dense_matrix_bit_for_bit(self):
        # a block whose rows are all distinct has k = n, and M(t) and M'(t)
        # are the dense B(t) = A o r^t and B o ln r entry for entry
        system = _seeded_block()
        engine = system.engines[0]
        A, log_r = system.incidence_matrix, system.log_norms
        assert engine.size == len(A)
        for t in (0.0, 0.37, 1.4):
            B = A * np.exp(t * log_r)
            M, dM = engine.matrix(t, derivative=True)
            assert np.array_equal(M, B) and np.array_equal(dM, B * log_r)


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

    def test_nan_matrix_is_refused(self):
        # every ratio is NaN, so no bracket is ever recorded
        with pytest.raises(gk.ConvergenceError, match="not numbers"):
            thermo.collatz_wielandt(np.full((2, 2), np.nan))

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
            B = sys.incidence_matrix * np.exp(t * sys.log_norms)
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
        z = {s.n: s.value for s in thermo.partition_sums(sys, range(1, 13), t)}
        # subadditivity: P <= (1/n) ln Z_n for every n
        assert est.upper <= min(math.log(z[n]) / n for n in z)
        assert abs(0.5 * (est.lower + est.upper) - math.log(z[12] / z[11])) < 1e-2

    def test_cf_without_cycles_has_minus_infinite_pressure(self):
        est = gk.pressure(cf_sys(gg.UPPER, truncate=5), 0.4)
        assert (est.lower, est.upper) == (-math.inf, -math.inf)
        assert est.method == thermo.CHEBYSHEV_COLLOCATION

    def test_similarity_without_cycles_has_minus_infinite_pressure(self):
        est = gk.pressure(acyclic_similarity_system(), 0.4)
        assert (est.lower, est.upper) == (-math.inf, -math.inf)
        assert est.method == thermo.TRANSFER_MATRIX

    @pytest.mark.parametrize("engine,system", [
        (thermo.PerronBlock, acyclic_similarity_system),
        (thermo.CfCollocation, lambda: cf_sys(gg.UPPER, truncate=5)),
    ])
    def test_method_without_an_engine_comes_from_the_family(self, engine, system,
                                                           monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an engine was built")
        monkeypatch.setattr(engine, "__init__", refused)
        sys = system()
        assert sys.engines == ()
        assert gk.pressure(sys, 0.4).method == engine.pressure_method

    def test_infinite_full_rule_markers(self):
        sys = cf_sys()
        est = gk.pressure(sys, 0.3)
        assert est.is_infinite
        with pytest.raises(gk.UnsupportedAnalysisError):
            gk.pressure(sys, 0.9)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
def test_pressure_refuses_t_not_finite_and_nonnegative(t):
    for system in (gk.full_shift([0.3, 0.4]), cf_sys(truncate=2)):
        with pytest.raises(gk.InputError, match="t must be finite and >= 0"):
            thermo.pressure(system, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
def test_partition_sums_refuse_t_not_finite_and_nonnegative(t):
    # a similarity system, a continued-fraction truncation and an infinite rule
    for system in (gk.full_shift([0.3, 0.4]), cf_sys(truncate=2), cf_sys()):
        with pytest.raises(gk.InputError, match="t must be finite and >= 0"):
            gk.partition_sum(system, 3, t)
        with pytest.raises(gk.InputError, match="t must be finite and >= 0"):
            thermo.partition_sums(system, [1, 3], t)


def test_word_lengths_that_are_not_integers_are_refused():
    # 2.7 was truncated to 2, and [1.5, 2] reported the keys {1, 2}
    system = gk.full_shift([0.3, 0.4])
    with pytest.raises(gk.InputError, match="integer, got 2.7"):
        gk.partition_sum(system, 2.7, 0.5)
    with pytest.raises(gk.InputError, match="integer, got 1.5"):
        gk.finiteness_parameters(system, [1.5, 2])
    assert gk.partition_sum(system, np.int64(2), 0.5).n == 2
    assert set(gk.finiteness_parameters(system, np.arange(1, 3)).theta_n) == {1, 2}


@pytest.mark.parametrize("ns", [[0], [2, -1]])
def test_partition_sums_refuse_word_lengths_below_one(ns):
    for system in (gk.full_shift([0.3, 0.4]), cf_sys(truncate=2), cf_sys()):
        with pytest.raises(gk.InputError, match="n must be >= 1"):
            thermo.partition_sums(system, ns, 0.3)


def test_partition_sums_of_no_word_lengths_are_empty():
    for system in (gk.full_shift([0.3, 0.4]), cf_sys(truncate=2), cf_sys()):
        assert thermo.partition_sums(system, [], 0.3) == []


@pytest.mark.parametrize("system,n", [
    (gk.full_shift([0.5, 0.5]), 1100),
    # golden mean shift: the 0 entry of B meets an inf once the sums overflow
    (packed_system("golden", {"a": 0.3, "b": 0.3}, {("a", "a"), ("a", "b"), ("b", "a")}), 1600)])
def test_partition_sum_overflow_is_a_resource_refusal(system, n):
    # RuntimeWarning is an error in this suite, so a floating-point warning
    # from the matrix products would surface before the refusal
    with pytest.raises(gk.ResourceGuardError, match="overflow budget"):
        gk.partition_sum(system, n, 0.0)


# words per level the enumeration oracle below may walk
ORACLE_WORDS = 2000


@st.composite
def _cf_partition_cases(draw):
    """(system, guard, ns): a full, banded (width 1-3) or upper truncation
    of at most 8 letters, a count guard (None: unset) and a shuffled list
    of word lengths with a repeat, none with more than ORACLE_WORDS words."""
    kind = draw(st.sampled_from([gg.FULL, gg.BANDED, gg.UPPER]))
    width = draw(st.integers(1, 3)) if kind == gg.BANDED else 1
    system = cf_sys(kind, width, truncate=draw(st.integers(1, 8)))
    A = system.incidence_matrix
    counts, row = [], np.ones(len(A))
    while len(counts) < 12 and row.sum() <= ORACLE_WORDS:
        counts.append(row.sum())
        row = row @ A
    ns = draw(st.lists(st.integers(1, len(counts)), min_size=1, max_size=6))
    ns = draw(st.permutations(ns + [draw(st.sampled_from(ns))]))
    return system, draw(st.sampled_from([None, "40", "400"])), ns


def _exact_partition_sum(system, n, t):
    return math.fsum(float(gm.cf_continuants(word)[2]) ** (-2.0 * t)
                     for word in gg.enumerate_words(system, n))


@settings(max_examples=80, deadline=None)
@given(_cf_partition_cases(), st.floats(0.0, 3.0))
def test_cf_partition_sums_are_exact_or_bracket_the_exact_sum(case, t):
    system, guard, ns = case
    with pytest.MonkeyPatch.context() as patch:
        if guard is None:
            patch.delenv("GDMS_COUNT_GUARD", raising=False)
        else:
            patch.setenv("GDMS_COUNT_GUARD", guard)
        sums = thermo.partition_sums(system, ns, t)
        assert sums == [thermo.partition_sum(system, n, t) for n in ns]
    for z in sums:
        exact = _exact_partition_sum(system, z.n, t)
        if z.method == thermo.ENUMERATION:
            assert z.lower == z.upper
            assert abs(z.lower - exact) <= 1e-12 * exact
        else:
            assert z.method == thermo.TRANSFER_MATRIX
            assert z.lower * (1 - 1e-12) <= exact <= z.upper * (1 + 1e-12)


@st.composite
def _shared_predecessor_restrictions(draw):
    """The banded w = 2 truncation to 1..9 restricted to a random subset of
    its letters, in which some letters share their predecessor set."""
    system = cf_sys(gg.BANDED, 2, truncate=9).restrict(
        sorted(draw(st.sets(st.integers(1, 9), min_size=2))))
    assume(len({column.tobytes() for column in system.incidence_matrix.T}) < len(system.edge_ids))
    return system


@settings(max_examples=60, deadline=None)
@given(_shared_predecessor_restrictions(), st.floats(0.0, 2.0))
def test_cf_level_sums_are_the_sums_over_the_words(system, t):
    # each level is laid out over the allowed pairs, one block per pair
    sums = thermo._cf_level_sums(system, range(1, 5), t)
    assert sorted(sums) == [1, 2, 3, 4]
    for n, z in sums.items():
        exact = _exact_partition_sum(system, n, t)
        assert abs(z - exact) <= 1e-12 * exact


def test_cf_level_sums_read_the_system_lumping_only(monkeypatch):
    # the allowed pairs are read off the predecessor sets of the system's one
    # lumping, reversed once and kept there: the collocation engine of the
    # irreducible head reads the same reversal, so after it no lumping and
    # no incidence matrix is built
    system, built = cf_sys(gg.BANDED, 2, truncate=6), []
    lumping, init = system.lumping, gg.StateLumping.__init__
    assert system.engines[0].lumping is lumping.reversed

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    with monkeypatch.context() as patch:
        patch.setattr(gg.StateLumping, "__init__", counted)
        sums = thermo._cf_level_sums(system, [1, 2, 3], 0.5)
    assert built == []
    assert system.lumping is lumping and "incidence_matrix" not in system.__dict__
    assert sums[3] == pytest.approx(_exact_partition_sum(system, 3, 0.5), rel=1e-12)


class TestCfCollocation:
    def test_states_are_distinct_predecessor_sets(self):
        full = cf_sys(truncate=5).engines[0]
        assert full.size == thermo.COLLOCATION_NODES
        banded = cf_sys(gg.BANDED, 1, truncate=6).engines[0]
        assert banded.size == 6 * thermo.COLLOCATION_NODES

    def test_constant_functions_at_zero(self):
        # L_0 maps constants to constants: the matrix is exact there
        engine = cf_sys(truncate=3).engines[0]
        L = engine.matrix(0.0)
        assert L @ np.ones(engine.size) == pytest.approx(3.0 * np.ones(engine.size), rel=1e-13)

    @pytest.mark.parametrize("kind,size", [(gg.FULL, 2), (gg.BANDED, 5)])
    def test_root_is_where_the_leading_eigenvalue_is_one(self, kind, size):
        # numpy's eigenvalues are the oracle; the package itself runs none
        engine = cf_sys(kind, 1, truncate=size).engines[0]
        h, _ = engine.find_root(engine.newton_start(1e-10), 1e-10)
        values = np.linalg.eigvals(engine.matrix(h))
        leading = values[np.argmax(values.real)]
        assert abs(leading - 1.0) <= 1e-12
        v = engine.right
        assert v.min() > 0.0 and v.sum() == pytest.approx(1.0)
        assert engine.matrix(h) @ v == pytest.approx(v, rel=1e-12, abs=1e-14)
        lo, hi = engine.certified_pressure(h)
        assert lo <= 0.0 <= hi

    def test_certificate_holds_off_the_nodes(self):
        # Collatz-Wielandt: a positive g with (lam - s) g <= L g <= (lam + s) g
        # at points that are not collocation nodes
        engine = cf_sys(gg.BANDED, 1, truncate=4).engines[0]
        t = 0.7
        lam, _, v = thermo.perron_root(engine.matrix(t), t)
        s = engine._residual_bound(t, lam, v)
        m = thermo.COLLOCATION_NODES
        coef = v.reshape(-1, m) @ engine.to_coef.T

        def g(state, x):
            return np.polynomial.chebyshev.chebval(2 * x - 1, coef[state])

        xs = np.linspace(0.0, 1.0, 101)
        for state, members in enumerate(engine.lumping.members):
            image = sum(members[k] * (a + xs) ** (-2 * t)
                        * g(engine.lumping.state_of[k], 1 / (a + xs))
                        for k, a in enumerate(engine.letters))
            assert np.all(np.abs(image - lam * g(state, xs)) <= s * g(state, xs))

    def test_left_vector_may_be_negative(self, monkeypatch):
        # the left collocation vector is not a Perron vector, so the
        # similarity engine refuses the matrix when it is handed it in place
        # of its own M(t), and the collocation checks only the overlap of
        # the two vectors
        engine = cf_sys(truncate=2).engines[0]
        L = engine.matrix(0.5)
        lam, upper, v = thermo.perron_root(L, 0.5)
        w = thermo.equilibrium_weights(L, v, upper) / v
        assert v.min() > 0 > w.min()
        assert w @ v == pytest.approx(1.0)
        block = gk.full_shift([0.3, 0.4]).engines[0]
        monkeypatch.setattr(block, "matrix", lambda t, derivative: engine.matrix(0.5, derivative))
        with pytest.raises(gk.ConvergenceError, match="left Perron vector"):
            block.pressure_slope(0.5)

    def test_leading_vector_not_positive_is_refused(self):
        # rows that sum to 0 are a bracket that is not positive, not an
        # underflow
        with pytest.raises(gk.ConvergenceError, match="not resolved"):
            thermo.perron_root(np.array([[1.0, -1.0], [-1.0, 1.0]]), 0.0)
        with pytest.raises(gk.ConvergenceError):  # leading pair is complex
            thermo.perron_root(np.array([[0.0, -1.0], [1.0, 0.0]]), 0.0)

    @pytest.mark.parametrize("gap", [1e-10, 1e-13])
    def test_eigenvalue_that_is_not_simple_is_refused(self, gap):
        # the rows sum to 0.7, so v = (1, 1); the left vector of 0.7 is
        # (0.3, gap - 0.3), and the other eigenvalue is 0.7 - gap. At
        # 1e-10 the left solve gives w.v near 0, at 1e-13 it is singular.
        B = np.array([[1.0 - gap, gap - 0.3], [0.3, 0.4]])
        lam, upper, v = thermo.perron_root(B, 0.0)
        with pytest.raises(gk.ConvergenceError, match="not simple"):
            thermo.equilibrium_weights(B, v, upper)

    def test_state_functions_beyond_the_double_range_are_refused(self):
        with pytest.raises(gk.ConvergenceError, match="state functions span more than the double"):
            gk.pressure(cf_sys(gg.BANDED, 1, truncate=40), 4.0)

    def test_certificate_needs_a_positive_function(self):
        engine = cf_sys(truncate=2).engines[0]
        lam, _, v = thermo.perron_root(engine.matrix(0.5), 0.5)
        with pytest.raises(gk.ConvergenceError):
            engine._residual_bound(0.5, lam, -v)

    def test_residual_bound_at_lam_is_refused(self, monkeypatch):
        # lam - s <= 0 would leave no lower bound
        engine = cf_sys(truncate=2).engines[0]
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
        L = system.engines[0].matrix(t)
        lam = max(np.linalg.eigvals(L).real)
        assert math.isfinite(est.lower)
        assert est.lower <= math.log(lam) <= est.upper

    def test_next_t_starts_from_the_previous_vector(self, monkeypatch):
        engine = cf_sys(gg.BANDED, 1, truncate=6).engines[0]
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            if len(a) == engine.size:
                solves.append(1)
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        engine.certified_pressure(0.5)
        cold = len(solves)
        assert engine.right is not None
        solves.clear()
        engine.certified_pressure(0.5 + 1e-9)
        # a step or two until the vector stays in place
        assert len(solves) <= 2 < cold

    def test_matrix_size_honours_the_count_guard(self, monkeypatch):
        monkeypatch.setenv("GDMS_COUNT_GUARD", str(thermo.COLLOCATION_NODES ** 2 - 1))
        with pytest.raises(gk.ResourceGuardError):
            gk.pressure(cf_sys(truncate=3), 0.5)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 0.15), min_size=1, max_size=6), st.floats(0.0, 3.0))
def test_similarity_decay_bounds_the_closed_form_slope(ratios, t):
    # a full shift has P'(t) = sum r^t ln r / sum r^t, a mean of the ln r,
    # so -P'(t) >= -max ln r
    log_r = np.log(ratios)
    weights = np.exp(t * log_r)
    slope = float(weights @ log_r) / float(weights.sum())
    block = gk.full_shift(ratios).engines[0]
    assert -slope >= block.decay > 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_row_sum_start_keeps_the_bracket(seed):
    system = random_packed_system(random.Random(seed))
    assume(system is not None and not gk.empty_limit_set(system))
    tolerance = 1e-10
    assert all(0.0 <= block.newton_start(tolerance) <= 1.0 for block in system.engines)
    est = gk.bowen_dimension(system, tolerance)
    # the same blocks on a fresh system, whose engine pool is empty, solved
    # by Newton from t = 0: a root kept at an infinite tolerance is where
    # the next solve starts
    cold = random_packed_system(random.Random(seed))
    for block in cold.engines:
        block.root = 0.0, math.inf
    est0 = gd._combined(gd._component_estimates(cold, tolerance), gd.PERRON_NEWTON)
    assert est.lo <= _reference_root(_dense_pressure(system)) <= est.hi
    assert abs(est.lo - est0.lo) <= tolerance / 2 and abs(est.hi - est0.hi) <= tolerance / 2


@pytest.mark.parametrize("kind,size", [(gg.FULL, 2), (gg.FULL, 3), (gg.FULL, 4),
                                       (gg.FULL, 5), (gg.BANDED, 8)])
def test_cf_decay_bounds_the_certified_pressure_drop(kind, size):
    engine = cf_sys(kind, 1, truncate=size).engines[0]
    assert engine.decay <= math.log(2)
    for t in np.linspace(0.0, 2.0, 9):
        lower = engine.certified_pressure(t)[0]
        upper = engine.certified_pressure(t + 0.01)[1]
        assert lower - upper >= 0.01 * math.log(2)


def _seeded_block(n=120):
    """One-vertex packed similarity system whose n edges form one
    irreducible block: the ring e_k -> e_(k+1) plus every other pair with
    probability 0.3, and seeded random ratios summing to 0.9."""
    rng = random.Random(0)
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    ratios = {f"e{k}": 0.9 * x / sum(raw) for k, x in enumerate(raw)}
    ids = list(ratios)
    allowed = {(a, b) for a in ids for b in ids if rng.random() < 0.3}
    allowed |= {(ids[k], ids[(k + 1) % n]) for k in range(n)}
    return packed_system("seeded-block", ratios, allowed)


class TestNewtonStart:
    @pytest.mark.parametrize("ratios", [[1 / 3, 1 / 3], [0.3, 0.4],
                                        [0.1, 0.2, 0.3, 0.05], [0.45, 0.45, 0.05]])
    def test_full_shift_starts_at_its_moran_root(self, ratios):
        block = gk.full_shift(ratios).engines[0]
        moran, _ = gd._component_root(
            lambda t: gd._full_shift_pressure(block.log_norms, t), 1e-10)
        assert block.newton_start(1e-10) == moran
        assert block.right is None
        est = gk.bowen_dimension(gk.full_shift(ratios))
        assert est.iterations == 1 and est.method == gd.MORAN_EXACT

    def test_row_sum_start_saves_solves_on_a_large_block(self, monkeypatch):
        system = _seeded_block()
        assert len(system.engines) == 1 and system.engines[0].size == 120
        solves = _solve_counter(monkeypatch)
        est = gk.bowen_dimension(system)
        # from t = 0 this block takes 4 Newton steps and 16 solves
        assert est.iterations <= 3 and len(solves) <= 13

    @pytest.mark.parametrize("allowed,start", [
        ({("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}, 1.0),
        ({("a", "a"), ("a", "b"), ("b", "a")}, 0.85)])
    def test_overfull_blocks_are_still_refused(self, allowed, start):
        # ratios 0.62 + 0.62: the full block's model root lies beyond 1, so
        # Newton starts at 1; the golden-mean block's lies at 0.85, yet
        # rho(B(1)) = (0.62 + sqrt(0.62^2 + 4 * 0.62^2)) / 2 > 1
        system = packed_system("overfull", {"a": 0.62, "b": 0.62}, allowed)
        assert system.engines[0].newton_start(1e-10) == pytest.approx(start, abs=0.01)
        with pytest.raises(gk.UnsupportedAnalysisError, match="P\\(1\\) > 0"):
            gk.bowen_dimension(system)

    @pytest.mark.parametrize("kind,size", [(gg.FULL, 2), (gg.BANDED, 8)])
    def test_coarse_root_starts_near_the_full_one(self, kind, size, monkeypatch):
        engine = cf_sys(kind, 1, truncate=size).engines[0]
        t0 = engine.newton_start(1e-10)
        assert engine.right.shape == (engine.size,) and engine.right.min() > 0.0
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(len(a))
            return solve(a, b)
        monkeypatch.setattr(np.linalg, "solve", counted)
        h, steps = engine.find_root(t0, 1e-10)
        # the coarse root lies about 2e-8 from the full one, so one step of
        # size 20N reaches the tolerance and the next confirms it
        assert abs(h - t0) <= 1e-7
        assert solves.count(engine.size) == steps <= 2

    def test_failed_coarse_steps_start_at_the_model_root(self, monkeypatch):
        # the state model of digits {1, 2} is the full shift of ratios
        # (a + 1/2)^-2, whose Moran root is where the full-size steps start,
        # from the state sizes there rather than a warm vector
        engine = cf_sys(truncate=2).engines[0]
        engine.certified_pressure(0.4)
        find_root = thermo.CfCollocation.find_root

        def coarse_fails(self, t0, tolerance):
            if self.nodes == thermo.COARSE_NODES:
                raise gk.ConvergenceError("coarse collocation refused")
            return find_root(self, t0, tolerance)
        monkeypatch.setattr(thermo.CfCollocation, "find_root", coarse_fails)
        model_root = _moran_bisect([1.5 ** -2, 2.5 ** -2])
        assert engine.newton_start(1e-10) == pytest.approx(model_root, abs=1e-10)
        assert engine.right is None and engine.sizes is None

    def test_singular_shifted_matrix_makes_t_the_root(self, monkeypatch):
        # L(t) - I singular: eigenvalue 1 at t, so one step ends the search
        engine = cf_sys(truncate=2).engines[0]

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        assert engine.find_root(0.4, 1e-10) == (0.4, 1)
        assert engine.right.min() > 0.0

    def test_coarse_vector_that_is_not_positive_is_refused(self, monkeypatch):
        # flip the sign of the interpolation onto the full grid, the one
        # Chebyshev table that newton_start reads and its coarse engine does not
        engine = cf_sys(truncate=2).engines[0]
        grid = thermo._interpolation_grid
        monkeypatch.setattr(thermo, "_interpolation_grid", lambda m: -grid(m))
        with pytest.raises(gk.ConvergenceError, match="interpolate positive"):
            engine.newton_start(1e-10)
        assert engine.right is None


def _recorded_slopes(monkeypatch):
    """Patch `PerronBlock.pressure_slope` to record every t it is called at;
    returns the list of those t."""
    calls = []
    pressure_slope = thermo.PerronBlock.pressure_slope

    def recorded(block, t):
        calls.append(t)
        return pressure_slope(block, t)
    monkeypatch.setattr(thermo.PerronBlock, "pressure_slope", recorded)
    return calls


class TestInverseIteration:
    # `PerronBlock.find_root` takes one solve of (M(t) - I) u = M'(t) v per
    # Newton step, and the Perron-Newton step where that solve is singular
    # or its vector is not positive

    def test_three_block_dimension_takes_few_solves(self, monkeypatch):
        # 120 + 120 + 60 edges, two distinct engines: Perron-Newton took 23
        # solves, a Collatz-Wielandt iteration and a left solve per step
        system = three_block_system(0)
        assert len(set(system.engines)) == 2
        solves = _solve_counter(monkeypatch)
        est = gk.bowen_dimension(system)
        assert len(solves) <= 8
        monkeypatch.undo()
        assert est.lo <= _reference_root(_dense_pressure(system)) <= est.hi

    def test_step_is_newtons_for_a_vector_of_sum_one(self):
        # -1/(sum u) is Newton's step on M v = v, sum v = 1 only for v of sum
        # 1; `right` as `collatz_wielandt` leaves it, scaled to max 1, would
        # shorten the step by the factor sum v
        system = packed_system("golden", {"a": 0.3, "b": 0.4},
                               {("a", "a"), ("a", "b"), ("b", "a")})
        block = system.engines[0]
        h, _ = block.find_root(0.5, 1e-12)
        p, slope = block.pressure_slope(h + 1e-3)
        assert block.right.max() == 1.0 and block.right.sum() > 1.5
        step, _ = block._inverse_step(h + 1e-3)
        assert step == pytest.approx(-p / slope, rel=1e-2)
        assert block.right.sum() == pytest.approx(1.0, rel=1e-15)

    def test_singular_cold_start_takes_the_perron_newton_step(self, monkeypatch):
        # at t = 0 a non-Perron eigenvalue of M(0) is 1, so M(0) - I is
        # singular although rho(M(0)) > 1: t = 0 is not the root
        cold = random_packed_system(random.Random(0))
        (block,) = cold.engines
        assert np.min(np.abs(np.linalg.eigvals(block.matrix(0.0)) - 1.0)) < 1e-12
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(block.matrix(0.0) - np.eye(block.size), np.ones(block.size))
        calls = _recorded_slopes(monkeypatch)
        block.root = 0.0, math.inf  # Newton from t = 0
        est = gd._combined(gd._component_estimates(cold, 1e-10), gd.PERRON_NEWTON)
        assert calls[0] == 0.0 and 0.8 < est.lo
        assert est.lo <= _reference_root(_dense_pressure(cold)) <= est.hi
        assert block.right.min() > 0.0

    def test_vector_that_is_not_positive_takes_the_perron_newton_step(self, monkeypatch):
        # the state model of CF banded N = 8 has eigenvalues 1.373 and 0.846
        # at its row-sum start: the first solve gives a vector of both signs
        engine = cf_sys(gg.BANDED, 1, truncate=8).engines[0]
        model = engine.model
        t0 = model.newton_start(1e-10)
        eigenvalues = np.sort(np.linalg.eigvals(model.matrix(t0)).real)
        assert eigenvalues[-2:] == pytest.approx([0.846, 1.373], abs=1e-3)
        perron_newton, _ = thermo._component_root(model.pressure_slope, 1e-10, t0)
        model.right = None
        calls = _recorded_slopes(monkeypatch)
        root, steps = model.find_root(t0, 1e-10)
        assert calls[0] == t0 and len(calls) < steps
        assert abs(root - perron_newton) <= 1e-10 / 4 and model.right.min() > 0.0

    @pytest.mark.parametrize("size", [8, 20, 40])
    def test_cf_brackets_do_not_depend_on_the_state_model_solver(self, size, monkeypatch):
        # the CF state model seeds the coarse collocation from its
        # Perron-Newton root; seeded from `find_root`, whose first steps
        # take the fallback here, the brackets are the same bit for bit
        kept = gk.bowen_dimension(cf_sys(gg.BANDED, 1, truncate=size))
        calls = _recorded_slopes(monkeypatch)
        component_root = thermo._component_root

        def by_find_root(pressure_slope, tolerance, t0=0.0):
            if getattr(pressure_slope, "__func__", None) is thermo.PerronBlock.pressure_slope:
                return pressure_slope.__self__.find_root(t0, tolerance)
            return component_root(pressure_slope, tolerance, t0)
        monkeypatch.setattr(thermo, "_component_root", by_find_root)
        seeded = gk.bowen_dimension(cf_sys(gg.BANDED, 1, truncate=size))
        assert calls and (seeded.lo, seeded.hi, seeded.iterations) == (
            kept.lo, kept.hi, kept.iterations)


def _recorded_vander(monkeypatch):
    """Patch `thermo._chebyshev_vander` to record the shape of every u it
    is called on; returns the list of shapes."""
    shapes = []
    vander = thermo._chebyshev_vander

    def recorded(u, m):
        shapes.append(np.shape(u))
        return vander(u, m)
    monkeypatch.setattr(thermo, "_chebyshev_vander", recorded)
    return shapes


def _outcome(call, *args):
    """call(*args), or the text of the ConvergenceError it raises."""
    try:
        return call(*args)
    except gk.ConvergenceError as exc:
        return str(exc)


def _clear_process_tables():
    """Empty every table that the package keeps for the process (each
    `functools.cache` and `_LetterTables` of `thermo`), as in a fresh process."""
    for table in vars(thermo).values():
        if hasattr(table, "cache_clear") and not isinstance(table, type):
            table.cache_clear()


def _held(store):
    """{(letter, m): its rows} of a `thermo._LetterTables`."""
    return {(a, m): tuple(table[k] for table in tables)
            for m, (rows, tables) in store.held.items() for a, k in rows.items()}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCertificatePlan:
    # the certificate's points: its tables are built on arrays of this length
    POINTS = thermo.CERTIFICATE_PANELS * thermo.PANEL_POINTS

    @pytest.mark.parametrize("kind,size", [(gg.FULL, 2), (gg.BANDED, 6)])
    def test_letter_tables_are_built_once_per_process(self, kind, size, monkeypatch):
        _clear_process_tables()
        shapes = _recorded_vander(monkeypatch)
        system = cf_sys(kind, 1, truncate=size)
        gk.bowen_dimension(system)
        # the letters' image tables on the 20 nodes, on the 8 of the coarse
        # engine and on the certificate points, one batch each; once for
        # the process the interpolation grid on the 20 nodes and the self
        # table T_k(2y - 1) on the points
        nodes, coarse = thermo.COLLOCATION_NODES, thermo.COARSE_NODES
        assert sorted(shapes) == sorted([(size, nodes), (size, coarse), (size, self.POINTS),
                                         (nodes,), (self.POINTS,)])
        assert len(_held(thermo._letter_tables)) == 2 * size
        assert len(_held(thermo._letter_plan)) == size
        # full N = 3 shares letters 1 and 2 (and 3 with banded N = 6), so
        # only a letter new to the process gets tables
        (engine,) = system.engines
        shapes.clear()
        gk.bowen_dimension(cf_sys(gg.FULL, truncate=3))
        new = 3 - size
        assert sorted(shapes) == ([] if new <= 0 else
                                  sorted([(new, nodes), (new, coarse), (new, self.POINTS)]))
        assert len(_held(thermo._letter_plan)) == max(size, 3)
        # an engine keeps the stacked rows of its letters, bit for bit
        plan = engine._plan
        for k, a in enumerate(engine.letters.tolist()):
            for stacked, row in zip(plan[:4], _held(thermo._letter_plan)[a, nodes]):
                assert _same_bits(stacked[k], row)
        assert plan[-1] is thermo._panel_tables(nodes)
        # a fresh system of the same letters, and every later t, build none
        shapes.clear()
        again = cf_sys(kind, 1, truncate=size)
        gk.bowen_dimension(again)
        for t in (0.0, 0.3, 0.9, 1.5, 2.0):
            for sys_ in (system, again):
                est = gk.pressure(sys_, t)
                assert est.lower <= est.upper
        assert shapes == []
        assert engine._plan is plan

    def test_coarse_engine_builds_no_plan(self, monkeypatch):
        engine = cf_sys(gg.BANDED, 1, truncate=6).engines[0]
        _clear_process_tables()
        shapes = _recorded_vander(monkeypatch)
        engine.newton_start(1e-10)
        # the coarse engine's letter rows on 8 nodes and the grid that
        # interpolates its vector onto 20, and no certificate table
        assert sorted(shapes) == [(6, thermo.COARSE_NODES), (thermo.COLLOCATION_NODES,)]
        assert thermo._letter_plan.held == {}
        assert thermo._panel_tables.cache_info().currsize == 0
        assert "_plan" not in engine.__dict__

    def test_shared_tables_are_read_only(self):
        system = cf_sys(gg.BANDED, 2, truncate=5)
        gk.bowen_dimension(system)
        (engine,) = system.engines
        m = engine.nodes
        letters, plan = _held(thermo._letter_tables), _held(thermo._letter_plan)
        shared = [*letters[5.0, m], *plan[5.0, m], *letters[1.0, thermo.COARSE_NODES],
                  *thermo._node_tables(m), *thermo._panel_tables(m),
                  thermo._interpolation_grid(m), thermo._ones(m), engine.to_coef]
        tables = [table for table in shared if isinstance(table, np.ndarray)]
        assert len(tables) == 19
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 0.0

    def test_heads_read_the_held_rows_in_place(self):
        # heads {1..N} are the first letters held, in order: their engines
        # read the process's rows; other letter sets get a copy of theirs
        _clear_process_tables()
        gk.bowen_dimension(cf_sys(gg.BANDED, 1, truncate=8))
        head = cf_sys(gg.FULL, truncate=3).engines[0]
        block = cf_sys(gg.FULL, truncate=2).engines[0].block
        other = thermo.CfCollocation(block, [5.0, 3.0])
        held = _held(thermo._letter_plan)
        for engine in (head, other):
            tables = thermo._letter_plan.held[engine.nodes][1]
            for k, table in enumerate(engine._plan[:4]):
                assert np.shares_memory(table, tables[k]) == (engine is head)
                for row, a in zip(table, engine.letters.tolist()):
                    assert _same_bits(row, held[a, engine.nodes][k])
        assert np.shares_memory(head.log_weights, thermo._letter_tables.held[head.nodes][1][0])
        assert len(held) == 8

    def test_process_keeps_at_most_the_limit(self, monkeypatch):
        # letters past the limit are built for the engine and not kept
        monkeypatch.setattr(thermo, "LETTER_TABLE_LIMIT", 6)
        _clear_process_tables()
        m = thermo.COLLOCATION_NODES
        assert [len(x) for x in thermo._letter_tables.take([1.0, 2.0, 3.0, 4.0], m)] == [4, 4]
        log_weights, images = thermo._letter_tables.take([9.0, 2.0, 8.0, 7.0], m)
        assert sorted(a for a, _ in _held(thermo._letter_tables)) == [1.0, 2.0, 3.0, 4.0]
        rows = thermo._collocation_rows(np.array([[9.0, 2.0, 8.0, 7.0]]).T, m)
        assert _same_bits(log_weights, rows[0]) and _same_bits(images, rows[1])
        thermo._letter_tables.take([5.0, 6.0, 1.0], m)
        assert len(_held(thermo._letter_tables)) == 6
        _clear_process_tables()

    def test_takes_from_two_threads_see_their_own_rows(self):
        # both calls read the pair that holds letter 1 and build their new
        # letters before either keeps its rows: each must index the pair it
        # built, whichever of the two is kept
        barrier = threading.Barrier(2)

        def build(a, m):
            if a[0, 0] != 1.0:
                barrier.wait(timeout=30)
            return (a * np.ones(m),)
        store, results = thermo._LetterTables(build), {}
        store.take([1.0], 3)

        def take(letters):
            results[letters[0]] = store.take(letters, 3)[0][:, 0].tolist()
        threads = [threading.Thread(target=take, args=(letters,))
                   for letters in ([2.0, 1.0, 3.0], [7.0, 5.0, 1.0])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == {2.0: [2.0, 1.0, 3.0], 7.0: [7.0, 5.0, 1.0]}
        (rows, (table,)), = store.held.values()
        assert len(rows) == 3 and all(table[k, 0] == a for a, k in rows.items())

    def test_stacked_plan_is_the_formula_on_all_letters(self):
        # the plan as one engine built it from all its letters at once
        for kind, width, size in ((gg.FULL, 1, 7), (gg.BANDED, 2, 9)):
            engine = cf_sys(kind, width, truncate=size).engines[0]
            reach, centers, y = thermo._panel_tables(engine.nodes)[:3]
            a = engine.letters[:, None]
            mid = a + centers
            spread = mid * mid - reach * reach
            r_image = thermo._ellipse_parameter(2 * mid / spread - 1, 2 * reach / spread)
            formula = (a + y, thermo._chebyshev_vander(2.0 / (a + y) - 1.0, engine.nodes),
                       a + centers - reach, r_image[:, :, None] ** np.arange(engine.nodes))
            for stacked, table in zip(engine._plan, formula):
                assert _same_bits(stacked, table)

    def test_vander_matches_numpy_chebvander(self):
        # numpy.polynomial is an independent oracle, imported here only
        from numpy.polynomial.chebyshev import chebvander
        rng = np.random.default_rng(3)
        for shape in ((7,), (192,), (5, 192), (3, 8)):
            u = rng.uniform(-1.0, 1.0, shape)
            for m in (2, 8, 20):
                T = thermo._chebyshev_vander(u, m)
                assert T.shape == shape + (m,)
                assert np.array_equal(T, chebvander(u, m - 1))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(st.just(gg.FULL), st.integers(1, 5)),
                 st.tuples(st.just(gg.BANDED), st.integers(2, 8))),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_certificate_from_a_reused_plan_is_bit_identical(rule, t1, t2):
    # the plan built at t1 serves t2 exactly as a fresh engine's does
    kind, size = rule
    warm = cf_sys(kind, 1, truncate=size).engines[0]
    fresh = cf_sys(kind, 1, truncate=size).engines[0]
    lam, _, v = thermo.perron_root(warm.matrix(t1), t1)
    _outcome(warm._residual_bound, t1, lam, v)
    assert "_plan" in warm.__dict__ and "_plan" not in fresh.__dict__
    lam, _, v = thermo.perron_root(fresh.matrix(t2), t2)
    assert _outcome(warm._residual_bound, t2, lam, v) == _outcome(fresh._residual_bound,
                                                                  t2, lam, v)


# CF heads whose values must not depend on the tables the process holds
_HEADS = ([(gg.FULL, 1, n) for n in range(1, 6)]
          + [(gg.BANDED, w, n) for w in (1, 2) for n in range(1, 11)] + [(gg.UPPER, 1, 6)])


def _head_values(head):
    """The hex of the `bowen_dimension` bracket and of the `pressure`
    brackets at t = 0, 0.5 and 2 of a fresh system of one head."""
    system = cf_sys(*head)
    d = gk.bowen_dimension(system)
    values = [d.lo, d.hi]
    for t in (0.0, 0.5, 2.0):
        p = gk.pressure(system, t)
        values += [p.lower, p.upper]
    return [float(v).hex() for v in values] + [d.method, d.iterations]


def test_cf_values_do_not_depend_on_tables_built_earlier():
    cold = {}
    for head in _HEADS:  # each head as in a fresh process
        _clear_process_tables()
        cold[head] = _head_values(head)
    # the tables filled first by other heads, their letters in another
    # order, and the heads computed in reverse
    _clear_process_tables()
    for head in ((gg.BANDED, 3, 12), (gg.FULL, 1, 8), (gg.BANDED, 1, 7)):
        gk.bowen_dimension(cf_sys(*head))
    warm = {head: _head_values(head) for head in reversed(_HEADS)}
    assert warm == cold


def _cf_rules():
    """(kind, width, size): banded rules up to 10 letters wide 1 to 3, and
    full rules up to 8 letters."""
    banded = st.tuples(st.just(gg.BANDED), st.integers(1, 3), st.integers(1, 10))
    full = st.tuples(st.just(gg.FULL), st.just(1), st.integers(1, 8))
    return st.one_of(banded, full)


@settings(max_examples=40, deadline=None)
@given(_cf_rules(), st.sampled_from([thermo.COARSE_NODES, thermo.COLLOCATION_NODES]),
       st.floats(0.0, 3.0))
def test_matrix_is_the_blockwise_assembly_bit_for_bit(rule, nodes, t):
    # the blockwise assembly and a transpose, and the tables an engine
    # built from its letters alone, here in the test
    kind, width, size = rule
    fine = cf_sys(kind, width, truncate=size).engines[0]
    engine = thermo.CfCollocation(fine.block, fine.letters, nodes)
    x, to_coef = thermo._node_tables(nodes)
    shifted = engine.letters[:, None] + x
    log_weights = -2.0 * np.log(shifted)
    kernel = thermo._chebyshev_vander(2.0 / shifted - 1.0, nodes) @ to_coef
    assert _same_bits(engine.log_weights, log_weights)
    assert _same_bits(engine.kernel, kernel)

    def blockwise(per_letter):
        # block (s, s(a)) summed per pair by one bincount into (states,
        # states, m, m), then node axes interleaved by a transpose
        lumping, states = engine.lumping, len(engine.lumping.members)
        keys = lumping.rows * states + lumping.state_of[lumping.feeding]
        keys = (keys[:, None] * nodes * nodes + np.arange(nodes * nodes)).ravel()
        blocks = np.bincount(keys, per_letter[lumping.feeding].ravel(),
                             minlength=states * states * nodes * nodes)
        blocks = blocks.reshape(states, states, nodes, nodes)
        return blocks.transpose(0, 2, 1, 3).reshape(engine.size, engine.size)
    scaled = kernel * np.exp(t * log_weights)[:, :, None]
    L, dL = engine.matrix(t, derivative=True)
    assert np.array_equal(L, blockwise(scaled))
    assert _same_bits(L, blockwise(scaled))
    assert _same_bits(dL, blockwise(scaled * log_weights[:, :, None]))
    assert _same_bits(engine.matrix(t), L)


@settings(max_examples=60, deadline=None)
@given(_cf_rules(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_collocation_eigenpair_is_the_leading_one(rule, t, t_before):
    # numpy's eigenvalues are the oracle; the package itself runs none. The
    # engine is warm from another t, the bare call starts from ones.
    kind, width, size = rule
    system = cf_sys(kind, width, truncate=size)
    engine = system.engines[0]
    engine._perron(t_before, engine.matrix(t_before))
    L = engine.matrix(t)
    values = np.linalg.eigvals(L)
    leading = values[np.argmax(values.real)]
    assert leading.imag == 0.0
    for lam, _, v in (engine._perron(t, L), thermo.perron_root(L, t)):
        assert abs(lam - leading.real) <= 1e-12 * leading.real
        assert v.min() > 0.0
    p0 = gk.pressure(system, 0.0)
    assert p0.lower <= log_rho(system) <= p0.upper


@st.composite
def _nested_banded(draw):
    """(width, N, M): two banded truncations with N < M <= 30."""
    width = draw(st.integers(1, 3))
    big = draw(st.integers(2, 30))
    return width, draw(st.integers(1, big - 1)), big


@settings(max_examples=25, deadline=None)
@given(_nested_banded(), st.floats(0.0, 10.0))
def test_nested_banded_truncations_stay_ordered(rule, t):
    # the words of {1..N} are words of {1..M}, so P_N(t) <= P_M(t); each
    # bracket is finite and ordered, or its pressure refuses loudly
    width, small, big = rule
    estimates = []
    for size in (small, big):
        try:
            est = gk.pressure(cf_sys(gg.BANDED, width, truncate=size), t)
        except gk.ConvergenceError:
            estimates.append(None)
            continue
        assert math.isfinite(est.lower) and math.isfinite(est.upper)
        assert est.lower <= est.upper
        estimates.append(est)
    if None not in estimates:
        assert estimates[0].lower <= estimates[1].upper


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

    @pytest.mark.parametrize("system", [gk.full_shift([1 / 2, 1 / 2]), cf_sys()])
    def test_word_lengths_below_one_are_refused(self, system):
        with pytest.raises(gk.InputError, match="n must be >= 1"):
            gk.finiteness_parameters(system, (0, 1))

    @pytest.mark.parametrize("system", [gk.full_shift([1 / 2, 1 / 2]), cf_sys()])
    def test_empty_word_length_list_is_refused(self, system):
        # it reported theta with no theta_n at all
        with pytest.raises(gk.InputError, match="need at least one word length"):
            gk.finiteness_parameters(system, [])


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

    def test_refinement_sums_over_every_letter(self):
        # golden mean shift: e2 may not follow e2, so [e2 e2] is empty and
        # m([w]) is the sum of m([w f]) over all letters f, admissible or not
        sys = packed_system("golden", {"e1": 0.5, "e2": 0.25},
                            {("e1", "e1"), ("e1", "e2"), ("e2", "e1")})
        m = gk.conformal_cylinder_measure(sys, gk.bowen_dimension(sys).mid)
        assert m.word_mass(sys, ("e2", "e2")) == 0.0
        words = [(e,) for e in sys.edge_ids]
        for _ in range(3):
            for w in words:
                parts = [m.word_mass(sys, w + (f,)) for f in sys.edge_ids]
                assert math.fsum(parts) == pytest.approx(m.word_mass(sys, w), abs=1e-12)
            words = [w + (f,) for w in words for f in sys.edge_ids]
        for word in [(), ("zzz",), ("e1", "zzz")]:
            with pytest.raises(gk.InputError):
                m.word_mass(sys, word)

    def test_masses_need_no_left_perron_vector(self, monkeypatch):
        # the masses read the right Perron vector of M(h) only
        h = gk.bowen_dimension(period_two_system()).mid
        kept = gk.conformal_cylinder_measure(period_two_system(), h)

        def refuse(*args):
            raise AssertionError("a left Perron vector was solved for")
        monkeypatch.setattr(thermo, "equilibrium_weights", refuse)
        assert gk.conformal_cylinder_measure(period_two_system(), h) == kept

    def test_measure_after_the_dimension_makes_no_solve(self, monkeypatch):
        # the core's engine is the parent's, its vector already at h: the
        # Collatz-Wielandt bracket holds at once
        system = three_block_system(0)
        h = gk.bowen_dimension(system).mid
        core = system.restrict(max(system.components, key=len))
        solves = _solve_counter(monkeypatch)
        measure = gk.conformal_cylinder_measure(core, h)
        assert solves == [] and len(measure.edge_masses) == 120

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

    @pytest.mark.parametrize("h,tolerance", [
        (math.nan, 1e-9), (math.inf, 1e-9), (-0.5, 1e-9),
        (0.6, math.nan), (0.6, 0.0), (0.6, -1.0), (0.6, math.inf)])
    def test_rejects_bad_arguments_before_any_solve(self, monkeypatch, h, tolerance):
        def no_solve(*args):
            raise AssertionError("a Perron vector was computed")
        monkeypatch.setattr(thermo, "collatz_wielandt", no_solve)
        with pytest.raises(gk.InputError, match="finite"):
            gk.conformal_cylinder_measure(gk.full_shift([1 / 3, 1 / 3]), h, tolerance)


def test_spectral_quantities_never_build_a_subsystem(monkeypatch):
    # every engine is a slice of the system's incidence matrix
    similarity = [two_component_system(linked=True), period_two_system()]
    cf = [cf_sys(truncate=3), cf_sys(gg.BANDED, 1, truncate=6)]

    def no_subsystem(*args):
        raise AssertionError("a subsystem was built")
    monkeypatch.setattr(gk.GdmsSystem, "subsystem", no_subsystem)
    for system in similarity + cf:
        gk.pressure(system, 0.5)
        gk.bowen_dimension(system)
    system = similarity[1]
    gk.conformal_cylinder_measure(system, gk.bowen_dimension(system).mid)
