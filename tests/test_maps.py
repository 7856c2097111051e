import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from conftest import (mirrored_blocks_system, packed_system, reference_image,
                      three_block_system, two_component_system)

U = 2.0 ** -53  # unit roundoff of a double


def cf_sys():
    return gk.cf_system(gk.IncidenceSpec(gg.FULL))


class TestContinuants:
    def test_single_letter(self):
        p, p_prev, q, q_prev = gm.cf_continuants((1,))
        assert (p, p_prev, q, q_prev) == (1, 0, 1, 1)

    def test_word_one_repeated_is_fibonacci(self):
        # continuants of (1,...,1) are Fibonacci numbers, so phi at 0 is a
        # ratio of consecutive Fibonacci numbers
        sys = cf_sys()
        val = sys.evaluate((1,) * 10, 0.0)
        assert abs(val - 55 / 89) < 1e-15

    def test_golden_mean_fixed_point(self):
        sys = cf_sys()
        phi = (math.sqrt(5) - 1) / 2
        val = sys.evaluate((1,) * 40, 0.3)
        assert abs(val - phi) < 1e-15


class TestDerivativeNorms:
    def test_similarity_norm_is_ratio_product(self):
        sys = gk.full_shift([1 / 2, 1 / 4])
        norm = math.exp(sys.family.log_norm(("e1", "e2", "e1")))
        assert abs(norm - 1 / 16) < 1e-13 / 16

    def test_cf_pair_norm(self):
        sys = cf_sys()
        norm = math.exp(sys.family.log_norm((1, 2)))
        # q_2 = 2*q_1 + q_0 = 3, so the norm is 1/9
        assert abs(norm - 1 / 9) < 1e-13 / 9

    @pytest.mark.parametrize("word", [(1,) * 10, (2,) * 60, (7, 1) * 40])
    def test_cf_norm_is_exact_at_every_length(self, word):
        log_norm = cf_sys().family.log_norm(word)
        assert log_norm == -2.0 * math.log(gm.cf_continuants(word)[2])

    def test_long_word_log_norm_consistent(self):
        sys = cf_sys()
        word = (1, 3, 2, 5, 1, 2) * 5
        exact = gm.cf_continuants(word)[2]
        log_norm = sys.family.log_norm(word)
        assert abs(log_norm - (-2 * math.log(exact))) < 1e-10

    def test_difference_quotient_cross_check(self, rng):
        # independent oracle: compose x -> 1/(e + x) with exact rationals and
        # take a central difference quotient at 0, then compare with the
        # reported sup-norm of the derivative (attained at x = 0)
        from fractions import Fraction
        h = Fraction(1, 10 ** 6)

        def phi(word, x):
            for e in reversed(word):
                x = 1 / (e + x)
            return x

        for _ in range(30):
            n = rng.randrange(1, 13)
            word = tuple(rng.randrange(1, 9) for _ in range(n))
            quotient = abs(phi(word, h) - phi(word, -h)) / (2 * h)
            norm = math.exp(cf_sys().family.log_norm(word))
            assert abs(float(quotient) - norm) <= 1e-9 * norm

    def test_submultiplicative_in_concatenation(self, rng):
        sys = cf_sys()
        for _ in range(30):
            w1 = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 6)))
            w2 = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 6)))
            a = sys.family.log_norm(w1)
            b = sys.family.log_norm(w2)
            c = sys.family.log_norm(w1 + w2)
            assert c <= a + b + 1e-12


def _exact_cf_image(word, x):
    """phi_word(x) in exact rationals, x -> 1/(a + x) from the last letter."""
    y = Fraction(x)
    for a in reversed(word):
        y = 1 / (a + y)
    return y


class TestWordImages:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(gm.SimilarityMap, st.floats(0.01, 0.99), st.floats(-5.0, 5.0),
                              st.sampled_from((1, -1))), min_size=1, max_size=5),
           st.integers(1, 40), st.integers(1, 6), st.integers(0, 2 ** 32))
    def test_similarity_images_are_bit_equal_to_per_word_composition(self, maps, depth,
                                                                     count, seed):
        family = gm.SimilarityFamily(dict(enumerate(maps)))
        rng = np.random.default_rng(seed)
        words = rng.integers(0, len(maps), size=(count, depth))
        points = rng.uniform(-3.0, 3.0, size=(2, count))
        got = gm.word_images(family.coefficients(tuple(range(len(maps)))), words, points)
        want = [[reference_image(family, tuple(w), x) for w, x in zip(words.tolist(), row)]
                for row in points.tolist()]
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 400), st.integers(1, 4), st.integers(0, 2 ** 32))
    @example(max_digit=5, depth=20, count=4, seed=0)
    def test_cf_images_match_continuants_then_exact_rationals(self, max_digit, depth,
                                                              count, seed):
        # bit-equal to the continuant formula while q_n < 2^53; beyond it,
        # within 8 * depth rounding units of the exact value
        rng = np.random.default_rng(seed)
        words = rng.integers(0, max_digit, size=(count, depth))
        points = rng.uniform(0.0, 1.0, size=(1, count))
        letters = tuple(range(1, max_digit + 1))
        got = gm.word_images(gm.MoebiusCfFamily().coefficients(letters), words, points)[0]
        for value, positions, x in zip(got.tolist(), words.tolist(), points[0].tolist()):
            word = tuple(k + 1 for k in positions)
            if gm.cf_continuants(word)[2] < 2 ** 53:
                assert value == reference_image(gm.MoebiusCfFamily(), word, x)
            else:
                exact = _exact_cf_image(word, x)
                assert abs(Fraction(value) - exact) <= Fraction(8 * depth) * Fraction(U) * exact

    @pytest.mark.parametrize("depth", [200, 400])
    def test_deep_cf_word_interval_is_finite_and_near_exact(self, depth):
        # q_n of (40,) * 200 passes 2^1064, beyond the double range, so only
        # the rescaled product keeps the images finite
        system = gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=40)
        word = (40,) * depth
        lo, hi = system.word_interval(word)
        assert math.isfinite(lo) and lo <= hi
        exact = sorted(_exact_cf_image(word, x) for x in (0, 1))
        for value, want in zip((lo, hi), exact):
            assert abs(Fraction(value) - want) <= Fraction(8 * depth) * Fraction(U) * want

    def test_rescaling_by_powers_of_two_leaves_images_bit_for_bit(self, monkeypatch):
        # q_n < 41^60 < 2^322 for digits up to 40 at depth 60, so at the
        # default bound no product is scaled; at 2^40 every one is, often
        rng = np.random.default_rng(5)
        words = rng.integers(0, 40, size=(50, 60))
        points = rng.uniform(0.0, 1.0, size=(2, 50))
        letters = tuple(range(1, 41))
        plain = gm.word_images(gm.MoebiusCfFamily().coefficients(letters), words, points)
        monkeypatch.setattr(gm, "RESCALE_ABOVE", 2.0 ** 40)
        scaled = gm.word_images(gm.MoebiusCfFamily().coefficients(letters), words, points)
        assert np.array_equal(scaled.view(np.int64), plain.view(np.int64))

    @pytest.mark.parametrize("truncate", [3, None])
    def test_numpy_integer_labels_pass(self, truncate):
        system = gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=truncate)
        assert system.evaluate((np.int64(2),), 0.5) == system.evaluate((2,), 0.5)
        assert system.word_interval((np.int64(2), np.int32(1))) == system.word_interval((2, 1))
        assert system.family.log_norm((np.int64(2),)) == system.family.log_norm((2,))
        assert gk.is_admissible(system, (np.int64(1), np.int64(3)))

    def test_labels_that_are_not_positive_integers_keep_their_messages(self):
        infinite = cf_sys()
        for label in (2.0, 0, -1, "x"):
            with pytest.raises(gk.InputError, match=f"unknown edge id {label!r}"):
                infinite.evaluate((label,), 0.5)
            with pytest.raises(gk.InputError,
                               match=f"labels are positive integers, got {label!r}"):
                infinite.family.log_norm((label,))
        with pytest.raises(gk.InputError, match="unknown edge id 'x'"):
            gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=3).evaluate(("x",), 0.5)


class TestVertexSpace:
    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 1.0),
                                       (-math.inf, math.inf)])
    def test_infinite_end_refused(self, lo, hi):
        with pytest.raises(gk.InputError, match="space for vertex 'v' needs finite ends"):
            gm.VertexSpace("v", lo, hi)

    def test_nan_end_refused(self):
        with pytest.raises(gk.InputError):
            gm.VertexSpace("v", math.nan, 1.0)


class TestSimilarityMap:
    def test_call(self):
        assert gm.SimilarityMap(0.25, 0.5)(1.0) == 0.75
        assert gm.SimilarityMap(0.5, 0.75, -1)(0.5) == 0.5

    def test_sign_checked_before_ratio(self):
        with pytest.raises(gk.InputError, match="sign must be 1 or -1"):
            gm.SimilarityMap(1.5, 0.0, 2)
        with pytest.raises(gk.InputError, match="ratio must lie strictly between 0 and 1"):
            gm.SimilarityMap(1.5, 0.0, -1)


class TestIntervals:
    def test_similarity_image(self):
        # full_shift packs images left to right without gaps
        sys = gk.full_shift([1 / 3, 1 / 3])
        lo, hi = sys.word_interval(("e2",))
        assert abs(lo - 1 / 3) < 1e-15 and abs(hi - 2 / 3) < 1e-15

    def test_word_must_be_admissible(self):
        # golden mean shift: e2 may not follow e2
        sys = packed_system("golden", {"e1": 0.5, "e2": 0.25},
                            {("e1", "e1"), ("e1", "e2"), ("e2", "e1")})
        assert sys.word_interval(("e2", "e1")) == (0.5, 0.625)
        with pytest.raises(gk.InputError, match="unknown edge id 'zzz'"):
            sys.word_interval(("zzz",))
        with pytest.raises(gk.InputError, match="length >= 1"):
            sys.word_interval(())
        with pytest.raises(gk.InputError, match="not admissible"):
            sys.word_interval(("e2", "e2"))

    def test_cylinder_nesting(self, rng):
        # [omega b] is always a subset of [omega]
        sys = cf_sys()
        for _ in range(20):
            word = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 8)))
            lo, hi = sys.word_interval(word)
            lo2, hi2 = sys.word_interval(word + (rng.randrange(1, 6),))
            assert lo - 1e-15 <= lo2 and hi2 <= hi + 1e-15

    def test_diameter_decays_with_contraction_bound(self, rng):
        sys = cf_sys()
        s_eff, step = sys.contraction_bound()
        for _ in range(20):
            n = rng.randrange(2, 12)
            word = tuple(rng.randrange(1, 6) for _ in range(n))
            lo, hi = sys.word_interval(word)
            assert hi - lo <= s_eff ** (n // step) * sys.max_space_diameter() + 1e-15

    @pytest.mark.parametrize("kind,width,bound", [(gg.FULL, 0, (0.25, 2)),
                                                  (gg.BANDED, 1, (0.25, 2)),
                                                  (gg.UPPER, 0, (1 / 9, 2))])
    def test_infinite_rule_contraction_bound(self, kind, width, bound):
        # the least admissible pair is (1, 1), or (1, 2) under the upper rule
        assert gk.cf_system(gk.IncidenceSpec(kind, width)).contraction_bound() == bound

    def test_distortion_constants(self):
        assert gk.full_shift([1 / 2, 1 / 2]).family.distortion == 1.0
        assert cf_sys().family.distortion == 4.0

    def test_one_letter_log_norms(self):
        sim = gk.full_shift([0.3, 0.25]).family
        assert sim.log_norm(("e2",)) == math.log(0.25)
        assert sim.log_norm(("e1", "e2")) == math.log(0.3) + math.log(0.25)
        cf = cf_sys().family
        for e in (1, 2, 7, 40):
            assert cf.log_norm((e,)) == -2.0 * math.log(e)
        with pytest.raises(gk.InputError, match="positive integers"):
            cf.log_norm((0,))

    def test_families_name_their_engines_and_carry_no_kind(self):
        from gdmskit import thermo
        sim, cf = gk.full_shift([0.5, 0.5]).family, cf_sys().family
        assert sim.engine_type is thermo.PerronBlock
        assert cf.engine_type is thermo.CfCollocation
        assert not hasattr(sim, "kind") and not hasattr(cf, "kind")

    def test_distortion_bound_holds_pointwise(self, rng):
        # sup / inf of |phi'| over [0,1] is within the distortion constant
        sys = cf_sys()
        for _ in range(20):
            word = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 10)))
            p, p_prev, q, q_prev = gm.cf_continuants(word)
            sup = 1 / q ** 2
            inf = 1 / (q + q_prev) ** 2
            assert sup / inf <= 4.0 + 1e-12


def _per_edge_log_norms(system):
    """`family.log_norm((e,))` of every edge, one Python call per edge."""
    return np.array([system.family.log_norm((e,)) for e in system.edge_ids])


def _hex(values):
    return [float(v).hex() for v in values]


class TestBulkLogNorms:
    """`family.log_norms(letters)` answers for every letter in one call,
    bit for bit what `log_norm((e,))` gives for each."""

    @pytest.mark.parametrize("make", [
        lambda: gk.full_shift([0.3, 0.25, 0.1]),
        lambda: three_block_system(0),
        mirrored_blocks_system,
        lambda: gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=5),
        lambda: gk.cf_system(gk.IncidenceSpec(gg.BANDED, 2), truncate=12),
        lambda: gk.cf_system(gk.IncidenceSpec(gg.UPPER), truncate=6),
        lambda: three_block_system(1).restrict(three_block_system(1).components[0]),
        lambda: gk.cf_system(gk.IncidenceSpec(gg.BANDED, 1), truncate=9).restrict((2, 5, 6, 9)),
    ], ids=["sim-full", "sim-three-block", "sim-mirrored", "cf-full", "cf-banded",
            "cf-upper", "sim-restricted", "cf-restricted"])
    def test_system_log_norms_are_hex_identical_to_the_per_edge_loop(self, make):
        system = make()
        assert _hex(system.log_norms) == _hex(_per_edge_log_norms(system))
        assert _hex(system.family.log_norms(system.edge_ids[::-1])) == _hex(
            _per_edge_log_norms(system)[::-1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-300, 0.999999), min_size=1, max_size=30))
    def test_similarity_ratios_of_any_size(self, ratios):
        family = gm.SimilarityFamily({k: gm.SimilarityMap(r, 0.0) for k, r in enumerate(ratios)})
        letters = tuple(range(len(ratios)))
        assert _hex(family.log_norms(letters)) == _hex(
            [family.log_norm((e,)) for e in letters])

    def test_cf_labels_of_any_size_and_type(self):
        family = gm.MoebiusCfFamily()
        letters = (1, 2, np.int64(3), 10 ** 6, 2 ** 60 + 1, np.int32(7))
        assert _hex(family.log_norms(letters)) == _hex(
            [family.log_norm((a,)) for a in letters])
        with pytest.raises(gk.InputError, match="positive integers"):
            family.log_norms((1, 0))

    def test_unknown_similarity_letter_is_refused(self):
        with pytest.raises(gk.InputError, match="unknown edge id"):
            gk.full_shift([0.5, 0.25]).family.log_norms(("e1", "e9"))

    @pytest.mark.parametrize("make", [mirrored_blocks_system, lambda: three_block_system(0)])
    def test_equal_blocks_still_share_one_pooled_engine(self, make):
        # the pool key is the engine type, the block's lumping (its states
        # and packed members) and the bytes of the block's log norms: equal
        # to the bytes of the per-edge loop, so the mirrored blocks a and b
        # meet the same key and get one engine
        system = make()
        engines = system.engines
        assert engines[0] is engines[1]
        assert len(system.engine_pool) == len(set(map(id, engines))) == len(engines) - 1
        per_edge = _per_edge_log_norms(system)
        for key, engine in system.engine_pool.items():
            lumping = engine.lumping
            assert key[:3] == (type(engine), lumping.state_of.tobytes(),
                               np.packbits(lumping.members).tobytes())
        values = {key[3] for key in system.engine_pool}
        assert values == {per_edge[list(idx)].tobytes() for idx in system.component_positions}


class TestEvaluation:
    def test_evaluate_similarity_word(self):
        sys = gk.full_shift([1 / 2, 1 / 4])
        # e2 packs after e1: offset 3/4... verify via composition
        x = 0.5
        f1 = sys.family.map_for("e1")
        f2 = sys.family.map_for("e2")
        direct = f1.ratio * (f2.ratio * x + f2.offset) + f1.offset
        assert abs(sys.evaluate(("e1", "e2"), x) - direct) < 1e-15

    def test_system_evaluate_admissible_word(self):
        # phi_a(phi_b(x)) with a: x/3 and b: x/3 + 2/3
        assert abs(two_component_system().evaluate(("a", "b"), 0.5) - 5 / 18) < 1e-15
        # 1/(1 + 1/(2 + 0)) on the infinite continued-fraction system
        assert abs(cf_sys().evaluate((1, 2), 0.0) - 2 / 3) < 1e-15

    def test_system_evaluate_refuses_inadmissible_word(self):
        # the blocks {a, b} and {c, d} are not linked
        with pytest.raises(gk.InputError, match="not admissible"):
            two_component_system().evaluate(("a", "c"), 0.5)

    def test_system_evaluate_refuses_point_outside_terminal_space(self):
        with pytest.raises(gk.DomainError):
            two_component_system().evaluate(("a", "b"), 2.0)

    def test_evaluate_rejects_point_outside_space(self):
        sys = cf_sys()
        with pytest.raises(gk.DomainError):
            sys.evaluate((1,), 2.0)
