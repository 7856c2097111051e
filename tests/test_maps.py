import math

import pytest

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from conftest import packed_system, two_component_system


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
        val = gk.evaluate(sys.family, (1,) * 10, 0.0)
        assert abs(val - 55 / 89) < 1e-15

    def test_golden_mean_fixed_point(self):
        sys = cf_sys()
        phi = (math.sqrt(5) - 1) / 2
        val = gk.evaluate(sys.family, (1,) * 40, 0.3)
        assert abs(val - phi) < 1e-15


class TestDerivativeNorms:
    def test_similarity_norm_is_ratio_product(self):
        sys = gk.full_shift([1 / 2, 1 / 4])
        norm = gk.derivative_norm(sys.family, ("e1", "e2", "e1"))
        assert abs(norm.value - 1 / 16) < 1e-13 / 16

    def test_cf_pair_norm(self):
        sys = cf_sys()
        norm = gk.derivative_norm(sys.family, (1, 2))
        # q_2 = 2*q_1 + q_0 = 3, so the norm is 1/9
        assert abs(norm.value - 1 / 9) < 1e-13 / 9

    @pytest.mark.parametrize("word", [(1,) * 10, (2,) * 60, (7, 1) * 40])
    def test_cf_norm_is_exact_at_every_length(self, word):
        norm = gk.derivative_norm(cf_sys().family, word)
        assert norm.log_value == -2.0 * math.log(gm.cf_continuants(word)[2])

    def test_long_word_log_norm_consistent(self):
        sys = cf_sys()
        word = (1, 3, 2, 5, 1, 2) * 5
        exact = gm.cf_continuants(word)[2]
        norm = gk.derivative_norm(sys.family, word)
        assert abs(norm.log_value - (-2 * math.log(exact))) < 1e-10

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
            norm = gk.derivative_norm(cf_sys().family, word)
            assert abs(float(quotient) - norm.value) <= 1e-9 * norm.value

    def test_submultiplicative_in_concatenation(self, rng):
        sys = cf_sys()
        for _ in range(30):
            w1 = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 6)))
            w2 = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 6)))
            a = gk.derivative_norm(sys.family, w1).log_value
            b = gk.derivative_norm(sys.family, w2).log_value
            c = gk.derivative_norm(sys.family, w1 + w2).log_value
            assert c <= a + b + 1e-12


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


class TestEvaluation:
    def test_evaluate_similarity_word(self):
        sys = gk.full_shift([1 / 2, 1 / 4])
        # e2 packs after e1: offset 3/4... verify via composition
        x = 0.5
        f1 = sys.family.map_for("e1")
        f2 = sys.family.map_for("e2")
        direct = f1.ratio * (f2.ratio * x + f2.offset) + f1.offset
        assert abs(gk.evaluate(sys.family, ("e1", "e2"), x) - direct) < 1e-15

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
            gk.evaluate(sys.family, (1,), 2.0, space=sys.terminal_space((1,)))
