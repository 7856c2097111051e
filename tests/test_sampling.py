import math

import pytest

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import sampling as gsamp


def cantor():
    return gk.full_shift([1 / 3, 1 / 3])


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        a = gk.sample_points(cantor(), 50, 10, seed=7)
        b = gk.sample_points(cantor(), 50, 10, seed=7)
        assert a.points == b.points
        assert a.rng_name == b.rng_name

    def test_different_seed_differs(self):
        a = gk.sample_points(cantor(), 50, 10, seed=7)
        b = gk.sample_points(cantor(), 50, 10, seed=8)
        assert a.points != b.points

    def test_points_lie_in_cylinders(self):
        sys = cantor()
        sample = gk.sample_points(sys, 40, 8, seed=1)
        for entry in sample.entries:
            lo, hi = entry.interval
            assert lo - 1e-15 <= entry.midpoint <= hi + 1e-15
            lo2, hi2 = sys.word_interval(entry.word)
            assert abs(lo - lo2) < 1e-15 and abs(hi - hi2) < 1e-15

    def test_diameter_bound_reported(self):
        sample = gk.sample_points(cantor(), 10, 12, seed=3)
        assert sample.diameter_bound == pytest.approx(3.0 ** -12, rel=1e-12)

    def test_dead_end_words_are_avoided(self):
        # strictly increasing labels: every path dies; sampling must fail
        # cleanly rather than return short words
        sys = gk.cf_system(gk.IncidenceSpec(gg.UPPER), truncate=5)
        with pytest.raises((gk.DomainError, gk.NotApplicableError)):
            gk.sample_points(sys, 10, 8, seed=0)

    def test_dead_end_edge_is_never_sampled(self):
        # a may follow itself or lead into the dead end d; only a^30 is an
        # admissible word of length 30 that extends to an infinite word
        space = gk.VertexSpace("v", 0.0, 1.0)
        sys = gk.similarity_system(
            "dead-end", ("v",), {"v": space},
            [("a", "v", "v", gk.SimilarityMap(0.5, 0.0)),
             ("d", "v", "v", gk.SimilarityMap(0.25, 0.5))],
            gk.IncidenceSpec(gg.EXPLICIT, allowed=frozenset({("a", "a"), ("a", "d")})))
        sample = gk.sample_points(sys, 20, 30, seed=4)
        assert [e.word for e in sample.entries] == [("a",) * 30] * 20

    def test_cf_sample_in_unit_interval(self):
        sys = gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=4)
        sample = gk.sample_points(sys, 100, 10, seed=2)
        assert all(0.0 <= p <= 1.0 for p in sample.points)


class TestBoxDimension:
    def test_middle_thirds_slope(self):
        sys = cantor()
        sample = gk.sample_points(sys, 4000, 22, seed=11)
        scales = [3.0 ** -k for k in range(3, 8)]
        box = gk.box_dimension(sample, scales)
        want = math.log(2) / math.log(3)
        assert abs(box.slope - want) <= 0.05

    def test_full_interval_slope_is_one(self):
        sys = gk.full_shift([1 / 2, 1 / 2])
        sample = gk.sample_points(sys, 4000, 22, seed=5)
        scales = [2.0 ** -k for k in range(3, 9)]
        box = gk.box_dimension(sample, scales)
        assert abs(box.slope - 1.0) <= 0.05

    def test_rejects_small_sample(self):
        sample = gk.sample_points(cantor(), 100, 20, seed=0)
        with pytest.raises(gk.InputError):
            gk.box_dimension(sample, [0.1, 0.01])

    def test_rejects_scales_near_resolution(self):
        # scales must stay well above the cylinder diameter bound
        sample = gk.sample_points(cantor(), 2000, 6, seed=0)
        with pytest.raises(gk.InputError):
            gk.box_dimension(sample, [3.0 ** -5, 3.0 ** -6])

    def test_rejects_unsorted_scales(self):
        sample = gk.sample_points(cantor(), 2000, 22, seed=0)
        with pytest.raises(gk.InputError):
            gk.box_dimension(sample, [0.01, 0.1])

    def test_counts_monotone_in_scale(self):
        sample = gk.sample_points(cantor(), 3000, 22, seed=9)
        scales = [3.0 ** -k for k in range(3, 8)]
        box = gk.box_dimension(sample, scales)
        assert list(box.counts) == sorted(box.counts)
        assert all(c >= 1 for c in box.counts)
