import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdmskit as gk
from gdmskit import graph as gg
from gdmskit import maps as gm
from gdmskit import sampling as gsamp
from conftest import reference_image, two_component_system


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
            gk.IncidenceSpec(gg.EXPLICIT), {("a", "a"), ("a", "d")})
        sample = gk.sample_points(sys, 20, 30, seed=4)
        assert [e.word for e in sample.entries] == [("a",) * 30] * 20

    def test_letter_count_guard_trips_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a generator was seeded before the guard was checked")
        monkeypatch.setenv("GDMS_COUNT_GUARD", "50")
        monkeypatch.setattr(gsamp.np.random, "PCG64", no_draw)
        with pytest.raises(gk.ResourceGuardError, match="count guard of 50"):
            gk.sample_points(cantor(), 10, 6, seed=1)

    @pytest.mark.parametrize("count,depth,seed,message", [
        (3, 3, 1.5, "seed must be an integer, got 1.5"),
        (2.5, 3, 1, "count must be an integer, got 2.5"),
        (3, 2.5, 1, "depth must be an integer, got 2.5"),
        (3, 3, "1", "seed must be an integer, got '1'"),
        (3, 3, -1, "seed must be >= 0")])
    def test_rejects_non_integer_and_negative_arguments(self, count, depth, seed, message):
        with pytest.raises(gk.InputError, match=message):
            gk.sample_points(cantor(), count, depth, seed)

    def test_numpy_integers_are_accepted(self):
        a = gk.sample_points(cantor(), np.int64(5), np.int32(4), seed=np.uint64(2))
        b = gk.sample_points(cantor(), 5, 4, seed=2)
        assert a == b
        assert type(a.seed) is int

    def test_successor_frequencies(self):
        # d is the only edge with three successors (a, b, c); every walk of
        # length 3 makes exactly one choice from d, at step 1 or step 2
        space = gk.VertexSpace("v", 0.0, 1.0)
        sys = gk.similarity_system(
            "fan", ("v",), {"v": space},
            [(name, "v", "v", gk.SimilarityMap(0.2, 0.25 * k))
             for k, name in enumerate("abcd")],
            gk.IncidenceSpec(gg.EXPLICIT),
            {("a", "d"), ("b", "d"), ("c", "d"), ("d", "a"), ("d", "b"), ("d", "c")})
        walks = 30_000
        sample = gk.sample_points(sys, walks, 3, seed=20261019)
        after_d = [e.word[e.word.index("d") + 1] for e in sample.entries]
        sigma = math.sqrt(walks * (1 / 3) * (2 / 3))
        for letter in "abc":
            assert abs(after_d.count(letter) - walks / 3) <= 5 * sigma

    @pytest.mark.parametrize("n", [3, 4, 2 ** 40, 2 ** 52 + 1])
    def test_largest_draw_picks_the_last_index(self, n):
        raw = np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
        assert gsamp._pick(raw, n).tolist() == [0, n // 2, n - 1]

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

    @pytest.mark.parametrize("scales", [[], [0.1]])
    def test_rejects_fewer_than_two_scales(self, scales):
        # a slope needs two points of log N against log(1/scale)
        sample = gk.sample_points(cantor(), 2000, 22, seed=0)
        with pytest.raises(gk.InputError, match="at least two scales"):
            gk.box_dimension(sample, scales)

    def test_rejects_unsorted_scales(self):
        sample = gk.sample_points(cantor(), 2000, 22, seed=0)
        with pytest.raises(gk.InputError):
            gk.box_dimension(sample, [0.01, 0.1])

    @pytest.mark.parametrize("extra,anchor,error_bound,scales", [
        ([math.nan], 0.0, 0.0, [0.1, 0.05]), ([math.inf], 0.0, 0.0, [0.1, 0.05]),
        ([-math.inf], 0.0, 0.0, [0.1, 0.05]), ([], math.nan, 0.0, [0.1, 0.05]),
        ([], math.inf, 0.0, [0.1, 0.05]), ([], 0.0, math.nan, [0.1, 0.05]),
        ([], 0.0, -1.0, [0.1, 0.05]), ([], 0.0, math.inf, [0.1, 0.05]),
        ([], 0.0, 0.0, [math.nan, 0.05]), ([], 0.0, 0.0, [math.inf, 0.1])])
    def test_rejects_non_finite_input(self, extra, anchor, error_bound, scales):
        # a non-finite row would count as one more occupied box, a nan or
        # negative error bound would switch off the resolution check, and a
        # non-finite scale would reach the least-squares fit
        points = [(k + 0.5) / 1200 for k in range(1200)]
        assert gsamp.box_dimension(gsamp.sample_from_points(points), [0.1, 0.05]).counts == (10, 20)
        sample = gsamp.sample_from_points(points + extra, anchor, error_bound)
        with pytest.raises(gk.InputError, match="finite"):
            gk.box_dimension(sample, scales)

    def test_edge_pruned_at_load_leaves_the_contraction_bound(self):
        # x (ratio 0.9) has no successor, so `validate` prunes it; the
        # subsystem shares its parent's maps, but only a and b (0.2) remain
        text = "\n".join(["system pruned", "space v 0 1", "edge a v v similarity 0.2 0 1",
                          "edge b v v similarity 0.2 0.8 1", "edge x v v similarity 0.9 0.05 1",
                          "incidence explicit", "allow a a", "allow a b", "allow b a",
                          "allow b b", "allow a x"])
        system, warnings = gk.parse_spec(text)
        assert system.edge_ids == ("a", "b") and "pruned 1 edge(s)" in warnings[-1]
        assert system.contraction_bound() == (0.2, 1)
        sample = gk.sample_points(system, 1000, 12, 1)
        assert sample.diameter_bound == pytest.approx(0.2 ** 12)
        assert gk.box_dimension(sample, [0.1, 0.01]).counts == (4, 8)
        # with every edge pruned no ratio is left to bound
        chain, _ = gk.parse_spec(text.split("\nallow")[0] + "\nallow a x")
        assert chain.edge_ids == () and chain.contraction_bound() == (0.0, 1)

    def test_counts_monotone_in_scale(self):
        sample = gk.sample_points(cantor(), 3000, 22, seed=9)
        scales = [3.0 ** -k for k in range(3, 8)]
        box = gk.box_dimension(sample, scales)
        assert list(box.counts) == sorted(box.counts)
        assert all(c >= 1 for c in box.counts)


# -- the sampler against a per-word reference ---------------------------------

def _per_word_interval(system, word):
    """The image interval of one word from `conftest.reference_image`,
    which composes it without `maps.word_images`, ordered."""
    space = system.terminal_space(word)
    u = reference_image(system.family, word, space.lo)
    v = reference_image(system.family, word, space.hi)
    return (u, v) if u <= v else (v, u)


def _reference_sample(system, count, depth, seed):
    """sample_points written out per word: letter j of word k takes value k
    of the raw PCG64 stream seeded with SeedSequence([seed, j]), turns it
    into u = (raw >> 11) * 2^-53 in Python floats, and picks index
    floor(u * n), first among the edge ids, then among the successor
    labels of the last letter in edge order."""
    system = gk.prune(system)[0]
    ids = list(system.edge_ids)
    succ = system.successor_map
    streams = {}

    def choose(options, k, j):
        if j not in streams:
            bits = np.random.PCG64(np.random.SeedSequence([seed, j]))
            streams[j] = [int(raw) for raw in bits.random_raw(count)]
        u = (streams[j][k] >> 11) * 2.0 ** -53
        return options[int(u * len(options))]

    entries = []
    for k in range(count):
        word = [choose(ids, k, 0)]
        while len(word) < depth:
            word.append(choose(succ[word[-1]], k, len(word)))
        word = tuple(word)
        lo, hi = _per_word_interval(system, word)
        assert system.word_interval(word) == (lo, hi)
        entries.append((word, (lo, hi), 0.5 * (lo + hi)))
    return entries


@st.composite
def _explicit_similarity_systems(draw):
    """1-3 vertices with spaces of width 1, images inside their target
    spaces with both orientations, and a random set of composable allow
    pairs, so that some edges may have no successor and get pruned."""
    vertices = tuple(f"v{k}" for k in range(draw(st.integers(1, 3))))
    spaces = {}
    for v in vertices:
        lo = draw(st.sampled_from((-2.0, -0.5, 0.0, 0.25, 3.0)))
        spaces[v] = gm.VertexSpace(v, lo, lo + 1.0)
    edges = []
    for k in range(draw(st.integers(1, 8))):
        src, dst = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
        ratio = draw(st.floats(0.05, 0.6))
        sign = draw(st.sampled_from((1, -1)))
        left = spaces[src].lo + draw(st.floats(0.0, 1.0)) * (1.0 - ratio)
        # the image of [lo, hi] starts at `left` for either sign
        offset = left - ratio * spaces[dst].lo if sign == 1 else left + ratio * spaces[dst].hi
        edges.append((f"e{k}", src, dst, gm.SimilarityMap(ratio, offset, sign)))
    composable = [(a[0], b[0]) for a in edges for b in edges if a[2] == b[1]]
    allowed = frozenset(pair for pair in composable if draw(st.booleans()))
    return gk.similarity_system("walks", vertices, spaces, edges,
                                gk.IncidenceSpec(gg.EXPLICIT), allowed)


def _cf_truncations():
    full = st.builds(lambda n: gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=n),
                     st.integers(1, 6))
    banded = st.builds(lambda w, n: gk.cf_system(gk.IncidenceSpec(gg.BANDED, w), truncate=n),
                       st.integers(1, 2), st.integers(1, 8))
    return full | banded


@settings(max_examples=200, deadline=None)
@given(_explicit_similarity_systems() | _cf_truncations(),
       st.integers(1, 25), st.integers(1, 8), st.integers(0, 10 ** 6))
def test_sampler_matches_the_per_word_reference(system, count, depth, seed):
    if gk.empty_limit_set(system):
        with pytest.raises(gk.NotApplicableError):
            gk.sample_points(system, count, depth, seed)
        return
    sample = gk.sample_points(system, count, depth, seed)
    got = [(e.word, e.interval, e.midpoint) for e in sample.entries]
    assert got == _reference_sample(system, count, depth, seed)


@settings(max_examples=100, deadline=None)
@given(_explicit_similarity_systems() | _cf_truncations(),
       st.integers(1, 20), st.integers(1, 20), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2 ** 70))
def test_samples_are_prefixes_of_larger_samples(system, count, more, depth, deeper, seed):
    # word k depends only on (seed, k): a larger count appends words and a
    # greater depth extends each word
    if gk.empty_limit_set(system):
        return
    small = gk.sample_points(system, count, depth, seed).entries
    wide = gk.sample_points(system, count + more, depth, seed).entries
    deep = gk.sample_points(system, count, depth + deeper, seed).entries
    assert wide[:count] == small
    assert [e.word[:depth] for e in deep] == [e.word for e in small]


@pytest.mark.parametrize("size", [1, 3, 6])
def test_upper_truncations_are_refused(size):
    # strictly increasing labels: every truncation has an empty limit set
    system = gk.cf_system(gk.IncidenceSpec(gg.UPPER), truncate=size)
    with pytest.raises(gk.NotApplicableError, match="empty limit set"):
        gk.sample_points(system, 5, 4, seed=1)


def test_sampler_walks_the_cached_successor_rows(monkeypatch):
    # nothing is pruned here, so every sample walks the system's own
    # `lumping`, built on first use: the successor positions of edge k are
    # the members of its state's successor set, ascending
    system = two_component_system(linked=True)
    A, lumping = system.incidence_matrix, system.lumping
    for k, s in enumerate(lumping.state_of):
        row = lumping.feeding[lumping.starts[s]:lumping.starts[s + 1]].tolist()
        assert row == system.state_lists[s] == np.flatnonzero(A[k]).tolist()
    first = gk.sample_points(system, 50, 6, seed=3)

    def refuse(*args):
        raise AssertionError("the edge graph was lumped again")
    monkeypatch.setattr(gg, "StateLumping", refuse)
    assert gk.sample_points(system, 50, 6, seed=3) == first
