"""End-to-end acceptance checks; one printed pass/fail line per criterion."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

import gdmskit as gk
from gdmskit import cli
from gdmskit import dimension as gd
from gdmskit import graph as gg
from conftest import (E2, random_graph_complete_system, random_packed_system,
                      two_component_system)

LN2_OVER_LN3 = math.log(2) / math.log(3)
GOLDEN_LOG2 = math.log((1 + math.sqrt(5)) / 2) / math.log(2)


def _report(label, fn):
    try:
        fn()
    except BaseException:
        print(f"[acceptance] {label}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"[acceptance] {label}: PASS", file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def suite():
    """200 random explicit-incidence similarity systems with packed images."""
    rng = random.Random(987123)
    systems = []
    while len(systems) < 200:
        sys_ = random_packed_system(rng)
        if sys_ is not None:
            systems.append(sys_)
    return systems


def test_criterion_01_moran_oracles():
    def check():
        cases = [([1 / 3, 1 / 3], LN2_OVER_LN3),
                 ([1 / 2, 1 / 4], GOLDEN_LOG2),
                 ([1 / 2, 1 / 2], 1.0)]
        for ratios, want in cases:
            start = time.perf_counter()
            est = gk.bowen_dimension(gk.full_shift(ratios), tolerance=1e-11)
            assert time.perf_counter() - start < 1.0
            assert abs(est.mid - want) <= 1e-9

    _report("01 moran-oracles", check)


def test_criterion_02_dimension_is_max_over_components(suite):
    def check():
        start = time.perf_counter()
        tested = 0
        for sys_ in suite:
            if gk.empty_limit_set(sys_):
                continue
            report = gk.component_dimensions(sys_)
            assert abs(report.difference) <= 2e-9
            tested += 1
        assert tested >= 150
        assert time.perf_counter() - start < 30.0

    _report("02 component-dimension-property", check)


def _enumeration_sums(sys_, n, ts):
    """Single-pass DFS oracle: Z_n(t) for every t at once."""
    succ = sys_.successor_map
    logs = dict(zip(sys_.edge_ids, sys_.log_norms))
    terms = [[] for _ in ts]

    def rec(e, acc, depth):
        if depth == n:
            for i, t in enumerate(ts):
                terms[i].append(math.exp(t * acc))
            return
        for f in succ[e]:
            rec(f, acc + logs[f], depth + 1)

    for e in sys_.edge_ids:
        rec(e, logs[e], 1)
    return [math.fsum(chunk) for chunk in terms]


def test_criterion_03_transfer_matches_enumeration(suite):
    def check():
        rng = random.Random(55221)
        for sys_ in suite:
            ts = [rng.uniform(0.05, 1.5) for _ in range(5)]
            for n in (1, 2, 3, 5, 8):
                want = _enumeration_sums(sys_, n, ts)
                for t, w in zip(ts, want):
                    got = gk.partition_sum(sys_, n, t)
                    assert abs(got.value - w) <= 1e-12 * max(w, 1.0)

    _report("03 transfer-vs-enumeration", check)


def test_criterion_04_two_cantor_dichotomy():
    def check():
        start = time.perf_counter()
        h = LN2_OVER_LN3
        plain = two_component_system(r1=1 / 3, r2=1 / 3, linked=False)
        linked = two_component_system(r1=1 / 3, r2=1 / 3, linked=True)
        for n in range(1, 31):
            z_plain = gk.partition_sum(plain, n, h).value
            z_linked = gk.partition_sum(linked, n, h).value
            assert abs(z_plain - 2.0) <= 1e-9
            assert abs(z_linked - (2.0 + (n - 1) / 4.0)) <= 1e-9
        assert gk.classify_hausdorff_measure(plain).verdict == gd.FINITE_H_MEASURE
        assert gk.classify_hausdorff_measure(linked).verdict == gd.INFINITE_H_MEASURE
        assert time.perf_counter() - start < 5.0

    _report("04 two-cantor-dichotomy", check)


def test_criterion_05_strict_increase_rule_regression():
    def check():
        start = time.perf_counter()
        sys_ = gk.cf_system(gk.IncidenceSpec(gg.UPPER))
        rep = gk.finiteness_parameters(sys_)
        assert rep.theta == Fraction(1, 2)
        assert isinstance(rep.theta, Fraction)
        assert rep.justification
        sweep = gk.truncation_sweep(sys_, [3, 6, 9], n_max=10)
        for entry in sweep.entries:
            assert entry.estimate.hi == 0.0
        assert any("sup over finite subsystems = 0 < theta = 0.5" in w
                   for w in sweep.warnings)
        assert time.perf_counter() - start < 5.0

    _report("05 strict-increase-regression", check)


def test_criterion_06_banded_rule_regression():
    def check():
        start = time.perf_counter()
        sys_ = gk.cf_system(gk.IncidenceSpec(gg.BANDED, 1))
        rep = gk.finiteness_parameters(sys_, [1, 2, 3])
        assert rep.theta == 0
        assert rep.theta_n == {1: Fraction(1, 2), 2: Fraction(1, 4),
                               3: Fraction(1, 6)}
        props = gk.matrix_properties(sys_)
        assert props.irreducible is True
        assert props.finitely_irreducible is False
        assert time.perf_counter() - start < 5.0

    _report("06 banded-rule-regression", check)


def test_criterion_07_pressure_shape(suite):
    def check():
        ts = [0.0, 0.25, 0.5, 0.75, 1.0]
        for sys_ in suite[:60]:
            if gk.empty_limit_set(sys_):
                continue
            vals = [gk.pressure(sys_, t).lower for t in ts]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-9
            for i in range(1, len(ts) - 1):
                assert vals[i] <= (vals[i - 1] + vals[i + 1]) / 2 + 1e-9
        # Abel series sum_n exp(-u n) Z_n(t): terms shrink geometrically for
        # u above P(t) and grow for u below it
        for ratios in ([1 / 3, 1 / 3], [1 / 2, 1 / 4], [0.2, 0.3, 0.4]):
            sys_ = gk.full_shift(ratios)
            for t in (0.2, 0.6, 1.0):
                p = gk.pressure(sys_, t).lower
                terms_hi = [math.exp(-(p + 0.1) * n) * gk.partition_sum(sys_, n, t).value
                            for n in range(1, 16)]
                terms_lo = [math.exp(-(p - 0.1) * n) * gk.partition_sum(sys_, n, t).value
                            for n in range(1, 16)]
                for a, b in zip(terms_hi, terms_hi[1:]):
                    assert b <= a * (math.exp(-0.1) + 1e-9)
                for a, b in zip(terms_lo, terms_lo[1:]):
                    assert b >= a * (math.exp(0.1) - 1e-9)

    _report("07 pressure-shape", check)


def test_criterion_08_conformal_sandwich():
    def check():
        rng = random.Random(40912)
        systems = [gk.full_shift([1 / 3, 1 / 3]), gk.full_shift([1 / 2, 1 / 4])]
        while len(systems) < 12:
            sys_ = random_graph_complete_system(rng)
            if sys_ is not None:
                systems.append(sys_)
        for sys_ in systems:
            est = gk.bowen_dimension(sys_, tolerance=1e-13)
            h = est.mid
            m = gk.conformal_cylinder_measure(sys_, h, pressure_tolerance=1e-6)
            assert abs(sum(m.vertex_masses.values()) - 1.0) <= 1e-12
            for e in sys_.edge_ids:
                parts = [m.word_mass(sys_, (e, f)) for f in sys_.edge_ids
                         if gk.is_admissible(sys_, (e, f))]
                assert abs(math.fsum(parts) - m.word_mass(sys_, (e,))) <= 1e-12
            bound = 1.0 / m.min_vertex_mass
            for n in range(1, 51):
                z = gk.partition_sum(sys_, n, h).value
                assert 1.0 - 1e-9 <= z <= bound + 1e-9

    _report("08 conformal-sandwich", check)


def test_criterion_09_cf_truncation_self_consistency():
    def check():
        start = time.perf_counter()
        sys_ = gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=2)
        est = gk.bowen_dimension(sys_, n_max=14)
        assert est.width <= 1e-9
        assert est.lo <= E2 <= est.hi
        assert time.perf_counter() - start < 60.0

    _report("09 cf-truncation-consistency", check)


def test_criterion_10_sampler_cross_check(tmp_path, capsys):
    def check():
        spec = tmp_path / "cantor.gdms"
        spec.write_text(gk.serialize_spec(gk.full_shift([1 / 3, 1 / 3])))
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        for out in (csv_a, csv_b):
            code = cli.main(["sample", str(spec), "--count", "10000",
                             "--depth", "25", "--seed", "31337",
                             "--out", str(out)])
            assert code == cli.EXIT_OK
        assert csv_a.read_bytes() == csv_b.read_bytes()
        capsys.readouterr()
        points = [float(x) for x in csv_a.read_text().splitlines()[1:]]
        sample = gk.sampling.sample_from_points(points, anchor=0.0,
                                                error_bound=3.0 ** -25)
        scales = [3.0 ** -k for k in range(3, 9)]
        box = gk.box_dimension(sample, scales)
        assert abs(box.slope - LN2_OVER_LN3) <= 0.05

    _report("10 sampler-cross-check", check)
