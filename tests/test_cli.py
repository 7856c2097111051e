import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gdmskit as gk
from gdmskit import cli, specfile, thermo
from gdmskit import dimension as gd
from gdmskit import graph as gg

CANTOR = """\
system cantor
space v 0 1
edge e1 v v similarity 0.3333333333333333 0 1
edge e2 v v similarity 0.3333333333333333 0.6666666666666666 1
incidence full
"""

CF_UPPER = "system u\nfamily cf\nincidence upper\n"
CF_FULL = "system g\nfamily cf\nincidence full\n"
CF_FULL2 = "system t\nfamily cf truncate 2\nincidence full\n"


@pytest.fixture
def cantor_spec(tmp_path):
    path = tmp_path / "cantor.gdms"
    path.write_text(CANTOR)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


class TestReports:
    def test_scc(self, capsys, cantor_spec):
        code, out, _ = run(capsys, "scc", cantor_spec)
        assert code == cli.EXIT_OK
        assert grab(out, "components") == "1"
        assert grab(out, "component[0]") == "e1 e2"
        assert "spec_sha256 = " in out

    def test_props(self, capsys, cantor_spec):
        code, out, _ = run(capsys, "props", cantor_spec)
        assert code == cli.EXIT_OK
        assert grab(out, "irreducible") == "True"
        assert grab(out, "primitive") == "True"

    def test_pressure(self, capsys, cantor_spec):
        code, out, _ = run(capsys, "pressure", cantor_spec, "--t", "0")
        assert code == cli.EXIT_OK
        assert abs(float(grab(out, "P_lower")) - math.log(2)) < 1e-12

    def test_dim(self, capsys, cantor_spec):
        code, out, _ = run(capsys, "dim", cantor_spec, "--tol", "1e-11")
        assert code == cli.EXIT_OK
        want = math.log(2) / math.log(3)
        assert float(grab(out, "h_lo")) <= want <= float(grab(out, "h_hi"))
        assert grab(out, "method") == "moran-exact"

    def test_theta_prints_fractions(self, capsys, tmp_path):
        spec = tmp_path / "g.gdms"
        spec.write_text(CF_FULL)
        code, out, _ = run(capsys, "theta", str(spec), "--n", "1,2")
        assert code == cli.EXIT_OK
        assert grab(out, "theta") == "1/2"
        assert grab(out, "theta_n[2]") == "1/2"

    def test_infinite_pressure_below_theta(self, capsys, tmp_path):
        spec = tmp_path / "g.gdms"
        spec.write_text(CF_FULL)
        code, out, _ = run(capsys, "pressure", str(spec), "--t", "0.3")
        assert code == cli.EXIT_OK
        assert (grab(out, "P_lower"), grab(out, "P_upper")) == ("inf", "inf")
        assert grab(out, "method") == "rule-analytic"
        assert "warning: pressure is infinite below the finiteness parameter\n" in out

    def test_dim_cf_truncation(self, capsys, tmp_path):
        spec = tmp_path / "t.gdms"
        spec.write_text("system t\nfamily cf truncate 2\nincidence full\n")
        code, out, _ = run(capsys, "dim", str(spec))
        assert code == cli.EXIT_OK
        assert grab(out, "method") == "collocation-newton"
        assert float(grab(out, "h_hi")) - float(grab(out, "h_lo")) <= 5e-11

    def test_wall_time_covers_spec_parsing(self, capsys, cantor_spec, monkeypatch):
        parse = specfile.parse_spec

        def slow_parse(text):
            time.sleep(0.05)
            return parse(text)

        monkeypatch.setattr(specfile, "parse_spec", slow_parse)
        code, out, _ = run(capsys, "scc", cantor_spec)
        assert code == cli.EXIT_OK
        assert float(grab(out, "wall_time_s")) >= 0.05


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_loads_no_scipy_or_mpmath():
    # each gdms process pays for what `import gdmskit` pulls in
    code = ("import sys, gdmskit; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'mpmath'}))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_import_builds_no_collocation_table():
    # the node-count tables of the collocation are built at their first use
    code = ("from gdmskit import thermo; print([f.cache_info().currsize for f in "
            "(thermo._node_tables, thermo._interpolation_grid, thermo._panel_tables)])")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[0, 0, 0]"


def test_import_builds_no_table_of_the_process():
    # every table the package keeps for the process, the per-letter ones
    # included, is built at its first use
    code = ("import json, gdmskit; from gdmskit import thermo; print(json.dumps("
            "{name: f.cache_info().currsize for name, f in vars(thermo).items() "
            "if hasattr(f, 'cache_info')}))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    tables = json.loads(out)
    assert {"_ones", "_node_tables", "_panel_tables"} <= set(tables)
    assert set(tables.values()) == {0}
    code = "from gdmskit import thermo; print(thermo._letter_tables.held, thermo._letter_plan.held)"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "{} {}"


@pytest.mark.parametrize("text", [CANTOR, CF_FULL2], ids=["cantor", "cf-full2"])
def test_dim_at_a_tolerance_below_the_double_spacing_exits_3(tmp_path, text):
    # tolerance/4 underflows to 0; in a child process, so that a bracket
    # certificate that never ends fails at the timeout
    spec = tmp_path / "spec.gdms"
    spec.write_text(text)
    done = subprocess.run([sys.executable, "-m", "gdmskit.cli", "dim", str(spec),
                           "--tol", "5e-324"], env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == cli.EXIT_NOT_APPLICABLE
    assert done.stdout == ""
    assert "tolerance 5e-324 is below the spacing of doubles" in done.stderr


# a self-loop e0 of ratio near 1, whose component has dimension 0, beside a
# three-edge block of dimension 0.3352 that e0 does not reach
LOOP_AND_BLOCK = """\
system loop-and-block
space v 0 1
edge e0 v v similarity 0.7784269484468122 0 1
edge e1 v v similarity 0.062000995724464644 0.7784269484468122 1
edge e2 v v similarity 0.08432037185959228 0.8404279441712768 1
edge e3 v v similarity 0.05984012338281496 0.924748316030869 1
incidence explicit
""" + "".join(f"allow {a} {b}\n" for a, b in (
    ("e0", "e0"), ("e1", "e0"), ("e1", "e1"), ("e1", "e2"), ("e2", "e1"),
    ("e2", "e2"), ("e2", "e3"), ("e3", "e0"), ("e3", "e1"), ("e3", "e2")))


def test_a_component_that_cannot_certify_its_bracket_refuses_the_dimension(capsys, tmp_path,
                                                                           monkeypatch):
    # the system's bracket is the max of the component brackets, so each
    # must be proved. The loop is one cycle, whose closed-form pressure
    # 5e-15 ln r proves its end at 1e-14, so the dimension is the maximal
    # block's bracket; bounds patched 1e-14 wide on the loop cannot prove
    # it, and refuse the dimension
    spec = tmp_path / "loop.gdms"
    spec.write_text(LOOP_AND_BLOCK)
    system = specfile.parse_spec(LOOP_AND_BLOCK)[0]
    block = gk.bowen_dimension(system.restrict(["e1", "e2", "e3"]), 1e-14)
    assert block.width <= 5e-15
    code, out, _ = run(capsys, "dim", str(spec), "--tol", "1e-14")
    assert code == cli.EXIT_OK
    assert (float(grab(out, "h_lo")), float(grab(out, "h_hi"))) == (block.lo, block.hi)
    certified = thermo.PerronBlock.certified_pressure

    def wide(engine, t):
        lower, upper = certified(engine, t)
        return (lower - 1e-14, upper + 1e-14) if engine.cycle else (lower, upper)
    monkeypatch.setattr(thermo.PerronBlock, "certified_pressure", wide)
    with pytest.raises(gk.ConvergenceError, match="at t = 5e-15"):
        gk.component_dimensions(specfile.parse_spec(LOOP_AND_BLOCK)[0], 1e-14)
    code, out, err = run(capsys, "dim", str(spec), "--tol", "1e-14")
    assert (code, out) == (cli.EXIT_NOT_APPLICABLE, "")
    assert err.startswith("not certified: pressure bounds at t = 5e-15 hold 0")
    code, out, _ = run(capsys, "dim", str(spec), "--tol", "1e-13")
    assert code == cli.EXIT_OK
    assert float(grab(out, "h_lo")) <= block.mid <= float(grab(out, "h_hi"))


def test_a_bracket_that_cannot_be_certified_is_reported_as_such(capsys, tmp_path):
    # a ConvergenceError is a refusal of the certificate, not of the system
    spec = tmp_path / "cf2.gdms"
    spec.write_text(CF_FULL2)
    code, out, err = run(capsys, "dim", str(spec), "--tol", "1e-13")
    assert code == cli.EXIT_NOT_APPLICABLE
    assert out == ""
    assert err.startswith("not certified: pressure bounds at t = ")
    assert "cannot certify a bracket of width 5e-14" in err


def test_no_eigenvalue_solver_runs(monkeypatch):
    # both pressure engines find their eigenpairs by shifted linear solves
    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue solver ran")
    for name in ("eigvals", "eig", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    systems = [gk.cf_system(gk.IncidenceSpec(gg.FULL), truncate=3),
               gk.cf_system(gk.IncidenceSpec(gg.BANDED, 1), truncate=8),
               gk.full_shift([1 / 3, 1 / 4, 1 / 5])]
    for system in systems:
        est = gk.bowen_dimension(system)
        assert 0.0 < est.lo <= est.hi < 1.0
        p = gk.pressure(system, 0.5)
        assert p.lower <= p.upper


class TestCsvOutputs:
    def test_curve_schema(self, capsys, cantor_spec, tmp_path):
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "curve", cantor_spec, "--tmin", "0",
                           "--tmax", "1", "--steps", "5", "--out", str(out_csv))
        assert code == cli.EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,P_lower,P_upper,n_used"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert abs(float(first[1]) - math.log(2)) < 1e-12

    def test_classify_schema(self, capsys, cantor_spec, tmp_path):
        out_csv = tmp_path / "z.csv"
        code, out, _ = run(capsys, "classify", cantor_spec, "--out", str(out_csv))
        assert code == cli.EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "n,Z_n"
        assert grab(out, "verdict") == "FiniteHMeasure"

    def test_sweep_schema_and_warning(self, capsys, tmp_path):
        spec = tmp_path / "u.gdms"
        spec.write_text(CF_UPPER)
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", str(spec), "--sizes", "3,6,9",
                           "--out", str(out_csv))
        assert code == cli.EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "size,h_lo,h_hi"
        assert "sup over finite subsystems = 0 < theta = 0.5" in out

    def test_sample_and_boxdim_pipeline(self, capsys, cantor_spec, tmp_path):
        pts = tmp_path / "pts.csv"
        code, out, _ = run(capsys, "sample", cantor_spec, "--count", "1500",
                           "--depth", "22", "--seed", "42", "--out", str(pts))
        assert code == cli.EXIT_OK
        err = float(grab(out, "position_error_bound"))
        lines = pts.read_text().splitlines()
        assert lines[0] == "point"
        assert len(lines) == 1501
        scales = ",".join(str(3.0 ** -k) for k in range(3, 8))
        code, out, _ = run(capsys, "boxdim", str(pts), "--scales", scales,
                           "--errbound", str(err))
        assert code == cli.EXIT_OK
        assert abs(float(grab(out, "slope")) - math.log(2) / math.log(3)) <= 0.06

    def test_sample_is_reproducible(self, capsys, cantor_spec, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sample", cantor_spec, "--count", "200", "--depth", "15",
            "--seed", "9", "--out", str(a))
        run(capsys, "sample", cantor_spec, "--count", "200", "--depth", "15",
            "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_bad_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "bad.gdms"
        spec.write_text("system x\nnonsense\n")
        code, _, err = run(capsys, "scc", str(spec))
        assert code == cli.EXIT_SPEC
        assert "line 2" in err or "nonsense" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "scc", "/nonexistent/file.gdms")
        assert code == cli.EXIT_SPEC

    def test_bad_flag(self, capsys, cantor_spec):
        code, _, _ = run(capsys, "pressure", cantor_spec, "--t", "not-a-number")
        assert code == cli.EXIT_SPEC

    def test_classify_word_length_below_one(self, capsys, cantor_spec, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("component_dimensions ran before the word lengths were checked")
        monkeypatch.setattr(gd, "component_dimensions", solve)
        code, out, err = run(capsys, "classify", cantor_spec, "--nmin", "0", "--nmax", "3")
        assert code == cli.EXIT_SPEC
        assert out == ""
        assert err == "error: n must be >= 1\n"

    def test_not_applicable(self, capsys, cantor_spec):
        code, _, err = run(capsys, "sweep", cantor_spec, "--sizes", "1,2")
        assert code == cli.EXIT_NOT_APPLICABLE
        assert "not applicable" in err

    def test_infinite_pressure_above_theta(self, capsys, tmp_path):
        spec = tmp_path / "g.gdms"
        spec.write_text(CF_FULL)
        code, _, _ = run(capsys, "pressure", str(spec), "--t", "0.9")
        assert code == cli.EXIT_NOT_APPLICABLE

    @pytest.mark.parametrize("spec,argv,message", [
        ("cf-full2", ["pressure", "--t", "nan"], "t must be finite and >= 0, got nan"),
        ("cantor", ["pressure", "--t", "inf"], "t must be finite and >= 0, got inf"),
        ("cf-full2", ["curve", "--tmin", "0", "--tmax", "inf", "--steps", "3"],
         "--tmax must be finite, got inf"),
        ("cantor", ["curve", "--tmin", "nan", "--tmax", "1", "--steps", "3"],
         "--tmin must be finite, got nan"),
        ("cf-full2", ["dim", "--tol", "nan"], "tolerance must be positive and finite, got nan"),
        ("cantor", ["dim", "--tol", "inf"], "tolerance must be positive and finite, got inf"),
        ("cf-full", ["sweep", "--sizes", "2,3", "--tol", "nan"],
         "tolerance must be positive and finite, got nan"),
    ])
    def test_non_finite_t_and_tolerance(self, capsys, tmp_path, spec, argv, message):
        text = {"cantor": CANTOR, "cf-full": CF_FULL, "cf-full2": CF_FULL2}[spec]
        spec = tmp_path / f"{spec}.gdms"
        spec.write_text(text)
        code, out, err = run(capsys, argv[0], str(spec), *argv[1:])
        assert code == cli.EXIT_SPEC
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("rows,flags", [
        (["nan"], []), (["inf"], []), ([], ["--anchor", "nan"]),
        ([], ["--errbound", "nan"]), ([], ["--errbound", "-1"]),
        ([], ["--scales", "nan,0.05"])])
    def test_boxdim_non_finite_input(self, capsys, tmp_path, rows, flags):
        pts = tmp_path / "pts.csv"
        points = [repr((k + 0.5) / 1200) for k in range(1200)]
        pts.write_text("\n".join(["point", *points, *rows]) + "\n")
        # a --scales in `flags` overrides the first one
        code, out, err = run(capsys, "boxdim", str(pts), "--scales", "0.1,0.05", *flags)
        assert code == cli.EXIT_SPEC
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("scales", [",", "0.1"])
    def test_boxdim_needs_two_scales(self, capsys, tmp_path, scales):
        pts = tmp_path / "pts.csv"
        points = [repr((k + 0.5) / 1200) for k in range(1200)]
        pts.write_text("\n".join(["point", *points]) + "\n")
        code, out, err = run(capsys, "boxdim", str(pts), "--scales", scales)
        assert code == cli.EXIT_SPEC
        assert out == ""
        assert err == "error: box counting needs at least two scales to fit a slope\n"

    @pytest.mark.parametrize("n", [",", ""])
    def test_theta_needs_a_word_length(self, capsys, cantor_spec, n):
        # "--n ," printed theta and no theta_n line, with exit 0
        code, out, err = run(capsys, "theta", cantor_spec, "--n", n)
        assert (code, out, err) == (cli.EXIT_SPEC, "", "error: need at least one word length\n")

    def test_sample_negative_seed_is_a_flag_error(self, capsys, cantor_spec):
        code, out, err = run(capsys, "sample", cantor_spec,
                             "--count", "3", "--depth", "4", "--seed", "-1")
        assert (code, out, err) == (cli.EXIT_SPEC, "", "error: seed must be >= 0\n")

    def test_sample_letter_count_guard(self, capsys, cantor_spec, monkeypatch):
        monkeypatch.setenv("GDMS_COUNT_GUARD", "50")
        code, out, err = run(capsys, "sample", cantor_spec,
                             "--count", "10", "--depth", "6", "--seed", "1")
        assert code == cli.EXIT_RESOURCE
        assert out == ""
        assert err == ("resource guard: sample of 10 words of length 6 exceeds "
                       "count guard of 50\n")
        code, out, _ = run(capsys, "sample", cantor_spec,
                           "--count", "10", "--depth", "5", "--seed", "1")
        assert code == cli.EXIT_OK
        assert grab(out, "count") == "10"

    def test_resource_guard(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GDMS_COUNT_GUARD", "50")
        spec = tmp_path / "t.gdms"
        spec.write_text("system t\nfamily cf truncate 3\nincidence full\n")
        code, _, err = run(capsys, "dim", str(spec))
        assert code == cli.EXIT_RESOURCE
        assert "resource guard" in err
