import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gdmskit as gk
from gdmskit import cli, specfile
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


def test_import_loads_no_scipy_or_mpmath():
    # each gdms process pays for what `import gdmskit` pulls in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, gdmskit; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'scipy', 'mpmath'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


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

    def test_not_applicable(self, capsys, cantor_spec):
        code, _, err = run(capsys, "sweep", cantor_spec, "--sizes", "1,2")
        assert code == cli.EXIT_NOT_APPLICABLE
        assert "not applicable" in err

    def test_infinite_pressure_above_theta(self, capsys, tmp_path):
        spec = tmp_path / "g.gdms"
        spec.write_text(CF_FULL)
        code, _, _ = run(capsys, "pressure", str(spec), "--t", "0.9")
        assert code == cli.EXIT_NOT_APPLICABLE

    def test_resource_guard(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GDMS_COUNT_GUARD", "50")
        spec = tmp_path / "t.gdms"
        spec.write_text("system t\nfamily cf truncate 3\nincidence full\n")
        code, _, err = run(capsys, "dim", str(spec))
        assert code == cli.EXIT_RESOURCE
        assert "resource guard" in err
