"""The benchmark workloads: set-up, one pass of operations, output checks.

A workload is built once per process (set-up: inputs generated and spec
files written), then runs passes. A pass times its operations inside one
`bench.pass` span and checks every output afterwards, outside the timed
region, against the oracles in `oracles.py`.

An operation fails when it raises, trips a resource guard, exits with an
unexpected code or violates an oracle. Failures are counted, never skipped.
KNOWN_DEFECTS lists the failures that the program shows today; they still
count as failures, but they do not make the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracles
import tracing

ROOT_SPAN = "bench.pass"
INVOKE_SPAN = "cli.invoke"
CHILD_TIMEOUT_S = 120.0

# Operation name -> failure kind the program is known to produce.
KNOWN_DEFECTS = {
    # Lower pressure bound at t = 0 above the exact entropy ln rho(A):
    # distortion-based lower bounds assume free concatenation, which the
    # banded rule does not allow.
    "dim:banded8": "check",
    # Word enumeration for {1..5} at n_max = 14 exceeds the count guard.
    "dim:full5": "ResourceGuardError",
}


class Reference:
    """Fixed work that does not use gdmskit, run before every operation of an
    untraced pass.

    The host's speed drifts by a quarter within seconds, and whole minutes
    run slow; pure Python and numpy slow down together. An operation's time
    divided by the time this work took just before it follows the program,
    not the host. The mix (a Python loop and a dense eigen-solve) matches
    what the workloads spend their time on.
    """

    LOOP = 60_000
    MATRIX = np.random.default_rng(0).random((160, 160))

    def __init__(self):
        self.seconds = 0.0

    def run(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(self.LOOP):
            total += k * k
        np.linalg.eigvals(self.MATRIX)
        seconds = time.perf_counter() - start
        self.seconds += seconds
        return seconds


@dataclass
class Op:
    name: str
    seconds: float
    result: object = None
    error: str | None = None
    kind: str = ""
    ref_s: float = 0.0           # the reference work just before it; 0 when not run
    dim_s: float = 0.0           # time in bowen_dimension (in-process: beside a reference)

    def fail(self, message, kind="check"):
        if self.error is None:
            self.error, self.kind = message, kind

    @property
    def known(self) -> bool:
        return KNOWN_DEFECTS.get(self.name) == self.kind


@dataclass
class Pass:
    ops: list
    run_s: float                 # operations only; the reference work is left out
    dim_s: float
    ref_s: float = 0.0           # reference work run beside the operations
    digits: float = math.inf     # min -log10(width) over the named brackets
    oracle_err: float = 0.0      # max |mid - oracle|
    span_range: tuple = (0, 0)
    extra: dict = field(default_factory=dict)

    @property
    def run_rel(self) -> float:
        """Sum over the operations of their time over their reference time."""
        return sum(op.seconds / op.ref_s for op in self.ops if op.ref_s)

    @property
    def dim_rel(self) -> float:
        return sum(op.dim_s / op.ref_s for op in self.ops if op.ref_s)

    def release(self):
        """Drop the program's outputs once checked, so that a run's peak RSS
        does not grow with the number of passes it keeps."""
        for op in self.ops:
            op.result = None


def _digits(lo, hi):
    return -math.log10(hi - lo) if hi > lo else math.inf


class PassOps(list):
    """The operations of one in-process pass, in order. With a reference, each
    operation runs right after the reference work."""

    def __init__(self, tracer, reference=None):
        super().__init__()
        self.tracer, self.reference = tracer, reference

    def run(self, name, fn):
        ref_s = self.reference.run() if self.reference is not None else 0.0
        lo = len(self.tracer)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is recorded; the pass goes on
            op = Op(name, time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}", kind=type(exc).__name__)
            result = None
        else:
            op = Op(name, time.perf_counter() - start, result)
        if ref_s:
            op.ref_s = ref_s
            op.dim_s = self.tracer.summary(lo, len(self.tracer))[tracing.DIM]["s"]
        self.append(op)
        return result


def _finish(tracer, root, lo, ops, dim_s, reference):
    """The pass whose root span `root` just closed; spans lo.. are its own."""
    ref_s = reference.seconds if reference is not None else 0.0
    return Pass(ops, tracer.ends[root] - tracer.starts[root] - ref_s, dim_s, ref_s,
                span_range=(lo, len(tracer)))


def _skip(ops, name, needs):
    ops.append(Op(name, 0.0, error=f"not run: {needs} failed", kind="skipped"))


def _contains(lo, hi, value, slack):
    if math.isinf(value):
        return lo == value or hi == value or (lo <= value <= hi)
    return lo - slack <= value <= hi + slack


# -- running gdmskit's command line ---------------------------------------------

def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    max_rss_kb: int
    stdout: str
    stderr: str

    @property
    def report(self) -> dict:
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if sep and not line.startswith("warning:"):
                out[key] = value
        return out


def run_child(cmd, cwd, env, io_stem):
    """Run one child to completion; wall time from spawn to reaped exit.

    Output goes to files under `cwd`; a child still running after
    CHILD_TIMEOUT_S is killed, and every child is reaped before returning.
    """
    out_path, err_path = cwd / f"{io_stem}.out", cwd / f"{io_stem}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(proc.returncode, wall, usage.ru_maxrss,
                      out_path.read_text(), err_path.read_text())


# -- cli-corpus commands ------------------------------------------------------------

LN2_LN3 = math.log(2) / math.log(3)
BOX_SCALES = ",".join(repr(3.0 ** -k) for k in range(1, 7))

REPORT_KEYS = {
    "scc": ("components", "isolated", "condensation", "communication"),
    "props": ("irreducible", "primitive", "finitely_irreducible",
              "irreducible_why", "primitive_why", "finitely_irreducible_why"),
    "pressure": ("t", "P_lower", "P_upper", "n_used", "method"),
    "curve": ("csv",),
    "dim": ("h_lo", "h_hi", "method", "tolerance", "iterations"),
    "classify": ("verdict", "h_lo", "h_hi", "maximal_components",
                 "communicating_pairs", "growth_slope", "explanation", "csv"),
    "theta": ("theta", "justification"),
    "sweep": ("sup_h_lo", "final_interval", "monotone", "csv"),
    "sample": ("count", "depth", "seed", "rng", "position_error_bound", "csv"),
    "boxdim": ("slope", "residual", "csv"),
}


@dataclass(frozen=True)
class Cmd:
    label: str
    argv: tuple
    expect_exit: int = 0


def cli_commands(seed):
    """The corpus in run order. The `dim` commands are spread through the
    pass, so that dim_s samples several moments of the machine's load rather
    than one; `sample` runs before the `boxdim` that reads its CSV."""
    sample_seed = seed % 1_000_003
    return (
        Cmd("dim:cantor", ("dim", "cantor.gdms")),
        Cmd("scc:cantor", ("scc", "cantor.gdms")),
        Cmd("scc:linked", ("scc", "linked.gdms")),
        Cmd("props:golden", ("props", "golden.gdms")),
        Cmd("pressure:cantor", ("pressure", "cantor.gdms", "--t", "0")),
        Cmd("dim:golden", ("dim", "golden.gdms")),
        Cmd("scc:unlinked", ("scc", "unlinked.gdms")),
        Cmd("props:random", ("props", "random.gdms")),
        Cmd("pressure:cf-full2", ("pressure", "cf-full2.gdms", "--t", "0", "--nmax", "14")),
        Cmd("curve:golden", ("curve", "golden.gdms", "--tmin", "0", "--tmax", "1",
                             "--steps", "5", "--out", "curve-golden.csv")),
        Cmd("dim:random", ("dim", "random.gdms")),
        Cmd("scc:feeder", ("scc", "feeder.gdms")),
        Cmd("props:cf-banded", ("props", "cf-banded.gdms")),
        Cmd("pressure:cf-full", ("pressure", "cf-full.gdms", "--t", "0.9"), expect_exit=3),
        Cmd("curve:cf-full2", ("curve", "cf-full2.gdms", "--tmin", "0", "--tmax", "1",
                               "--steps", "6", "--out", "curve-cf-full2.csv")),
        Cmd("dim:cf-full2", ("dim", "cf-full2.gdms")),
        Cmd("classify:linked", ("classify", "linked.gdms", "--out", "z-linked.csv")),
        Cmd("classify:unlinked", ("classify", "unlinked.gdms", "--out", "z-unlinked.csv")),
        Cmd("theta:cf-full", ("theta", "cf-full.gdms")),
        Cmd("theta:cf-banded", ("theta", "cf-banded.gdms", "--n", "1,2,3")),
        Cmd("dim:feeder", ("dim", "feeder.gdms")),
        Cmd("classify:random", ("classify", "random.gdms", "--out", "z-random.csv")),
        Cmd("theta:cf-upper", ("theta", "cf-upper.gdms")),
        Cmd("sweep:cf-banded", ("sweep", "cf-banded.gdms", "--sizes", "2,3,4",
                                "--out", "sweep.csv")),
        Cmd("sample:cantor", ("sample", "cantor.gdms", "--count", "2000", "--depth", "12",
                              "--seed", str(sample_seed), "--out", "points.csv")),
        Cmd("dim:cf-full", ("dim", "cf-full.gdms"), expect_exit=3),
        Cmd("boxdim:points", ("boxdim", "points.csv", "--scales", BOX_SCALES,
                              "--out", "boxes.csv")),
    )


class CliChecker:
    """Checks `gdms` reports against oracles computed without gdmskit."""

    def __init__(self, seed, specs, workdir):
        self.workdir = workdir
        self.digests = {name: hashlib.sha256(text.encode()).hexdigest()
                        for name, text in specs.items()}
        _, ratios, allowed = inputs.random_packed(seed)
        ids = tuple(ratios)
        self.random_oracle = oracles.SimilarityOracle(
            ids, [ratios[e] for e in ids], allowed, (ids,))
        self.dims = {
            "cantor": oracles.moran_root([1 / 3, 1 / 3]),
            "golden": oracles.moran_root([0.5, 0.25]),
            "feeder": oracles.moran_root([1 / 3, 1 / 3]),
            "cf-full2": oracles.E2,
        }

    def dim_oracle(self, name):
        if name == "random":
            return self.random_oracle.dimension
        return self.dims[name]

    def check(self, cmd, inv):
        """Error message, or None when the invocation is correct."""
        if inv.exit_code != cmd.expect_exit:
            return (f"exit code {inv.exit_code}, expected {cmd.expect_exit}: "
                    f"{inv.stderr.strip()[-200:]}")
        if cmd.expect_exit != 0:
            return None if inv.stderr.strip() else "no error message on stderr"
        rep = inv.report
        command = cmd.argv[0]
        missing = [k for k in ("command", "wall_time_s") + REPORT_KEYS[command]
                   if k not in rep]
        if missing:
            return f"report lacks {', '.join(missing)}"
        if rep["command"] != command:
            return f"report command {rep['command']!r}"
        spec = cmd.argv[1]
        if spec in self.digests and rep.get("spec_sha256") != self.digests[spec]:
            return "spec_sha256 does not match the spec written"
        return getattr(self, "_" + command)(cmd.label.split(":")[1], rep, inv)

    def _scc(self, name, rep, _):
        want = {"cantor": ("1", "-"), "linked": ("2", "0->1"),
                "unlinked": ("2", "-"), "feeder": ("1", "-")}[name]
        got = (rep["components"], rep["communication"])
        if got != want:
            return f"components/communication {got}, expected {want}"
        if name == "feeder" and rep["isolated"] != "x1 x2":
            return f"isolated {rep['isolated']!r}, expected 'x1 x2'"
        return None

    def _props(self, name, rep, _):
        want = {"golden": ("True", "True", "True"), "random": ("True", None, "True"),
                "cf-banded": ("True", "False", "False")}[name]
        got = (rep["irreducible"], rep["primitive"], rep["finitely_irreducible"])
        if any(w is not None and g != w for g, w in zip(got, want)):
            return f"irreducible/primitive/finitely_irreducible {got}, expected {want}"
        return None

    def _pressure(self, name, rep, _):
        lo, hi = float(rep["P_lower"]), float(rep["P_upper"])
        if not _contains(lo, hi, math.log(2), 1e-12):
            return f"P(0) bracket [{lo}, {hi}] misses ln 2"
        return None

    def _curve(self, name, rep, _):
        rows = (self.workdir / rep["csv"]).read_text().split()
        if rows[0] != "t,P_lower,P_upper,n_used":
            return f"curve header {rows[0]!r}"
        for row in rows[1:]:
            t, lo, hi, _n = (float(x) for x in row.split(","))
            if name == "golden":
                exact = math.log(0.5 ** t + 0.25 ** t)
                if abs(lo - exact) > 1e-9 or abs(hi - exact) > 1e-9:
                    return f"P({t}) = [{lo}, {hi}], exact {exact}"
            else:
                o_lo, o_hi = oracles.cf_full_pressure_interval(2, t)
                if lo > hi or lo > o_hi + 1e-12 or hi < o_lo - 1e-12:
                    return f"P({t}) = [{lo}, {hi}] is disjoint from [{o_lo}, {o_hi}]"
        return None

    def _dim(self, name, rep, _):
        lo, hi = float(rep["h_lo"]), float(rep["h_hi"])
        want = self.dim_oracle(name)
        if not _contains(lo, hi, want, 1e-9):
            return f"bracket [{lo}, {hi}] misses {want}"
        return None

    def _classify(self, name, rep, _):
        want = "InfiniteHMeasure" if name == "linked" else "FiniteHMeasure"
        if rep["verdict"] != want:
            return f"verdict {rep['verdict']}, expected {want}"
        return self._dim(name if name == "random" else "cantor", rep, _)

    def _theta(self, name, rep, _):
        rule = name.split("-")[1]
        theta, theta_n = oracles.cf_theta(rule, (1, 2, 3))
        got = (rep["theta"], tuple(rep.get(f"theta_n[{n}]") for n in (1, 2, 3)))
        expected = (str(theta), tuple(str(theta_n[n]) for n in (1, 2, 3)))
        if got != expected:
            return f"theta {got}, expected {expected}"
        return None

    def _sweep(self, name, rep, _):
        rows = [r.split(",") for r in (self.workdir / rep["csv"]).read_text().split()[1:]]
        los = [float(r[1]) for r in rows]
        his = [float(r[2]) for r in rows]
        if [int(r[0]) for r in rows] != [2, 3, 4]:
            return f"sweep sizes {[r[0] for r in rows]}"
        # nested truncations have non-decreasing dimension
        if any(los[i] > his[j] + 1e-12 for i in range(3) for j in range(i, 3)):
            return f"sweep brackets {list(zip(los, his))} are inconsistent"
        return None

    def _sample(self, name, rep, _):
        points = (self.workdir / rep["csv"]).read_text().split()
        if rep["count"] != "2000" or len(points) != 2001:
            return f"sample count {rep['count']}, rows {len(points) - 1}"
        return None

    def _boxdim(self, name, rep, _):
        slope = float(rep["slope"])
        if abs(slope - LN2_LN3) > 0.02:
            return f"box slope {slope}, Moran dimension {LN2_LN3}"
        return None


class CliRunner:
    """Runs cli-corpus commands one at a time, untraced or traced."""

    def __init__(self, root, seed, workdir, specs):
        self.root = root
        self.workdir = workdir
        self.env = child_env(root)
        self.commands = cli_commands(seed)
        self.checker = CliChecker(seed, specs, workdir)

    def invoke(self, cmd, tracer, traced):
        if traced:
            spans_path = self.workdir / "child-spans.json"
            argv = [sys.executable, str(self.root / "bench" / "traced_cli.py"),
                    str(spans_path), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "gdmskit.cli", *cmd.argv]
        sid = tracer.enter(INVOKE_SPAN)
        try:
            inv = run_child(argv, self.workdir, self.env, "child")
        finally:
            tracer.exit(sid)
        if traced and spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.graft(child["spans"], sid)
            tracer.counts.update(child["counts"])
            spans_path.unlink()
        return inv

    def run(self, commands, tracer, traced=False, reference=None):
        """Run `commands` inside one root span and check their reports."""
        ops, invs = [], []
        lo = len(tracer)
        root = tracer.enter(ROOT_SPAN)
        for cmd in commands:
            ref_s = reference.run() if reference is not None else 0.0
            inv = self.invoke(cmd, tracer, traced)
            invs.append(inv)
            ops.append(Op(cmd.label, inv.wall_s, inv, ref_s=ref_s,
                          dim_s=inv.wall_s if cmd.argv[0] == "dim" else 0.0))
        tracer.exit(root)
        p = _finish(tracer, root, lo, ops, sum(op.dim_s for op in ops), reference)
        errs = []
        for cmd, op in zip(commands, ops):
            message = self.checker.check(cmd, op.result)
            if message:
                op.fail(message)
            if cmd.argv[0] == "dim" and cmd.expect_exit == 0 and op.error is None:
                rep = op.result.report
                lo_, hi_ = float(rep["h_lo"]), float(rep["h_hi"])
                p.digits = min(p.digits, _digits(lo_, hi_))
                errs.append(abs(0.5 * (lo_ + hi_) - self.checker.dim_oracle(cmd.label[4:])))
        p.oracle_err = max(errs, default=0.0)
        p.extra["max_rss_kb"] = max(inv.max_rss_kb for inv in invs)
        p.extra["unreported"] = [inv.wall_s - float(inv.report["wall_time_s"])
                                 for inv in invs if "wall_time_s" in inv.report]
        return p


# -- workloads ----------------------------------------------------------------------

class Workload:
    name = ""
    min_passes = 4

    def __init__(self, root, seed, workdir):
        self.root, self.seed, self.workdir = root, seed, workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def warm_up(self, tracer, reference=None) -> Pass:
        return self.run_pass(tracer, reference=reference)

    def run_pass(self, tracer, traced=False, reference=None) -> Pass:
        raise NotImplementedError


class SimBlocksWorkload(Workload):
    name = "sim-blocks"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.data = inputs.sim_blocks(seed)
        (workdir / "sim-blocks.gdms").write_text(self.data.text)
        self.oracle = oracles.SimilarityOracle(self.data.ids, self.data.ratios,
                                               self.data.allowed, self.data.blocks)

    def run_pass(self, tracer, traced=False, reference=None):
        import gdmskit as gk
        ops = PassOps(tracer, reference)
        lo = len(tracer)
        root = tracer.enter(ROOT_SPAN)
        parsed = ops.run("parse_spec", lambda: gk.parse_spec(self.data.text))
        if parsed is None:
            for name in ("scc_decompose", "matrix_properties", "bowen_dimension",
                         "classify_hausdorff_measure", "conformal_cylinder_measure",
                         "sample_points"):
                _skip(ops, name, "parse_spec")
        else:
            system = parsed[0]
            scc = ops.run("scc_decompose", lambda: gk.scc_decompose(system))
            ops.run("matrix_properties", lambda: gk.matrix_properties(system))
            dim = ops.run("bowen_dimension", lambda: gk.bowen_dimension(system))
            ops.run("classify_hausdorff_measure",
                    lambda: gk.classify_hausdorff_measure(system))
            if scc is None or dim is None or not scc.components:
                _skip(ops, "conformal_cylinder_measure", "scc_decompose or bowen_dimension")
            else:
                core = max(scc.components, key=len)
                ops.run("conformal_cylinder_measure",
                        lambda: gk.conformal_cylinder_measure(system.restrict(core), dim.mid))
            ops.run("sample_points", lambda: gk.sample_points(
                system, inputs.SIM_SAMPLE_COUNT, inputs.SIM_SAMPLE_DEPTH, self.seed))
        tracer.exit(root)
        p = _finish(tracer, root, lo, ops,
                    tracer.summary(lo, len(tracer))[tracing.DIM]["s"], reference)
        self._check(p)
        p.release()
        return p

    def _check(self, p):
        data, oracle = self.data, self.oracle
        by = {op.name: op for op in p.ops}
        blocks = [frozenset(b) for b in data.blocks]

        op = by["parse_spec"]
        if op.error is None:
            system, warnings = op.result
            if warnings:
                op.fail(f"unexpected warnings: {warnings[0]}")
            elif tuple(system.edge_ids) != data.ids:
                op.fail("parsed edge ids differ from the spec")

        op = by["scc_decompose"]
        if op.error is None:
            r = op.result
            if set(r.components) != set(blocks) or r.isolated:
                op.fail(f"components of sizes {[len(c) for c in r.components]}, "
                        f"isolated {len(r.isolated)}; expected the three planted blocks")
            else:
                idx = {c: k for k, c in enumerate(r.components)}
                a, b, c = (idx[blk] for blk in blocks)
                want = {(a, b), (b, c), (a, c)}
                if set(r.communication) != want:
                    op.fail(f"communication {sorted(r.communication)}, expected {sorted(want)}")

        op = by["matrix_properties"]
        if op.error is None and op.result.irreducible:
            op.fail("three blocks with one-way links reported irreducible")

        dim_op = by["bowen_dimension"]
        if dim_op.error is None:
            est = dim_op.result
            if not 0.0 <= est.lo <= est.hi <= 1.0 or est.hi - est.lo > 1e-10:
                dim_op.fail(f"bracket [{est.lo}, {est.hi}] is not a 1e-10 bracket in [0, 1]")
            elif oracle.log_rho(est.lo) < -1e-12 or oracle.log_rho(est.hi) > 1e-12:
                dim_op.fail(f"ln rho(B) at the bracket ends: {oracle.log_rho(est.lo):.3g}, "
                            f"{oracle.log_rho(est.hi):.3g}; the zero is not inside")
            elif abs(est.mid - oracle.dimension) > 1e-9:
                dim_op.fail(f"dimension {est.mid} differs from the largest block "
                            f"dimension {oracle.dimension}")
            p.digits = _digits(est.lo, est.hi)
            p.oracle_err = abs(est.mid - oracle.dimension)

        op = by["classify_hausdorff_measure"]
        if op.error is None:
            r = op.result
            scc = by["scc_decompose"].result
            if r.verdict != "InfiniteHMeasure":
                op.fail(f"verdict {r.verdict}; mirrored blocks a -> b communicate")
            if op.error is None and not _contains(r.dimension.lo, r.dimension.hi,
                                                  oracle.dimension, 1e-9):
                op.fail(f"dimension [{r.dimension.lo}, {r.dimension.hi}] misses "
                        f"{oracle.dimension}")
            if op.error is None and scc is not None:
                idx = {c: k for k, c in enumerate(scc.components)}
                want = tuple(sorted((idx[blocks[0]], idx[blocks[1]])))
                if tuple(sorted(r.maximal_components)) != want:
                    op.fail(f"maximal components {r.maximal_components}, expected {want}")

        op = by["conformal_cylinder_measure"]
        if op.error is None:
            masses = op.result.edge_masses
            total = math.fsum(masses.values())
            if min(masses.values()) < 0 or abs(total - 1.0) > 1e-9:
                op.fail(f"edge masses sum to {total}, min {min(masses.values())}")

        op = by["sample_points"]
        if op.error is None:
            entries = op.result.entries
            allowed = data.allowed
            if len(entries) != inputs.SIM_SAMPLE_COUNT:
                op.fail(f"{len(entries)} points")
            for e in entries:
                w = e.word
                if (len(w) != inputs.SIM_SAMPLE_DEPTH or not 0.0 <= e.midpoint <= 1.0
                        or any((a, b) not in allowed for a, b in zip(w, w[1:]))):
                    op.fail(f"sampled word {w} is not admissible or its point leaves [0, 1]")
                    break


class CfTruncWorkload(Workload):
    name = "cf-trunc"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.plan = inputs.cf_plan(seed)
        self.infinite = {rule: inputs.cf_text(f"cf-{rule}", rule, width)
                         for rule, width in inputs.CF_INFINITE_RULES}
        self.full2 = inputs.cf_text("cf-full2", "full", 0, 2)
        for case in self.plan.cases:
            (workdir / f"{case.name}.gdms").write_text(case.text)

    def run_pass(self, tracer, traced=False, reference=None):
        import gdmskit as gk
        ops = PassOps(tracer, reference)
        lo = len(tracer)
        root = tracer.enter(ROOT_SPAN)
        for case in self.plan.cases:
            def dim_case(case=case):
                system, _ = gk.parse_spec(case.text)
                est = gk.bowen_dimension(system, n_max=case.n_max)
                return est, gk.pressure(system, 0.0, n_max=case.n_max)
            ops.run(f"dim:{case.name}", dim_case)
        for rule, text in self.infinite.items():
            ops.run(f"theta:{rule}",
                    lambda text=text: gk.finiteness_parameters(gk.parse_spec(text)[0]))
        ops.run("sweep:banded", lambda: gk.truncation_sweep(
            gk.parse_spec(self.infinite["banded"])[0], inputs.CF_SWEEP_SIZES, n_max=10))

        def curve():
            system, _ = gk.parse_spec(self.full2)
            return [gk.pressure(system, t) for t in self.plan.curve_ts]
        ops.run("curve:full2", curve)
        tracer.exit(root)
        p = _finish(tracer, root, lo, ops,
                    tracer.summary(lo, len(tracer))[tracing.DIM]["s"], reference)
        self._check(p)
        p.release()
        return p

    def _check(self, p):
        cases = {c.name: c for c in self.plan.cases}
        for op in p.ops:
            if op.error is not None:
                continue
            kind, name = op.name.split(":")
            if kind == "dim":
                case = cases[name]
                est, p0 = op.result
                if not 0.0 <= est.lo <= est.hi <= 1.0:
                    op.fail(f"bracket [{est.lo}, {est.hi}] not inside [0, 1]")
                    continue
                entropy = oracles.log_spectral_radius(
                    oracles.cf_incidence(case.rule, case.width, case.size))
                if not _contains(p0.lower, p0.upper, entropy, 1e-9):
                    op.fail(f"P(0) bracket [{p0.lower:.6g}, {p0.upper:.6g}] misses "
                            f"ln rho(A) = {entropy:.6g}")
                    continue
                if math.isinf(entropy) and est.hi != 0.0:
                    op.fail(f"empty limit set but bracket [{est.lo}, {est.hi}]")
                if name == "full2":
                    if not _contains(est.lo, est.hi, oracles.E2, 1e-12):
                        op.fail(f"bracket [{est.lo}, {est.hi}] misses E_2 = {oracles.E2}")
                    p.oracle_err = max(p.oracle_err, abs(est.mid - oracles.E2))
                if not case.guard_case and est.hi > est.lo:
                    p.digits = min(p.digits, _digits(est.lo, est.hi))
            elif kind == "theta":
                theta, theta_n = oracles.cf_theta(name, (1, 2, 3))
                r = op.result
                if r.theta != theta or dict(r.theta_n) != theta_n:
                    op.fail(f"theta {r.theta}, {dict(r.theta_n)}; expected {theta}, {theta_n}")
            elif kind == "sweep":
                entries = op.result.entries
                if tuple(e.size for e in entries) != inputs.CF_SWEEP_SIZES:
                    op.fail(f"sizes {[e.size for e in entries]}")
                    continue
                los = [e.estimate.lo for e in entries]
                his = [e.estimate.hi for e in entries]
                if not all(e.irreducible for e in entries):
                    op.fail("banded truncations reported reducible")
                elif any(los[i] > his[j] + 1e-12
                         for i in range(len(los)) for j in range(i, len(los))):
                    op.fail(f"brackets {list(zip(los, his))} contradict nested truncations")
            elif kind == "curve":
                for t, est in zip(self.plan.curve_ts, op.result):
                    o_lo, o_hi = oracles.cf_full_pressure_interval(2, t)
                    if est.lower > est.upper or est.lower > o_hi + 1e-12 \
                            or est.upper < o_lo - 1e-12:
                        op.fail(f"P({t:.4f}) = [{est.lower}, {est.upper}] is disjoint "
                                f"from [{o_lo}, {o_hi}]")
                        break


class CliCorpusWorkload(Workload):
    name = "cli-corpus"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        specs = inputs.cli_specs(seed)
        for fname, text in specs.items():
            (workdir / fname).write_text(text)
        self.cli = CliRunner(root, seed, workdir, specs)

    def warm_up(self, tracer, reference=None):
        return self.cli.run(self.cli.commands[:3], tracer, reference=reference)

    def run_pass(self, tracer, traced=False, reference=None):
        return self.cli.run(self.cli.commands, tracer, traced, reference)


WORKLOADS = {w.name: w for w in (SimBlocksWorkload, CfTruncWorkload, CliCorpusWorkload)}
