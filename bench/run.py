"""gdmskit benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload {sim-blocks,cf-trunc,cli-corpus}
                         --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed, runs one warm-up pass, then
timed passes for at least S seconds (and at least four), with set-up timed
in fresh processes between them, and checks every output against an oracle
that does not use gdmskit. Untraced passes run a fixed reference work
before every operation, and each operation's time is reported as a multiple
of the reference time just before it, so that it follows the program rather
than the host's drifting speed. Informational lines start with '#'; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced passes and reports the per-layer metrics.

The program is imported from src/ next to this directory. Without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pin BLAS and OpenMP pools before numpy is imported, here and in children.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import tracing  # after the thread pins: workloads imports numpy
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
IMPORT_RUNS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "run_rel": "ref", "dim_rel": "ref",
    "bracket_digits": "digits", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}

PER_LAYER = (
    "specfile.parse_spec.self_s",
    "system.validate.self_s", "system.prune.s",
    "system.edges_by_id.calls", "system.edges_by_id.s",
    "system.successor_map.builds", "system.restrict.calls",
    "graph.scc_decompose.s", "graph.scc_decompose.calls", "graph.tarjan_scc.calls",
    "graph.matrix_properties.s",
    "maps.interval_image.calls", "maps.interval_image.s",
    "thermo.transfer_matrix.calls", "thermo.transfer_matrix.s",
    "thermo.spectral_radius.calls", "thermo.spectral_radius.s",
    "thermo.partition_sum.calls", "thermo.partition_sum.s",
    "thermo.conformal_cylinder_measure.s",
    "thermo.pressure.calls", "thermo.pressure.self_s", "thermo.cf_cache.s",
    "thermo.cf_levels", "thermo.cf_words", "thermo.finiteness_parameters.s",
    "dimension.bowen_dimension.self_s", "dimension.bowen_dimension.calls",
    "dimension.bisection_steps", "dimension.component_dimensions.self_s",
    "dimension.classify_hausdorff_measure.self_s", "dimension.truncation_sweep.self_s",
    "dimension.oracle_err",
    "sampling.sample_points.self_s", "sampling.box_dimension.s", "sampling.points",
    "cli.p50_s", "cli.tail_s",
    "cli.interp_s", "cli.import_s", "cli.unreported_s", "cli.invoke.self_s",
    "bench.pass.self_s",
    "trace.run_s", "trace.untraced_run_s", "trace.overhead_s", "trace.self_sum_s",
)
COUNTERS = ("thermo.cf_levels", "thermo.cf_words", "dimension.bisection_steps",
            "sampling.points")


def info(line):
    print(f"# {line}", flush=True)


def fail_setup(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def per_layer_unit(name):
    if name == "dimension.oracle_err":
        return "1"
    if name.endswith(".calls") or name.endswith(".builds") or name in COUNTERS:
        return "count"
    return "s"


def tail(samples):
    """Value and percentile of the highest percentile with TAIL_BEYOND samples
    beyond it (the largest sample when there are too few)."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def python_env():
    import numpy as np
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # numpy builds differ in what they report
        pass
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} blas_threads={BLAS_THREADS}")


def setup_command(args):
    """A fresh process that does the set-up and nothing else."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]


def run_setup_child(cmd):
    inv = workloads.run_child(cmd, ROOT, dict(os.environ), ".bench_work/setup")
    if inv.exit_code != 0:
        raise RuntimeError(f"set-up process failed: {inv.stderr.strip()[-300:]}")
    return inv.wall_s


def measure_imports(workdir, env):
    """(interpreter start, import gdmskit minus interpreter start) medians."""
    def median_of(code):
        return statistics.median(
            workloads.run_child([sys.executable, "-c", code], workdir, env,
                                "python-c").wall_s
            for _ in range(IMPORT_RUNS))
    interp = median_of("pass")
    return interp, median_of("import gdmskit") - interp


def run_untraced(wl, args):
    """Warm-up, then timed passes for `seconds` (at least min_passes).

    The set-up processes run between passes in step with the elapsed time:
    short samples taken back to back share one moment's machine load, so
    spreading them over the run steadies their median.
    """
    clock = tracing.Tracer()
    restore = tracing.install(clock, only={tracing.DIM})
    setup_cmd = setup_command(args)
    setup_times = []
    try:
        warm = wl.warm_up(clock, workloads.Reference())
        run_setup_child(setup_cmd)   # warm-up, not timed
        passes = []
        start = time.perf_counter()
        while len(passes) < wl.min_passes or time.perf_counter() - start < args.seconds:
            passes.append(wl.run_pass(clock, reference=workloads.Reference()))
            progress = min(1.0, (time.perf_counter() - start) / args.seconds)
            while len(setup_times) < math.ceil(progress * SETUP_RUNS):
                setup_times.append(run_setup_child(setup_cmd))
        while len(setup_times) < SETUP_RUNS:
            setup_times.append(run_setup_child(setup_cmd))
    finally:
        restore()
    return warm, passes, statistics.median(setup_times)


def run_traced(wl, seconds):
    """Alternate untraced and traced passes; returns both lists and the tracer."""
    clock = tracing.Tracer()
    tracer = tracing.Tracer()
    warm = wl.warm_up(clock)
    plain, traced, counts = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        restore = tracing.install(clock, only={tracing.DIM})
        try:
            plain.append(wl.run_pass(clock))
        finally:
            restore()
        before = dict(tracer.counts)
        restore = tracing.install(tracer)
        try:
            traced.append(wl.run_pass(tracer, traced=True))
        finally:
            restore()
        counts.append({k: tracer.counts.get(k, 0) - before.get(k, 0) for k in COUNTERS})
    return warm, plain, traced, counts, tracer


def layer_metrics(p, tracer, counts):
    summary = tracer.summary(*p.span_range)
    values = {}
    for name in PER_LAYER:
        if name in COUNTERS:
            values[name] = counts[name]
            continue
        if name.startswith(("cli.p50", "cli.tail", "cli.interp", "cli.import",
                            "cli.unreported", "trace.")) \
                or name == "dimension.oracle_err":
            continue
        span, _, field = name.rpartition(".")
        if field == "builds":
            field = "calls"
        values[name] = summary[span][field] if span in summary else 0
    values["trace.self_sum_s"] = sum(row["self_s"] for row in summary.values())
    values["dimension.oracle_err"] = p.oracle_err
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "gdmskit" / "__init__.py").is_file():
        return fail_setup(f"no gdmskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gdmskit
    if Path(gdmskit.__file__).resolve().parent != (SRC / "gdmskit").resolve():
        return fail_setup(f"imported gdmskit from {gdmskit.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail_setup(f"unknown workload {args.workload!r}; "
                          f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
    if args.setup_only:
        return 0

    info(python_env())
    info(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
         f"trace={args.trace}")
    if args.trace:
        result = report_traced(args, wl, workdir)
    else:
        result = report_untraced(args, wl)
    print(json.dumps(result))
    return 0


def _account(ops_lists):
    attempted = failed = 0
    unexpected = []
    for ops in ops_lists:
        for op in ops:
            attempted += 1
            if op.error is not None:
                failed += 1
                if not op.known:
                    unexpected.append(op)
    return attempted, failed, unexpected


def _report_failures(ops_lists):
    seen = set()
    for ops in ops_lists:
        for op in ops:
            if op.error is not None and op.name not in seen:
                seen.add(op.name)
                label = "known defect" if op.known else "FAILED"
                info(f"{label}: {op.name}: {op.error}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def report_untraced(args, wl):
    warm, passes, setup_s = run_untraced(wl, args)
    timed = [p.ops for p in passes]
    attempted, failed, unexpected = _account(timed)
    _report_failures([warm.ops] + timed)
    _, _, warm_unexpected = _account([warm.ops])
    sample = timed[:wl.min_passes]
    base_attempted, base_failed, _ = _account(sample)

    info(f"passes={len(passes)} ops/pass={len(passes[0].ops)} attempted={attempted} "
         f"failed={failed} fail_ratio={failed}/{attempted}")
    info(f"ok_ratio over the first {len(sample)} passes: "
         f"{base_attempted - base_failed}/{base_attempted}")
    info("run_s per pass: " + " ".join(f"{p.run_s:.4f}" for p in passes))
    info("reference work per pass, s: " + " ".join(f"{p.ref_s:.4f}" for p in passes))
    info(f"median run_s {statistics.median(p.run_s for p in passes):.4f} s, "
         f"dim_s {statistics.median(p.dim_s for p in passes):.4f} s")
    if wl.name == "cli-corpus":
        info_cli_latency(passes, wl.min_passes)
    metrics = {
        "setup_s": setup_s,
        "run_rel": statistics.median(p.run_rel for p in passes),
        "dim_rel": statistics.median(p.dim_rel for p in passes),
        "bracket_digits": statistics.median(p.digits for p in passes),
        "ok_ratio": (base_attempted - base_failed) / base_attempted,
        "peak_rss_mb": (max(p.extra["max_rss_kb"] for p in passes) / 1024.0
                        if wl.name == "cli-corpus" else
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    correct = not unexpected and not warm_unexpected
    for name, value in metrics.items():
        if not math.isfinite(value) or value == 0:
            info(f"FAILED: metric {name} = {value}")
            correct = False
            metrics[name] = 0.0 if not math.isfinite(value) else value
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def cli_latency(passes, first):
    """Median and tail wall time of one gdms process over untraced passes.

    The tail uses the first `first` passes only, so its percentile does not
    move with the number of passes a run fits in."""
    samples = [op.seconds for p in passes for op in p.ops]
    tail_samples = [op.seconds for p in passes[:first] for op in p.ops]
    return statistics.median(samples), tail(tail_samples), len(samples), len(tail_samples)


def info_cli_latency(passes, first):
    p50, (tail_s, pct), n, n_tail = cli_latency(passes, first)
    info(f"gdms process wall time: p50 {p50:.4f} s over {n}; p{pct:.1f} {tail_s:.4f} s "
         f"over the {n_tail} of the first {min(first, len(passes))} passes")


def report_traced(args, wl, workdir):
    warm, plain, traced, counts, tracer = run_traced(wl, args.seconds)
    interp_s, import_s = measure_imports(workdir, workloads.child_env(ROOT))
    all_ops = [p.ops for p in plain + traced]
    attempted, failed, unexpected = _account(all_ops)
    _report_failures([warm.ops] + all_ops)
    _, _, warm_unexpected = _account([warm.ops])

    rows = [layer_metrics(p, tracer, c) for p, c in zip(traced, counts)]
    exact = [name for name in PER_LAYER if per_layer_unit(name) == "count"]
    unstable = [n for n in exact if len({row[n] for row in rows}) > 1]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    if wl.name == "cli-corpus":
        p50, (tail_s, _), _, _ = cli_latency(plain, len(plain))
        unreported = statistics.median(u for p in plain for u in p.extra["unreported"])
    else:
        p50 = tail_s = unreported = 0.0
    traced_run = statistics.median(p.run_s for p in traced)
    plain_run = statistics.median(p.run_s for p in plain)
    values.update({
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.unreported_s": unreported,
        "cli.p50_s": p50,
        "cli.tail_s": tail_s,
        "trace.run_s": traced_run,
        "trace.untraced_run_s": plain_run,
        "trace.overhead_s": traced_run - plain_run,
    })
    tracer_path = workdir / "spans.json"
    tracer.write(tracer_path)

    info(f"traced passes={len(traced)} untraced passes={len(plain)} spans={len(tracer)} "
         f"written to {tracer_path.relative_to(ROOT)}")
    info(f"tracing overhead = traced run_s {traced_run:.4f} - untraced run_s "
         f"{plain_run:.4f} = {traced_run - plain_run:.4f} s")
    gap = abs(values["trace.self_sum_s"] - traced_run)
    info(f"self times of all spans sum to {values['trace.self_sum_s']:.4f} s; "
         f"traced run_s {traced_run:.4f} s; gap {gap:.2e} s")
    info("exact counts repeat across traced passes" if not unstable
         else f"FAILED: counts differ between traced passes: {', '.join(unstable)}")
    correct = not unexpected and not warm_unexpected and not unstable
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: _metric(values[name], per_layer_unit(name))
                        for name in PER_LAYER}}


if __name__ == "__main__":
    sys.exit(main())
