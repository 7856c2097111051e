"""Command-line front end: parse a spec file, run one analysis, print a
report and optionally emit CSV artifacts.

Exit codes: 0 success, 2 spec or flag error, 3 analysis not applicable,
4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from fractions import Fraction

from . import dimension, graph, sampling, specfile, thermo
from .errors import (DomainError, GdmsError, InputError, NotApplicableError,
                     ResourceGuardError, SpecError, UnsupportedAnalysisError)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NOT_APPLICABLE = 3
EXIT_RESOURCE = 4


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


class Report:
    """Accumulates report lines; printed as `key = value` pairs.

    `started` is the perf_counter reading taken when `main` began, so
    `wall_time_s` covers reading, parsing and validating the spec too.
    """

    def __init__(self, command, started, spec_path=None, spec_text=None):
        self.command = command
        self.lines = []
        self.warnings = []
        self.started = started
        self.digest = None
        if spec_text is not None:
            self.digest = hashlib.sha256(spec_text.encode()).hexdigest()
        self.spec_path = spec_path

    def add(self, key, value):
        self.lines.append((key, _fmt(value)))

    def warn(self, message):
        self.warnings.append(message)

    def emit(self, out=None):
        out = out if out is not None else sys.stdout
        print(f"command = {self.command}", file=out)
        if self.spec_path is not None:
            print(f"spec = {self.spec_path}", file=out)
            print(f"spec_sha256 = {self.digest}", file=out)
        for key, value in self.lines:
            print(f"{key} = {value}", file=out)
        for w in self.warnings:
            print(f"warning: {w}", file=out)
        print(f"wall_time_s = {time.perf_counter() - self.started:.3f}", file=out)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    system, warnings = specfile.parse_spec(text)
    return system, warnings, text


def _write_csv(path_or_none, header, rows, report):
    lines = [header] + [",".join(_fmt(cell) for cell in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path_or_none:
        with open(path_or_none, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        report.add("csv", path_or_none)
    else:
        sys.stdout.write(text)


def _int_list(raw):
    try:
        return [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {raw!r}") from None


def _float_list(raw):
    try:
        return [float(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {raw!r}") from None


# -- subcommands --------------------------------------------------------------

def _cmd_scc(args):
    system, warnings, text = _load(args.spec)
    report = Report("scc", args.started, args.spec, text)
    result = graph.scc_decompose(system)
    report.add("components", len(result.components))
    for k, comp in enumerate(result.components):
        report.add(f"component[{k}]", " ".join(map(str, sorted(comp, key=str))))
    report.add("isolated", " ".join(map(str, sorted(result.isolated, key=str))) or "-")
    report.add("condensation", " ".join(f"{i}->{j}" for i, j in sorted(result.condensation)) or "-")
    report.add("communication", " ".join(f"{i}->{j}" for i, j in sorted(result.communication)) or "-")
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_props(args):
    system, warnings, text = _load(args.spec)
    report = Report("props", args.started, args.spec, text)
    props = graph.matrix_properties(system)
    for flag in ("irreducible", "primitive", "finitely_irreducible"):
        report.add(flag, getattr(props, flag))
        report.add(f"{flag}_why", props.justification[flag])
    if props.witness is not None:
        report.add("witness_words", len(props.witness))
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_pressure(args):
    system, warnings, text = _load(args.spec)
    report = Report("pressure", args.started, args.spec, text)
    est = thermo.pressure(system, args.t, n_max=args.nmax)
    report.add("t", est.t)
    report.add("P_lower", est.lower)
    report.add("P_upper", est.upper)
    report.add("n_used", est.n_used)
    report.add("method", est.method)
    if est.is_infinite:
        report.warn("pressure is infinite below the finiteness parameter")
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_curve(args):
    system, warnings, text = _load(args.spec)
    report = Report("curve", args.started, args.spec, text)
    if args.steps < 2 or args.tmax <= args.tmin:
        raise InputError("need steps >= 2 and tmax > tmin")
    rows = []
    for k in range(args.steps):
        t = args.tmin + (args.tmax - args.tmin) * k / (args.steps - 1)
        est = thermo.pressure(system, t, n_max=args.nmax)
        rows.append((t, est.lower, est.upper, est.n_used))
    _write_csv(args.out, "t,P_lower,P_upper,n_used", rows, report)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_dim(args):
    system, warnings, text = _load(args.spec)
    report = Report("dim", args.started, args.spec, text)
    est = dimension.bowen_dimension(system, args.tol)
    report.add("h_lo", est.lo)
    report.add("h_hi", est.hi)
    report.add("method", est.method)
    report.add("tolerance", args.tol)
    report.add("iterations", est.iterations)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_classify(args):
    system, warnings, text = _load(args.spec)
    report = Report("classify", args.started, args.spec, text)
    result = dimension.classify_hausdorff_measure(
        system, n_range=range(args.nmin, args.nmax + 1))
    if result.verdict == dimension.NOT_APPLICABLE:
        raise NotApplicableError(result.explanation)
    report.add("verdict", result.verdict)
    report.add("h_lo", result.dimension.lo)
    report.add("h_hi", result.dimension.hi)
    report.add("maximal_components", " ".join(map(str, result.maximal_components)) or "-")
    report.add("communicating_pairs",
               " ".join(f"{i}->{j}" for i, j in result.communicating_pairs) or "-")
    report.add("growth_slope", result.growth_slope)
    report.add("explanation", result.explanation)
    _write_csv(args.out, "n,Z_n",
               list(zip(result.evidence_n, result.evidence_z)), report)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_theta(args):
    system, warnings, text = _load(args.spec)
    report = Report("theta", args.started, args.spec, text)
    n_list = _int_list(args.n) if args.n else [1, 2, 3]
    result = thermo.finiteness_parameters(system, n_list)
    report.add("theta", result.theta)
    for n in sorted(result.theta_n):
        report.add(f"theta_n[{n}]", result.theta_n[n])
    report.add("justification", result.justification)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_sweep(args):
    system, warnings, text = _load(args.spec)
    report = Report("sweep", args.started, args.spec, text)
    sizes = _int_list(args.sizes)
    sweep = dimension.truncation_sweep(system, sizes, tolerance=args.tol)
    rows = [(e.size, e.estimate.lo, e.estimate.hi) for e in sweep.entries]
    report.add("sup_h_lo", sweep.sup_lo)
    report.add("final_interval", f"[{_fmt(sweep.final_interval[0])}, {_fmt(sweep.final_interval[1])}]")
    report.add("monotone", sweep.monotone)
    for e in sweep.entries:
        report.add(f"irreducible[{e.size}]", e.irreducible)
    _write_csv(args.out, "size,h_lo,h_hi", rows, report)
    for w in sweep.warnings:
        report.warn(w)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_sample(args):
    system, warnings, text = _load(args.spec)
    report = Report("sample", args.started, args.spec, text)
    sample = sampling.sample_points(system, args.count, args.depth, args.seed)
    report.add("count", len(sample.entries))
    report.add("depth", sample.depth)
    report.add("seed", sample.seed)
    report.add("rng", sample.rng_name)
    report.add("position_error_bound", sample.diameter_bound)
    _write_csv(args.out, "point", [(p,) for p in sample.points], report)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def _cmd_boxdim(args):
    report = Report("boxdim", args.started)
    try:
        with open(args.csv, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read {args.csv}: {exc}") from exc
    if not lines or lines[0] != "point":
        raise InputError("point CSV must start with a 'point' header row")
    try:
        points = [float(ln) for ln in lines[1:]]
    except ValueError as exc:
        raise InputError(f"bad point value: {exc}") from exc
    sample = sampling.sample_from_points(points, anchor=args.anchor,
                                         error_bound=args.errbound)
    result = sampling.box_dimension(sample, _float_list(args.scales))
    report.add("slope", result.slope)
    report.add("residual", result.residual)
    _write_csv(args.out, "scale,count", list(zip(result.scales, result.counts)), report)
    report.emit()
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdms",
        description="Dimension and pressure analyses of graph-directed Markov systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scc", help="strongly connected component report")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_scc)

    p = sub.add_parser("props", help="incidence matrix properties")
    p.add_argument("spec")
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("pressure", help="pressure bracket at one exponent")
    p.add_argument("spec")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--nmax", type=int, default=14)
    p.set_defaults(fn=_cmd_pressure)

    p = sub.add_parser("curve", help="pressure brackets over a t grid (CSV)")
    p.add_argument("spec")
    p.add_argument("--tmin", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--nmax", type=int, default=14)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_curve)

    p = sub.add_parser("dim", help="Bowen dimension bracket")
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_dim)

    p = sub.add_parser("classify", help="Hausdorff-measure finiteness verdict")
    p.add_argument("spec")
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--nmax", type=int, default=30)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("theta", help="finiteness parameters")
    p.add_argument("spec")
    p.add_argument("--n", default=None, help="comma-separated word lengths")
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("sweep", help="dimension sweep over truncations (CSV)")
    p.add_argument("spec")
    p.add_argument("--sizes", required=True, help="comma-separated truncation sizes")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("sample", help="random limit-set points (CSV)")
    p.add_argument("spec")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("boxdim", help="box-counting slope from a point CSV")
    p.add_argument("csv")
    p.add_argument("--scales", required=True, help="comma-separated decreasing scales")
    p.add_argument("--anchor", type=float, default=0.0)
    p.add_argument("--errbound", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_boxdim)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SPEC if exc.code not in (0, None) else EXIT_OK
    args.started = started
    try:
        return args.fn(args)
    except (SpecError, InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (NotApplicableError, UnsupportedAnalysisError) as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except GdmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
