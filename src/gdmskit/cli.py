"""Command-line front end: parse a spec file, run one analysis, print a
report and optionally emit CSV artifacts.

Exit codes: 0 success, 2 spec or flag error, 3 analysis not applicable
or not certified, 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from fractions import Fraction

from . import dimension, graph, sampling, specfile, thermo
from .errors import (ConvergenceError, DomainError, GdmsError, InputError,
                     NotApplicableError, ResourceGuardError, SpecError,
                     UnsupportedAnalysisError)

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


def _list(raw, kind, what):
    try:
        return [kind(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise InputError(f"expected comma-separated {what}, got {raw!r}") from None


def _arcs(pairs):
    return " ".join(f"{i}->{j}" for i, j in pairs) or "-"


# -- subcommands --------------------------------------------------------------
# A body adds the command's lines, CSVs and own warnings to the report; `_run`
# loads the spec before it and appends the spec warnings after it.

def _scc(args, report, system):
    result = graph.scc_decompose(system)
    report.add("components", len(result.components))
    for k, comp in enumerate(result.components):
        report.add(f"component[{k}]", " ".join(map(str, sorted(comp, key=str))))
    report.add("isolated", " ".join(map(str, sorted(result.isolated, key=str))) or "-")
    report.add("condensation", _arcs(sorted(result.condensation)))
    report.add("communication", _arcs(sorted(result.communication)))


def _props(args, report, system):
    props = graph.matrix_properties(system)
    for flag in ("irreducible", "primitive", "finitely_irreducible"):
        report.add(flag, getattr(props, flag))
        report.add(f"{flag}_why", props.justification[flag])


def _pressure(args, report, system):
    est = thermo.pressure(system, args.t, n_max=args.nmax)
    report.add("t", est.t)
    report.add("P_lower", est.lower)
    report.add("P_upper", est.upper)
    report.add("n_used", est.n_used)
    report.add("method", est.method)
    if est.is_infinite:
        report.warn("pressure is infinite below the finiteness parameter")


def _curve(args, report, system):
    for flag, value in (("--tmin", args.tmin), ("--tmax", args.tmax)):
        if not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value!r}")
    if args.steps < 2 or args.tmax <= args.tmin:
        raise InputError("need steps >= 2 and tmax > tmin")
    rows = []
    for k in range(args.steps):
        t = args.tmin + (args.tmax - args.tmin) * k / (args.steps - 1)
        est = thermo.pressure(system, t, n_max=args.nmax)
        rows.append((t, est.lower, est.upper, est.n_used))
    _write_csv(args.out, "t,P_lower,P_upper,n_used", rows, report)


def _dim(args, report, system):
    est = dimension.bowen_dimension(system, args.tol)
    report.add("h_lo", est.lo)
    report.add("h_hi", est.hi)
    report.add("method", est.method)
    report.add("tolerance", args.tol)
    report.add("iterations", est.iterations)


def _classify(args, report, system):
    result = dimension.classify_hausdorff_measure(
        system, n_range=range(args.nmin, args.nmax + 1))
    report.add("verdict", result.verdict)
    report.add("h_lo", result.dimension.lo)
    report.add("h_hi", result.dimension.hi)
    report.add("maximal_components", " ".join(map(str, result.maximal_components)) or "-")
    report.add("communicating_pairs", _arcs(result.communicating_pairs))
    report.add("growth_slope", result.growth_slope)
    report.add("explanation", result.explanation)
    _write_csv(args.out, "n,Z_n", list(zip(result.evidence_n, result.evidence_z)), report)


def _theta(args, report, system):
    n_list = [1, 2, 3] if args.n is None else _list(args.n, int, "integers")
    result = thermo.finiteness_parameters(system, n_list)
    report.add("theta", result.theta)
    for n in sorted(result.theta_n):
        report.add(f"theta_n[{n}]", result.theta_n[n])
    report.add("justification", result.justification)


def _sweep(args, report, system):
    sizes = _list(args.sizes, int, "integers")
    sweep = dimension.truncation_sweep(system, sizes, tolerance=args.tol)
    report.add("sup_h_lo", sweep.sup_lo)
    report.add("final_interval", f"[{_fmt(sweep.final_interval[0])}, {_fmt(sweep.final_interval[1])}]")
    report.add("monotone", sweep.monotone)
    for e in sweep.entries:
        report.add(f"irreducible[{e.size}]", e.irreducible)
    _write_csv(args.out, "size,h_lo,h_hi",
               [(e.size, e.estimate.lo, e.estimate.hi) for e in sweep.entries], report)
    for w in sweep.warnings:
        report.warn(w)


def _sample(args, report, system):
    sample = sampling.sample_points(system, args.count, args.depth, args.seed)
    report.add("count", len(sample.entries))
    report.add("depth", sample.depth)
    report.add("seed", sample.seed)
    report.add("rng", sample.rng_name)
    report.add("position_error_bound", sample.diameter_bound)
    _write_csv(args.out, "point", [(p,) for p in sample.points], report)


def _boxdim(args, report, system):
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
    result = sampling.box_dimension(sample, _list(args.scales, float, "numbers"))
    report.add("slope", result.slope)
    report.add("residual", result.residual)
    _write_csv(args.out, "scale,count", list(zip(result.scales, result.counts)), report)


def _required(kind):
    return {"type": kind, "required": True}


NMAX = {"type": int, "default": 14}

# name -> (help, body, positional argument, {flag: add_argument keywords}).
# Every command but boxdim reads a spec file.
COMMANDS = {
    "scc": ("strongly connected component report", _scc, "spec", {}),
    "props": ("incidence matrix properties", _props, "spec", {}),
    "pressure": ("pressure bracket at one exponent", _pressure, "spec",
                 {"--t": _required(float), "--nmax": NMAX}),
    "curve": ("pressure brackets over a t grid (CSV)", _curve, "spec",
              {"--tmin": _required(float), "--tmax": _required(float),
               "--steps": _required(int), "--nmax": NMAX, "--out": {}}),
    "dim": ("Bowen dimension bracket", _dim, "spec",
            {"--tol": {"type": float, "default": 1e-10}}),
    "classify": ("Hausdorff-measure finiteness verdict", _classify, "spec",
                 {"--nmin": {"type": int, "default": 1}, "--nmax": {"type": int, "default": 30},
                  "--out": {}}),
    "theta": ("finiteness parameters", _theta, "spec",
              {"--n": {"help": "comma-separated word lengths"}}),
    "sweep": ("dimension sweep over truncations (CSV)", _sweep, "spec",
              {"--sizes": {"required": True, "help": "comma-separated truncation sizes"},
               "--tol": {"type": float, "default": 1e-3}, "--out": {}}),
    "sample": ("random limit-set points (CSV)", _sample, "spec",
               {"--count": _required(int), "--depth": _required(int),
                "--seed": _required(int), "--out": {}}),
    "boxdim": ("box-counting slope from a point CSV", _boxdim, "csv",
               {"--scales": {"required": True, "help": "comma-separated decreasing scales"},
                "--anchor": {"type": float, "default": 0.0},
                "--errbound": {"type": float, "default": 0.0}, "--out": {}}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gdms",
        description="Dimension and pressure analyses of graph-directed Markov systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, positional, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def _run(args, started):
    """Load the spec, build the report, run the command's body, append the
    spec warnings after the body's own and print the report."""
    _, body, positional, _ = COMMANDS[args.command]
    if positional == "spec":
        system, warnings, text = _load(args.spec)
        report = Report(args.command, started, args.spec, text)
    else:
        system, warnings, report = None, (), Report(args.command, started)
    body(args, report, system)
    for w in warnings:
        report.warn(w)
    report.emit()
    return EXIT_OK


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SPEC if exc.code not in (0, None) else EXIT_OK
    try:
        return _run(args, started)
    except (SpecError, InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except ConvergenceError as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
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
