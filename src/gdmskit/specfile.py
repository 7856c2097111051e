"""Line-oriented system spec files.

Grammar (one directive per line, '#' starts a comment, tokens split on
whitespace):

    system <name>
    space <vertex> <lo> <hi>
    edge <id> <from> <to> similarity <ratio> <offset> <sign>
    family cf [truncate <N>]
    incidence full | banded <w> | upper | explicit
    allow <a> <b>              (explicit incidence only)

Unknown keywords are rejected with their line number; nothing is silently
ignored. An allow pair that is repeated is accepted and counts once: the
incidence matrix has a single 1 there. Under `banded` and `upper` an edge
id is an ASCII decimal integer, -?[0-9]+, and ids of one value, such as 1
and 01, are duplicates.

The parser reads tokens only. Each value is checked by the constructor of
the object it becomes (`maps.VertexSpace`, `maps.SimilarityMap`,
`graph.IncidenceSpec`, `system.cf_system`), and its InputError is raised
as a SpecError at the line that holds the value.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np

from . import graph as g
from . import maps as m
from .errors import InputError, SpecError
from .system import GdmsSystem, _similarity_system, cf_system, validate


def _parse_number(token, line, what):
    try:
        return float(token)
    except ValueError:
        raise SpecError(f"{what} must be a number, got {token!r}", line) from None


def _parse_int(token, line, what):
    try:
        return int(token)
    except ValueError:
        raise SpecError(f"{what} must be an integer, got {token!r}", line) from None


def _at_line(line, make, *args):
    """make(*args), its InputError raised as a SpecError at `line`."""
    try:
        return make(*args)
    except InputError as exc:
        raise SpecError(str(exc), line) from None


def parse_spec(text: str):
    """Parse and validate a spec file; returns (system, warnings)."""
    name = None
    spaces = {}
    edges = []          # (line, id, src, dst, SimilarityMap)
    family_cf = None    # None | (line, truncate or None)
    incidence = None    # (line, IncidenceSpec)
    labels = []         # the allow pairs laid out flat: a1, b1, a2, b2, ...
    allow_lines = []    # the line of each allow pair

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        keyword, args = tokens[0], tokens[1:]

        # allow lines are most of a large spec, so they are matched first;
        # their labels are resolved in bulk by `graph.incidence_array`
        if keyword == "allow":
            if len(args) != 2:
                raise SpecError("usage: allow <a> <b>", lineno)
            labels += args
            allow_lines.append(lineno)
        elif keyword == "system":
            if name is not None:
                raise SpecError("duplicate system directive", lineno)
            if len(args) != 1:
                raise SpecError("usage: system <name>", lineno)
            name = args[0]
        elif keyword == "space":
            if len(args) != 3:
                raise SpecError("usage: space <vertex> <lo> <hi>", lineno)
            vertex = args[0]
            if vertex in spaces:
                raise SpecError(f"duplicate space for vertex {vertex!r}", lineno)
            lo = _parse_number(args[1], lineno, "space lo")
            hi = _parse_number(args[2], lineno, "space hi")
            spaces[vertex] = _at_line(lineno, m.VertexSpace, vertex, lo, hi)
        elif keyword == "edge":
            if len(args) != 7 or args[3] != "similarity":
                raise SpecError(
                    "usage: edge <id> <from> <to> similarity <ratio> <offset> <sign>",
                    lineno)
            ratio = _parse_number(args[4], lineno, "ratio")
            offset = _parse_number(args[5], lineno, "offset")
            sign = _parse_int(args[6], lineno, "sign")
            edges.append((lineno, args[0], args[1], args[2],
                          _at_line(lineno, m.SimilarityMap, ratio, offset, sign)))
        elif keyword == "family":
            if not args or args[0] != "cf":
                raise SpecError("only 'family cf' is supported", lineno)
            if family_cf is not None:
                raise SpecError("duplicate family directive", lineno)
            truncate = None
            if len(args) == 3 and args[1] == "truncate":
                truncate = _parse_int(args[2], lineno, "truncation size")
                if truncate < 1:
                    raise SpecError("truncation size must be >= 1", lineno)
            elif len(args) != 1:
                raise SpecError("usage: family cf [truncate <N>]", lineno)
            family_cf = (lineno, truncate)
        elif keyword == "incidence":
            if incidence is not None:
                raise SpecError("duplicate incidence directive", lineno)
            if len(args) == 2 and args[0] == g.BANDED:
                width = _parse_int(args[1], lineno, "band width")
            elif args in ([g.FULL], [g.UPPER], [g.EXPLICIT]):
                width = 0
            else:
                raise SpecError(
                    "usage: incidence full | banded <w> | upper | explicit", lineno)
            incidence = (lineno, _at_line(lineno, g.IncidenceSpec, args[0], width))
        else:
            raise SpecError(f"unknown keyword {keyword!r}", lineno)

    return _assemble(name, spaces, edges, family_cf, incidence, labels, allow_lines)


def _assemble(name, spaces, edges, family_cf, incidence, labels, allow_lines):
    if incidence is None:
        raise SpecError("missing incidence directive")
    inc_line, spec = incidence
    explicit = spec.kind == g.EXPLICIT
    if labels and not explicit:
        raise SpecError("allow lines need 'incidence explicit'", allow_lines[0])
    if explicit and not labels:
        raise SpecError("explicit incidence needs at least one allow line", inc_line)
    name = name or "unnamed"

    if family_cf is not None:
        fam_line, truncate = family_cf
        if edges:
            raise SpecError("'family cf' and edge lines are mutually exclusive",
                            fam_line)
        # the system keeps the spec's name, which `GdmsSystem.truncate` would extend
        system = replace(_at_line(fam_line, cf_system, spec, truncate), name=name)
        if spaces:
            if len(spaces) != 1:
                raise SpecError("the cf family lives on a single vertex", fam_line)
            space = next(iter(spaces.values()))
            if not (space.lo == 0.0 and space.hi == 1.0):
                raise SpecError("the cf family needs the space [0, 1]", fam_line)
        return validate(system)

    if not edges:
        raise SpecError("no edges and no family directive")
    # a rule over integer labels reads each id as an ASCII decimal integer
    # before the duplicate check, so that '1' and '01' are one id
    integer_ids = not explicit and spec.rule.integer_ids
    seen, checked = set(), []
    for lineno, eid, src, dst, sim in edges:
        if integer_ids:
            if not re.fullmatch("-?[0-9]+", eid):
                raise SpecError(g.INTEGER_IDS.format(spec.kind, eid), lineno)
            eid = int(eid)
        if eid in seen:
            raise SpecError(f"duplicate edge id {eid!r}", lineno)
        seen.add(eid)
        if src not in spaces:
            raise SpecError(f"edge {eid!r}: no space for vertex {src!r}", lineno)
        if dst not in spaces:
            raise SpecError(f"edge {eid!r}: no space for vertex {dst!r}", lineno)
        checked.append((eid, src, dst, sim))
    return validate(_similarity_system(name, sorted(spaces), spaces, checked, spec,
                                       labels, allow_lines))


def serialize_spec(system: GdmsSystem) -> str:
    """Canonical text form; parse(serialize(s)) reproduces s. InputError
    for a system the grammar cannot state (`MoebiusCfFamily.spec_lines`)."""
    lines = [f"system {system.name}", *system.family.spec_lines(system)]
    inc = system.incidence
    if inc.kind != g.EXPLICIT:
        lines.append("incidence " + inc.rule.directive.format(inc.width))
    else:
        lines.append("incidence explicit")
        # A with its edges in str order of their ids, so that the pairs of
        # its nonzero entries come sorted by (str(a), str(b))
        ids = system.edge_ids
        order = sorted(range(len(ids)), key=lambda k: str(ids[k]))
        rows, cols = np.nonzero(system.incidence_matrix[np.ix_(order, order)])
        named = [ids[k] for k in order]
        lines += [f"allow {named[a]} {named[b]}" for a, b in zip(rows.tolist(), cols.tolist())]
    return "\n".join(lines) + "\n"
