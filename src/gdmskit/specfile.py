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
incidence matrix has a single 1 there.
"""

from __future__ import annotations

import math

import numpy as np

from . import graph as g
from . import maps as m
from .errors import SpecError
from .system import GdmsSystem, cf_system, validate


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


def parse_spec(text: str):
    """Parse and validate a spec file; returns (system, warnings)."""
    name = None
    spaces = {}
    edges = []          # (line, id, src, dst, SimilarityMap)
    family_cf = None    # None | (line, truncate or None)
    incidence = None    # (line, kind, width)
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
            if not lo < hi:
                raise SpecError("space needs lo < hi", lineno)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SpecError(f"space for vertex {vertex!r} needs finite ends", lineno)
            spaces[vertex] = m.VertexSpace(vertex, lo, hi)
        elif keyword == "edge":
            if len(args) != 7 or args[3] != "similarity":
                raise SpecError(
                    "usage: edge <id> <from> <to> similarity <ratio> <offset> <sign>",
                    lineno)
            eid = args[0]
            ratio = _parse_number(args[4], lineno, "ratio")
            offset = _parse_number(args[5], lineno, "offset")
            sign = _parse_int(args[6], lineno, "sign")
            if sign not in (1, -1):
                raise SpecError("sign must be 1 or -1", lineno)
            if not 0.0 < ratio < 1.0:
                raise SpecError("ratio must lie strictly between 0 and 1", lineno)
            edges.append((lineno, eid, args[1], args[2],
                          m.SimilarityMap(ratio, offset, sign)))
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
                if width < 1:
                    raise SpecError("band width must be >= 1", lineno)
                incidence = (lineno, g.BANDED, width)
            elif args in ([g.FULL], [g.UPPER], [g.EXPLICIT]):
                incidence = (lineno, args[0], 0)
            else:
                raise SpecError(
                    "usage: incidence full | banded <w> | upper | explicit", lineno)
        else:
            raise SpecError(f"unknown keyword {keyword!r}", lineno)

    return _assemble(name, spaces, edges, family_cf, incidence, labels, allow_lines)


def _assemble(name, spaces, edges, family_cf, incidence, labels, allow_lines):
    if incidence is None:
        raise SpecError("missing incidence directive")
    inc_line, kind, width = incidence
    if labels and kind != g.EXPLICIT:
        raise SpecError("allow lines need 'incidence explicit'", allow_lines[0])
    if kind == g.EXPLICIT and not labels:
        raise SpecError("explicit incidence needs at least one allow line", inc_line)
    name = name or "unnamed"

    if family_cf is not None:
        fam_line, truncate = family_cf
        if edges:
            raise SpecError("'family cf' and edge lines are mutually exclusive",
                            fam_line)
        if kind == g.EXPLICIT:
            raise SpecError("the cf family uses a named incidence rule", fam_line)
        if spaces:
            if len(spaces) != 1:
                raise SpecError("the cf family lives on a single vertex", fam_line)
            space = next(iter(spaces.values()))
            if not (space.lo == 0.0 and space.hi == 1.0):
                raise SpecError("the cf family needs the space [0, 1]", fam_line)
        system = cf_system(g.IncidenceSpec(kind, width), truncate=truncate, name=name)
        return validate(system)

    if not edges:
        raise SpecError("no edges and no family directive")
    seen = set()
    for lineno, eid, src, dst, _ in edges:
        if eid in seen:
            raise SpecError(f"duplicate edge id {eid!r}", lineno)
        seen.add(eid)
        if src not in spaces:
            raise SpecError(f"edge {eid!r}: no space for vertex {src!r}", lineno)
        if dst not in spaces:
            raise SpecError(f"edge {eid!r}: no space for vertex {dst!r}", lineno)

    spec = g.IncidenceSpec(kind, width)
    if kind != g.EXPLICIT and spec.rule.integer_ids:
        converted = []
        for lineno, eid, src, dst, sim in edges:
            try:
                converted.append((lineno, int(eid), src, dst, sim))
            except ValueError:
                raise SpecError(g.INTEGER_IDS.format(kind, eid), lineno) from None
        edges = converted

    graph = g.MultiGraph(tuple(sorted(spaces)),
                         tuple(g.Edge(eid, src, dst) for _, eid, src, dst, _ in edges))
    family = m.SimilarityFamily({eid: sim for _, eid, _, _, sim in edges})
    system = GdmsSystem(name=name, graph=graph, incidence=spec,
                        family=family, spaces=dict(spaces))
    if kind == g.EXPLICIT:
        system.store_matrix(g.incidence_array(spec, graph.edges, labels, allow_lines))
    return validate(system)


def serialize_spec(system: GdmsSystem) -> str:
    """Canonical text form; parse(serialize(s)) reproduces s."""
    lines = [f"system {system.name}"]
    if system.family.kind != "cf":  # the cf family's [0, 1] space is implicit
        for vertex in sorted(system.spaces):
            s = system.spaces[vertex]
            lines.append(f"space {vertex} {s.lo:.17g} {s.hi:.17g}")
    if system.family.kind == "cf":
        if system.infinite:
            lines.append("family cf")
        else:
            lines.append(f"family cf truncate {len(system.graph.edges)}")
    else:
        for e in system.graph.edges:
            sm = system.family.map_for(e.id)
            lines.append(f"edge {e.id} {e.src} {e.dst} similarity "
                         f"{sm.ratio:.17g} {sm.offset:.17g} {sm.sign}")
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
