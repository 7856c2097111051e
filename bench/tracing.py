"""Spans around calls into gdmskit, installed from outside the package.

`install` rebinds the public functions, methods and properties listed below
to wrappers that open a span on entry and close it on exit, exceptions
included. A function imported by name (`from .system import empty_limit_set`)
is rebound in every gdmskit module that binds it. Nothing in the package is
edited; `install` returns a function that restores the originals.

A span is (name, start, end, parent). Spans stay in memory; `write` saves
them at the end of a run. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

CF_CACHE = "thermo.cf_cache"

# (module, attribute, span name)
FUNCTIONS = (
    ("gdmskit.specfile", "parse_spec", "specfile.parse_spec"),
    ("gdmskit.system", "validate", "system.validate"),
    ("gdmskit.system", "prune", "system.prune"),
    ("gdmskit.system", "empty_limit_set", "system.empty_limit_set"),
    ("gdmskit.graph", "scc_decompose", "graph.scc_decompose"),
    ("gdmskit.graph", "tarjan_scc", "graph.tarjan_scc"),
    ("gdmskit.graph", "matrix_properties", "graph.matrix_properties"),
    ("gdmskit.thermo", "transfer_matrix", "thermo.transfer_matrix"),
    ("gdmskit.thermo", "spectral_radius", "thermo.spectral_radius"),
    ("gdmskit.thermo", "partition_sum", "thermo.partition_sum"),
    ("gdmskit.thermo", "pressure", "thermo.pressure"),
    ("gdmskit.thermo", "finiteness_parameters", "thermo.finiteness_parameters"),
    ("gdmskit.thermo", "conformal_cylinder_measure", "thermo.conformal_cylinder_measure"),
    ("gdmskit.dimension", "bowen_dimension", "dimension.bowen_dimension"),
    ("gdmskit.dimension", "component_dimensions", "dimension.component_dimensions"),
    ("gdmskit.dimension", "classify_hausdorff_measure", "dimension.classify_hausdorff_measure"),
    ("gdmskit.dimension", "truncation_sweep", "dimension.truncation_sweep"),
    ("gdmskit.sampling", "sample_points", "sampling.sample_points"),
    ("gdmskit.sampling", "box_dimension", "sampling.box_dimension"),
)

# (module, class, method, span name)
METHODS = (
    ("gdmskit.system", "GdmsSystem", "restrict", "system.restrict"),
    ("gdmskit.maps", "SimilarityFamily", "interval_image", "maps.interval_image"),
    ("gdmskit.maps", "MoebiusCfFamily", "interval_image", "maps.interval_image"),
    ("gdmskit.thermo", "CfPartitionCache", "__init__", CF_CACHE),
    ("gdmskit.thermo", "CfPartitionCache", "log_qs", CF_CACHE),
    ("gdmskit.thermo", "CfPartitionCache", "word_count", CF_CACHE),
    ("gdmskit.thermo", "CfPartitionCache", "partition_sum", CF_CACHE),
)

DIM = "dimension.bowen_dimension"


class Tracer:
    """Spans and exact counts of one process, kept in memory."""

    def __init__(self):
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.outer, self.child = [], [], []
        self.stack = []
        self.active = Counter()
        self.counts = Counter()

    def __len__(self):
        return len(self.names)

    def enter(self, name) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.active[name] == 0)
        self.active[name] += 1
        self.ends.append(0.0)
        self.child.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def exit(self, sid):
        end = time.perf_counter()
        self.ends[sid] = end
        self.stack.pop()
        self.active[self.names[sid]] -= 1
        parent = self.parents[sid]
        if parent >= 0:
            self.child[parent] += end - self.starts[sid]

    def graft(self, spans, parent):
        """Add spans recorded by another process under the open span `parent`.

        `spans` is a list of (name, start, end, parent index within the list,
        outermost flag); both processes read the same monotonic clock.
        """
        base = len(self.names)
        for name, start, end, sub_parent, outer in spans:
            p = parent if sub_parent < 0 else base + sub_parent
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(p)
            self.outer.append(outer)
            self.child.append(0.0)
            self.child[p] += end - start

    def summary(self, lo=0, hi=None):
        """name -> {"calls", "s", "self_s"} over spans lo..hi-1.

        "s" sums the spans not nested in a span of the same name, so
        recursive or layered calls are not counted twice.
        """
        hi = len(self.names) if hi is None else hi
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for k in range(lo, hi):
            row = out[self.names[k]]
            dur = self.ends[k] - self.starts[k]
            row["calls"] += 1
            row["self_s"] += dur - self.child[k]
            if self.outer[k]:
                row["s"] += dur
        return out

    def export(self, lo=0, hi=None):
        hi = len(self.names) if hi is None else hi
        return [(self.names[k], self.starts[k], self.ends[k],
                 self.parents[k] - lo if self.parents[k] >= lo else -1, self.outer[k])
                for k in range(lo, hi)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.export(), "counts": dict(self.counts)}, fh)


def _wrap(tracer, name, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        outer = tracer.active[name] == 0
        state = before(args) if before is not None and outer else None
        sid = tracer.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit(sid)
            if after is not None and outer:
                after(state, args, result)
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _counting_hooks(tracer, name):
    """Exact counts that a span's result or its object carries."""
    counts = tracer.counts
    if name == DIM:
        def after(_, __, result):
            if result is not None:
                counts["dimension.bisection_steps"] += result.iterations
        return None, after
    if name == "sampling.sample_points":
        def after(_, __, result):
            if result is not None:
                counts["sampling.points"] += len(result.entries)
        return None, after
    if name == CF_CACHE:
        def before(args):
            cache = args[0]
            return len(getattr(cache, "_levels", ())), getattr(cache, "_nodes", 0)

        def after(state, args, _):
            cache = args[0]
            counts["thermo.cf_levels"] += len(getattr(cache, "_levels", ())) - state[0]
            counts["thermo.cf_words"] += getattr(cache, "_nodes", 0) - state[1]
        return before, after
    return None, None


def _gdmskit_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "gdmskit" or key.startswith("gdmskit."))]


def install(tracer, only=None):
    """Wrap the listed targets (or just the span names in `only`)."""
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr)))
        setattr(owner, attr, value)

    modules = _gdmskit_modules()
    for mod_name, attr, name in FUNCTIONS:
        if only is not None and name not in only:
            continue
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            continue
        wrapper = _wrap(tracer, name, original, *_counting_hooks(tracer, name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapper)

    for mod_name, cls_name, attr, name in METHODS:
        if only is not None and name not in only:
            continue
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        if cls is None or attr not in cls.__dict__:
            continue
        patch(cls, attr, _wrap(tracer, name, cls.__dict__[attr],
                               *_counting_hooks(tracer, name)))

    if only is None:
        _install_properties(tracer, patch)

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return restore


def _install_properties(tracer, patch):
    cls = getattr(sys.modules.get("gdmskit.system"), "GdmsSystem", None)
    if cls is None:
        return
    edges_by_id = cls.__dict__.get("edges_by_id")
    if isinstance(edges_by_id, property):
        patch(cls, "edges_by_id",
              property(_wrap(tracer, "system.edges_by_id", edges_by_id.fget)))
    successor_map = cls.__dict__.get("successor_map")
    if isinstance(successor_map, property):
        build = _wrap(tracer, "system.successor_map", successor_map.fget)
        plain = successor_map.fget

        def fget(self):
            # Only builds are spans; cached reads cost a dict lookup.
            if self.infinite or getattr(self, "_succ", None) is not None:
                return plain(self)
            return build(self)
        patch(cls, "successor_map", property(fget))
