"""Span recording from outside the package, and the per-layer metrics.

The tracer replaces a public function at the place its caller looks it up
(a module global such as ``simpart.partition.solid_angle_fraction``, or a
method on a class) with a wrapper that records one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory and
are written out once, after the traced operation.  Nothing in the package
source changes, and the wrapping only ever happens inside a benchmark
worker process.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

# (module, attribute path, span name, count rows).  With count rows set, a
# call adds the length of its last positional argument to the name's count.
# One span name may be bound in several places; each binding is wrapped.
TARGETS = [
    ("simpart.cli", "main", "cli", False),
    ("simpart.cli", "verify_theorem", "partition.verify", False),
    ("simpart.cli", "refine", "partition.refine", False),
    ("simpart.cli", "max_valence", "partition.valence", False),
    ("simpart.cli", "min_regularity", "partition.min_regularity", False),
    ("simpart.cli", "read_partition", "serialization.read_partition", False),
    ("simpart.cli", "write_partition", "serialization.write_partition", False),
    ("simpart.cli", "write_theorem_report_csv", "serialization.write_report", False),
    ("simpart", "optimize", "optimizer", False),
    ("simpart", "read_partition", "serialization.read_partition", False),
    ("simpart", "write_trace_csv", "serialization.write_trace", False),
    ("simpart.partition", "solid_angle_fraction", "cones.measure", False),
    ("simpart.partition", "cone_at_point", "cones.cone_at_point", False),
    ("simpart.partition", "registry_valences", "partition.valence", False),
    ("simpart.partition", "boundary_vertex_mask", "partition.boundary_mask", False),
    ("simpart.partition", "min_regularity", "partition.min_regularity", False),
    ("simpart.partition", "make_simplex", "geometry.make_simplex", False),
    ("simpart.partition", "regularity_ratio", "geometry.regularity_ratio", False),
    ("simpart.partition", "barycentric_many", "geometry.barycentric_many", False),
    ("simpart.optimizer", "regularity_ratio", "geometry.regularity_ratio", False),
    ("simpart.partition", "Partition.simplex", "partition.simplex", False),
    ("simpart.partition", "Partition.bisect", "partition.bisect", False),
    ("simpart.cones", "VertexCone.contains_directions", "cones.membership", True),
]

ROOT = "bench.op"
OBJECTIVE = "optimizer.objective"

# Span name -> the metric reporting its self time.  Every span name the
# tracer can record is here, so the self times sum to the root span.
SELF_METRICS = {
    ROOT: "bench.self_s",
    "cli": "cli.self_s",
    "partition.verify": "partition.verify_self_s",
    "partition.refine": "partition.refine_s",
    "partition.valence": "partition.valence_s",
    "partition.min_regularity": "partition.min_regularity_s",
    "partition.boundary_mask": "partition.boundary_mask_s",
    "partition.simplex": "partition.simplex_s",
    "partition.bisect": "partition.bisect_s",
    "serialization.read_partition": "serialization.read_partition_s",
    "serialization.write_partition": "serialization.write_partition_s",
    "serialization.write_report": "serialization.write_report_s",
    "serialization.write_trace": "serialization.write_trace_s",
    "optimizer": "optimizer.self_s",
    OBJECTIVE: "optimizer.objective_s",
    "cones.measure": "cones.draw_s",
    "cones.membership": "cones.membership_s",
    "cones.cone_at_point": "cones.cone_at_point_s",
    "geometry.make_simplex": "geometry.make_simplex_s",
    "geometry.regularity_ratio": "geometry.regularity_ratio_s",
    "geometry.barycentric_many": "geometry.barycentric_many_s",
}

# Metrics that are not a self time, with the span names they are read from.
DERIVED_SOURCES = {
    "cones.cones_measured": ("cones.measure",),
    "cones.measure_s": ("cones.measure",),
    "cones.cone_ms_p50": ("cones.measure",),
    "cones.cone_ms_p99": ("cones.measure",),
    "cones.directions_drawn": ("cones.membership",),
    "cones.ns_per_direction": ("cones.measure", "cones.membership"),
    "partition.bisections": ("partition.bisect",),
    "partition.simplex_calls": ("partition.simplex",),
    "geometry.make_simplex_calls": ("geometry.make_simplex",),
    "geometry.barycentric_many_calls": ("geometry.barycentric_many",),
    "optimizer.us_per_iteration": ("optimizer",),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder for one single-threaded worker."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, name: str, fn, count_rows: bool = False):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_rows:
                counts[name] += len(args[-1])
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; note the span names that do not.

        A span name counts as absent only when none of its bindings exist,
        so a later change that removes one call site still reports the rest.
        """
        found: set[str] = set()
        missing: set[str] = set()
        for module_name, path, name, count_rows in targets:
            try:
                owner, attr = _resolve(module_name, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.add(name)
                continue
            setattr(owner, attr, self.wrap(name, fn, count_rows))
            self._originals.append((owner, attr, fn))
            found.add(name)
        self.absent = missing - found

    def uninstall(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping children are not subtracted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans, counts, absent=frozenset(), iterations: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Every ``*_s`` metric is a self time, except ``cones.measure_s``, which is
    the inclusive time in ``solid_angle_fraction`` (its self time, the draws,
    is ``cones.draw_s``).  Metrics whose spans were absent are left out.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    top_level: dict[str, float] = defaultdict(float)
    cone_ms = []
    names = [s[0] for s in spans]
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] += selfs[i]
        calls[name] += 1
        if parent < 0 or names[parent] != name:
            top_level[name] += end - start  # inclusive, nested repeats once
        if name == "cones.measure":
            cone_ms.append((end - start) * 1e3)
    unknown = set(names) - set(SELF_METRICS)
    if unknown:
        raise ValueError(f"spans without a self-time metric: {sorted(unknown)}")

    out = {metric: self_s[name] for name, metric in SELF_METRICS.items()}
    directions = counts.get("cones.membership", 0)
    out.update(
        {
            "cones.cones_measured": calls["cones.measure"],
            "cones.measure_s": top_level["cones.measure"],
            "cones.cone_ms_p50": _percentile(cone_ms, 50),
            "cones.cone_ms_p99": _percentile(cone_ms, 99),
            "cones.directions_drawn": directions,
            "cones.ns_per_direction": top_level["cones.measure"] / directions * 1e9 if directions else 0.0,
            "partition.bisections": calls["partition.bisect"],
            "partition.simplex_calls": calls["partition.simplex"],
            "geometry.make_simplex_calls": calls["geometry.make_simplex"],
            "geometry.barycentric_many_calls": calls["geometry.barycentric_many"],
            "optimizer.us_per_iteration": top_level["optimizer"] / iterations * 1e6 if iterations else 0.0,
            "trace.wall_s": top_level[ROOT],
        }
    )
    gone = {m for n, m in SELF_METRICS.items() if n in absent}
    gone |= {m for m, sources in DERIVED_SOURCES.items() if any(n in absent for n in sources)}
    return {k: v for k, v in out.items() if k not in gone}
