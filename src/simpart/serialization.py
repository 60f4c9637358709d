"""Deterministic JSON and CSV writers for partitions, reports, traces.

Every float is rendered with %.17g, enough digits to round-trip a
double exactly, and containers are written in a fixed field order with
plain \\n line endings, so identical inputs produce byte-identical
files on every platform.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .cones import FractionEstimate
from .errors import DimensionMismatch, EmptyPartition, SimpartError
from .geometry import Simplex, make_simplex
from .optimizer import TraceRow
from .partition import Partition, TheoremReport


def fmt_float(x: float) -> str:
    """Shortest-safe decimal form of a double (17 significant digits)."""
    return format(float(x), ".17g")


def _json_value(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return fmt_float(float(value))
    if value is None:
        return "null"
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Deterministic JSON text (insertion-ordered keys, .17g floats)."""
    return _json_value(value) + "\n"


# ---------------------------------------------------------------- simplex


def simplex_to_json(s: Simplex) -> str:
    return dumps({"id": s.id, "vertices": [list(v) for v in s.vertices]})


def write_simplex(s: Simplex, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(simplex_to_json(s))


def read_simplex(path) -> Simplex:
    doc = _read_object(path, "simplex")
    return make_simplex(_field(doc, "vertices", "simplex"), id=str(doc.get("id", "S")))


# --------------------------------------------------------------- partition


# The bisection rule is part of the format: a log replays to the partition
# it was written from only under the rule that wrote it, so a change of the
# rule must change this string, and an older log is then refused.
PARTITION_FORMAT = "simpart-refinement-log-1"


def partition_to_json(p: Partition) -> str:
    """The partition as a refinement log, JSON text.

    The document is {"format": PARTITION_FORMAT, "d", "log"}, the log in
    node creation order: a root is its d+1 vertex coordinate lists, and
    a split is the id of the leaf it bisected.  Bisection appends both
    children at the end of the node table, so each pair of children
    stands for one split, written where its first child was created.
    """
    parent, _, children, _ = p._columns()
    roots = iter(p._corners(np.flatnonzero(parent < 0)).tolist())
    first_child = children[:, 0].tolist()
    log = [
        next(roots) if up < 0 else up
        for node, up in enumerate(parent.tolist())
        if up < 0 or first_child[up] == node
    ]
    return dumps({"format": PARTITION_FORMAT, "d": p.d, "log": log})


def write_partition(p: Partition, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(partition_to_json(p))


def _read_object(path, what: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} file must hold a JSON object, got {type(doc).__name__}")
    return doc


def _field(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


def _int_field(obj: dict, key: str, where: str) -> int:
    value = _field(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def read_partition(path) -> Partition:
    """Rebuild a partition by replaying its refinement log.

    The format string must be PARTITION_FORMAT, so a file of another format
    (the node table of older versions, or a log of another bisection rule)
    is refused.  Entry 0 must be a root of d + 1 vertices before the
    partition is built.  A root goes in through add_root, which validates
    its coordinates, and its error is re-raised naming the log entry.  A
    split id must be an int (not a bool) naming a leaf already built.  Each
    maximal run of split ids of distinct leaves built before the run is
    replayed by one Partition.volumes call, so a degenerate node stops the
    replay as it stops refine, and one Partition.bisect_leaves call, which
    gives the ids and registry of one bisection after another; a
    bisect-all-leaves file replays one round per generation.  Which nodes
    are split is kept in a bytearray, so the run detection reads no numpy
    scalar.
    """
    doc = _read_object(path, "partition")
    if doc.get("format") != PARTITION_FORMAT:
        got = f"format {doc['format']!r}" if "format" in doc else "no format field"
        raise ValueError(f"partition: expected format {PARTITION_FORMAT!r}, got {got}")
    d = _int_field(doc, "d", "partition")
    log = _field(doc, "log", "partition")
    if not isinstance(log, list):
        raise ValueError(f"partition: log must be a list, got {type(log).__name__}")
    if not log:
        raise EmptyPartition("partition file contains no nodes")
    if not isinstance(log[0], list):  # no node is built before entry 0, so it is a root
        raise ValueError(_bad_entry(log[0], 0, 0))
    if d != len(log[0]) - 1:
        raise DimensionMismatch(f"partition: d is {d}, but log entry 0 is a root of {len(log[0])} vertices")

    p = Partition(d)
    n = len(log)
    split = bytearray(2 * n)  # 1 at the nodes split so far; each entry adds at most two nodes
    k = 0  # the entries below k have been replayed
    while k < n:
        if isinstance(log[k], list):
            try:
                p.add_root(log[k])
            except SimpartError as exc:
                raise type(exc)(f"partition: log entry {k}: {exc}") from exc
            k += 1
            continue
        built = p._n_nodes
        run: dict[int, None] = {}  # the split ids of entries k, ..., end - 1, in order
        end = k
        while end < n:
            entry = log[end]
            if type(entry) is not int or not 0 <= entry < built or entry in run or split[entry]:
                break
            run[entry] = None
            end += 1
        if not run:
            raise ValueError(_bad_entry(log[k], k, built))
        p.volumes(list(run))
        p.bisect_leaves(run)
        for node in run:
            split[node] = 1
        k = end
    return p


def _bad_entry(entry, k: int, built: int) -> str:
    """What is wrong with log entry k, which starts no run with built nodes."""
    if type(entry) is not int:
        return f"partition: log entry {k} is {entry!r}, neither a root (a list of vertices) nor a split id"
    if not 0 <= entry < built:
        return f"partition: log entry {k} splits node {entry}, which is not built before it ({built} are)"
    return f"partition: log entry {k} splits node {entry} a second time"


# -------------------------------------------------------------------- CSV


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def write_fraction_csv(estimates: list[FractionEstimate], path) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["cone_id", "fraction", "stderr", "samples", "seed"])
        for e in estimates:
            w.writerow([e.cone_id, fmt_float(e.fraction), fmt_float(e.stderr), e.samples, e.seed])


_BOOL = {True: "true", False: "false"}
_LOCATION = {True: "interior", False: "boundary"}


def write_theorem_report_csv(report: TheoremReport, path) -> None:
    """One row per check, then a summary row.

    Columns: check kind, leaf id, vertex id, location, value, stderr,
    bound, passed.  Vertex-bound rows compare a cone fraction with the
    per-simplex bound; decomposition rows compare a fraction sum around
    a vertex with 1; the valence row compares the observed maximum with
    the theoretical N; the summary row carries eta_min against N and
    the overall verdict.

    Each row is one %-template of its kind, %d for the ids and %.17g
    (fmt_float's form) for the floats; no field needs CSV quoting.
    """
    with _open_csv(path) as fh:
        fh.write("check,leaf_id,vertex_id,location,value,stderr,bound,passed\n")
        fh.writelines(
            [
                "vertex-bound,%d,%d,,%.17g,%.17g,%.17g,%s\n"
                % (c.leaf_id, c.vertex_id, c.fraction, c.stderr, c.strong_bound, _BOOL[c.passed_strong])
                for c in report.per_vertex_checks
            ]
        )
        fh.writelines(
            [
                "decomposition,,%d,%s,%.17g,%.17g,1,%s\n"
                % (c.vertex_id, _LOCATION[c.interior], c.fraction_sum, c.combined_stderr, _BOOL[c.passed])
                for c in report.decomposition_checks
            ]
        )
        fh.write(
            "valence,,,,%d,,%.17g,%s\n"
            % (report.max_observed_valence, report.theoretical_bound, _BOOL[report.valence_ok])
        )
        fh.write("summary,,,,%.17g,,%.17g,%s\n" % (report.eta_min, report.theoretical_bound, _BOOL[report.passed]))


def write_trace_csv(trace: list[TraceRow], path) -> None:
    """One line per row, the bytes one %-template gives: %d for the ids, %.17g (fmt_float's form) for the floats.

    Consecutive rows often share their float tail (lower_bound,
    incumbent, gap, eta_min), so the tail is formatted once per run of
    equal tails; only the previous one is remembered.  A tail holding a
    zero is always formatted again, since -0.0 == 0.0 but prints as -0.
    """
    with _open_csv(path) as fh:
        fh.write("iteration,node_id,lower_bound,incumbent,gap,eta_min\n")
        fh.writelines(_trace_lines(trace))


def _trace_lines(trace: list[TraceRow]):
    last = text = None
    for row in trace:
        tail = row[2:]
        if tail != last or 0.0 in tail:
            last, text = tail, "%.17g,%.17g,%.17g,%.17g\n" % tail
        yield "%d,%d," % row[:2] + text
