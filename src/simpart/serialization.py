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
from .errors import EmptyPartition
from .geometry import Simplex, make_simplex
from .optimizer import TraceRow
from .partition import Node, Partition, TheoremReport


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


def partition_to_json(p: Partition) -> str:
    nodes = [
        {
            "id": n.id,
            "parent": n.parent,
            "generation": n.generation,
            "vertex_ids": list(n.vertex_ids),
            "children": list(n.children),
        }
        for n in p.nodes
    ]
    return dumps({"d": p.d, "nodes": nodes, "vertices": [list(v) for v in p.vertices]})


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


def _id_list(obj: dict, key: str, where: str, limit: int) -> tuple[int, ...]:
    """Integer ids in [0, limit) from a list field."""
    values = _field(obj, key, where)
    if not isinstance(values, list):
        raise ValueError(f"{where}: {key} must be a list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < limit:
            raise ValueError(f"{where}: {key} entry {v!r} is not an id in [0, {limit})")
    return tuple(values)


def _read_node(raw, index: int, n_nodes: int, n_vertices: int) -> Node:
    where = f"node {index}"
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object, got {type(raw).__name__}")
    parent = _field(raw, "parent", where)
    if parent is not None:
        parent = _int_field(raw, "parent", where)
        if not 0 <= parent < n_nodes:
            raise ValueError(f"{where}: parent {parent} is not a node id in [0, {n_nodes})")
    return Node(
        id=_int_field(raw, "id", where),
        parent=parent,
        generation=_int_field(raw, "generation", where),
        vertex_ids=_id_list(raw, "vertex_ids", where, n_vertices),
        children=_id_list(raw, "children", where, n_nodes),
    )


def read_partition(path) -> Partition:
    """Rebuild a partition by replaying its refinement.

    Node ids are creation order (Partition.bisect appends both children
    at the end), so the nodes are walked in id order: a root goes in
    through add_root, and any other node not yet built is made by
    bisecting its parent, which must be a leaf built before it.  Every
    node of the file must then equal the replayed one in parent,
    generation, vertex_ids and children, and the vertex list must equal
    the replayed registry: the same count, and each vertex bitwise equal
    to the one the replay made.  Malformed fields and every disagreement
    raise ValueError naming the node, field or vertex.  Before a bisection
    the nodes replayed since the last build that the file lists with
    children are built in one Partition.simplices call, one per generation
    for a bisect-all-leaves file; leaves are built on first use.
    """
    doc = _read_object(path, "partition")
    d = _int_field(doc, "d", "partition")
    raw_vertices = _field(doc, "vertices", "partition")
    raw_nodes = _field(doc, "nodes", "partition")
    if not isinstance(raw_vertices, list) or not isinstance(raw_nodes, list):
        raise ValueError("partition: vertices and nodes must be lists")
    try:
        coords = [np.asarray(v, dtype=float) for v in raw_vertices]
    except (TypeError, ValueError):
        raise ValueError("partition: vertices must be lists of numbers") from None
    nodes = [_read_node(n, i, len(raw_nodes), len(coords)) for i, n in enumerate(raw_nodes)]
    if not nodes:
        raise EmptyPartition("partition file contains no nodes")
    if [n.id for n in nodes] != list(range(len(nodes))):
        raise ValueError("node ids must be 0..n-1 in order")
    p = Partition(d)
    built = 0  # the nodes below this id have been through a simplices call
    for n in nodes:
        if n.id < len(p.nodes):
            continue  # the second child of a bisection already replayed
        if n.parent is None:
            p.add_root([coords[v] for v in n.vertex_ids])
        elif n.parent < len(p.nodes) and not p.nodes[n.parent].children:
            if n.parent >= built:
                p.simplices([i for i in range(built, n.id) if nodes[i].children])
                built = n.id
            p.bisect(n.parent)
        else:
            raise ValueError(f"node {n.id}: parent {n.parent} is not a leaf built before it")
    for n, built in zip(nodes, p.nodes):
        for key in ("parent", "generation", "vertex_ids", "children"):
            got, want = getattr(n, key), getattr(built, key)
            if got != want:
                raise ValueError(f"node {n.id}: {key} is {got}, the replayed refinement gives {want}")
    if len(coords) != p.n_vertices:
        raise ValueError(f"partition: {len(coords)} vertices listed, the replayed refinement gives {p.n_vertices}")
    for vid, got in enumerate(coords):
        want = p.vertex_coords(vid)
        if not np.array_equal(got, want):
            raise ValueError(f"vertex {vid}: stored as {got.tolist()}, the replayed refinement gives {want.tolist()}")
    return p


# -------------------------------------------------------------------- CSV


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def write_fraction_csv(estimates: list[FractionEstimate], path) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["cone_id", "fraction", "stderr", "samples", "seed"])
        for e in estimates:
            w.writerow([e.cone_id, fmt_float(e.fraction), fmt_float(e.stderr), e.samples, e.seed])


def write_theorem_report_csv(report: TheoremReport, path) -> None:
    """One row per check, then a summary row.

    Columns: check kind, leaf id, vertex id, location, value, stderr,
    bound, passed.  Vertex-bound rows compare a cone fraction with the
    per-simplex bound; decomposition rows compare a fraction sum around
    a vertex with 1; the valence row compares the observed maximum with
    the theoretical N; the summary row carries eta_min against N and
    the overall verdict.
    """
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["check", "leaf_id", "vertex_id", "location", "value", "stderr", "bound", "passed"])
        for c in report.per_vertex_checks:
            w.writerow(
                [
                    "vertex-bound",
                    c.leaf_id,
                    c.vertex_id,
                    "",
                    fmt_float(c.fraction),
                    fmt_float(c.stderr),
                    fmt_float(c.strong_bound),
                    str(c.passed_strong).lower(),
                ]
            )
        for c in report.decomposition_checks:
            w.writerow(
                [
                    "decomposition",
                    "",
                    c.vertex_id,
                    "interior" if c.interior else "boundary",
                    fmt_float(c.fraction_sum),
                    fmt_float(c.combined_stderr),
                    fmt_float(1.0),
                    str(c.passed).lower(),
                ]
            )
        w.writerow(
            [
                "valence",
                "",
                "",
                "",
                report.max_observed_valence,
                "",
                fmt_float(report.theoretical_bound),
                str(report.valence_ok).lower(),
            ]
        )
        w.writerow(
            [
                "summary",
                "",
                "",
                "",
                fmt_float(report.eta_min),
                "",
                fmt_float(report.theoretical_bound),
                str(report.passed).lower(),
            ]
        )


def write_trace_csv(trace: list[TraceRow], path) -> None:
    with _open_csv(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["iteration", "node_id", "lower_bound", "incumbent", "gap", "eta_min"])
        for row in trace:
            w.writerow(
                [
                    row.iteration,
                    row.node_id,
                    fmt_float(row.lower_bound),
                    fmt_float(row.incumbent),
                    fmt_float(row.gap),
                    fmt_float(row.eta_min),
                ]
            )
