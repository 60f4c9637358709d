"""Deterministic JSON and CSV writers for partitions, reports, traces.

Every float is rendered with %.17g, enough digits to round-trip a
double exactly, and containers are written in a fixed field order with
plain \\n line endings, so identical inputs produce byte-identical
files on every platform.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from .cones import FractionEstimate
from .errors import EmptyPartition
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


def partition_to_json(p: Partition) -> str:
    """The partition as JSON text, written from its node table and registry.

    The bytes are those of dumps on the document {"d", "nodes",
    "vertices"}, with each node {"id", "parent", "generation",
    "vertex_ids", "children"}.  Each node is one %-template of its kind
    (root or not, leaf or not) over its row of the zipped id columns, the
    kind's unused fields taken by %.0s, which prints nothing; each vertex
    is one "[%.17g, ...]" template.  All are joined once.
    """
    parent, generation, children, vertex_ids = p._columns()
    ids = ", ".join(["%d"] * (p.d + 1))
    templates = [
        '{"id": %d, "parent": ' + up + ', "generation": %d, "vertex_ids": [' + ids + '], "children": [' + kids + "]}"
        for up in ("%d", "null%.0s")
        for kids in ("%d, %d", "%.0s%.0s")
    ]
    kind = 2 * (parent < 0) + (children[:, 0] < 0)  # index into templates
    rows = zip(range(parent.size), parent.tolist(), generation.tolist(), *vertex_ids.T.tolist(), *children.T.tolist())
    nodes = list(map(str.__mod__, map(templates.__getitem__, kind.tolist()), rows))
    vertex = "[" + ", ".join(["%.17g"] * p.d) + "]"
    vertices = list(map(vertex.__mod__, map(tuple, p.vertices.tolist())))
    return f'{{"d": {p.d}, "nodes": [{", ".join(nodes)}], "vertices": [{", ".join(vertices)}]}}\n'


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


def _check_id_list(obj: dict, key: str, where: str, limit: int) -> None:
    """Raise ValueError unless the field is a list of integer ids in [0, limit)."""
    values = _field(obj, key, where)
    if not isinstance(values, list):
        raise ValueError(f"{where}: {key} must be a list, got {values!r}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < limit:
            raise ValueError(f"{where}: {key} entry {v!r} is not an id in [0, {limit})")


def _vertex_coords(raw_vertices: list):
    """The file's vertices as one float array, or as one array per vertex when the list is ragged."""
    try:
        return np.array(raw_vertices, dtype=float)
    except (TypeError, ValueError):
        pass
    try:
        return [np.asarray(v, dtype=float) for v in raw_vertices]
    except (TypeError, ValueError):
        raise ValueError("partition: vertices must be lists of numbers") from None


_NODE_FIELDS = ("parent", "id", "generation", "vertex_ids", "children")


def _plain_ints(values, limit: int | None = None) -> bool:
    """Whether every value is an int and not a bool, in [0, limit) when a limit is given."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        return False
    return limit is None or not values or (min(values) >= 0 and max(values) < limit)


def _id_lists(values, limit: int) -> bool:
    return set(map(type, values)) <= {list} and _plain_ints(itertools.chain.from_iterable(values), limit)


def _check_node(raw, index: int, n_nodes: int, n_vertices: int) -> None:
    """Raise ValueError naming the node's first malformed field, if it has one."""
    where = f"node {index}"
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected an object, got {type(raw).__name__}")
    parent = _field(raw, "parent", where)
    if parent is not None:
        parent = _int_field(raw, "parent", where)
        if not 0 <= parent < n_nodes:
            raise ValueError(f"{where}: parent {parent} is not a node id in [0, {n_nodes})")
    _int_field(raw, "id", where)
    _int_field(raw, "generation", where)
    _check_id_list(raw, "vertex_ids", where, n_vertices)
    _check_id_list(raw, "children", where, n_nodes)


def _node_columns(raw_nodes: list, n_vertices: int) -> tuple[list, ...]:
    """The nodes' parent, id, generation, vertex_ids and children columns.

    Each column is checked whole, for types and id ranges.  A column that
    fails sends every node through _check_node in order, so the error
    names the first malformed node and field.
    """
    n_nodes = len(raw_nodes)
    try:
        columns = tuple([raw[key] for raw in raw_nodes] for key in _NODE_FIELDS)
    except (TypeError, KeyError):
        columns = None
    if columns is not None:
        parent, ids, generation, vertex_ids, children = columns
        if (
            _plain_ints([up for up in parent if up is not None], n_nodes)
            and _plain_ints(ids)
            and _plain_ints(generation)
            and _id_lists(vertex_ids, n_vertices)
            and _id_lists(children, n_nodes)
        ):
            return columns
    for index, raw in enumerate(raw_nodes):
        _check_node(raw, index, n_nodes, n_vertices)
    return tuple([raw[key] for raw in raw_nodes] for key in _NODE_FIELDS)


def _table_equals(columns, table) -> bool:
    """Whether the file's node columns equal the first rows of the replayed table."""
    try:
        return all(
            np.array_equal(np.array(got, dtype=np.intp), want[: len(got)]) for got, want in zip(columns, table)
        )
    except (ValueError, OverflowError):  # a ragged id list or an int beyond intp
        return False


def read_partition(path) -> Partition:
    """Rebuild a partition by replaying its refinement.

    The node fields are checked first, column by column (_node_columns);
    a malformed one raises ValueError naming the node and field.  Node
    ids are creation order (bisection appends both children at the end),
    so the replay walks the ids: a root goes in through add_root, and any
    other node not yet built is made by bisecting its parent, which must
    be a leaf built before it.  Each maximal run of such nodes whose parents are
    distinct leaves built before the run is replayed by one
    Partition.bisect_leaves call, which gives the ids and registry of one
    bisection after another; a bisect-all-leaves file replays one round
    per generation.  The file's parent, generation, vertex_ids and
    children columns must then equal the replayed table, compared as
    arrays; a per-node scan names the first node and field that differ.
    The vertex list must equal the replayed registry: the same count, and
    each vertex bitwise equal to the one the replay made.
    """
    doc = _read_object(path, "partition")
    d = _int_field(doc, "d", "partition")
    raw_vertices = _field(doc, "vertices", "partition")
    raw_nodes = _field(doc, "nodes", "partition")
    if not isinstance(raw_vertices, list) or not isinstance(raw_nodes, list):
        raise ValueError("partition: vertices and nodes must be lists")
    coords = _vertex_coords(raw_vertices)
    n_nodes, n_vertices = len(raw_nodes), len(coords)
    parent, ids, generation, vertex_ids, children = _node_columns(raw_nodes, n_vertices)
    if not raw_nodes:
        raise EmptyPartition("partition file contains no nodes")
    if ids != list(range(n_nodes)):
        raise ValueError("node ids must be 0..n-1 in order")

    p = Partition(d)
    built = 0  # the nodes below this id have been replayed
    split = bytearray(n_nodes)  # 1 at the parents bisected by earlier runs, read without numpy
    while built < n_nodes:
        if parent[built] is None:
            p.add_root([coords[v] for v in vertex_ids[built]])
            built += 1
            continue
        run: dict[int, None] = {}  # the parents of nodes built, built + 2, ..., in order
        while built + 2 * len(run) < n_nodes:
            up = parent[built + 2 * len(run)]
            if up is None or up >= built or up in run or split[up]:
                break
            run[up] = None
        if not run:
            raise ValueError(f"node {built}: parent {parent[built]} is not a leaf built before it")
        p.volumes(list(run))  # a degenerate node stops the replay, as it stops refine
        p.bisect_leaves(run)
        for up in run:
            split[up] = 1
        built += 2 * len(run)

    columns = (
        [-1 if up is None else up for up in parent],
        generation,
        [kids or (-1, -1) for kids in children],
        vertex_ids,
    )
    if not _table_equals(columns, p._columns()):
        replayed = p.nodes
        for i, got_node in enumerate(zip(parent, generation, vertex_ids, children)):
            want_node = replayed[i]
            for key, got in zip(("parent", "generation", "vertex_ids", "children"), got_node):
                got = tuple(got) if isinstance(got, list) else got
                want = getattr(want_node, key)
                if got != want:
                    raise ValueError(f"node {i}: {key} is {got}, the replayed refinement gives {want}")
    if n_vertices != p.n_vertices:
        raise ValueError(f"partition: {n_vertices} vertices listed, the replayed refinement gives {p.n_vertices}")
    registry = p.vertices
    if not (isinstance(coords, np.ndarray) and np.array_equal(coords, registry)):
        for vid, want in enumerate(registry):
            got = np.asarray(coords[vid])
            if not np.array_equal(got, want):
                raise ValueError(
                    f"vertex {vid}: stored as {got.tolist()}, the replayed refinement gives {want.tolist()}"
                )
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
