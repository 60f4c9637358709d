"""End-to-end checks for the command line and the file formats it writes."""

import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simpart
import simpart.cli
import simpart.cones as cones_mod
from simpart import (
    EmptyPartition,
    MonteCarloConfig,
    Partition,
    build_objective,
    canonical_simplex,
    cone_at_point,
    kuhn_triangulation,
    make_simplex,
    optimize,
    partition_from_simplices,
    read_partition,
    read_simplex,
    refine,
    solid_angle_fraction,
    verify_theorem,
    write_partition,
    write_simplex,
)
from simpart.cli import main
from simpart.optimizer import TraceRow
from simpart.serialization import (
    dumps,
    fmt_float,
    partition_to_json,
    write_fraction_csv,
    write_theorem_report_csv,
    write_trace_csv,
)

from .oracles import theorem_report_csv_by_rows


# ---------------------------------------------------------------- formats


def test_dumps_renders_doubles_exactly():
    text = dumps({"a": 0.25, "b": 1 / 3, "flag": True, "none": None})
    assert text == '{"a": 0.25, "b": 0.33333333333333331, "flag": true, "none": null}\n'
    # every double must survive a parse round trip
    assert json.loads(text)["b"] == 1 / 3


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"bad": float("nan")})
    with pytest.raises(ValueError):
        dumps([float("inf")])


def test_fmt_float_is_17g():
    assert fmt_float(0.1) == "0.10000000000000001"
    assert fmt_float(2.0) == "2"


def test_simplex_round_trip(tmp_path):
    s = make_simplex([[0.1, 0.2], [1.3, 0.7], [0.4, 2.9]], id="tri")
    path = tmp_path / "s.json"
    write_simplex(s, path)
    back = read_simplex(path)
    assert back.id == "tri"
    assert np.array_equal(back.vertices, s.vertices)


def _root_added_then_refined():
    p = refine(kuhn_triangulation(2), 2)
    p.add_root([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    return refine(p, 1)


def _optimizer_refined():
    p = kuhn_triangulation(2)
    optimize(build_objective("shifted-sphere", 2), p, budget=400, tol=1e-3)
    return p


def _negative_zero_root_refined():
    # -0.0 prints as -0, which JSON reads back as the int 0, so a -0.0 that
    # reached the registry would come back as 0.0
    return refine(partition_from_simplices([make_simplex([[-0.0, -0.0], [1.0, -0.0], [-0.0, 1.0]])]), 3)


def test_partition_round_trip_is_equal_and_byte_stable(tmp_path):
    # largest-leaf refinement bisects parents out of id order, the optimizer
    # refines by its own priority, a root can come after bisected nodes, and
    # a root can hold -0.0
    partitions = [
        refine(kuhn_triangulation(3), 2),
        refine(kuhn_triangulation(2), 40, "bisect-largest-leaf"),
        refine(kuhn_triangulation(3), 54, "bisect-largest-leaf"),
        _optimizer_refined(),
        _root_added_then_refined(),
        _negative_zero_root_refined(),
    ]
    for k, p in enumerate(partitions):
        first = tmp_path / f"p{k}.json"
        second = tmp_path / f"p{k}-again.json"
        write_partition(p, first)
        q = read_partition(first)
        assert isinstance(q, Partition)
        assert q == p
        write_partition(q, second)
        assert first.read_bytes() == second.read_bytes()


EMPTY_LOG = '{"format": "simpart-refinement-log-1", "d": 2, "log": []}\n'


def test_partition_file_is_the_roots_and_split_ids_in_creation_order():
    # roots 0, 1; splits of 0 and 1 (nodes 2..5); root 6; split of 2
    p = refine(kuhn_triangulation(2), 1)
    p.add_root([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    p.bisect(p.leaves[0])
    assert partition_to_json(p) == (
        '{"format": "simpart-refinement-log-1", "d": 2, "log": '
        "[[[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]], 0, 1, [[1, 0], [2, 0], [1, 1]], 2]}\n"
    )


def test_read_partition_rejects_empty_node_list(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(EMPTY_LOG)
    with pytest.raises(EmptyPartition):
        read_partition(path)


def test_read_partition_rejects_bad_node_ids(tmp_path):
    # the log of kuhn(2)@1 is two roots and the split ids 0 and 1
    doc = json.loads(partition_to_json(refine(kuhn_triangulation(2), 1)))
    path = tmp_path / "bad.json"
    for bad, message in [(7, "not built"), (-1, "not built"), (0, "second time"), (1.0, "split id")]:
        doc["log"][3] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            read_partition(path)


def test_fraction_csv_layout(tmp_path):
    s = canonical_simplex("unit-corner", 2)
    est = solid_angle_fraction(cone_at_point(s, [0.0, 0.0]), MonteCarloConfig(4000, 11, 2))
    path = tmp_path / "f.csv"
    write_fraction_csv([est], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cone_id,fraction,stderr,samples,seed"
    fields = lines[1].split(",")
    assert fields[0] == est.cone_id
    assert float(fields[1]) == est.fraction
    assert fields[3:] == ["4000", "11"]


# -------------------------------------------------------------------- CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_refine_kuhn_writes_loadable_partition(tmp_path, capsys):
    out_path = tmp_path / "p.json"
    code, out, _ = run_cli(capsys, "refine", "--dim", "2", "--steps", "2", "-o", str(out_path))
    assert code == 0
    assert "leaves=8" in out
    assert "eta_min=" in out and "max_valence=" in out
    p = read_partition(out_path)
    assert len(p.leaves) == 8


def test_refine_from_simplex_file(tmp_path, capsys):
    root = tmp_path / "root.json"
    write_simplex(make_simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], id="R"), root)
    out_path = tmp_path / "p.json"
    code, out, _ = run_cli(
        capsys, "refine", "--root", str(root), "--steps", "1", "-o", str(out_path)
    )
    assert code == 0
    assert "leaves=2" in out


def test_refine_rejects_a_dim_that_disagrees_with_the_simplex_file(tmp_path, capsys):
    root = tmp_path / "tri.json"
    write_simplex(make_simplex([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], id="R"), root)
    out_path = tmp_path / "p.json"
    code, out, err = run_cli(capsys, "refine", "--root", str(root), "--dim", "3", "-o", str(out_path))
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("simpart: error: ") and len(err.splitlines()) == 1
    assert "--dim 3" in err and "d = 2" in err
    # a --dim that agrees is accepted
    code, out, _ = run_cli(capsys, "refine", "--root", str(root), "--dim", "2", "--steps", "1", "-o", str(out_path))
    assert code == 0 and "leaves=2" in out


def test_refine_writes_no_file_when_a_leaf_is_degenerate(tmp_path, capsys):
    # the root of test_degenerate_sibling_raises_only_when_requested: its
    # bisection leaves a child below the degeneracy threshold
    root = tmp_path / "thin.json"
    root.write_text('{"id": "thin", "vertices": [[0, 0], [3e-12, 0], [1.5e-12, 1]]}\n')
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "refine", "--root", str(root), "--steps", "1", "-o", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("simpart: error: ") and "degenerate" in err
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


def test_refine_kuhn_requires_dim(tmp_path, capsys):
    code, _, err = run_cli(capsys, "refine", "-o", str(tmp_path / "p.json"))
    assert code == 2
    assert "--dim" in err


def test_refine_rejects_dimension_one(tmp_path, capsys):
    """The supported range starts at two and the message must say so."""
    code, _, err = run_cli(capsys, "refine", "--dim", "1", "-o", str(tmp_path / "p.json"))
    assert code == 2
    assert ">= 2" in err


def test_verify_passes_and_writes_report(tmp_path, capsys):
    p_path = tmp_path / "p.json"
    report_path = tmp_path / "report.csv"
    p = kuhn_triangulation(2)
    refine(p, 2)
    write_partition(p, p_path)
    code, out, _ = run_cli(
        capsys,
        "verify", str(p_path),
        "--samples", "20000", "--seed", "42",
        "--report", str(report_path),
    )
    assert code == 0
    assert out.strip().endswith("method=exact PASS")
    lines = report_path.read_text().splitlines()
    assert lines[0].startswith("check,leaf_id,vertex_id")
    assert lines[-1].startswith("summary,")
    assert lines[-1].endswith(",true")
    assert lines[-2].startswith("valence,")
    kinds = {line.split(",")[0] for line in lines[1:]}
    assert kinds == {"vertex-bound", "decomposition", "valence", "summary"}


def test_verify_report_reruns_are_byte_identical(tmp_path, capsys):
    p_path = tmp_path / "p.json"
    p = kuhn_triangulation(2)
    refine(p, 1)
    write_partition(p, p_path)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for report in paths:
        code, _, _ = run_cli(
            capsys,
            "verify", str(p_path),
            "--samples", "10000", "--seed", "7",
            "--report", str(report),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_ignores_the_sampling_flags(tmp_path, capsys):
    # every cone is measured exactly, so --samples and --seed, still
    # accepted, change neither the report nor the summary line
    p_path = tmp_path / "p.json"
    write_partition(refine(kuhn_triangulation(4), 1), p_path)
    outputs = []
    for k, flags in enumerate([[], ["--samples", "17"], ["--seed", "5"], ["--samples", "2000", "--seed", "9"]]):
        report = tmp_path / f"{k}.csv"
        code, out, _ = run_cli(capsys, "verify", str(p_path), *flags, "--report", str(report))
        assert code == 0 and out.strip().endswith("audited=240/240 method=exact PASS")
        outputs.append((out, report.read_bytes()))
    assert all(o == outputs[0] for o in outputs)


def test_verify_refuses_an_unchecked_quadrature(tmp_path, capsys, monkeypatch):
    # a quadrature that fails its own check is an error on one line
    # (exit 2), never a failed theorem check (exit 1)
    monkeypatch.setattr(cones_mod, "QUADRATURE_TOL", 0.0)
    p_path = tmp_path / "p.json"
    write_partition(kuhn_triangulation(4), p_path)
    code, out, err = run_cli(capsys, "verify", str(p_path))
    assert code == 2 and out == ""
    assert err.startswith("simpart: error: solid angle of cone 0:v") and "quadrature rules disagree" in err
    assert len(err.splitlines()) == 1


def test_verify_fails_on_overlapping_cells(tmp_path, capsys):
    # 21 coincident copies of one triangle: a legal file, but the valence
    # at each corner (21) exceeds the d=2 bound of ~19.72 for eta ~ 0.433,
    # so the audit must report failure through the exit code.
    tri = canonical_simplex("regular", 2).vertices
    stack = [make_simplex(tri, id=str(k)) for k in range(21)]
    p_path = tmp_path / "stack.json"
    write_partition(partition_from_simplices(stack), p_path)
    code, out, _ = run_cli(
        capsys, "verify", str(p_path), "--samples", "2000"
    )
    assert code == 1
    assert out.strip().endswith("FAIL")


def test_verify_empty_partition_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(EMPTY_LOG)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "no nodes" in err


def test_verify_missing_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 3
    assert "i/o" in err


def _json_array_document(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[]\n")
    return path


def _old_node_table_document(tmp_path):
    # kuhn(2)'s first root in the node-table format of earlier versions
    path = tmp_path / "nodes.json"
    path.write_text(
        '{"d": 2, "nodes": [{"id": 0, "parent": null, "generation": 0, "vertex_ids": [0, 1, 2], '
        '"children": []}], "vertices": [[0, 0], [1, 0], [1, 1]]}\n'
    )
    return path


def _edited_kuhn2(tmp_path, edit):
    # the log of kuhn(2)@2: roots 0 and 1, then the split ids 0, 1 and 2..5
    doc = json.loads(partition_to_json(refine(kuhn_triangulation(2), 2)))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def _missing_format(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc.pop("format"))


def _unknown_format(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc.__setitem__("format", "simpart-refinement-log-0"))


def _non_integer_d(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc.__setitem__("d", 2.0))


def _log_not_a_list(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc.__setitem__("log", {"0": 0}))


def _root_of_wrong_shape(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"][1].pop())


def _non_numeric_root(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"][1][2].__setitem__(0, "x"))


def _string_coordinate(tmp_path):
    # numpy reads the string "1" as 1.0; a coordinate must be a JSON number
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"][1][2].__setitem__(0, "1"))


def _bool_coordinate(tmp_path):
    # numpy reads true as 1, which would make this the root [0, 1] it replaces
    def edit(doc):
        assert doc["log"][1][1] == [0, 1]
        doc["log"][1][1] = [0, True]

    return _edited_kuhn2(tmp_path, edit)


def _huge_d(tmp_path):
    # no root has 10^20 + 1 vertices, so d is refused before a partition of that dimension is built
    return _edited_kuhn2(tmp_path, lambda doc: doc.__setitem__("d", 10**20))


def _degenerate_root(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].__setitem__(1, [[0, 0], [1, 1], [0.5, 0.5]]))


def _huge_root_vertex(tmp_path):
    # the edges from [1e300, 0] are finite, but their length squared is not
    def edit(doc):
        assert doc["log"][0][0] == [0, 0]
        doc["log"][0][0] = [1e300, 0]

    return _edited_kuhn2(tmp_path, edit)


def _huge_extra_vertex(tmp_path):
    # an extra root after the splits, one vertex beyond the float range
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].append([[10**400, 0], [1, 0], [1, 1]]))


def _non_integer_parent(tmp_path):
    # a split id names the parent of the next two nodes; True is no id
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].__setitem__(2, True))


def _non_integer_node_id(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].__setitem__(4, "three"))


def _out_of_range_parent(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].__setitem__(4, -1))


def _child_listed_before_its_parent(tmp_path):
    # node 6 is the first child of entry 4's split
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].__setitem__(2, 6))


def _children_cycle(tmp_path):
    # entry 2's split creates nodes 2 and 3, so it cannot split node 2
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].__setitem__(2, 2))


def _split_twice(tmp_path):
    return _edited_kuhn2(tmp_path, lambda doc: doc["log"].append(3))


# input writer -> a word the one-line message must contain
MALFORMED = {
    _json_array_document: "JSON object",
    _old_node_table_document: "expected format 'simpart-refinement-log-1', got no format field",
    _missing_format: "no format field",
    _unknown_format: "simpart-refinement-log-0",
    _non_integer_d: "d must be an integer",
    _log_not_a_list: "log must be a list",
    _huge_d: "d is 100000000000000000000, but log entry 0 is a root of 3 vertices",
    _root_of_wrong_shape: "log entry 1: need d+1 vertices",
    _non_numeric_root: "log entry 1: each vertex must be a list of numbers",
    _string_coordinate: "log entry 1: each vertex must be a list of numbers",
    _bool_coordinate: "log entry 1: each vertex must be a list of numbers",
    _degenerate_root: "log entry 1: volume 0.000e+00 is degenerate",
    _huge_root_vertex: "log entry 0: vertex coordinates too large",
    _huge_extra_vertex: "log entry 8: vertex coordinates too large",
    _non_integer_parent: "True, neither a root",
    _non_integer_node_id: "'three', neither a root",
    _out_of_range_parent: "node -1, which is not built",
    _child_listed_before_its_parent: "node 6, which is not built",
    _children_cycle: "node 2, which is not built",
    _split_twice: "node 3 a second time",
}


@pytest.mark.parametrize("make_input", list(MALFORMED))
def test_verify_malformed_input_is_internal_error_not_theorem_failure(tmp_path, capsys, make_input):
    # exit 1 is reserved for "a theorem check failed" and 4 for bugs; the
    # reader validates the file and rejects malformed input as a usage
    # error (2), on one line naming the fault and without a traceback
    code, out, err = run_cli(capsys, "verify", str(make_input(tmp_path)), "--samples", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("simpart: error: ") and MALFORMED[make_input] in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# Mutations of two valid logs: kuhn(2)@3, and largest-leaf kuhn(2)@9,
# which has hanging vertices and splits parents out of id order.
MUTATION_BASES = [
    json.loads(partition_to_json(refine(kuhn_triangulation(2), 3))),
    json.loads(partition_to_json(refine(kuhn_triangulation(2), 9, "bisect-largest-leaf"))),
]
ODD_VALUES = st.one_of(
    st.integers(-2, 40), st.none(), st.text(max_size=3), st.lists(st.integers(-1, 40), max_size=4), st.booleans()
)
MUTATIONS = ["drop-entry", "swap-entries", "duplicate-split", "replace-entry", "perturb-root", "replace-document-field"]


def _is_root(entry) -> bool:
    """Whether a log entry is a nonempty list of lists of numbers."""
    return (
        isinstance(entry, list)
        and len(entry) > 0
        and all(isinstance(v, list) and all(type(x) in (int, float) for x in v) for v in entry)
    )


@st.composite
def mutated_partition_documents(draw):
    """A valid log after one to three mutations; replacing format, d or
    log is always the last.

    A root is moved only toward its own centroid, or far out of range: a
    root moved outward or listed twice overlaps another cell, a legal
    file whose audit fails (exit 1), as test_verify_fails_on_overlapping_cells
    shows.  A duplicated split id is a second split of its node.
    """
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_BASES)))
    log = doc["log"]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if kind == "replace-document-field":
            doc[draw(st.sampled_from(["format", "d", "log"]))] = draw(ODD_VALUES)
            break
        if not log:
            continue
        i, j = draw(st.integers(0, len(log) - 1)), draw(st.integers(0, len(log)))
        if kind == "drop-entry":
            del log[i]
        elif kind == "swap-entries":
            j = min(j, len(log) - 1)
            log[i], log[j] = log[j], log[i]
        elif kind == "duplicate-split" and isinstance(log[i], int):
            log.insert(j, log[i])
        elif kind == "replace-entry":
            log[i] = draw(ODD_VALUES)
        elif kind == "perturb-root" and _is_root(log[i]):
            root = log[i]
            v = draw(st.integers(0, len(root) - 1))
            t = draw(st.sampled_from([1e-12, 1e-6, 1e-3, 0.5, 1.0, None]))  # None: out of range
            if t is None:
                root[v][0] = 1e300
            else:
                centroid = [sum(xs) / len(root) for xs in zip(*root)]
                root[v] = [x + t * (c - x) for x, c in zip(root[v], centroid)]
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=mutated_partition_documents())
def test_verify_mutated_partition_exits_zero_or_two(tmp_path_factory, doc):
    # a mutated file is either still a valid refinement (exit 0) or is
    # rejected on one line (exit 2); never a theorem failure, a crash or a hang
    path = tmp_path_factory.mktemp("mutated") / "p.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path), "--samples", "100"])
    assert time.perf_counter() - start < 5.0
    assert code in (0, 2), err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1 and "Traceback" not in err.getvalue()


# simplex document -> a word the one-line message must contain
MALFORMED_SIMPLEX = {
    "[]": "JSON object",
    '"x"': "JSON object",
    '{"id": "a"}': "vertices",
    '{"vertices": {}}': "vertex",
    # h^3 overflows, and so would the determinant of the volume
    '{"vertices": [[0, 0, 0], [1e150, 0, 0], [0, 1e150, 0], [0, 0, 1e150]]}': "too large",
}


@pytest.mark.parametrize("command", ["cone", "refine"])
@pytest.mark.parametrize("text", list(MALFORMED_SIMPLEX))
def test_malformed_simplex_file_is_usage_error(tmp_path, capsys, command, text):
    s_path = tmp_path / "s.json"
    s_path.write_text(text + "\n")
    if command == "cone":
        argv = ["cone", "--simplex", str(s_path), "--point", "0,0", "--samples", "100"]
    else:
        argv = ["refine", "--root", str(s_path), "-o", str(tmp_path / "p.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("simpart: error: ") and MALFORMED_SIMPLEX[text] in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_cone_outside_point_is_usage_error(tmp_path, capsys):
    s_path = tmp_path / "s.json"
    write_simplex(canonical_simplex("unit-corner", 2), s_path)
    code, _, err = run_cli(
        capsys, "cone", "--simplex", str(s_path), "--point", "5,5", "--samples", "1000"
    )
    assert code == 2
    assert "outside" in err


def test_optimize_writes_trace_and_is_deterministic(tmp_path, capsys):
    traces = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
    outputs = []
    for trace in traces:
        code, out, _ = run_cli(
            capsys,
            "optimize", "--objective", "shifted-sphere", "--dim", "2",
            "--budget", "400", "--tol", "1e-2", "--trace", str(trace),
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert traces[0].read_bytes() == traces[1].read_bytes()
    header = traces[0].read_text().splitlines()[0]
    assert header == "iteration,node_id,lower_bound,incumbent,gap,eta_min"
    assert "value=" in outputs[0] and "gap=" in outputs[0]
    assert outputs[0].split()[-1] == "stop=budget"


TRACE_HEADER = "iteration,node_id,lower_bound,incumbent,gap,eta_min\n"


def assert_trace_writer_matches_the_template(trace, path):
    # the writer formats a run of equal float tails once; the bytes must be
    # those of the one template applied to every row
    write_trace_csv(trace, path)
    want = TRACE_HEADER + "".join("%d,%d,%.17g,%.17g,%.17g,%.17g\n" % tuple(row) for row in trace)
    assert path.read_bytes() == want.encode()


def test_trace_writer_on_signed_zeros_runs_and_no_rows(tmp_path):
    path = tmp_path / "trace.csv"
    assert_trace_writer_matches_the_template([], path)
    assert path.read_bytes() == TRACE_HEADER.encode()
    rows = []
    for column in range(2, 6):  # 0.0 and -0.0 alternate in each float column in turn
        for k in range(6):
            row = [len(rows), k, 0.25, 0.5, 1.5, 0.125]
            row[column] = -0.0 if k % 2 else 0.0
            rows.append(TraceRow(*row))
    rows += [TraceRow(len(rows) + k, 7, -0.0, -0.0, 0.0, -0.0) for k in range(3)]
    rows += [TraceRow(len(rows) + k, 9, 0.1, 0.3, 0.2, 0.7) for k in range(4)]  # one run of four
    assert_trace_writer_matches_the_template(rows, path)
    assert b"-0,0.5,1.5,0.125" in path.read_bytes()
    r = optimize(build_objective("shifted-sphere", 2), kuhn_triangulation(2), budget=400, tol=1e-3)
    assert len({row[2:] for row in r.trace}) < len(r.trace)
    assert_trace_writer_matches_the_template(r.trace, path)


_tail_floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    tails=st.lists(st.tuples(_tail_floats, _tail_floats, _tail_floats, _tail_floats), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), max_size=40),
)
def test_trace_writer_on_random_tails_matches_the_template(tmp_path_factory, tails, picks):
    # rows drawn from a few tails, so consecutive rows often repeat one
    trace = [TraceRow(k, 3 * k + 1, *tails[pick % len(tails)]) for k, pick in enumerate(picks)]
    assert_trace_writer_matches_the_template(trace, tmp_path_factory.mktemp("trace") / "trace.csv")


def assert_report_writer_matches_the_oracle(report, tmp_path):
    # each row kind is one %-template; the bytes must be those of
    # csv.writer with every float formatted on its own
    write_theorem_report_csv(report, tmp_path / "got.csv")
    theorem_report_csv_by_rows(report, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("name", ["exact kuhn3@2", "exact corner6@2", "hanging largest-kuhn2@11"])
def test_report_writer_oracle_on_real_audits(tmp_path, name):
    p = {
        "exact kuhn3@2": lambda: refine(kuhn_triangulation(3), 2),
        "exact corner6@2": lambda: refine(partition_from_simplices([canonical_simplex("unit-corner", 6)]), 2),
        "hanging largest-kuhn2@11": lambda: refine(kuhn_triangulation(2), 11, "bisect-largest-leaf"),
    }[name]()
    report = verify_theorem(p)
    assert report.per_vertex_checks and report.decomposition_checks
    assert_report_writer_matches_the_oracle(report, tmp_path)


def test_report_writer_oracle_on_edited_rows(tmp_path):
    # failing, boundary and zero-stderr rows and extreme magnitudes, which
    # a passing audit of a unit domain never writes
    report = verify_theorem(refine(kuhn_triangulation(2), 2))
    values = [1e-300, 1e16, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 1 / 3]

    def value(k):
        return values[k % len(values)]

    vertex = [
        c._replace(fraction=value(k), stderr=value(k + 2), strong_bound=value(k + 5), passed_strong=k % 2 == 0)
        for k, c in enumerate(report.per_vertex_checks)
    ]
    sums = [
        c._replace(interior=k % 3 == 0, fraction_sum=value(k), combined_stderr=value(k + 2), passed=k % 4 == 1)
        for k, c in enumerate(report.decomposition_checks)
    ]
    assert {c.interior for c in sums} == {c.passed for c in sums} == {True, False}
    assert {c.passed_strong for c in vertex} == {True, False}
    for eta_min, bound, valence_ok in [(1e-300, 1e16, False), (0.25, 34.15893689069427, True)]:
        edited = dataclasses.replace(
            report,
            per_vertex_checks=vertex,
            decomposition_checks=sums,
            eta_min=eta_min,
            theoretical_bound=bound,
            valence_ok=valence_ok,
        )
        assert_report_writer_matches_the_oracle(edited, tmp_path)
        text = (tmp_path / "got.csv").read_bytes()
        assert b",1e-300," in text and b",10000000000000000," in text and b",-0," in text and b",0,1,false\n" in text


def test_optimize_unknown_objective(capsys):
    code, _, err = run_cli(capsys, "optimize", "--objective", "mystery")
    assert code == 2
    assert "mystery" in err


def test_optimize_refuses_a_small_budget_before_building_roots(capsys, monkeypatch):
    # kuhn(12) has 12! roots, which would take minutes to build and more to refuse
    def unexpected(d):
        raise AssertionError("the Kuhn roots were built")

    monkeypatch.setattr(simpart.cli, "kuhn_triangulation", unexpected)
    code, _, err = run_cli(capsys, "optimize", "--objective", "sphere", "--dim", "12")
    assert code == 2
    assert "budget" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("dim, budget", [(1, 100), (1_000_000, 10), (1_000_000_000, 10)])
def test_optimize_refuses_before_building_the_objective(capsys, monkeypatch, dim, budget):
    # the shifted sphere's centre is a (dim,) array: 8 GB at dim 10^9
    def unexpected(d):
        raise AssertionError("the objective was built")

    monkeypatch.setitem(simpart.optimizer.OBJECTIVES, "shifted-sphere", unexpected)
    code, _, err = run_cli(
        capsys, "optimize", "--objective", "shifted-sphere", "--dim", str(dim), "--budget", str(budget)
    )
    assert code == 2
    assert ("dimension" if dim < 2 else "budget") in err and len(err.splitlines()) == 1


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "refine")[0] == 2  # missing -o
    assert run_cli(capsys, "--help")[0] == 0


def test_runtime_imports_no_scipy():
    # the geometry core needs numpy only; scipy is a benchmark extra
    code = "import simpart, simpart.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(simpart.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_cli_verify_agrees_with_library(tmp_path, capsys):
    """The subcommand is a thin wrapper: same verdict."""
    p = kuhn_triangulation(2)
    refine(p, 1)
    p_path = tmp_path / "p.json"
    write_partition(p, p_path)
    code, out, _ = run_cli(
        capsys, "verify", str(p_path), "--samples", "8000", "--seed", "3"
    )
    report = verify_theorem(read_partition(p_path))
    assert code == (0 if report.passed else 1)
    assert f"eta_min={fmt_float(report.eta_min)}" in out
    assert f"max_valence={report.max_observed_valence}" in out


# ------------------------------------------------------------ golden bytes
# Outputs of seeded runs, pinned.  Acceptance 9 compares two runs of the
# same code, so a change to the sampling streams (seed tags, shard layout,
# draw order), to cone membership or to the exact fractions would
# still pass it; these would not.  The exact fractions' own arithmetic
# makes no BLAS call, and CI runs these tests under
# OPENBLAS_CORETYPE=Haswell and Prescott as well.

# kuhn(2)@3 is audited by the exact route: the hash pins the closed forms
GOLDEN_KUHN2_3_REPORT_SHA256 = "955be84ba58018fb74f0e778fadd89c9a53db5792ed58a9f081a7bc5404b858f"

# kuhn(4)@1 is audited by the exact route too: the hash pins the
# quadrature of the four-facet vertex cones, run on each class's
# canonical normals.
GOLDEN_KUHN4_1_REPORT_SHA256 = "8aa4a2ce51c24c7eab734f4d09a1c520d68a028c2ecc1c7b91a3270316a7d0a7"

# kuhn(6)@0 is audited exactly as well: the hash pins the nested
# quadrature of its six-facet vertex cones (7 classes, each run on its
# canonical normals, one level of Plackett's reduction inside another).
GOLDEN_KUHN6_0_REPORT_SHA256 = "5fa20744d1f92008ff3e33dcd88cab0db457212a75e2af5f9508609ad7b1e6ac"

# Largest-leaf refinement leaves vertices hanging on the faces of leaves
# they are not corners of, so these sums include face cones, measured
# exactly in kuhn(2)@40, kuhn(4)@30 and kuhn(6)@4.
GOLDEN_LARGEST_KUHN2_40_REPORT_SHA256 = "fb5b1017b430f7449e47126ae8a046c979be98fd48a9aca1904445411412c777"
GOLDEN_LARGEST_KUHN4_30_REPORT_SHA256 = "75db11909f72d4aa83a444d156fb922f1739b3cb06bd9e097a3049f32d781d0e"
GOLDEN_LARGEST_KUHN6_4_REPORT_SHA256 = "4612be08f68fc3cd251c6ff110a5bb467271289427c527ca706eaacf9600ff88"

# Optimizer trace and refined partitions on the Kuhn cube: every vertex
# is dyadic, so no edge length or midpoint depends on the BLAS kernel.
# A partition file is the refinement log: the roots and the split ids,
# so its hash pins which leaves the refinement bisected and in what order.
GOLDEN_OPTIMIZE_D3_TRACE_SHA256 = "1234974185c3ec11784d3a33ee5a982aa540ad4038168fed344cf40f142f1fb9"
GOLDEN_KUHN3_6_PARTITION_SHA256 = "31f04a05cd01188b13feec71023dd5ca4a8826747dba47a5124404c7c36529bc"
GOLDEN_LARGEST_KUHN3_54_PARTITION_SHA256 = "b15f04e006da91101c7fbe73cc76a76e6e6d5dc9f16e38aae1206d82aa071c81"

# point -> (cone id, direction hits) at 29999 samples, seed 7 and 3 shards
# (sizes 10000, 10000, 9999, so the shard order shows), on the
# tetrahedron of the test below
GOLDEN_CONE_HITS = {
    "0.1,0.2,0": ("tet:v0", 1953),
    "0.7,0.45,0.05": ("tet:f2.3", 6408),
    "0.6,1.2666666666666666,0.13333333333333333": ("tet:f3", 15006),
    "0.2,0.5,1.7": ("tet:v3", 936),
    "0.25,0.35,0.05": ("tet:int", 29999),
}


def _kuhn_report_sha256(tmp_path, capsys, d, rounds, expected_code, strategy="bisect-all-leaves"):
    p = kuhn_triangulation(d)
    refine(p, rounds, strategy)
    p_path = tmp_path / "p.json"
    report = tmp_path / "report.csv"
    write_partition(p, p_path)
    code, _, _ = run_cli(
        capsys, "verify", str(p_path), "--samples", "2000", "--seed", "42", "--report", str(report)
    )
    assert code == expected_code
    return hashlib.sha256(report.read_bytes()).hexdigest()


def test_verify_report_matches_golden_bytes(tmp_path, capsys):
    assert _kuhn_report_sha256(tmp_path, capsys, 2, 3, 0) == GOLDEN_KUHN2_3_REPORT_SHA256
    got = _kuhn_report_sha256(tmp_path, capsys, 2, 40, 0, "bisect-largest-leaf")
    assert got == GOLDEN_LARGEST_KUHN2_40_REPORT_SHA256
    assert _kuhn_report_sha256(tmp_path, capsys, 4, 1, 0) == GOLDEN_KUHN4_1_REPORT_SHA256
    got = _kuhn_report_sha256(tmp_path, capsys, 4, 30, 0, "bisect-largest-leaf")
    assert got == GOLDEN_LARGEST_KUHN4_30_REPORT_SHA256


def test_optimize_trace_matches_golden_bytes(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "optimize", "--objective", "shifted-sphere", "--dim", "3",
        "--budget", "3000", "--tol", "1e-3", "--trace", str(trace),
    )
    assert code == 0
    assert "evaluations=3000 leaves_explored=14116" in out
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_OPTIMIZE_D3_TRACE_SHA256


@pytest.mark.parametrize(
    "steps, strategy, expected",
    [
        ("6", "bisect-all-leaves", GOLDEN_KUHN3_6_PARTITION_SHA256),
        ("54", "bisect-largest-leaf", GOLDEN_LARGEST_KUHN3_54_PARTITION_SHA256),
    ],
)
def test_refine_partition_matches_golden_bytes(tmp_path, capsys, steps, strategy, expected):
    path = tmp_path / "p.json"
    code, _, _ = run_cli(
        capsys, "refine", "--dim", "3", "--steps", steps, "--strategy", strategy, "-o", str(path)
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_monte_carlo_report_matches_golden_bytes(tmp_path, capsys):
    assert _kuhn_report_sha256(tmp_path, capsys, 6, 0, 0) == GOLDEN_KUHN6_0_REPORT_SHA256
    got = _kuhn_report_sha256(tmp_path, capsys, 6, 4, 0, "bisect-largest-leaf")
    assert got == GOLDEN_LARGEST_KUHN6_4_REPORT_SHA256


@pytest.mark.parametrize("point", sorted(GOLDEN_CONE_HITS))
def test_cone_hit_counts_match_golden(tmp_path, capsys, point):
    s = make_simplex(
        [[0.1, 0.2, 0.0], [1.3, 0.7, 0.1], [0.4, 2.9, 0.3], [0.2, 0.5, 1.7]], id="tet"
    )
    s_path = tmp_path / "s.json"
    csv_path = tmp_path / "cone.csv"
    write_simplex(s, s_path)
    code, _, _ = run_cli(
        capsys, "cone", "--simplex", str(s_path), "--point", point,
        "--samples", "29999", "--seed", "7", "--shards", "3", "-o", str(csv_path),
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cone_id, direction_hits = GOLDEN_CONE_HITS[point]
    assert [row["cone_id"] for row in rows] == [cone_id]
    assert round(float(rows[0]["fraction"]) * 29999) == direction_hits
