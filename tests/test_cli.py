"""End-to-end checks for the command line and the file formats it writes."""

import contextlib
import copy
import csv
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
from simpart.serialization import dumps, fmt_float, partition_to_json, write_fraction_csv


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


def test_partition_round_trip_is_equal_and_byte_stable(tmp_path):
    # largest-leaf refinement bisects parents out of id order, the optimizer
    # refines by its own priority, and a root can come after bisected nodes
    partitions = [
        refine(kuhn_triangulation(3), 2),
        refine(kuhn_triangulation(2), 40, "bisect-largest-leaf"),
        refine(kuhn_triangulation(3), 54, "bisect-largest-leaf"),
        _optimizer_refined(),
        _root_added_then_refined(),
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


def test_read_partition_rejects_empty_node_list(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"d": 2, "nodes": [], "vertices": []}\n')
    with pytest.raises(EmptyPartition):
        read_partition(path)


def test_read_partition_rejects_bad_node_ids(tmp_path):
    p = kuhn_triangulation(2)
    doc = json.loads(partition_to_json(p))
    doc["nodes"][0]["id"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="node ids"):
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
        "--samples", "20000", "--shards", "2", "--seed", "42",
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
            "--samples", "10000", "--shards", "2", "--seed", "7",
            "--report", str(report),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_fails_on_overlapping_cells(tmp_path, capsys):
    # 21 coincident copies of one triangle: a legal file, but the valence
    # at each corner (21) exceeds the d=2 bound of ~19.72 for eta ~ 0.433,
    # so the audit must report failure through the exit code.
    tri = canonical_simplex("regular", 2).vertices
    stack = [make_simplex(tri, id=str(k)) for k in range(21)]
    p_path = tmp_path / "stack.json"
    write_partition(partition_from_simplices(stack), p_path)
    code, out, _ = run_cli(
        capsys, "verify", str(p_path), "--samples", "2000", "--shards", "2"
    )
    assert code == 1
    assert out.strip().endswith("FAIL")


def test_verify_empty_partition_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"d": 2, "nodes": [], "vertices": []}\n')
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


def _out_of_range_vertex_id(tmp_path):
    doc = json.loads(partition_to_json(kuhn_triangulation(2)))
    doc["nodes"][0]["vertex_ids"][0] = 999
    path = tmp_path / "oor.json"
    path.write_text(json.dumps(doc))
    return path


def _edited_kuhn2(tmp_path, edit):
    doc = json.loads(partition_to_json(refine(kuhn_triangulation(2), 2)))
    edit(doc["nodes"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def _out_of_range_child(tmp_path):
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[0]["children"].__setitem__(0, 99))


def _out_of_range_parent(tmp_path):
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[2].__setitem__("parent", 99))


def _parent_not_listing_the_child(tmp_path):
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[2].__setitem__("parent", 1))


def _generation_skip(tmp_path):
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[2].__setitem__("generation", 3))


def _children_cycle(tmp_path):
    # node 2 is a child of root 0; listing root 0 as its child closes a loop
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[2].__setitem__("children", [0]))


def _child_not_the_bisection(tmp_path):
    # node 2 is the first child of root 0 and ends in the midpoint of its
    # diagonal; the corner (0, 1) of root 1 in its place leaves a sound
    # triangle that is not the bisection of its parent
    def edit(nodes):
        nodes[2]["vertex_ids"][2] = nodes[1]["vertex_ids"][1]

    return _edited_kuhn2(tmp_path, edit)


def _child_listed_before_its_parent(tmp_path):
    # kuhn(2)@1 makes roots 0 and 1, then children 2, 3 of root 0 and 4, 5
    # of root 1; swapping ids 1 and 2 keeps every link consistent, but
    # the ids are no longer the order in which bisection creates nodes
    swap = {1: 2, 2: 1}
    doc = json.loads(partition_to_json(refine(kuhn_triangulation(2), 1)))
    for node in doc["nodes"]:
        node["id"] = swap.get(node["id"], node["id"])
        if node["parent"] is not None:
            node["parent"] = swap.get(node["parent"], node["parent"])
        node["children"] = [swap.get(c, c) for c in node["children"]]
    doc["nodes"].sort(key=lambda node: node["id"])
    path = tmp_path / "permuted.json"
    path.write_text(json.dumps(doc))
    return path


def _non_integer_node_id(tmp_path):
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[3].__setitem__("id", "three"))


def _non_integer_parent(tmp_path):
    return _edited_kuhn2(tmp_path, lambda nodes: nodes[2].__setitem__("parent", "0"))


def _root_vertex_moved_off_its_midpoints(tmp_path):
    # each midpoint that depends on the origin now replays at most 5e-11
    # away from its stored coordinates: near, but not bitwise equal
    doc = json.loads(partition_to_json(refine(kuhn_triangulation(2), 9, "bisect-largest-leaf")))
    assert doc["vertices"][0] == [0.0, 0.0]
    doc["vertices"][0][0] += 1e-10
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(doc))
    return path


def _huge_extra_vertex(tmp_path):
    doc = json.loads(partition_to_json(kuhn_triangulation(2)))
    doc["vertices"].append([1e300, 0.0])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    return path


def _huge_root_vertex(tmp_path):
    # the edges from [1e300, 0] are finite, but their length squared is not
    doc = json.loads(partition_to_json(kuhn_triangulation(2)))
    assert doc["vertices"][0] == [0.0, 0.0]
    doc["vertices"][0] = [1e300, 0.0]
    path = tmp_path / "huge-root.json"
    path.write_text(json.dumps(doc))
    return path


# input writer -> a word the one-line message must contain
MALFORMED = {
    _json_array_document: "JSON object",
    _out_of_range_vertex_id: "vertex_ids",
    _out_of_range_child: "children",
    _out_of_range_parent: "parent",
    _parent_not_listing_the_child: "parent",
    _generation_skip: "generation",
    _children_cycle: "node",
    _child_not_the_bisection: "vertex_ids",
    _child_listed_before_its_parent: "parent",
    _non_integer_node_id: "id",
    _non_integer_parent: "parent",
    _root_vertex_moved_off_its_midpoints: "vertex",
    _huge_extra_vertex: "vertices",
    _huge_root_vertex: "too large",
}


@pytest.mark.parametrize("make_input", list(MALFORMED))
def test_verify_malformed_input_is_internal_error_not_theorem_failure(tmp_path, capsys, make_input):
    # exit 1 is reserved for "a theorem check failed" and 4 for bugs; the
    # reader validates the file and rejects malformed input as a usage
    # error (2), on one line naming the field and without a traceback
    code, out, err = run_cli(capsys, "verify", str(make_input(tmp_path)), "--samples", "100")
    assert code == 2
    assert out == ""
    assert err.startswith("simpart: error: ") and MALFORMED[make_input] in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# Mutations of two valid files: kuhn(2)@3, and largest-leaf kuhn(2)@9,
# which has hanging vertices and parents bisected out of id order.
MUTATION_BASES = [
    json.loads(partition_to_json(refine(kuhn_triangulation(2), 3))),
    json.loads(partition_to_json(refine(kuhn_triangulation(2), 9, "bisect-largest-leaf"))),
]
NODE_KEYS = ["id", "parent", "generation", "vertex_ids", "children"]
ODD_VALUES = st.one_of(
    st.integers(-2, 40), st.none(), st.text(max_size=3), st.lists(st.integers(-1, 40), max_size=4), st.booleans()
)
MUTATIONS = [
    "set-field", "replace-entry", "delete-key", "swap-nodes", "drop-node",
    "drop-vertex", "perturb-vertex", "replace-document-field",
]


@st.composite
def mutated_partition_documents(draw):
    """A valid file after one to three mutations; replacing d, nodes or
    vertices is always the last."""
    doc = copy.deepcopy(draw(st.sampled_from(MUTATION_BASES)))
    nodes, vertices = doc["nodes"], doc["vertices"]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        node = draw(st.sampled_from(nodes)) if nodes else {}
        if kind == "set-field":
            node[draw(st.sampled_from(NODE_KEYS))] = draw(ODD_VALUES)
        elif kind == "replace-entry":
            ids = node.get(draw(st.sampled_from(["vertex_ids", "children"])))
            if isinstance(ids, list) and ids:
                ids[draw(st.integers(0, len(ids) - 1))] = draw(st.integers(-1, len(vertices)))
        elif kind == "delete-key":
            node.pop(draw(st.sampled_from(NODE_KEYS)), None)
        elif kind in ("swap-nodes", "drop-node") and nodes:
            i, j = draw(st.integers(0, len(nodes) - 1)), draw(st.integers(0, len(nodes) - 1))
            if kind == "swap-nodes":
                nodes[i], nodes[j] = nodes[j], nodes[i]
            else:
                del nodes[i]
        elif kind in ("drop-vertex", "perturb-vertex") and vertices:
            i = draw(st.integers(0, len(vertices) - 1))
            if kind == "drop-vertex":
                del vertices[i]
            else:
                # None replaces the coordinate with a huge one instead
                k = draw(st.integers(0, 1))
                delta = draw(st.sampled_from([1e-12, -1e-12, 1e-10, -1e-10, 1e-3, -1e-3, 0.5, -0.5, None]))
                vertices[i][k] = 1e300 if delta is None else vertices[i][k] + delta
        elif kind == "replace-document-field":
            doc[draw(st.sampled_from(["d", "nodes", "vertices"]))] = draw(ODD_VALUES)
            break
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


def test_optimize_unknown_objective(capsys):
    code, _, err = run_cli(capsys, "optimize", "--objective", "mystery")
    assert code == 2
    assert "mystery" in err


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
    """The subcommand is a thin wrapper: same config, same verdict."""
    p = kuhn_triangulation(2)
    refine(p, 1)
    p_path = tmp_path / "p.json"
    write_partition(p, p_path)
    code, out, _ = run_cli(
        capsys, "verify", str(p_path), "--samples", "8000", "--shards", "2", "--seed", "3"
    )
    report = verify_theorem(read_partition(p_path), MonteCarloConfig(8000, 3, 2))
    assert code == (0 if report.passed else 1)
    assert f"eta_min={fmt_float(report.eta_min)}" in out
    assert f"max_valence={report.max_observed_valence}" in out


# ------------------------------------------------------------ golden bytes
# Outputs of seeded runs, pinned.  Acceptance 9 compares two runs of the
# same code, so a change to the sampling streams (seed tags, shard layout,
# draw order), to cone membership or to the closed-form fractions would
# still pass it; these would not.

# kuhn(2)@3 is audited by the exact route: the hash pins the closed forms
GOLDEN_KUHN2_3_REPORT_SHA256 = "955be84ba58018fb74f0e778fadd89c9a53db5792ed58a9f081a7bc5404b858f"

# kuhn(4)@1 is audited by Monte Carlo: the hash pins the per-pair streams.
# At 2000 samples three cones of fraction ~1.3e-4 draw no hit; their
# stderr is taken at one hit, so they pass the bound and the verdict is
# PASS (exit 0).
GOLDEN_KUHN4_1_REPORT_SHA256 = "04148499fb3f5bdec50672356dc7ee78aff192fa9d386982525d7a8468af27d0"

# Largest-leaf refinement leaves vertices hanging on the faces of leaves
# they are not corners of, so these sums include face cones: exact in
# kuhn(2)@40, Monte Carlo streams in kuhn(4)@30.
GOLDEN_LARGEST_KUHN2_40_REPORT_SHA256 = "fb5b1017b430f7449e47126ae8a046c979be98fd48a9aca1904445411412c777"
GOLDEN_LARGEST_KUHN4_30_REPORT_SHA256 = "78df54b539cb57a79579b8ffcdec070c86307be4ab1a3c2f74fe8c9839637476"

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


def test_monte_carlo_report_matches_golden_bytes(tmp_path, capsys):
    assert _kuhn_report_sha256(tmp_path, capsys, 4, 1, 0) == GOLDEN_KUHN4_1_REPORT_SHA256
    got = _kuhn_report_sha256(tmp_path, capsys, 4, 30, 0, "bisect-largest-leaf")
    assert got == GOLDEN_LARGEST_KUHN4_30_REPORT_SHA256


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
