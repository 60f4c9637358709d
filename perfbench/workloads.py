"""Set-up, operation and output checks of each workload.

A workload's ``setup`` builds the inputs from the seed, ``run`` is the
timed operation, and ``check`` validates every output against facts the
benchmark knows independently.  ``check`` returns the counts the runner
turns into throughput and per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from collections import defaultdict

import numpy as np

import simpart
import simpart.cli
from tracing import OBJECTIVE


class Checks:
    """Tally of attempted and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = simpart.cli.main(argv)
    return code, out.getvalue()


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


# ------------------------------------------------------------------ audits


def audit_setup(params, seed, work):
    p = simpart.kuhn_triangulation(params["dim"])
    simpart.refine(p, params["rounds"])
    path = os.path.join(work, "partition.json")
    simpart.write_partition(p, path)
    return {
        "partition": path,
        "report": os.path.join(work, "report.csv"),
        "cones": len(p.leaves) * (p.d + 1),
    }


def audit_run(params, seed, inputs, tracer):
    argv = [
        "verify", inputs["partition"],
        "--samples", str(params["samples"]),
        "--seed", str(seed),
        "--report", inputs["report"],
    ]
    code, stdout = _cli(argv)
    return {"code": code, "stdout": stdout, "artifact": inputs["report"]}


def _row_holds(row) -> bool:
    """Whether the row's own numbers satisfy the test its kind states."""
    value, bound = float(row["value"]), float(row["bound"])
    kind = row["check"]
    if kind == "valence":
        return value <= bound
    se = float(row["stderr"])
    if kind == "vertex-bound":
        return value >= bound - 3.0 * se
    if row["location"] == "interior":
        return abs(value - bound) <= 4.0 * se
    return value <= bound + 4.0 * se


def audit_check(params, seed, inputs, out, checks):
    checks.expect(out["code"] == 0, f"verify exited {out['code']}")
    with open(inputs["report"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_kind = defaultdict(list)
    for row in rows:
        by_kind[row["check"]].append(row)
    cones = inputs["cones"]
    checks.expect(len(by_kind["vertex-bound"]) == cones, f"{len(by_kind['vertex-bound'])} vertex rows, expected {cones}")
    checks.expect(len(by_kind["valence"]) == 1, "report has no single valence row")
    for kind in ("vertex-bound", "decomposition", "valence"):
        for row in by_kind[kind]:
            ok = row["passed"] == "true" and _row_holds(row)
            checks.expect(ok, f"{kind} row leaf={row['leaf_id']} vertex={row['vertex_id']} value={row['value']}")
    verdict = "true" if out["code"] == 0 else "false"
    summary = by_kind["summary"]
    checks.expect(len(summary) == 1 and summary[0]["passed"] == verdict, "summary verdict disagrees with exit code")
    audited = _fields(out["stdout"]).get("audited")
    checks.expect(audited == f"{cones}/{cones}", f"audited={audited}, expected {cones}/{cones}")
    return {
        "cones": len(by_kind["vertex-bound"]),
        "decomposition_checks": len(by_kind["decomposition"]),
        "partition_bytes": os.path.getsize(inputs["partition"]),
    }


# --------------------------------------------------------------- optimizer


def optimize_setup(params, seed, work):
    d = params["dim"]
    centre = np.random.default_rng(seed).uniform(0.2, 0.8, d)
    # |x - c|^2 has gradient norm 2|x - c|, largest at the farthest corner
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * d)).reshape(d, -1).T
    true_lipschitz = 2.0 * float(np.max(np.linalg.norm(corners - centre, axis=1)))
    if true_lipschitz > params["lipschitz"]:
        raise ValueError(f"declared L={params['lipschitz']} is below the true {true_lipschitz}")
    return {
        "centre": centre,
        "partition": simpart.kuhn_triangulation(d),
        "trace": os.path.join(work, "trace.csv"),
    }


def optimize_run(params, seed, inputs, tracer):
    centre = inputs["centre"]

    def shifted_sphere(x):
        return float(np.sum((x - centre) ** 2))

    evaluate = shifted_sphere if tracer is None else tracer.wrap(OBJECTIVE, shifted_sphere)
    objective = simpart.Objective("shifted-sphere", evaluate, params["lipschitz"])
    result = simpart.optimize(objective, inputs["partition"], params["budget"], params["tol"])
    simpart.write_trace_csv(result.trace, inputs["trace"])
    return {"result": result, "artifact": inputs["trace"]}


def optimize_check(params, seed, inputs, out, checks):
    r = out["result"]
    checks.expect(r.lower_bound <= 0.0 <= r.value, f"minimum 0 not in [{r.lower_bound}, {r.value}]")
    checks.expect(r.gap == r.value - r.lower_bound, f"gap {r.gap} != value - lower_bound")
    checks.expect(r.evaluations <= params["budget"], f"{r.evaluations} evaluations over budget")
    checks.expect(r.value == float(np.sum((r.point - inputs["centre"]) ** 2)), "incumbent value is not f(point)")
    checks.expect(bool(np.all((r.point >= 0.0) & (r.point <= 1.0))), "incumbent outside the unit cube")
    with open(inputs["trace"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1] if rows else {}
    checks.expect(len(rows) == len(r.trace), "trace CSV row count differs from the trace")
    checks.expect(
        last.get("gap") == _g17(r.gap) and last.get("lower_bound") == _g17(r.lower_bound),
        "last trace row disagrees with the result",
    )
    return {
        "iterations": len(r.trace) - 1,
        "evaluations": r.evaluations,
        "gap": r.gap,
    }


# ------------------------------------------------------------ partition io


def partition_io_setup(params, seed, work):
    built = []
    write = simpart.cli.write_partition

    def keep_and_write(p, path):
        built.append(p)
        return write(p, path)

    simpart.cli.write_partition = keep_and_write
    return {"path": os.path.join(work, "refined.json"), "built": built}


def partition_io_run(params, seed, inputs, tracer):
    argv = ["refine", "--dim", str(params["dim"]), "--steps", str(params["steps"]), "-o", inputs["path"]]
    code, stdout = _cli(argv)
    reread = simpart.read_partition(inputs["path"])
    return {"code": code, "stdout": stdout, "reread": reread, "artifact": inputs["path"]}


def partition_io_check(params, seed, inputs, out, checks):
    checks.expect(out["code"] == 0, f"refine exited {out['code']}")
    reread = out["reread"]
    if len(inputs["built"]) != 1:
        raise RuntimeError("refine did not pass through write_partition exactly once")
    built = inputs["built"][0]
    checks.expect(reread == built, "re-read partition differs from the built one")
    leaves = math.factorial(params["dim"]) * 2 ** params["steps"]
    checks.expect(len(reread.leaves) == leaves, f"{len(reread.leaves)} leaves, expected {leaves}")
    printed = _fields(out["stdout"])
    checks.expect(printed.get("leaves") == str(leaves), f"refine printed leaves={printed.get('leaves')}")
    eta = _g17(simpart.min_regularity(reread))
    checks.expect(printed.get("eta_min") == eta, f"eta_min {printed.get('eta_min')} != re-read {eta}")
    # uniform Kuhn refinement is conforming, so geometric valence equals
    # the number of leaves naming the vertex
    valences = simpart.registry_valences(reread)
    named = np.bincount(
        [v for leaf in built.leaves for v in built.nodes[leaf].vertex_ids],
        minlength=reread.n_vertices,
    )
    checks.expect(np.array_equal(valences, named), "re-read valences differ from the built incidences")
    checks.expect(printed.get("max_valence") == str(int(valences.max())), "max_valence differs after re-read")
    return {"partition_bytes": os.path.getsize(inputs["path"])}


KINDS = {
    "audit": (audit_setup, audit_run, audit_check),
    "optimize": (optimize_setup, optimize_run, optimize_check),
    "partition-io": (partition_io_setup, partition_io_run, partition_io_check),
}
