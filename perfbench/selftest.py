"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks the self-time arithmetic on hand-made spans, the tracer's
wrapping and absent-target handling, that BENCHMARK.json and spec.py name
the same metrics, that a smoke run of every workload prints exactly those
metrics with their units and passes its checks, that a traced run's self
times sum to its traced wall time, and that the runner refuses to run in
a directory without the package.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def test_self_times() -> None:
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b1", 5.0, 6.0, 3],
        ["b2", 5.5, 7.0, 3],  # overlaps b1: the union [5, 7] is subtracted once
        ["c", 9.5, 11.0, 0],  # runs past its parent: only [9.5, 10] counts
    ]
    got = tracing.self_times(spans)
    want = [10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 2.0, 1.0, 1.5, 1.5]
    expect(all(close(g, w) for g, w in zip(got, want)), f"self times {got} == {want}")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_and_layer_sum() -> None:
    target = types.ModuleType("perfbench_fake_target")

    def inner(rows):
        return len(rows)

    def outer(rows):
        return target.inner(rows) + target.inner(rows)

    target.inner, target.outer = inner, outer
    sys.modules[target.__name__] = target
    try:
        tracer = tracing.Tracer(clock=FakeClock())
        tracer.install([
            (target.__name__, "outer", "cones.measure", False),
            (target.__name__, "inner", "cones.membership", True),
            (target.__name__, "missing", "partition.bisect", False),
        ])
        expect(tracer.absent == {"partition.bisect"}, "a missing target is reported absent, not raised")
        root = tracer.wrap(tracing.ROOT, lambda: target.outer([1, 2, 3]))
        expect(root() == 6, "wrapped functions return their results")
        tracer.uninstall()
        expect(target.outer is outer and target.inner is inner, "uninstall restores the originals")
        # clock ticks: root 1..8, outer 2..7, inner 3..4 and 5..6
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        expect(names == [tracing.ROOT, "cones.measure", "cones.membership", "cones.membership"], f"span order {names}")
        expect(parents == [-1, 0, 1, 1], f"span parents {parents}")
        m = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.absent)
        expect(m["cones.directions_drawn"] == 6, "row counter adds the argument length per call")
        expect(close(m["cones.measure_s"], 5.0) and close(m["cones.draw_s"], 3.0), "measure is inclusive, draw is its self time")
        expect(close(m["cones.membership_s"], 2.0) and close(m["bench.self_s"], 2.0), "leaf and root self times")
        expect("partition.bisect_s" not in m and "partition.bisections" not in m, "metrics of absent spans are left out")
        total = sum(m[metric] for metric in tracing.SELF_METRICS.values() if metric in m)
        expect(close(total, m["trace.wall_s"]), f"self times sum to the traced wall ({total} vs {m['trace.wall_s']})")
    finally:
        del sys.modules[target.__name__]


def test_benchmark_json() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    expect(e2e == spec.END_TO_END, "BENCHMARK.json end_to_end matches spec.END_TO_END")
    expect(layers == spec.PER_LAYER, "BENCHMARK.json per_layer matches spec.PER_LAYER")
    expect([w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS), "BENCHMARK.json workloads match spec")
    derived = set(tracing.SELF_METRICS.values()) | set(tracing.DERIVED_SOURCES) | {"trace.wall_s"}
    expect(derived <= {n for n, _ in spec.PER_LAYER}, "every traced metric is declared in spec.PER_LAYER")


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_smoke_runs() -> None:
    for workload in spec.WORKLOADS:
        for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            label = f"{workload} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{label}: runner exited {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{label}: outputs pass their checks")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted >= 1")
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            expect(got == declared, f"{label}: every declared metric with its unit, in order")
            numeric = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                          for m in result["metrics"].values())
            expect(numeric, f"{label}: metric values are finite numbers")
            if trace:
                record = json.loads(next(ln for ln in lines if ln.startswith("record: "))[len("record: "):])
                check_span_file(ROOT / record["spans_file"], label)


def check_span_file(path: Path, label: str) -> None:
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, name, start, end, parent = line.rstrip("\n").split(",")
            spans.append([name, float(start), float(end), int(parent)])
    m = tracing.layer_metrics(spans, {})
    total = sum(m[metric] for metric in tracing.SELF_METRICS.values())
    expect(close(total, m["trace.wall_s"], 1e-6), f"{label}: layer self times + remainder == traced wall")
    expect(sum(1 for s in spans if s[3] < 0) == 1, f"{label}: one root span encloses the operation")


def test_refuses_without_package() -> None:
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "--workload", "optimize-d3", "--seed", "1", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without src/simpart the runner exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_self_times()
    test_tracer_and_layer_sum()
    test_benchmark_json()
    test_refuses_without_package()
    test_smoke_runs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
