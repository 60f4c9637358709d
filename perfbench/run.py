"""simpart benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each repetition runs in a fresh interpreter (``worker.py``), one at a time,
with BLAS and OpenMP pinned to one thread.  Repetitions start until
``--seconds`` have passed (at least three untraced ones; with ``--trace 1``
traced and untraced ones alternate, at least one of each).  The runner
checks every output, prints a readable table and a run record, and ends
with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` they are the per-layer ones (medians over
the traced repetitions).  Scratch files go to ``.perfbench-work/`` in the
checkout.  The exit code is 0 whenever a result line is printed, and 2
when the checkout has no ``src/simpart`` or a worker fails to report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracing  # noqa: E402

MIN_UNTRACED = 3
# A run must end within 180 s; no worker may start after this.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0


class HarnessError(Exception):
    """The benchmark could not measure; no result line is printed."""


def _src_digest(root: Path) -> str:
    """sha256 over the package sources, naming the code being measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git(root: Path, *args) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in spec.THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(root: Path, args, traced: bool, work: Path, index: int, deadline: float) -> dict:
    out = work / f"worker-{index}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--work", str(work),
        "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=_worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker {index} timed out") from exc
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"worker {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _median(values) -> float:
    return float(statistics.median(values))


def _load(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def measure(root: Path, args) -> tuple[list[dict], list[dict], dict]:
    """Run workers until the time is up; returns (untraced, traced, record)."""
    work_root = root / ".perfbench-work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": _src_digest(root),
        "loadavg_start": os.getloadavg(),
    }
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            enough = len(untraced) >= (1 if args.trace else MIN_UNTRACED) and (traced or not args.trace)
            if enough and (elapsed >= args.seconds or elapsed >= LAST_START_S):
                break
            if elapsed >= LAST_START_S:
                raise HarnessError(f"only {len(untraced) + len(traced)} workers finished in {elapsed:.0f} s")
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            result = run_worker(root, args, trace_this, work, len(untraced) + len(traced), start + WORKER_TIMEOUT_S)
            (traced if trace_this else untraced).append(result)
        if traced:
            spans_dir = work_root / "spans"
            spans_dir.mkdir(exist_ok=True)
            kept = spans_dir / f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}.csv"
            shutil.copyfile(traced[-1]["spans"], kept)
            record["spans_file"] = str(kept.relative_to(root))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["measured_s"] = time.monotonic() - start
    record["loadavg_end"] = os.getloadavg()
    record["workers"] = {"untraced": len(untraced), "traced": len(traced)}
    for name in ("wall_s", "setup_s", "wall_raw_s", "setup_raw_s", "reference_s"):
        record[f"{name}_each"] = [r[name] for r in untraced]
    record["versions"] = untraced[0]["versions"]
    record["threads_env_in_worker"] = untraced[0]["threads_env"]
    return untraced, traced, record


def determinism(root: Path, args, results: list[dict], record: dict) -> list[str]:
    """Every worker of one seed on one source tree must write the same bytes.

    Digests persist in ``.perfbench-work/hashes.json``, so later runs of the
    same seed on the same sources are held to the first one's bytes.
    """
    failures = []
    digests = sorted({r["artifact_sha256"] for r in results})
    if len(digests) != 1:
        failures.append(f"workers of one run wrote different artifacts: {digests}")
    store = root / ".perfbench-work" / "hashes.json"
    known = _load(store)
    key = f"{args.workload}|{'smoke' if args.smoke else 'full'}|seed={args.seed}|src={record['src_sha256']}"
    if key in known and known[key] != digests[0]:
        failures.append(f"artifact {digests[0]} differs from {known[key]} of an earlier run")
    known.setdefault(key, digests[0])
    _save(store, known)
    record["artifact_sha256"] = digests[0]
    return failures


def workload_metrics(untraced: list[dict], kind: str) -> dict[str, float | None]:
    """Raw wall and reference times, cones_per_s, evals_per_s and gap; None where n/a."""
    out = {
        "wall_raw_s": _median([r["wall_raw_s"] for r in untraced]),
        "reference_s": _median([r["reference_s"] for r in untraced]),
        "cones_per_s": None,
        "evals_per_s": None,
        "gap": None,
    }
    if kind == "audit":
        out["cones_per_s"] = _median([r["info"]["cones"] / r["wall_s"] for r in untraced])
    if kind == "optimize":
        out["evals_per_s"] = _median([r["info"]["evaluations"] / r["wall_s"] for r in untraced])
        out["gap"] = _median([r["info"]["gap"] for r in untraced])
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="simpart benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking the harness")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "simpart" / "__init__.py").is_file():
        print(f"perfbench: no src/simpart package under {root}; run from a simpart checkout", file=sys.stderr)
        return 2
    kind = spec.WORKLOADS[args.workload]["kind"]
    try:
        untraced, traced, record = measure(root, args)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failures = determinism(root, args, untraced + traced, record)
    attempted = sum(r["attempted"] for r in untraced + traced) + 2
    for r in untraced + traced:
        failures += r["failures"]
    for f in failures:
        print(f"FAILED CHECK: {f}")

    e2e = {name: _median([r[name] for r in untraced]) for name, _ in spec.END_TO_END}
    extra = workload_metrics(untraced, kind)
    extra["fail_ratio"] = len(failures) / attempted
    units = dict(spec.END_TO_END + spec.PER_LAYER)

    print(f"simpart perfbench: workload={args.workload} seed={args.seed} "
          f"workers={len(untraced)} untraced + {len(traced)} traced in {record['measured_s']:.1f} s")
    for name, value in list(e2e.items()) + list(extra.items()):
        if value is None:
            print(f"  {name:<14} n/a")
            continue
        line = f"  {name:<14} {value:<14.6g} {units[name]}"
        if name in ("wall_s", "setup_s", "wall_raw_s"):
            vals = [r[name] for r in untraced]
            lo, hi = _quartiles(vals)
            line += f"   (median of {len(vals)}; quartiles {lo:.4g} .. {hi:.4g})"
        print(line)
    print(f"  checks         {len(failures)} failed of {attempted}")

    if args.trace:
        layers = {}
        for name, _ in spec.PER_LAYER:
            vals = [t["layers"][name] for t in traced if name in t["layers"]]
            if vals:
                layers[name] = _median(vals)
        layers["trace.overhead_ratio"] = _median([t["wall_s"] for t in traced]) / e2e["wall_s"]
        for name, value in extra.items():
            layers[name] = 0.0 if value is None else value
        absent = sorted({a for t in traced for a in t["absent"]})
        if absent:
            print(f"  absent trace targets: {', '.join(absent)} (their metrics are left out)")
        total = layers.get("trace.wall_s", 0.0)
        print(f"  per-layer self time, share of traced wall {total:.4g} s:")
        self_metrics = set(tracing.SELF_METRICS.values())
        for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
            if name in self_metrics and value > 0 and total:
                print(f"    {name:<34} {value:10.4f} s  {100 * value / total:5.1f}%")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spec.PER_LAYER if name in layers}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in spec.END_TO_END}

    _save(root / ".perfbench-work" / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
