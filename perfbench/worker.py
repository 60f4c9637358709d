"""One measured repetition of a workload, in a fresh interpreter.

Run by ``run.py`` from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --work DIR --out FILE --spawned-at T [--smoke]

It imports simpart from ``src/``, builds the inputs, times the operation
(traced or not), checks the outputs and writes one JSON object to FILE.
``--spawned-at`` is the parent's ``time.monotonic()`` just before the
spawn, so the set-up time covers interpreter start-up as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time


def reference_s() -> float:
    """Seconds taken by a fixed computation that uses numpy and scipy, not simpart.

    Half of it is mid-size array work (random draws, an LU solve over 2000
    directions), half is interpreter work around tiny arrays and a dict,
    the two kinds of work simpart spends its time in.  Timed just before
    and just after the operation, it gives the machine's speed at that
    moment.  On a shared host that speed drifts by 25% and more, and
    scaling the measured times by ``spec.NOMINAL_REFERENCE_S / reference_s``
    cancels most of the drift.
    """
    import numpy as np
    from scipy.linalg import lu_factor, lu_solve

    rng = np.random.default_rng(12345)
    lu = lu_factor(rng.standard_normal((3, 3)) + 3.0 * np.eye(3))
    table = {}
    t0 = time.perf_counter()
    for i in range(550):
        u = rng.standard_normal((2000, 3))
        table[i] = int(np.all(lu_solve(lu, u.T, check_finite=False) >= 0.0, axis=0).sum())
        for j in range(75):
            p = np.asarray([i * 0.1, j * 0.2, 0.3])
            table[(i, j)] = float(np.linalg.norm(p - 0.5))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import simpart
    import simpart.cli  # noqa: F401  (timed with the package)

    import_s = time.perf_counter() - t_start
    if not os.path.abspath(simpart.__file__).startswith(src + os.sep):
        print(f"worker: simpart imported from {simpart.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import spec
    import tracing
    import workloads

    wl = spec.WORKLOADS[args.workload]
    params = wl["smoke" if args.smoke else "full"]
    setup, run, check = workloads.KINDS[wl["kind"]]

    inputs = setup(params, args.seed, args.work)
    setup_raw_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(tracing.ROOT, run)
    reference_before = reference_s()
    t0 = time.perf_counter()
    out = run(params, args.seed, inputs, tracer)
    wall_raw_s = time.perf_counter() - t0
    reference_after = reference_s()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = (reference_before + reference_after) / 2.0
    nominal = spec.NOMINAL_REFERENCE_S / reference
    if tracer is not None:
        tracer.uninstall()

    checks = workloads.Checks()
    info = check(params, args.seed, inputs, out, checks)
    with open(out["artifact"], "rb") as fh:
        artifact_sha256 = hashlib.sha256(fh.read()).hexdigest()

    result = {
        "wall_s": wall_raw_s * nominal,
        "setup_s": setup_raw_s * nominal,
        "wall_raw_s": wall_raw_s,
        "setup_raw_s": setup_raw_s,
        "reference_s": reference,
        "peak_rss_mib": peak_rss_mib,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "info": info,
        "artifact_sha256": artifact_sha256,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "threads_env": {k: os.environ.get(k) for k in spec.THREAD_VARS},
    }
    if tracer is not None:
        spans_path = os.path.join(args.work, f"spans-{os.getpid()}.csv")
        tracer.write(spans_path)
        result["spans"] = spans_path
        result["absent"] = sorted(tracer.absent)
        layers = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.absent, info.get("iterations", 0))
        layers["partition.decomposition_checks"] = info.get("decomposition_checks", 0)
        layers["optimizer.iterations"] = info.get("iterations", 0)
        layers["optimizer.evaluations"] = info.get("evaluations", 0)
        layers["serialization.partition_bytes"] = info.get("partition_bytes", 0)
        layers["simpart.import_s"] = import_s
        result["layers"] = layers
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
