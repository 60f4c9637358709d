"""Workload sizes and metric names, shared by the runner and its workers.

Sizes are chosen so that one operation takes about 3 s on one core of a
2-CPU Xeon box, which lets a 25 s run repeat it in five or six fresh
interpreters and report medians.  Smoke sizes finish in well under a
second and only exercise the code paths.
"""

WORKLOADS = {
    # Monte Carlo audit in d=3: the route an exact d<=3 solid angle replaces.
    "audit-kuhn3": {
        "kind": "audit",
        "full": {"dim": 3, "rounds": 5, "samples": 20_000},
        "smoke": {"dim": 2, "rounds": 4, "samples": 2_000},
    },
    # Same audit in d=4, which stays Monte Carlo: the bypass workload for
    # exact angles, and ~20 cones per vertex for shared direction batches.
    "audit-kuhn4": {
        "kind": "audit",
        "full": {"dim": 4, "rounds": 3, "samples": 20_000},
        "smoke": {"dim": 4, "rounds": 0, "samples": 20_000},
    },
    # Branch and bound on a seeded shifted sphere; no cones at all.
    "optimize-d3": {
        "kind": "optimize",
        "full": {"dim": 3, "budget": 3_000, "tol": 1e-3, "lipschitz": 4.0},
        "smoke": {"dim": 3, "budget": 500, "tol": 1e-3, "lipschitz": 4.0},
    },
    # refine + valence + eta_min + write, then read back and compare.
    "partition-io": {
        "kind": "partition-io",
        "full": {"dim": 3, "steps": 10},
        "smoke": {"dim": 2, "steps": 4},
    },
}

# Times are reported at a nominal machine speed: the measured time times
# NOMINAL_REFERENCE_S / reference_s, where reference_s is a fixed
# computation timed next to the operation (see worker.reference_s).  On a
# shared host the raw times drift by 25% and more between sets of runs.
# 0.5 s is about what reference_s takes on an idle 2-vCPU Xeon box.
NOMINAL_REFERENCE_S = 0.5

# (name, unit) reported with tracing off, on every workload.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

# Printed with tracing off next to the above, on the workloads they apply
# to, and reported by a traced run from its untraced repetitions.
WORKLOAD_METRICS = [
    ("wall_raw_s", "s"),
    ("reference_s", "s"),
    ("cones_per_s", "1/s"),
    ("evals_per_s", "1/s"),
    ("gap", "1"),
    ("fail_ratio", "1"),
]

# (name, unit) reported by a traced run, on every workload.  Layers a
# workload does not reach read 0.
PER_LAYER = [
    ("cones.cones_measured", "count"),
    ("cones.directions_drawn", "count"),
    ("cones.measure_s", "s"),
    ("cones.membership_s", "s"),
    ("cones.draw_s", "s"),
    ("cones.cone_at_point_s", "s"),
    ("cones.cone_ms_p50", "ms"),
    ("cones.cone_ms_p99", "ms"),
    ("cones.ns_per_direction", "ns"),
    ("partition.refine_s", "s"),
    ("partition.bisections", "count"),
    ("partition.bisect_s", "s"),
    ("partition.simplex_calls", "count"),
    ("partition.simplex_s", "s"),
    ("partition.valence_s", "s"),
    ("partition.boundary_mask_s", "s"),
    ("partition.min_regularity_s", "s"),
    ("partition.verify_self_s", "s"),
    ("partition.decomposition_checks", "count"),
    ("geometry.make_simplex_calls", "count"),
    ("geometry.make_simplex_s", "s"),
    ("geometry.regularity_ratio_s", "s"),
    ("geometry.barycentric_many_calls", "count"),
    ("geometry.barycentric_many_s", "s"),
    ("optimizer.iterations", "count"),
    ("optimizer.evaluations", "count"),
    ("optimizer.objective_s", "s"),
    ("optimizer.self_s", "s"),
    ("optimizer.us_per_iteration", "us"),
    ("serialization.read_partition_s", "s"),
    ("serialization.write_partition_s", "s"),
    ("serialization.partition_bytes", "B"),
    ("serialization.write_report_s", "s"),
    ("serialization.write_trace_s", "s"),
    ("cli.self_s", "s"),
    ("simpart.import_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
] + WORKLOAD_METRICS

# Pinned to 1 in every worker, so BLAS and OpenMP run on one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
