"""Acceptance gate for the package.

Each test exercises one shipped guarantee end to end and prints a single
verdict line (visible even under captured output), so a full run reads as a
checklist.  Monte-Carlo protocols all use SEED = 43; sample sizes are chosen
so that, for the least regular simplex each generator can emit, the
guaranteed minimum solid-angle fraction still yields at least ~50 expected
hits per cone, keeping the plug-in standard errors meaningful.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from simpart import (
    MonteCarloConfig,
    VertexCone,
    build_objective,
    cone_at_point,
    exact_solid_angle_fraction,
    kuhn_triangulation,
    make_simplex,
    max_intersection_bound,
    optimize,
    per_simplex_angle_bound,
    refine,
    regular_simplex_ratio,
    regularity_ratio,
    solid_angle_fraction,
    verify_theorem,
    write_fraction_csv,
    write_theorem_report_csv,
    write_trace_csv,
)

from .oracles import diameter_oracle
from .support import jittered_regular_simplex, random_simplex

SEED = 43

# Per-dimension direction samples for the random-simplex audit.  The family
# below never emits a simplex with rho < 0.3 * regular_simplex_ratio(d), so
# the smallest possible vertex fraction is 0.3 * rho_reg * (d/(2*e*pi))^(d/2)
# (5.0e-5 at d=5), and these counts put >= 50 expected hits on every cone.
AUDIT_SAMPLES = {2: 100_000, 3: 100_000, 4: 200_000, 5: 1_200_000}


def announce(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\n[acceptance {number}] {label}: {'PASS' if ok else 'FAIL'}")


def audit_simplex(d, rng, tag):
    """A jittered regular simplex with regularity at least 0.3x regular."""
    floor = 0.3 * regular_simplex_ratio(d)
    while True:
        jitter = float(rng.uniform(0.05, 0.3))
        s = jittered_regular_simplex(d, rng, jitter=jitter)
        if regularity_ratio(s) >= floor:
            return make_simplex(s.vertices, id=tag)


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-artifacts")


# The four seeded protocols below are plain functions so the determinism
# test can re-run each one from scratch and compare the emitted bytes.


def run_analytic_fractions(out_dir):
    mc = MonteCarloConfig(samples=1_000_000, seed=SEED, shards=4)
    estimates = []
    for d in range(2, 7):
        half = VertexCone(np.zeros(d), halfspaces=np.eye(d)[:1], id=f"half-space-{d}")
        orthant = VertexCone(np.zeros(d), halfspaces=np.eye(d), id=f"orthant-{d}")
        full = VertexCone(np.zeros(d), halfspaces=np.empty((0, d)), id=f"full-space-{d}")
        estimates += [solid_angle_fraction(c, mc) for c in (half, orthant, full)]
    path = out_dir / "analytic_fractions.csv"
    write_fraction_csv(estimates, path)
    return estimates, [path]


def run_vertex_bound_audit(out_dir):
    reports = {}
    paths = []
    for d in (2, 3):
        p = kuhn_triangulation(d)
        refine(p, 6)
        reports[d] = verify_theorem(p, MonteCarloConfig(20_000, SEED, 4))
        paths.append(out_dir / f"vertex_bounds_kuhn{d}.csv")
        write_theorem_report_csv(reports[d], paths[-1])
    estimates = []
    violations = []
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(np.random.SeedSequence([7341, d]))
        for k in range(50):
            s = audit_simplex(d, rng, tag=f"rand-{d}-{k}")
            bound = per_simplex_angle_bound(regularity_ratio(s), d)
            mc = MonteCarloConfig(AUDIT_SAMPLES[d], SEED, 4)
            for j in range(d + 1):
                est = solid_angle_fraction(cone_at_point(s, s.vertices[j]), mc)
                estimates.append(est)
                if est.fraction < bound - 3.0 * est.stderr:
                    violations.append((est.cone_id, est.fraction, bound, est.stderr))
    paths.append(out_dir / "random_cone_fractions.csv")
    write_fraction_csv(estimates, paths[-1])
    return reports, violations, paths


def run_theorem_audits(out_dir):
    reports = {}
    leaf_counts = {}
    paths = []
    for d, rounds in ((2, 10), (3, 6)):
        p = kuhn_triangulation(d)
        refine(p, rounds)
        leaf_counts[d] = len(p.leaves)
        reports[d] = verify_theorem(p, MonteCarloConfig(100_000, SEED, 4))
        paths.append(out_dir / f"theorem_kuhn{d}.csv")
        write_theorem_report_csv(reports[d], paths[-1])
    return reports, leaf_counts, paths


def run_optimizer(out_dir):
    result = optimize(
        build_objective("shifted-sphere", 2), kuhn_triangulation(2), budget=5000, tol=1e-3
    )
    path = out_dir / "optimizer_trace.csv"
    write_trace_csv(result.trace, path)
    return result, [path]


@pytest.fixture(scope="module")
def analytic_fractions(artifact_dir):
    t0 = time.perf_counter()
    estimates, paths = run_analytic_fractions(artifact_dir)
    return estimates, paths, time.perf_counter() - t0


@pytest.fixture(scope="module")
def vertex_bound_audit(artifact_dir):
    reports, violations, paths = run_vertex_bound_audit(artifact_dir)
    return reports, violations, paths


@pytest.fixture(scope="module")
def theorem_audits(artifact_dir):
    t0 = time.perf_counter()
    reports, leaf_counts, paths = run_theorem_audits(artifact_dir)
    return reports, leaf_counts, paths, time.perf_counter() - t0


@pytest.fixture(scope="module")
def optimizer_run(artifact_dir):
    t0 = time.perf_counter()
    result, paths = run_optimizer(artifact_dir)
    return result, paths, time.perf_counter() - t0


def test_acceptance_1_longest_edge_is_the_diameter(capsys):
    """10^4-point diameter search never beats the longest edge, and always ties it."""
    t0 = time.perf_counter()
    failures = []
    for d in range(2, 7):
        rng = np.random.default_rng(np.random.SeedSequence([2026, d]))
        for k in range(1000):
            s = random_simplex(d, rng)
            h = s.longest_edge[0]
            dia = diameter_oracle(s, samples=10_000, seed=k)
            if not (dia <= h + 1e-9 and dia == h):
                failures.append((d, k, h, dia))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 60.0
    announce(capsys, 1, "longest edge is the diameter (5000 simplices)", ok)
    assert not failures, failures[:5]
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_acceptance_2_analytic_cone_fractions(capsys, analytic_fractions):
    estimates, _, elapsed = analytic_fractions
    exact = {"half-space": 0.5, "orthant": None, "full-space": 1.0}
    bad = []
    for est in estimates:
        kind, d = est.cone_id.rsplit("-", 1)
        truth = exact[kind] if exact[kind] is not None else 2.0 ** -int(d)
        if kind == "full-space":
            if est.fraction != 1.0:
                bad.append((est.cone_id, est.fraction))
        elif abs(est.fraction - truth) > 3.0 * est.stderr:
            bad.append((est.cone_id, est.fraction, truth, est.stderr))
    ok = not bad and elapsed <= 120.0
    announce(capsys, 2, "half-space, orthant and full-space fractions", ok)
    assert not bad, bad
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_acceptance_3_exact_route_matches_direction_route(capsys):
    """Exact fractions against the direction estimator, vertex and face cones.

    Closed forms in d = 2, 3; in d = 4, 5 the quadrature, on audit_simplex
    cones at the AUDIT_SAMPLES budget.
    """
    disagreements = []
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(np.random.SeedSequence([5512, d]))
        mc = MonteCarloConfig(max(200_000, AUDIT_SAMPLES[d]), SEED, 4)
        for k in range(10):
            if d <= 3:
                s = make_simplex(
                    jittered_regular_simplex(d, rng, jitter=0.2).vertices, id=f"pair-{d}-{k}"
                )
            else:
                s = audit_simplex(d, rng, tag=f"pair-{d}-{k}")
            # a vertex, then a point whose zero barycentric coordinates
            # span a proper face (a facet in d=2, up to d-1 in d >= 3;
            # four in d=5 also goes to the quadrature)
            weights = rng.uniform(0.1, 1.0, d + 1)
            weights[rng.choice(d + 1, size=int(rng.integers(1, d)), replace=False)] = 0.0
            points = (s.vertices[int(rng.integers(0, d + 1))], weights / weights.sum() @ s.vertices)
            for point in points:
                cone = cone_at_point(s, point)
                exact = exact_solid_angle_fraction(cone)
                est = solid_angle_fraction(cone, mc)
                if abs(est.fraction - exact) > 4.0 * est.stderr:
                    disagreements.append((cone.id, exact, est.fraction, est.stderr))
    ok = not disagreements
    announce(capsys, 3, "exact solid angles agree with the direction estimator", ok)
    assert not disagreements, disagreements


def test_acceptance_4_per_vertex_angle_lower_bound(capsys, vertex_bound_audit):
    reports, violations, _ = vertex_bound_audit
    partition_fails = []
    for d, report in reports.items():
        assert report.audited_pairs == report.total_pairs
        partition_fails += [
            (d, c.leaf_id, c.vertex_id)
            for c in report.per_vertex_checks
            if not c.passed_strong
        ]
    ok = not partition_fails and not violations
    announce(capsys, 4, "fraction >= rho*(d/(2e*pi))^(d/2) at every vertex", ok)
    assert not partition_fails, partition_fails[:5]
    assert not violations, violations[:5]


def test_acceptance_5_closed_form_bound_constants(capsys):
    """Library arithmetic against a 50-digit evaluation of the same formulas."""
    mpmath.mp.dps = 50
    eta = math.sqrt(3) / 4
    base = 2 * mpmath.e * mpmath.pi / 2  # (2*e*pi/d)^(d/2) at d = 2
    ref_angle = float(mpmath.sqrt(3) / 4 / base)
    ref_bound = float(base / (mpmath.sqrt(3) / 4))
    angle = per_simplex_angle_bound(eta, 2)
    bound = max_intersection_bound(eta, 2)
    products = []
    for d in (2, 3, 4, 5, 6):
        x = 0.7 * regular_simplex_ratio(d)
        products.append(per_simplex_angle_bound(x, d) * max_intersection_bound(x, d))
    ok = (
        abs(angle - ref_angle) <= 1e-6
        and abs(bound - ref_bound) <= 1e-4
        and all(abs(p - 1.0) <= 1e-12 for p in products)
    )
    announce(capsys, 5, "closed-form bound constants", ok)
    assert abs(angle - ref_angle) <= 1e-6, (angle, ref_angle)
    assert abs(bound - ref_bound) <= 1e-4, (bound, ref_bound)
    for p in products:
        assert abs(p - 1.0) <= 1e-12, p


def test_acceptance_6_end_to_end_theorem_audit(capsys, theorem_audits):
    reports, leaf_counts, _, elapsed = theorem_audits
    ok = (
        leaf_counts[2] == 2048
        and reports[2].passed
        and reports[3].passed
        and reports[2].max_observed_valence <= reports[2].theoretical_bound
        and reports[3].max_observed_valence <= reports[3].theoretical_bound
        and elapsed <= 300.0
    )
    announce(capsys, 6, "theorem audit on kuhn(2)@10 and kuhn(3)@6", ok)
    assert leaf_counts[2] == 2048
    for d in (2, 3):
        assert reports[d].passed, f"audit failed for d={d}"
        assert reports[d].max_observed_valence <= reports[d].theoretical_bound
    assert elapsed <= 300.0, f"took {elapsed:.1f}s"


def test_acceptance_7_decomposition_sums_to_one(capsys, theorem_audits):
    reports, _, _, _ = theorem_audits
    bad = []
    n_interior = 0
    for d, report in reports.items():
        assert report.method == "exact"
        for c in report.decomposition_checks:
            if c.interior:
                n_interior += 1
                # exact fractions tile the sphere to rounding
                if abs(c.fraction_sum - 1.0) > min(4.0 * c.combined_stderr, 1e-12):
                    bad.append((d, c.vertex_id, c.fraction_sum, c.combined_stderr))
            elif c.fraction_sum > 1.0 + 4.0 * c.combined_stderr:
                bad.append((d, c.vertex_id, c.fraction_sum, c.combined_stderr))
    ok = not bad and n_interior > 0
    announce(capsys, 7, "incident fractions sum to one at registry vertices", ok)
    assert n_interior > 0
    assert not bad, bad[:5]


def test_acceptance_8_branch_and_bound_shifted_sphere(capsys, optimizer_run):
    result, _, elapsed = optimizer_run
    max_lb = max(row.lower_bound for row in result.trace)
    ok = (
        result.value <= 1e-3
        and result.evaluations <= 5000
        and max_lb <= 0.0
        and elapsed <= 10.0
    )
    announce(capsys, 8, "shifted sphere on the unit square", ok)
    assert result.value <= 1e-3, result.value
    assert result.evaluations <= 5000, result.evaluations
    assert max_lb <= 0.0, max_lb
    assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_acceptance_9_reruns_are_byte_identical(
    capsys,
    tmp_path_factory,
    analytic_fractions,
    vertex_bound_audit,
    theorem_audits,
    optimizer_run,
):
    rerun_dir = tmp_path_factory.mktemp("acceptance-rerun")
    first_run = analytic_fractions[1] + vertex_bound_audit[2] + theorem_audits[2] + optimizer_run[1]
    second_run = (
        run_analytic_fractions(rerun_dir)[1]
        + run_vertex_bound_audit(rerun_dir)[2]
        + run_theorem_audits(rerun_dir)[2]
        + run_optimizer(rerun_dir)[1]
    )
    mismatched = [
        a.name
        for a, b in zip(first_run, second_run)
        if a.read_bytes() != b.read_bytes()
    ]
    ok = not mismatched and len(first_run) == len(second_run) == 7
    announce(capsys, 9, "seeded re-runs emit byte-identical reports", ok)
    assert len(first_run) == 7
    assert not mismatched, mismatched
