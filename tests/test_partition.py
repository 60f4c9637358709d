import math

import numpy as np
import pytest

import simpart.partition as partition_mod
from simpart.cones import EXACT_STDERR, MonteCarloConfig, max_intersection_bound
from simpart.errors import EmptyPartition, PointOutsideDomain, UnsupportedDimension
from simpart.geometry import (
    canonical_simplex,
    make_simplex,
    regularity_ratio,
)
from simpart.partition import (
    Partition,
    boundary_vertex_mask,
    kuhn_triangulation,
    max_valence,
    min_regularity,
    partition_from_simplices,
    refine,
    registry_valences,
    verify_theorem,
    vertex_valence,
)

from .oracles import bisect_longest_edge, flat_scan_count
from .support import random_simplex


def leaf_vertex_sets(p):
    return {frozenset(map(tuple, p.simplex(i).vertices.tolist())) for i in p.leaves}


# ------------------------------------------------------------ construction


def test_kuhn_2d_roots():
    p = kuhn_triangulation(2)
    assert len(p.roots) == 2 and p.leaves == p.roots
    expected = {
        frozenset({(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)}),
        frozenset({(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}),
    }
    assert leaf_vertex_sets(p) == expected


def test_kuhn_volumes_and_diagonal():
    for d in (2, 3, 4):
        p = kuhn_triangulation(d)
        assert len(p.roots) == math.factorial(d)
        vols = [p.simplex(i).volume for i in p.roots]
        assert all(v == pytest.approx(1.0 / math.factorial(d), rel=1e-12) for v in vols)
        assert sum(vols) == pytest.approx(1.0, rel=1e-12)
        # every root carries the main diagonal's endpoints
        origin, far = p.vertex_id(np.zeros(d)), p.vertex_id(np.ones(d))
        for i in p.roots:
            vids = p.nodes[i].vertex_ids
            assert vids[0] == origin and vids[-1] == far


def test_kuhn_rejects_dimension_below_two():
    with pytest.raises(UnsupportedDimension):
        kuhn_triangulation(1)


def test_registry_dedup_across_roots():
    # d! roots share the cube corners; the registry holds each corner once
    p = kuhn_triangulation(3)
    assert p.n_vertices == 8


# ------------------------------------------------------------- bisection


def test_bisect_unit_right_triangle():
    s = make_simplex([[0, 0], [1, 0], [0, 1]])
    c1, c2 = bisect_longest_edge(s)
    assert set(map(tuple, c1.vertices.tolist())) == {(0.0, 0.0), (1.0, 0.0), (0.5, 0.5)}
    assert set(map(tuple, c2.vertices.tolist())) == {(0.0, 0.0), (0.0, 1.0), (0.5, 0.5)}
    assert c1.volume == pytest.approx(0.25, rel=1e-14)
    assert c2.volume == pytest.approx(0.25, rel=1e-14)


def test_bisect_equilateral_gives_right_triangles():
    s = canonical_simplex("regular", 2)
    c1, c2 = bisect_longest_edge(s)
    for c in (c1, c2):
        assert c.volume == pytest.approx(math.sqrt(3) / 8, rel=1e-12)
        # one interior angle is a right angle
        angles = []
        for k in range(3):
            a, b = [c.vertices[i] - c.vertices[k] for i in range(3) if i != k]
            angles.append(float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert min(abs(x) for x in angles) < 1e-12


def test_bisect_halves_volume_everywhere():
    rng = np.random.default_rng(3001)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        s = random_simplex(d, rng)
        c1, c2 = bisect_longest_edge(s)
        assert c1.volume == pytest.approx(s.volume / 2, rel=1e-9)
        assert c2.volume == pytest.approx(s.volume / 2, rel=1e-9)
        assert c1.volume + c2.volume == pytest.approx(s.volume, rel=1e-9)
        assert c1.longest_edge[0] <= s.longest_edge[0] + 1e-12
        assert c2.longest_edge[0] <= s.longest_edge[0] + 1e-12
        assert c1.id == f"{s.id}.0" and c2.id == f"{s.id}.1"


def test_partition_bisect_matches_standalone_bisection():
    # the registry children have the coordinates of an independent
    # standalone bisection, in the same order
    rng = np.random.default_rng(3002)
    for _ in range(10):
        s = random_simplex(int(rng.integers(2, 5)), rng)
        p = partition_from_simplices([s])
        kids = p.bisect(0)
        for node_id, child in zip(kids, bisect_longest_edge(s)):
            assert np.array_equal(p.simplex(node_id).vertices, child.vertices)


def test_partition_bisect_requires_leaf():
    p = kuhn_triangulation(2)
    p.bisect(0)
    with pytest.raises(ValueError):
        p.bisect(0)


def test_bisection_midpoints_merge_in_registry():
    # the registry identifies vertices by exact coordinates, so the
    # midpoint of a shared edge, made once from each cell around it, must
    # come out bitwise equal and collapse to one entry; kuhn(2)@1 makes the
    # midpoint of the diagonal both roots share twice.  A single shared
    # midpoint that failed to merge would raise a pinned count.
    cases = [
        (kuhn_triangulation(2), 1, 5),
        (kuhn_triangulation(2), 12, 4225),
        (kuhn_triangulation(3), 10, 1241),
        (kuhn_triangulation(4), 5, 97),
    ]
    for scale in (1e-6, 1e6):
        root = random_simplex(3, np.random.default_rng(6), scale=scale)
        cases.append((partition_from_simplices([root]), 6, 42))
    for p, steps, n_vertices in cases:
        refine(p, steps)
        assert p.n_vertices == n_vertices
        assert len(p.leaves) == len(p.roots) * 2**steps


# ------------------------------------------------------------- refinement


def test_refine_uniform_counts():
    for k in (1, 2, 5):
        p = refine(kuhn_triangulation(2), k)
        assert len(p.leaves) == 2 ** (k + 1)
        total = sum(p.simplex(i).volume for i in p.leaves)
        assert total == pytest.approx(1.0, rel=1e-9)


def test_refine_zero_steps_is_identity():
    p = kuhn_triangulation(3)
    before = [(n.id, n.parent, n.generation, n.vertex_ids, n.children) for n in p.nodes]
    refine(p, 0)
    after = [(n.id, n.parent, n.generation, n.vertex_ids, n.children) for n in p.nodes]
    assert before == after


def test_refine_validates_arguments():
    p = kuhn_triangulation(2)
    with pytest.raises(ValueError):
        refine(p, -1)
    with pytest.raises(ValueError):
        refine(p, 1, strategy="delaunay")


def test_refine_largest_leaf_targets_longest_edge():
    p = kuhn_triangulation(2)
    refine(p, 1, strategy="bisect-largest-leaf")
    # both roots tie at h = sqrt(2); the smaller node id (0) splits first
    assert p.nodes[0].children != ()
    assert p.nodes[1].children == ()
    assert len(p.leaves) == 3
    refine(p, 3, strategy="bisect-largest-leaf")
    assert len(p.leaves) == 6
    hs = [p.simplex(i).longest_edge[0] for i in p.leaves]
    # no remaining leaf is longer than any leaf that was split
    split_hs = [p.simplex(n.id).longest_edge[0] for n in p.nodes if n.children]
    assert max(hs) <= min(split_hs) + 1e-12


def test_generations_increment():
    p = refine(kuhn_triangulation(2), 3)
    for n in p.nodes:
        if n.parent is not None:
            assert n.generation == p.nodes[n.parent].generation + 1
    assert all(p.nodes[i].generation == 3 for i in p.leaves)


def test_child_volumes_tile_parent():
    p = refine(kuhn_triangulation(3), 3)
    for n in p.nodes:
        if n.children:
            parent_vol = p.simplex(n.id).volume
            child_vol = sum(p.simplex(c).volume for c in n.children)
            assert child_vol == pytest.approx(parent_vol, rel=1e-9)


# ------------------------------------------------------------- regularity


def test_min_regularity_single_equilateral():
    p = partition_from_simplices([canonical_simplex("regular", 2)])
    assert min_regularity(p) == pytest.approx(math.sqrt(3) / 4, rel=1e-12)


def test_min_regularity_kuhn2_is_quarter():
    assert min_regularity(kuhn_triangulation(2)) == pytest.approx(0.25, rel=1e-12)
    # the 2D family is closed under bisection: every descendant is again
    # a right isosceles triangle, so eta_min never drifts
    p = refine(kuhn_triangulation(2), 10)
    assert min_regularity(p) == pytest.approx(0.25, rel=1e-12)


def test_min_regularity_kuhn3_cycles_with_period_three():
    # three similarity classes rotate under uniform bisection; the
    # values below are regression constants measured from the ratios
    expected = {
        0: 0.032075014954979213,
        1: 0.029462782549439473,
        2: 0.041666666666666664,
    }
    for rounds in range(7):
        p = refine(kuhn_triangulation(3), rounds)
        assert min_regularity(p) == pytest.approx(expected[rounds % 3], rel=1e-9)


def test_min_regularity_empty():
    p = Partition(2)
    with pytest.raises(EmptyPartition):
        min_regularity(p)


# ---------------------------------------------------------------- valence


def test_vertex_valence_kuhn2_examples():
    p = kuhn_triangulation(2)
    assert vertex_valence(p, [1.0, 1.0]) == 2
    assert vertex_valence(p, [0.75, 0.25]) == 1
    assert vertex_valence(p, [1.0, 0.0]) == 1
    with pytest.raises(PointOutsideDomain):
        vertex_valence(p, [1.5, 0.5])


def test_vertex_valence_kuhn3_diagonal():
    p = kuhn_triangulation(3)
    assert vertex_valence(p, [0.5, 0.5, 0.5]) == 6


def test_valence_matches_flat_scan():
    rng = np.random.default_rng(3002)
    partitions = [
        refine(kuhn_triangulation(2), 4),
        refine(kuhn_triangulation(2), 25, strategy="bisect-largest-leaf"),
        refine(kuhn_triangulation(3), 2),
        refine(kuhn_triangulation(3), 54, strategy="bisect-largest-leaf"),
    ]
    for p in partitions:
        leaf_sets = [p.simplex(i).vertices for i in p.leaves]
        queries = rng.random((100, p.d))
        for q in queries:
            assert vertex_valence(p, q) == flat_scan_count(q, leaf_sets)
        vals = registry_valences(p)
        for vid in range(p.n_vertices):
            assert vals[vid] == flat_scan_count(p.vertex_coords(vid), leaf_sets)


def test_max_valence_witnesses():
    p2 = kuhn_triangulation(2)
    w, c = max_valence(p2)
    assert c == 2 and (np.allclose(w, [0, 0]) or np.allclose(w, [1, 1]))
    p3 = kuhn_triangulation(3)
    w, c = max_valence(p3)
    assert c == 6 and (np.allclose(w, np.zeros(3)) or np.allclose(w, np.ones(3)))


def test_max_valence_matches_brute_force_after_refinement():
    p = refine(kuhn_triangulation(2), 8)
    leaf_sets = [p.simplex(i).vertices for i in p.leaves]
    _, count = max_valence(p)
    brute = max(flat_scan_count(p.vertex_coords(v), leaf_sets) for v in range(p.n_vertices))
    assert count == brute == 8


def test_valence_respects_theorem_bound():
    for p in (
        refine(kuhn_triangulation(2), 9),
        refine(kuhn_triangulation(3), 5),
        refine(kuhn_triangulation(2), 40, strategy="bisect-largest-leaf"),
    ):
        _, count = max_valence(p)
        assert count <= max_intersection_bound(min_regularity(p), p.d)


# --------------------------------------------------------------- boundary


def test_boundary_mask_matches_cube_faces():
    for p in (
        refine(kuhn_triangulation(2), 6),
        refine(kuhn_triangulation(3), 4),
        refine(kuhn_triangulation(3), 54, strategy="bisect-largest-leaf"),
    ):
        mask = boundary_vertex_mask(p)
        coords = p.vertices
        on_face = np.any((np.abs(coords) < 1e-12) | (np.abs(coords - 1.0) < 1e-12), axis=1)
        assert np.array_equal(mask, on_face)


def test_boundary_mask_nonconvex_domain():
    # an L of three unit squares: the plane of the reentrant facet y = 1,
    # 1 <= x <= 2 also holds interior vertices with x < 1
    squares = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    p = Partition(2)
    for x, y in squares:
        p.add_root([[x, y], [x + 1, y], [x + 1, y + 1]])
        p.add_root([[x, y], [x, y + 1], [x + 1, y + 1]])
    refine(p, 2)
    x, y = p.vertices.T
    on_boundary = (
        (x == 0) | (y == 0) | ((x == 2) & (y <= 1)) | ((y == 2) & (x <= 1))
        | ((y == 1) & (x >= 1)) | ((x == 1) & (y >= 1))
    )
    assert not on_boundary.all() and np.array_equal(boundary_vertex_mask(p), on_boundary)


def test_boundary_mask_single_simplex():
    p = partition_from_simplices([canonical_simplex("regular", 2)])
    assert boundary_vertex_mask(p).all()


# ------------------------------------------------------------ verification

AUDIT = MonteCarloConfig(samples=20_000, seed=42, shards=2)


def test_verify_theorem_kuhn2():
    report = verify_theorem(kuhn_triangulation(2), AUDIT)
    assert report.passed
    assert report.eta_min == pytest.approx(0.25, rel=1e-12)
    assert report.theoretical_bound == pytest.approx(34.15893689069427, rel=1e-9)
    assert report.max_observed_valence == 2
    assert report.total_pairs == report.audited_pairs == 6
    # the two diagonal endpoints are boundary vertices with sums is 0.25+0.25
    sums = {c.vertex_id: c for c in report.decomposition_checks}
    assert len(sums) == 4
    assert all(not c.interior for c in report.decomposition_checks)


def test_verify_theorem_refined_kuhn2_decomposition():
    p = refine(kuhn_triangulation(2), 4)
    report = verify_theorem(p, AUDIT)
    assert report.passed
    interior = [c for c in report.decomposition_checks if c.interior]
    assert interior, "refined grid must have interior vertices"
    for c in interior:
        assert abs(c.fraction_sum - 1.0) <= 4 * c.combined_stderr
    boundary = [c for c in report.decomposition_checks if not c.interior]
    for c in boundary:
        assert c.fraction_sum <= 1.0 + 4 * c.combined_stderr
        # flat boundary points sit at half coverage or below (corners)
        assert c.fraction_sum < 0.75


def test_verify_theorem_single_equilateral():
    p = partition_from_simplices([canonical_simplex("regular", 2)])
    report = verify_theorem(p, AUDIT)
    assert report.passed
    for check in report.per_vertex_checks:
        assert check.fraction == pytest.approx(1.0 / 6.0, abs=4 * check.stderr)
        assert check.strong_bound == pytest.approx(0.05070564148735936, rel=1e-12)


def test_verify_theorem_nonconforming_partition():
    # hanging vertices force face-cone contributions into the sums
    p = refine(kuhn_triangulation(2), 11, strategy="bisect-largest-leaf")
    hanging = _hanging_vertices(p)
    assert hanging, "expected at least one hanging vertex"
    report = verify_theorem(p, AUDIT)
    assert report.passed
    checked = {c.vertex_id: c for c in report.decomposition_checks}
    assert any(v in checked for v in hanging)


def test_verify_theorem_is_deterministic():
    p = refine(kuhn_triangulation(2), 2)
    a = verify_theorem(p, AUDIT)
    b = verify_theorem(p, AUDIT)
    assert a.per_vertex_checks == b.per_vertex_checks
    assert a.decomposition_checks == b.decomposition_checks
    assert a.eta_min == b.eta_min and a.max_observed_valence == b.max_observed_valence


def test_verify_theorem_subsample_cap(monkeypatch):
    monkeypatch.setattr(partition_mod, "AUDIT_PAIR_CAP", 10)
    p = kuhn_triangulation(4)  # 24 leaves, 120 pairs, Monte Carlo route
    small = MonteCarloConfig(samples=2_000, seed=1, shards=1)
    capped = verify_theorem(p, small)
    assert capped.method == "monte-carlo"
    assert capped.total_pairs == 120 and capped.audited_pairs == 10
    full = verify_theorem(p, small, full_audit=True)
    assert full.audited_pairs == 120
    # estimates are pair-seeded, so overlapping pairs agree across runs
    by_pair = {(c.leaf_id, c.vertex_id): c.fraction for c in full.per_vertex_checks}
    for c in capped.per_vertex_checks:
        assert by_pair[(c.leaf_id, c.vertex_id)] == c.fraction
    # a vertex is summed only when every leaf it is a corner of was audited
    audited = {(c.leaf_id, c.vertex_id) for c in capped.per_vertex_checks}
    complete = [
        v for v in range(p.n_vertices)
        if all((leaf, v) in audited for leaf in p.leaves if v in p.nodes[leaf].vertex_ids)
    ]
    assert [c.vertex_id for c in capped.decomposition_checks] == complete


def test_exact_audit_ignores_the_pair_cap(monkeypatch):
    # the cap saves sampling time, which the exact route does not spend,
    # so a d <= 3 audit checks every pair and every sum whatever the seed
    monkeypatch.setattr(partition_mod, "AUDIT_PAIR_CAP", 10)
    p = refine(kuhn_triangulation(2), 3)  # 16 leaves, 48 pairs, 25 vertices
    for seed in (1, 2):
        report = verify_theorem(p, MonteCarloConfig(samples=2_000, seed=seed, shards=1))
        assert report.method == "exact" and report.passed
        assert report.total_pairs == report.audited_pairs == 48
        assert len(report.decomposition_checks) == p.n_vertices


def _hanging_vertices(p):
    """Registry vertices lying on the face of a leaf they are not a corner of."""
    corner_count = {}
    for leaf in p.leaves:
        for vid in p.nodes[leaf].vertex_ids:
            corner_count[vid] = corner_count.get(vid, 0) + 1
    vals = registry_valences(p)
    return [v for v in corner_count if vals[v] != corner_count[v]]


@pytest.mark.parametrize(
    "d, steps, strategy",
    [(3, 4, "bisect-all-leaves"), (2, 11, "bisect-largest-leaf"), (3, 54, "bisect-largest-leaf")],
)
def test_exact_interior_sums_are_one(d, steps, strategy):
    # in d <= 3 every cone is measured in closed form, so the cones around
    # an interior vertex tile the sphere to rounding, face cones at
    # hanging vertices included
    p = refine(kuhn_triangulation(d), steps, strategy=strategy)
    report = verify_theorem(p, AUDIT)
    assert report.method == "exact" and report.passed
    assert all(c.stderr == EXACT_STDERR for c in report.per_vertex_checks)
    interior = [c for c in report.decomposition_checks if c.interior]
    assert interior
    for c in interior:
        assert abs(c.fraction_sum - 1.0) <= 1e-12, (c.vertex_id, c.fraction_sum)
    if strategy == "bisect-largest-leaf":
        hanging = set(_hanging_vertices(p))
        assert hanging & {c.vertex_id for c in interior}


def test_verify_theorem_method_follows_dimension():
    small = MonteCarloConfig(samples=2_000, seed=1, shards=1)
    assert verify_theorem(kuhn_triangulation(3), small).method == "exact"
    report = verify_theorem(kuhn_triangulation(4), small)
    assert report.method == "monte-carlo"
    assert all(c.stderr != EXACT_STDERR for c in report.per_vertex_checks)


def test_verify_theorem_empty():
    with pytest.raises(EmptyPartition):
        verify_theorem(Partition(2), AUDIT)
