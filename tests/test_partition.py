import math

import numpy as np
import pytest

import simpart.cones as cones_mod
import simpart.optimizer as optimizer_mod
import simpart.partition as partition_mod
from simpart.cones import (
    EXACT_STDERR,
    cone_at_point,
    exact_solid_angle_fraction,
    max_intersection_bound,
    per_simplex_angle_bound,
)
from simpart.errors import (
    DegenerateSimplex,
    DimensionMismatch,
    EmptyPartition,
    InvalidPoint,
    PointOutsideDomain,
    UnsupportedDimension,
)
from simpart.geometry import (
    VOLUME_EPS_REL,
    _barycentric,
    _degenerate,
    _gradients,
    barycentric_many,
    canonical_simplex,
    make_simplex,
    regularity_ratio,
)
from simpart.optimizer import Objective, build_objective, optimize
from simpart.partition import (
    STRATEGIES,
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
from simpart.serialization import read_partition, write_partition

from .oracles import (
    bisect_longest_edge,
    closed_form_fraction,
    flat_scan_count,
    flat_scan_pairs,
    simplex_metrics_one_by_one,
)
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


def assert_nodes_match_fresh_builds(p):
    """Every node's simplex has the bits of one built alone from its vertices."""
    for node in p.nodes:
        s = p.simplex(node.id)
        verts = np.array([p.vertex_coords(v) for v in node.vertex_ids])
        fresh = make_simplex(verts)
        assert s.vertices.tobytes() == verts.tobytes() == fresh.vertices.tobytes()
        assert s.volume == fresh.volume
        assert s.longest_edge == fresh.longest_edge
        assert (s.volume, s.longest_edge) == simplex_metrics_one_by_one(verts)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_optimizer_nodes_match_fresh_builds(seed):
    # the branch and bound of the optimize-d3 benchmark workload
    centre = np.random.default_rng(seed).uniform(0.2, 0.8, 3)
    objective = Objective("shifted-sphere", lambda x: float(np.sum((x - centre) ** 2)), 4.0)
    r = optimize(objective, kuhn_triangulation(3), budget=3000, tol=1e-3)
    assert len(r.partition.nodes) > 20_000
    assert_nodes_match_fresh_builds(r.partition)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_largest_leaf_nodes_match_fresh_builds(d):
    # non-dyadic roots, so the midpoints round and the stacked dot is tested
    rng = np.random.default_rng(3010 + d)
    p = partition_from_simplices([random_simplex(d, rng)])
    refine(p, 300, "bisect-largest-leaf")
    assert_nodes_match_fresh_builds(p)


def test_degenerate_sibling_raises_only_when_requested():
    # rho 1.5e-12 at the root; bisecting the edge (0, 2) gives child 1 with
    # rho 3e-12 and child 2 with rho 7.5e-13, below VOLUME_EPS_REL: a
    # child's ratio can be half its parent's
    root = [[0.0, 0.0], [3e-12, 0.0], [1.5e-12, 1.0]]
    for first in (1, 2):
        p = Partition(2)
        p.add_root(root)
        assert p.bisect(0) == (1, 2)
        if first == 2:
            with pytest.raises(DegenerateSimplex):
                p.simplex(2)
        assert regularity_ratio(p.simplex(1)) == pytest.approx(3e-12, rel=1e-9)
        with pytest.raises(DegenerateSimplex):
            p.simplex(2)


def test_simplices_raises_at_a_degenerate_node_and_keeps_earlier_ones():
    # the root of the test above: child 2 is degenerate, child 1 is not;
    # bisect reads the root's edge from the node table and builds nothing
    p = Partition(2)
    p.add_root([[0.0, 0.0], [3e-12, 0.0], [1.5e-12, 1.0]])
    p.bisect(0)
    with pytest.raises(DegenerateSimplex):
        p.simplex(2)
    assert [p.simplex(i).id for i in (1, 0)] == ["1", "0"]


def test_volumes_raise_at_a_degenerate_node_and_keep_earlier_ones():
    # the same root: volumes checks what it measures as make_simplices
    # does, keeps the nodes before the first degenerate one, and raises
    # again when asked again; refine checks its leaves before bisecting
    thin = [[0.0, 0.0], [3e-12, 0.0], [1.5e-12, 1.0]]
    p = Partition(2)
    p.add_root(thin)
    p.bisect(0)
    with pytest.raises(DegenerateSimplex) as built:
        p.simplex(2)
    for _ in range(2):
        with pytest.raises(DegenerateSimplex) as measured:
            p.volumes([1, 2])
        assert str(measured.value) == str(built.value)
    assert p._vol[1] == p.simplex(1).volume and math.isnan(p._vol[2])
    for strategy in STRATEGIES:
        q = Partition(2)
        q.add_root(thin)
        refine(q, 1, strategy)
        with pytest.raises(DegenerateSimplex):
            refine(q, 1, strategy)
        assert len(q.nodes) == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stacked_volume_check_on_dyadic_roots_matches_one_by_one(d, monkeypatch):
    # volumes set at, one ulp above and one ulp below VOLUME_EPS_REL * h**d,
    # the threshold taken both in Python floats and in numpy, whose ** differs
    # from Python's in the last bit on some h: volumes keeps and raises at the
    # nodes the one-by-one _degenerate loop does, with its message.  The roots
    # have dyadic vertices, so every squared edge length is exact and h is the
    # same under any BLAS kernel; the volumes come from a stub, not from det.
    # With numpy 2.4 on x86-64 the two thresholds differ on a few percent of
    # the roots in d >= 3 (none in d = 2); where numpy's ** is Python's they agree
    rng = np.random.default_rng(5150 + d)
    p = Partition(d)
    while len(p.nodes) < 120:
        try:
            p.add_root(rng.integers(0, 64, (d + 1, d)) / 64.0)
        except DegenerateSimplex:
            pass
    ids = list(range(len(p.nodes)))
    h = p.longest_edges(ids)[0]
    at_numpy = (VOLUME_EPS_REL * h**d).tolist()
    at_python = [VOLUME_EPS_REL * hk**d for hk in h.tolist()]
    clear = [t * 2.0 ** int(rng.integers(1, 40)) for t in at_python]  # some within the stacked test's slack

    def near(k):
        """The six volumes at node k's two thresholds."""
        return [
            v for t in (at_python[k], at_numpy[k]) for v in (t, math.nextafter(t, math.inf), math.nextafter(t, 0.0))
        ]

    trials = [clear[:k] + [v] + clear[k + 1 :] for k in ids for v in near(k)]  # each node alone at each
    for share in np.linspace(0.0, 1.0, 40):  # a growing share of the nodes at one of their six
        vol = list(clear)
        for k in np.flatnonzero(rng.random(len(ids)) < share).tolist():
            vol[k] = near(k)[rng.integers(6)]
        trials.append(vol)
    measured = []
    monkeypatch.setattr(partition_mod, "_volumes", lambda verts: measured.pop())
    for vol in trials:
        first = None
        for k, (v, hk) in enumerate(zip(vol, h.tolist())):
            first = _degenerate(v, hk, d)
            if first is not None:
                break
        p._vol[: len(ids)] = np.nan
        measured.append(np.array(vol))
        if first is None:
            assert p.volumes(ids).tolist() == vol
            continue
        with pytest.raises(DegenerateSimplex) as raised:
            p.volumes(ids)
        assert str(raised.value) == str(first)
        assert p._vol[:k].tolist() == vol[:k] and np.isnan(p._vol[k : len(ids)]).all()


def test_rejected_root_leaves_the_partition_unchanged():
    square = [[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]]
    rejected = [
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], DegenerateSimplex),
        ([[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]], InvalidPoint),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], DimensionMismatch),
    ]
    p = Partition(2)
    for root in square:
        before = (len(p.nodes), p.n_vertices)
        for vertices, error in rejected:
            with pytest.raises(error):
                p.add_root(vertices)
            assert (len(p.nodes), p.n_vertices) == before
        p.add_root(root)
    assert (len(p.nodes), p.n_vertices) == (2, 4)
    refine(p, 3)
    fresh = Partition(2)
    for root in square:
        fresh.add_root(root)
    assert p == refine(fresh, 3)
    assert min_regularity(p) == min_regularity(fresh)


def test_partition_bisect_requires_leaf():
    p = kuhn_triangulation(2)
    p.bisect(0)
    with pytest.raises(ValueError):
        p.bisect(0)


def test_bisect_leaves_requires_distinct_leaves():
    p = kuhn_triangulation(2)
    p.bisect(0)
    for node_ids in ([0, 1], [1, 1]):
        with pytest.raises(ValueError):
            p.bisect_leaves(node_ids)
    with pytest.raises(IndexError):
        p.bisect_leaves([1, 4])
    assert len(p.nodes) == 4 and p.leaves == [1, 2, 3]


def bisected_one_at_a_time(p, steps):
    """refine's bisect-all-leaves rounds, as one Partition.bisect per leaf."""
    for _ in range(steps):
        for leaf in p.leaves:
            p.bisect(leaf)
    return p


@pytest.mark.parametrize(
    "root, d, steps",
    [
        ("kuhn", 2, 8), ("kuhn", 3, 6), ("kuhn", 4, 4), ("kuhn", 5, 2),
        ("random", 2, 8), ("random", 3, 7), ("random", 4, 6),
    ],
)
def test_stacked_round_equals_single_bisections_bitwise(root, d, steps):
    # random roots are not dyadic, so their midpoints round
    def fresh():
        if root == "kuhn":
            return kuhn_triangulation(d)
        return partition_from_simplices([random_simplex(d, np.random.default_rng(4100 + d))])

    stacked = refine(fresh(), steps)
    single = bisected_one_at_a_time(fresh(), steps)
    for got, want in zip(stacked._columns(), single._columns()):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert stacked.vertices.tobytes() == single.vertices.tobytes()
    assert stacked == single


def test_nodes_is_a_read_only_sequence_of_node_records(tmp_path):
    p = refine(kuhn_triangulation(2), 2)
    p.bisect(p.leaves[0])
    nodes = p.nodes
    assert len(nodes) == 2 + 4 + 8 + 2
    records = list(nodes)
    assert [n.id for n in records] == list(range(len(nodes)))
    for n in records:
        assert type(n.id) is int and type(n.generation) is int
        assert n.parent is None or type(n.parent) is int
        assert type(n.vertex_ids) is tuple and len(n.vertex_ids) == 3
        assert all(type(v) is int for v in n.vertex_ids)
        assert type(n.children) is tuple and len(n.children) in (0, 2)
        assert all(type(c) is int for c in n.children)
    assert records[0].parent is None and records[0].children == (2, 3)
    assert records[2].parent == 0 and records[2].generation == 1
    assert [n.id for n in records if n.parent is None] == p.roots
    assert [n.id for n in records if not n.children] == p.leaves
    assert nodes[-1] == records[-1] and nodes[1:3] == records[1:3]
    with pytest.raises(IndexError):
        nodes[len(nodes)]
    with pytest.raises(AttributeError):
        nodes[0].children = ()
    with pytest.raises(TypeError):
        nodes[0] = records[1]
    path = tmp_path / "p.json"
    write_partition(p, path)
    q = read_partition(path)
    assert q.nodes == p.nodes and list(q.nodes) == records
    q.bisect(q.leaves[0])
    assert q.nodes != p.nodes


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


def test_public_registry_entry_points_validate_points():
    # bisection registers its midpoints without these checks; the
    # public vertex_id and add_root keep them, and store a copy
    p = Partition(2)
    with pytest.raises(InvalidPoint):
        p.vertex_id([math.nan, 0.0])
    with pytest.raises(DimensionMismatch):
        p.vertex_id([0.0, 0.0, 0.0])
    with pytest.raises(InvalidPoint):
        p.add_root([[0.0, 0.0], [math.inf, 0.0], [0.0, 1.0]])
    q = np.array([0.5, 0.25])
    vid = p.vertex_id(q)
    q[0] = 9.0
    assert p.vertex_coords(vid).tolist() == [0.5, 0.25]
    assert p.vertex_id([0.5, 0.25]) == vid
    # -0.0 is stored as 0.0, so a written file reads back with the same bits
    zero = p.vertex_coords(p.vertex_id([-0.0, 1.0]))[0]
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


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


@pytest.mark.parametrize("d, steps", [(2, 40), (3, 54), (4, 30)])
def test_incidence_matches_flat_scan_of_every_pair(d, steps):
    # largest-leaf refinement leaves hanging vertices; the queries add
    # points on the facets of every root (the domain boundary and the
    # facets roots share), random interior points, and points outside
    # the unit cube, which must meet no leaf
    rng = np.random.default_rng(3100 + d)
    p = refine(kuhn_triangulation(d), steps, strategy="bisect-largest-leaf")
    leaves = {i: p.simplex(i).vertices for i in p.leaves}
    on_facets = []
    for root in p.roots:
        verts = p.simplex(root).vertices
        for i in range(d + 1):
            w = rng.dirichlet(np.ones(d + 1), size=3)
            w[:, i] = 0.0
            on_facets.append(w / w.sum(axis=1, keepdims=True) @ verts)
    outside = rng.random((20, d))
    outside[np.arange(20), rng.integers(0, d, 20)] = rng.choice([-0.25, 1.25], 20)
    points = np.vstack([p.vertices, *on_facets, rng.random((30, d)), outside])

    at_point, at_leaf = partition_mod._incidence(p, points)
    got = sorted(zip(at_point.tolist(), at_leaf.tolist()))
    expected = flat_scan_pairs(points, leaves)
    assert got == expected
    assert not set(at_point.tolist()) & set(range(len(points) - 20, len(points)))
    corners = np.bincount([v for i in p.leaves for v in p.nodes[i].vertex_ids], minlength=p.n_vertices)
    valences = np.bincount(at_point, minlength=len(points))[: p.n_vertices]
    assert np.any(valences > corners)  # some vertex hangs on a leaf face


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_barycentric_many_equals_the_descent_kernel_bitwise(d):
    # the descent gathers each pair's gradient rows 1..d and vertex 0 from
    # one _gradients stack of mixed nodes; on a random, non-dyadic root
    # every coordinate must keep the bits barycentric_many gives on the
    # node's own Simplex, on registry vertices and on random points
    rng = np.random.default_rng(3200 + d)
    p = refine(partition_from_simplices([random_simplex(d, rng)]), 2)
    points = np.vstack([p.vertices, rng.normal(size=(20, d))])
    nodes = np.arange(len(p.nodes))
    at = rng.permutation(np.repeat(nodes, len(points)))
    point = rng.integers(0, len(points), size=at.size)
    verts = p._corners(nodes)
    lam = _barycentric(_gradients(verts)[at, 1:], points[point] - verts[at, 0])
    for node in nodes.tolist():
        rows = at == node
        expected = barycentric_many(p.simplex(node), points[point[rows]])
        assert lam[rows].tobytes() == expected.tobytes()


def test_negative_ids_name_nodes_in_use_and_leave_spare_rows_alone():
    # the columns are read through their rows in use, so -1 is the last
    # node, as in a list, and no value lands in a spare buffer row that a
    # later node would inherit; kuhn(2)@1 has 6 nodes in an 8-row table
    p, q = refine(kuhn_triangulation(2), 1), refine(kuhn_triangulation(2), 1)
    assert p.longest_edges([-1])[0].tolist() == q.longest_edges([5])[0].tolist()
    assert p.volumes([-1]).tolist() == q.volumes([5]).tolist()
    assert p.bisect(2) == q.bisect(2) == (6, 7)
    assert math.isnan(p._vol[7]) and math.isnan(p._h[7])
    assert p.longest_edges([6, 7])[0].tolist() == q.longest_edges([6, 7])[0].tolist() == [math.sqrt(0.5)] * 2
    for bad in (8, -9):
        with pytest.raises(IndexError):
            p.longest_edges([bad])
        with pytest.raises(IndexError):
            p.volumes([bad])
    for bad in (8, -1):
        with pytest.raises(IndexError):
            p.simplex(bad)


def test_registry_valences_builds_no_simplex(monkeypatch):
    # the descent reads vertex coordinates from the registry, so the
    # leaves of a fresh refinement stay unbuilt
    p = refine(kuhn_triangulation(3), 4)
    expected = registry_valences(refine(kuhn_triangulation(3), 4))
    built = []
    monkeypatch.setattr(partition_mod, "make_simplex", lambda *a, **k: built.append(a))
    assert registry_valences(p).tolist() == expected.tolist()
    assert built == []


def test_each_pass_builds_its_nodes_in_one_stacked_call(monkeypatch, tmp_path):
    # kuhn(3)@4: every round, eta_min and the replay of each generation
    # measure their nodes at once, one _longest_edges and one _volumes
    # call each, and build no Simplex; the optimizer measures its roots'
    # edges, then each sweep's children's edges in one call and splits the
    # members it walked in one Partition._split call, without going through
    # bisect_leaves or _register_rows, and takes every child's volume at the
    # end in blocks of optimizer_mod._PLAN nodes
    calls = []

    def counted(module, name):
        kernel = getattr(module, name)

        def wrapper(verts, *args):
            calls.append((name, len(verts)))
            return kernel(verts, *args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("_longest_edges", "_volumes"):
        counted(partition_mod, name)
    p = kuhn_triangulation(3)
    for _ in range(4):
        refine(p, 1)
    min_regularity(p)
    rounds = [6, 12, 24, 48, 96]
    assert calls == [(name, n) for n in rounds for name in ("_longest_edges", "_volumes")]
    path = tmp_path / "p.json"
    write_partition(p, path)
    calls.clear()
    q = read_partition(path)
    assert calls == [(name, n) for n in rounds[:-1] for name in ("_longest_edges", "_volumes")]
    kuhn = kuhn_triangulation(3)
    counted(optimizer_mod, "_longest_edges")
    calls.clear()
    flushes, rebuilt = [], []
    split = partition_mod.Partition._split
    monkeypatch.setattr(
        partition_mod.Partition,
        "_split",
        lambda p, leaves, *rest: flushes.append(len(leaves)) or split(p, leaves, *rest),
    )
    for name in ("bisect_leaves", "_register_rows"):
        monkeypatch.setattr(partition_mod.Partition, name, lambda p, *args, name=name: rebuilt.append(name))
    r = optimize(build_objective("shifted-sphere", 3), kuhn, budget=300, tol=1e-3)
    assert sum(flushes) == r.leaves_explored and len(flushes) < r.leaves_explored
    assert rebuilt == []
    sweeps = [n // 2 for name, n in calls[2:] if name == "_longest_edges"]
    assert len(sweeps) == len(flushes) and all(m <= n for m, n in zip(flushes, sweeps))
    children, block = 2 * r.leaves_explored, optimizer_mod._PLAN
    assert calls == (
        [("_longest_edges", 6), ("_volumes", 6)]
        + [("_longest_edges", 2 * n) for n in sweeps]
        + [("_volumes", min(block, children - k)) for k in range(0, children, block)]
    )


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

def test_verify_theorem_kuhn2():
    report = verify_theorem(kuhn_triangulation(2))
    assert report.passed
    assert report.eta_min == pytest.approx(0.25, rel=1e-12)
    assert report.theoretical_bound == pytest.approx(34.15893689069427, rel=1e-9)
    assert report.max_observed_valence == 2
    assert report.total_pairs == len(report.per_vertex_checks) == 6
    # the two diagonal endpoints are boundary vertices with sums is 0.25+0.25
    sums = {c.vertex_id: c for c in report.decomposition_checks}
    assert len(sums) == 4
    assert all(not c.interior for c in report.decomposition_checks)


def test_verify_theorem_refined_kuhn2_decomposition():
    p = refine(kuhn_triangulation(2), 4)
    report = verify_theorem(p)
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
    report = verify_theorem(p)
    assert report.passed
    for check in report.per_vertex_checks:
        assert check.fraction == pytest.approx(1.0 / 6.0, abs=4 * check.stderr)
        assert check.strong_bound == pytest.approx(0.05070564148735936, rel=1e-12)


def test_verify_theorem_nonconforming_partition():
    # hanging vertices force face-cone contributions into the sums
    p = refine(kuhn_triangulation(2), 11, strategy="bisect-largest-leaf")
    hanging = _hanging_vertices(p)
    assert hanging, "expected at least one hanging vertex"
    report = verify_theorem(p)
    assert report.passed
    checked = {c.vertex_id: c for c in report.decomposition_checks}
    assert any(v in checked for v in hanging)


def test_verify_theorem_is_deterministic():
    p = refine(kuhn_triangulation(2), 2)
    a = verify_theorem(p)
    b = verify_theorem(p)
    assert a.per_vertex_checks == b.per_vertex_checks
    assert a.decomposition_checks == b.decomposition_checks
    assert a.eta_min == b.eta_min and a.max_observed_valence == b.max_observed_valence


@pytest.mark.parametrize("d, steps", [(4, 30), (6, 4)])
def test_decomposition_sums_are_left_to_right(monkeypatch, d, steps):
    # the audit sums rank by rank over all vertices at once; each sum and
    # its stderr must have the bits of a left-to-right sum over the
    # vertex's incidences in ascending leaf id, face cones included, and
    # the face cones must be cut in (vertex, leaf) order
    p = refine(kuhn_triangulation(d), steps, "bisect-largest-leaf")
    at_vertex, at_leaf = partition_mod._incidence(p, p.vertices)
    incidences = zip(at_vertex.tolist(), at_leaf.tolist())
    faces = sorted((v, leaf) for v, leaf in incidences if v not in p.nodes[leaf].vertex_ids)
    assert faces
    vid_of = {tuple(v): k for k, v in enumerate(p.vertices.tolist())}
    calls = []

    def counted(s, point, *args):
        calls.append((vid_of[tuple(point.tolist())], int(s.id)))
        return cone_at_point(s, point, *args)

    monkeypatch.setattr(partition_mod, "cone_at_point", counted)
    report = verify_theorem(p)
    assert calls == faces
    assert len(report.decomposition_checks) == p.n_vertices
    classes = {}
    corner = {(c.leaf_id, c.vertex_id): (c.fraction, c.stderr) for c in report.per_vertex_checks}
    for c in report.decomposition_checks:
        terms = []
        for leaf in sorted(at_leaf[at_vertex == c.vertex_id].tolist()):
            got = corner.get((leaf, c.vertex_id))
            if got is None:  # the vertex hangs on a face of this leaf
                cone = cone_at_point(p.simplex(leaf), p.vertex_coords(c.vertex_id))
                got = exact_solid_angle_fraction(cone, classes), EXACT_STDERR
            terms.append(got)
        assert c.valence == len(terms)
        assert c.fraction_sum.hex() == _sum_left_to_right(f for f, _ in terms).hex()
        assert c.combined_stderr.hex() == math.sqrt(_sum_left_to_right(se * se for _, se in terms)).hex()


def test_exact_audit_ignores_the_pair_cap():
    # there is no pair cap: an audit checks every pair and every sum
    p = refine(kuhn_triangulation(2), 3)  # 16 leaves, 48 pairs, 25 vertices
    report = verify_theorem(p)
    assert report.passed
    assert report.total_pairs == len(report.per_vertex_checks) == 48
    assert len(report.decomposition_checks) == p.n_vertices


def _sum_left_to_right(values):
    """A plain float sum in order, as the audit takes it (the builtin sum compensates from Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    [
        (3, 4, "bisect-all-leaves"),
        (2, 11, "bisect-largest-leaf"),
        (3, 54, "bisect-largest-leaf"),
        (4, 4, "bisect-all-leaves"),
        (5, 1, "bisect-all-leaves"),
        (4, 30, "bisect-largest-leaf"),
        (5, 12, "bisect-largest-leaf"),
    ],
)
def test_exact_interior_sums_are_one(d, steps, strategy):
    # in d <= 5 every cone is measured without sampling (closed forms, and
    # the checked quadrature for four and five facets), so the cones
    # around an interior vertex tile the sphere to rounding, face cones
    # at hanging vertices included; in kuhn(5)@12 the hanging centre
    # collects face cones with four facets
    p = refine(kuhn_triangulation(d), steps, strategy=strategy)
    report = verify_theorem(p)
    assert report.passed
    assert all(c.stderr == EXACT_STDERR for c in report.per_vertex_checks)
    interior = [c for c in report.decomposition_checks if c.interior]
    assert interior
    for c in interior:
        assert abs(c.fraction_sum - 1.0) <= 1e-12, (c.vertex_id, c.fraction_sum)
    if strategy == "bisect-largest-leaf":
        hanging = set(_hanging_vertices(p))
        assert hanging & {c.vertex_id for c in report.decomposition_checks}
        if (d, steps) != (4, 30):  # there every hanging vertex lies on the boundary
            assert hanging & {c.vertex_id for c in interior}


@pytest.mark.parametrize("d, steps", [(6, 1), (6, 2), (7, 0)])
def test_exact_audits_pass_in_d6_and_d7(d, steps):
    # six- and seven-facet vertex cones take one nested level of the
    # quadrature; around a vertex x of the Kuhn cube the cones tile the
    # cube's own tangent cone, an orthant in the m coordinates of x that
    # are 0 or 1, so every sum is 2^-m to rounding (1 at interior vertices)
    p = refine(kuhn_triangulation(d), steps)
    report = verify_theorem(p)
    assert report.passed and report.cone_classes > 0
    assert len(report.per_vertex_checks) == report.total_pairs
    assert all(c.stderr == EXACT_STDERR for c in report.per_vertex_checks)
    on_cube_facets = np.count_nonzero((p.vertices == 0.0) | (p.vertices == 1.0), axis=1)
    assert len(report.decomposition_checks) == p.n_vertices
    for c in report.decomposition_checks:
        assert abs(c.fraction_sum - 2.0 ** -on_cube_facets[c.vertex_id]) <= 1e-12, (c.vertex_id, c.fraction_sum)
    assert any(c.interior for c in report.decomposition_checks) == (steps > 0)


def _audit_case(name):
    if name == "kuhn4@2":
        return refine(kuhn_triangulation(4), 2)
    if name == "largest-kuhn4@30":
        return refine(kuhn_triangulation(4), 30, strategy="bisect-largest-leaf")
    if name == "kuhn5@1":
        return refine(kuhn_triangulation(5), 1)
    return refine(partition_from_simplices([random_simplex(4, np.random.default_rng(2300))]), 3)


@pytest.mark.parametrize("name", ["kuhn4@2", "largest-kuhn4@30", "kuhn5@1", "random4@3"])
def test_audit_fractions_equal_per_cone_measurement_bitwise(name):
    # the audit cuts corner cones from one stacked inverse and measures
    # each cone class once; neither may show in a single bit of the report
    p = _audit_case(name)
    for leaf, normals in zip(p.leaves, partition_mod._corner_normals(p, p.leaves)):
        for k, vid in enumerate(p.nodes[leaf].vertex_ids):
            got, expected = normals[k], cone_at_point(p.simplex(leaf), p.vertex_coords(vid))
            assert expected.id == f"{leaf}:v{k}"
            assert got.shape == expected.halfspaces.shape
            assert got.tobytes() == expected.halfspaces.tobytes()

    def per_cone(leaf, vid):
        return exact_solid_angle_fraction(cone_at_point(p.simplex(leaf), p.vertex_coords(vid)))

    report = verify_theorem(p)
    assert report.passed
    for c in report.per_vertex_checks:
        assert c.fraction.hex() == per_cone(c.leaf_id, c.vertex_id).hex()
    at_vertex, at_leaf = partition_mod._incidence(p, p.vertices)
    assert len(report.decomposition_checks) == p.n_vertices
    for c in report.decomposition_checks:
        leaves = sorted(at_leaf[at_vertex == c.vertex_id].tolist())
        assert c.fraction_sum.hex() == _sum_left_to_right(per_cone(leaf, c.vertex_id) for leaf in leaves).hex()
    # the sums of the last two cases take face cones at hanging vertices
    assert bool(_hanging_vertices(p)) == (name in ("largest-kuhn4@30", "random4@3"))


@pytest.mark.parametrize("name", ["kuhn3@4", "largest-kuhn4@30", "random4@3"])
def test_bound_at_eta_min_is_never_above_a_leaf_bound(name):
    # each cone is checked against its leaf's own bound only: eta_min is
    # the smallest of the same leaf ratios, so the bound at eta_min is the
    # smallest row bound, and a row that passes its own passes that one
    p = refine(kuhn_triangulation(3), 4) if name == "kuhn3@4" else _audit_case(name)
    report = verify_theorem(p)
    uniform = per_simplex_angle_bound(report.eta_min, p.d)
    assert all(uniform <= c.strong_bound for c in report.per_vertex_checks)
    assert uniform == min(c.strong_bound for c in report.per_vertex_checks)
    assert all(c.fraction >= uniform - 3.0 * c.stderr for c in report.per_vertex_checks if c.passed_strong)


@pytest.mark.parametrize(
    "d, steps, strategy",
    [(2, 6, "bisect-all-leaves"), (3, 5, "bisect-all-leaves"), (3, 30, "bisect-largest-leaf")],
)
def test_stacked_closed_form_cones_equal_per_cone_build_bitwise(d, steps, strategy):
    # in d = 2, 3 the audit cuts every corner cone from one stacked
    # inverse and takes the closed forms over the whole stack; on a random
    # root the normals must keep the bits of cone_at_point on the leaf's
    # own Simplex, and the fractions those of one-cone measurement and of
    # the Python-float formulas; the largest-leaf case adds face cones
    p = refine(partition_from_simplices([random_simplex(d, np.random.default_rng(2400 + d))]), steps, strategy)
    for leaf, normals in zip(p.leaves, partition_mod._corner_normals(p, p.leaves)):
        for k, vid in enumerate(p.nodes[leaf].vertex_ids):
            expected = cone_at_point(p.simplex(leaf), p.vertex_coords(vid)).halfspaces
            assert normals[k].shape == expected.shape
            assert normals[k].tobytes() == expected.tobytes()

    def per_cone(leaf, vid):
        return exact_solid_angle_fraction(cone_at_point(p.simplex(leaf), p.vertex_coords(vid)))

    report = verify_theorem(p)
    assert report.passed
    for c in report.per_vertex_checks:
        normals = cone_at_point(p.simplex(c.leaf_id), p.vertex_coords(c.vertex_id)).halfspaces
        assert c.fraction.hex() == per_cone(c.leaf_id, c.vertex_id).hex() == closed_form_fraction(normals).hex()
    at_vertex, at_leaf = partition_mod._incidence(p, p.vertices)
    for c in report.decomposition_checks:
        leaves = sorted(at_leaf[at_vertex == c.vertex_id].tolist())
        assert c.fraction_sum.hex() == _sum_left_to_right(per_cone(leaf, c.vertex_id) for leaf in leaves).hex()
    assert _hanging_vertices(p) or strategy == "bisect-all-leaves"


def test_report_counts_one_quadrature_per_cone_class(monkeypatch):
    calls = []
    quadrature = cones_mod._orthant_quadrature

    def counted(n, cone_id):
        calls.append(cone_id)
        return quadrature(n, cone_id)

    monkeypatch.setattr(cones_mod, "_orthant_quadrature", counted)
    report = verify_theorem(refine(kuhn_triangulation(4), 3))
    assert report.total_pairs == 960
    assert report.cone_classes == len(calls)
    assert 0 < report.cone_classes < report.total_pairs / 5


def test_verify_theorem_method_follows_dimension():
    # one route in every dimension: closed forms up to three facets, the
    # quadrature (nested from six facets on) beyond
    for p in (*map(kuhn_triangulation, (3, 4, 5)), partition_from_simplices([canonical_simplex("unit-corner", 6)])):
        report = verify_theorem(p)
        assert report.passed
        assert all(c.stderr == EXACT_STDERR for c in report.per_vertex_checks)
        assert (report.cone_classes > 0) == (p.d > 3)


def test_verify_theorem_empty():
    with pytest.raises(EmptyPartition):
        verify_theorem(Partition(2))
