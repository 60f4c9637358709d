import math

import numpy as np
import pytest

from simpart.errors import (
    DegenerateSimplex,
    DimensionMismatch,
    InvalidPoint,
    UnsupportedDimension,
)
from simpart.geometry import (
    _longest_edges,
    _volumes,
    barycentric,
    barycentric_many,
    canonical_simplex,
    contains,
    make_simplex,
    regular_simplex_ratio,
    regularity_ratio,
)

from .oracles import (
    cayley_menger_volume,
    diameter_oracle,
    max_pairwise_distance,
    naive_max_pairwise_distance,
    norm,
    sample_uniform,
    simplex_metrics_one_by_one,
)
from .support import random_simplex

# rho of the regular d-simplex, sqrt(d+1) / (d! 2^(d/2)), d = 2..6
# (nearest doubles to the 50-digit values)
REGULAR_RATIO = {
    2: 0.4330127018922193,
    3: 0.11785113019775792,
    4: 0.02329237476562281,
    5: 0.003608439182435161,
    6: 0.0004593318248376025,
}


def test_make_simplex_validation():
    with pytest.raises(DimensionMismatch):
        make_simplex([[0, 0], [1, 0], [0, 1], [1, 1]])  # too many vertices
    with pytest.raises(DimensionMismatch):
        make_simplex([[0, 0], [1, 0], [0, 1, 2]])  # ragged
    with pytest.raises(UnsupportedDimension):
        make_simplex([[0.0], [1.0]])  # d = 1
    with pytest.raises(InvalidPoint):
        make_simplex([[0, 0], [1, np.nan], [0, 1]])
    with pytest.raises(DegenerateSimplex):
        make_simplex([[0, 0], [1, 1], [2, 2]])  # collinear
    # near-degenerate but above threshold still builds
    s = make_simplex([[0, 0], [1, 0], [0.5, 1e-9]])
    assert s.volume > 0


def test_simplex_vertices_are_immutable():
    s = make_simplex([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError):
        s.vertices[0, 0] = 5.0


def test_volume_unit_corner_is_inverse_factorial():
    for d in range(2, 7):
        s = canonical_simplex("unit-corner", d)
        assert s.volume == pytest.approx(1.0 / math.factorial(d), rel=1e-14)


def test_volume_against_cayley_menger():
    rng = np.random.default_rng(1001)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        s = random_simplex(d, rng)
        assert s.volume == pytest.approx(cayley_menger_volume(s.vertices), rel=1e-9)


def test_longest_edge_matches_pairwise_max():
    rng = np.random.default_rng(1002)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        s = random_simplex(d, rng)
        h, (i, j) = s.longest_edge
        dists = [norm(s.vertices[a] - s.vertices[b]) for a in range(d + 1) for b in range(a + 1, d + 1)]
        assert h == max(dists)
        assert h == norm(s.vertices[i] - s.vertices[j])
        assert i < j


def test_longest_edge_tie_break_is_lexicographic():
    # tall isoceles: edges (0,2) and (1,2) are bitwise equal (the squared
    # coordinates 0.5^2 and (-0.5)^2 are the same float) and both longest
    s = make_simplex([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]])
    h, pair = s.longest_edge
    assert h == float(np.linalg.norm(np.array([0.5, 2.0])))
    assert pair == (0, 2)


def test_stacked_metrics_match_one_by_one_bitwise():
    # the stacked lengths and determinant give the bits of per-pair norm
    # calls (squares summed in index order) and per-matrix det calls, on
    # non-dyadic vertices; rows of odd d sit at unaligned offsets.  A
    # built Simplex takes its volume and longest edge on first use from
    # the same kernels on a stack of one, so it gets those bits too
    rng = np.random.default_rng(1013)
    for d in range(2, 9):
        stack = rng.normal(size=(40, d + 1, d)) * rng.uniform(0.1, 10.0, size=(40, 1, 1))
        h, pairs = _longest_edges(stack)
        volumes = _volumes(stack)
        for k in range(40):
            volume, edge = simplex_metrics_one_by_one(stack[k])
            assert volumes[k] == volume
            assert (h[k], tuple(pairs[k].tolist())) == edge
            s = make_simplex(stack[k], id=str(k))
            assert (s.volume, s.longest_edge) == (volume, edge)
            assert s.vertices.tobytes() == stack[k].tobytes()
            assert s.id == str(k)


def test_stacked_longest_edges_keep_ties():
    tall = [[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]]  # edges (0,2) and (1,2) tie
    flat = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    h, pairs = _longest_edges(np.array([tall, flat, tall]))
    expected = simplex_metrics_one_by_one(tall)[1]
    assert (h[0], tuple(pairs[0].tolist())) == (h[2], tuple(pairs[2].tolist())) == expected
    assert expected[1] == (0, 2)


def test_regularity_ratio_invariances():
    rng = np.random.default_rng(1003)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        s = random_simplex(d, rng)
        rho = regularity_ratio(s)

        # random rotation via QR, translation, and positive scaling
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q *= np.sign(np.diag(r))
        shift = rng.normal(size=d) * 10
        scale = float(rng.uniform(0.1, 50))
        moved = make_simplex(scale * (s.vertices @ q.T) + shift)
        assert regularity_ratio(moved) == pytest.approx(rho, rel=1e-9)


def test_regular_simplex_ratio_closed_form():
    for d, expected in REGULAR_RATIO.items():
        assert regular_simplex_ratio(d) == pytest.approx(expected, rel=1e-14)
        # the canonical regular simplex realizes the value
        s = canonical_simplex("regular", d)
        assert regularity_ratio(s) == pytest.approx(expected, rel=1e-10)


def test_regular_simplex_maximizes_ratio():
    rng = np.random.default_rng(1004)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        s = random_simplex(d, rng)
        assert regularity_ratio(s) <= regular_simplex_ratio(d) + 1e-12


def test_canonical_regular_has_unit_edges():
    for d in range(2, 8):
        v = canonical_simplex("regular", d).vertices
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                assert np.linalg.norm(v[i] - v[j]) == pytest.approx(1.0, abs=1e-12)
        # centered at the origin
        assert np.allclose(v.mean(axis=0), 0.0, atol=1e-12)


def test_barycentric_reconstructs_point():
    rng = np.random.default_rng(1005)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        s = random_simplex(d, rng)
        lam = rng.dirichlet(np.ones(d + 1))
        p = lam @ s.vertices
        coords, inside = barycentric(s, p)
        assert inside
        assert coords.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(coords @ s.vertices, p, atol=1e-9)
        assert np.allclose(coords, lam, atol=1e-8)


def test_barycentric_gradients_invert_the_edges():
    # lambda_i(v_j) = delta_ij and the coordinates sum to 1, so the
    # gradients annihilate constants and invert the edge matrix
    rng = np.random.default_rng(1007)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        s = random_simplex(d, rng)
        g = s.barycentric_gradients
        assert g.shape == (d + 1, d) and not g.flags.writeable
        assert np.allclose(g @ s.edge_matrix, np.eye(d + 1)[:, 1:] - np.eye(d + 1)[:, :1], atol=1e-9)
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-9)


def test_barycentric_detects_outside_points():
    s = make_simplex([[0, 0], [2, 0], [0, 2]])
    assert contains(s, [0.5, 0.5])
    assert contains(s, [0.0, 0.0])  # vertex counts as inside
    assert contains(s, [1.0, 1.0])  # edge midpoint
    assert not contains(s, [1.2, 1.2])
    assert not contains(s, [-0.01, 0.5])


def test_barycentric_rejects_bad_input():
    s = make_simplex([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        barycentric(s, [0.1, 0.1, 0.1])
    with pytest.raises(InvalidPoint):
        barycentric(s, [np.inf, 0.0])


def test_barycentric_many_matches_single():
    rng = np.random.default_rng(1006)
    s = random_simplex(4, rng)
    pts = rng.normal(size=(25, 4))
    batch = barycentric_many(s, pts)
    for k in range(25):
        single, _ = barycentric(s, pts[k])
        assert np.allclose(batch[k], single, atol=1e-12)


def test_sample_uniform_stays_inside_and_is_seeded():
    rng = np.random.default_rng(1007)
    for d in (2, 3, 5):
        s = random_simplex(d, rng)
        pts = sample_uniform(s, 500, np.random.default_rng(99))
        assert pts.shape == (500, d)
        assert all(contains(s, p, tol=1e-9) for p in pts)
        again = sample_uniform(s, 500, np.random.default_rng(99))
        assert np.array_equal(pts, again)


def test_sample_uniform_mean_near_centroid():
    # first moment of the uniform law on a simplex is its centroid
    rng = np.random.default_rng(1008)
    s = random_simplex(3, rng)
    pts = sample_uniform(s, 20000, rng)
    assert np.allclose(pts.mean(axis=0), s.centroid, atol=0.05)


def test_max_pairwise_distance_matches_naive():
    rng = np.random.default_rng(1009)
    for _ in range(25):
        n = int(rng.integers(2, 400))
        d = int(rng.integers(2, 6))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 10)
        assert max_pairwise_distance(pts) == naive_max_pairwise_distance(pts)


def test_max_pairwise_distance_clustered_input():
    # two tight clusters far apart: pruning must keep the crossing pair
    rng = np.random.default_rng(1010)
    a = rng.normal(size=(300, 3)) * 0.01
    b = rng.normal(size=(300, 3)) * 0.01 + np.array([7.0, 0.0, 0.0])
    pts = np.vstack([a, b])
    assert max_pairwise_distance(pts) == naive_max_pairwise_distance(pts)


def test_diameter_oracle_never_below_longest_edge():
    rng = np.random.default_rng(1011)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        s = random_simplex(d, rng)
        h, _ = s.longest_edge
        assert diameter_oracle(s, samples=500, seed=7) >= h


def test_diameter_equals_longest_edge():
    # the sampled diameter of a simplex is exactly its longest edge:
    # the max over sampled pairs is attained at the included vertices
    rng = np.random.default_rng(1012)
    for _ in range(12):
        d = int(rng.integers(2, 5))
        s = random_simplex(d, rng)
        h, _ = s.longest_edge
        assert diameter_oracle(s, samples=4000, seed=11) == h


def test_diameter_oracle_is_deterministic():
    s = canonical_simplex("regular", 3)
    d1 = diameter_oracle(s, samples=1000, seed=5)
    d2 = diameter_oracle(s, samples=1000, seed=5)
    assert d1 == d2
