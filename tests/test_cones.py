import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpart.cones import (
    FractionEstimate,
    MonteCarloConfig,
    VertexCone,
    _barycentric_gradients,
    cone_at_point,
    max_intersection_bound,
    optimal_gaussian_scale,
    per_simplex_angle_bound,
    solid_angle_fraction,
    solid_angle_fraction_gaussian,
    sphere_surface_area,
)
from simpart.errors import InvalidEta, PointOutsideSimplex, UnsupportedDimension
from simpart.geometry import barycentric_many, canonical_simplex, make_simplex, regularity_ratio

from .oracles import gauss_cone_mass, triangle_vertex_angle
from .support import jittered_regular_simplex, random_simplex

FAST = MonteCarloConfig(samples=40_000, seed=42, shards=4)


def unit_corner(d):
    return canonical_simplex("unit-corner", d)


# ---------------------------------------------------------------- cones


def test_cone_classification():
    s = unit_corner(3)
    assert cone_at_point(s, [0.1, 0.1, 0.1]).kind == "full"
    c = cone_at_point(s, [0.0, 0.0, 0.0])
    assert c.kind == "vertex" and c.id == f"{s.id}:v0"
    assert np.allclose(c.spans, np.eye(3))
    f = cone_at_point(s, [0.5, 0.5, 0.0])  # on the face z = 0, lambda_0 = 0 too
    assert f.kind == "face" and f.id == f"{s.id}:f0.3"
    assert f.normals.shape == (2, 3)
    with pytest.raises(PointOutsideSimplex):
        cone_at_point(s, [0.5, 0.5, 0.5])


def test_full_cone_contains_everything():
    c = cone_at_point(unit_corner(2), [0.2, 0.2])
    u = np.random.default_rng(3).standard_normal((50, 2))
    assert c.contains_directions(u).all()


def test_vertex_cone_span_and_normal_routes_agree():
    # the same cone admits two descriptions: nonnegative combinations of
    # the edges, or the half-spaces of the active barycentric gradients
    rng = np.random.default_rng(2001)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        s = jittered_regular_simplex(d, rng)
        k = int(rng.integers(0, d + 1))
        cone = cone_at_point(s, s.vertices[k])
        assert cone.kind == "vertex"
        active = [i for i in range(d + 1) if i != k]
        normals = _barycentric_gradients(s)[active]
        u = rng.standard_normal((2000, d))
        via_spans = cone.contains_directions(u)
        via_normals = np.all(normals @ u.T >= 0.0, axis=0)
        assert np.array_equal(via_spans, via_normals)


def _point_with_active_set(s, active, rng):
    """A point of s whose barycentric coordinates vanish exactly on active."""
    weights = rng.uniform(0.1, 1.0, s.dimension + 1)
    weights[list(active)] = 0.0
    weights /= weights.sum()
    if np.count_nonzero(weights) == 1:
        return s.vertices[int(np.argmax(weights))].copy()
    return weights @ s.vertices


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(2, 5),
    kind=st.sampled_from(["vertex", "face", "full"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_halfspace_membership_matches_barycentric_reference(d, kind, seed):
    # u is in the tangent cone at p exactly when moving along u does not
    # decrease any barycentric coordinate that vanishes at p; barycentric
    # coordinates are affine, so lambda(p + t u) - lambda(p) has the sign
    # of the directional derivative for every t > 0
    rng = np.random.default_rng(seed)
    s = random_simplex(d, rng)
    n_active = {"vertex": d, "full": 0, "face": int(rng.integers(1, d))}[kind]
    active = np.sort(rng.choice(d + 1, size=n_active, replace=False))
    cone = cone_at_point(s, _point_with_active_set(s, active, rng))
    assert cone.kind == kind

    u = rng.standard_normal((400, d))
    lam_apex = barycentric_many(s, cone.apex[None, :])
    lam_moved = barycentric_many(s, cone.apex + u)  # t = 1
    change = (lam_moved - lam_apex)[:, active]
    scale = 1.0 + np.abs(lam_moved[:, active]) + np.abs(lam_apex[:, active])
    clear = np.all(np.abs(change) > 1e-12 * scale, axis=1)  # skip near-facet directions
    expected = np.all(change >= 0.0, axis=1)
    got = cone.contains_directions(u)
    assert got.dtype == bool and got.shape == (400,)
    assert np.array_equal(got[clear], expected[clear])
    assert clear.sum() >= 390

    for n in (0, 1):
        mask = cone.contains_directions(u[:n])
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(mask, got[:n])


def test_orthant_fraction_is_two_to_minus_d():
    for d in (2, 3, 4):
        cone = cone_at_point(unit_corner(d), np.zeros(d))
        est = solid_angle_fraction(cone, FAST)
        expected = 2.0**-d
        assert abs(est.fraction - expected) <= 4 * max(est.stderr, 1e-6)


def test_triangle_fractions_match_interior_angles():
    rng = np.random.default_rng(2002)
    for _ in range(6):
        s = jittered_regular_simplex(2, rng)
        k = int(rng.integers(0, 3))
        angle = triangle_vertex_angle(s.vertices, k)
        est = solid_angle_fraction(cone_at_point(s, s.vertices[k]), FAST)
        assert abs(est.fraction - angle / (2 * math.pi)) <= 4 * max(est.stderr, 1e-6)


def test_face_cone_wedge_fraction():
    # midpoint of an edge of the orthant simplex: two active half-spaces;
    # a wedge with normal angle theta covers (pi - theta) / 2pi of the sphere
    s = unit_corner(3)
    cone = cone_at_point(s, [0.5, 0.5, 0.0])
    n0, n1 = cone.normals
    theta = math.acos(float(n0 @ n1) / (np.linalg.norm(n0) * np.linalg.norm(n1)))
    expected = (math.pi - theta) / (2 * math.pi)
    est = solid_angle_fraction(cone, FAST)
    assert abs(est.fraction - expected) <= 4 * est.stderr


def test_estimates_are_deterministic_and_shard_sensitive():
    cone = cone_at_point(unit_corner(3), np.zeros(3))
    a = solid_angle_fraction(cone, FAST)
    b = solid_angle_fraction(cone, FAST)
    assert a == b
    c = solid_angle_fraction(cone, MonteCarloConfig(samples=40_000, seed=42, shards=1))
    assert c.fraction != a.fraction  # different stream layout
    assert abs(c.fraction - 0.125) <= 5 * c.stderr


def test_direction_and_gaussian_routes_agree():
    rng = np.random.default_rng(2003)
    for d in (2, 3, 4):
        s = jittered_regular_simplex(d, rng)
        cone = cone_at_point(s, s.vertices[0])
        a = solid_angle_fraction(cone, FAST)
        g = solid_angle_fraction_gaussian(cone, FAST)
        sigma = math.hypot(a.stderr, g.stderr)
        assert abs(a.fraction - g.fraction) <= 5 * max(sigma, 1e-6)
        assert g.gaussian_integral == g.fraction * math.pi ** (d / 2)


def test_gaussian_route_against_density_oracle():
    rng = np.random.default_rng(2004)
    s = jittered_regular_simplex(3, rng)
    cone = cone_at_point(s, s.vertices[1])
    est = solid_angle_fraction_gaussian(cone, MonteCarloConfig(samples=200_000, seed=7, shards=2))
    oracle = gauss_cone_mass(cone.apex, cone.spans, n=200_000, seed=1234)
    scale = math.pi ** 1.5
    sigma = scale * math.hypot(est.stderr, est.stderr)
    assert abs(est.gaussian_integral - oracle) <= 5 * max(sigma, 1e-4)


def test_fraction_estimate_fields():
    cone = cone_at_point(unit_corner(2), np.zeros(2))
    est = solid_angle_fraction(cone, FAST)
    assert isinstance(est, FractionEstimate)
    assert est.samples == 40_000 and est.seed == 42
    assert est.stderr == math.sqrt(est.fraction * (1 - est.fraction) / est.samples)


# ---------------------------------------------------------------- bounds


def test_sphere_surface_area_low_dimensions():
    assert sphere_surface_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_surface_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_surface_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
    assert sphere_surface_area(3, radius=2.0) == pytest.approx(16 * math.pi, rel=1e-14)
    with pytest.raises(UnsupportedDimension):
        sphere_surface_area(1)


def test_bound_reference_values():
    # 50-digit evaluations of the defining formulas, rounded to doubles
    s3_4 = math.sqrt(3) / 4
    assert per_simplex_angle_bound(s3_4, 2) == pytest.approx(0.05070564148735936, rel=1e-13)
    assert max_intersection_bound(s3_4, 2) == pytest.approx(19.721671409073775, rel=1e-13)
    assert max_intersection_bound(0.25, 2) == pytest.approx(34.15893689069427, rel=1e-13)
    tetra = 1 / (6 * math.sqrt(2))
    assert per_simplex_angle_bound(tetra, 3) == pytest.approx(0.008675691659551076, rel=1e-13)
    assert max_intersection_bound(tetra, 3) == pytest.approx(115.2645851468337, rel=1e-13)


def test_bound_product_identity():
    rng = np.random.default_rng(2005)
    from simpart.geometry import regular_simplex_ratio

    for _ in range(100):
        d = int(rng.integers(2, 9))
        x = float(rng.uniform(1e-6, 1.0)) * regular_simplex_ratio(d)
        prod = per_simplex_angle_bound(x, d) * max_intersection_bound(x, d)
        assert abs(prod - 1.0) <= 1e-12


def test_bound_monotonicity():
    # looser regularity admits more cells around a point
    assert max_intersection_bound(0.1, 2) > max_intersection_bound(0.2, 2)
    assert per_simplex_angle_bound(0.2, 2) > per_simplex_angle_bound(0.1, 2)


def test_bound_validation():
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(InvalidEta):
            max_intersection_bound(bad, 2)
        with pytest.raises(InvalidEta):
            per_simplex_angle_bound(bad, 2)
    with pytest.raises(UnsupportedDimension):
        max_intersection_bound(0.2, 1)
    with pytest.warns(UserWarning):
        max_intersection_bound(0.5, 2)  # above the regular-triangle ratio


def test_optimal_gaussian_scale_maximizes_radial_mass():
    for d in range(2, 8):
        x = optimal_gaussian_scale(d)
        assert x == pytest.approx(math.sqrt(d / 2), rel=1e-15)
        g = lambda t: t**d * math.exp(-(t**2))
        assert g(x) > g(x - 0.01)
        assert g(x) > g(x + 0.01)


def test_vertex_fractions_dominate_regularity_bound():
    # the per-vertex lower bound, evaluated at the simplex's own ratio,
    # sits below every sampled vertex fraction
    rng = np.random.default_rng(2006)
    cfg = MonteCarloConfig(samples=30_000, seed=11, shards=2)
    for d in (2, 3):
        for _ in range(5):
            s = jittered_regular_simplex(d, rng)
            bound = per_simplex_angle_bound(regularity_ratio(s), d)
            for k in range(d + 1):
                est = solid_angle_fraction(cone_at_point(s, s.vertices[k]), cfg)
                assert est.fraction >= bound - 4 * est.stderr


def test_cone_ids_flow_into_estimates():
    s = make_simplex([[0, 0], [1, 0], [0, 1]], id="T7")
    est = solid_angle_fraction(cone_at_point(s, [1.0, 0.0]), FAST)
    assert est.cone_id == "T7:v1"
