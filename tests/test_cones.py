import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simpart.cones as cones_mod
from simpart.cones import (
    EXACT_STDERR,
    FractionEstimate,
    MonteCarloConfig,
    VertexCone,
    cone_at_point,
    exact_solid_angle_fraction,
    max_intersection_bound,
    per_simplex_angle_bound,
    solid_angle_fraction,
)
from simpart.errors import InvalidEta, PointOutsideSimplex, QuadratureError, UnsupportedDimension
from simpart.geometry import barycentric_many, canonical_simplex, make_simplex, regularity_ratio

from .oracles import cone_class_one_by_one, orthant_fraction_mp, triangle_vertex_angle
from .support import jittered_regular_simplex, random_simplex

FAST = MonteCarloConfig(samples=40_000, seed=42, shards=4)


def unit_corner(d):
    return canonical_simplex("unit-corner", d)


# ---------------------------------------------------------------- cones


def test_cone_classification():
    s = unit_corner(3)
    interior = cone_at_point(s, [0.1, 0.1, 0.1])
    assert interior.id == f"{s.id}:int" and interior.halfspaces.shape == (0, 3)
    c = cone_at_point(s, [0.0, 0.0, 0.0])
    assert c.id == f"{s.id}:v0" and c.halfspaces.shape == (3, 3)
    assert np.allclose(c.halfspaces, np.eye(3))  # the orthant x, y, z >= 0
    f = cone_at_point(s, [0.5, 0.5, 0.0])  # on the face z = 0, lambda_0 = 0 too
    assert f.id == f"{s.id}:f0.3" and f.halfspaces.shape == (2, 3)
    with pytest.raises(PointOutsideSimplex):
        cone_at_point(s, [0.5, 0.5, 0.5])


def test_full_cone_contains_everything():
    c = cone_at_point(unit_corner(2), [0.2, 0.2])
    u = np.random.default_rng(3).standard_normal((50, 2))
    assert c.contains_directions(u).all()


def test_vertex_cone_span_and_normal_routes_agree():
    # the same cone admits two descriptions: the half-spaces of the active
    # barycentric gradients, or nonnegative combinations of the d edges
    # leaving the vertex, u = E c with c = inv(E) u >= 0
    rng = np.random.default_rng(2001)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        s = jittered_regular_simplex(d, rng)
        k = int(rng.integers(0, d + 1))
        cone = cone_at_point(s, s.vertices[k])
        assert cone.id == f"{s.id}:v{k}" and cone.halfspaces.shape == (d, d)
        edges = np.delete(s.vertices, k, axis=0) - s.vertices[k]
        u = rng.standard_normal((2000, d))
        via_normals = cone.contains_directions(u)
        via_spans = np.all(np.linalg.solve(edges.T, u.T) >= 0.0, axis=0)
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
    assert cone.halfspaces.shape == (n_active, d)
    assert cone.id.split(":")[1][0] == {"vertex": "v", "face": "f", "full": "i"}[kind]

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
    n0, n1 = cone.halfspaces
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


# ---------------------------------------------------------- exact route


def test_estimates_do_not_depend_on_the_draw_block(monkeypatch):
    # each shard's generator fills the buffer block by block, which continues
    # its stream, so blocks that do not divide the shards count the same hits
    rng = np.random.default_rng(77)
    config = MonteCarloConfig(samples=29_999, seed=7, shards=3)
    cones = [cone_at_point(s, s.vertices[0]) for s in (random_simplex(3, rng), random_simplex(6, rng))]
    whole = [solid_angle_fraction(cone, config) for cone in cones]
    monkeypatch.setattr(cones_mod, "_DRAW_BLOCK", 997)
    assert [solid_angle_fraction(cone, config) for cone in cones] == whole


def test_exact_closed_forms():
    for d in (2, 3):
        half = VertexCone(np.zeros(d), halfspaces=np.eye(d)[:1])
        full = VertexCone(np.zeros(d), halfspaces=np.empty((0, d)))
        orthant = cone_at_point(unit_corner(d), np.zeros(d))
        assert exact_solid_angle_fraction(half) == 0.5
        assert exact_solid_angle_fraction(full) == 1.0
        assert exact_solid_angle_fraction(orthant) == pytest.approx(2.0**-d, abs=1e-16)
    tri = canonical_simplex("regular", 2)
    for k in range(3):
        assert exact_solid_angle_fraction(cone_at_point(tri, tri.vertices[k])) == pytest.approx(
            1 / 6, abs=1e-16
        )
    # regular tetrahedron: three dihedral angles acos(1/3) at every vertex
    tet = canonical_simplex("regular", 3)
    expected = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
    for k in range(4):
        got = exact_solid_angle_fraction(cone_at_point(tet, tet.vertices[k]))
        assert got == pytest.approx(expected, abs=1e-16)


def test_exact_wedge_fraction():
    # an edge point of a tetrahedron: two active half-spaces whose normals
    # meet at theta leave a dihedral wedge of (pi - theta) / 2pi
    rng = np.random.default_rng(2003)
    for _ in range(20):
        s = random_simplex(3, rng)
        cone = cone_at_point(s, _point_with_active_set(s, [0, 1], rng))
        assert cone.id == f"{s.id}:f0.1" and cone.halfspaces.shape == (2, 3)
        n0, n1 = cone.halfspaces
        cos = float(n0 @ n1) / (np.linalg.norm(n0) * np.linalg.norm(n1))
        theta = math.acos(min(1.0, max(-1.0, cos)))
        expected = (math.pi - theta) / (2 * math.pi)
        assert exact_solid_angle_fraction(cone) == pytest.approx(expected, abs=1e-14)


def _van_oosterom_strackee(a, b, c) -> float:
    """40-digit solid-angle fraction of the cone spanned by a, b, c."""
    with mpmath.workdps(40):
        a, b, c = ([mpmath.mpf(float(x)) for x in v] for v in (a, b, c))
        dot = lambda x, y: sum(p * q for p, q in zip(x, y))
        la, lb, lc = (mpmath.sqrt(dot(v, v)) for v in (a, b, c))
        num = abs(mpmath.det(mpmath.matrix([a, b, c])))
        den = la * lb * lc + dot(a, b) * lc + dot(a, c) * lb + dot(b, c) * la
        return float(2 * mpmath.atan2(num, den) / (4 * mpmath.pi))


def test_exact_tetrahedron_vertices_match_van_oosterom_strackee():
    # the library sums dihedral angles of the half-space normals; the
    # reference works on the edge generators in 40-digit arithmetic
    rng = np.random.default_rng(2007)
    for _ in range(50):
        s = random_simplex(3, rng)
        for k in range(4):
            cone = cone_at_point(s, s.vertices[k])
            a, b, c = np.delete(s.vertices, k, axis=0) - s.vertices[k]
            assert abs(exact_solid_angle_fraction(cone) - _van_oosterom_strackee(a, b, c)) <= 1e-14


def test_exact_rejects_cones_without_closed_form():
    # more facets than dimensions: the normals are dependent, which no
    # cone of a simplex has, and the quadrature does not take them
    with pytest.raises(UnsupportedDimension):
        exact_solid_angle_fraction(VertexCone(np.zeros(3), np.vstack([np.eye(3), np.ones(3)])))
    # six facets go to the nested quadrature
    orthant6 = cone_at_point(unit_corner(6), np.zeros(6))
    assert exact_solid_angle_fraction(orthant6) == 2.0**-6
    # three facets in d >= 4 still form a trihedral cone times a flat factor
    edge4 = VertexCone(np.zeros(4), halfspaces=np.eye(4)[:3])
    assert exact_solid_angle_fraction(edge4) == pytest.approx(0.125, abs=1e-16)


# ------------------------------------- quadrature, four facets and more


def test_quadrature_matches_30_digit_plackett_integral():
    # the same integral in mpmath, over t without the arcsine substitution
    for d, expected in ((4, 0.0097846883724169), (5, 0.0019220437369844)):
        reg = canonical_simplex("regular", d)
        cone = cone_at_point(reg, reg.vertices[0])
        got = exact_solid_angle_fraction(cone)
        assert got == pytest.approx(expected, abs=1e-16)
        assert abs(got - orthant_fraction_mp(cone.halfspaces)) <= 1e-15
    rng = np.random.default_rng(2008)
    for d in (4, 5):
        for _ in range(2):
            s = random_simplex(d, rng)
            cone = cone_at_point(s, s.vertices[int(rng.integers(0, d + 1))])
            assert abs(exact_solid_angle_fraction(cone) - orthant_fraction_mp(cone.halfspaces)) <= 1e-15


def _rotated(h, rng):
    """The cone's normals in a random orthonormal frame: same fraction."""
    q, _ = np.linalg.qr(rng.standard_normal((h.shape[1], h.shape[1])))
    return h @ q


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_equicorrelated_orthant_is_one_over_k_plus_one(k):
    # k normals (e_i + e_k) / sqrt(2) meet at correlation 1/2, whose orthant
    # probability is 1 / (k + 1); from k = 6 on the conditional orthant is
    # itself a quadrature (one nested level at 6 and 7)
    h = np.zeros((k, k + 1))
    h[:, :k] = np.eye(k)
    h[:, k] = 1.0
    assert abs(exact_solid_angle_fraction(VertexCone(np.zeros(k + 1), h)) - 1.0 / (k + 1)) <= 1e-15


def test_quadrature_orthant_and_block_diagonal_oracles():
    rng = np.random.default_rng(2009)
    for k in (4, 5, 6):
        orthant = VertexCone(np.zeros(k), np.eye(k))
        assert exact_solid_angle_fraction(orthant) == 2.0**-k
        rotated = VertexCone(np.zeros(k), _rotated(np.eye(k), rng))
        assert exact_solid_angle_fraction(rotated) == pytest.approx(2.0**-k, abs=1e-15)
    # normals in orthogonal subspaces make independent events, so the
    # fraction is the product of the blocks' closed forms
    for _ in range(5):
        wedge, wedge2, tri = (rng.standard_normal((m, m)) for m in (2, 2, 3))
        f_wedge, f_wedge2, f_tri = (
            exact_solid_angle_fraction(VertexCone(np.zeros(len(x)), x)) for x in (wedge, wedge2, tri)
        )
        for a, b, expected in (
            (wedge, np.eye(2), f_wedge / 4),
            (wedge, wedge2, f_wedge * f_wedge2),
            (wedge, np.eye(3), f_wedge / 8),
            (tri, np.eye(2), f_tri / 4),
            (tri, wedge, f_tri * f_wedge),
            (tri, tri[::-1], f_tri * f_tri),  # six facets: the nested quadrature
            (wedge, np.eye(4), f_wedge / 16),
        ):
            h = np.zeros((len(a) + len(b),) * 2)
            h[: len(a), : len(a)] = a
            h[len(a) :, len(a) :] = b
            got = exact_solid_angle_fraction(VertexCone(np.zeros(len(h)), _rotated(h, rng)))
            assert got == pytest.approx(expected, abs=1e-15)


def test_quadrature_nearly_parallel_facets():
    # two normals 1e-6 rad apart and two orthogonal ones: a thin wedge
    # times a quarter, where the t integrand has a 1 / sqrt(1 - t^2 r^2) peak
    h = np.eye(4)
    h[1] = [1.0, 1e-6, 0.0, 0.0]
    wedge = (math.pi - math.atan2(1e-6, 1.0)) / (2 * math.pi)
    got = exact_solid_angle_fraction(VertexCone(np.zeros(4), h))
    assert abs(got - wedge / 4) <= 1e-12


def _flat_simplex():
    """A 4-simplex whose last vertex sits 0.1 above a facet's hyperplane."""
    v = np.vstack([np.zeros(4), np.eye(4)])
    v[4] = [1.0, 1.0, 1.0, 0.1]
    return make_simplex(v, id="flat")


def test_quadrature_moves_to_graded_rule(monkeypatch):
    # every correlation of this vertex cone is near +-1, so the integrand
    # bends sharply near t = 1: one 64-node panel misses, the graded rule
    # does not
    cone = cone_at_point(_flat_simplex(), np.zeros(4))
    got = exact_solid_angle_fraction(cone)
    assert abs(got - orthant_fraction_mp(cone.halfspaces)) <= 1e-15
    rules = cones_mod._plackett_rules()
    monkeypatch.setattr(cones_mod, "_plackett_rules", lambda: rules[:1])
    with pytest.raises(QuadratureError, match="flat:v0"):
        exact_solid_angle_fraction(cone)


def test_quadrature_raises_when_no_rule_passes(monkeypatch):
    monkeypatch.setattr(cones_mod, "QUADRATURE_TOL", 0.0)
    s = _flat_simplex()
    with pytest.raises(QuadratureError, match="flat:v4"):
        exact_solid_angle_fraction(cone_at_point(s, s.vertices[4]))


def test_quadrature_measures_every_random_vertex_cone():
    # 150 simplices per dimension down to 1% of the regular ratio: every
    # vertex cone passes a rule's check and sits above the paper's bound
    for d in (4, 5):
        rng = np.random.default_rng(2010 + d)
        for _ in range(150):
            s = random_simplex(d, rng)
            bound = per_simplex_angle_bound(regularity_ratio(s), d)
            for k in range(d + 1):
                assert exact_solid_angle_fraction(cone_at_point(s, s.vertices[k])) >= bound


@pytest.mark.parametrize("d, k", [(4, 4), (5, 4), (5, 5)])
def test_cone_class_key_decides_the_fraction_bitwise(d, k):
    # the quadrature runs on the class's canonical normals, so a signed
    # permutation of the coordinates, a power-of-two scaling of the rows
    # and -0.0 in place of 0.0 must leave every bit of the fraction as it
    # is; about a fifth of the entries are zeroed so that signs of zero
    # and ties in the column sort occur
    rng = np.random.default_rng(2200 + 10 * d + k)
    for _ in range(12):
        s = random_simplex(d, rng)
        h = s.barycentric_gradients[np.sort(rng.choice(d + 1, size=k, replace=False))].copy()
        zero = rng.random(h.shape) < 0.2
        zero[np.arange(k), np.argmax(np.abs(h), axis=1)] = False  # no row vanishes
        h[zero] = 0.0
        base = exact_solid_angle_fraction(VertexCone(np.zeros(d), h)).hex()
        signs = rng.choice([-1.0, 1.0], size=d)
        variants = (
            h[:, rng.permutation(d)] * signs,
            h * 2.0 ** rng.integers(-30, 31, size=(k, 1)).astype(float),
            np.where(h == 0.0, -0.0, h),
        )
        for v in variants:
            assert exact_solid_angle_fraction(VertexCone(np.zeros(d), v)).hex() == base
        # the class memo returns the same bits
        classes = {}
        for v in (h, *variants):
            assert exact_solid_angle_fraction(VertexCone(np.zeros(d), v), classes).hex() == base
        assert len(classes) == 1


@pytest.mark.parametrize("d, k", [(4, 4), (5, 4), (5, 5)])
def test_stacked_cone_class_keys_equal_per_cone_sort_bitwise(d, k):
    # one lexsort over every column of a stack must give each cone the key
    # of a per-cone Python sort; zeroed entries make signs of zero and ties
    # in the sort, and the stack repeats cones so that classes collapse
    rng = np.random.default_rng(2500 + 10 * d + k)
    h = np.array([random_simplex(d, rng).barycentric_gradients[:k] for _ in range(60)])
    h[rng.random(h.shape) < 0.2] = 0.0
    h[np.arange(60)[:, None], np.arange(k), np.argmax(np.abs(h), axis=2)] = 1.0  # no row vanishes
    h = np.concatenate([h, h[:, :, ::-1], -h])
    keys = cones_mod._cone_classes(h)
    for key, cone in zip(keys, h):
        assert key.tobytes() == cone_class_one_by_one(cone).tobytes()
    assert len({key.tobytes() for key in keys}) == 60


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 3),
    n_active=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_fraction_matches_monte_carlo(d, n_active, seed):
    # interior (0 active), facet (1), edge (2, d = 3) and vertex (d) points;
    # the binomial sigma is taken at the exact fraction, so a tiny cone
    # that draws no hit is still judged fairly
    n_active = min(n_active, d)
    rng = np.random.default_rng(seed)
    s = jittered_regular_simplex(d, rng, jitter=0.3)
    active = np.sort(rng.choice(d + 1, size=n_active, replace=False))
    cone = cone_at_point(s, _point_with_active_set(s, active, rng))
    exact = exact_solid_angle_fraction(cone)
    est = solid_angle_fraction(cone, MonteCarloConfig(samples=20_000, seed=seed, shards=2))
    sigma = math.sqrt(exact * (1.0 - exact) / est.samples)
    assert abs(est.fraction - exact) <= 4.0 * sigma + EXACT_STDERR


def test_zero_hit_estimate_keeps_a_positive_stderr():
    # a 1e-5 rad wedge holds 1.6e-6 of the circle: at 2000 draws it
    # almost surely draws no hit, yet its fraction is not certainly 0;
    # the stderr is taken at one hit, so 3 sigma (the rule of three's
    # 3/n scale) still covers the true fraction
    s = make_simplex([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-5]], id="thin")
    cone = cone_at_point(s, s.vertices[0])
    n = 2000
    est = solid_angle_fraction(cone, MonteCarloConfig(samples=n, seed=42, shards=2))
    assert est.fraction == 0.0
    assert est.stderr == math.sqrt((1 / n) * (1 - 1 / n) / n) > 0.0
    assert 3.0 * est.stderr >= exact_solid_angle_fraction(cone)


def test_fraction_estimate_fields():
    cone = cone_at_point(unit_corner(2), np.zeros(2))
    est = solid_angle_fraction(cone, FAST)
    assert isinstance(est, FractionEstimate)
    assert est.samples == 40_000 and est.seed == 42
    assert est.stderr == math.sqrt(est.fraction * (1 - est.fraction) / est.samples)


# ---------------------------------------------------------------- bounds


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
