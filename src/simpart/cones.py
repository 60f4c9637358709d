"""Tangent cones of simplices and their solid-angle measure.

The tangent cone of a simplex S at a point p collects the directions one
can move in from p without leaving S.  Its size is measured as a
fraction of the full sphere of directions: exactly, in closed form for
cones with at most three facets and by a checked quadrature beyond
(exact_solid_angle_fractions), and by Monte Carlo as an independent
check (solid_angle_fraction).  Two bounds tie the measure to the
regularity ratio:

* at any vertex of a simplex with rho(S) >= eta, the solid-angle
  fraction is at least eta * (d / (2 e pi))^(d/2);
* consequently at most (2 e pi / d)^(d/2) / eta cells of an eta-regular
  partition can meet at a point.

Both are computed from one shared base so their product telescopes
exactly.

A cone is one (k, d) matrix H of inward half-space normals: a direction
u lies in the cone exactly when H u >= 0.  The rows are the gradients of
the barycentric coordinates that vanish at p, so an interior point has
none, a point on a facet one, and a vertex d; testing a batch of
directions costs one matrix product.  The exact measure takes a whole
stack of such matrices at once (exact_solid_angle_fractions).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEta, PointOutsideSimplex, QuadratureError, UnsupportedDimension
from .geometry import MEMBERSHIP_TOL, Simplex, _norms, as_point, barycentric, regular_simplex_ratio

# SeedSequence entropy tag of the direction estimator's streams.
_DIRECTION_TAG = 101

# Rows of directions the estimator draws and tests at a time.
_DRAW_BLOCK = 1 << 16

# Rounding allowance reported as the standard error of an exact fraction.
# The closed forms are accurate to a few units in the last place (worst
# interior decomposition sum on kuhn(3)@6: 2.2e-15 away from 1), and a
# quadrature is only returned once two rules agree to QUADRATURE_TOL,
# 1e-13, at every level (worst interior sum on kuhn(4)@6: 5.8e-15, on
# kuhn(6)@2: 8.4e-14), so 4 sigma of one cone, 1e-12, is a wide margin
# that still lets the audit's sigma-based tests apply to exact rows
# unchanged.  It covers _orthant_quadrature's worst-case error budget up
# to seven facets, not at eight (3.4e-12).
EXACT_STDERR = 2.5e-13


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling budget for solid-angle estimates.

    ``samples`` is the total draw count, split across ``shards`` whose
    streams are seeded independently from (seed, tag, shard).  Estimates
    are reproducible for a fixed (seed, shards) pair.
    """

    samples: int = 1_000_000
    seed: int = 42
    shards: int = 4

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")
        if self.shards < 1 or self.shards > self.samples:
            raise ValueError(f"shards must be in [1, samples], got {self.shards}")


@dataclass(frozen=True)
class FractionEstimate:
    """Monte-Carlo solid-angle fraction with its binomial standard error."""

    cone_id: str
    fraction: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class VertexCone:
    """Tangent cone of a simplex at one of its points: {u : H u >= 0}.

    halfspaces is the (k, d) matrix H of inward normals, one row per
    barycentric coordinate that vanishes at the apex; k = 0 is the full
    space.  The test is homogeneous, so directions never need
    normalizing.
    """

    apex: np.ndarray
    halfspaces: np.ndarray
    id: str = "cone"

    @property
    def dimension(self) -> int:
        return self.apex.shape[0]

    def contains_directions(self, directions: np.ndarray) -> np.ndarray:
        """Boolean mask over an (n, d) array of directions."""
        u = np.asarray(directions, dtype=float)
        return np.all(self.halfspaces @ u.T >= 0.0, axis=0)


def cone_at_point(s: Simplex, p) -> VertexCone:
    """Tangent cone of s at a point p of s.

    The active set collects barycentric coordinates within MEMBERSHIP_TOL
    of zero, and the cone is cut by their gradients.  Only the id tells the
    cases apart: "<s>:int" for an interior point (no active coordinate),
    "<s>:v<k>" for vertex k (d active coordinates), and "<s>:f<i.j...>"
    for a point on the face where the listed coordinates vanish.

    Raises PointOutsideSimplex when p is not in s up to MEMBERSHIP_TOL.
    """
    p = as_point(p, s.dimension)
    lam, inside = barycentric(s, p)
    if not inside:
        raise PointOutsideSimplex(f"point is outside simplex {s.id} (min lambda {lam.min():.3e})")
    active = np.flatnonzero(lam <= MEMBERSHIP_TOL)
    if active.size == 0:
        where = "int"
    elif active.size == s.dimension:
        where = f"v{int(np.argmax(lam))}"
    else:
        where = "f" + ".".join(str(int(i)) for i in active)
    return VertexCone(apex=p, halfspaces=s.barycentric_gradients[active], id=f"{s.id}:{where}")


def _shard_sizes(config: MonteCarloConfig) -> list[int]:
    base, extra = divmod(config.samples, config.shards)
    return [base + (1 if i < extra else 0) for i in range(config.shards)]


def _count_hits(cone: VertexCone, config: MonteCarloConfig, tag: int) -> int:
    """Draws landing in the cone, over the shards of the (seed, tag) stream.

    Each shard's generator fills one reused buffer of at most _DRAW_BLOCK
    rows at a time, and each block is tested as it is drawn.  Successive
    fills continue the stream, so the draws are those of one call for the
    whole shard, and memory stays bounded by one block, not one shard.
    """
    sizes = _shard_sizes(config)
    buf = np.empty((min(_DRAW_BLOCK, sizes[0]), cone.dimension))
    hits = 0
    for shard, count in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, tag, shard]))
        for start in range(0, count, _DRAW_BLOCK):
            u = rng.standard_normal(out=buf[: min(_DRAW_BLOCK, count - start)])
            hits += int(np.count_nonzero(cone.contains_directions(u)))
    return hits


def solid_angle_fraction(cone: VertexCone, config: MonteCarloConfig = MonteCarloConfig()) -> FractionEstimate:
    """Fraction of the sphere of directions lying in the cone.

    Standard-normal direction vectors are spherically symmetric, so the
    hit rate estimates the solid-angle fraction directly.  The binomial
    standard error is taken at no fewer than one hit: a cone that draws
    none still has a fraction of order 1/n (the rule of three puts its
    95% upper limit at 3/n), not a certain 0.
    """
    n = config.samples
    hits = _count_hits(cone, config, _DIRECTION_TAG)
    floor = max(hits, 1) / n
    return FractionEstimate(
        cone_id=cone.id,
        fraction=hits / n,
        stderr=math.sqrt(floor * (1.0 - floor) / n),
        samples=n,
        seed=config.seed,
    )


def _angles(u: np.ndarray, v: np.ndarray) -> list[float]:
    """Angles between paired unit rows of two stacks, accurate near 0 and pi.

    Kahan's form 2 atan2(|u - v|, |u + v|) avoids the cancellation of acos
    near a dot product of +-1.  It is exact elementwise numpy and then
    math.atan2, since numpy's arctan2 rounds differently by SIMD level.
    """
    return [2.0 * math.atan2(y, x) for y, x in zip(_norms(u - v).tolist(), _norms(u + v).tolist())]


# Plackett's integral is accepted when a coarse and a fine Gauss-Legendre
# rule on [0, 1] agree to QUADRATURE_TOL.  The rules are tried in order:
# one panel of 32 and 64 nodes, then 15 panels shrinking by 0.2 toward the
# end point, where a nearly singular correlation matrix puts the integrand's
# square-root behaviour, with 16 and 24 nodes each.
QUADRATURE_TOL = 1e-13

# Elements of the largest array one pass of Plackett's integrand holds
# (2 MiB of doubles); a level with more laws takes them in chunks.
_CHUNK = 1 << 18


@functools.cache
def _plackett_rules() -> list[tuple[np.ndarray, ...]]:
    """(nodes, 1 - nodes, coarse weights, fine weights) of each rule.

    Both rules' nodes sit in one array, each weight vector zero on the
    other rule's nodes, so one pass evaluates both.  The distance to the
    end point is kept separately because it sets 1 - t r_ij there.
    """

    def gauss(n: int, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Newton's method on the Legendre polynomial P_n from the usual
        # cosine guesses, P_n and P_n' by the three-term recurrence, and
        # w = 2 / ((1 - x^2) P_n'(x)^2) (numpy.polynomial's leggauss does
        # the same but costs 1.4 MiB of imports); then panels
        # [1 - gaps[m], 1 - gaps[m + 1]], built on the distance to 1
        x = np.array([math.cos(math.pi * (m + 0.75) / (n + 0.5)) for m in range(n)])
        for _ in range(100):
            p_prev, p = np.ones(n), x
            for m in range(2, n + 1):
                p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
            slope = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / slope
            x = x - step
            if np.abs(step).max() <= 1e-16:
                break
        w = 2.0 / ((1.0 - x * x) * slope * slope)
        far, near = gaps[:-1, None], gaps[1:, None]
        return (near + (far - near) * (1.0 - x) / 2.0).ravel(), ((far - near) / 2.0 * w).ravel()

    rules = []
    for (n_coarse, n_fine), gaps in (
        ((32, 64), np.array([1.0, 0.0])),
        ((16, 24), np.array([0.2**m for m in range(15)] + [0.0])),
    ):
        (gc, wc), (gf, wf) = gauss(n_coarse, gaps), gauss(n_fine, gaps)
        gap = np.concatenate([gc, gf])
        rules.append((1.0 - gap, gap, np.concatenate([wc, 0.0 * wf]), np.concatenate([0.0 * wc, wf])))
    return rules


@functools.cache
def _plackett_layout(k: int) -> tuple[np.ndarray, ...]:
    """Index arrays of the pairs (i, j) and of the remaining k - 2 variables.

    For each pair: i, j, the rest, and the (a, b) entries of the rest's
    covariance, the k - 2 diagonal ones first and then the off-diagonal
    ones in triangular order; oa, ob point each off-diagonal entry at
    its two diagonal ones.
    """
    q = k - 2
    pairs = list(itertools.combinations(range(k), 2))
    rest = np.array([[m for m in range(k) if m not in pair] for pair in pairs])
    oa, ob = np.triu_indices(q, 1)
    a = np.concatenate([np.arange(q), oa])
    b = np.concatenate([np.arange(q), ob])
    i, j = np.array(pairs).T
    return i, j, rest, a, b, oa, ob


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis as elementwise sums.

    The quadrature keeps its output bytes off anything that rounds
    differently from one CPU to the next: numpy 2.4's arcsin, arctan2
    and power do, with and without AVX-512, and BLAS kernels pick their
    own summation order.  So it takes those functions from math and its
    dot products from here.
    """
    return (x * y).sum(axis=-1)


def _cone_classes(h: np.ndarray) -> np.ndarray:
    """Canonical unit normals of each cone of an (m, k, d) stack, the same for its whole class.

    Each column's sign is flipped so that its first nonzero entry is
    positive (adding 0.0 clears the -0.0 a flip makes of a zero), each
    cone's columns are sorted lexicographically (one stable np.lexsort
    over every column of the stack, the cone index as primary key), and
    each row is divided by its norm.  The first two steps are a signed
    permutation of the coordinates, an orthogonal map, and the last
    scales rows by positive factors, so no step changes the cone's
    fraction.  Every step but the division is exact, and it comes last,
    after the summation order of the norms is fixed: cones that differ
    by a signed permutation of the columns, a power-of-two scaling of
    rows or -0.0 for 0.0 get the same bits, in a stack of any size.
    """
    m, k, d = h.shape
    first = np.take_along_axis(h, (h != 0.0).argmax(axis=1)[:, None, :], axis=1)
    h = h * np.where(first < 0.0, -1.0, 1.0) + 0.0
    columns = h.transpose(0, 2, 1).reshape(m * d, k)
    order = np.lexsort((*columns.T[::-1], np.repeat(np.arange(m), d))).reshape(m, d) % d
    h = np.take_along_axis(h, order[:, None, :], axis=2)
    return h / np.sqrt(_dot(h, h))[..., None]


def _orthant_quadrature(n: np.ndarray, cone_id: str) -> float:
    """P(N Z >= 0) for Z ~ N(0, I) and k >= 4 unit rows, by Plackett's reduction.

    With R = N N^T the correlation of X = N Z, the orthant probability along
    R(t) = I + t (R - I) starts at 2^-k and grows by
    sum_{i<j} r_ij phi2(0, 0; t r_ij) P(rest >= 0 | X_i = X_j = 0) dt
    (Plackett, Biometrika 41, 1954).  The substitution theta = asin(t r_ij)
    turns r_ij phi2 dt into dtheta / 2pi, which removes the singularity of
    nearly parallel facets.  The conditional orthant has q = k - 2
    variables: 2^-q plus the arcsines of its correlations over
    2^(q-1) pi for q <= 3, and the same integral again on its correlations
    for q >= 4 (_orthants; Miwa, Hayter & Kuriki, J. R. Stat. Soc. B 65,
    2003), so k = 6 and 7 nest one level and k = 8 two.

    Conditioning on X_i = X_j = 0 is conditioning on X_i + X_j and
    X_i - X_j, which are uncorrelated with variances 2 (1 +- t r_ij), so
    the rest's covariance is
    C_ab = (1 - t) [a = b] + t r_ab
           - t^2 (p_a p_b / 2 (1 + t r_ij) + m_a m_b / 2 (1 - t r_ij))
    with p_a, m_a = r_ai +- r_aj.  At the outer level these are
    n_a . (n_i +- n_j) for the unit normals n, and asin(r_ij) is half the
    difference of the angles between n_i and -n_j and between n_i and n_j,
    so nearly parallel or antiparallel normals keep their precision.  The
    value depends on nothing but the bits of N, which is what lets one
    quadrature stand for a whole class (_cone_classes).

    Error budget: each level takes a value only when its two rules agree
    to QUADRATURE_TOL, and its pair weights alpha / 2pi add up to at most
    C(k, 2) / 4, so k variables are off by e_k <= QUADRATURE_TOL +
    C(k, 2) / 4 e_(k-2), e_2 = e_3 = rounding: 1e-13 for k = 4, 5, 4.75e-13
    for 6, 6.25e-13 for 7 and 3.4e-12 for 8 (measured: far less, see
    EXACT_STDERR).  A nested value no rule passes is NaN, which fails the
    enclosing check; at the outer level QuadratureError names the cone.

    Cost of one cone on a 2-vCPU x86 box (Python 3.11, numpy 2.4): 1 ms
    at k = 4, 5; 0.06-0.2 s at k = 6, 1-2 s when the outer level needs the
    graded rule; 0.3-0.9 s at k = 7; 8 minutes at k = 8 (482 s and 100 MiB
    peak for the equicorrelated cone: 2.2e9 arcsines, 96 nodes a level).
    """
    k = n.shape[0]
    i, j, rest, a, b, _, _ = _plackett_layout(k)
    plus, minus = n[i] + n[j], n[i] - n[j]
    # angles between n_i and n_j and between n_i and -n_j; asin(r_ij) is half their difference
    beta, gamma = np.array(
        [
            (2.0 * math.atan2(lm, lp), 2.0 * math.atan2(lp, lm))
            for lp, lm in zip(np.sqrt(_dot(plus, plus)).tolist(), np.sqrt(_dot(minus, minus)).tolist())
        ]
    ).T
    alpha = (gamma - beta) / 2.0
    used = np.flatnonzero(alpha)  # an orthogonal pair adds nothing
    if used.size == 0:
        return 2.0**-k
    rest, plus, minus, alpha, beta, gamma = (x[used] for x in (rest, plus, minus, alpha, beta, gamma))
    p, m = _dot(n[rest], plus[:, None, :]), _dot(n[rest], minus[:, None, :])
    off = np.where(a == b, 0.0, _dot(n[rest[:, a]], n[rest[:, b]]))
    value, gap = _plackett(k, p[None], m[None], off[None], alpha[None], beta[None], gamma[None])
    if not gap[0] <= QUADRATURE_TOL:
        raise QuadratureError(
            f"solid angle of cone {cone_id}: quadrature rules disagree by {gap[0]:.3e} "
            f"(tolerance {QUADRATURE_TOL:.1e})"
        )
    return float(value[0])


def _plackett(k, p, m, off, alpha, beta, gamma) -> tuple[np.ndarray, np.ndarray]:
    """Plackett's integral for a batch of k-variate laws: each one's value (NaN if no rule passes) and rule gap.

    Row l of each argument is law l, a column per pair (i, j): alpha =
    asin(r_ij), beta, gamma = pi/2 -+ alpha, and over the rest p_a, m_a and
    r_ab (off, as _plackett_layout's a, b, zero on the diagonal).  A pair
    with alpha = 0 adds nothing.  The laws go through each rule in chunks
    of at most _CHUNK elements per array, so memory stays bounded at every
    level, and no law's bits depend on the rest of its batch.
    """
    q = k - 2
    _, _, _, a, b, oa, ob = _plackett_layout(k)
    on_diag = (a == b).astype(float)
    pp, mm = p[..., a] * p[..., b] / 2.0, m[..., a] * m[..., b] / 2.0
    laws = [x[:, :, None] for x in (alpha, beta, gamma, off, pp, mm)] + [alpha / (2.0 * math.pi)]
    value, gap = np.full(len(alpha), np.nan), np.full(len(alpha), np.nan)
    where = np.arange(len(alpha))  # the open laws' rows of value and gap
    for nodes, gaps, coarse, fine in _plackett_rules():
        step = max(1, _CHUNK // (nodes.size * off[0].size))
        for start in range(0, where.size, step):
            al, be, ga, of, p2, m2, scale = (x[start : start + step] for x in laws)
            # 1 -+ sin(theta) = 2 sin^2((pi/2 -+ theta) / 2), where pi/2 - theta = beta + gap alpha
            one_minus = 2.0 * np.sin((be + gaps * al) / 2.0) ** 2
            one_plus = 2.0 * np.sin((ga - gaps * al) / 2.0) ** 2
            with np.errstate(invalid="ignore", divide="ignore"):  # a NaN fails the check below
                t = np.sin(al * nodes) / np.sin(al)  # 0 / 0 where alpha = 0, masked below
                t, one_minus, one_plus = t[..., None], one_minus[..., None], one_plus[..., None]
                cov = on_diag + t * of - t * t * (p2 / one_plus + m2 / one_minus)
                var = cov[..., :q]
                rho = cov[..., q:] / np.sqrt(var[..., oa] * var[..., ob])
            orthant = np.where(al != 0.0, _orthants(q, np.clip(rho, -1.0, 1.0)), 0.0)
            low = 2.0**-k + _dot(_dot(orthant, coarse), scale)
            high = 2.0**-k + _dot(_dot(orthant, fine), scale)
            rows = where[start : start + step]
            value[rows], gap[rows] = high, np.abs(high - low)
        still = ~(gap[where] <= QUADRATURE_TOL)
        if not still.any():
            break
        where, laws = where[still], [x[still] for x in laws]
    return np.where(gap <= QUADRATURE_TOL, value, np.nan), gap


def _orthants(q: int, r: np.ndarray) -> np.ndarray:
    """P(Y >= 0) for q-variate laws with unit variances and correlations r (a stack, in _plackett_layout's pair order).

    The arcsines of r give the closed form for q <= 3 and are alpha for
    q >= 4, where _plackett gets p_a, m_a = r_ai +- r_aj.
    """
    arcsines = np.fromiter(map(math.asin, r.ravel().tolist()), float, r.size).reshape(r.shape)
    if q <= 3:
        return 2.0**-q + arcsines.sum(axis=-1) / (2.0 ** (q - 1) * math.pi)
    i, j, rest, a, b, _, _ = _plackett_layout(q)
    alpha = arcsines.reshape(-1, r.shape[-1])
    full = np.ones((len(alpha), q, q))
    full[:, i, j] = full[:, j, i] = r.reshape(alpha.shape)
    ri, rj = full[:, rest, i[:, None]], full[:, rest, j[:, None]]
    off = np.where(a == b, 0.0, full[:, rest[:, a], rest[:, b]])
    value = _plackett(q, ri + rj, ri - rj, off, alpha, math.pi / 2.0 - alpha, math.pi / 2.0 + alpha)[0]
    return value.reshape(r.shape[:-1])


def exact_solid_angle_fractions(halfspaces: np.ndarray, ids, classes: dict | None = None) -> list[float]:
    """Fraction of the sphere of directions in each cone of a stack, without sampling.

    halfspaces is an (m, k, d) stack: the k inward normals of m cones, all
    with the same number of facets, and ids names each cone.  k = 0 is the
    full space (1), k = 1 a half-space (1/2), k = 2 a wedge whose opening
    is pi minus the angle between the normals, (pi - theta) / 2pi, and
    k = 3 a trihedral cone, whose solid angle is the spherical excess of
    its dihedral angles pi - theta_ij (Girard), over 4pi.  A cone with k
    normals is a k-dimensional cone times a flat factor, so the formulas
    hold in any ambient dimension; every cone of a simplex in d <= 3 has
    k <= 3.  Beyond three facets there is no elementary formula (Ribando,
    "Measuring solid angles beyond dimension three", 2006), but the
    fraction is the normal orthant probability P(H Z >= 0), a checked
    quadrature, nested from k = 6 on (_orthant_quadrature, which gives
    its error budget and cost), which raises QuadratureError naming the
    cone when no pair of rules agrees.

    The quadrature runs once per distinct class key (_cone_classes), on
    the first cone with it, so cones equal up to a signed permutation of
    the coordinates get the same bits.  A caller may pass a dict as
    classes, mapping each class measured so far to its fraction, to carry
    them from one call to the next.  No value depends on the dict, on the
    stack's size or on a cone's place in it.

    The normals must be linearly independent, as they are for every cone
    cone_at_point builds.
    """
    m, k, d = halfspaces.shape
    if k == 0:
        return [1.0] * m
    if k == 1:
        return [0.5] * m
    if k == 2 or (k == 3 and d >= 3):
        unit = halfspaces / _norms(halfspaces)[..., None]
        angles = [_angles(unit[:, i], unit[:, j]) for i, j in itertools.combinations(range(k), 2)]
        if k == 2:
            return [(math.pi - a) / (2.0 * math.pi) for a in angles[0]]
        return [(2.0 * math.pi - a01 - a02 - a12) / (4.0 * math.pi) for a01, a02, a12 in zip(*angles)]
    if k >= 4 and d >= k:
        classes = {} if classes is None else classes
        out = []
        for n, cone_id in zip(_cone_classes(halfspaces), ids):
            key = ((k, d), n.tobytes())
            fraction = classes.get(key)
            if fraction is None:
                fraction = classes[key] = _orthant_quadrature(n, cone_id)
            out.append(fraction)
        return out
    raise UnsupportedDimension(f"no exact solid angle for a cone with {k} facets in d={d}")


def exact_solid_angle_fraction(cone: VertexCone, classes: dict | None = None) -> float:
    """exact_solid_angle_fractions of the one cone."""
    return exact_solid_angle_fractions(cone.halfspaces[None], [cone.id], classes)[0]


def _bound_base(d: int) -> float:
    """(2 e pi / d)^(d/2), the conversion factor both bounds share."""
    if d < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
    return (2.0 * math.e * math.pi / d) ** (d / 2)


def _check_threshold(value: float, d: int, name: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidEta(f"{name} must be positive and finite, got {value}")
    top = regular_simplex_ratio(d)
    if value > top * (1.0 + 1e-12):
        warnings.warn(
            f"{name}={value:.6g} exceeds the regular-simplex ratio {top:.6g} in d={d}; "
            "no simplex attains it",
            stacklevel=3,
        )


def per_simplex_angle_bound(rho: float, d: int) -> float:
    """Lower bound on the solid-angle fraction at any vertex.

    A simplex with regularity ratio rho subtends at least
    rho / (2 e pi / d)^(d/2) of the sphere of directions at each of its
    vertices.
    """
    base = _bound_base(d)
    _check_threshold(rho, d, "rho")
    return rho / base


def max_intersection_bound(eta: float, d: int) -> float:
    """Upper bound on how many eta-regular cells can share a point.

    In an eta-regular partition, no point of the domain lies in more
    than (2 e pi / d)^(d/2) / eta cells.  The bound is the reciprocal of
    per_simplex_angle_bound(eta, d), exactly, since the cones at a
    shared vertex pack into the full sphere of directions.
    """
    base = _bound_base(d)
    _check_threshold(eta, d, "eta")
    return base / eta
