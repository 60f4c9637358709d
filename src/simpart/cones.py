"""Tangent cones of simplices and their solid-angle measure.

The tangent cone of a simplex S at a point p collects the directions one
can move in from p without leaving S.  Its size is measured as a
fraction of the full sphere of directions: in closed form for cones
with at most three facets, which covers every cone in d <= 3, and by
Monte Carlo in general.  Two bounds tie the measure to the regularity
ratio:

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
directions costs one matrix product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEta, PointOutsideSimplex, UnsupportedDimension
from .geometry import MEMBERSHIP_TOL, Simplex, as_point, barycentric, regular_simplex_ratio

# SeedSequence entropy tag of the direction estimator's streams.
_DIRECTION_TAG = 101

# Rounding allowance reported as the standard error of an exact fraction.
# The closed forms are accurate to a few units in the last place (worst
# interior decomposition sum on kuhn(3)@6: 2.2e-15 away from 1), so
# 4 sigma of one cone, 1e-12, is a wide margin that still lets the
# audit's sigma-based tests apply to exact rows unchanged.
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


def cone_at_point(s: Simplex, p, tol: float = MEMBERSHIP_TOL) -> VertexCone:
    """Tangent cone of s at a point p of s.

    The active set collects barycentric coordinates within tol of zero,
    and the cone is cut by their gradients.  Only the id tells the cases
    apart: "<s>:int" for an interior point (no active coordinate),
    "<s>:v<k>" for vertex k (d active coordinates), and "<s>:f<i.j...>"
    for a point on the face where the listed coordinates vanish.

    Raises PointOutsideSimplex when p is not in s up to tol.
    """
    p = as_point(p, s.dimension)
    lam, inside = barycentric(s, p, tol)
    if not inside:
        raise PointOutsideSimplex(f"point is outside simplex {s.id} (min lambda {lam.min():.3e})")
    active = np.flatnonzero(lam <= tol)
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

    Each shard draws N(0, I) directions into one reused buffer sized to
    the largest shard, so memory stays bounded by one shard.
    """
    sizes = _shard_sizes(config)
    buf = np.empty((sizes[0], cone.dimension))
    hits = 0
    for shard, count in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, tag, shard]))
        u = rng.standard_normal(out=buf[:count])
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


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two nonzero vectors, accurate near 0 and pi.

    Kahan's form 2 atan2(|a' - b'|, |a' + b'|) on the unit vectors
    avoids the cancellation of acos near a dot product of +-1.
    """
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return 2.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


def exact_solid_angle_fraction(cone: VertexCone) -> float:
    """Closed-form fraction of the sphere of directions in the cone.

    Works on the k inward normals of the cone's half-space matrix: k = 0
    is the full space (1), k = 1 a half-space (1/2), k = 2 a wedge whose
    opening is pi minus the angle between the normals, (pi - theta) / 2pi,
    and k = 3 a trihedral cone, whose solid angle is the spherical excess
    of its dihedral angles pi - theta_ij (Girard), over 4pi.  A cone with
    k normals is a k-dimensional cone times a flat factor, so the formulas
    hold in any ambient dimension; every cone of a simplex in d <= 3 has
    k <= 3.
    Beyond three facets there is no elementary formula (Ribando,
    "Measuring solid angles beyond dimension three", 2006).

    The normals must be linearly independent, as they are for every cone
    cone_at_point builds.
    """
    h = cone.halfspaces
    k = h.shape[0]
    if k == 0:
        return 1.0
    if k == 1:
        return 0.5
    if k == 2:
        return (math.pi - _angle(h[0], h[1])) / (2.0 * math.pi)
    if k == 3 and cone.dimension >= 3:
        excess = 2.0 * math.pi - _angle(h[0], h[1]) - _angle(h[0], h[2]) - _angle(h[1], h[2])
        return excess / (4.0 * math.pi)
    raise UnsupportedDimension(
        f"no closed-form solid angle for a cone with {k} facets in d={cone.dimension}"
    )


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
