"""Metric quantities of a single simplex.

A simplex in dimension d >= 2 is stored as a (d+1, d) array of vertex
coordinates.  The module provides the exact quantities (volume, longest
edge, regularity ratio, barycentric coordinates).

The regularity ratio rho(S) = vol(S) / h(S)^d, with h(S) the longest
edge length, is the shape measure everything downstream is built on:
a partition is eta-regular when every cell satisfies rho(S) >= eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSimplex,
    DimensionMismatch,
    InvalidPoint,
    UnsupportedDimension,
)

# A point is a plain 1-D float array of length d; barycentric coordinates
# are a 1-D float array of length d+1 summing to 1.
Point = np.ndarray
BarycentricCoords = np.ndarray

# Relative degeneracy threshold: a simplex is rejected when
# vol(S) <= VOLUME_EPS_REL * h(S)^d.  Relative to h^d so the check is
# invariant under uniform scaling.
VOLUME_EPS_REL = 1e-12

# Default tolerance on barycentric coordinates for membership tests.
MEMBERSHIP_TOL = 1e-9


def as_point(p, d: int | None = None) -> Point:
    """Coerce ``p`` to a validated 1-D float64 coordinate array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D coordinate sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPoint("coordinates must be finite")
    if d is not None and arr.shape[0] != d:
        raise DimensionMismatch(f"expected dimension {d}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class Simplex:
    """Immutable simplex: d+1 vertices in R^d plus an opaque id.

    Construct through :func:`make_simplex`, which validates dimensions
    and nondegeneracy.  Derived quantities (edge matrix, barycentric
    gradients, volume, longest edge) are cached on first use; the vertex
    and gradient arrays are marked read-only so instances are safe to
    share between workers.
    """

    vertices: np.ndarray
    id: str = field(default="S", compare=False)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def edge_matrix(self) -> np.ndarray:
        """d x d matrix whose columns are v_i - v_0 for i = 1..d."""
        return (self.vertices[1:] - self.vertices[0]).T

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """(d+1, d) rows of grad lambda_i, the barycentric coordinates' gradients.

        Rows 1..d are the inverse of the edge matrix; row 0 is minus
        their sum, since the coordinates add up to 1.  Row i is also the
        inward normal of the facet opposite vertex i, so the tangent
        cones of the simplex are cut from these rows.
        """
        grads = np.linalg.inv(self.edge_matrix)
        grads = np.vstack([-grads.sum(axis=0), grads])
        grads.flags.writeable = False
        return grads

    @cached_property
    def volume(self) -> float:
        """|det(edge matrix)| / d!  (LU with partial pivoting)."""
        d = self.dimension
        return abs(float(np.linalg.det(self.edge_matrix))) / math.factorial(d)

    @cached_property
    def longest_edge(self) -> tuple[float, tuple[int, int]]:
        """(length, (i, j)) of the longest edge.

        Exact ties are broken by the lexicographically smallest vertex
        index pair so refinement is reproducible.  Lengths come from
        per-pair ``np.linalg.norm`` calls; every other distance in the
        package uses the same call so comparisons against h are bitwise
        consistent.
        """
        verts = self.vertices
        n = verts.shape[0]
        best = -1.0
        pair = (0, 1)
        for i in range(n - 1):
            for j in range(i + 1, n):
                length = float(np.linalg.norm(verts[i] - verts[j]))
                if length > best:
                    best = length
                    pair = (i, j)
        return best, pair

    @cached_property
    def centroid(self) -> Point:
        return self.vertices.mean(axis=0)


def make_simplex(vertices, id: str = "S") -> Simplex:
    """Validate and build a :class:`Simplex`.

    Parameters
    ----------
    vertices : sequence of d+1 points, each of dimension d >= 2.
    id : opaque identifier carried through serialization.

    Raises
    ------
    DimensionMismatch : point dimensions disagree or the count is not d+1.
    UnsupportedDimension : ambient dimension below 2.
    InvalidPoint : NaN or infinite coordinate.
    DegenerateSimplex : volume at or below the relative threshold.
    """
    try:
        arr = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch("vertex dimensions disagree") from exc
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D vertex array, got shape {arr.shape}")
    n, d = arr.shape
    if n != d + 1:
        raise DimensionMismatch(f"need d+1 vertices of dimension d, got {n} of dimension {d}")
    if d < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPoint("vertex coordinates must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    s = Simplex(vertices=arr, id=id)
    h, _ = s.longest_edge
    if s.volume <= VOLUME_EPS_REL * h**d:
        raise DegenerateSimplex(
            f"volume {s.volume:.3e} is degenerate relative to h^d = {h**d:.3e}"
        )
    return s


def regularity_ratio(s: Simplex) -> float:
    """Shape ratio rho(S) = vol(S) / h(S)^d.

    Invariant under translation, rotation, reflection and uniform
    scaling; tends to 0 as the simplex flattens toward a hyperplane.
    """
    h, _ = s.longest_edge
    return s.volume / h**s.dimension


def regular_simplex_ratio(d: int) -> float:
    """rho of the regular simplex: sqrt(d+1) / (d! * 2^(d/2)).

    No d-simplex has a larger regularity ratio.
    """
    if d < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
    return math.sqrt(d + 1) / (math.factorial(d) * 2 ** (d / 2))


def barycentric(s: Simplex, p, tol: float = MEMBERSHIP_TOL) -> tuple[BarycentricCoords, bool]:
    """Barycentric coordinates of ``p`` and a membership flag.

    Solves p = sum_i lambda_i v_i with sum_i lambda_i = 1: lambda_i for
    i >= 1 is the cached gradient row i times p - v_0, and lambda_0 is
    what is left of 1.  ``inside`` is true when every coordinate is
    >= -tol.
    """
    p = as_point(p, s.dimension)
    coords = barycentric_many(s, p[None, :])[0]
    inside = bool(np.all(coords >= -tol))
    return coords, inside


def barycentric_many(s: Simplex, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates for a (k, d) batch of points, shape (k, d+1)."""
    pts = np.asarray(points, dtype=float)
    lam_rest = (pts - s.vertices[0]) @ s.barycentric_gradients[1:].T
    lam0 = 1.0 - lam_rest.sum(axis=1)
    return np.column_stack([lam0, lam_rest])


def contains(s: Simplex, p, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership test via barycentric coordinates."""
    return barycentric(s, p, tol)[1]


def canonical_simplex(kind: str, d: int, id: str | None = None) -> Simplex:
    """Reference simplices used as fixtures and partition seeds.

    ``unit-corner``: vertices {0, e_1, ..., e_d}.
    ``regular``: all edges of length 1, centered at the origin (Helmert
    embedding of the regular simplex).
    """
    if d < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
    if kind == "unit-corner":
        verts = np.vstack([np.zeros(d), np.eye(d)])
    elif kind == "regular":
        # Orthonormal rows spanning the hyperplane sum(x) = 0 in R^(d+1);
        # the columns, scaled by 1/sqrt(2), are unit-edge vertices.
        helmert = np.zeros((d, d + 1))
        for k in range(1, d + 1):
            norm = math.sqrt(k * (k + 1))
            helmert[k - 1, :k] = 1.0 / norm
            helmert[k - 1, k] = -k / norm
        verts = helmert.T / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown canonical simplex kind: {kind!r}")
    return make_simplex(verts, id=id if id is not None else f"{kind}-d{d}")
