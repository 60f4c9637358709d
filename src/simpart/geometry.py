"""Metric quantities of a single simplex.

A simplex in dimension d >= 2 is stored as a (d+1, d) array of vertex
coordinates.  The module provides the exact quantities (volume, longest
edge, regularity ratio, barycentric coordinates).  Each formula has one
kernel over (m, d+1, d) stacks (_volumes, _longest_edges, _gradient_rows,
_barycentric); a Simplex calls it on a stack of one, and the partition
module on its node table, so both get the same bits.

The regularity ratio rho(S) = vol(S) / h(S)^d, with h(S) the longest
edge length, is the shape measure everything downstream is built on:
a partition is eta-regular when every cell satisfies rho(S) >= eta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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


def _numbers(values) -> bool:
    """True when every entry of nested lists, tuples and arrays is an int or a float (numpy reads True and "1" as 1)."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "iuf"
    if isinstance(values, (list, tuple)):
        return all(map(_numbers, values))
    return isinstance(values, (int, float, np.integer, np.floating)) and not isinstance(values, bool)


def as_point(p, d: int | None = None) -> Point:
    """Coerce ``p`` to a validated 1-D float64 coordinate array; each coordinate must be an int or a float."""
    if not _numbers(p):
        raise DimensionMismatch("a point must be a list of numbers")
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D coordinate sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPoint("coordinates must be finite")
    if d is not None and arr.shape[0] != d:
        raise DimensionMismatch(f"expected dimension {d}, got {arr.shape[0]}")
    return arr


@lru_cache(maxsize=None)
def _edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex pairs i < j in lexicographic order: index arrays i, j and their (E, 2) stack."""
    i, j = np.triu_indices(n, 1)
    return i, j, np.column_stack([i, j])


def _edge_matrices(verts: np.ndarray) -> np.ndarray:
    """(m, d, d) edge matrices of an (m, d+1, d) stack, columns v_i - v_0."""
    return (verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1)


def _volumes(verts: np.ndarray) -> np.ndarray:
    """(m,) volumes of an (m, d+1, d) stack: one stacked determinant."""
    return np.abs(np.linalg.det(_edge_matrices(verts))) / math.factorial(verts.shape[2])


def _norms(h: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, the squares summed left to right, not as numpy's sum pairs them."""
    total = h[..., 0] * h[..., 0]
    for c in range(1, h.shape[-1]):
        total = total + h[..., c] * h[..., c]
    return np.sqrt(total)


def _longest_edges(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Longest edges of an (m, d+1, d) stack: (m,) lengths and the (m, 2) vertex pairs (i, j).

    The lengths are _norms of the edge vectors: elementwise numpy with the
    squares summed in index order, so no BLAS kernel decides their bits
    and a simplex gets the same lengths in any stack.  The first maximal
    length wins (argmax), which is the lexicographically smallest pair.
    """
    i, j, pairs = _edge_pairs(verts.shape[1])
    lengths = _norms(verts.take(i, axis=1) - verts.take(j, axis=1))
    return lengths.max(axis=1), pairs[lengths.argmax(axis=1)]


def _gradient_rows(verts: np.ndarray) -> np.ndarray:
    """(m, d, d) gradient rows 1..d of an (m, d+1, d) stack: one stacked inverse of its edge matrices.

    LAPACK inverts each matrix on its own, so a member's rows do not
    depend on the rest of the stack.
    """
    return np.linalg.inv(_edge_matrices(verts))


def _gradients(verts: np.ndarray) -> np.ndarray:
    """(m, d+1, d) barycentric gradients of an (m, d+1, d) stack, row i the gradient of lambda_i.

    Rows 1..d are _gradient_rows; row 0 is minus their column sum, since
    the coordinates add up to 1.
    """
    inv = _gradient_rows(verts)
    return np.concatenate([-inv.sum(axis=1, keepdims=True), inv], axis=1)


def _barycentric(grads: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(..., d+1) barycentric coordinates of points p from their offsets p - v_0, (..., d).

    grads holds gradient rows 1..d, (d, d) or one such matrix per offset,
    (..., d, d).  lambda_i for i >= 1 is one einsum of row i with the offset,
    which unlike a matrix product does not go through BLAS, so the bits do
    not depend on the kernel OpenBLAS picks; lambda_0 is what is left of 1.
    Both are written in place into the output, the kernel's only
    allocation, so a caller that gathers rows per point (the valence
    descent) holds no more than the rows, the offsets and the output.
    """
    lam = np.empty(offsets.shape[:-1] + (offsets.shape[-1] + 1,))
    np.einsum("...ij,...j->...i", grads, offsets, out=lam[..., 1:])
    lam[..., 1:].sum(axis=-1, out=lam[..., 0])
    np.subtract(1.0, lam[..., 0], out=lam[..., 0])
    return lam


def _degenerate(volume: float, h: float, d: int) -> DegenerateSimplex | None:
    """The error to raise when vol <= VOLUME_EPS_REL * h^d, else None."""
    if volume <= VOLUME_EPS_REL * h**d:
        return DegenerateSimplex(f"volume {volume:.3e} is degenerate relative to h^d = {h**d:.3e}")
    return None


@dataclass(frozen=True)
class Simplex:
    """Immutable simplex: d+1 vertices in R^d plus an opaque id.

    Construct through :func:`make_simplex`, which validates dimensions
    and nondegeneracy.  The barycentric gradients, the volume and the
    longest edge are computed on first use and cached; the vertex and
    gradient arrays are marked read-only so instances are safe to share
    between workers.
    """

    vertices: np.ndarray
    id: str = field(default="S", compare=False)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def edge_matrix(self) -> np.ndarray:
        """d x d matrix whose columns are v_i - v_0 for i = 1..d."""
        return _edge_matrices(self.vertices[None])[0]

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """(d+1, d) rows of grad lambda_i, the barycentric coordinates' gradients.

        _gradients on a stack of one.  Row i is also the inward normal of
        the facet opposite vertex i, so the tangent cones of the simplex
        are cut from these rows.
        """
        grads = _gradients(self.vertices[None])[0]
        grads.flags.writeable = False
        return grads

    @cached_property
    def volume(self) -> float:
        """|det(edge matrix)| / d!  (LU with partial pivoting)."""
        return float(_volumes(self.vertices[None])[0])

    @cached_property
    def longest_edge(self) -> tuple[float, tuple[int, int]]:
        """(length, (i, j)) of the longest edge.

        Exact ties are broken by the lexicographically smallest vertex
        index pair so refinement is reproducible.  Lengths are the square
        roots of the squared coordinate differences summed in index order
        (_longest_edges on a stack of one), the bits the node table's h
        column gets on every CPU, so comparisons against h elsewhere in the
        package are consistent.
        """
        h, pair = _longest_edges(self.vertices[None])
        return h.item(), tuple(pair[0].tolist())

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
    DimensionMismatch : a coordinate is not an int or a float (a bool or
        a numeric string is refused), point dimensions disagree or the
        count is not d+1.
    UnsupportedDimension : ambient dimension below 2.
    InvalidPoint : NaN or infinite coordinate, or one so large that h^d
        may overflow or that is beyond the float range.
    DegenerateSimplex : volume at or below the relative threshold.
    """
    if not _numbers(vertices):
        raise DimensionMismatch("each vertex must be a list of numbers, all of one length")
    try:
        arr = np.array(vertices, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise InvalidPoint("vertex coordinates too large to be floats") from exc
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch("each vertex must be a list of numbers, all of one length") from exc
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D vertex array, got shape {arr.shape}")
    n, d = arr.shape
    if n != d + 1:
        raise DimensionMismatch(f"need d+1 vertices of dimension d, got {n} of dimension {d}")
    if d < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
    largest = float(np.abs(arr).max())
    if not math.isfinite(largest):
        raise InvalidPoint("vertex coordinates must be finite")
    # an edge is at most 2 sqrt(d) max|x| long; with a factor 2 to spare for
    # rounding, no edge length, h^d or volume determinant overflows below this
    limit = sys.float_info.max ** (1.0 / d) / (4.0 * math.sqrt(d))
    if largest > limit:
        raise InvalidPoint(
            f"vertex coordinates too large: |x| = {largest:.3e} exceeds {limit:.3e}, "
            f"beyond which h^{d} may overflow"
        )
    arr.flags.writeable = False
    s = Simplex(vertices=arr, id=id)
    flat = _degenerate(s.volume, s.longest_edge[0], d)
    if flat is not None:
        raise flat
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
    """Barycentric coordinates for a (k, d) batch of points, shape (k, d+1): _barycentric on s."""
    return _barycentric(s.barycentric_gradients[1:], np.asarray(points, dtype=float) - s.vertices[0])


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
