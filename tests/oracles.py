"""Independent reference computations for the test suite.

Every routine here recomputes a quantity the library produces, using a
different algorithm (and usually worse asymptotics), so agreement is
meaningful.  Nothing in this module imports library internals beyond the
plain Simplex container.
"""

import itertools
import math

import numpy as np


def cayley_menger_volume(vertices) -> float:
    """Simplex volume from the Cayley-Menger determinant.

    vol^2 = (-1)^(d+1) / (2^d (d!)^2) * det(M) where M borders the
    matrix of squared pairwise distances with a row and column of ones.
    Works purely from the distance geometry, so it is independent of the
    edge-matrix determinant route.
    """
    v = np.asarray(vertices, dtype=float)
    n = v.shape[0]
    d = n - 1
    sq = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    m = np.ones((n + 1, n + 1))
    m[0, 0] = 0.0
    m[1:, 1:] = sq
    det = np.linalg.det(m)
    vol2 = (-1) ** (d + 1) * det / (2**d * math.factorial(d) ** 2)
    return math.sqrt(max(vol2, 0.0))


def naive_max_pairwise_distance(points) -> float:
    """O(n^2) max pairwise distance: per-pair norm calls, no pruning."""
    pts = np.asarray(points, dtype=float)
    best = 0.0
    for i in range(pts.shape[0] - 1):
        for j in range(i + 1, pts.shape[0]):
            best = max(best, float(np.linalg.norm(pts[i] - pts[j])))
    return best


def triangle_vertex_angle(vertices, k: int) -> float:
    """Interior angle of a triangle at vertex k, in radians."""
    v = np.asarray(vertices, dtype=float)
    others = [i for i in range(3) if i != k]
    a = v[others[0]] - v[k]
    b = v[others[1]] - v[k]
    cosang = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, max(-1.0, cosang)))


def polygon_interior_angle(apex, vertices) -> float:
    """Angle subtended at ``apex`` by a union of triangles sharing it.

    Sums the per-triangle apex angles; valid when the triangles have
    disjoint interiors, which is how partition cells meet at a vertex.
    """
    total = 0.0
    for verts in vertices:
        v = np.asarray(verts, dtype=float)
        idx = [i for i in range(3) if np.allclose(v[i], apex)]
        assert len(idx) == 1, "apex must be exactly one vertex of each triangle"
        total += triangle_vertex_angle(v, idx[0])
    return total


def flat_scan_count(point, leaf_simplices, tol: float = 1e-9) -> int:
    """Number of leaves containing ``point``, by direct linear solves.

    Each membership test sets up and solves its own linear system from
    scratch; no shared factorizations, no tree descent.
    """
    p = np.asarray(point, dtype=float)
    count = 0
    for verts in leaf_simplices:
        v = np.asarray(verts, dtype=float)
        d = v.shape[1]
        a = np.vstack([np.ones(d + 1), v.T])
        rhs = np.concatenate([[1.0], p])
        lam = np.linalg.solve(a, rhs)
        if np.all(lam >= -tol):
            count += 1
    return count


def grid_minimum(fn, lo, hi, per_axis: int) -> float:
    """Dense-grid minimum of fn over the box [lo, hi]^d."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(lo.shape[0])]
    best = math.inf
    for coords in itertools.product(*axes):
        best = min(best, float(fn(np.asarray(coords))))
    return best

