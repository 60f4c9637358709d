"""Independent reference computations for the test suite.

Every routine here recomputes a quantity the library produces, using a
different algorithm (and usually worse asymptotics), so agreement is
meaningful: the sampled diameter checks the longest edge, and the
standalone bisection checks Partition.bisect.  Nothing in this module
imports library internals beyond the Simplex container, its validating
constructor and regularity_ratio.
"""

import csv
import heapq
import itertools
import math

import mpmath
import numpy as np

from simpart.geometry import Simplex, make_simplex, regularity_ratio


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


def norm(v) -> float:
    """Euclidean norm of a vector in Python floats, the squares summed left to right.

    The order the library sums squares in wherever it measures a length,
    so its bits do not depend on a BLAS kernel.
    """
    total = 0.0
    for x in np.asarray(v, dtype=float).tolist():
        total += x * x
    return math.sqrt(total)


def naive_max_pairwise_distance(points) -> float:
    """O(n^2) max pairwise distance: per-pair norm calls, no pruning."""
    pts = np.asarray(points, dtype=float)
    best = 0.0
    for i in range(pts.shape[0] - 1):
        for j in range(i + 1, pts.shape[0]):
            best = max(best, norm(pts[i] - pts[j]))
    return best


def simplex_metrics_one_by_one(vertices) -> tuple[float, tuple[float, tuple[int, int]]]:
    """(volume, (h, (i, j))) of one simplex, each quantity computed alone.

    The volume is one ``np.linalg.det`` of the edge matrix, and the
    longest edge comes from a per-pair ``norm`` loop that keeps
    the first strict maximum, so ties go to the lexicographically
    smallest pair.  This is the one-by-one route that the stacked build
    must match bitwise.
    """
    v = np.asarray(vertices, dtype=float)
    d = v.shape[1]
    volume = abs(float(np.linalg.det((v[1:] - v[0]).T))) / math.factorial(d)
    best, pair = -1.0, (0, 1)
    for i in range(d):
        for j in range(i + 1, d + 1):
            length = norm(v[i] - v[j])
            if length > best:
                best, pair = length, (i, j)
    return volume, (best, pair)


def sample_uniform(s: Simplex, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly from the simplex.

    Uses symmetric Dirichlet(1, ..., 1) barycentric weights, the standard
    uniform law on a simplex.
    """
    weights = rng.dirichlet(np.ones(s.dimension + 1), size=n)
    return weights @ s.vertices


def max_pairwise_distance(points: np.ndarray) -> float:
    """Exact maximum pairwise Euclidean distance of a finite point set.

    The value returned is the maximum over pairs of
    ``norm(points[i] - points[j])``, bitwise, with two layers
    of acceleration that cannot change it:

    * centroid-ball pruning: if lb is a known pairwise distance, any
      pair (x, y) with |x - y| >= lb has both |x - c| and |y - c| at
      least lb - rmax (since |x - y| <= |x - c| + rmax), so points
      strictly inside that radius can be discarded;
    * a blocked squared-distance scan over the survivors locates every
      pair within a small absolute margin of the squared maximum, and
      only those near-ties are re-evaluated with the canonical per-pair
      norm call.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    c = pts.mean(axis=0)
    centered = pts - c
    radii = np.linalg.norm(centered, axis=1)
    rmax = float(radii.max())

    # farthest-point sweep gives the pruning lower bound; shaved by a
    # scale-relative hair so float dust cannot over-prune
    a = int(np.argmax(radii))
    b = int(np.argmax(np.linalg.norm(pts - pts[a], axis=1)))
    lb = norm(pts[a] - pts[b])
    e = int(np.argmax(np.linalg.norm(pts - pts[b], axis=1)))
    lb = max(lb, norm(pts[b] - pts[e]))

    keep = np.flatnonzero(radii >= lb - rmax - 1e-9 * rmax)
    cand = centered[keep]
    m = cand.shape[0]

    # Gram-identity squared distances on centered coordinates: absolute
    # error is a few ulps of rmax^2, far below the margin used here
    sq = np.einsum("ij,ij->i", cand, cand)
    margin = 1e-9 * rmax * rmax
    best_d2 = -1.0
    rows = []
    block = 256
    for i0 in range(0, m, block):
        i1 = min(i0 + block, m)
        d2 = sq[i0:i1, None] + sq[None, :] - 2.0 * (cand[i0:i1] @ cand.T)
        rows.append(d2.max(axis=1))
        best_d2 = max(best_d2, float(d2.max()))
    row_max = np.concatenate(rows)

    best = 0.0
    for i in np.flatnonzero(row_max >= best_d2 - margin):
        d2_row = sq[i] + sq - 2.0 * (cand @ cand[i])
        for j in np.flatnonzero(d2_row >= best_d2 - margin):
            if j == i:
                continue
            val = norm(pts[keep[i]] - pts[keep[j]])
            if val > best:
                best = val
    return best


def diameter_oracle(s: Simplex, samples: int, seed: int) -> float:
    """Sampled diameter of the simplex.

    Maximum pairwise distance over ``samples`` uniform points from S,
    with the vertices always included in the point set, so the result is
    never below the longest edge.  Deterministic for a fixed seed.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    rng = np.random.default_rng(seed)
    pts = np.vstack([s.vertices, sample_uniform(s, samples, rng)])
    return max_pairwise_distance(pts)


def bisect_longest_edge(s: Simplex) -> tuple[Simplex, Simplex]:
    """Standalone longest-edge bisection of a single simplex.

    Children carry ids "<parent>.0" and "<parent>.1" and each has half
    the parent's volume; the first child keeps the first endpoint of the
    split edge.
    """
    _, (i, j) = s.longest_edge
    first, second = s.vertices.copy(), s.vertices.copy()
    first[j] = second[i] = (s.vertices[i] + s.vertices[j]) / 2.0
    return make_simplex(first, id=f"{s.id}.0"), make_simplex(second, id=f"{s.id}.1")


def triangle_vertex_angle(vertices, k: int) -> float:
    """Interior angle of a triangle at vertex k, in radians."""
    v = np.asarray(vertices, dtype=float)
    others = [i for i in range(3) if i != k]
    a = v[others[0]] - v[k]
    b = v[others[1]] - v[k]
    cosang = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, max(-1.0, cosang)))


def closed_form_fraction(halfspaces) -> float:
    """Solid-angle fraction of a cone with two or three facets, in Python floats.

    The wedge (pi - theta) / 2pi and Girard's excess over 4pi, with each
    angle in Kahan's form 2 atan2(|a - b|, |a + b|) on unit rows, every
    sum taken left to right one rounded operation at a time: the bits the
    library's stacked closed forms must reproduce on any CPU.
    """

    rows = [[x / norm(r) for x in r] for r in np.asarray(halfspaces, dtype=float).tolist()]

    def angle(a, b):
        return 2.0 * math.atan2(norm([x - y for x, y in zip(a, b)]), norm([x + y for x, y in zip(a, b)]))

    if len(rows) == 2:
        return (math.pi - angle(*rows)) / (2.0 * math.pi)
    a, b, c = rows
    return (2.0 * math.pi - angle(a, b) - angle(a, c) - angle(b, c)) / (4.0 * math.pi)


def cone_class_one_by_one(h) -> np.ndarray:
    """Canonical unit normals of one (k, d) cone, its columns sorted in Python.

    Columns flipped to a positive first nonzero entry (+ 0.0 clears -0.0),
    sorted as Python lists compare, then rows divided by their norms: the
    class key the library builds for a whole stack with one lexsort.
    """
    h = np.asarray(h, dtype=float)
    first = h[(h != 0.0).argmax(axis=0), np.arange(h.shape[1])]
    h = h * np.where(first < 0.0, -1.0, 1.0) + 0.0
    columns = h.T.tolist()
    h = h[:, sorted(range(len(columns)), key=columns.__getitem__)]
    return h / np.sqrt((h * h).sum(axis=-1))[:, None]


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
    return sum(_solve_inside(point, verts, tol) for verts in leaf_simplices)


def flat_scan_pairs(points, leaves: dict, tol: float = 1e-9) -> list[tuple[int, int]]:
    """Sorted (point index, leaf id) pairs of every point in every leaf.

    Scans each (point, leaf) pair of the leaf id -> vertices mapping
    with its own linear solve, as flat_scan_count does.
    """
    return [
        (i, leaf)
        for i, point in enumerate(points)
        for leaf, verts in sorted(leaves.items())
        if _solve_inside(point, verts, tol)
    ]


def _solve_inside(point, verts, tol: float) -> bool:
    """Barycentric membership from scratch: solve [1; V^T] lambda = [1; p]."""
    v = np.asarray(verts, dtype=float)
    d = v.shape[1]
    a = np.vstack([np.ones(d + 1), v.T])
    rhs = np.concatenate([[1.0], np.asarray(point, dtype=float)])
    return bool(np.all(np.linalg.solve(a, rhs) >= -tol))


def grid_minimum(fn, lo, hi, per_axis: int) -> float:
    """Dense-grid minimum of fn over the box [lo, hi]^d."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(lo.shape[0])]
    best = math.inf
    for coords in itertools.product(*axes):
        best = min(best, float(fn(np.asarray(coords))))
    return best



def orthant_fraction_mp(halfspaces, dps: int = 30) -> float:
    """P(H Z >= 0) for Z ~ N(0, I): Plackett's integral in dps digits.

    The library integrates the same reduction in doubles.  Here the
    correlation matrix, the conditional covariance of the variables left
    over by each pair (the Schur complement, not the library's sum and
    difference split) and the integrand are all taken in mpmath, and
    mpmath.quad (tanh-sinh, which is indifferent to the square-root
    behaviour at t = 1) integrates over the original t, without the
    arcsine substitution.  Works for k = 4 or 5 rows.
    """
    h = np.asarray(halfspaces, dtype=float)
    k = h.shape[0]
    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(x)) for x in row] for row in h]
        gram = [[mpmath.fsum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
        r = [[gram[a][b] / mpmath.sqrt(gram[a][a] * gram[b][b]) for b in range(k)] for a in range(k)]
        pairs = [(i, j, [m for m in range(k) if m not in (i, j)]) for i, j in itertools.combinations(range(k), 2)]

        def orthant(cov):
            q = len(cov)
            arcsines = mpmath.fsum(
                mpmath.asin(cov[a][b] / mpmath.sqrt(cov[a][a] * cov[b][b]))
                for a, b in itertools.combinations(range(q), 2)
            )
            return mpmath.mpf(2) ** -q + arcsines / (2 ** (q - 1) * mpmath.pi)

        def integrand(t):
            total = mpmath.mpf(0)
            for i, j, rest in pairs:
                s = t * r[i][j]
                det = 1 - s * s
                inv = ((1 / det, -s / det), (-s / det, 1 / det))
                cross = [(t * r[m][i], t * r[m][j]) for m in rest]
                cov = [
                    [
                        (1 if a == b else t * r[a][b])
                        - sum(cross[x][u] * inv[u][v] * cross[y][v] for u in (0, 1) for v in (0, 1))
                        for y, b in enumerate(rest)
                    ]
                    for x, a in enumerate(rest)
                ]
                total += r[i][j] / (2 * mpmath.pi * mpmath.sqrt(det)) * orthant(cov)
            return total

        return float(mpmath.mpf(2) ** -k + mpmath.quad(integrand, [0, 0.5, 0.9, 1]))


def branch_and_bound_per_node(evaluate, lipschitz: float, roots: list[Simplex], budget: int, tol: float):
    """The search of simpart.optimize with every node built alone by make_simplex.

    Vertex values are cached by exact coordinates and numbered in the
    order first seen, the incumbent is the smallest (value, number), the
    queue is a heap of (lower bound, node id) with bounds min f - L * h,
    a popped leaf is split by bisect_longest_edge and its children
    inherit its bound, and eta_min is the running minimum of
    regularity_ratio over every node built.  Returns the trace rows as
    (iteration, node id, lower bound, incumbent, gap, eta_min) tuples, the
    nodes' simplices in id order, the (n, d) coordinates of the vertices in
    their numbering (each evaluated once) and the incumbent's number.
    """
    number: dict[tuple, int] = {}
    values: list[float] = []
    best = [math.inf, -1]

    def bound(s: Simplex) -> float:
        vals = []
        for x in s.vertices:
            vid = number.setdefault(tuple(x.tolist()), len(number))
            if vid == len(values):
                values.append(float(evaluate(x)))
            if (values[vid], vid) < tuple(best):
                best[:] = [values[vid], vid]
            vals.append(values[vid])
        return min(vals) - lipschitz * s.longest_edge[0]

    nodes = list(roots)
    heap = [(bound(s), k) for k, s in enumerate(nodes)]
    heapq.heapify(heap)
    eta = min(regularity_ratio(s) for s in nodes)
    rows = []
    while True:
        lb, k = heap[0]
        rows.append((len(rows), k, lb, best[0], best[0] - lb, eta))
        if best[0] - lb <= tol or len(values) >= budget:
            return rows, nodes, np.array(list(number)), best[1]
        heapq.heappop(heap)
        for child in bisect_longest_edge(nodes[k]):
            eta = min(eta, regularity_ratio(child))
            heapq.heappush(heap, (max(lb, bound(child)), len(nodes)))
            nodes.append(child)


def theorem_report_csv_by_rows(report, path) -> None:
    """The report CSV written through csv.writer, one list of fields per row.

    Floats are formatted as format(x, ".17g"), booleans as lower-case
    words, and csv.writer quotes whatever needs it: the bytes the
    library's template writer must give.
    """

    def g(x):
        return format(float(x), ".17g")

    def word(flag):
        return str(flag).lower()

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["check", "leaf_id", "vertex_id", "location", "value", "stderr", "bound", "passed"])
        for c in report.per_vertex_checks:
            w.writerow(
                [
                    "vertex-bound",
                    c.leaf_id,
                    c.vertex_id,
                    "",
                    g(c.fraction),
                    g(c.stderr),
                    g(c.strong_bound),
                    word(c.passed_strong),
                ]
            )
        for c in report.decomposition_checks:
            w.writerow(
                [
                    "decomposition",
                    "",
                    c.vertex_id,
                    "interior" if c.interior else "boundary",
                    g(c.fraction_sum),
                    g(c.combined_stderr),
                    g(1.0),
                    word(c.passed),
                ]
            )
        bound = g(report.theoretical_bound)
        w.writerow(["valence", "", "", "", report.max_observed_valence, "", bound, word(report.valence_ok)])
        w.writerow(["summary", "", "", "", g(report.eta_min), "", bound, word(report.passed)])
