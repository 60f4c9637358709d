"""Refinement forests of simplices and the intersection-number audit.

A Partition is a forest: root simplices cover the domain, and
longest-edge bisection grows children under them.  The leaves at any
moment form the current simplicial partition.  A shared vertex registry
dedups midpoints so valence (the number of leaves containing a point)
can be counted and audited against the bound
(2 e pi / d)^(d/2) / eta_min, where eta_min is the smallest leaf
regularity ratio.

verify_theorem is the end-to-end check: it measures the solid-angle
fraction of every (leaf, vertex) cone (exactly in d <= 3, by Monte
Carlo beyond), compares each against the per-simplex lower bound, sums
the fractions around every registry vertex (they must tile the sphere
of directions at interior points), and compares the observed maximum
valence with the theoretical bound.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cones import (
    EXACT_STDERR,
    MonteCarloConfig,
    VertexCone,
    cone_at_point,
    exact_solid_angle_fraction,
    max_intersection_bound,
    per_simplex_angle_bound,
    solid_angle_fraction,
)
from .errors import (
    EmptyPartition,
    PointOutsideDomain,
    UnsupportedDimension,
)
from .geometry import (
    MEMBERSHIP_TOL,
    Simplex,
    as_point,
    barycentric_many,
    make_simplex,
    regularity_ratio,
)

# Entropy tags for audit streams, disjoint from the cone-measure tags.
_PAIR_TAG = 303
_SUBSAMPLE_TAG = 404

# Above this many (leaf, vertex) pairs a Monte Carlo audit (d >= 4) draws
# a seeded subsample; the exact route of d <= 3 always audits every pair.
AUDIT_PAIR_CAP = 10_000


@dataclass
class Node:
    """One simplex in the forest; children = () marks a leaf."""

    id: int
    parent: int | None
    generation: int
    vertex_ids: tuple[int, ...]
    children: tuple[int, ...] = ()


class Partition:
    """Refinement forest with a deduplicated vertex registry.

    Two vertices are the same exactly when their coordinates are equal.
    That is enough for shared midpoints: both cells on an edge compute
    its midpoint as (a + b) / 2 from the same registry coordinates, and
    IEEE addition commutes, so the two results are bitwise equal.

    Mutation (adding roots, bisecting) is single-stream; reads may be
    performed concurrently between mutations.
    """

    def __init__(self, d: int):
        if d < 2:
            raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
        self.d = d
        self.nodes: list[Node] = []
        self._coords: list[np.ndarray] = []
        self._ids: dict[tuple, int] = {}
        self._simplices: dict[int, Simplex] = {}

    # ------------------------------------------------------------ registry

    def vertex_id(self, p) -> int:
        """Registry id of the vertex whose coordinates equal p's, added if new.

        Keyed by the coordinate tuple: -0.0 and 0.0 are one vertex, points
        one ulp apart are two, and shared midpoints agree bitwise (above).
        """
        p = as_point(p, self.d)
        key = tuple(p.tolist())
        if key not in self._ids:
            self._ids[key] = len(self._coords)
            self._coords.append(p.copy())
        return self._ids[key]

    def vertex_coords(self, vid: int) -> np.ndarray:
        return self._coords[vid]

    @property
    def vertices(self) -> np.ndarray:
        """(n_vertices, d) registry snapshot."""
        return np.array(self._coords)

    @property
    def n_vertices(self) -> int:
        return len(self._coords)

    # ------------------------------------------------------------ structure

    def add_root(self, vertices) -> int:
        """Install a generation-0 simplex; returns its node id."""
        vids = tuple(self.vertex_id(v) for v in np.asarray(vertices, dtype=float))
        node = Node(id=len(self.nodes), parent=None, generation=0, vertex_ids=vids)
        self.nodes.append(node)
        self.simplex(node.id)  # validates nondegeneracy eagerly
        return node.id

    @property
    def roots(self) -> list[int]:
        return [n.id for n in self.nodes if n.parent is None]

    @property
    def leaves(self) -> list[int]:
        return [n.id for n in self.nodes if not n.children]

    def simplex(self, node_id: int) -> Simplex:
        s = self._simplices.get(node_id)
        if s is None:
            node = self.nodes[node_id]
            s = make_simplex([self._coords[v] for v in node.vertex_ids], id=str(node_id))
            self._simplices[node_id] = s
        return s

    def bisect(self, node_id: int) -> tuple[int, int]:
        """Longest-edge bisection of a leaf; returns the child node ids.

        The midpoint of the canonical longest edge (u, w) goes through
        the registry, so one a neighbour already made keeps its id; it
        replaces w in the first child and u in the second (split_edge).
        Both children are appended at the end of nodes, so node ids are
        creation order, which is what lets read_partition replay a file.
        """
        node = self.nodes[node_id]
        if node.children:
            raise ValueError(f"node {node_id} is not a leaf")
        s = self.simplex(node_id)
        _, (i, j) = s.longest_edge
        mid = self.vertex_id((s.vertices[i] + s.vertices[j]) / 2.0)
        ids = []
        for child_vids in split_edge(node.vertex_ids, i, j, mid):
            child = Node(
                id=len(self.nodes),
                parent=node_id,
                generation=node.generation + 1,
                vertex_ids=child_vids,
            )
            self.nodes.append(child)
            ids.append(child.id)
        node.children = tuple(ids)
        return ids[0], ids[1]

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.d == other.d
            and self.nodes == other.nodes
            and self.n_vertices == other.n_vertices
            and all(np.array_equal(a, b) for a, b in zip(self._coords, other._coords))
        )


def split_edge(vertices, i: int, j: int, mid) -> tuple[tuple, tuple]:
    """The two children of a simplex bisected on its edge (i, j).

    The midpoint replaces vertex j in the first child and vertex i in
    the second, so each child keeps one endpoint of the split edge and
    the vertex order of the parent.
    """
    vertices = tuple(vertices)
    return vertices[:j] + (mid,) + vertices[j + 1 :], vertices[:i] + (mid,) + vertices[i + 1 :]


def kuhn_triangulation(d: int) -> Partition:
    """Unit cube split into d! path simplices sharing the main diagonal.

    The simplex of permutation pi walks from the origin to (1, ..., 1)
    adding one coordinate step e_pi(k) at a time; permutations are
    enumerated in lexicographic order so root ids are stable.
    """
    if d < 2:
        raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
    p = Partition(d)
    for perm in itertools.permutations(range(d)):
        verts = np.zeros((d + 1, d))
        for k, axis in enumerate(perm):
            verts[k + 1] = verts[k]
            verts[k + 1, axis] += 1.0
        p.add_root(verts)
    return p


def partition_from_simplices(simplices: list[Simplex]) -> Partition:
    """Partition whose roots are the given simplices.

    The caller is responsible for the roots having disjoint interiors.
    """
    if not simplices:
        raise EmptyPartition("at least one root simplex is required")
    p = Partition(simplices[0].dimension)
    for s in simplices:
        p.add_root(s.vertices)
    return p


STRATEGIES = ("bisect-all-leaves", "bisect-largest-leaf")


def refine(p: Partition, steps: int, strategy: str = "bisect-all-leaves") -> Partition:
    """Apply a refinement strategy for the given number of rounds.

    bisect-all-leaves: one round bisects every current leaf, advancing
    the whole partition one generation.  bisect-largest-leaf: one round
    bisects the single leaf with the longest edge (ties to the smallest
    node id), which generally leaves the forest non-conforming.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not p.leaves:
        raise EmptyPartition("partition has no leaves")
    for _ in range(steps):
        if strategy == "bisect-all-leaves":
            for node_id in p.leaves:
                p.bisect(node_id)
        else:
            worst = max(p.leaves, key=lambda i: (p.simplex(i).longest_edge[0], -i))
            p.bisect(worst)
    return p


def min_regularity(p: Partition) -> float:
    """eta_min: the smallest leaf regularity ratio.

    This is the largest eta for which every current leaf S satisfies
    vol(S) >= eta * h(S)^d.
    """
    leaves = p.leaves
    if not leaves:
        raise EmptyPartition("partition has no leaves")
    return min(regularity_ratio(p.simplex(i)) for i in leaves)


def _incidence(p: Partition, points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(point index, leaf id) pairs of every leaf whose closure holds a point.

    A tree descent from each root: a batch of points follows a child
    when its barycentric coordinates in the child are all >= -tol, so a
    hanging vertex on a leaf's face is found as well as the leaf corners.
    """
    found: list[np.ndarray] = []
    leaf_ids: list[int] = []
    for root in p.roots:
        stack = [(root, np.arange(points.shape[0]))]
        while stack:
            node_id, idx = stack.pop()
            lam = barycentric_many(p.simplex(node_id), points[idx])
            inside = idx[np.all(lam >= -tol, axis=1)]
            if inside.size == 0:
                continue
            children = p.nodes[node_id].children
            if children:
                stack.extend((child, inside) for child in children)
            else:
                found.append(inside)
                leaf_ids.append(node_id)
    if not found:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    return np.concatenate(found), np.repeat(leaf_ids, [idx.size for idx in found])


def vertex_valence(p: Partition, point, tol: float = MEMBERSHIP_TOL) -> int:
    """Number of leaves whose closure contains the point.

    Membership is geometric (barycentric test with tolerance), so the
    count is correct even for hanging nodes of a non-conforming state.
    """
    pt = as_point(point, p.d)
    if not p.leaves:
        raise EmptyPartition("partition has no leaves")
    count = _incidence(p, pt[None, :], tol)[0].size
    if count == 0:
        # roots tile the domain, so zero leaves means outside it
        raise PointOutsideDomain(f"point {pt.tolist()} is outside the root domain")
    return count


def registry_valences(p: Partition, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Valence of every registry vertex, in registry order."""
    if not p.leaves:
        raise EmptyPartition("partition has no leaves")
    return np.bincount(_incidence(p, p.vertices, tol)[0], minlength=p.n_vertices)


def max_valence(p: Partition, tol: float = MEMBERSHIP_TOL) -> tuple[np.ndarray, int]:
    """(witness point, count) maximizing valence over registry vertices.

    For a face-to-face forest the maximum over all points of the domain
    is attained at a vertex: the leaf set containing any point x also
    contains every leaf around the lowest-dimensional face holding x,
    and that face's vertices belong to at least those leaves.
    """
    counts = registry_valences(p, tol)
    k = int(np.argmax(counts))  # first maximal vertex wins
    return p.vertex_coords(k).copy(), int(counts[k])


# -------------------------------------------------------------- the audit


@dataclass(frozen=True)
class VertexCheck:
    """One (leaf, vertex) cone audit row.

    strong_bound uses the leaf's own regularity ratio; uniform_bound
    uses the partition-wide eta_min.  Both must sit below the measured
    fraction plus 3 standard errors; an exact fraction carries
    EXACT_STDERR as its rounding allowance.
    """

    leaf_id: int
    vertex_id: int
    cone_id: str
    fraction: float
    stderr: float
    rho: float
    strong_bound: float
    uniform_bound: float
    passed_strong: bool
    passed_uniform: bool


@dataclass(frozen=True)
class DecompositionCheck:
    """Fraction sum around one registry vertex.

    The tangent cones of the leaves containing a vertex tile the full
    sphere of directions when the vertex is interior to the domain, so
    the fractions must sum to 1; on the boundary they sum to less.
    """

    vertex_id: int
    interior: bool
    valence: int
    fraction_sum: float
    combined_stderr: float
    passed: bool


@dataclass
class TheoremReport:
    """Outcome of verify_theorem.

    method is "exact" when every cone was measured in closed form
    (d <= 3) and "monte-carlo" otherwise; samples_per_cone and seed
    record the sampling budget, which the exact route does not draw on.
    """

    d: int
    eta_min: float
    theoretical_bound: float
    max_observed_valence: int
    witness: np.ndarray
    samples_per_cone: int
    seed: int
    total_pairs: int
    audited_pairs: int
    method: str
    per_vertex_checks: list[VertexCheck] = field(default_factory=list)
    decomposition_checks: list[DecompositionCheck] = field(default_factory=list)
    valence_ok: bool = True

    @property
    def passed(self) -> bool:
        return (
            self.valence_ok
            and all(c.passed_strong for c in self.per_vertex_checks)
            and all(c.passed for c in self.decomposition_checks)
        )


def boundary_vertex_mask(p: Partition) -> np.ndarray:
    """True where a registry vertex lies on the domain boundary.

    The boundary is made of the root facets that no other root shares.
    A vertex lies on the facet of root r opposite corner i when its
    barycentric coordinates in r are all >= -MEMBERSHIP_TOL and
    coordinate i is <= MEMBERSHIP_TOL: the membership test of the
    valence descent, applied to the facet.
    """
    facets = Counter(
        frozenset(vids[:i] + vids[i + 1 :])
        for vids in (p.nodes[r].vertex_ids for r in p.roots)
        for i in range(len(vids))
    )
    pts = p.vertices
    mask = np.zeros(p.n_vertices, dtype=bool)
    for root in p.roots:
        vids = p.nodes[root].vertex_ids
        lam = barycentric_many(p.simplex(root), pts)
        inside = np.all(lam >= -MEMBERSHIP_TOL, axis=1)
        for i in range(len(vids)):
            if facets[frozenset(vids[:i] + vids[i + 1 :])] == 1:
                mask |= inside & (lam[:, i] <= MEMBERSHIP_TOL)
    return mask


def _pair_config(mc: MonteCarloConfig, leaf_id: int, vertex_id: int) -> MonteCarloConfig:
    """Per-pair sampling config with a seed derived from (seed, pair).

    Each (leaf, vertex) cone gets its own stream, so estimates do not
    depend on audit order and re-runs are byte-identical.
    """
    derived = int(np.random.SeedSequence([mc.seed, _PAIR_TAG, leaf_id, vertex_id]).generate_state(1)[0])
    return MonteCarloConfig(samples=mc.samples, seed=derived, shards=mc.shards)


def verify_theorem(
    p: Partition,
    mc: MonteCarloConfig = MonteCarloConfig(samples=100_000, seed=42, shards=4),
    full_audit: bool = False,
) -> TheoremReport:
    """End-to-end audit of the intersection-number bound.

    Steps: compute eta_min and the theoretical bound N(eta_min, d);
    locate every registry vertex by one tree descent, whose (vertex,
    leaf) incidences give both the valences and the leaves around each
    vertex; measure the solid-angle fraction of each (leaf, vertex) cone
    (on the Monte Carlo route, above AUDIT_PAIR_CAP pairs, a seeded
    uniform subsample is audited instead unless full_audit);
    check each fraction against the per-simplex bound minus 3 stderr;
    and sum the fractions of the incident leaves around every vertex
    none of whose corner pairs was subsampled away, measuring the face
    cone of each leaf the vertex hangs on (interior sums must hit 1
    within 4 combined stderr, boundary sums must not exceed 1 by more).

    In d <= 3 every cone has at most three facets and is measured in
    closed form with stderr EXACT_STDERR, every pair is audited, and mc
    and full_audit play no part; in d >= 4 each pair draws mc.samples
    directions from its own stream.
    """
    leaves = p.leaves
    if not leaves:
        raise EmptyPartition("partition has no leaves")
    eta_min = min_regularity(p)
    d = p.d
    bound_n = max_intersection_bound(eta_min, d)
    uniform_bound = per_simplex_angle_bound(eta_min, d)

    at_vertex, at_leaf = _incidence(p, p.vertices, MEMBERSHIP_TOL)
    valences = np.bincount(at_vertex, minlength=p.n_vertices)
    witness_id = int(np.argmax(valences))
    max_val = int(valences[witness_id])

    exact = d <= 3
    pairs = [(leaf, vid) for leaf in leaves for vid in p.nodes[leaf].vertex_ids]
    total_pairs = len(pairs)
    if not exact and total_pairs > AUDIT_PAIR_CAP and not full_audit:
        rng = np.random.default_rng(np.random.SeedSequence([mc.seed, _SUBSAMPLE_TAG]))
        chosen = rng.choice(total_pairs, size=AUDIT_PAIR_CAP, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]

    def measure(cone: VertexCone, leaf: int, vid: int) -> tuple[float, float]:
        if exact:
            return exact_solid_angle_fraction(cone), EXACT_STDERR
        est = solid_angle_fraction(cone, _pair_config(mc, leaf, vid))
        return est.fraction, est.stderr

    estimates: dict[tuple[int, int], tuple[float, float]] = {}
    checks = []
    for leaf, vid in pairs:
        s = p.simplex(leaf)
        cone = cone_at_point(s, p.vertex_coords(vid))
        fraction, stderr = measure(cone, leaf, vid)
        rho = regularity_ratio(s)
        strong = per_simplex_angle_bound(rho, d)
        checks.append(
            VertexCheck(
                leaf_id=leaf,
                vertex_id=vid,
                cone_id=cone.id,
                fraction=fraction,
                stderr=stderr,
                rho=rho,
                strong_bound=strong,
                uniform_bound=uniform_bound,
                passed_strong=fraction >= strong - 3.0 * stderr,
                passed_uniform=fraction >= uniform_bound - 3.0 * stderr,
            )
        )
        estimates[(leaf, vid)] = (fraction, stderr)

    # each vertex's incident leaves in ascending id order, the order of the sums
    order = np.lexsort((at_leaf, at_vertex))
    incident = np.split(at_leaf[order], np.cumsum(valences)[:-1])

    boundary = boundary_vertex_mask(p)
    decomposition = []
    for vid, leaves_at in enumerate(incident):
        leaves_at = leaves_at.tolist()
        if any((leaf, vid) not in estimates and vid in p.nodes[leaf].vertex_ids for leaf in leaves_at):
            continue  # a corner pair was subsampled away; the sum would be meaningless
        fracs = []
        errs = []
        for leaf in leaves_at:
            got = estimates.get((leaf, vid))
            if got is None:  # the vertex hangs on a face of this leaf
                got = measure(cone_at_point(p.simplex(leaf), p.vertex_coords(vid)), leaf, vid)
            fracs.append(got[0])
            errs.append(got[1])
        total = float(sum(fracs))
        sigma = math.sqrt(sum(e * e for e in errs))
        interior = not bool(boundary[vid])
        if interior:
            ok = abs(total - 1.0) <= 4.0 * sigma
        else:
            ok = total <= 1.0 + 4.0 * sigma
        decomposition.append(
            DecompositionCheck(
                vertex_id=vid,
                interior=interior,
                valence=len(leaves_at),
                fraction_sum=total,
                combined_stderr=sigma,
                passed=ok,
            )
        )

    return TheoremReport(
        d=d,
        eta_min=eta_min,
        theoretical_bound=bound_n,
        max_observed_valence=max_val,
        witness=p.vertex_coords(witness_id).copy(),
        samples_per_cone=mc.samples,
        seed=mc.seed,
        total_pairs=total_pairs,
        audited_pairs=len(pairs),
        method="exact" if exact else "monte-carlo",
        per_vertex_checks=checks,
        decomposition_checks=decomposition,
        valence_ok=max_val <= bound_n,
    )
