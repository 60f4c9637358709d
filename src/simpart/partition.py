"""Refinement forests of simplices and the intersection-number audit.

A Partition is a forest: root simplices cover the domain, and
longest-edge bisection grows children under them.  The leaves at any
moment form the current simplicial partition.  A shared vertex registry
dedups midpoints so valence (the number of leaves containing a point)
can be counted and audited against the bound
(2 e pi / d)^(d/2) / eta_min, where eta_min is the smallest leaf
regularity ratio.

verify_theorem is the end-to-end check: it measures the solid-angle
fraction of every (leaf, vertex) cone exactly, compares each against the
per-simplex lower bound, sums the fractions around every registry vertex
(they must tile the sphere of directions at interior points), and
compares the observed maximum valence with the theoretical bound, in
stacked passes over the leaf ids.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cones import (
    EXACT_STDERR,
    cone_at_point,
    exact_solid_angle_fraction,
    exact_solid_angle_fractions,
    max_intersection_bound,
    per_simplex_angle_bound,
    solid_angle_fraction,  # not called here; bound for perfbench/tracing.py's span of it
)
from .errors import (
    DimensionMismatch,
    EmptyPartition,
    PointOutsideDomain,
    UnsupportedDimension,
)
from .geometry import (
    MEMBERSHIP_TOL,
    VOLUME_EPS_REL,
    Simplex,
    _barycentric,
    _degenerate,
    _gradient_rows,
    _gradients,
    _longest_edges,
    _volumes,
    as_point,
    barycentric_many,  # not called here; bound for perfbench/tracing.py's span of it
    make_simplex,
    regularity_ratio,  # not called here; bound for perfbench/tracing.py's span of it
)


@dataclass(frozen=True)
class Node:
    """One node of the forest as Partition.nodes shows it; children = () marks a leaf."""

    id: int
    parent: int | None
    generation: int
    vertex_ids: tuple[int, ...]
    children: tuple[int, ...] = ()


class NodeView(Sequence):
    """Read-only sequence of a partition's nodes, each a Node made on access.

    For readers outside the package; the package reads the arrays.
    """

    __slots__ = ("_p",)

    def __init__(self, p: Partition):
        self._p = p

    def __len__(self) -> int:
        return self._p._n_nodes

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # the index checks of a list
        p = self._p
        parent = int(p._parent[i])
        kids = p._children[i].tolist()
        return Node(
            id=i,
            parent=None if parent < 0 else parent,
            generation=int(p._generation[i]),
            vertex_ids=tuple(p._vertex_ids[i].tolist()),
            children=tuple(kids) if kids[0] >= 0 else (),
        )

    def __eq__(self, other):
        if not isinstance(other, NodeView):
            return NotImplemented
        return list(self) == list(other)


def _grown(a: np.ndarray, size: int, fill=0) -> np.ndarray:
    """a if it has room for size rows, else a copy with at least twice the rows, the new ones set to fill."""
    if size <= a.shape[0]:
        return a
    out = np.full((max(size, 2 * a.shape[0], 8),) + a.shape[1:], fill, dtype=a.dtype)
    out[: a.shape[0]] = a
    return out


class Partition:
    """Refinement forest with a deduplicated vertex registry.

    The forest is a node table of arrays, in node id order: parent (-1 for
    a root), generation, (n, 2) children (-1 for a leaf) and (n, d+1)
    vertex ids.  The registry is an (n_vertices, d) coordinate array.
    Each array grows by doubling, so its rows past the node or vertex
    count are unused; an unused children row is (-1, -1), so a new node
    is a leaf.  Partition.nodes shows the table as Node records.  Three
    more columns hold what longest_edges and volumes measure: the
    longest edge's length h and its (i, j), and the volume, NaN until
    measured.

    Two vertices are the same exactly when their coordinates are equal.
    That is enough for shared midpoints: both cells on an edge compute
    its midpoint as (a + b) / 2 from the same registry coordinates, and
    IEEE addition commutes, so the two results are bitwise equal.

    Calls must not overlap, measuring ones included: besides adding
    roots and bisecting, longest_edges, volumes and regularity (and
    min_regularity and verify_theorem through them) write the NaN
    columns they fill.
    """

    def __init__(self, d: int):
        if d < 2:
            raise UnsupportedDimension(f"dimension must be >= 2, got {d}")
        self.d = d
        self._n_nodes = 0
        self._parent = np.empty(0, dtype=np.intp)
        self._generation = np.empty(0, dtype=np.intp)
        self._children = np.empty((0, 2), dtype=np.intp)
        self._vertex_ids = np.empty((0, d + 1), dtype=np.intp)
        self._h = np.empty(0)
        self._edge = np.empty((0, 2), dtype=np.intp)
        self._vol = np.empty(0)
        self._n_vertices = 0
        self._coords = np.empty((0, d))
        self._ids: dict[tuple, int] = {}

    # ------------------------------------------------------------ registry

    def vertex_id(self, p) -> int:
        """Registry id of the vertex whose coordinates equal p's, added if new.

        Keyed by the coordinate tuple: -0.0 and 0.0 are one vertex, stored
        as 0.0 (adding 0.0 clears the sign, so a written file reads back
        with the same bits), points one ulp apart are two, and shared
        midpoints agree bitwise (above).
        """
        return self._register(as_point(p, self.d) + 0.0)

    def _register(self, p: np.ndarray) -> int:
        """vertex_id without its input checks; p must be a finite (d,) array.

        Bisection midpoints are: the mean of two registry vertices, whose
        coordinates make_simplex caps far below overflow.
        """
        return self._insert(tuple(p.tolist()))

    def _register_rows(self, points: np.ndarray) -> list[int]:
        """_register of each row of an (m, d) array, in row order."""
        return list(map(self._insert, map(tuple, points.tolist())))

    def _insert(self, key: tuple) -> int:
        """Registry id of the vertex whose coordinate tuple is key, appended if new.

        Every registration goes through here.  The coordinates are written
        from the key's floats, which are the bits of the array it came from.
        """
        vid = self._ids.get(key)
        if vid is None:
            vid = self._ids[key] = self._n_vertices
            self._coords = _grown(self._coords, vid + 1)
            self._coords[vid] = key
            self._n_vertices = vid + 1
        return vid

    def vertex_coords(self, vid: int) -> np.ndarray:
        return self._coords[: self._n_vertices][vid]

    @property
    def vertices(self) -> np.ndarray:
        """(n_vertices, d) registry snapshot."""
        return self._coords[: self._n_vertices].copy()

    @property
    def n_vertices(self) -> int:
        return self._n_vertices

    # ------------------------------------------------------------ structure

    def _new_nodes(self, k: int) -> int:
        """Room for k more leaves in the node table; returns the first new id.

        The caller fills their parent, generation and vertex_ids.
        """
        first = self._n_nodes
        self._n_nodes = first + k
        if self._n_nodes > self._parent.shape[0]:
            self._parent = _grown(self._parent, self._n_nodes)
            self._generation = _grown(self._generation, self._n_nodes)
            self._children = _grown(self._children, self._n_nodes, fill=-1)
            self._vertex_ids = _grown(self._vertex_ids, self._n_nodes)
            self._h = _grown(self._h, self._n_nodes, fill=np.nan)
            self._edge = _grown(self._edge, self._n_nodes)
            self._vol = _grown(self._vol, self._n_nodes, fill=np.nan)
        return first

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The node table's parent, generation, children and vertex_ids rows in use."""
        n = self._n_nodes
        return self._parent[:n], self._generation[:n], self._children[:n], self._vertex_ids[:n]

    def _corners(self, node_ids: np.ndarray) -> np.ndarray:
        """(m, d+1, d) vertex coordinates of the nodes, read from the registry."""
        return self._coords.take(self._vertex_ids[: self._n_nodes].take(node_ids, axis=0), axis=0)

    @property
    def nodes(self) -> NodeView:
        return NodeView(self)

    def add_root(self, vertices) -> int:
        """Install a generation-0 simplex; returns its node id.

        The vertices are validated (make_simplex) before anything is
        registered, so a rejected root leaves the partition as it was.  A
        -0.0 coordinate is registered as 0.0, as in vertex_id; midpoints of
        such coordinates are never -0.0.
        """
        s = make_simplex(vertices)
        if s.dimension != self.d:
            raise DimensionMismatch(f"expected dimension {self.d}, got {s.dimension}")
        vids = self._register_rows(s.vertices + 0.0)
        node = self._new_nodes(1)
        self._parent[node] = -1
        self._generation[node] = 0
        self._vertex_ids[node] = vids
        return node

    @property
    def roots(self) -> list[int]:
        return np.flatnonzero(self._parent[: self._n_nodes] < 0).tolist()

    @property
    def leaves(self) -> list[int]:
        return np.flatnonzero(self._children[: self._n_nodes, 0] < 0).tolist()

    def simplex(self, node_id: int) -> Simplex:
        """The node's simplex with id str(node_id), built afresh by make_simplex; nothing is cached."""
        if not 0 <= node_id < self._n_nodes:
            raise IndexError(f"node {node_id} is not in the partition")
        return make_simplex(self._corners([node_id])[0], id=str(node_id))

    def longest_edges(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """The nodes' longest edges: an (m,) array of lengths h and an (m, 2) array of (i, j).

        The nodes not yet measured are measured in one stacked
        _longest_edges pass over their registry coordinates, the bits
        Simplex.longest_edge gets, and kept in the node table.  Ids index
        the nodes in use as a list does (-1 is the last node).
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        h, edge = self._h[: self._n_nodes], self._edge[: self._n_nodes]
        todo = ids[np.isnan(h[ids])]
        if todo.size:
            h[todo], edge[todo] = _longest_edges(self._corners(todo))
        return h[ids], edge[ids]

    def volumes(self, node_ids) -> np.ndarray:
        """The nodes' volumes, the ones not yet measured in one stacked _volumes pass.

        A newly measured node is checked as make_simplex checks it: the
        first degenerate one raises DegenerateSimplex with its message, and
        neither it nor the nodes after it are kept, so asking again raises
        again.  Ids index the nodes in use as in longest_edges.

        numpy's h**d may differ from Python's in the last bit, so one
        stacked test with room to spare (twice the threshold, plus a
        margin below which the threshold's last bit is no longer relative)
        picks the candidates, and _degenerate decides on them in order.
        """
        ids = np.asarray(node_ids, dtype=np.intp)
        vols = self._vol[: self._n_nodes]
        todo = ids[np.isnan(vols[ids])]
        if todo.size:
            h = self.longest_edges(todo)[0]
            vol = _volumes(self._corners(todo))
            for k in np.flatnonzero(vol <= 2.0 * VOLUME_EPS_REL * h**self.d + 2.0**-1000).tolist():
                flat = _degenerate(float(vol[k]), float(h[k]), self.d)
                if flat is not None:
                    vols[todo[:k]] = vol[:k]
                    raise flat
            vols[todo] = vol
        return vols[ids]

    def regularity(self, node_ids) -> list[float]:
        """The nodes' regularity ratios rho = vol / h**d in Python floats, the bits regularity_ratio gives.

        Volumes and longest edges come from the node table (volumes, then
        longest_edges), so a degenerate node raises DegenerateSimplex.
        """
        vol = self.volumes(node_ids).tolist()
        h = self.longest_edges(node_ids)[0].tolist()
        return [v / hk**self.d for v, hk in zip(vol, h)]

    def bisect(self, node_id: int) -> tuple[int, int]:
        """Longest-edge bisection of a leaf; returns the child node ids.

        The midpoint of the canonical longest edge (u, w) goes through
        the registry, so one a neighbour already made keeps its id; it
        replaces w in the first child and u in the second, so each child
        keeps one endpoint of the split edge and the parent's vertex order.
        Both children are appended at the end of the node table, so node
        ids are creation order, which is what lets a partition file be its
        roots and split ids in that order (read_partition replays them).
        The edge comes from longest_edges; nothing is built or checked
        here, so a caller that needs its leaves valid asks volumes.
        """
        if not 0 <= node_id < self._n_nodes:
            raise IndexError(f"node {node_id} is not in the partition")
        if self._children[node_id, 0] >= 0:
            raise ValueError(f"node {node_id} is not a leaf")
        if math.isnan(self._h[node_id]):
            self.longest_edges((node_id,))
        i, j = self._edge[node_id].tolist()
        vids = self._vertex_ids[node_id].tolist()
        mid = self._register((self._coords[vids[i]] + self._coords[vids[j]]) / 2.0)
        first = self._new_nodes(2)
        kids = self._vertex_ids[first : first + 2]
        kids[:] = self._vertex_ids[node_id]
        kids[0, j] = kids[1, i] = mid
        self._parent[first] = self._parent[first + 1] = node_id
        self._generation[first] = self._generation[first + 1] = self._generation[node_id] + 1
        self._children[node_id, 0], self._children[node_id, 1] = first, first + 1
        return first, first + 1

    def bisect_leaves(self, node_ids) -> None:
        """Bisect distinct leaves as bisect on each of them in turn would.

        One leaf takes bisect.  More are split in one stacked pass: the
        longest edges come from one longest_edges call, every midpoint is
        (v_i + v_j) / 2 in one elementwise operation on the gathered
        corners (the bits bisect gets), the midpoints are registered in the
        given order (_register_rows), and _split writes the children.  A
        partition refined either way has the same node table and registry,
        bit for bit.
        """
        node_ids = list(node_ids)
        if len(node_ids) <= 1:
            for node_id in node_ids:
                self.bisect(node_id)
            return
        leaves = np.array(node_ids, dtype=np.intp)
        if leaves.min() < 0 or leaves.max() >= self._n_nodes:
            raise IndexError(f"node ids {node_ids} are not all in the partition")
        if np.any(self._children[leaves, 0] >= 0) or len(set(node_ids)) < len(node_ids):
            raise ValueError("bisect_leaves needs distinct leaves")
        i, j = self.longest_edges(leaves)[1].T
        rows = np.arange(leaves.size)
        verts = self._corners(leaves)
        self._split(leaves, i, j, self._register_rows((verts[rows, i] + verts[rows, j]) / 2.0))

    def _split(self, leaves: np.ndarray, i: np.ndarray, j: np.ndarray, mid) -> None:
        """Write the leaves' children into the node table, as bisect lays them out.

        Leaf k's longest edge is (i[k], j[k]) and its midpoint has registry
        id mid[k]; its children get the next ids 2k and 2k + 1, the first
        with mid in place of vertex j[k], the second in place of i[k].  The
        caller has checked the leaves and registered the midpoints.
        """
        first = self._new_nodes(2 * leaves.size)
        new = slice(first, self._n_nodes)
        rows = np.arange(leaves.size)
        kids = self._vertex_ids[new].reshape(-1, 2, self.d + 1)  # each leaf's first and second child
        kids[:] = self._vertex_ids[leaves, None]
        kids[rows, 0, j] = kids[rows, 1, i] = mid
        self._parent[new].reshape(-1, 2)[:] = leaves[:, None]
        self._generation[new].reshape(-1, 2)[:] = self._generation[leaves, None] + 1
        self._children[leaves] = np.arange(first, self._n_nodes).reshape(-1, 2)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.d == other.d
            and self._n_nodes == other._n_nodes
            and self._n_vertices == other._n_vertices
            and all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))
            and np.array_equal(self._coords[: self._n_vertices], other._coords[: other._n_vertices])
        )


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
    node id), which generally leaves the forest non-conforming.  Each
    round first measures the volumes of its leaves, so a degenerate leaf
    raises DegenerateSimplex before it is bisected.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not p.leaves:
        raise EmptyPartition("partition has no leaves")
    for _ in range(steps):
        leaves = p.leaves
        p.volumes(leaves)
        if strategy == "bisect-largest-leaf":
            h = p.longest_edges(leaves)[0]
            p.bisect(leaves[int(np.argmax(h))])  # leaves ascend, so ties go to the smallest id
        else:
            p.bisect_leaves(leaves)
    return p


def min_regularity(p: Partition) -> float:
    """eta_min: the smallest leaf regularity ratio.

    This is the largest eta for which every current leaf S satisfies
    vol(S) >= eta * h(S)^d, the minimum of Partition.regularity over the
    leaves; a degenerate leaf raises.
    """
    leaves = p.leaves
    if not leaves:
        raise EmptyPartition("partition has no leaves")
    return min(p.regularity(leaves))


def _incidence(p: Partition, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(point index, leaf id) pairs of every leaf whose closure holds a point.

    A tree descent from the roots, one generation at a time: the frontier
    is a pair of arrays (point index, node id), and a pair stays in it
    when the point's barycentric coordinates in the node are all
    >= -MEMBERSHIP_TOL, so a hanging vertex on a leaf's face is found as
    well as the leaf corners.  Per generation, the distinct frontier nodes
    take their vertex coordinates straight from the registry and their
    gradient rows 1..d from one _gradient_rows call (row 0 is never read),
    and one _barycentric call on each pair's rows gives every pair's
    coordinates, the bits barycentric_many gives on the node's Simplex.
    Pairs on a leaf are recorded, the others move on to both children
    through the node table's children column.  Only the nodes a point
    reaches are read, so one point costs a path, not the forest.  No
    volume is measured, so the leaves are not validated here;
    min_regularity does that.
    """
    _, _, children, vertex_ids = p._columns()
    coords = p.vertices
    roots = np.array(p.roots, dtype=np.intp)
    point = np.repeat(np.arange(points.shape[0]), roots.size)
    node = np.tile(roots, points.shape[0])
    found_point, found_leaf = [point[:0]], [node[:0]]
    slot = np.empty(len(children), dtype=np.intp)
    while point.size:
        # the distinct frontier nodes and each pair's index among them (not
        # np.unique, whose sort kernels add half a MiB of resident pages)
        distinct = np.flatnonzero(np.bincount(node, minlength=len(children)))
        slot[distinct] = np.arange(distinct.size)
        at = slot[node]
        verts = coords[vertex_ids[distinct]]
        lam = _barycentric(_gradient_rows(verts)[at], points[point] - verts[at, 0])
        inside = np.all(lam >= -MEMBERSHIP_TOL, axis=1)
        point, node = point[inside], node[inside]
        kids = children[distinct][at[inside]]
        leaf = kids[:, 0] < 0
        found_point.append(point[leaf])
        found_leaf.append(node[leaf])
        point, node = np.repeat(point[~leaf], 2), kids[~leaf].ravel()
    return np.concatenate(found_point), np.concatenate(found_leaf)


def vertex_valence(p: Partition, point) -> int:
    """Number of leaves whose closure contains the point.

    Membership is geometric (barycentric test with MEMBERSHIP_TOL), so the
    count is correct even for hanging nodes of a non-conforming state.
    """
    pt = as_point(point, p.d)
    if not p.leaves:
        raise EmptyPartition("partition has no leaves")
    count = _incidence(p, pt[None, :])[0].size
    if count == 0:
        # roots tile the domain, so zero leaves means outside it
        raise PointOutsideDomain(f"point {pt.tolist()} is outside the root domain")
    return count


def registry_valences(p: Partition) -> np.ndarray:
    """Valence of every registry vertex, in registry order."""
    if not p.leaves:
        raise EmptyPartition("partition has no leaves")
    return np.bincount(_incidence(p, p.vertices)[0], minlength=p.n_vertices)


def max_valence(p: Partition) -> tuple[np.ndarray, int]:
    """(witness point, count) maximizing valence over registry vertices.

    For a face-to-face forest the maximum over all points of the domain
    is attained at a vertex: the leaf set containing any point x also
    contains every leaf around the lowest-dimensional face holding x,
    and that face's vertices belong to at least those leaves.
    """
    counts = registry_valences(p)
    k = int(np.argmax(counts))  # first maximal vertex wins
    return p.vertex_coords(k).copy(), int(counts[k])


# -------------------------------------------------------------- the audit


class VertexCheck(NamedTuple):
    """One (leaf, vertex) cone audit row.

    strong_bound is per_simplex_angle_bound of the leaf's own regularity
    ratio, and it must sit below the measured fraction plus 3 standard
    errors; an exact fraction carries EXACT_STDERR as its rounding
    allowance.  The bound at the partition-wide eta_min is never larger,
    since eta_min is the smallest leaf ratio, so no row checks it.
    """

    leaf_id: int
    vertex_id: int
    fraction: float
    stderr: float
    strong_bound: float
    passed_strong: bool


class DecompositionCheck(NamedTuple):
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
    """Outcome of verify_theorem, with a VertexCheck for each of the total_pairs (leaf, vertex) pairs.

    cone_classes is the number of quadratures the audit ran, one per class
    key of cones with four or more facets, corner or face (0 in d <= 3);
    it is not in the report.
    """

    d: int
    eta_min: float
    theoretical_bound: float
    max_observed_valence: int
    witness: np.ndarray
    total_pairs: int
    per_vertex_checks: list[VertexCheck] = field(default_factory=list)
    decomposition_checks: list[DecompositionCheck] = field(default_factory=list)
    valence_ok: bool = True
    cone_classes: int = 0

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
    valence descent, applied to the facet, with every root's gradients
    from one _gradients call and its coordinates from _barycentric.
    """
    roots = p.roots
    root_vids = [tuple(vids) for vids in p._vertex_ids[roots].tolist()]
    facets = Counter(frozenset(vids[:i] + vids[i + 1 :]) for vids in root_vids for i in range(len(vids)))
    pts = p.vertices
    verts = p._corners(roots)
    mask = np.zeros(p.n_vertices, dtype=bool)
    for vids, origin, grads in zip(root_vids, verts[:, 0], _gradients(verts)):
        lam = _barycentric(grads[1:], pts - origin)
        inside = np.all(lam >= -MEMBERSHIP_TOL, axis=1)
        for i in range(len(vids)):
            if facets[frozenset(vids[:i] + vids[i + 1 :])] == 1:
                mask |= inside & (lam[:, i] <= MEMBERSHIP_TOL)
    return mask


def _corner_normals(p: Partition, leaves) -> np.ndarray:
    """(m, d+1, d, d) half-space matrices of the leaves' corner cones, [i, k] at vertex k of leaf i.

    The gradients come from one _gradients call, the bits of
    Simplex.barycentric_gradients.  Each cone keeps every row but its
    vertex's, in order, as cone_at_point cuts it.
    """
    d = p.d
    return _gradients(p._corners(leaves))[:, [[r for r in range(d + 1) if r != k] for k in range(d + 1)]]


def verify_theorem(p: Partition) -> TheoremReport:
    """End-to-end audit of the intersection-number bound.

    Steps: compute eta_min and the theoretical bound N(eta_min, d);
    locate every registry vertex by one tree descent, whose (vertex,
    leaf) incidences give both the valences and the leaves around each
    vertex; measure the solid-angle fraction of each (leaf, vertex) cone
    and check it against the per-simplex bound minus 3 stderr; and sum
    the fractions of the incident leaves around every vertex, with the
    face cone of each leaf the vertex hangs on (interior sums must hit 1
    within 4 combined stderr, boundary sums must not exceed 1 by more).

    The corner cones are one stack (_corner_normals), and each leaf's
    rho (Partition.regularity) and bound are computed once.  One
    exact_solid_angle_fractions call measures the stack with stderr
    EXACT_STDERR (closed forms up to three facets, one checked quadrature
    per cone class beyond, which raises QuadratureError naming the cone).
    Only the face cones of hanging vertices are cut by cone_at_point, from
    Partition.simplex, in (vertex, leaf) order, with the same classes.

    The records are built from columns: every pair's verdict comes from
    one numpy comparison, and the VertexChecks and DecompositionChecks
    from VertexCheck._make and DecompositionCheck._make over zipped
    columns.  Each decomposition sum is taken left to right in ascending
    leaf id, rank by rank: the r-th incidence of every vertex with more
    than r is added to its running total in one operation, which gives
    the bits of a per-vertex Python loop in O(incidences) memory.  Every
    term carries EXACT_STDERR, so the combined stderr is read by valence
    from one running sum of the squares.
    """
    leaves = p.leaves
    if not leaves:
        raise EmptyPartition("partition has no leaves")
    eta_min = min_regularity(p)
    d = p.d
    bound_n = max_intersection_bound(eta_min, d)

    n = p.n_vertices
    at_vertex, at_leaf = _incidence(p, p.vertices)
    valences = np.bincount(at_vertex, minlength=n)
    witness_id = int(np.argmax(valences))
    max_val = int(valences[witness_id])

    width = d + 1
    total_pairs = len(leaves) * width
    # pair c is corner c % width of the (c // width)-th leaf
    slot = np.repeat(np.arange(len(leaves)), width).tolist()  # each pair's index in leaves
    corner = np.tile(np.arange(width), len(leaves)).tolist()
    leaf_col = list(map(leaves.__getitem__, slot))
    vid_col = p._vertex_ids[leaves].ravel().tolist()
    cone_ids = list(map("%d:v%d".__mod__, zip(leaf_col, corner)))
    classes: dict = {}  # the fraction of each cone class, local to this audit
    fraction = exact_solid_angle_fractions(_corner_normals(p, leaves).reshape(total_pairs, d, d), cone_ids, classes)

    # the records share each leaf's bound, as Python floats
    strong = [per_simplex_angle_bound(r, d) for r in p.regularity(leaves)]
    strong_col = list(map(strong.__getitem__, slot))
    fraction_at = np.array(fraction)
    passed_strong = (fraction_at >= np.array(strong_col) - 3.0 * EXACT_STDERR).tolist()
    columns = (leaf_col, vid_col, fraction, itertools.repeat(EXACT_STDERR), strong_col, passed_strong)
    checks = list(map(VertexCheck._make, zip(*columns)))

    # every incidence, in (vertex, leaf) order: the order of the sums
    order = np.lexsort((at_leaf, at_vertex))
    inc_vertex, inc_leaf = at_vertex[order], at_leaf[order]
    # an incidence at corner k of its leaf takes its pair's measurement
    at, k = np.nonzero(p._vertex_ids[inc_leaf] == inc_vertex[:, None])
    leaf_slot = np.zeros(p._n_nodes, dtype=np.intp)
    leaf_slot[leaves] = np.arange(len(leaves))
    terms = np.empty(inc_vertex.size)  # each incidence's fraction
    terms[at] = fraction_at[leaf_slot[inc_leaf[at]] * width + k]
    # the others hang on a face of their leaf: its face cone, cut and measured in this order
    face = np.zeros(inc_vertex.size, dtype=bool)
    face[at] = True
    face = np.flatnonzero(~face)
    for row, leaf, vid in zip(face.tolist(), inc_leaf[face].tolist(), inc_vertex[face].tolist()):
        terms[row] = exact_solid_angle_fraction(cone_at_point(p.simplex(leaf), p.vertex_coords(vid)), classes)

    # Each sum is taken left to right, as a Python loop would take it (from
    # Python 3.12 the builtin sum compensates, which would make the report's
    # bytes depend on the Python version): rank r adds the r-th term of every
    # vertex with more than r.  With the vertices in order of falling valence
    # those are a prefix, and with the terms laid out rank by rank their
    # terms are one block.
    by_valence = np.lexsort((max_val - valences,))
    place = np.empty(n, dtype=np.intp)
    place[by_valence] = np.arange(n)
    live = n - np.cumsum(np.bincount(valences))[:max_val]  # [r]: the vertices with valence > r
    block = np.cumsum(live) - live
    rank = np.arange(inc_vertex.size) - (np.cumsum(valences) - valences)[inc_vertex]
    ranked = np.empty_like(terms)
    ranked[block[rank] + place[inc_vertex]] = terms
    running = np.zeros(n)
    for start, count in zip(block.tolist(), live.tolist()):
        running[:count] += ranked[start : start + count]
    total = running[place]
    # every term's stderr is EXACT_STDERR, so a vertex's variance is the
    # left-to-right sum of as many of its squares as its valence
    squares = np.full(max_val + 1, EXACT_STDERR * EXACT_STDERR)
    squares[0] = 0.0
    sigma = np.sqrt(np.cumsum(squares))[valences]
    interior = ~boundary_vertex_mask(p)
    passed = np.where(interior, np.abs(total - 1.0) <= 4.0 * sigma, total <= 1.0 + 4.0 * sigma)
    columns = (np.arange(n), interior, valences, total, sigma, passed)
    decomposition = list(map(DecompositionCheck._make, zip(*(a.tolist() for a in columns))))

    return TheoremReport(
        d=d,
        eta_min=eta_min,
        theoretical_bound=bound_n,
        max_observed_valence=max_val,
        witness=p.vertex_coords(witness_id).copy(),
        total_pairs=total_pairs,
        per_vertex_checks=checks,
        decomposition_checks=decomposition,
        valence_ok=max_val <= bound_n,
        cone_classes=len(classes),
    )
