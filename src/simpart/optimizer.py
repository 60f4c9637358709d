"""Simplicial branch-and-bound for Lipschitz objectives.

The search maintains a refinement forest over the root simplices.  Each
leaf carries a lower bound min(f at vertices) - L * h: since no two
points of a simplex are farther apart than its longest edge, an
L-Lipschitz f cannot dip below that anywhere on the leaf.  The leaf
with the smallest bound is bisected, its midpoint evaluated, and the
bounds of the children inherit the parent's (they can only be tighter),
so the global lower bound climbs monotonically toward the incumbent.

Everything is deterministic: vertex evaluations are cached by registry
id, heap ties break on node id, and no randomness is involved.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArityError, BudgetTooSmall, DegenerateSimplex, EmptyPartition
from .geometry import regularity_ratio  # not called here; bound for perfbench/tracing.py's span of it
from .partition import Partition, _grown


@dataclass(frozen=True)
class Objective:
    """A deterministic objective with a user-asserted Lipschitz constant."""

    name: str
    evaluate: Callable[[np.ndarray], float]
    lipschitz_constant: float


def simplex_lower_bound(vertex_values, lipschitz_constant: float, h: float, d: int | None = None) -> float:
    """min(vertex values) - L * h, valid on the whole simplex.

    Any point of the simplex is within h of the vertex attaining the
    minimum, so an L-Lipschitz objective stays above this everywhere.
    When d is given, the value count is checked against d + 1.
    """
    values = list(vertex_values)
    if d is not None and len(values) != d + 1:
        raise ArityError(f"need {d + 1} vertex values for d={d}, got {len(values)}")
    if lipschitz_constant < 0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {lipschitz_constant}")
    if not (h > 0):
        raise ValueError(f"h must be positive, got {h}")
    return min(values) - lipschitz_constant * h


class TraceRow(NamedTuple):
    """State at the top of one loop visit.

    node_id is the queue head (the leaf holding the global lower bound);
    on all but the last row it is the node bisected at that iteration.
    eta_min tracks the worst regularity ratio over every simplex created
    so far, roots included.
    """

    iteration: int
    node_id: int
    lower_bound: float
    incumbent: float
    gap: float
    eta_min: float


@dataclass
class OptimizeResult:
    """Outcome of optimize.

    stop_reason is "tol" when the gap reached tol and "budget" when the
    evaluation budget ran out first.
    """

    point: np.ndarray
    value: float
    gap: float
    lower_bound: float
    leaves_explored: int
    evaluations: int
    eta_min: float
    stop_reason: str
    trace: list[TraceRow] = field(default_factory=list)
    partition: Partition | None = None


def optimize(objective: Objective, p: Partition, budget: int, tol: float) -> OptimizeResult:
    """Branch-and-bound minimization of the objective over the partition.

    Pops the leaf with the smallest lower bound, bisects its longest
    edge, evaluates the midpoint (registry-cached, so a midpoint shared
    with an already-split neighbor costs nothing), and repeats until the
    gap incumbent - global_lower_bound drops to tol or the next
    evaluation would exceed the budget; the result's stop_reason says
    which.  The partition is refined in place and returned inside the
    result.

    budget counts objective evaluations and must cover d + 1 values per
    root; dedup across shared root vertices can leave it underused.  The
    Lipschitz constant must be finite and >= 0, or the bounds order
    nothing.

    The search runs in rounds.  A child whose bound does not beat its
    parent's inherits it, so many leaves tie at the queue head, and the
    loop would take them one after another in id order (any child pushed
    meanwhile at the same bound has a larger id).  A round pops all of
    them, at most one per evaluation left in the budget.  Their midpoints
    are computed in one stacked step and walked in order: each member
    after the first gets its trace row with the incumbent the members
    before it left, and the round ends early at a row whose gap is <= tol.
    The walk registers each member's midpoint as it reaches it, through
    the registry's one insert (Partition._insert), and calls the objective
    only where the array of vertex values indexed by registry id still
    holds NaN.  The members walked are then split in one Partition._split
    call, with the edges and midpoint ids the walk already has (no
    bisect_leaves and none of its checks, gathers or lookups), their
    children measured in one Partition.longest_edges call, and the
    children's bounds taken in one pass over the value array.  The trace,
    the partition and the result are the bits the one-leaf-at-a-time loop
    gives, and so is the partition left behind when the objective raises
    or returns a non-finite value or a midpoint rounds onto a vertex: the
    members up to that one are registered and split first.

    No Simplex is built.  The roots' ratios come from one
    Partition.regularity call; the children's are taken once, after the
    search, in one more, which raises DegenerateSimplex at the first
    degenerate child; the trace's eta_min column is filled from them then.
    """
    lip = objective.lipschitz_constant
    if not (0 <= lip < math.inf):
        raise ValueError(f"Lipschitz constant must be finite and >= 0, got {lip}")
    roots = p.roots
    if not roots:
        raise EmptyPartition("partition has no roots")
    if p.leaves != roots:
        raise ValueError("optimize expects an unrefined partition")
    required = (p.d + 1) * len(roots)
    if budget < required:
        raise BudgetTooSmall(f"budget {budget} cannot cover {required} root vertex evaluations")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")

    f = objective.evaluate
    values = np.full(p.n_vertices, np.nan)  # objective value by registry id, NaN until evaluated
    evaluations = 0

    def bounds(node_ids: np.ndarray) -> np.ndarray:
        """min f(vertices) - L * h of each node, in one stacked pass."""
        return values[p._vertex_ids[node_ids]].min(axis=1) - lip * p.longest_edges(node_ids)[0]

    root_vids = p._vertex_ids[roots].ravel().tolist()
    for vid in root_vids:
        if math.isnan(values[vid]):
            values[vid] = _evaluated(f, p.vertex_coords(vid), vid)
            evaluations += 1
    # the incumbent: the smallest value, ties to the smallest id
    best_val, best_vid = min((float(values[vid]), vid) for vid in root_vids)
    heap: list[tuple[float, int]] = list(zip(bounds(roots).tolist(), roots))
    heapq.heapify(heap)
    eta_min = min(p.regularity(roots))

    insert = p._insert
    rows: list[tuple[int, int, float, float, float]] = []  # TraceRow without eta_min
    while True:
        lb, node_id = heap[0]
        gap = best_val - lb
        rows.append((len(rows), node_id, lb, best_val, gap))
        if gap <= tol or evaluations >= budget:
            stop_reason = "tol" if gap <= tol else "budget"
            break
        members = [heapq.heappop(heap)[1]]
        while heap and heap[0][0] == lb and len(members) < budget - evaluations:
            members.append(heapq.heappop(heap)[1])
        nodes = np.array(members)
        corner_vids = p._vertex_ids[nodes]
        i, j = p._edge[nodes].T
        at = np.arange(nodes.size)
        mids = (p._coords[corner_vids[at, i]] + p._coords[corner_vids[at, j]]) / 2.0  # as bisect_leaves
        mid_ids: list[int] = []  # registry id of each walked member's midpoint
        flat = None
        try:
            for k, (node_id, vids, key, mid) in enumerate(
                zip(members, corner_vids.tolist(), map(tuple, mids.tolist()), mids)
            ):
                if k:
                    gap = best_val - lb
                    if gap <= tol:
                        break
                    rows.append((len(rows), node_id, lb, best_val, gap))
                # registered and split even if what follows raises, as one leaf at a time
                vid = insert(key)
                mid_ids.append(vid)
                if vid in vids:
                    # the midpoint rounded onto a vertex, so a child repeats one;
                    # stop here rather than split a copy of the parent forever
                    flat = f"node {node_id}: its longest edge {i[k]}-{j[k]} is too short to bisect"
                    break
                if vid >= values.shape[0]:
                    values = _grown(values, vid + 1, fill=np.nan)
                if math.isnan(values[vid]):
                    # a cached value was weighed against the incumbent when it was evaluated
                    v = values[vid] = _evaluated(f, mid, vid)
                    evaluations += 1
                    if v < best_val or (v == best_val and vid < best_vid):
                        best_val, best_vid = v, vid
        finally:
            walked = len(mid_ids)
            first = p._n_nodes
            p._split(nodes[:walked], i[:walked], j[:walked], mid_ids)
        if flat is not None:
            p.volumes(range(len(roots), p._n_nodes))
            raise DegenerateSimplex(flat)
        children = np.arange(first, p._n_nodes)
        # inherited bound: a child region is inside its parent's, so the
        # parent's bound still holds and only improves
        for child, bound in zip(children.tolist(), np.maximum(lb, bounds(children)).tolist()):
            heapq.heappush(heap, (bound, child))
        for node_id in members[walked:]:  # left by a gap <= tol; the next row stops there
            heapq.heappush(heap, (lb, node_id))

    # row k saw the roots and the 2k children of the k bisections before it
    etas = list(itertools.accumulate(p.regularity(range(len(roots), p._n_nodes)), min, initial=eta_min))
    trace = [TraceRow(*row, eta_min=etas[2 * row[0]]) for row in rows]
    return OptimizeResult(
        point=p.vertex_coords(best_vid).copy(),
        value=best_val,
        gap=trace[-1].gap,
        lower_bound=trace[-1].lower_bound,
        leaves_explored=len(rows) - 1,
        evaluations=evaluations,
        eta_min=etas[-1],
        stop_reason=stop_reason,
        trace=trace,
        partition=p,
    )


def _evaluated(f: Callable[[np.ndarray], float], x: np.ndarray, vid: int) -> float:
    """f(x) as a float, where x is the coordinates of vertex vid; a non-finite value raises ValueError."""
    v = float(f(x))
    if not math.isfinite(v):
        raise ValueError(f"objective returned non-finite value {v} at vertex {vid}")
    return v


def _sphere(d: int) -> Objective:
    """|x|^2; the gradient norm on the unit cube peaks at 2 sqrt(d)."""
    return Objective("sphere", lambda x: float(x @ x), 2.0 * math.sqrt(d))


def _shifted_sphere(d: int) -> Objective:
    """|x - 0.3 * ones|^2 with minimum 0 inside the cube.

    The declared constant 4 dominates the true one (2 * 0.7 * sqrt(d))
    for every d up to 8, the sizes this engine targets.
    """
    center = np.full(d, 0.3)
    return Objective("shifted-sphere", lambda x: float(np.sum((x - center) ** 2)), 4.0)


def _linear(d: int) -> Objective:
    """Sum of coordinates; Lipschitz constant sqrt(d), attained anywhere."""
    return Objective("linear", lambda x: float(np.sum(x)), math.sqrt(d))


def _constant(d: int) -> Objective:
    return Objective("constant", lambda x: 7.0, 0.0)


OBJECTIVES: dict[str, Callable[[int], Objective]] = {
    "sphere": _sphere,
    "shifted-sphere": _shifted_sphere,
    "linear": _linear,
    "constant": _constant,
}


def build_objective(name: str, d: int) -> Objective:
    try:
        factory = OBJECTIVES[name]
    except KeyError:
        known = ", ".join(sorted(OBJECTIVES))
        raise KeyError(f"unknown objective {name!r}; known: {known}") from None
    return factory(d)
