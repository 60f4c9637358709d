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
from .geometry import _longest_edges
from .geometry import regularity_ratio  # not called here; bound for perfbench/tracing.py's span of it
from .partition import Partition, _grown

# The most queue entries one sweep plans, and the most nodes one
# Partition.regularity call measures after the search.
_PLAN = 1024


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
    When d is given, the value count is checked against d + 1.  A
    non-finite constant, h or vertex value raises ValueError.
    """
    values = list(vertex_values)
    if d is not None and len(values) != d + 1:
        raise ArityError(f"need {d + 1} vertex values for d={d}, got {len(values)}")
    if not (0 <= lipschitz_constant < math.inf):
        raise ValueError(f"Lipschitz constant must be finite and >= 0, got {lipschitz_constant}")
    if not (0 < h < math.inf):
        raise ValueError(f"h must be finite and positive, got {h}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"vertex values must be finite, got {values}")
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

    The search runs in sweeps.  A sweep pops a plan off the queue: its
    next entries in heap order, at most _PLAN of them and at most a
    quarter of the node table's rows (the children of more could outgrow
    the doubled table _grown makes room in, and it would size the table
    exactly instead).  One stacked pass over the plan computes every
    member's midpoint, (v_i + v_j) / 2 as bisect_leaves computes it, its
    children's corners and their longest edges (one _longest_edges call),
    and each child's smallest vertex value but its midpoint's: the
    parent's without vertex j, and without vertex i.  The plan is then
    walked in order as the loop that takes one leaf at a time takes it:
    each member gets its trace row, and the search stops at a row whose
    gap is <= tol or whose evaluations have used up the budget.  A
    member's midpoint is registered as the walk reaches it, through the
    registry's one insert (Partition._insert), the objective is called
    only where the array of vertex values indexed by registry id still
    holds NaN, and the children's bounds, max(lb, min(lo, f(mid)) - L * h)
    in Python floats, are pushed at once.  A child that leads the next
    planned entry in heap order ends the sweep there; one that ties its
    bound has a larger id and waits for the planned entries of that bound.
    At the sweep's end the members walked are split in one
    Partition._split call, with the edges and midpoint ids the walk
    already has, their children's h and (i, j) are written into the node
    table, and the rest of the plan goes back on the queue.  The trace,
    the partition and the result are the bits the one-leaf-at-a-time loop
    gives, and so is the partition left behind when the objective raises
    or returns a non-finite value or a midpoint rounds onto a vertex: the
    members up to that one are registered and split first.

    No Simplex is built.  The roots' ratios come from one
    Partition.regularity call; the children's are taken after the
    search, in creation order and in blocks of _PLAN nodes, which raises
    DegenerateSimplex at the first degenerate child; the trace's eta_min
    column is filled from them then.
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
    root_vids = p._vertex_ids[roots].ravel().tolist()
    for vid in root_vids:
        if math.isnan(values[vid]):
            values[vid] = _evaluated(f, p.vertex_coords(vid), vid)
            evaluations += 1
    # the incumbent: the smallest value, ties to the smallest id
    best_val, best_vid = min((float(values[vid]), vid) for vid in root_vids)
    root_bounds = values[p._vertex_ids[roots]].min(axis=1) - lip * p.longest_edges(roots)[0]
    heap: list[tuple[float, int]] = list(zip(root_bounds.tolist(), roots))
    heapq.heapify(heap)
    eta_min = min(p.regularity(roots))

    insert, pop, push = p._insert, heapq.heappop, heapq.heappush
    rows: list[tuple[int, int, float, float, float]] = []  # TraceRow without eta_min
    stop_reason = None
    while stop_reason is None:
        plan = [pop(heap) for _ in range(min(len(heap), _PLAN, p._parent.shape[0] // 4))]
        nodes = np.array([node_id for _, node_id in plan])
        corner_vids = p._vertex_ids[nodes]
        i, j = p._edge[nodes].T
        at = np.arange(nodes.size)
        corners = p._coords[corner_vids]
        mids = (corners[at, i] + corners[at, j]) / 2.0  # as bisect_leaves
        kids = np.repeat(corners[:, None], 2, axis=1)  # each member's children, as _split lays them out
        kids[at, 0, j] = kids[at, 1, i] = mids
        kid_h, kid_edge = _longest_edges(kids.reshape(-1, p.d + 1, p.d))
        others = np.repeat(values[corner_vids][:, None], 2, axis=1)
        others[at, 0, j] = others[at, 1, i] = np.inf
        lo = others.min(axis=2).ravel().tolist()  # each child's smallest value but its midpoint's
        reach = (lip * kid_h).tolist()
        first = p._n_nodes
        mid_ids: list[int] = []  # registry id of each walked member's midpoint
        flat = None
        try:
            for k, (entry, vids, key, mid) in enumerate(
                zip(plan, corner_vids.tolist(), map(tuple, mids.tolist()), mids)
            ):
                if heap and heap[0] < entry:
                    break  # a child leads the rest of the plan
                lb, node_id = entry
                gap = best_val - lb
                rows.append((len(rows), node_id, lb, best_val, gap))
                if gap <= tol or evaluations >= budget:
                    stop_reason = "tol" if gap <= tol else "budget"
                    break
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
                v = values[vid]
                if math.isnan(v):
                    # a cached value was weighed against the incumbent when it was evaluated
                    v = values[vid] = _evaluated(f, mid, vid)
                    evaluations += 1
                    if v < best_val or (v == best_val and vid < best_vid):
                        best_val, best_vid = v, vid
                else:
                    v = float(v)
                # inherited bound: a child region is inside its parent's, so the
                # parent's bound still holds and only improves
                push(heap, (max(lb, min(lo[2 * k], v) - reach[2 * k]), first + 2 * k))
                push(heap, (max(lb, min(lo[2 * k + 1], v) - reach[2 * k + 1]), first + 2 * k + 1))
        finally:
            walked = len(mid_ids)
            p._split(nodes[:walked], i[:walked], j[:walked], mid_ids)
            p._h[first : p._n_nodes] = kid_h[: 2 * walked]
            p._edge[first : p._n_nodes] = kid_edge[: 2 * walked]
        if flat is not None:
            break
        for entry in plan[walked:]:
            push(heap, entry)

    # row k saw the roots and the 2k children of the k bisections before it
    etas = list(itertools.accumulate(_child_ratios(p, len(roots)), min, initial=eta_min))
    if flat is not None:  # when no child's volume raised first
        raise DegenerateSimplex(flat)
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


def _child_ratios(p: Partition, first: int):
    """Partition.regularity of nodes first onward, in creation order, one block of _PLAN nodes at a time."""
    for start in range(first, p._n_nodes, _PLAN):
        yield from p.regularity(range(start, min(start + _PLAN, p._n_nodes)))


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
