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
from typing import Callable

import numpy as np

from .errors import ArityError, BudgetTooSmall, DegenerateSimplex, EmptyPartition
from .geometry import regularity_ratio  # not called here; bound for perfbench/tracing.py's span of it
from .partition import Partition


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


@dataclass(frozen=True)
class TraceRow:
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

    No Simplex is built: the roots' edges come from one
    Partition.longest_edges call and their ratios from one
    Partition.regularity call, and each step's children's longest edges
    from one longest_edges call.  The children's ratios are taken once,
    after the loop, in one Partition.regularity call, which raises
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
    values: dict[int, float] = {}
    evaluations = 0

    def value_at(vid: int) -> float:
        nonlocal evaluations
        v = values.get(vid)
        if v is None:
            v = float(f(p.vertex_coords(vid)))
            if not math.isfinite(v):
                raise ValueError(f"objective returned non-finite value {v} at vertex {vid}")
            values[vid] = v
            evaluations += 1
        return v

    best_vid = -1
    best_val = math.inf

    def consider(vid: int) -> None:
        nonlocal best_vid, best_val
        v = value_at(vid)
        if v < best_val or (v == best_val and vid < best_vid):
            best_val = v
            best_vid = vid

    def raw_bound(node_id: int, h: float) -> float:
        vals = [value_at(v) for v in p._vertex_ids[node_id].tolist()]
        return simplex_lower_bound(vals, lip, h, p.d)

    heap: list[tuple[float, int]] = []
    h = p.longest_edges(roots)[0].tolist()
    for root, hr in zip(roots, h):
        for vid in p._vertex_ids[root].tolist():
            consider(vid)
        heapq.heappush(heap, (raw_bound(root, hr), root))
    eta_min = min(p.regularity(roots))

    rows: list[tuple[int, int, float, float, float]] = []  # TraceRow without eta_min
    while True:
        lb, node_id = heap[0]
        gap = best_val - lb
        rows.append((len(rows), node_id, lb, best_val, gap))
        if gap <= tol or evaluations >= budget:
            stop_reason = "tol" if gap <= tol else "budget"
            break
        heapq.heappop(heap)
        left, right = p.bisect(node_id)
        i, j = p._edge[node_id].tolist()
        mid = int(p._vertex_ids[left, j])
        if mid in p._vertex_ids[node_id].tolist():
            # the midpoint rounded onto a vertex, so a child repeats one;
            # stop here rather than split a copy of the parent forever
            p.volumes(range(len(roots), p._n_nodes))
            raise DegenerateSimplex(f"node {node_id}: its longest edge {i}-{j} is too short to bisect")
        # every other child vertex is a root vertex or the midpoint of an
        # earlier bisection, so it has been considered already
        consider(mid)
        h = p.longest_edges((left, right))[0].tolist()
        for child, hc in zip((left, right), h):
            # inherited bound: the child region is inside the parent's,
            # so the parent's bound still holds and only improves
            heapq.heappush(heap, (max(lb, raw_bound(child, hc)), child))

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
