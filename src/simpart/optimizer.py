"""Simplicial branch-and-bound for Lipschitz objectives.

The search maintains a refinement forest over the root simplices.  Each
leaf carries a lower bound min(f at vertices) - L * h: since no two
points of a simplex are farther apart than its longest edge, an
L-Lipschitz f cannot dip below that anywhere on the leaf.  The leaf
with the smallest bound is bisected, its midpoint evaluated, and the
bounds of the children inherit the parent's (they can only be tighter),
so the global lower bound climbs monotonically toward the incumbent.

Everything is deterministic: vertex evaluations are cached by registry
id, the queue is kept sorted by (bound, node id), so equal bounds are
taken in node id order, and no randomness is involved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArityError, BudgetTooSmall, DegenerateSimplex, EmptyPartition
from .geometry import _longest_edges
from .geometry import regularity_ratio  # not called here; bound for perfbench/tracing.py's span of it
from .partition import Partition, _midpoints, _place_midpoints

# The most queue entries one sweep plans (the front of the sorted queue),
# and the most nodes one Partition.regularity call measures after the search.
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

    The search runs in sweeps over a queue of two arrays, bounds and node
    ids, kept sorted by (bound, id): the order a heap of (bound, id)
    tuples pops in, with no ties, since ids are unique.  A sweep's plan is
    the queue's first entries, at most _PLAN of them and at most a
    quarter of the node table's rows (the children of more could outgrow
    the doubled table _grown makes room in, and it would size the table
    exactly instead).  One stacked pass over the plan computes the
    members' midpoints, their children's corners and longest edges (one
    _longest_edges call), and each child's smallest vertex value but its
    midpoint's, the children laid out by _place_midpoints; one registry
    lookup gives the midpoints' ids at the sweep's start.  The plan is
    then walked in order as the loop that takes one leaf at a time takes
    it: each member gets its trace row, and the search stops at a row
    whose gap is <= tol or whose evaluations have used up the budget.  A
    midpoint new at the sweep's start is registered as the walk reaches
    it (Partition._insert), the objective is called only where the list
    of vertex values indexed by registry id still holds NaN (a vertex
    registered before the search is evaluated when the walk reaches it),
    and the children's bounds are max(lb, min(lo, f(mid)) - L * h) in
    Python floats.  Only this sweep's children can lead a planned entry,
    and their ids are above every queued one, so the first child whose
    bound is below the next planned entry's ends the sweep there; one that
    ties it waits for the planned entries of that bound.  At the sweep's
    end the members walked are split in one Partition._split call, their
    children's h and (i, j) are written into the node table, and the
    children are merged into the rest of the queue in one step (_merged).
    The trace, the partition and the result are the bits the
    one-leaf-at-a-time loop gives, and so is the partition left behind
    when the objective raises or returns a non-finite value or a midpoint
    rounds onto a vertex: the members up to that one are registered and
    split first.

    No Simplex is built.  The roots' ratios come from one
    Partition.regularity call; the children's are taken after the
    search, in creation order and in blocks of _PLAN nodes, which raises
    DegenerateSimplex at the first degenerate child; the trace's eta_min
    column is then their running minimum (one np.minimum.accumulate).
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
    # the queue, sorted by (bound, id); an unrefined partition's roots are nodes 0, 1, ...
    bounds, ids = _merged(np.empty(0), np.empty(0, dtype=np.intp), root_bounds, 0)
    vals = values.tolist()
    eta_min = min(p.regularity(roots))

    insert, lookup, nan = p._insert, p._ids.get, math.nan
    rows: list[tuple[int, int, float, float, float]] = []  # TraceRow without eta_min
    stop_reason = None
    while stop_reason is None:
        n = min(ids.size, _PLAN, p._parent.shape[0] // 4)
        plan_bounds, nodes = bounds[:n].tolist(), ids[:n]
        corner_vids = p._vertex_ids[nodes]
        i, j = p._edge[nodes].T
        corners = p._coords[corner_vids]
        mids = _midpoints(corners, i, j)
        kids = np.repeat(corners[:, None], 2, axis=1)  # each member's children
        _place_midpoints(kids, i, j, mids)
        kid_h, kid_edge = _longest_edges(kids.reshape(-1, p.d + 1, p.d))
        others = np.repeat(np.array(vals)[corner_vids][:, None], 2, axis=1)
        _place_midpoints(others, i, j, np.inf)
        # one list for the members' first children and one for their second,
        # not a list per member: fewer objects for the garbage collector
        lo = others.min(axis=2).T.tolist()  # each child's smallest value but its midpoint's
        reach = (lip * kid_h).reshape(-1, 2).T.tolist()  # each child's L * h
        keys = list(map(tuple, mids.tolist()))
        known = list(map(lookup, keys, itertools.repeat(-1)))  # registry id at the sweep's start, or -1
        # whether a midpoint known at the sweep's start is one of its member's corners
        onto = (corner_vids == np.array(known)[:, None]).any(axis=1).tolist()
        first = p._n_nodes
        mid_ids: list[int] = []  # registry id of each walked member's midpoint
        kid_bounds: list[float] = []  # the walked members' children's bounds, in id order
        lead = math.inf  # the smallest of them
        flat = None
        try:
            for k, (lb, node_id, vid, on_corner, lo0, lo1, r0, r1) in enumerate(
                zip(plan_bounds, nodes.tolist(), known, onto, *lo, *reach)
            ):
                # a child's id is above every queued one, so it leads this
                # entry exactly when its bound is smaller
                if lead < lb:
                    break
                gap = best_val - lb
                rows.append((len(rows), node_id, lb, best_val, gap))
                if gap <= tol or evaluations >= budget:
                    stop_reason = "tol" if gap <= tol else "budget"
                    break
                # registered and split even if what follows raises, as one leaf at a time
                if vid < 0:  # new at the sweep's start, so no queued node's corner
                    vid = lookup(keys[k], -1)  # made earlier in the sweep, or new
                    if vid < 0:
                        vid = insert(keys[k])
                        vals.append(nan)
                mid_ids.append(vid)
                if on_corner:
                    # the midpoint rounded onto a vertex, so a child repeats one;
                    # stop here rather than split a copy of the parent forever
                    flat = f"node {node_id}: its longest edge {i[k]}-{j[k]} is too short to bisect"
                    break
                v = vals[vid]
                if v != v:
                    # a cached value was weighed against the incumbent when it was evaluated
                    v = vals[vid] = _evaluated(f, mids[k], vid)
                    evaluations += 1
                    if v < best_val or (v == best_val and vid < best_vid):
                        best_val, best_vid = v, vid
                # inherited bound: a child region is inside its parent's, so the
                # parent's bound still holds and only improves; this is
                # max(lb, min(lo, v) - reach), each keeping its first argument on a tie
                x0 = (v if v < lo0 else lo0) - r0
                x1 = (v if v < lo1 else lo1) - r1
                x0 = x0 if x0 > lb else lb
                x1 = x1 if x1 > lb else lb
                kid_bounds += x0, x1
                if x0 < lead:
                    lead = x0
                if x1 < lead:
                    lead = x1
        finally:
            walked = len(mid_ids)
            p._split(nodes[:walked], i[:walked], j[:walked], mid_ids)
            p._h[first : p._n_nodes] = kid_h[: 2 * walked]
            p._edge[first : p._n_nodes] = kid_edge[: 2 * walked]
        if flat is not None:
            break
        bounds, ids = _merged(bounds[walked:], ids[walked:], np.array(kid_bounds), first)

    # row k saw the roots and the 2k children of the k bisections before it
    etas = np.minimum.accumulate(np.concatenate(([eta_min], *_child_ratios(p, len(roots)))))
    if flat is not None:  # when no child's volume raised first
        raise DegenerateSimplex(flat)
    trace = [TraceRow(*row, eta) for row, eta in zip(rows, etas[: 2 * len(rows) : 2].tolist())]
    return OptimizeResult(
        point=p.vertex_coords(best_vid).copy(),
        value=best_val,
        gap=trace[-1].gap,
        lower_bound=trace[-1].lower_bound,
        leaves_explored=len(rows) - 1,
        evaluations=evaluations,
        eta_min=float(etas[-1]),
        stop_reason=stop_reason,
        trace=trace,
        partition=p,
    )


def _merged(bounds: np.ndarray, ids: np.ndarray, kid_bounds: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The queue (bounds, ids), sorted by (bound, id), with children first, first + 1, ... of kid_bounds merged in.

    The children's ids are above every queued one, so each goes after the
    queued entries of an equal bound, and after its elder siblings of one.
    """
    order = np.argsort(kid_bounds, kind="stable")
    kid_bounds = kid_bounds[order]
    at = np.searchsorted(bounds, kid_bounds, side="right")
    return np.insert(bounds, at, kid_bounds), np.insert(ids, at, order + first)


def _child_ratios(p: Partition, first: int):
    """Partition.regularity of nodes first onward, in creation order, one list per block of _PLAN nodes."""
    for start in range(first, p._n_nodes, _PLAN):
        yield p.regularity(range(start, min(start + _PLAN, p._n_nodes)))


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
