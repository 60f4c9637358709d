import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simpart.optimizer as optimizer_mod

from simpart.cones import max_intersection_bound
from simpart.errors import ArityError, BudgetTooSmall, DegenerateSimplex
from simpart.geometry import barycentric_many, make_simplex
from simpart.optimizer import (
    OBJECTIVES,
    Objective,
    build_objective,
    optimize,
    simplex_lower_bound,
)
from simpart.partition import Partition, kuhn_triangulation, partition_from_simplices, refine

from . import oracles
from .oracles import branch_and_bound_per_node, grid_minimum
from .support import random_simplex


def test_simplex_lower_bound_arithmetic():
    assert simplex_lower_bound([1, 2, 3], 1.0, 1.0) == 0.0
    assert simplex_lower_bound([5, 5, 5], 0.0, 3.7) == 5.0
    assert simplex_lower_bound([2.0, -1.0, 4.0], 2.0, 0.5, d=2) == -2.0


def test_simplex_lower_bound_validation():
    with pytest.raises(ArityError):
        simplex_lower_bound([0, 1], 1.0, 1.0, d=2)
    with pytest.raises(ValueError):
        simplex_lower_bound([0, 1, 2], -1.0, 1.0)
    with pytest.raises(ValueError):
        simplex_lower_bound([0, 1, 2], 1.0, 0.0)
    # a non-finite constant, h or vertex value would give a nan or -inf bound
    for values, lip, h in [
        ([1, 2, 3], math.nan, 1.0),
        ([1, 2, 3], math.inf, 1.0),
        ([1, 2, 3], 1.0, math.nan),
        ([1, 2, 3], 1.0, math.inf),
        ([1, math.nan, 3], 1.0, 1.0),
        ([1, 2, -math.inf], 1.0, 1.0),
    ]:
        with pytest.raises(ValueError):
            simplex_lower_bound(values, lip, h)


def test_objective_registry():
    assert set(OBJECTIVES) == {"sphere", "shifted-sphere", "linear", "constant"}
    f = build_objective("shifted-sphere", 2)
    assert f.lipschitz_constant == 4.0
    assert f.evaluate(np.array([0.3, 0.3])) == 0.0
    with pytest.raises(KeyError):
        build_objective("nosuch", 2)


def test_constant_objective_stops_immediately():
    r = optimize(build_objective("constant", 2), kuhn_triangulation(2), budget=100, tol=1e-9)
    assert r.value == 7.0
    assert r.gap == 0.0
    assert r.leaves_explored == 0
    assert len(r.trace) == 1
    assert r.evaluations == 4  # the registry corners, each evaluated once


@pytest.mark.parametrize(
    "name, d, budget, tol, reason",
    [
        ("constant", 2, 100, 1e-9, "tol"),  # gap 0 at the start
        ("shifted-sphere", 2, 400, 0.3, "tol"),  # after 270 evaluations
        ("shifted-sphere", 2, 400, 1e-3, "budget"),
        ("linear", 2, 40, 1e-6, "budget"),
        ("sphere", 3, 200, 1e-3, "budget"),
    ],
)
def test_stop_reason_is_tol_exactly_when_the_gap_reached_it(name, d, budget, tol, reason):
    r = optimize(build_objective(name, d), kuhn_triangulation(d), budget=budget, tol=tol)
    assert r.stop_reason == reason
    assert (r.stop_reason == "tol") == (r.gap <= tol)
    assert r.stop_reason == "tol" or r.evaluations >= budget


def test_linear_objective_minimum_at_a_vertex():
    r = optimize(build_objective("linear", 2), kuhn_triangulation(2), budget=6, tol=1e-6)
    assert r.value == 0.0
    assert np.array_equal(r.point, np.zeros(2))
    assert r.evaluations <= 6


def test_shifted_sphere_converges():
    true_min = grid_minimum(build_objective("shifted-sphere", 2).evaluate, [0, 0], [1, 1], 101)
    assert true_min == 0.0  # the center (0.3, 0.3) lies on the oracle grid
    r = optimize(build_objective("shifted-sphere", 2), kuhn_triangulation(2), budget=5000, tol=1e-3)
    assert r.value <= 1e-3
    assert r.evaluations <= 5000
    assert np.linalg.norm(r.point - np.array([0.3, 0.3])) < 0.05
    # soundness: no lower bound ever climbs above the true minimum
    assert all(row.lower_bound <= true_min + 1e-12 for row in r.trace)
    assert r.value >= true_min


def test_bounds_and_gap_are_monotone():
    r = optimize(build_objective("sphere", 2), kuhn_triangulation(2), budget=800, tol=1e-4)
    lbs = [row.lower_bound for row in r.trace]
    incs = [row.incumbent for row in r.trace]
    gaps = [row.gap for row in r.trace]
    assert all(b >= a for a, b in zip(lbs, lbs[1:]))
    assert all(b <= a for a, b in zip(incs, incs[1:]))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert all(g >= 0.0 for g in gaps)
    assert all(row.lower_bound <= row.incumbent for row in r.trace)


def test_trace_rows_are_consistent():
    r = optimize(build_objective("sphere", 2), kuhn_triangulation(2), budget=200, tol=1e-6)
    assert [row.iteration for row in r.trace] == list(range(len(r.trace)))
    assert r.leaves_explored == len(r.trace) - 1
    assert r.gap == r.trace[-1].gap
    assert r.lower_bound == r.trace[-1].lower_bound
    # kuhn(2) descendants are all right isosceles triangles
    assert all(row.eta_min == pytest.approx(0.25, rel=1e-12) for row in r.trace)


def test_optimizer_is_deterministic():
    a = optimize(build_objective("shifted-sphere", 2), kuhn_triangulation(2), budget=1500, tol=1e-4)
    b = optimize(build_objective("shifted-sphere", 2), kuhn_triangulation(2), budget=1500, tol=1e-4)
    assert a.trace == b.trace
    assert a.value == b.value and np.array_equal(a.point, b.point)


def test_budget_validation():
    with pytest.raises(BudgetTooSmall):
        optimize(build_objective("sphere", 2), kuhn_triangulation(2), budget=5, tol=1e-3)
    with pytest.raises(ValueError):
        optimize(build_objective("sphere", 2), kuhn_triangulation(2), budget=100, tol=0.0)
    with pytest.raises(ValueError):
        optimize(build_objective("sphere", 2), refine(kuhn_triangulation(2), 1), budget=100, tol=1e-3)


def test_non_finite_objective_is_rejected():
    bad = Objective("bad", lambda x: math.nan, 1.0)
    with pytest.raises(ValueError):
        optimize(bad, kuhn_triangulation(2), budget=100, tol=1e-3)


@pytest.mark.parametrize("lipschitz", [math.nan, math.inf, -1.0])
def test_non_finite_or_negative_lipschitz_constant_is_rejected(lipschitz):
    # a NaN or infinite L makes every bound NaN or -inf, so the heap order
    # means nothing and the search would run out its budget certifying nothing
    objective = Objective("x", lambda x: float(x @ x), lipschitz)
    with pytest.raises(ValueError, match="Lipschitz constant"):
        optimize(objective, kuhn_triangulation(2), budget=200, tol=1e-3)


def test_degenerate_child_raises_with_the_message_of_its_build():
    # the thin root of test_degenerate_sibling_raises_only_when_requested:
    # child 2 is degenerate; the children's volumes are measured after the
    # search, which raises the error building that child raises
    thin = [[0.0, 0.0], [3e-12, 0.0], [1.5e-12, 1.0]]
    p = Partition(2)
    p.add_root(thin)
    p.bisect(0)
    with pytest.raises(DegenerateSimplex) as built:
        p.simplex(2)
    assert str(built.value) == "volume 7.500e-13 is degenerate relative to h^d = 1.000e+00"
    q = Partition(2)
    q.add_root(thin)
    with pytest.raises(DegenerateSimplex) as searched:
        optimize(build_objective("sphere", 2), q, budget=200, tol=1e-3)
    assert str(searched.value) == str(built.value)


def test_search_stops_where_a_midpoint_rounds_onto_a_vertex():
    # edges of one ulp: the third bisection's midpoint is a vertex already,
    # so a child repeats a vertex and the other would copy its parent; the
    # search raises there instead of splitting that copy for ever
    p = Partition(2)
    p.add_root([[1.0, 0.0], [1.0 + 2**-52, 0.0], [1.0, 2**-52]])
    with pytest.raises(DegenerateSimplex, match="volume 0.000e"):
        optimize(build_objective("sphere", 2), p, budget=10_000, tol=1e-300)
    assert len(p.nodes) < 10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_optimizer_trace_equals_per_node_builds_bitwise(d):
    # random roots are not dyadic, so midpoints, edges and volumes all round;
    # the search does not need its roots to tile anything
    rng = np.random.default_rng(5200 + d)
    roots = [random_simplex(d, rng) for _ in range(2)]
    centre = roots[0].vertices.mean(axis=0)
    objective = Objective("shifted", lambda x: float(np.sum((x - centre) ** 2)), 6.0)
    r = optimize(objective, partition_from_simplices(roots), budget=400, tol=1e-6)
    rows, nodes, _, _ = branch_and_bound_per_node(objective.evaluate, 6.0, roots, 400, 1e-6)
    assert [tuple(row) for row in r.trace] == rows
    assert r.eta_min == rows[-1][-1]
    p = r.partition
    assert len(p.nodes) == len(nodes)
    everything = range(len(nodes))
    h, edge = p.longest_edges(everything)
    volume = p.volumes(everything)
    for k, s in enumerate(nodes):
        fresh = make_simplex(p.vertices[p._vertex_ids[k]])
        assert fresh.vertices.tobytes() == s.vertices.tobytes()
        assert (h[k], tuple(edge[k].tolist())) == s.longest_edge == fresh.longest_edge
        assert volume[k] == s.volume == fresh.volume


def _rounds(rows, n_roots):
    """The trace's rows grouped into the rounds the search takes them in.

    A round is the queue head's row and the rows after it that tie with
    its bound and whose node was already in the queue then (an id below
    the node count at the head's row, n_roots plus two per row before it).
    """
    rounds = []
    for k, row in enumerate(rows):
        if rounds and row[2] == rows[rounds[-1][0]][2] and row[1] < n_roots + 2 * rounds[-1][0]:
            rounds[-1].append(k)
        else:
            rounds.append([k])
    return rounds


@pytest.mark.parametrize(
    "name, d, budget, tol, cut",
    [
        ("shifted-sphere", 2, 400, 2.8, "tol"),
        ("shifted-sphere", 3, 24, 1e-3, "budget"),
        ("shifted-sphere", 3, 200, 3.4, "tol"),
        ("shifted-sphere", 4, 250, 1e-3, "budget"),
        ("sphere", 2, 7, 1e-3, None),
        ("sphere", 3, 100, 1e-3, "budget"),
        ("sphere", 4, 200, 1e-3, "budget"),
        ("linear", 2, 50, 1e-6, "budget"),
        ("linear", 3, 60, 1e-3, "budget"),
        ("linear", 4, 150, 1e-3, "budget"),
    ],
)
def test_rounds_on_kuhn_roots_equal_per_node_builds_bitwise(name, d, budget, tol, cut):
    # Kuhn descendants of a level share their longest edge, so many leaves
    # tie at the queue head and the search takes them in rounds; cut says
    # whether the budget or tol stops it inside a round (the last row is
    # then a node that was tied with the round's head and not bisected)
    objective = build_objective(name, d)
    r = optimize(objective, kuhn_triangulation(d), budget=budget, tol=tol)
    kuhn = kuhn_triangulation(d)
    roots = [kuhn.simplex(k) for k in kuhn.roots]
    rows, nodes, vertices, incumbent = branch_and_bound_per_node(
        objective.evaluate, objective.lipschitz_constant, roots, budget, tol
    )
    assert [tuple(row) for row in r.trace] == rows
    assert r.stop_reason == ("tol" if rows[-1][4] <= tol else "budget")
    assert (r.stop_reason if len(_rounds(rows, len(roots))[-1]) > 1 else None) == cut
    p = r.partition
    assert p.vertices.tobytes() == vertices.tobytes()
    assert r.evaluations == len(vertices)
    assert r.point.tobytes() == vertices[incumbent].tobytes()
    # the node table is the one bisecting the rows' nodes one at a time gives
    for row in rows[:-1]:
        kuhn.bisect(row[1])
    assert p == kuhn
    assert p._corners(np.arange(len(nodes))).tobytes() == np.array([s.vertices for s in nodes]).tobytes()


def _counting_bisections(monkeypatch):
    """The oracle's bisections, the search's plans, its flushes and its bisect_leaves or _register_rows calls.

    A plan is recorded as its size, from the one _longest_edges call on its
    members' children, and a flush as the node ids of the members it
    split, from its one Partition._split call.  All are recorded as they
    happen, so the caller builds its partitions first.
    """
    oracle_calls, plans, flushes, rebuilt = [], [], [], []
    bisect, split, measure = oracles.bisect_longest_edge, Partition._split, optimizer_mod._longest_edges
    monkeypatch.setattr(oracles, "bisect_longest_edge", lambda s: oracle_calls.append(s) or bisect(s))
    monkeypatch.setattr(optimizer_mod, "_longest_edges", lambda kids: plans.append(len(kids) // 2) or measure(kids))
    monkeypatch.setattr(
        Partition, "_split", lambda p, leaves, *rest: flushes.append(leaves.tolist()) or split(p, leaves, *rest)
    )
    for name in ("bisect_leaves", "_register_rows"):
        method = getattr(Partition, name)
        monkeypatch.setattr(
            Partition, name, lambda p, *args, name=name, method=method: rebuilt.append(name) or method(p, *args)
        )
    return oracle_calls, plans, flushes, rebuilt


class Refused(Exception):
    pass


def _new_midpoint(p, rows, k):
    """The coordinates of the midpoint that row k's bisection registered, or None when a neighbour had made it."""
    child = len(p.roots) + 2 * k
    vid = int(p._vertex_ids[child, p._edge[rows[k][1], 1]])
    return tuple(p.vertex_coords(vid).tolist()) if vid > p._vertex_ids[:child].max() else None


def _refusing(objective, bad, fails="raises"):
    """objective.evaluate, but at the point bad it returns inf or raises Refused."""

    def evaluate(x):
        if tuple(x.tolist()) == bad:
            if fails == "non-finite":
                return math.inf
            raise Refused(f"refused {bad}")
        return objective.evaluate(x)

    return evaluate


@pytest.mark.parametrize("fails", ["non-finite", "raises"])
def test_a_failing_evaluation_inside_a_round_leaves_the_bisections_before_it(fails, monkeypatch):
    # the bad point is the first new midpoint of a round's second or later
    # member; the bisections up to and including that member stay, as in
    # the loop one leaf at a time, whose count the oracle gives
    d, budget = 3, 200
    objective = build_objective("shifted-sphere", d)
    good = optimize(objective, kuhn_triangulation(d), budget=budget, tol=1e-3)
    p, n_roots = good.partition, len(good.partition.roots)
    rows = [tuple(row) for row in good.trace]
    k = next(k for rd in _rounds(rows[:-1], n_roots) for k in rd[1:] if _new_midpoint(p, rows, k))
    bad = _new_midpoint(p, rows, k)

    kuhn, q = kuhn_triangulation(d), kuhn_triangulation(d)
    oracle_calls, _, flushes, rebuilt = _counting_bisections(monkeypatch)
    with pytest.raises(Refused):
        branch_and_bound_per_node(_refusing(objective, bad), 4.0, [kuhn.simplex(r) for r in kuhn.roots], budget, 1e-3)
    assert len(oracle_calls) == k + 1
    with pytest.raises(ValueError if fails == "non-finite" else Refused):
        optimize(Objective("bad", _refusing(objective, bad, fails), 4.0), q, budget=budget, tol=1e-3)
    assert len(flushes[-1]) > 1 and rebuilt == []
    assert len(q.nodes) == n_roots + 2 * len(oracle_calls)
    # the refused midpoint is registered, and nothing after it
    assert tuple(q.vertex_coords(q.n_vertices - 1).tolist()) == bad
    assert q.vertices.tobytes() == p.vertices[: q.n_vertices].tobytes()


def test_a_failing_evaluation_in_a_later_round_of_a_sweep_leaves_the_one_leaf_partition(monkeypatch):
    # the bad point is a new midpoint of a member whose bound is above that
    # of its sweep's first member: the members of the sweep's earlier
    # rounds and the bad one are split in the sweep's one flush, and the
    # partition left is the one bisecting the rows' nodes one at a time gives
    d, budget = 3, 200
    objective = build_objective("shifted-sphere", d)
    _, plans, flushes, _ = _counting_bisections(monkeypatch)
    good = optimize(objective, kuhn_triangulation(d), budget=budget, tol=1e-3)
    p, rows = good.partition, [tuple(row) for row in good.trace]
    starts = list(itertools.accumulate(map(len, flushes), initial=0))
    s, k = next(
        (s, k)
        for s, (first, end) in enumerate(zip(starts, starts[1:]))
        for k in range(first + 1, end)
        if rows[k][2] > rows[first][2] and _new_midpoint(p, rows, k)
    )
    plans.clear()
    flushes.clear()
    q, kuhn = kuhn_triangulation(d), kuhn_triangulation(d)
    with pytest.raises(Refused):
        optimize(Objective("bad", _refusing(objective, _new_midpoint(p, rows, k)), 4.0), q, budget, 1e-3)
    assert len(flushes) == s + 1 and len(flushes[-1]) == k - starts[s] + 1 < plans[-1]
    for row in rows[: k + 1]:
        kuhn.bisect(row[1])
    assert q == kuhn


def _flat_second_root(first_leg, monkeypatch):
    """Search a right triangle with legs of first_leg ulps at the origin and a one-ulp copy at (1, 1), with f = 0.

    Midpoints at the origin are exact; at (1, 1) the hypotenuse's midpoint
    rounds onto the right-angle vertex.  Checks that the search raises
    where the oracle does, having split both roots in its first sweep's
    one flush, as the oracle bisected both.
    """
    u = 2.0**-52
    roots = [
        make_simplex([[0.0, 0.0], [first_leg * u, 0.0], [0.0, first_leg * u]]),
        make_simplex([[1.0, 1.0], [1.0 + u, 1.0], [1.0, 1.0 + u]]),
    ]
    p = partition_from_simplices(roots)
    oracle_calls, plans, flushes, rebuilt = _counting_bisections(monkeypatch)
    with pytest.raises(DegenerateSimplex):
        branch_and_bound_per_node(lambda x: 0.0, 1.0, roots, 10_000, 1e-300)
    with pytest.raises(DegenerateSimplex, match="volume 0.000e"):
        optimize(Objective("zero", lambda x: 0.0, 1.0), p, budget=10_000, tol=1e-300)
    assert plans == [2] and flushes == [[0, 1]] and rebuilt == []
    assert len(p.nodes) == len(roots) + 2 * len(oracle_calls)


def test_a_midpoint_onto_a_vertex_inside_a_round_leaves_the_bisections_before_it(monkeypatch):
    # equal legs: the two roots tie, so the copy is the second member of the first round
    _flat_second_root(1.0, monkeypatch)


def test_a_midpoint_onto_a_vertex_in_a_later_round_of_a_sweep_leaves_the_bisections_before_it(monkeypatch):
    # legs of 1.25 ulps: the first root's bound is below the copy's and its
    # children's (-1.25 ulps) above it, so the copy is the first sweep's second round
    _flat_second_root(1.25, monkeypatch)


# Dyadic triangles for the sweep's ends, searched with f = 0 and L = 1, so
# a node's bound is -h: "big" (h = sqrt 2) has children of h = 1, the h of
# "mid", whose children have h = sqrt(1/2); "small" has h = 1/2.  Nine
# roots give the node table 16 rows, so a plan holds at most 4 entries.
def _big(x):
    return make_simplex([[x, 0.0], [x + 1.0, 0.0], [x, 1.0]])


def _mid(x):
    return make_simplex([[x, 0.0], [x + 1.0, 0.0], [x + 0.5, 0.5]])


def _small(x):
    return make_simplex([[x, 0.0], [x + 0.5, 0.0], [x + 0.25, 0.25]])


def _sweep(roots, objective, budget, tol, monkeypatch):
    """optimize on the roots, checked bitwise against the oracle; the result, the plans' sizes and the flushes."""
    rows, _, vertices, _ = branch_and_bound_per_node(
        objective.evaluate, objective.lipschitz_constant, roots, budget, tol
    )
    _, plans, flushes, _ = _counting_bisections(monkeypatch)
    r = optimize(objective, partition_from_simplices(roots), budget=budget, tol=tol)
    assert [tuple(row) for row in r.trace] == rows
    assert r.partition.vertices.tobytes() == vertices.tobytes()
    return r, plans, flushes


ZERO = Objective("zero", lambda x: 0.0, 1.0)


def test_a_child_that_leads_the_next_planned_entry_ends_the_sweep(monkeypatch):
    # big's children (bound -1) lead the planned smalls (-1/2)
    roots = [_big(0.0)] + [_small(2.0 + k) for k in range(8)]
    r, plans, flushes = _sweep(roots, ZERO, 40, 1e-9, monkeypatch)
    assert plans[0] == 4 and flushes[0] == [0]
    assert [row.node_id for row in r.trace[:3]] == [0, 9, 10]


def test_a_sweep_walks_a_tied_child_after_the_planned_members_of_its_level(monkeypatch):
    # big's children tie the two mids' bound, -1, and come after them: the
    # sweep walks both mids and ends before the first planned small
    roots = [_big(0.0), _mid(2.0), _mid(4.0)] + [_small(6.0 + k) for k in range(6)]
    r, plans, flushes = _sweep(roots, ZERO, 40, 1e-9, monkeypatch)
    assert plans[0] == 4 and flushes[0] == [0, 1, 2]
    assert [row.node_id for row in r.trace[:5]] == [0, 1, 2, 9, 10]


def test_a_sweep_stops_where_the_budget_runs_out_inside_a_planned_level(monkeypatch):
    # nine tied smalls with 27 vertices: two new midpoints use the budget up,
    # and the third planned member's row is the last
    roots = [_small(2.0 * k) for k in range(9)]
    r, plans, flushes = _sweep(roots, ZERO, 29, 1e-9, monkeypatch)
    assert r.stop_reason == "budget" and len(r.trace) == 3
    assert plans == [4] and flushes == [[0, 1]]
    assert len({row.lower_bound for row in r.trace}) == 1


def test_a_sweep_stops_where_the_gap_reaches_tol_inside_a_planned_level(monkeypatch):
    # f is the distance to the nearest of the smalls' longest-edge midpoints
    # (1-Lipschitz): every root's bound is 1/4 - 1/2, and the first member's
    # midpoint brings the incumbent from 1/4 to 0, so the second row's gap
    # is 1/4 <= tol while two more members of that level are planned
    roots = [_small(2.0 * k) for k in range(9)]
    centres = [(2.0 * k + 0.25, 0.0) for k in range(9)]
    nearest = Objective("nearest", lambda x: min(math.dist(x, c) for c in centres), 1.0)
    r, plans, flushes = _sweep(roots, nearest, 1000, 0.3, monkeypatch)
    assert r.stop_reason == "tol" and [row.gap for row in r.trace] == [0.5, 0.25]
    assert plans == [4] and flushes == [[0]]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**16), budget=st.integers(60, 400))
def test_sweeps_equal_the_one_leaf_loop_and_stay_below_the_grid_minimum(d, seed, budget):
    # seeded shifted spheres as the benchmark draws them; L = 4 dominates
    # 2 |x - c| on the unit cube for these centres in d <= 3
    centre = np.random.default_rng(seed).uniform(0.2, 0.8, d)

    def evaluate(x):
        return float(np.sum((x - centre) ** 2))

    kuhn = kuhn_triangulation(d)
    roots = [kuhn.simplex(k) for k in kuhn.roots]
    plans = []
    measure = optimizer_mod._longest_edges
    with mock.patch.object(optimizer_mod, "_longest_edges", lambda kids: plans.append(len(kids)) or measure(kids)):
        r = optimize(Objective("shifted", evaluate, 4.0), kuhn, budget=budget, tol=1e-3)
    assert len(plans) >= 3
    rows, _, _, _ = branch_and_bound_per_node(evaluate, 4.0, roots, budget, 1e-3)
    assert [tuple(row) for row in r.trace] == rows
    floor = grid_minimum(evaluate, [0.0] * d, [1.0] * d, 11)
    assert all(row.lower_bound <= floor for row in r.trace)


def test_every_generation_respects_the_valence_bound():
    # replay the full node set per generation: nodes of generation g plus
    # leaves that stopped earlier tile the domain exactly as the g-th
    # partition stage would, and no point may exceed the bound there
    r = optimize(build_objective("shifted-sphere", 2), kuhn_triangulation(2), budget=300, tol=1e-6)
    p = r.partition
    probes = p.vertices
    masks = {}
    for n in p.nodes:
        lam = barycentric_many(p.simplex(n.id), probes)
        masks[n.id] = np.all(lam >= -1e-9, axis=1)
    bound = max_intersection_bound(r.eta_min, 2)
    max_gen = max(n.generation for n in p.nodes)
    for g in range(max_gen + 1):
        stage = [
            n.id
            for n in p.nodes
            if n.generation == g or (not n.children and n.generation < g)
        ]
        counts = np.sum([masks[i] for i in stage], axis=0)
        assert counts.max() <= bound
        # sanity: the stage tiles the unit square
        areas = sum(float(np.abs(np.linalg.det(p.simplex(i).edge_matrix))) / 2 for i in stage)
        assert areas == pytest.approx(1.0, rel=1e-9)
