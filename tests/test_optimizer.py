import math

import numpy as np
import pytest

import dataclasses

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
    rows, nodes = branch_and_bound_per_node(objective.evaluate, 6.0, roots, 400, 1e-6)
    assert [dataclasses.astuple(row) for row in r.trace] == rows
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
