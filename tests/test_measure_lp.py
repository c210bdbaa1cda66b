import numpy as np
import pytest

from actionlab import (
    BoundaryCurrent,
    LagrangianTable,
    boundary_of_measure,
    build_torus_grid,
    sample_lagrangian,
    solve_boundary,
    solve_closed,
)
from actionlab.grid import lattice_index
from actionlab.measure_lp import INFEASIBLE, OPTIMAL, UNBOUNDED

from oracles import (
    grid_edges,
    loop_action,
    loop_offset_index,
    random_closed_instance,
    scan_dijkstra,
    simple_cycle_min_mean,
)


def two_node_table():
    """Self-loops 2 and 5, crossing edges 3 (0->1) and 1 (1->0); duplicates priced out."""
    grid = build_torus_grid(1, 2, 1, 1.0)
    values = np.array([[9.0, 2.0, 3.0], [9.0, 5.0, 1.0]])  # offsets -1, 0, +1
    return LagrangianTable(grid=grid, values=values)


def test_two_node_value_and_measure():
    table = two_node_table()
    sol = solve_closed(table)
    assert sol.status == OPTIMAL
    # simple cycle means: 2, 5, (3+1)/2 = 2; minimum is 2
    assert sol.value == pytest.approx(2.0, abs=1e-12)
    assert sol.measure.mass == pytest.approx(1.0, abs=1e-12)
    # deterministic tie-break lands on the node-0 self-loop
    assert sol.measure.weights == {(0, 1): 1.0}


def test_exact_form_value_zero():
    grid = build_torus_grid(1, 8, 2, 0.125)
    f0 = np.sin(2 * np.pi * np.arange(8) / 8)
    df0 = (f0[grid.neighbors] - f0[:, None]) / grid.time_step
    sol = solve_closed(LagrangianTable(grid=grid, values=df0))
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert boundary_of_measure(sol.measure).charges == {}


def test_pendulum_rest_atom():
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    sol = solve_closed(table)
    assert sol.value == pytest.approx(-1.0, abs=1e-12)
    assert sol.measure.weights == {(8, grid.zero_offset_index): 1.0}


def test_closed_cycle_is_in_walk_order_and_its_action_adds_in_that_order():
    # the cheap -1 steps make the full leftward rotation the one optimal
    # cycle; its walk 0 -> 15 -> 14 -> ... is not ascending edge order
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    rng = np.random.default_rng(0)
    values = rng.uniform(1.0, 2.0, (16, 3))
    left = loop_offset_index(grid, -1)
    values[:, left] = rng.uniform(0, 1e-3, 16) * 10.0 ** rng.integers(-3, 3, 16)
    table = LagrangianTable(grid=grid, values=values)
    mu = solve_closed(table).measure
    ids, weights = mu.edges()
    assert ids.tolist() == [0 * 3 + left] + [x * 3 + left for x in range(15, 0, -1)]
    assert weights.tolist() == [1 / 16] * 16
    assert mu.action(table) == loop_action(table, mu)
    ascending = 0.0
    for e in sorted(ids.tolist()):
        ascending += float(values.ravel()[e]) / 16
    assert mu.action(table) != ascending  # the order shows in the bits


def test_closed_matches_brute_force_small():
    rng = np.random.default_rng(3)
    for _ in range(25):
        table = random_closed_instance(rng, max_n=8, max_k=2)
        sol = solve_closed(table)
        oracle = simple_cycle_min_mean(table.grid.num_nodes, grid_edges(table))
        assert sol.value == pytest.approx(oracle, abs=1e-12)


def test_closed_solver_errors_name_grid_costs_and_tolerance(monkeypatch):
    from actionlab import measure_lp

    table = two_node_table()
    where = "the table on grid d=1, n=2, k=1 with L in [1.0, 9.0], tolerance 1.6e-13; solver bug"
    monkeypatch.setattr(measure_lp, "_extract_tight_cycle", lambda *args: [])
    with pytest.raises(RuntimeError) as err:
        solve_closed(table)
    assert str(err.value) == f"no tight cycle at mean 2.0 in {where}"


def test_closed_solution_is_feasible_probability_circulation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        table = random_closed_instance(rng, max_n=32)
        sol = solve_closed(table)
        assert sol.measure.mass == pytest.approx(1.0, abs=1e-9)
        bm = boundary_of_measure(sol.measure)
        assert all(abs(c) <= 1e-9 for c in bm.charges.values())
        recomputed = sum(table.values[e] * w for e, w in sol.measure.weights.items())
        assert recomputed == pytest.approx(sol.value, abs=1e-12)


def test_affine_rescaling_scales_value_and_keeps_support():
    rng = np.random.default_rng(5)
    for _ in range(10):
        table = random_closed_instance(rng, max_n=24)
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0))
        scaled = LagrangianTable(grid=table.grid, values=a * table.values + b)
        sol = solve_closed(table)
        sol2 = solve_closed(scaled)
        assert sol2.value == pytest.approx(a * sol.value + b, rel=1e-12, abs=1e-12)
        assert set(sol2.measure.weights) == set(sol.measure.weights)


def test_closed_equivariance_from_tiny_to_huge_scales():
    """solve_closed(a*L + b) has value a*c0 + b for a over 18 decades, b up to 1e9.

    The support is compared for every a at b = 0 and for every b at a = 1.
    Elsewhere float64 rounding of a*L + b can merge distinct costs (a = 1e-12
    with b = 1e6, say), and the stored table is then a different problem.
    """
    grid = build_torus_grid(1, 512, 2, 1.0 / 512)
    rng = np.random.default_rng(1)
    values = rng.uniform(-1.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    base = solve_closed(LagrangianTable(grid=grid, values=values))
    for a in (1e-12, 1e-6, 1.0, 1e6):
        for b in (0.0, 1e6, 1e9):
            sol = solve_closed(LagrangianTable(grid=grid, values=a * values + b))
            assert sol.value == pytest.approx(a * base.value + b, rel=1e-9), (a, b)
            if b == 0.0 or a == 1.0:
                assert sol.measure.weights.keys() == base.measure.weights.keys(), (a, b)


def test_boundary_distance_equals_dijkstra():
    grid = build_torus_grid(1, 12, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    src, dst = 2, 9
    current = BoundaryCurrent(grid=grid, charges={dst: 1.0, src: -1.0})
    sol = solve_boundary(table, current)
    assert sol.status == OPTIMAL
    dist = scan_dijkstra(grid.num_nodes, grid_edges(table), src)
    assert sol.value == pytest.approx(dist[dst], abs=1e-9)
    bm = boundary_of_measure(sol.measure)
    assert bm.charges.get(dst, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert bm.charges.get(src, 0.0) == pytest.approx(-1.0, abs=1e-9)


def test_boundary_solution_keeps_the_flow_dual_for_h_times_L():
    # seeded 2-D n=12 table with a non-unit step h = 1/12: the potential is
    # the flow's, scaled to the certificate's costs h*L, so it is feasible
    # for h*L everywhere and tight on the support
    rng = np.random.default_rng(61)
    grid = build_torus_grid(2, 12, 1, 1.0 / 12)
    table = LagrangianTable(
        grid=grid, values=rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    )
    ends = rng.choice(grid.num_nodes, size=10, replace=False)
    charges = {int(x): -1.0 for x in ends[:5]}
    charges.update({int(x): 1.0 for x in ends[5:]})
    sol = solve_boundary(table, BoundaryCurrent(grid=grid, charges=charges))
    tails, heads = grid.edge_endpoints
    reduced = grid.time_step * table.values.ravel() + sol.potential[tails] - sol.potential[heads]
    assert reduced.min() >= -1e-12
    assert np.abs(reduced[sol.measure.edge_ids()]).max() <= 1e-12
    assert solve_closed(table).potential is None


@pytest.mark.parametrize("a", [1e6, 1.0, 1e-6, 1e-12, 1e-15])
def test_boundary_negative_cycle_unbounded_at_every_scale(a):
    # d=1, n=8 pendulum 0.5 v^2 + cos 2 pi x times a: the rest loops over the
    # valley cost a cos 2 pi x < 0, so every a > 0 leaves the problem unbounded
    grid = build_torus_grid(1, 8, 1, 0.125)
    pendulum = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    table = LagrangianTable(grid=grid, values=a * pendulum.values)
    current = BoundaryCurrent(grid=grid, charges={0: -1.0, 3: 1.0})
    assert solve_boundary(table, current).status == UNBOUNDED


def test_boundary_status_and_support_invariant_under_scaling():
    # seeded nonnegative 2-D n=16 table with 8 unit charge pairs: L -> a L
    # keeps the status and the support, and scales the value by a
    rng = np.random.default_rng(97)
    grid = build_torus_grid(2, 16, 1, 1.0 / 16)
    values = rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    ends = rng.choice(grid.num_nodes, size=16, replace=False)
    charges = {int(x): -1.0 for x in ends[:8]}
    charges.update({int(x): 1.0 for x in ends[8:]})
    current = BoundaryCurrent(grid=grid, charges=charges)
    base = solve_boundary(LagrangianTable(grid=grid, values=values), current)
    assert base.status == OPTIMAL
    for a in (1e6, 1.0, 1e-6, 1e-12, 1e-18, 1e-24):
        sol = solve_boundary(LagrangianTable(grid=grid, values=a * values), current)
        assert sol.status == OPTIMAL, a
        assert sol.measure.weights.keys() == base.measure.weights.keys(), a
        assert sol.value / a == pytest.approx(base.value, rel=1e-12), a


def _homogeneity_case(d):
    # d=2: a seeded n=12 table with five unit charge pairs; d=1: the |v| ring
    # of finsler_distance with one pair
    if d == 1:
        grid = build_torus_grid(1, 10, 1, 1.0)
        return sample_lagrangian(grid, lambda x, v: abs(v)), {0: -1.0, 5: 1.0}
    rng = np.random.default_rng(211)
    grid = build_torus_grid(2, 12, 1, 1.0 / 12)
    table = LagrangianTable(grid=grid, values=rng.uniform(0.0, 1.0, (grid.num_nodes, grid.num_offsets)))
    ends = rng.choice(grid.num_nodes, size=10, replace=False).tolist()
    return table, {x: (-1.0 if i < 5 else 1.0) for i, x in enumerate(ends)}


@pytest.mark.parametrize("d", [1, 2])
def test_boundary_solution_is_homogeneous_in_the_current(d):
    # the boundary problem is linear in the current: a power of two a scales
    # the charges, the weights and the value exactly and keeps the support,
    # from a = 2^-60 to 2^20.  Supports are compared, not criteria: at tiny a
    # an absolute tolerance passes the empty measure too.
    table, charges = _homogeneity_case(d)
    base = solve_boundary(table, BoundaryCurrent(grid=table.grid, charges=charges))
    assert base.status == OPTIMAL and base.measure.weights
    for k in (-60, -45, -40, -30, -20, 0, 20):
        a = 2.0**k
        scaled = BoundaryCurrent(grid=table.grid, charges={x: a * c for x, c in charges.items()})
        sol = solve_boundary(table, scaled)
        assert sol.status == OPTIMAL, k
        assert sol.measure.weights == {e: a * w for e, w in base.measure.weights.items()}, k
        assert sol.value == a * base.value, k


def test_boundary_zero_current_with_negative_cycle_is_unbounded():
    grid = build_torus_grid(1, 6, 1, 0.5)
    table = sample_lagrangian(grid, lambda x, v: -1.0 if v == 0 else 1.0)
    current = BoundaryCurrent(grid=grid, charges={})
    sol = solve_boundary(table, current)
    assert sol.status == UNBOUNDED


def test_boundary_zero_lagrangian_any_path_optimal():
    grid = build_torus_grid(1, 8, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: 0.0)
    current = BoundaryCurrent(grid=grid, charges={5: 1.0, 1: -1.0})
    sol = solve_boundary(table, current)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    bm = boundary_of_measure(sol.measure)
    assert bm.charges.get(5, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_boundary_nonzero_current_with_remote_negative_cycle_unbounded():
    grid = build_torus_grid(1, 8, 1, 1.0)
    values = np.full((8, 3), 1.0)
    values[5, grid.zero_offset_index] = -0.5  # negative loop far from the route
    table = LagrangianTable(grid=grid, values=values)
    current = BoundaryCurrent(grid=grid, charges={1: 1.0, 0: -1.0})
    sol = solve_boundary(table, current)
    assert sol.status == UNBOUNDED


def test_wraparound_offsets_make_velocity_self_loops():
    # n = 2 with K = 2: offsets +-2 wrap onto the tail node itself
    grid = build_torus_grid(1, 2, 2, 1.0)
    idx = loop_offset_index(grid, 2)
    assert grid.neighbors[0, idx] == 0
    values = np.full((2, 5), 1.0)
    values[1, idx] = -1.0  # cheap full-wrap loop at node 1
    sol = solve_closed(LagrangianTable(grid=grid, values=values))
    assert sol.value == pytest.approx(-1.0)
    assert sol.measure.weights == {(1, idx): 1.0}


def test_boundary_zero_current_no_negative_cycle_returns_zero_measure():
    grid = build_torus_grid(1, 6, 1, 0.5)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    sol = solve_boundary(table, BoundaryCurrent(grid=grid, charges={}))
    assert sol.status == OPTIMAL
    assert sol.measure.weights == {}
    assert sol.value == 0.0


def test_boundary_feasibility_random_currents():
    rng = np.random.default_rng(17)
    for _ in range(10):
        table = random_closed_instance(rng, max_n=16)
        table = LagrangianTable(grid=table.grid, values=table.values - table.values.min() + 0.01)
        grid = table.grid
        nodes = rng.choice(grid.num_nodes, size=2, replace=False)
        q = float(rng.uniform(0.5, 2.0))
        current = BoundaryCurrent(
            grid=grid, charges={int(nodes[0]): q, int(nodes[1]): -q}
        )
        sol = solve_boundary(table, current)
        assert sol.status == OPTIMAL
        bm = boundary_of_measure(sol.measure).to_dense()
        assert np.max(np.abs(bm - current.to_dense())) <= 1e-9


def test_closed_2d_pendulum_rest_atom():
    grid = build_torus_grid(2, 6, 1, 1.0 / 6)

    def lagrangian(x, v):
        return 0.5 * float(v @ v) + np.cos(2 * np.pi * x[0]) + np.cos(2 * np.pi * x[1])

    table = sample_lagrangian(grid, lagrangian)
    sol = solve_closed(table)
    assert sol.value == pytest.approx(-2.0, abs=1e-12)
    node = int(lattice_index((3, 3), grid.nodes_per_dim))  # both coordinates at 0.5
    assert sol.measure.weights == {(node, grid.zero_offset_index): 1.0}
    from actionlab import certify_closed

    cert = certify_closed(table, sol)
    assert cert.slack_min >= -1e-9
    assert cert.slack_on_support(sol.measure) <= 1e-12


def test_boundary_2d_distance_matches_dijkstra():
    grid = build_torus_grid(2, 4, 1, 1.0)

    def lagrangian(x, v):
        return float(np.max(np.abs(v))) + 0.05

    table = sample_lagrangian(grid, lagrangian)
    src = int(lattice_index((0, 0), grid.nodes_per_dim))
    dst = int(lattice_index((2, 3), grid.nodes_per_dim))
    current = BoundaryCurrent(grid=grid, charges={dst: 1.0, src: -1.0})
    sol = solve_boundary(table, current)
    assert sol.status == OPTIMAL
    dist = scan_dijkstra(grid.num_nodes, grid_edges(table), src)
    assert sol.value == pytest.approx(dist[dst], abs=1e-9)


def _incidence(table):
    """Node-edge incidence of the grid graph: rows are (inflow - outflow)."""
    grid = table.grid
    n, m = grid.num_nodes, grid.num_offsets
    A = np.zeros((n, n * m))
    for node in range(n):
        for k in range(m):
            e = node * m + k
            A[int(grid.neighbors[node, k]), e] += 1.0
            A[node, e] -= 1.0
    return A


def test_closed_value_matches_lp_polytope_oracle():
    # independent formulation: min L.mu over mu >= 0, incidence mu = 0, sum mu = 1
    from scipy.optimize import linprog

    rng = np.random.default_rng(97)
    for _ in range(8):
        table = random_closed_instance(rng, max_n=12, max_k=2)
        A = _incidence(table)
        n_edges = A.shape[1]
        A_eq = np.vstack([A, np.ones((1, n_edges))])
        b_eq = np.zeros(A_eq.shape[0])
        b_eq[-1] = 1.0
        lp = linprog(
            table.values.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * n_edges,
            method="highs",
        )
        assert lp.success
        sol = solve_closed(table)
        assert sol.value == pytest.approx(lp.fun, abs=1e-9)


def test_boundary_value_matches_lp_polytope_oracle():
    # min L.mu over mu >= 0 with (inflow - outflow) = h*c at every node
    from scipy.optimize import linprog

    rng = np.random.default_rng(101)
    for _ in range(8):
        table = random_closed_instance(rng, max_n=10, max_k=1)
        # shift costs positive so the boundary problem is bounded
        table = LagrangianTable(
            grid=table.grid, values=table.values - table.values.min() + 0.05
        )
        grid = table.grid
        nodes = rng.choice(grid.num_nodes, size=2, replace=False)
        q = float(rng.uniform(0.5, 2.0))
        current = BoundaryCurrent(grid=grid, charges={int(nodes[0]): q, int(nodes[1]): -q})
        sol = solve_boundary(table, current)
        assert sol.status == OPTIMAL
        A_eq = _incidence(table)
        b_eq = grid.time_step * current.to_dense()
        lp = linprog(
            table.values.ravel(), A_eq=A_eq, b_eq=b_eq,
            bounds=[(0, None)] * A_eq.shape[1], method="highs",
        )
        assert lp.success
        assert sol.value == pytest.approx(lp.fun, abs=1e-9)


def test_boundary_certificates_random_suite():
    from actionlab import certify_boundary, fiber_convex_envelope, full_report

    rng = np.random.default_rng(107)
    for _ in range(20):
        table = random_closed_instance(rng, max_n=20, max_k=2)
        table = LagrangianTable(
            grid=table.grid, values=table.values - table.values.min() + 0.02
        )
        grid = table.grid
        size = int(rng.integers(2, 5))
        nodes = rng.choice(grid.num_nodes, size=size, replace=False)
        q = rng.uniform(0.2, 1.0, size=size)
        q -= q.mean()  # balanced charges
        current = BoundaryCurrent(
            grid=grid, charges={int(x): float(c) for x, c in zip(nodes, q)}
        )
        sol = solve_boundary(table, current)
        assert sol.status == OPTIMAL
        cert = certify_boundary(table, current, sol)
        assert cert.slack_min >= -1e-9
        assert cert.slack_on_support(sol.measure) <= 1e-8
        assert cert.current_pairing == pytest.approx(sol.value, abs=1e-9)
        rep = full_report(table, sol, cert, fiber_convex_envelope(table), current=current)
        assert rep.duality_gap <= 1e-9
        assert rep.boundary_residual_max <= 1e-9
        assert rep.hamiltonian_residual_max <= rep.slack_on_support_max + 1e-12
