import numpy as np
import pytest

from actionlab import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    build_torus_grid,
    certify_boundary,
    certify_closed,
    discrete_differential,
    run_measure,
    sample_lagrangian,
    solve_boundary,
    solve_closed,
    verify_measure,
)
from actionlab import network
from actionlab.measure_lp import OptimalSolution, OPTIMAL

from oracles import lax_oleinik_backward, loop_offset_index, random_closed_instance, weak_kam_iterate


def two_node_table():
    grid = build_torus_grid(1, 2, 1, 1.0)
    values = np.array([[9.0, 2.0, 3.0], [9.0, 5.0, 1.0]])
    return LagrangianTable(grid=grid, values=values)


def test_two_node_certificate_hand_values():
    table = two_node_table()
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert cert.critical_constant == pytest.approx(2.0, abs=1e-12)
    assert cert.normalization_node == 0
    # dual feasibility forces f1 - f0 = 1: 3 >= 2 + (f1-f0) and 1 >= 2 - (f1-f0)
    assert cert.potential[0] == 0.0
    assert cert.potential[1] == pytest.approx(1.0, abs=1e-12)
    assert cert.slack[0, 1] == pytest.approx(0.0, abs=1e-12)  # loop at node 0
    assert cert.slack[1, 1] == pytest.approx(3.0, abs=1e-12)  # loop at node 1
    assert cert.slack[0, 2] == pytest.approx(0.0, abs=1e-12)  # 0 -> 1
    assert cert.slack[1, 2] == pytest.approx(0.0, abs=1e-12)  # 1 -> 0


def test_exact_form_recovers_potential():
    grid = build_torus_grid(1, 12, 1, 1.0 / 12)
    f0 = np.cos(2 * np.pi * np.arange(12) / 12) + 0.3
    df0 = (f0[grid.neighbors] - f0[:, None]) / grid.time_step
    table = LagrangianTable(grid=grid, values=df0)
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert cert.critical_constant == pytest.approx(0.0, abs=1e-12)
    target = f0 - f0[cert.normalization_node]
    assert np.max(np.abs(cert.potential - target)) <= 1e-10
    assert np.max(np.abs(cert.slack)) <= 1e-10


def test_kinetic_certificate_is_trivial():
    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert cert.critical_constant == 0.0
    assert np.all(cert.potential == 0.0)
    assert np.allclose(cert.slack, table.values, atol=1e-15)


def test_certify_rejects_non_optimal_status():
    table = two_node_table()
    sol = solve_closed(table)
    sol.status = "UNBOUNDED"
    with pytest.raises(ValueError, match="status"):
        certify_closed(table, sol)


def test_certify_faults_on_wrong_constant():
    # value below the true critical constant leaves a negative reduced cycle
    table = two_node_table()
    sol = solve_closed(table)
    bogus = OptimalSolution(measure=sol.measure, value=sol.value + 1.0, status=OPTIMAL)
    with pytest.raises(RuntimeError, match="negative cycle"):
        certify_closed(table, bogus)


def test_closed_certificate_properties_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        table = random_closed_instance(rng, max_n=32)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        # strong duality and the exact decomposition
        assert cert.critical_constant == sol.value
        df = discrete_differential(cert.potential, table.grid)
        ident = table.values - cert.critical_constant - df - cert.slack
        assert np.max(np.abs(ident)) == 0.0
        assert cert.slack_min >= -1e-9
        assert cert.slack_on_support(sol.measure) <= 1e-8
        # complementary slackness
        pairing = sum(w * cert.slack[e] for e, w in sol.measure.weights.items())
        assert pairing <= 1e-8 * sol.measure.mass


def test_gauge_invariance_of_slack():
    table = two_node_table()
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    df_shifted = discrete_differential(cert.potential + 5.0, table.grid)
    g_shifted = table.values - cert.critical_constant - df_shifted
    assert np.allclose(g_shifted, cert.slack, atol=1e-12)


def test_boundary_certificate_distance_function():
    grid = build_torus_grid(1, 16, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    current = BoundaryCurrent(grid=grid, charges={8: 1.0, 0: -1.0})
    sol = solve_boundary(table, current)
    cert = certify_boundary(table, current, sol)
    assert cert.critical_constant == 0.0
    f = cert.potential - cert.potential[0]
    # distance profile to node 0 in the |v| metric: (1/16) per step, wrapping
    expected = np.array([min(i, 16 - i) / 16 for i in range(16)])
    assert np.max(np.abs(f - expected)) <= 1e-9
    assert cert.current_pairing == pytest.approx(sol.value, abs=1e-9)
    assert cert.slack_min >= -1e-9
    assert cert.slack_on_support(sol.measure) <= 1e-8


def test_boundary_certificate_unit_cost_increments():
    grid = build_torus_grid(1, 6, 1, 0.5)
    values = np.where(np.abs(grid.velocities.ravel()) > 0, 1.0, 0.25)
    table = LagrangianTable(grid=grid, values=np.tile(values, (6, 1)))
    current = BoundaryCurrent(grid=grid, charges={2: 1.0 / 0.5, 0: -1.0 / 0.5})
    sol = solve_boundary(table, current)
    cert = certify_boundary(table, current, sol)
    # f increments by h*L = 0.5 along each tight unit-offset edge of the path
    f = cert.potential - cert.potential[0]
    assert f[1] == pytest.approx(0.5, abs=1e-12)
    assert f[2] == pytest.approx(1.0, abs=1e-12)


def test_boundary_certificate_zero_current():
    grid = build_torus_grid(1, 6, 1, 0.5)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    current = BoundaryCurrent(grid=grid, charges={})
    sol = solve_boundary(table, current)
    cert = certify_boundary(table, current, sol)
    assert np.all(cert.potential == 0.0)
    assert cert.slack_min >= -1e-12


def test_certify_boundary_rejects_a_bad_solver_potential():
    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + 1.0)
    current = BoundaryCurrent(grid=grid, charges={0: -1.0, 3: 1.0})
    sol = solve_boundary(table, current)
    assert sol.potential.shape == (8,)
    nan_at_5 = sol.potential.copy()
    nan_at_5[5] = np.nan
    inf_at_2 = sol.potential.copy()
    inf_at_2[[2, 6]] = -np.inf
    for bad, message in (
        (sol.potential[:-1], r"one value per node \(8\), got shape \(7,\)"),
        (np.zeros((8, 1)), r"one value per node \(8\), got shape \(8, 1\)"),
        (nan_at_5, "not finite at node 5: nan"),
        (inf_at_2, "not finite at node 2: -inf"),
    ):
        broken = OptimalSolution(sol.measure, sol.value, OPTIMAL, potential=bad)
        with pytest.raises(ValueError, match=message):
            certify_boundary(table, current, broken)
        with pytest.raises(ValueError, match=message):
            verify_measure(table, broken, current)


@pytest.mark.parametrize("a", [1e-6, 1.0])
@pytest.mark.parametrize("d, n, k, pairs", [(1, 96, 2, 7), (2, 12, 1, 5), (2, 9, 2, 4)])
def test_seeded_and_supplied_boundary_certificates_agree(d, n, k, pairs, a):
    # the relaxation start changes the rounds, not the verdict: the solver's
    # own dual, no dual (a solution read from a file) and a random finite
    # start all certify the same optimum at the same value
    rng = np.random.default_rng([59, d, n, k])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    table = LagrangianTable(
        grid=grid, values=a * rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    )
    nodes = rng.choice(grid.num_nodes, size=2 * pairs, replace=False)
    charges = {int(x): 1.0 for x in nodes[:pairs]}
    charges.update({int(x): -1.0 for x in nodes[pairs:]})
    current = BoundaryCurrent(grid=grid, charges=charges)

    seeded = run_measure(table, current)
    sol = seeded.solution
    assert sol.potential is not None
    supplied = verify_measure(table, OptimalSolution(sol.measure, sol.value, OPTIMAL), current)
    start = a * rng.uniform(-10.0, 10.0, size=grid.num_nodes)
    random_start = verify_measure(
        table, OptimalSolution(sol.measure, sol.value, OPTIMAL, potential=start), current
    )
    for result in (seeded, supplied, random_start):
        assert all(result.criteria(1e-8 * a).values()), result.report.as_dict()
        assert abs(result.certificate.current_pairing - sol.value) <= 1e-8 * a


def test_seeded_boundary_certificate_is_as_precise_as_the_zero_start():
    # eight seeded 2-D n=24 trigonometric tables, 12 unit charge pairs each:
    # summed over the tables, the worst criterion residual of the seeded
    # certificate stays within 3x that of the zero start (0.75x here).
    # Starting the relaxation at the flow's dual itself, whose values carry
    # the rounding of every augmentation, reads 7x
    def worst(result):
        rep = result.report
        return max(-rep.slack_min, rep.slack_on_support_max, rep.hamiltonian_residual_max,
                   rep.duality_gap)

    seeded = zero = 0.0
    for seed in range(8):
        rng = np.random.default_rng([71, seed])
        grid = build_torus_grid(2, 24, 1, 1.0 / 24)
        a, b = rng.uniform(0.5, 1.5, size=2)
        base = sample_lagrangian(
            grid,
            lambda x, v: 0.5 * float(v @ v) + a * np.cos(2 * np.pi * x[0])
            + b * np.sin(2 * np.pi * (x[0] + x[1])),
        ).values
        table = LagrangianTable(grid=grid, values=base - base.min())
        nodes = rng.choice(grid.num_nodes, size=24, replace=False)
        charges = {int(x): 1.0 for x in nodes[:12]}
        charges.update({int(x): -1.0 for x in nodes[12:]})
        current = BoundaryCurrent(grid=grid, charges=charges)
        result = run_measure(table, current)
        sol = result.solution
        seeded += worst(result)
        supplied = OptimalSolution(sol.measure, sol.value, OPTIMAL)
        zero += worst(verify_measure(table, supplied, current))
    assert seeded <= 3.0 * zero, (seeded, zero)


def test_lax_oleinik_kinetic_fixed_point():
    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    f0 = np.zeros(8)
    assert np.allclose(lax_oleinik_backward(f0, table, 0.0), f0, atol=1e-15)


def test_lax_oleinik_certified_potential_is_fixed_point():
    table = two_node_table()
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    out = lax_oleinik_backward(cert.potential, table, cert.critical_constant)
    assert np.allclose(out, cert.potential, atol=1e-12)


def test_lax_oleinik_propagates_from_cheap_node():
    # 3-node line (torus), offsets -1/0/+1, L = 1 on moves, 0 at rest, c0 = 0
    grid = build_torus_grid(1, 3, 1, 1.0)
    values = np.tile(np.array([1.0, 0.0, 1.0]), (3, 1))
    table = LagrangianTable(grid=grid, values=values)
    big = 10.0
    f0 = np.array([0.0, big, big])
    out = lax_oleinik_backward(f0, table, 0.0)
    # each node takes min over in-edges: rest keeps f, neighbors of node 0 pay 1
    assert out.tolist() == [0.0, 1.0, 1.0]


def test_lax_oleinik_min_plus_additivity_and_monotonicity():
    rng = np.random.default_rng(9)
    table = random_closed_instance(rng, max_n=16)
    n = table.grid.num_nodes
    f = rng.normal(size=n)
    g = f + rng.uniform(0.0, 1.0, size=n)
    a = 1.7
    assert np.allclose(
        lax_oleinik_backward(f + a, table, 0.3),
        lax_oleinik_backward(f, table, 0.3) + a,
        atol=1e-12,
    )
    assert np.all(
        lax_oleinik_backward(f, table, 0.3) <= lax_oleinik_backward(g, table, 0.3) + 1e-12
    )


def test_weak_kam_two_node_at_critical():
    table = two_node_table()
    res = weak_kam_iterate(table, 2.0)
    assert res.converged
    assert res.iterations <= 2 + 1
    assert res.potential[1] - res.potential[0] == pytest.approx(1.0, abs=1e-12)


def test_weak_kam_above_critical_diverges():
    # c0 = 3 exceeds the critical constant 2: loop reduced cost 2 - 3 < 0
    table = two_node_table()
    res = weak_kam_iterate(table, 3.0)
    assert not res.converged
    assert res.status == "NON_CONVERGED"


def test_weak_kam_slightly_below_critical_converges():
    rng = np.random.default_rng(83)
    for _ in range(5):
        table = random_closed_instance(rng, max_n=20)
        crit = solve_closed(table).value
        res = weak_kam_iterate(table, crit - 1e-6)
        assert res.converged
        assert res.iterations <= table.grid.num_nodes + 1


def test_weak_kam_zero_cost_loops():
    grid = build_torus_grid(1, 5, 1, 0.2)
    table = sample_lagrangian(grid, lambda x, v: v * v)
    res = weak_kam_iterate(table, 0.0)
    assert res.converged
    assert np.all(res.potential == 0.0)


def test_fixed_point_consistency_random():
    # T_backward[f] >= f node-wise, with equality on the projected support
    rng = np.random.default_rng(77)
    for _ in range(15):
        table = random_closed_instance(rng, max_n=32)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        out = lax_oleinik_backward(cert.potential, table, cert.critical_constant)
        assert np.min(out - cert.potential) >= -1e-9
        for x in sol.measure.support_nodes():
            assert abs(out[x] - cert.potential[x]) <= 1e-9


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [3, 5, 8, 12])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_weak_kam_oracle_is_the_bellman_ford_fixpoint(d, n, k):
    # the backward value update iterated from zero is the virtual-source
    # Bellman-Ford relaxation of h*(L - c0) with tol=0: the same potential bit
    # for bit and the same converged flag, at the critical constant and one
    # unit below and above it
    rng = np.random.default_rng(100 * d + 10 * n + k)
    grid = build_torus_grid(d, n, k, 1.0 / n)
    values = rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    table = LagrangianTable(grid=grid, values=values)
    critical = solve_closed(table).value
    tails, heads = grid.edge_endpoints
    for c0 in (critical - 1.0, critical, critical + 1.0):
        oracle = weak_kam_iterate(table, c0)
        reduced = grid.time_step * (values.ravel() - c0)
        pot, ok = network.relax_to_fixpoint(grid.num_nodes, tails, heads, reduced, tol=0.0)
        assert ok == oracle.converged
        assert pot.tobytes() == oracle.potential.tobytes()


def test_weak_kam_output_dual_feasible():
    rng = np.random.default_rng(13)
    for _ in range(10):
        table = random_closed_instance(rng, max_n=24)
        sol = solve_closed(table)
        res = weak_kam_iterate(table, sol.value)
        assert res.converged
        df = discrete_differential(res.potential, table.grid)
        slack = table.values - sol.value - df
        assert slack.min() >= -1e-9


@pytest.mark.parametrize("a", [1.0, 1e-6, 1e-12])
def test_certificates_reject_suboptimal_measures_at_every_scale(a):
    # d=1, n=8 pendulum 0.5 v^2 + cos 2 pi x, scaled by a: the relaxation
    # tolerance follows the cost spread, so a measure rejected at a = 1 is
    # rejected at every a > 0, and the optima still certify
    grid = build_torus_grid(1, 8, 1, 0.125)
    pendulum = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    table = LagrangianTable(grid=grid, values=a * pendulum.values)

    # closed: the rest loop at node 0 sits on the hill top, cos 0 = 1
    rest = DiscreteMeasure(grid=grid, weights={(0, grid.zero_offset_index): 1.0})
    value = float(table.values[0, grid.zero_offset_index])
    with pytest.raises(RuntimeError, match="negative cycle"):
        verify_measure(table, OptimalSolution(measure=rest, value=value, status=OPTIMAL))
    assert all(run_measure(table).criteria(1e-8 * a).values())

    # boundary: unit charge from node 0 to node 3; the five-edge path the long
    # way round, 0 -> 7 -> 6 -> 5 -> 4 -> 3, costs more than 0 -> 1 -> 2 -> 3
    shifted = LagrangianTable(grid=grid, values=table.values + a)
    current = BoundaryCurrent(grid=grid, charges={0: -1.0, 3: 1.0})
    h = grid.time_step
    left = loop_offset_index(grid, [-1])
    long_way = DiscreteMeasure(grid=grid, weights={(x, left): h for x in (0, 7, 6, 5, 4)})
    value = float(sum(shifted.values[e] * w for e, w in long_way.weights.items()))
    with pytest.raises(RuntimeError, match="negative cycle"):
        verify_measure(shifted, OptimalSolution(long_way, value, OPTIMAL), current)
    assert all(run_measure(shifted, current).criteria(1e-8 * a).values())


@pytest.mark.parametrize("b", [1e6, 1e9])
def test_closed_optimum_of_offset_table_certifies(b):
    # d=1, n=64 drift table 0.5 (v - 1.37)^2 + 0.1 cos 2 pi x, whose optimum
    # is a cycle of 64 edges.  Plus a large offset b, its value c0 is a
    # rounded mean, a few units in the last place off the exact one; the
    # optimum must certify with c0 as solved and as summed edge by edge, the
    # way a measure read from a CSV is valued
    grid = build_torus_grid(1, 64, 2, 1.0 / 64)
    drift = sample_lagrangian(
        grid, lambda x, v: 0.5 * (v - 1.37) ** 2 + 0.1 * np.cos(2 * np.pi * x)
    )
    for a in (1.0, 1e-6):
        table = LagrangianTable(grid=grid, values=a * drift.values + b)
        result = run_measure(table)
        measure = result.solution.measure
        assert len(measure.weights) == 64
        summed = float(sum(table.values[e] * w for e, w in measure.weights.items()))
        cert = certify_closed(table, OptimalSolution(measure, summed, OPTIMAL))
        for c in (result.certificate, cert):
            assert c.slack_min >= -1e-14 * b, (a, c.slack_min)
            assert c.slack_on_support(measure) <= 1e-12 * b, (a, c.slack_on_support(measure))
