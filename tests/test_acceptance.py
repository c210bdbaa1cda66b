"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from actionlab import (
    LagrangianTable,
    build_torus_grid,
    certify_closed,
    discrete_differential,
    fiber_convex_envelope,
    full_report,
    refinement_sweep,
    run_scenario,
    solve_closed,
)

from oracles import (
    affine_minorant_max_1d,
    affine_minorant_max_2d,
    grid_edges,
    independent_karp,
    loop_energy_residual,
    loop_node_table,
    random_closed_instance,
    simple_cycle_min_mean,
    weak_kam_iterate,
)

SEED = 20240811


def _closed_suite(count=100):
    rng = np.random.default_rng(SEED)
    return [random_closed_instance(rng, max_n=64, max_k=2) for _ in range(count)]


def _ok(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_duality_decomposition_suite():
    start = time.monotonic()
    worst_gap = worst_neg = worst_supp = 0.0
    for table in _closed_suite(100):
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        mass = sol.measure.mass
        action = sum(table.values[e] * w for e, w in sol.measure.weights.items())
        gap = abs(action - cert.critical_constant * mass)
        worst_gap = max(worst_gap, gap)
        worst_neg = max(worst_neg, -cert.slack_min)
        worst_supp = max(worst_supp, cert.slack_on_support(sol.measure))
        assert gap <= 1e-9
        assert cert.slack_min >= -1e-9
        assert cert.slack_on_support(sol.measure) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"suite took {elapsed:.2f}s > 10s"
    _ok(
        "1 duality/decomposition",
        f"100 instances, max gap {worst_gap:.2e}, min slack -{worst_neg:.2e}, "
        f"support slack {worst_supp:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(SEED + 1)
    worst_small = 0.0
    for _ in range(50):
        table = random_closed_instance(rng, max_n=8, max_k=2)
        sol = solve_closed(table)
        oracle = simple_cycle_min_mean(table.grid.num_nodes, grid_edges(table))
        diff = abs(sol.value - oracle)
        worst_small = max(worst_small, diff)
        assert diff <= 1e-12
    worst_karp = 0.0
    for table in _closed_suite(100):
        sol = solve_closed(table)
        karp = independent_karp(table.grid.num_nodes, grid_edges(table))
        diff = abs(sol.value - karp)
        worst_karp = max(worst_karp, diff)
        assert diff <= 1e-9
    _ok(
        "2 oracle equivalence",
        f"brute force max diff {worst_small:.2e} (50 graphs), "
        f"independent Karp max diff {worst_karp:.2e} (100 graphs)",
    )


def test_criterion_3_energy_conservation():
    worst = 0.0
    for table in _closed_suite(100):
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        env = fiber_convex_envelope(table)
        resid = full_report(table, sol, cert, env).hamiltonian_residual_max
        assert resid == loop_energy_residual(loop_node_table(table, sol, cert, env))
        supp = cert.slack_on_support(sol.measure)
        assert resid <= 1e-8
        assert resid <= supp + 1e-12
        worst = max(worst, resid)
    scenario_names = (
        "exact_form",
        "free_particle",
        "tonelli_pendulum",
        "rotation",
        "double_well",
        "finsler_distance",
        "dirac_boundary",
    )
    for name in scenario_names:
        run = run_scenario(name)
        res = run.results
        rows = loop_node_table(res["table"], res["solution"], res["certificate"], res["envelope"])
        resid = loop_energy_residual(rows)
        assert res["report"].hamiltonian_residual_max == resid, name
        supp = run.results["certificate"].slack_on_support(run.results["solution"].measure)
        assert resid <= 1e-8, name
        assert resid <= supp + 1e-12, name
        worst = max(worst, resid)
    _ok("3 energy conservation", f"max residual {worst:.2e} over 100 instances + 7 scenarios")


def test_criterion_4_known_values():
    exact = run_scenario("exact_form")
    assert abs(exact.values["c0"]) <= 1e-9
    assert exact.values["slack_min"] >= -1e-9

    sweep = refinement_sweep("tonelli_pendulum", [16, 32, 64])
    c0s = [row["c0"] for row in sweep["rows"]]
    assert abs(c0s[-1] + 1.0) <= 1e-9
    gaps = [abs(c0s[i + 1] - c0s[i]) for i in range(2)]
    assert gaps[1] <= gaps[0] + 1e-12

    finsler = run_scenario("finsler_distance")
    by_name = {c.name: c for c in finsler.checks}
    assert by_name["value"].passed  # LP value equals the shortest-path oracle
    assert by_name["distance_profile"].passed  # f matches up to a constant
    _ok(
        "4 known values",
        f"exact_form c0 {exact.values['c0']:.2e}; tonelli c0 {c0s} "
        f"(gaps {gaps[0]:.2e} -> {gaps[1]:.2e}); finsler value/profile match",
    )


def test_criterion_5_momentum_regularity_proxy():
    details = []
    for name in ("tonelli_pendulum", "rotation"):
        sweep = refinement_sweep(name, [16, 32, 64])
        assert all("error" not in row for row in sweep["rows"]), sweep
        vals = [row["momentum_lipschitz_estimate"] for row in sweep["rows"]]
        lo, hi = min(vals), max(vals)
        # varies by at most a factor 2; identically-zero estimates pass
        assert hi <= max(2.0 * lo, 1e-12), f"{name}: {vals}"
        details.append(f"{name} {vals}")
    _ok("5 momentum regularity proxy", "; ".join(details))


def test_criterion_6_convexification():
    rng = np.random.default_rng(SEED + 2)
    fibers = 0
    worst = 0.0
    for k, n_nodes in ((1, 60), (2, 60)):
        grid = build_torus_grid(1, n_nodes, k, 1.0 / n_nodes)
        table = LagrangianTable(
            grid=grid, values=rng.uniform(-1, 1, size=(grid.num_nodes, grid.num_offsets))
        )
        env = fiber_convex_envelope(table)
        env2 = fiber_convex_envelope(LagrangianTable(grid=grid, values=env.values))
        assert np.max(np.abs(env2.values - env.values)) <= 1e-12
        vels = grid.velocities.ravel()
        for x in range(grid.num_nodes):
            fibers += 1
            for m in range(grid.num_offsets):
                oracle = affine_minorant_max_1d(vels, table.values[x], vels[m])
                diff = abs(env.values[x, m] - oracle)
                worst = max(worst, diff)
                assert diff <= 1e-9

    grid2 = build_torus_grid(2, 9, 1, 1.0 / 9)  # 81 nine-point fibers
    table2 = LagrangianTable(
        grid=grid2, values=rng.uniform(-1, 1, size=(grid2.num_nodes, grid2.num_offsets))
    )
    env2d = fiber_convex_envelope(table2)
    envbis = fiber_convex_envelope(LagrangianTable(grid=grid2, values=env2d.values))
    assert np.max(np.abs(envbis.values - env2d.values)) <= 1e-12
    for x in range(grid2.num_nodes):
        fibers += 1
        for m in range(grid2.num_offsets):
            oracle = affine_minorant_max_2d(
                grid2.velocities, table2.values[x], grid2.velocities[m]
            )
            diff = abs(env2d.values[x, m] - oracle)
            worst = max(worst, diff)
            assert diff <= 1e-9
    assert fibers >= 200

    dw = run_scenario("double_well")
    rest = dw.results["grid"].zero_offset_index
    assert np.max(np.abs(dw.results["envelope"].values[:, rest])) == 0.0
    _ok(
        "6 convexification",
        f"{fibers} fibers vs affine-minorant oracles, max diff {worst:.2e}; "
        f"idempotent; double_well flat section exactly 0",
    )


def test_criterion_7_optimal_control():
    import actionlab.control as ctl
    from test_control import random_problem

    start = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    worst_gap = worst_mp = worst_uv = 0.0
    for _ in range(50):
        p = random_problem(rng, max_states=9, max_controls=3, max_steps=5)
        vf = ctl.solve_value_function(p)
        start_state = int(rng.integers(0, p.num_states))
        lp = ctl.solve_relaxed_lp(p, {start_state: 1.0})
        assert lp.status == "OPTIMAL"
        gap = abs(lp.value - vf.v[start_state, p.num_steps])
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-9
        cert = ctl.certify_control(p, lp)
        on_max, off_min = ctl.maximum_principle_check(cert, lp.measure)
        worst_mp = max(worst_mp, on_max, -off_min)
        assert on_max <= 1e-8
        assert off_min >= -1e-9
        supp = lp.measure > 0
        comp = np.sum(lp.measure[supp] * cert.w[supp])
        assert comp <= 1e-8 * lp.measure.sum()
        for states, _m in ctl.extract_optimal_trajectories(p, lp):
            resid = ctl.check_u_v_relation(cert, vf, states)
            worst_uv = max(worst_uv, resid)
            assert resid <= 1e-8

    r1 = run_scenario("legendre_control", {"refine": 1})
    r2 = run_scenario("legendre_control", {"refine": 2})
    ratio = r1.values["hjb_residual"] / r2.values["hjb_residual"]
    assert ratio >= 1.5
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"suite took {elapsed:.2f}s > 30s"
    _ok(
        "7 optimal control",
        f"50 problems: max DP/LP gap {worst_gap:.2e}, max-principle {worst_mp:.2e}, "
        f"u/v {worst_uv:.2e}; HJB ratio {ratio:.2f}; {elapsed:.2f}s",
    )


def test_criterion_8_lax_oleinik_fixed_points():
    # At the critical constant the iteration stabilizes within num_nodes
    # productive sweeps (detected one sweep later) and is dual-feasible.
    # One unit above, a negative reduced cycle forces NON_CONVERGED; one unit
    # below, it converges and the former support carries strictly positive
    # slack.  The two off-critical regimes are mathematically forced this way
    # around: reduced costs L - c0 lose nonnegative cycle means exactly when
    # c0 exceeds the minimum mean cycle.
    converged_iters = []
    for table in _closed_suite(100):
        sol = solve_closed(table)
        grid = table.grid
        res = weak_kam_iterate(table, sol.value)
        assert res.converged
        assert res.iterations <= grid.num_nodes + 1
        converged_iters.append(res.iterations)
        df = discrete_differential(res.potential, grid)
        slack = table.values - sol.value - df
        assert slack.min() >= -1e-9

        above = weak_kam_iterate(table, sol.value + 1.0)
        assert not above.converged
        assert above.status == "NON_CONVERGED"

        below = weak_kam_iterate(table, sol.value - 1.0)
        assert below.converged
        df_b = discrete_differential(below.potential, grid)
        slack_b = table.values - (sol.value - 1.0) - df_b
        assert slack_b.min() >= -1e-9
        former = max(slack_b[e] for e in sol.measure.weights)
        assert former >= 1.0 / grid.num_nodes - 1e-9
    _ok(
        "8 weak KAM iteration",
        f"100 instances: critical converges (max {max(converged_iters)} sweeps), "
        f"critical+1 NON_CONVERGED, critical-1 feasible with positive "
        f"former-support slack",
    )
