from types import SimpleNamespace

import numpy as np
import pytest

from actionlab import (
    BoundaryCurrent,
    LagrangianTable,
    build_torus_grid,
    certify_boundary,
    certify_closed,
    check_energy_conservation,
    discrete_differential,
    discrete_hamiltonian,
    estimate_momentum_lipschitz,
    fiber_convex_envelope,
    full_report,
    momentum_field,
    sample_lagrangian,
    solve_boundary,
    solve_closed,
)
from actionlab import diagnostics
from actionlab.diagnostics import LIPSCHITZ_BLOCK

from oracles import loop_momentum_lipschitz, random_closed_instance, torus_distance


def test_hamiltonian_examples():
    grid = build_torus_grid(1, 4, 1, 0.25)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    assert discrete_hamiltonian(table, 0, np.zeros(3)) == pytest.approx(0.0)
    p = grid.velocities.ravel()  # p(v) = v
    assert discrete_hamiltonian(table, 0, p) == pytest.approx(0.5)


def test_hamiltonian_bounded_by_minus_c0_for_certificates():
    rng = np.random.default_rng(51)
    for _ in range(10):
        table = random_closed_instance(rng, max_n=24)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        df = discrete_differential(cert.potential, table.grid)
        for x in range(table.grid.num_nodes):
            assert (
                discrete_hamiltonian(table, x, df[x]) + cert.critical_constant <= 1e-9
            )


def test_energy_conservation_two_node():
    grid = build_torus_grid(1, 2, 1, 1.0)
    table = LagrangianTable(grid=grid, values=np.array([[9.0, 2.0, 3.0], [9.0, 5.0, 1.0]]))
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert check_energy_conservation(table, cert, sol.measure) == pytest.approx(0.0, abs=1e-12)


def test_energy_conservation_pendulum_hand_value():
    # supp mu = rest atom at the potential minimum; f = 0 there and H = -c0 = 1
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    df = discrete_differential(cert.potential, grid)
    assert discrete_hamiltonian(table, 8, df[8]) == pytest.approx(1.0, abs=1e-12)
    assert check_energy_conservation(table, cert, sol.measure) <= 1e-12


def test_energy_conservation_exact_form():
    grid = build_torus_grid(1, 10, 1, 0.1)
    f0 = np.sin(2 * np.pi * np.arange(10) / 10)
    table = LagrangianTable(
        grid=grid, values=(f0[grid.neighbors] - f0[:, None]) / grid.time_step
    )
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert check_energy_conservation(table, cert, sol.measure) <= 1e-10


def test_energy_residual_bounded_by_support_slack():
    rng = np.random.default_rng(53)
    for _ in range(20):
        table = random_closed_instance(rng, max_n=32)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        resid = check_energy_conservation(table, cert, sol.measure)
        assert resid <= cert.slack_on_support(sol.measure) + 1e-12


def test_lipschitz_estimator_constant_field_and_single_node():
    grid = build_torus_grid(1, 8, 1, 0.125)
    const = {x: 0.7 for x in range(8)}
    assert estimate_momentum_lipschitz(const, grid) == 0.0
    assert estimate_momentum_lipschitz({3: 1.0}, grid) == 0.0


def test_lipschitz_estimator_matches_pairwise_oracle():
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    momenta = {x: float(np.sin(2 * np.pi * x / 16)) for x in range(16)}
    est = estimate_momentum_lipschitz(momenta, grid)
    best = 0.0
    for i in range(16):
        for j in range(i + 1, 16):
            d = min(abs(i - j), 16 - abs(i - j)) / 16
            best = max(best, abs(momenta[i] - momenta[j]) / d)
    assert est == pytest.approx(best)
    assert est <= 2 * np.pi + 1e-9


def test_lipschitz_exclusion_monotone():
    grid = build_torus_grid(1, 12, 1, 1.0 / 12)
    rng = np.random.default_rng(57)
    momenta = {x: float(rng.normal()) for x in range(12)}
    base = estimate_momentum_lipschitz(momenta, grid)
    for size in (1, 3, 5):
        excl = set(range(size))
        assert estimate_momentum_lipschitz(momenta, grid, excl) <= base + 1e-15


def _pipeline_momenta(rng, d, n, k, pairs):
    """Momenta of every support node of a seeded boundary solution (endpoint
    velocities included) and the charged nodes, to be excluded."""
    grid = build_torus_grid(d, n, k, 1.0 / n)
    table = LagrangianTable(
        grid=grid, values=rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    )
    ends = rng.choice(grid.num_nodes, size=2 * pairs, replace=False)
    charges = {int(x): -1.0 for x in ends[:pairs]}
    charges.update({int(x): 1.0 for x in ends[pairs:]})
    current = BoundaryCurrent(grid=grid, charges=charges)
    sol = solve_boundary(table, current)
    field = momentum_field(fiber_convex_envelope(table), sol.measure)
    assert any(info.any_endpoint for info in field.values())
    return {x: info.momentum for x, info in field.items()}, grid, current.support()


@pytest.mark.parametrize("block", [40, LIPSCHITZ_BLOCK])
def test_lipschitz_estimator_equals_loop_reference(monkeypatch, block):
    # the blocked array scan against the pair loop, bit for bit, with row
    # blocks smaller and larger than the support
    monkeypatch.setattr(diagnostics, "LIPSCHITZ_BLOCK", block)
    rng = np.random.default_rng(43)
    for d, n, k, pairs in ((1, 64, 2, 6), (2, 12, 1, 4), (2, 16, 2, 5)):
        momenta, grid, charged = _pipeline_momenta(rng, d, n, k, pairs)
        for exclusion in ((), charged):
            est = estimate_momentum_lipschitz(momenta, grid, exclusion)
            assert est == loop_momentum_lipschitz(momenta, grid, exclusion)
            assert est > 0.0
    # the largest quotient sits on the last pair of nodes
    grid = build_torus_grid(1, 10, 1, 0.1)
    jump = {x: float(x == 9) for x in range(1, 10)}
    assert estimate_momentum_lipschitz(jump, grid) == loop_momentum_lipschitz(jump, grid)
    # distance-0 pairs: positions 0 and 1 coincide on the torus, as do repeats
    for dim in (1, 2):
        grid = SimpleNamespace(positions=rng.choice([0.0, 0.25, 0.5, 1.0], size=(30, dim)))
        momenta = {x: rng.normal(size=dim) if dim == 2 else float(rng.normal()) for x in range(30)}
        est = estimate_momentum_lipschitz(momenta, grid, exclusion=(3, 7))
        assert est == loop_momentum_lipschitz(momenta, grid, exclusion=(3, 7))


def test_torus_distance_wraps():
    # the distance of the loop reference above
    grid = build_torus_grid(1, 10, 1, 0.1)
    assert torus_distance(grid, 0, 9) == pytest.approx(0.1)
    assert torus_distance(grid, 2, 7) == pytest.approx(0.5)
    g2 = build_torus_grid(2, 4, 1, 0.25)
    assert torus_distance(g2, 0, 5) == pytest.approx(0.25)  # (0,0) vs (1,1), sup norm


def test_full_report_two_node_pipeline():
    grid = build_torus_grid(1, 2, 1, 1.0)
    table = LagrangianTable(grid=grid, values=np.array([[9.0, 2.0, 3.0], [9.0, 5.0, 1.0]]))
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    env = fiber_convex_envelope(table)
    rep = full_report(table, sol, cert, env)
    assert rep.duality_gap <= 1e-9
    assert rep.slack_min >= -1e-9
    assert rep.slack_on_support_max <= 1e-9
    assert rep.hamiltonian_residual_max <= 1e-9
    assert rep.boundary_residual_max <= 1e-9
    assert len(rep.details["nodes"]) == 2


def test_full_report_exact_form_zero_gap():
    grid = build_torus_grid(1, 8, 1, 0.125)
    f0 = np.cos(2 * np.pi * np.arange(8) / 8)
    table = LagrangianTable(
        grid=grid, values=(f0[grid.neighbors] - f0[:, None]) / grid.time_step
    )
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    rep = full_report(table, sol, cert, fiber_convex_envelope(table))
    assert rep.slack_min >= -1e-10
    assert rep.duality_gap <= 1e-10


def test_full_report_boundary_case_pairing():
    grid = build_torus_grid(1, 12, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    current = BoundaryCurrent(grid=grid, charges={7: 1.0, 1: -1.0})
    sol = solve_boundary(table, current)
    cert = certify_boundary(table, current, sol)
    rep = full_report(table, sol, cert, fiber_convex_envelope(table), current=current)
    # action = c0*mass + <c, f> with c0 = 0 in the absorbed form
    assert rep.duality_gap <= 1e-9
    assert rep.boundary_residual_max <= 1e-9


def test_full_report_2d_pipeline():
    grid = build_torus_grid(2, 6, 1, 1.0 / 6)

    def lagrangian(x, v):
        return 0.5 * float(v @ v) + np.cos(2 * np.pi * x[0]) + np.cos(2 * np.pi * x[1])

    table = sample_lagrangian(grid, lagrangian)
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    rep = full_report(table, sol, cert, fiber_convex_envelope(table))
    assert rep.duality_gap <= 1e-9
    assert rep.slack_min >= -1e-9
    assert rep.slack_on_support_max <= 1e-8
    assert rep.hamiltonian_residual_max <= 1e-8
    assert rep.boundary_residual_max <= 1e-9


def test_full_report_rejects_mismatched_grids():
    grid = build_torus_grid(1, 4, 1, 0.25)
    other = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    env = fiber_convex_envelope(sample_lagrangian(other, lambda x, v: 0.5 * v * v))
    with pytest.raises(ValueError, match="different grids"):
        full_report(table, sol, cert, env)


def test_full_report_random_instances_populated():
    rng = np.random.default_rng(59)
    for _ in range(5):
        table = random_closed_instance(rng, max_n=24)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        rep = full_report(table, sol, cert, fiber_convex_envelope(table))
        for value in rep.as_dict().values():
            assert np.isfinite(value)
        assert rep.hamiltonian_residual_max <= rep.slack_on_support_max + 1e-12
