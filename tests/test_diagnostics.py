import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from actionlab import (
    BoundaryCurrent,
    LagrangianTable,
    build_torus_grid,
    certify_boundary,
    certify_closed,
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
from actionlab import diagnostics, serialize
from actionlab.convexify import _edge_slopes
from actionlab.diagnostics import LIPSCHITZ_BLOCK

from oracles import (
    loop_energy_residual,
    loop_momentum_lipschitz,
    loop_node_table,
    loop_sum,
    loop_write_node_table_csv,
    random_closed_instance,
    torus_distance,
)


def test_hamiltonian_examples():
    grid = build_torus_grid(1, 4, 1, 0.25)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    assert discrete_hamiltonian(table, np.zeros((4, 3))).tolist() == [0.0] * 4
    p = np.tile(grid.velocities.ravel(), (4, 1))  # p_x(v) = v at every node
    assert discrete_hamiltonian(table, p) == pytest.approx([0.5] * 4)
    with pytest.raises(ValueError, match="one value per edge"):
        discrete_hamiltonian(table, np.zeros(3))


def test_hamiltonian_bounded_by_minus_c0_for_certificates():
    rng = np.random.default_rng(51)
    for _ in range(10):
        table = random_closed_instance(rng, max_n=24)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        df = discrete_differential(cert.potential, table.grid)
        assert (discrete_hamiltonian(table, df) + cert.critical_constant <= 1e-9).all()


def _energy_residual(table, sol, cert):
    """The report's energy residual, checked against the node-loop reference."""
    env = fiber_convex_envelope(table)
    resid = full_report(table, sol, cert, env).hamiltonian_residual_max
    assert resid == loop_energy_residual(loop_node_table(table, sol, cert, env))
    return resid


def test_energy_conservation_two_node():
    grid = build_torus_grid(1, 2, 1, 1.0)
    table = LagrangianTable(grid=grid, values=np.array([[9.0, 2.0, 3.0], [9.0, 5.0, 1.0]]))
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert _energy_residual(table, sol, cert) == pytest.approx(0.0, abs=1e-12)


def test_energy_conservation_pendulum_hand_value():
    # supp mu = rest atom at the potential minimum; f = 0 there and H = -c0 = 1
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    df = discrete_differential(cert.potential, grid)
    assert discrete_hamiltonian(table, df)[8] == pytest.approx(1.0, abs=1e-12)
    assert _energy_residual(table, sol, cert) <= 1e-12


def test_energy_conservation_exact_form():
    grid = build_torus_grid(1, 10, 1, 0.1)
    f0 = np.sin(2 * np.pi * np.arange(10) / 10)
    table = LagrangianTable(
        grid=grid, values=(f0[grid.neighbors] - f0[:, None]) / grid.time_step
    )
    sol = solve_closed(table)
    cert = certify_closed(table, sol)
    assert _energy_residual(table, sol, cert) <= 1e-10


def test_energy_residual_bounded_by_support_slack():
    rng = np.random.default_rng(53)
    for _ in range(20):
        table = random_closed_instance(rng, max_n=32)
        sol = solve_closed(table)
        cert = certify_closed(table, sol)
        resid = _energy_residual(table, sol, cert)
        assert resid <= cert.slack_on_support(sol.measure) + 1e-12


def _all(n):
    return np.ones(n, dtype=bool)


def test_lipschitz_estimator_constant_field_and_single_node():
    grid = build_torus_grid(1, 8, 1, 0.125)
    const = np.full((8, 1), 0.7)
    assert estimate_momentum_lipschitz(const, _all(8), grid) == 0.0
    assert estimate_momentum_lipschitz(const, np.arange(8) == 3, grid) == 0.0


def test_lipschitz_estimator_matches_pairwise_oracle():
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    momenta = np.sin(2 * np.pi * np.arange(16) / 16)[:, None]
    est = estimate_momentum_lipschitz(momenta, _all(16), grid)
    best = 0.0
    for i in range(16):
        for j in range(i + 1, 16):
            d = min(abs(i - j), 16 - abs(i - j)) / 16
            best = max(best, abs(momenta[i, 0] - momenta[j, 0]) / d)
    assert est == pytest.approx(best)
    assert est <= 2 * np.pi + 1e-9


def test_lipschitz_exclusion_monotone():
    grid = build_torus_grid(1, 12, 1, 1.0 / 12)
    rng = np.random.default_rng(57)
    momenta = rng.normal(size=(12, 1))
    base = estimate_momentum_lipschitz(momenta, _all(12), grid)
    for size in (1, 3, 5):
        usable = np.arange(12) >= size
        assert estimate_momentum_lipschitz(momenta, usable, grid) <= base + 1e-15


def _as_dict(momentum, usable):
    return {int(x): momentum[x] for x in np.flatnonzero(usable)}


def _pipeline_momenta(rng, d, n, k, pairs):
    """Momenta and support mask of a seeded boundary solution (endpoint
    velocities included) and the mask of the charged nodes."""
    grid = build_torus_grid(d, n, k, 1.0 / n)
    table = LagrangianTable(
        grid=grid, values=rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    )
    ends = rng.choice(grid.num_nodes, size=2 * pairs, replace=False)
    charges = {int(x): -1.0 for x in ends[:pairs]}
    charges.update({int(x): 1.0 for x in ends[pairs:]})
    current = BoundaryCurrent(grid=grid, charges=charges)
    sol = solve_boundary(table, current)
    momentum, spread, any_endpoint = momentum_field(fiber_convex_envelope(table), sol.measure)
    assert any_endpoint.any()
    charged = np.zeros(grid.num_nodes, dtype=bool)
    charged[current.support()] = True
    return momentum, ~np.isnan(spread), grid, charged


@pytest.mark.parametrize("block", [40, LIPSCHITZ_BLOCK])
def test_lipschitz_estimator_equals_loop_reference(monkeypatch, block):
    # the blocked array scan against the pair loop, bit for bit, with row
    # blocks smaller and larger than the support
    monkeypatch.setattr(diagnostics, "LIPSCHITZ_BLOCK", block)
    rng = np.random.default_rng(43)
    for d, n, k, pairs in ((1, 64, 2, 6), (2, 12, 1, 4), (2, 16, 2, 5)):
        momentum, on, grid, charged = _pipeline_momenta(rng, d, n, k, pairs)
        for usable in (on, on & ~charged):
            est = estimate_momentum_lipschitz(momentum, usable, grid)
            assert est == loop_momentum_lipschitz(_as_dict(momentum, usable), grid)
            assert est > 0.0
    # the largest quotient sits on the last pair of nodes
    grid = build_torus_grid(1, 10, 1, 0.1)
    jump = (np.arange(10) == 9).astype(float)[:, None]
    usable = np.arange(10) >= 1
    est = estimate_momentum_lipschitz(jump, usable, grid)
    assert est == loop_momentum_lipschitz(_as_dict(jump, usable), grid)
    # distance-0 pairs: positions 0 and 1 coincide on the torus, as do repeats
    for dim in (1, 2):
        grid = SimpleNamespace(positions=rng.choice([0.0, 0.25, 0.5, 1.0], size=(30, dim)))
        momentum = rng.normal(size=(30, dim))
        usable = ~np.isin(np.arange(30), (3, 7))
        est = estimate_momentum_lipschitz(momentum, usable, grid)
        assert est == loop_momentum_lipschitz(_as_dict(momentum, usable), grid)


def _node_table_case(case):
    """(table, solution, certificate, envelope, current) of one node-table case."""
    kind, d, n, k, pairs = case
    rng = np.random.default_rng([d, n, k, pairs])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    table = LagrangianTable(
        grid=grid, values=rng.uniform(0.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    )
    if kind == "closed":
        sol = solve_closed(table)
        return table, sol, certify_closed(table, sol), fiber_convex_envelope(table), None
    if kind == "full_fiber":
        # every velocity of node 2 supported: nine slopes, whose pairwise
        # (numpy) and running sums round differently
        sol = solve_closed(table)
        weights = {(2, m): 1.0 for m in range(grid.num_offsets)}
        weights.update({(4, 0): 0.5, (4, 3): 0.5})
        mu = dataclasses.replace(sol.measure, weights=weights)
        env = fiber_convex_envelope(table)
        slopes = _edge_slopes(env, 2 * grid.num_offsets + np.arange(grid.num_offsets))[:, 0]
        assert slopes.reshape(-1, 1).mean(axis=0)[0] != loop_sum(slopes.tolist()) / len(slopes)
        return table, dataclasses.replace(sol, measure=mu), certify_closed(table, sol), env, None
    ends = rng.choice(grid.num_nodes, size=2 * pairs, replace=False)
    charges = {int(x): -1.0 for x in ends[:pairs]}
    charges.update({int(x): 1.0 for x in ends[pairs:]})
    current = BoundaryCurrent(grid=grid, charges=charges)
    sol = solve_boundary(table, current)
    cert = certify_boundary(table, current, sol)
    return table, sol, cert, fiber_convex_envelope(table), current


NODE_TABLE_CASES = [
    ("closed", 1, 24, 2, 0),
    ("closed", 1, 16, 3, 0),
    ("closed", 2, 6, 2, 0),
    ("boundary", 1, 64, 2, 6),
    ("boundary", 1, 40, 3, 8),
    ("boundary", 2, 6, 1, 8),
    ("boundary", 2, 10, 2, 15),
    ("boundary", 2, 8, 1, 0),  # no charges: the empty measure
    ("full_fiber", 1, 6, 4, 0),
]


@pytest.mark.parametrize("case", NODE_TABLE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_node_table_matches_loop_reference(tmp_path, case):
    # the node-table columns and the residuals read from them against the
    # per-node loop, byte for byte and bit for bit
    table, sol, cert, env, current = _node_table_case(case)
    grid = table.grid
    rep = full_report(table, sol, cert, env, current=current)
    rows = loop_node_table(table, sol, cert, env)
    serialize.write_node_table_csv(tmp_path / "columns.csv", grid, rep)
    loop_write_node_table_csv(tmp_path / "loop.csv", grid, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    assert rep.hamiltonian_residual_max == loop_energy_residual(rows)
    usable = {r["node"]: r["momentum"] for r in rows if r["on_support"] and not r["any_endpoint"]}
    charged = current.support() if current is not None else ()
    assert rep.momentum_lipschitz_estimate == loop_momentum_lipschitz(usable, grid, charged)
    if current is not None and not charged:
        assert not rep.on_support.any() and rep.momentum_lipschitz_estimate == 0.0


def test_node_table_cases_cover_every_kind_of_node():
    # in 1-D and in 2-D, the cases above hold nodes with several supported
    # velocities, stencil-endpoint velocities and charges on the support
    seen = set()
    for case in NODE_TABLE_CASES:
        table, sol, cert, env, current = _node_table_case(case)
        rows = loop_node_table(table, sol, cert, env)
        d = table.grid.dim
        support = {r["node"] for r in rows if r["on_support"]}
        if any(r["momentum_spread"] for r in rows):
            seen.add(("several velocities", d))
        if any(r["any_endpoint"] for r in rows):
            seen.add(("endpoint", d))
        if current is not None and support & set(current.support()):
            seen.add(("charged", d))
    kinds = ("several velocities", "endpoint", "charged")
    assert seen == {(kind, d) for kind in kinds for d in (1, 2)}


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
    for column in (rep.f, rep.momentum, rep.momentum_spread, rep.H_residual, rep.on_support):
        assert len(column) == 2


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


# Each entry point given the table (or envelope) of one grid and the rest from
# another with the same nodes and a wider stencil.
_MISMATCHED = {
    "solve_boundary": lambda a, b, path: solve_boundary(a.table, b.current),
    "certify_closed": lambda a, b, path: certify_closed(a.table, b.closed),
    "certify_boundary": lambda a, b, path: certify_boundary(a.table, b.current, b.solution),
    "full_report": lambda a, b, path: full_report(a.table, b.solution, b.cert, b.env, b.current),
    "momentum_field": lambda a, b, path: momentum_field(a.env, b.solution.measure),
    "write_envelope_csv": lambda a, b, path: serialize.write_envelope_csv(path, a.table, b.env),
}


def _solved_instance(grid):
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x) + 1)
    current = BoundaryCurrent(grid=grid, charges={0: -1.0, 3: 1.0})
    solution = solve_boundary(table, current)
    return SimpleNamespace(
        table=table,
        current=current,
        solution=solution,
        closed=solve_closed(table),
        cert=certify_boundary(table, current, solution),
        env=fiber_convex_envelope(table),
    )


@pytest.mark.parametrize("entry", sorted(_MISMATCHED))
def test_entry_points_reject_inputs_of_two_grids(tmp_path, entry):
    # same nodes, other stencil: unchecked, a certificate would read the k=2
    # edge ids on the k=1 graph and call the solution not optimal
    grid, other = build_torus_grid(1, 6, 1, 1 / 6), build_torus_grid(1, 6, 2, 1 / 6)
    a, b = _solved_instance(grid), _solved_instance(other)
    with pytest.raises(ValueError) as err:
        _MISMATCHED[entry](a, b, tmp_path / "envelope.csv")
    assert str(err.value) == f"inputs live on different grids: {grid!r} and {other!r}"
    assert not (tmp_path / "envelope.csv").exists()


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
