import hashlib
import tracemalloc

import numpy as np
import pytest

from actionlab import (
    DiscreteMeasure,
    LagrangianTable,
    build_torus_grid,
    fiber_convex_envelope,
    momentum_field,
    sample_lagrangian,
    solve_closed,
)

from actionlab import convexify
from actionlab.convexify import _edge_slopes, _supports

from oracles import (
    LATTICES,
    affine_minorant_max_1d,
    affine_minorant_max_2d,
    loop_convex_envelope,
    loop_fiber_slopes,
    loop_lower_hull_1d,
    loop_offset_index,
    loop_supports,
)


def all_slopes(env):
    """The fibre slopes of every edge as an (N, M, d) table, by ``_edge_slopes``."""
    grid = env.grid
    slopes = _edge_slopes(env, np.arange(grid.num_edges))
    return slopes.reshape(grid.num_nodes, grid.num_offsets, grid.dim)


def double_well_table(n=4):
    grid = build_torus_grid(1, n, 2, 1.0 / n)  # velocities -2..2
    table = sample_lagrangian(grid, lambda x, v: (v * v - 1.0) ** 2)
    return grid, table


def test_double_well_envelope_values():
    grid, table = double_well_table()
    assert table.values[0].tolist() == [9.0, 0.0, 1.0, 0.0, 9.0]
    env = fiber_convex_envelope(table)
    # hull chord between the wells flattens the hump exactly
    assert env.values[0].tolist() == [9.0, 0.0, 0.0, 0.0, 9.0]


def test_convex_and_affine_fibers_are_fixed():
    grid = build_torus_grid(1, 6, 2, 1.0 / 6)
    kin = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    env = fiber_convex_envelope(kin)
    assert np.max(np.abs(env.values - kin.values)) <= 1e-12
    aff = sample_lagrangian(grid, lambda x, v: 1.5 * v - 0.25)
    env_aff = fiber_convex_envelope(aff)
    assert np.max(np.abs(env_aff.values - aff.values)) <= 1e-12


def test_envelope_idempotent():
    rng = np.random.default_rng(19)
    for _ in range(10):
        grid = build_torus_grid(1, 5, 2, 0.2)
        table = LagrangianTable(grid=grid, values=rng.uniform(-1, 1, size=(5, 5)))
        env1 = fiber_convex_envelope(table)
        env2 = fiber_convex_envelope(LagrangianTable(grid=grid, values=env1.values))
        assert np.max(np.abs(env2.values - env1.values)) <= 1e-12


def test_envelope_never_above_input():
    rng = np.random.default_rng(29)
    for _ in range(10):
        grid = build_torus_grid(1, 4, 2, 0.25)
        table = LagrangianTable(grid=grid, values=rng.uniform(-1, 1, size=(4, 5)))
        env = fiber_convex_envelope(table)
        assert np.max(env.values - table.values) <= 1e-12


def test_envelope_fiber_convexity_second_differences():
    rng = np.random.default_rng(37)
    grid = build_torus_grid(1, 4, 2, 0.25)
    table = LagrangianTable(grid=grid, values=rng.uniform(-1, 1, size=(4, 5)))
    env = fiber_convex_envelope(table)
    second = np.diff(env.values, n=2, axis=1)
    assert second.min() >= -1e-12


def test_envelope_matches_affine_minorant_oracle_1d():
    rng = np.random.default_rng(41)
    grid = build_torus_grid(1, 3, 2, 1.0 / 3)
    vels = grid.velocities.ravel()
    for _ in range(30):
        table = LagrangianTable(grid=grid, values=rng.uniform(-1, 1, size=(3, 5)))
        env = fiber_convex_envelope(table)
        for x in range(3):
            for m in range(5):
                oracle = affine_minorant_max_1d(vels, table.values[x], vels[m])
                assert env.values[x, m] == pytest.approx(oracle, abs=1e-9)


def test_envelope_matches_lp_oracle_2d():
    rng = np.random.default_rng(43)
    grid = build_torus_grid(2, 2, 1, 0.5)  # 3x3 stencil, 9 points per fiber
    for _ in range(5):
        table = LagrangianTable(
            grid=grid, values=rng.uniform(-1, 1, size=(grid.num_nodes, grid.num_offsets))
        )
        env = fiber_convex_envelope(table)
        for x in range(grid.num_nodes):
            for m in range(grid.num_offsets):
                oracle = affine_minorant_max_2d(
                    grid.velocities, table.values[x], grid.velocities[m]
                )
                assert env.values[x, m] == pytest.approx(oracle, abs=1e-9)


# 2-D radius 3 is left out: there the loop visits 49 x 18,424 triangles
@pytest.mark.parametrize("dim,radius", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
def test_supports_match_loop_reference(dim, radius):
    got = _supports(dim, radius)
    want = loop_supports(dim, radius)
    assert len(got) == len(want)
    for (idx, wts), (ref_idx, ref_wts) in zip(got, want):
        assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
        assert wts.dtype == ref_wts.dtype and np.array_equal(wts, ref_wts)


@pytest.mark.parametrize("d,n,k", LATTICES)
def test_envelope_matches_loop_reference(d, n, k):
    rng = np.random.default_rng([d, n, k, 1])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    values = rng.uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    table = LagrangianTable(grid=grid, values=values)
    want = loop_convex_envelope(table, _supports(d, k))
    assert np.array_equal(fiber_convex_envelope(table).values, want)


@pytest.mark.parametrize("rows", ["one", "partial"])
@pytest.mark.parametrize("d,n,k", LATTICES)
def test_envelope_blocks_match_loop_reference(d, n, k, rows, monkeypatch):
    # A block of fibres holds three (rows, C) float temporaries for a stencil
    # point with C representations.  A one-byte budget makes every block one
    # fibre; the other budget gives the largest support blocks of N // 2 + 1
    # fibres, so its last block is partial wherever N >= 3.
    rng = np.random.default_rng([d, n, k, 2])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    values = rng.uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    table = LagrangianTable(grid=grid, values=values)
    want = loop_convex_envelope(table, _supports(d, k))
    grad, endpoint = loop_fiber_slopes(grid, want)
    c_max = max(len(idx) for idx, _ in _supports(d, k))
    n_fibres = grid.num_nodes
    budget = 1 if rows == "one" else 3 * 8 * c_max * (n_fibres // 2 + 1)
    monkeypatch.setattr(convexify, "_BLOCK_BYTES", budget)
    if rows == "partial" and n_fibres >= 3:
        assert n_fibres % convexify._block_rows(3 * 8 * c_max) != 0
    got = fiber_convex_envelope(table)
    assert np.array_equal(got.values, want)
    assert np.array_equal(all_slopes(got), grad)
    assert np.array_equal(np.broadcast_to(grid.stencil_end, endpoint.shape), endpoint)


def test_envelope_zero_is_positive_zero():
    # a -0.0 sample on a convex fibre: the envelope holds 0.0 there, so the
    # envelope CSV never writes "-0.0"
    grid = build_torus_grid(1, 2, 1, 0.5)
    table = LagrangianTable(grid=grid, values=np.array([[1.0, -0.0, 1.0], [1.0, 0.0, 1.0]]))
    env = fiber_convex_envelope(table)
    assert env.values.tolist() == [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]]
    assert not np.signbit(env.values).any()


def test_envelope_2d_radius_3_many_blocks_matches_loop_reference():
    # at the real budget the largest 2-D radius-3 support (3,699
    # representations) takes blocks of 11 fibres: 24 blocks here
    rng = np.random.default_rng(53)
    grid = build_torus_grid(2, 16, 3, 1.0 / 16)
    values = rng.uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    table = LagrangianTable(grid=grid, values=values)
    assert grid.num_nodes > convexify._block_rows(3 * 8 * 3699) > 1
    want = loop_convex_envelope(table, _supports(2, 3))
    assert np.array_equal(fiber_convex_envelope(table).values, want)


def test_supports_2d_radius_3_pinned():
    # too slow for the loop reference; the digest is that of the unblocked
    # triangle pass, which the loop reference matched at radii 1 and 2
    sup = _supports(2, 3)
    h = hashlib.sha256(np.array([len(idx) for idx, _ in sup], "<i8").tobytes())
    for idx, wts in sup:
        h.update(np.ascontiguousarray(idx, "<i8").tobytes())
        h.update(np.ascontiguousarray(wts, "<f8").tobytes())
    assert h.hexdigest() == "1f129d654af1c7dbc4394559099cd03e5b6c6f270a0dd6dd5454817dbfc4d5ea"


def _envelope_transient_bytes(n):
    """tracemalloc peak of fiber_convex_envelope above what it returns, 2-D k=2."""
    grid = build_torus_grid(2, n, 2, 1.0 / n)
    values = np.random.default_rng(n).uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    table = LagrangianTable(grid=grid, values=values)
    _supports(2, 2)  # the cached table is not part of the envelope's transient
    tracemalloc.start()
    try:
        env = fiber_convex_envelope(table)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current >= env.values.nbytes
    return peak - current


def test_envelope_transient_memory_is_bounded():
    # Blocks keep the temporaries of the sums within one budget.  A
    # per-stencil-point (N, C, 3) gather would take 41 MB at n=64 and grow
    # with N.
    at_64 = _envelope_transient_bytes(64)
    assert at_64 < 2 * convexify._BLOCK_BYTES
    assert _envelope_transient_bytes(128) <= at_64


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_envelope_1d_within_rounding_of_monotone_chain(k):
    # First-order rounding, M = max |y| on the fibre: the chain's chord value
    # y[p] + slope * (i - p) is within 3.5 eps M of the exact chord, the
    # weighted sum y[p] (1 - lam) + y[q] lam within 2 eps M of it, and the
    # chain's orientation test keeps or pops a vertex wrongly only when it
    # lies within 4 eps M of the chord: 9.5 eps M in all.
    rng = np.random.default_rng([1, k])
    grid = build_torus_grid(1, 8, k, 1.0 / 8)
    eps = np.finfo(float).eps
    for a, b in ((1.0, 0.0), (1e-9, 0.0), (1e9, 0.0), (1.0, 50.0)):
        for _ in range(20):
            values = a * rng.uniform(-1, 1, (8, 2 * k + 1)) + b
            env = fiber_convex_envelope(LagrangianTable(grid=grid, values=values)).values
            for x in range(8):
                gap = np.abs(env[x] - loop_lower_hull_1d(values[x])).max()
                assert gap <= 10 * eps * np.abs(values[x]).max()


@pytest.mark.parametrize("d,n,k", LATTICES)
def test_fiber_slopes_match_loop_reference(d, n, k):
    # seeded tables with no symmetry between the velocity axes or their ends,
    # taken raw and after convexification; every edge, in a seeded order
    rng = np.random.default_rng([d, n, k])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    values = rng.uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    table = LagrangianTable(grid=grid, values=values)
    ids = rng.permutation(grid.num_edges)
    for env in (table, fiber_convex_envelope(table)):
        grad, endpoint = loop_fiber_slopes(grid, env.values)
        assert np.array_equal(_edge_slopes(env, ids), grad.reshape(-1, d)[ids])
        assert np.array_equal(np.broadcast_to(grid.stencil_end, endpoint.shape), endpoint)


def test_derivative_parabola_interior_and_endpoint():
    grid = build_torus_grid(1, 4, 1, 0.25)  # velocities -1, 0, 1
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    grad = all_slopes(fiber_convex_envelope(table))
    mid = loop_offset_index(grid, 0)
    # hull slopes around v=0 are -1/2 and 1/2: midpoint 0
    assert grad[0, mid, 0] == pytest.approx(0.0, abs=1e-15)
    assert not grid.stencil_end[mid]
    end = loop_offset_index(grid, 1)
    assert grid.stencil_end[end]
    assert grad[0, end, 0] == pytest.approx(0.5)  # the one-sided slope


def test_derivative_flat_section_and_affine():
    grid, table = double_well_table()
    grad = all_slopes(fiber_convex_envelope(table))
    assert grad[0, loop_offset_index(grid, 0), 0] == pytest.approx(0.0, abs=1e-15)

    grid2 = build_torus_grid(1, 4, 2, 0.25)
    aff = sample_lagrangian(grid2, lambda x, v: 2.0 * v + 1.0)
    grad2 = all_slopes(fiber_convex_envelope(aff))
    for m in range(grid2.num_offsets):
        assert grad2[1, m, 0] == pytest.approx(2.0, abs=1e-12)


def test_momentum_pendulum_rest_atom():
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    sol = solve_closed(table)
    env = fiber_convex_envelope(table)
    momentum, spread, any_endpoint = momentum_field(env, sol.measure)
    assert momentum.shape == (16, 1)
    assert np.flatnonzero(~np.isnan(spread)).tolist() == [8]
    assert np.isnan(momentum[:8]).all() and np.isnan(momentum[9:]).all()
    assert momentum[8, 0] == pytest.approx(0.0, abs=1e-15)
    assert spread[8] == 0.0
    assert not any_endpoint.any()


def test_momentum_rotation_vanishes_on_cycle():
    # v0 sits at an interior stencil velocity so the fiber derivative there
    # is two-sided
    grid = build_torus_grid(1, 8, 2, 0.125)
    v0 = grid.spacing / grid.time_step
    table = sample_lagrangian(grid, lambda x, v: 0.5 * (v - v0) ** 2)
    sol = solve_closed(table)
    env = fiber_convex_envelope(table)
    momentum, spread, any_endpoint = momentum_field(env, sol.measure)
    assert not np.isnan(spread).any()  # the cycle visits all 8 nodes
    assert np.abs(momentum).max() <= 1e-12
    assert not any_endpoint.any()


def test_momentum_two_velocities_reports_spread():
    grid, table = double_well_table()
    plus = loop_offset_index(grid, 1)
    minus = loop_offset_index(grid, -1)
    mu = DiscreteMeasure(grid=grid, weights={(0, plus): 0.5, (0, minus): 0.5})
    env = fiber_convex_envelope(table)
    # hull slopes: (-9, 0) around v=-1 and (0, 9) around v=+1, midpoints +-4.5
    grad = all_slopes(env)
    assert grad[0, minus, 0] == pytest.approx(-4.5)
    assert grad[0, plus, 0] == pytest.approx(4.5)
    momentum, spread, any_endpoint = momentum_field(env, mu)
    assert spread[0] == pytest.approx(9.0)
    assert momentum[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert not any_endpoint[0]
    assert np.isnan(spread[1:]).all()


def _adjacent_slope_variation(n):
    """Largest |d L~/dv(x, v) - d L~/dv(x', v)| / dx over neighboring nodes,
    interior velocities only, for a smooth instance with x-dependent momenta."""
    grid = build_torus_grid(1, n, 2, 1.0 / n)
    table = sample_lagrangian(
        grid, lambda x, v: 0.5 * (v - 0.3 * np.sin(2 * np.pi * x)) ** 2
    )
    grad = all_slopes(fiber_convex_envelope(table))
    worst = 0.0
    for m in range(1, grid.num_offsets - 1):
        col = grad[:, m, 0]
        jump = np.abs(col - np.roll(col, -1)).max()
        worst = max(worst, float(jump) / grid.spacing)
    return worst


def test_envelope_derivative_lipschitz_stable_under_refinement():
    # smooth-in-x instance: the fiber-derivative variation per unit distance
    # stays within a factor 2 when the grid is refined
    coarse = _adjacent_slope_variation(16)
    fine = _adjacent_slope_variation(32)
    assert fine <= 2.0 * coarse + 1e-12
    assert coarse <= 2.0 * fine + 1e-12


def test_dual_feasible_differentials_stay_below_envelope_on_convex_fibers():
    # with convex fibers the envelope equals L, so feasibility df + c0 <= L
    # transfers to the envelope edge-wise
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    sol = solve_closed(table)
    from actionlab import certify_closed, discrete_differential

    cert = certify_closed(table, sol)
    env = fiber_convex_envelope(table)
    df = discrete_differential(cert.potential, grid)
    assert np.max(df + cert.critical_constant - env.values) <= 1e-9
