import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from actionlab import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    boundary_of_measure,
    build_torus_grid,
    certify_closed,
    discrete_differential,
    make_control_problem,
    sample_lagrangian,
    solve_closed,
)
from actionlab.control import certify_control, solve_relaxed_lp
from actionlab.grid import callback_points, sample_callback
from actionlab.measure_lp import OPTIMAL, OptimalSolution

from oracles import (
    LATTICES,
    loop_boundary_of_measure,
    loop_offset_index,
    loop_sample_lagrangian,
    loop_sum,
    loop_torus_grid,
)


def test_counts_1d():
    grid = build_torus_grid(1, 4, 1, 0.25)
    assert grid.num_nodes == 4
    assert grid.num_edges == 12
    assert sorted(grid.velocities.ravel().tolist()) == [-1.0, 0.0, 1.0]


def test_counts_2d():
    grid = build_torus_grid(2, 3, 1, 1.0)
    assert grid.num_nodes == 9
    assert grid.num_edges == 81


def test_velocity_units():
    grid = build_torus_grid(1, 8, 2, 0.125)
    assert sorted(grid.velocities.ravel().tolist()) == [-2.0, -1.0, 0.0, 1.0, 2.0]


@pytest.mark.parametrize(
    "d,n,k,h",
    [(3, 4, 1, 0.1), (0, 4, 1, 0.1), (1, 1, 1, 0.1), (1, 4, 0, 0.1), (1, 4, 1, 0.0), (1, 4, 1, -1.0)],
)
def test_build_rejects_bad_arguments(d, n, k, h):
    with pytest.raises(ValueError):
        build_torus_grid(d, n, k, h)


@pytest.mark.parametrize("h", [np.inf, np.nan, 0.0])
def test_build_names_a_time_step_that_is_not_positive_and_finite(h):
    with pytest.raises(ValueError) as err:
        build_torus_grid(1, 4, 1, h)
    assert str(err.value) == f"time step must be positive and finite, got {h}"


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"dim": 3}, "dimension must be 1 or 2, got 3"),
        ({"nodes_per_dim": 1}, "need at least 2 nodes per axis, got 1"),
        ({"stencil_radius": 0}, "stencil radius must be >= 1, got 0"),
        ({"time_step": -1.0}, "time step must be positive and finite, got -1.0"),
        ({"nodes_per_dim": 1, "stencil_radius": 0, "time_step": -1.0}, "need at least 2 nodes per axis, got 1"),
    ],
    ids=["dim", "nodes", "radius", "time_step", "first_of_three"],
)
def test_replace_checks_the_grid_with_the_build_messages(changes, message):
    with pytest.raises(ValueError) as err:
        dataclasses.replace(build_torus_grid(1, 8, 1, 1 / 8), **changes)
    assert str(err.value) == message


@pytest.mark.parametrize("changes", [{"dim": 1.0}, {"nodes_per_dim": 8.0}, {"stencil_radius": 1.5}])
def test_grid_sizes_must_be_integers(changes):
    # 8.0 == 8, so such a grid would equal a valid one and fail at its tables
    with pytest.raises(TypeError, match="must be integers"):
        dataclasses.replace(build_torus_grid(1, 8, 1, 1 / 8), **changes)


GRID_TABLES = ("offsets", "neighbors", "positions", "velocities", "edge_endpoints")


@pytest.mark.parametrize(
    "changes",
    [{"time_step": 0.5}, {"nodes_per_dim": 16}, {"dim": 2, "stencil_radius": 2}],
    ids=["time_step", "nodes", "dim_and_radius"],
)
def test_replace_derives_the_tables_of_the_built_grid(changes):
    grid = build_torus_grid(1, 8, 1, 1 / 8)
    for name in GRID_TABLES:
        getattr(grid, name)  # built before the replace
    replaced = dataclasses.replace(grid, **changes)
    fields = {**dataclasses.asdict(grid), **changes}
    built = build_torus_grid(*fields.values())
    assert replaced == built
    for name in GRID_TABLES:
        new, ref = np.asarray(getattr(replaced, name)), np.asarray(getattr(built, name))
        assert new.dtype == ref.dtype and np.array_equal(new, ref), name


@pytest.mark.parametrize("name", GRID_TABLES)
def test_grid_tables_are_read_only(name):
    grid = build_torus_grid(2, 4, 1, 0.25)
    getattr(grid, name)  # built, so the copies below start from a grid that holds it
    for g in (grid, pickle.loads(pickle.dumps(grid)), copy.deepcopy(grid)):
        tables = getattr(g, name)
        for table in tables if isinstance(tables, tuple) else (tables,):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)
        assert g == grid
    fresh = build_torus_grid(2, 4, 1, 0.25)
    assert np.array_equal(np.asarray(getattr(grid, name)), np.asarray(getattr(fresh, name)))


def test_measures_and_currents_are_read_only():
    grid = build_torus_grid(1, 4, 1, 0.25)
    mu = DiscreteMeasure(grid=grid, weights={(1, 1): 1.0})
    current = BoundaryCurrent(grid=grid, charges={0: -1.0, 3: 1.0})
    with pytest.raises(TypeError):
        mu.weights[(1, 1)] = -5.0
    with pytest.raises(TypeError):
        current.charges[3] = 7.0
    assert mu.mass == 1.0 and current.charges == {0: -1.0, 3: 1.0}


def test_measures_and_currents_pickle_and_deep_copy():
    grid = build_torus_grid(1, 4, 1, 0.25)
    mu = DiscreteMeasure(grid=grid, weights={(2, 0): 0.5, (1, 1): 1.0})
    current = BoundaryCurrent(grid=grid, charges={3: 1.0, 0: -1.0})
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        mu2, current2 = clone(mu), clone(current)
        assert mu2.grid == grid and list(mu2.weights.items()) == list(mu.weights.items())
        assert current2.grid == grid and list(current2.charges.items()) == list(current.charges.items())
        with pytest.raises(TypeError):
            mu2.weights[(1, 1)] = 2.0


def test_table_values_are_a_read_only_view_of_the_callers_array():
    grid = build_torus_grid(1, 4, 1, 0.25)
    values = np.zeros((4, 3))
    table = LagrangianTable(grid=grid, values=values)
    assert np.shares_memory(table.values, values)
    for t in (table, pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        with pytest.raises(ValueError, match="read-only"):
            t.values[0, 0] = 1.0
    assert values.flags.writeable


def test_stencil_contains_zero_and_is_symmetric():
    for d in (1, 2):
        grid = build_torus_grid(d, 4, 2, 0.5)
        offs = {tuple(o) for o in grid.offsets}
        assert tuple([0] * d) in offs
        assert all(tuple(-np.array(o)) in offs for o in offs)
        assert np.all(grid.offsets[grid.zero_offset_index] == 0)


def test_edge_heads_are_nodes():
    grid = build_torus_grid(2, 5, 2, 0.3)
    assert grid.neighbors.min() >= 0
    assert grid.neighbors.max() < grid.num_nodes


@pytest.mark.parametrize("d,n,k", LATTICES)
def test_grid_numbering_matches_loop_reference(d, n, k):
    grid = build_torus_grid(d, n, k, 0.5)
    ref = loop_torus_grid(d, n, k)
    for name in ("offsets", "neighbors", "positions"):
        assert np.array_equal(getattr(grid, name), ref[name]), name


def test_sample_lagrangian_zero_and_kinetic():
    grid = build_torus_grid(1, 4, 1, 0.25)
    zero = sample_lagrangian(grid, lambda x, v: 0.0)
    assert np.all(zero.values == 0.0)
    kin = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    for node in range(4):
        assert kin.values[node].tolist() == [0.5, 0.0, 0.5]


def test_sample_lagrangian_pendulum_point_value():
    grid = build_torus_grid(1, 4, 1, 0.25)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    assert table.values[0, grid.zero_offset_index] == pytest.approx(1.0, abs=1e-15)


def test_sample_lagrangian_rejects_non_finite():
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError, match="node 2"):
        sample_lagrangian(grid, lambda x, v: np.inf if x == 0.5 else 0.0)


def test_sample_lagrangian_names_first_non_finite_edge_1d():
    grid = build_torus_grid(1, 4, 2, 0.25)  # velocities -2, -1, 0, 1, 2

    def lagrangian(x, v):
        if x == 0.5 and v >= 1.0:  # node 2, offsets 1 and 2
            return float("nan") if v == 1.0 else -np.inf
        return np.inf if x > 0.5 else 0.5 * v * v

    with pytest.raises(ValueError) as info:
        sample_lagrangian(grid, lagrangian)
    message = str(info.value)
    assert "non-finite value nan at node 2 (x=0.5), offset (1,)" in message


def test_sample_lagrangian_names_first_non_finite_edge_2d():
    grid = build_torus_grid(2, 3, 1, 1.0 / 3)  # velocities are the offsets
    bad = np.float64("nan")

    def lagrangian(x, v):
        if np.array_equal(x, grid.positions[4]) and tuple(v) >= (0.0, 1.0):
            return bad if tuple(v) == (0.0, 1.0) else np.inf  # node 4, offsets from (0, 1)
        return np.inf if x[0] > 0.5 else 0.5 * np.dot(v, v)

    with pytest.raises(ValueError) as info:
        sample_lagrangian(grid, lagrangian)
    message = str(info.value)
    assert f"non-finite value {bad!r} at node 4" in message
    assert message.endswith("offset (0, 1)")


def _trig_lagrangian(rng, d):
    """|v|^2/2 plus a seeded cosine potential, in scalar math, as callers write it."""
    a, p = (float(c) for c in rng.uniform(0.5, 1.5, size=2))
    w = [int(c) for c in rng.integers(1, 4, size=d)]

    def lagrangian(x, v):
        xs, vs = ([x], [v]) if d == 1 else (x.tolist(), v.tolist())
        return 0.5 * sum(c * c for c in vs) + a * math.cos(
            2.0 * math.pi * sum(wi * xi for wi, xi in zip(w, xs)) + p
        )

    return lagrangian


@pytest.mark.parametrize("d,n,k", LATTICES)
def test_sample_lagrangian_matches_loop_reference(d, n, k):
    rng = np.random.default_rng([d, n, k])
    grid = build_torus_grid(d, n, k, float(rng.uniform(0.1, 1.0)))
    lagrangian = _trig_lagrangian(rng, d)
    table = sample_lagrangian(grid, lagrangian)
    assert table.values.tobytes() == loop_sample_lagrangian(grid, lagrangian).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_sample_lagrangian_passes_floats_in_1d_and_rows_in_2d(d):
    grid = build_torus_grid(d, 3, 1, 0.5)
    seen = []

    def lagrangian(x, v):
        seen.append((x, v))
        return 0.0

    sample_lagrangian(grid, lagrangian)
    assert len(seen) == grid.num_edges
    for e, (x, v) in enumerate(seen):
        node, m = divmod(e, grid.num_offsets)
        if d == 1:
            assert type(x) is float and type(v) is float
            assert (x, v) == (grid.positions[node, 0], grid.velocities[m, 0])
        else:
            assert np.array_equal(x, grid.positions[node])
            assert np.array_equal(v, grid.velocities[m])


def test_sample_callback_is_row_major_over_its_axes():
    calls = []

    def fn(*args):
        calls.append(args)
        return len(calls)

    values = sample_callback(fn, [1, 2], "ab", (10, 20, 30))
    assert values.shape == (2, 2, 3)
    assert calls == [(x, c, t) for x in (1, 2) for c in "ab" for t in (10, 20, 30)]
    assert values.ravel().tolist() == list(range(1, 13))
    assert callback_points(np.array([[0.5], [0.25]])) == [0.5, 0.25]


def test_discrete_differential_constant_is_zero():
    grid = build_torus_grid(1, 6, 2, 0.5)
    df = discrete_differential(np.full(6, 7.0), grid)
    assert np.all(df == 0.0)


def test_discrete_differential_hand_value():
    grid = build_torus_grid(1, 4, 1, 0.25)
    f = np.array([0.0, 1.0, 0.0, -1.0])
    df = discrete_differential(f, grid)
    # edge (node 0, offset +1): (f(1) - f(0)) / h = 4
    assert df[0, loop_offset_index(grid, 1)] == pytest.approx(4.0)


def test_discrete_differential_translation_invariance_and_linearity():
    rng = np.random.default_rng(7)
    grid = build_torus_grid(2, 4, 1, 0.5)
    f = rng.normal(size=grid.num_nodes)
    g = rng.normal(size=grid.num_nodes)
    assert np.allclose(
        discrete_differential(f + 3.25, grid), discrete_differential(f, grid), atol=1e-12
    )
    assert np.allclose(
        discrete_differential(f + g, grid),
        discrete_differential(f, grid) + discrete_differential(g, grid),
        atol=1e-12,
    )


def test_boundary_of_cycle_is_zero():
    grid = build_torus_grid(1, 5, 1, 0.2)
    plus = loop_offset_index(grid, 1)
    mu = DiscreteMeasure(grid=grid, weights={(x, plus): 0.2 for x in range(5)})
    bm = boundary_of_measure(mu)
    assert bm.charges == {}


def test_boundary_of_atom_is_dipole():
    grid = build_torus_grid(1, 4, 1, 0.25)
    mu = DiscreteMeasure(grid=grid, weights={(1, loop_offset_index(grid, 1)): 1.0})
    bm = boundary_of_measure(mu)
    assert bm.charges.get(2, 0.0) == pytest.approx(1.0 / 0.25)
    assert bm.charges.get(1, 0.0) == pytest.approx(-1.0 / 0.25)


def test_boundary_of_two_cycles_is_zero():
    grid = build_torus_grid(1, 6, 1, 0.5)
    plus, minus = loop_offset_index(grid, 1), loop_offset_index(grid, -1)
    weights = {(x, plus): 0.3 for x in range(6)}
    weights.update({(x, minus): 0.7 for x in range(6)})
    bm = boundary_of_measure(DiscreteMeasure(grid=grid, weights=weights))
    assert all(abs(c) < 1e-12 for c in bm.charges.values())


def test_boundary_current_rejects_unbalanced():
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError, match="sum to zero"):
        BoundaryCurrent(grid=grid, charges={0: 1.0, 1: -0.5})


def test_charge_balance_is_relative_to_the_charges():
    # charges of 1e-14 are judged as charges of 1 are: no absolute floor
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError, match="sum to zero"):
        BoundaryCurrent(grid=grid, charges={0: 1e-14, 1: -2e-14})
    assert BoundaryCurrent(grid=grid, charges={0: 1e-14, 1: -1e-14}).charges == {0: 1e-14, 1: -1e-14}


def test_measure_rejects_negative_weight():
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError, match="negative"):
        DiscreteMeasure(grid=grid, weights={(0, 0): -0.1})


@pytest.mark.parametrize("key", [(1, 7), (9, 0), (-1, 0), (0, -1), (4, 0), (0, 3)])
def test_measure_rejects_an_edge_outside_the_grid(key):
    grid = build_torus_grid(1, 4, 1, 0.25)  # 4 nodes, 3 offsets
    with pytest.raises(ValueError) as info:
        DiscreteMeasure(grid=grid, weights={(0, 1): 0.5, key: 1.0})
    assert str(info.value) == (
        f"edge {key} outside the grid: node in [0, 4), offset index in [0, 3)"
    )


@pytest.mark.parametrize("node", [9, 4, -1])
def test_current_rejects_a_node_outside_the_grid(node):
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError) as info:
        BoundaryCurrent(grid=grid, charges={node: 1.0, 0: -1.0})
    assert str(info.value) == f"charge on node {node} outside the grid: node in [0, 4)"


@pytest.mark.parametrize("key", [(1.7, 0), (1, 0.5), (np.nan, 0), (np.inf, 1)])
def test_measure_rejects_an_edge_that_is_not_integral(key):
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError) as info:
        DiscreteMeasure(grid=grid, weights={(0, 1): 0.5, key: 1.0})
    assert str(info.value) == f"edge {key!r} is not a pair of integers"


@pytest.mark.parametrize("node", [2.9, -0.5, np.nan])
def test_current_rejects_a_node_that_is_not_integral(node):
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError) as info:
        BoundaryCurrent(grid=grid, charges={node: 1.0, 0: -1.0})
    assert str(info.value) == f"charge on node {node!r}: not an integer node"


def test_integral_float_keys_mean_their_integers():
    grid = build_torus_grid(1, 4, 1, 0.25)
    mu = DiscreteMeasure(grid=grid, weights={(3.0, 1.0): 0.5, (0, 2): 0.25})
    assert list(mu.weights.items()) == [((3, 1), 0.5), ((0, 2), 0.25)]
    current = BoundaryCurrent(grid=grid, charges={3.0: 1.0, 0: -1.0})
    assert list(current.charges.items()) == [(3, 1.0), (0, -1.0)]


@pytest.mark.parametrize(
    "charges, message",
    [
        ({0: np.nan, 1: 0.0}, "charge nan on node 0 is not finite"),
        ({0: np.inf, 3: -np.inf}, "charge inf on node 0 is not finite"),
        ({0: 1.0, 2: -1.0, 3: -np.inf}, "charge -inf on node 3 is not finite"),
    ],
    ids=["nan", "inf_pair", "minus_inf"],
)
def test_current_rejects_a_non_finite_charge(charges, message):
    grid = build_torus_grid(1, 4, 1, 0.25)
    with pytest.raises(ValueError) as info:
        BoundaryCurrent(grid=grid, charges=charges)
    assert str(info.value) == message


def test_stokes_identity_random_pairs():
    # sum_e mu(e) df(e) == sum_x c(x) f(x), 100 seeded random pairs
    rng = np.random.default_rng(42)
    for trial in range(100):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(2, 9 if d == 1 else 5))
        k = int(rng.integers(1, 3))
        h = float(rng.uniform(0.1, 1.0))
        grid = build_torus_grid(d, n, k, h)
        f = rng.normal(size=grid.num_nodes)
        support_size = int(rng.integers(1, grid.num_edges + 1))
        edge_ids = rng.choice(grid.num_edges, size=support_size, replace=False)
        weights = {
            (int(e) // grid.num_offsets, int(e) % grid.num_offsets): float(w)
            for e, w in zip(edge_ids, rng.uniform(0.0, 2.0, size=support_size))
        }
        mu = DiscreteMeasure(grid=grid, weights=weights)
        df = discrete_differential(f, grid)
        lhs = sum(w * df[e] for e, w in mu.weights.items())
        bm = boundary_of_measure(mu)
        rhs = bm.pairing(f)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale, f"trial {trial}"
        # the array paths add in the measure's (random) order, as the loops do
        assert _bits(bm.charges) == _bits(loop_boundary_of_measure(mu)), f"trial {trial}"
        assert mu.action(LagrangianTable(grid=grid, values=df)) == lhs, f"trial {trial}"


def _bits(charges: dict) -> list:
    return sorted((x, float(c).hex()) for x, c in charges.items())


def _boundary_case(name):
    """A measure on which ``boundary_of_measure`` must match the loop reference."""
    if name == "descending":
        grid = build_torus_grid(2, 4, 2, 0.3)
        rng = np.random.default_rng(8)
        ids = np.sort(rng.choice(grid.num_edges, size=120, replace=False))[::-1]
        return DiscreteMeasure.on_edges(grid, ids, rng.lognormal(size=len(ids)))
    grid = build_torus_grid(1, 5, 1, 4.0)
    rest, plus = grid.zero_offset_index, loop_offset_index(grid, 1)
    weights = {
        # node 1 is a head, then carries a self-loop (whose +w/h and -w/h
        # round differently in the other order), then is a tail
        "self_loop": {(0, plus): 0.3, (1, rest): 0.7, (1, plus): 0.3, (4, rest): 0.1},
        # node 2 is the head of one edge and the tail of the next
        "head_and_tail": {(1, plus): 0.1, (2, plus): 0.2, (3, plus): 0.3},
        # w/h rounds to zero: the head gains +0.0, the tail -0.0
        "signed_zero": {(2, plus): 5e-324, (0, plus): 0.5},
    }[name]
    return DiscreteMeasure(grid=grid, weights=weights)


@pytest.mark.parametrize("name", ["self_loop", "head_and_tail", "signed_zero", "descending"])
def test_boundary_of_measure_matches_the_loop_reference(name):
    mu = _boundary_case(name)
    bm = boundary_of_measure(mu)
    loop = loop_boundary_of_measure(mu)
    assert _bits(bm.charges) == _bits(loop)
    dense = np.zeros(mu.grid.num_nodes)
    dense[list(loop)] = list(loop.values())
    assert bm.to_dense().tobytes() == dense.tobytes()


def test_measure_on_edges_keeps_its_order():
    grid = build_torus_grid(1, 4, 1, 0.25)  # 3 offsets
    mu = DiscreteMeasure.on_edges(grid, [7, 2, 9, 4], [0.5, 0.25, 0.0, 1.0])
    assert list(mu.weights.items()) == [((2, 1), 0.5), ((0, 2), 0.25), ((1, 1), 1.0)]
    ids, weights = mu.edges()
    assert ids.tolist() == [7, 2, 4] and weights.tolist() == [0.5, 0.25, 1.0]
    assert mu.edge_ids().tolist() == [2, 4, 7]
    assert mu.support_nodes() == [0, 1, 2]
    table = LagrangianTable(grid=grid, values=np.arange(12.0).reshape(4, 3))
    assert mu.action(table) == 7 * 0.5 + 2 * 0.25 + 4 * 1.0


@pytest.mark.parametrize("make", ["dict", "on_edges", "zero_weight"])
def test_empty_measure_reads_as_empty(make):
    grid = build_torus_grid(2, 3, 1, 0.5)
    mu = {
        "dict": lambda: DiscreteMeasure(grid=grid, weights={}),
        "on_edges": lambda: DiscreteMeasure.on_edges(grid, [], []),
        "zero_weight": lambda: DiscreteMeasure(grid=grid, weights={(4, 0): 0.0}),
    }[make]()
    assert mu.support_nodes() == []
    ids, weights = mu.edges()
    assert ids.shape == weights.shape == (0,)
    assert mu.edge_ids().shape == (0,) and mu.edge_ids().dtype.kind == "i"
    table = LagrangianTable(grid=grid, values=np.ones((grid.num_nodes, grid.num_offsets)))
    assert mu.action(table) == 0.0 and mu.mass == 0.0
    assert boundary_of_measure(mu).charges == {}


def test_data_types_compare_by_identity():
    # their arrays are their data: two instances that differ only there are
    # different, and an instance equals (and hashes as) itself
    grid = build_torus_grid(1, 4, 1, 0.25)
    assert grid == build_torus_grid(1, 4, 1, 0.25)  # a grid is its scalars
    zeros, ones = (LagrangianTable(grid=grid, values=np.full((4, 3), v)) for v in (0.0, 1.0))
    pairs = [
        (zeros, ones),
        (DiscreteMeasure(grid=grid, weights={(0, 1): 1.0}), DiscreteMeasure(grid=grid, weights={(2, 1): 1.0})),
        (BoundaryCurrent(grid=grid, charges={0: 1.0, 1: -1.0}), BoundaryCurrent(grid=grid, charges={0: 2.0, 1: -2.0})),
        (certify_closed(zeros, solve_closed(zeros)), certify_closed(ones, solve_closed(ones))),
    ]
    problems = [
        make_control_problem(
            state_dim=1, nodes_per_axis=3, origin=[0.0], spacing=1.0, controls=(0,),
            dynamics=lambda x, a: 0.0, running_cost=lambda x, t, a: cost,
            horizon=1.0, time_step=1.0,
        )
        for cost in (0.0, 7.0)
    ]
    pairs.append(tuple(problems))
    pairs.append(tuple(certify_control(p, solve_relaxed_lp(p, [1.0, 0.0, 0.0])) for p in problems))
    for a, b in pairs:
        assert a != b, type(a).__name__
        assert a == a and hash(a) == hash(a), type(a).__name__


# Sums of floats that builtin sum adds with compensation from Python 3.12 on:
# each is added one rounding per term, in order, on every version, and each
# case is one where that and the compensated sum differ.


def test_mass_adds_the_weights_in_order():
    # ten weights 0.1: 0.9999999999999999 in order, 1.0 compensated
    grid = build_torus_grid(1, 10, 1, 0.1)
    mu = DiscreteMeasure(grid=grid, weights={(x, 2): 0.1 for x in range(10)})
    assert math.fsum([0.1] * 10) == 1.0 != loop_sum([0.1] * 10)
    assert mu.mass == loop_sum([0.1] * 10) == 0.9999999999999999
    summary = OptimalSolution(measure=mu, value=0.0, status=OPTIMAL).summary()
    assert summary["mass"] == mu.mass


def test_pairing_adds_the_terms_in_the_charges_order():
    # an order check: builtin sum over the numpy products c * f[x] is plain
    # on every version, so this case does not depend on the Python version
    grid = build_torus_grid(1, 11, 1, 1.0 / 11)
    current = BoundaryCurrent(grid=grid, charges={**{x: 0.1 for x in range(10)}, 10: -1.0})
    f = np.ones(11)
    terms = [0.1] * 10 + [-1.0]
    assert math.fsum(terms) != loop_sum(terms)
    assert current.pairing(f) == loop_sum(terms) == -1.1102230246251565e-16


def test_charge_balance_adds_the_charges_in_order():
    # 2^53, then unit charges that each round away against it (a tie to
    # even), then -2^53: in order the total is 0.0 and the current balances.
    # The compensated total, the number of unit charges, is over the
    # tolerance 1e-12 * 2^54 (about 18,014)
    grid = build_torus_grid(2, 136, 1, 1.0 / 136)
    last = grid.num_nodes - 1
    charges = {0: 2.0**53, **{x: 1.0 for x in range(1, last)}, last: -(2.0**53)}
    assert loop_sum(charges.values()) == 0.0
    assert math.fsum(charges.values()) == last - 1 > 1e-12 * 2.0**54
    assert BoundaryCurrent(grid=grid, charges=charges).charges == charges
