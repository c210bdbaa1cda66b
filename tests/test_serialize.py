import dataclasses
import itertools
import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from actionlab import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    build_torus_grid,
    fiber_convex_envelope,
    refinement_sweep,
    run_measure,
    run_scenario,
    sample_lagrangian,
)
from actionlab import serialize
from actionlab.cli import main
from actionlab.control import make_control_problem, solve_value_function
from actionlab.convexify import _edge_slopes


@pytest.mark.parametrize("d,n,k", [(1, 6, 2), (2, 3, 1)])
def test_grid_json_roundtrip(tmp_path, d, n, k):
    grid = build_torus_grid(d, n, k, 0.5)
    path = tmp_path / "grid.json"
    serialize.write_json(path, serialize.grid_to_json(grid))
    back = serialize.grid_from_json(json.loads(path.read_text()))
    assert back == grid


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"dim": 1, "n": 5, "h": 0.5}, "g.json: missing key 'stencil_radius'"),
        ({"n": 5}, "g.json: missing key 'dim'"),
        ([1, 5, 1, 0.5], "g.json: expected a JSON object, got list"),
    ],
    ids=["no_radius", "first_of_several", "not_an_object"],
)
def test_grid_from_json_names_the_source_and_the_missing_key(payload, message):
    with pytest.raises(ValueError) as err:
        serialize.grid_from_json(payload, source="g.json")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"n": True}, "g.json: key 'n' must be an integer, got true"),
        ({"dim": 1.5, "h": None}, "g.json: key 'dim' must be an integer, got 1.5"),
        ({"h": "0.5"}, 'g.json: key \'h\' must be a number, got "0.5"'),
    ],
    ids=["boolean", "first_of_several", "string_number"],
)
def test_grid_from_json_names_the_source_and_a_wrong_typed_key(changes, message):
    payload = {"dim": 1, "n": 5, "stencil_radius": 1, "h": 0.5, **changes}
    with pytest.raises(ValueError) as err:
        serialize.grid_from_json(payload, source="g.json")
    assert str(err.value) == message


def test_grid_from_json_takes_integral_numbers_as_integers():
    grid = serialize.grid_from_json({"dim": 1.0, "n": 5.0, "stencil_radius": 1, "h": 1})
    assert (grid.dim, grid.nodes_per_dim, grid.time_step) == (1, 5, 1.0)
    assert type(grid.nodes_per_dim) is int and type(grid.time_step) is float


@pytest.mark.parametrize("d,n,k", [(1, 5, 1), (2, 3, 1)])
def test_lagrangian_csv_roundtrip(tmp_path, d, n, k):
    rng = np.random.default_rng(2)
    grid = build_torus_grid(d, n, k, 0.25)
    table = sample_lagrangian(grid, lambda x, v: float(rng.normal()))
    path = tmp_path / "lag.csv"
    serialize.write_lagrangian_csv(path, table)
    back = serialize.read_lagrangian_csv(grid, path)
    assert np.array_equal(back.values, table.values)


@pytest.mark.parametrize("d,n,k", [(1, 7, 2), (2, 4, 1)])
def test_measure_csv_roundtrip(tmp_path, d, n, k):
    rng = np.random.default_rng(3)
    grid = build_torus_grid(d, n, k, 0.25)
    ids = rng.choice(grid.num_edges, size=5, replace=False)
    weights = {
        (int(e) // grid.num_offsets, int(e) % grid.num_offsets): float(w)
        for e, w in zip(ids, rng.uniform(0.1, 1.0, size=5))
    }
    mu = DiscreteMeasure(grid=grid, weights=weights)
    path = tmp_path / "mu.csv"
    serialize.write_measure_csv(path, mu)
    back = serialize.read_measure_csv(grid, path)
    assert back.weights == mu.weights


def test_current_csv_roundtrip(tmp_path):
    grid = build_torus_grid(2, 3, 1, 1.0)
    cur = BoundaryCurrent(grid=grid, charges={0: 1.5, 4: -0.5, 8: -1.0})
    path = tmp_path / "cur.csv"
    serialize.write_current_csv(path, cur)
    back = serialize.read_current_csv(grid, path)
    assert back.charges == cur.charges


def test_json_replaces_non_finite(tmp_path):
    path = tmp_path / "x.json"
    serialize.write_json(path, {"v": float("-inf"), "w": 1.25})
    data = json.loads(path.read_text())
    assert data == {"v": None, "w": 1.25}


def _json_payloads(rng):
    """Seeded payloads holding every kind of value the JSON writer converts."""
    arrays = []
    for shape in [(), (0,), (5,), (3, 4), (2, 3, 2), (0, 3), (3, 0), (2, 0, 2)]:
        scale = 10.0 ** rng.integers(-300, 300, shape)
        arrays += map(np.asarray, [  # a 0-d result stays an array, not a scalar
            rng.normal(size=shape) * scale,
            rng.normal(size=shape).astype(np.float32),
            rng.integers(-(2**62), 2**62, shape),
            rng.integers(0, 255, shape, dtype=np.uint8),
            rng.random(shape) < 0.5,
        ])
    for shape in [(7,), (3, 4), (2, 3, 2)]:
        values = rng.normal(size=shape)
        spots = rng.choice(values.size, 3, replace=False)
        values.flat[spots] = [np.nan, np.inf, -np.inf]
        arrays.append(values)
    scalars = [
        np.float32(rng.normal()), np.int64(rng.integers(-(2**62), 2**62)), np.bool_(True),
        np.bool_(False), np.float64(rng.normal()), -0.0, 5e-324, 1e300, -1e300,
        float("nan"), float("inf"), float("-inf"), None, True, False, 0, -(2**70),
        "plain", "caf\u00e9 \u03c0 \u2028 \U0001f600", 'say "hi"\n\t\\', "",
    ]
    nested = {
        3: {"b": scalars, 1: tuple(scalars[:4]), "a": {}},
        "x": [(), [], {}, (1, (2.5, [None]))],
        10: {2: "two", "1": "one", 1: "also one", 1.5: "float key"},
        "arrays": arrays,
    }
    return [nested, {"only": arrays[-1]}, {}, {"k": tuple(arrays)}]


def test_json_writer_matches_json_module(tmp_path):
    # the emitter against json.dumps(sort_keys=True, indent=2) of a cleaned copy
    for seed in range(3):
        for i, payload in enumerate(_json_payloads(np.random.default_rng([17, seed]))):
            serialize.write_json(tmp_path / "emit.json", payload)
            oracles.loop_write_json(tmp_path / "loop.json", payload)
            emitted = (tmp_path / "emit.json").read_bytes()
            assert emitted == (tmp_path / "loop.json").read_bytes(), (seed, i)


def test_json_writes_a_zero_d_non_finite_array_as_null(tmp_path):
    # the cleaned-copy writer failed here: tolist() of a 0-d array is a float
    path = tmp_path / "x.json"
    serialize.write_json(path, {"a": np.array(np.nan), "b": np.array(-np.inf), "c": np.array(2.5)})
    assert path.read_text() == '{\n  "a": null,\n  "b": null,\n  "c": 2.5\n}\n'


# NaN with the sign bit set and NaN with a payload: bit patterns apart from
# np.nan's that are written like it
NANS = np.array([0xFFF8000000000000, 0x7FF8000000000001], dtype=np.uint64).view(np.float64)


def _repeated_arrays():
    """Numeric arrays whose values repeat: -0.0 and 0.0 in both orders, NaNs of
    three bit patterns, infinities, the smallest subnormal, a float32 array,
    an all-equal array, two-valued bool and int arrays, and empty arrays."""
    zeros = np.array([-0.0, 0.0, 0.5, 0.0, -0.0, 0.5, -0.0])
    specials = np.array([np.nan, *NANS, np.inf, -np.inf, 5e-324, -0.0, 0.0, np.inf, 5e-324, -np.inf])
    return [
        zeros,
        zeros[::-1].copy(),
        np.concatenate([zeros, specials]).reshape(2, 3, 3),
        np.array([0.1, -0.0, 0.1, 0.0, -0.0, 0.1], dtype=np.float32).reshape(3, 2),
        np.full(5, 2.5),
        np.arange(9) % 2 == 0,
        np.resize([7, -(2**62)], 9).reshape(3, 3),
        np.zeros(0),
        np.zeros((2, 0), dtype=int),
    ]


def test_json_writer_formats_each_bit_pattern_as_json_module(tmp_path):
    # each distinct value is formatted once; -0.0 and 0.0 are told apart by
    # their bits, so an array holding both writes each as itself
    arrays = _repeated_arrays()
    for i, payload in enumerate([{"a": a} for a in arrays] + [{"all": arrays}]):
        serialize.write_json(tmp_path / "emit.json", payload)
        oracles.loop_write_json(tmp_path / "loop.json", payload)
        assert (tmp_path / "emit.json").read_bytes() == (tmp_path / "loop.json").read_bytes(), i
    serialize.write_json(tmp_path / "zeros.json", {"z": np.array([0.0, -0.0, 0.0])})
    assert json.loads((tmp_path / "zeros.json").read_text(), parse_float=str) == {
        "z": ["0.0", "-0.0", "0.0"]
    }


LONG_DOUBLE_ERROR = f"cannot write {np.dtype(np.longdouble)} values; convert them to float64"


def test_json_writer_rejects_long_double_and_writes_half_and_single(tmp_path):
    # a long double once failed on numpy's "data type 'i16' not understood"
    with pytest.raises(TypeError, match=LONG_DOUBLE_ERROR):
        serialize.write_json(tmp_path / "x.json", {"a": np.array([1.0, 2.0], dtype=np.longdouble)})
    for dtype in (np.float16, np.float32):
        payload = {"a": np.array([0.1, -0.0, 0.1, np.inf, 2.5], dtype=dtype)}
        serialize.write_json(tmp_path / "emit.json", payload)
        oracles.loop_write_json(tmp_path / "loop.json", payload)
        assert (tmp_path / "emit.json").read_bytes() == (tmp_path / "loop.json").read_bytes()


def test_json_writer_matches_json_module_on_artifact_payloads(tmp_path, monkeypatch):
    # every payload a measure run, a control run and a sweep write
    payloads = []
    write_json = serialize.write_json

    def record(path, payload):
        payloads.append((path.name, payload))
        write_json(path, payload)

    monkeypatch.setattr(serialize, "write_json", record)
    run_scenario("tonelli_pendulum", {"n": 8}, outdir=tmp_path)
    run_scenario("legendre_control", {"refine": 2}, outdir=tmp_path)
    refinement_sweep("legendre_control", [1, 0], outdir=tmp_path)
    names = {name for name, _ in payloads}
    assert {"certificate.json", "diagnostics.json", "control_certificate.json"} <= names
    assert {"control_report.json", "sweep.json", "summary.json"} <= names
    for name, payload in payloads:
        write_json(tmp_path / "emit.json", payload)
        oracles.loop_write_json(tmp_path / "loop.json", payload)
        assert (tmp_path / "emit.json").read_bytes() == (tmp_path / "loop.json").read_bytes(), name


@pytest.mark.parametrize(
    "read",
    [
        lambda grid, path: serialize.read_measure_csv(grid, path),
        lambda grid, path: serialize.read_lagrangian_csv(grid, path),
        lambda grid, path: serialize.read_current_csv(grid, path),
        lambda grid, path: serialize.read_initial_csv(grid.num_nodes, 1, 4, path),
    ],
    ids=["measure", "lagrangian", "current", "initial"],
)
def test_csv_readers_reject_empty_file_and_fractional_coordinates(tmp_path, read):
    grid = build_torus_grid(1, 4, 1, 0.25)
    path = tmp_path / "in.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="in.csv is empty"):
        read(grid, path)
    # node 1.7 used to be read as node 1
    path.write_text("x,k,w\n0,0,1.0\n1.7,0,1.0\n")
    with pytest.raises(ValueError, match="in.csv line 3: '1.7' is not an integer"):
        read(grid, path)


@pytest.mark.parametrize(
    "read, d, rows, error",
    [
        (serialize.read_measure_csv, 1, "0,0,1.0\n17,0,1.0", "coordinate 17 is outside [0, 16)"),
        (serialize.read_lagrangian_csv, 1, "0,0,1.0\n16,0,1.0", "coordinate 16 is outside [0, 16)"),
        (serialize.read_current_csv, 1, "0,1.0\n-1,-1.0", "coordinate -1 is outside [0, 16)"),
        (serialize.read_measure_csv, 2, "0,0,0,0,1\n3,16,0,0,1", "coordinate 16 is outside [0, 16)"),
        (serialize.read_current_csv, 2, "0,0,1.0\n-1,3,-1.0", "coordinate -1 is outside [0, 16)"),
        (serialize.read_measure_csv, 1, "0,0,1.0\n3,2,1.0", "offset (2,) outside stencil radius 1"),
    ],
    ids=["measure", "lagrangian", "current", "measure_2d", "current_2d", "offset"],
)
def test_csv_readers_reject_out_of_range_node(tmp_path, read, d, rows, error):
    # the parent read node 17 of a 16-node axis as node 1, and -1 as node 15
    grid = build_torus_grid(d, 16, 1, 1.0 / 16)
    path = tmp_path / "in.csv"
    path.write_text(f"header\n{rows}\n")
    with pytest.raises(ValueError) as err:
        read(grid, path)
    assert str(err.value) == f"{path} line 3: {error}"


def _certify_exit_code(tmp_path, table, measure, current=None, extra=()):
    """Write the inputs of ``actionlab certify`` and return its exit code.

    ``measure`` is written as the solution CSV; a string is written verbatim.
    ``extra`` is appended to the arguments.
    """
    gpath, lpath, spath = (tmp_path / x for x in ("g.json", "l.csv", "s.csv"))
    serialize.write_json(gpath, serialize.grid_to_json(table.grid))
    serialize.write_lagrangian_csv(lpath, table)
    if isinstance(measure, str):
        spath.write_text(measure)
    else:
        serialize.write_measure_csv(spath, measure)
    argv = ["certify", "--grid", str(gpath), "--lagrangian", str(lpath)]
    if current is not None:
        cpath = tmp_path / "c.csv"
        serialize.write_current_csv(cpath, current)
        argv += ["--current", str(cpath)]
    return main(argv + ["--solution", str(spath), "--outdir", str(tmp_path / "out"), *extra])


def test_cli_certify_flags_bad_solution(tmp_path):
    # feed a deliberately suboptimal measure; support slack exceeds the
    # tolerance so the certify subcommand must exit 1
    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    bad = DiscreteMeasure(grid=grid, weights={(0, grid.zero_offset_index): 1.0})
    assert _certify_exit_code(tmp_path, table, bad) == 1


def test_cli_certify_flags_measure_off_the_boundary(tmp_path):
    # the empty measure has zero cost and a trivial certificate, but its
    # boundary misses the current by a full unit charge
    grid = build_torus_grid(1, 10, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    current = BoundaryCurrent(grid=grid, charges={6: 1.0, 1: -1.0})
    empty = DiscreteMeasure(grid=grid, weights={})
    assert _certify_exit_code(tmp_path, table, empty, current) == 1
    diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
    assert diag["boundary_residual_max"] == 1.0


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cli_certify_tolerance_not_finite_and_nonnegative_is_a_usage_error(tmp_path, capsys, tol):
    # with --tol inf the empty measure, a full unit charge off the boundary,
    # once passed as optimal (exit 0); with nan every criterion failed (exit 1)
    grid = build_torus_grid(1, 10, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    current = BoundaryCurrent(grid=grid, charges={6: 1.0, 1: -1.0})
    empty = DiscreteMeasure(grid=grid, weights={})
    assert _certify_exit_code(tmp_path, table, empty, current, ["--tol", tol]) == 2
    message = f"error: --tol must be finite and nonnegative, got {float(tol)!r}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_certify_flags_closed_measure_of_wrong_mass(tmp_path):
    # a free rest loop is optimal in shape, but a closed measure has mass one
    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    heavy = DiscreteMeasure(grid=grid, weights={(0, grid.zero_offset_index): 5.0})
    assert _certify_exit_code(tmp_path, table, heavy) == 1
    light = DiscreteMeasure(grid=grid, weights={(0, grid.zero_offset_index): 1.0})
    (tmp_path / "unit").mkdir()
    assert _certify_exit_code(tmp_path / "unit", table, light) == 0


def test_cli_certify_unreadable_solution_is_a_usage_error(tmp_path, capsys):
    # a zero-byte or malformed --solution is bad input (exit 2), not a failed
    # check (exit 1)
    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    assert _certify_exit_code(tmp_path, table, "") == 2
    assert "s.csv is empty" in capsys.readouterr().err
    assert _certify_exit_code(tmp_path, table, "x,k,w\n1.7,0,1.0\n") == 2
    assert "s.csv line 2: '1.7' is not an integer" in capsys.readouterr().err


def test_cli_certify_out_of_range_node_is_a_usage_error(tmp_path, capsys):
    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    assert _certify_exit_code(tmp_path, table, "x,k,w\n17,0,1.0\n") == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 's.csv'} line 2: coordinate 17 is outside [0, 16)" in err
    (tmp_path / "c.csv").write_text("x,charge\n-1,1.0\n0,-1.0\n")
    argv = ["certify", "--grid", str(tmp_path / "g.json"), "--lagrangian", str(tmp_path / "l.csv")]
    argv += ["--current", str(tmp_path / "c.csv"), "--solution", str(tmp_path / "s.csv")]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'c.csv'} line 2: coordinate -1 is outside [0, 16)" in err


def _same_bytes(tmp_path, write, loop_write, *args):
    write(tmp_path / "column.csv", *args)
    loop_write(tmp_path / "loop.csv", *args)
    assert (tmp_path / "column.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


EXTREMES = [-0.0, 1e-300, 1e300, -1e300, 5e-324]


@pytest.mark.parametrize("d,n,k", [(1, 5, 1), (1, 6, 2), (2, 3, 1), (2, 4, 2)])
def test_measure_writers_match_loop_references(tmp_path, d, n, k):
    # the column writers against the row loops they replaced, byte for byte
    rng = np.random.default_rng([d, n, k])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    shape = (grid.num_nodes, grid.num_offsets)
    table = LagrangianTable(grid=grid, values=rng.uniform(-1, 1, shape))
    result = run_measure(table)
    values = table.values.copy()
    values.flat[rng.choice(values.size, len(EXTREMES), replace=False)] = EXTREMES
    extreme = LagrangianTable(grid=grid, values=values)
    edges = rng.choice(grid.num_edges, 6, replace=False).tolist()
    weights = [1e-300, 1e300, 5e-324, 0.1, 2.0, 1 / 3]
    sparse = DiscreteMeasure(
        grid=grid, weights={divmod(e, grid.num_offsets): w for e, w in zip(edges, weights)}
    )
    a, b, c, e = rng.choice(grid.num_nodes, 4, replace=False).tolist()
    current = BoundaryCurrent(grid=grid, charges={a: 1e300, b: -1e300, c: 1e-300, e: -1e-300})
    # a synthetic node table: the columns, and the per-node rows holding the
    # same values; 1-D momenta are floats, 2-D ones are "|"-joined, and both
    # momentum and spread are empty off the support
    on = np.arange(grid.num_nodes) % 2 == 0
    f = np.resize(EXTREMES, grid.num_nodes)
    spread = np.where(on, np.roll(f, -1), np.nan)
    h_resid = -np.roll(f, -2)
    momentum = np.full((grid.num_nodes, d), np.nan)
    momentum[on] = [1e-300] if d == 1 else [-0.0, 1e300]
    synthetic = SimpleNamespace(
        f=f, momentum=momentum, momentum_spread=spread, H_residual=h_resid, on_support=on
    )
    synthetic_rows = [
        {
            "node": x,
            "f": f[x],
            "momentum": (mom[0] if d == 1 else mom) if on[x] else None,
            "momentum_spread": spread[x] if on[x] else None,
            "H_residual": h_resid[x],
            "on_support": on[x],
        }
        for x, mom in enumerate(momentum.tolist())
    ]
    rows = oracles.loop_node_table(table, result.solution, result.certificate, result.envelope)
    cases = [
        ("lagrangian", table), ("lagrangian", extreme),
        ("measure", result.solution.measure), ("measure", sparse),
        ("measure", DiscreteMeasure(grid=grid, weights={})),
        ("current", current),
        ("slack", result.certificate),
        ("slack", dataclasses.replace(result.certificate, slack=values)),
        ("envelope", table, result.envelope),
        ("envelope", extreme, fiber_convex_envelope(extreme)),
    ]
    for i, (kind, *args) in enumerate(cases):
        dest = tmp_path / str(i)
        dest.mkdir()
        writer = getattr(serialize, f"write_{kind}_csv")
        _same_bytes(dest, writer, getattr(oracles, f"loop_write_{kind}_csv"), *args)
    for report, loop_rows in ((result.report, rows), (synthetic, synthetic_rows)):
        serialize.write_node_table_csv(tmp_path / "columns.csv", grid, report)
        oracles.loop_write_node_table_csv(tmp_path / "loop.csv", grid, loop_rows)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("d,n,k", [(1, 12, 1), (1, 9, 2), (2, 6, 1), (2, 5, 2)])
def test_measure_result_of_a_reversible_table_matches_loop_references(tmp_path, d, n, k):
    # L(x, v) = L(x, -v), as for 1/2 |v|^2 + U(x): a node's edges repeat their
    # values, and U's signed zeros are the rest-edge values, so the slack
    # holds -0.0 and 0.0 in one block
    rng = np.random.default_rng([d, n, k, 23])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    kinetic = 0.5 * (grid.offsets**2).sum(axis=1) * rng.uniform(0.5, 2.0)
    kinetic[grid.zero_offset_index] = -0.0  # U + -0.0 is U, its sign included
    potential = rng.choice([0.0, -0.0, 0.25, 1.0], grid.num_nodes)
    potential[:2] = [0.0, -0.0]
    table = LagrangianTable(grid=grid, values=potential[:, None] + kinetic[None, :])
    reverse = [grid.offset_index(-m) for m in grid.offsets]
    assert np.array_equal(table.values, table.values[:, reverse])
    result = run_measure(table)
    rest = result.certificate.slack[:, grid.zero_offset_index]
    assert len(set(np.signbit(rest[rest == 0]).tolist())) == 2
    serialize.write_measure_result(tmp_path, result)
    cert, env = result.certificate, result.envelope
    oracles.loop_write_slack_csv(tmp_path / "loop_slack.csv", cert)
    oracles.loop_write_envelope_csv(tmp_path / "loop_envelope.csv", table, env)
    rows = oracles.loop_node_table(table, result.solution, cert, env)
    oracles.loop_write_node_table_csv(tmp_path / "loop_node_table.csv", grid, rows)
    for name in ("slack", "envelope", "node_table"):
        loop = (tmp_path / f"loop_{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == loop, name


@pytest.mark.parametrize("d,n,k", [(1, 5, 1), (1, 6, 2), (2, 3, 1), (2, 4, 2)])
def test_envelope_csv_rebuilds_every_envelope_array(tmp_path, d, n, k):
    # the file holds L_tilde and the endpoint flag; the slopes it dropped are
    # rebuilt from L_tilde by the loop reference, bit for bit those that
    # momentum_field reads
    rng = np.random.default_rng([d, n, k, 7])
    grid = build_torus_grid(d, n, k, 1.0 / n)
    values = rng.uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    extreme = values.copy()
    extreme.flat[rng.choice(values.size, len(EXTREMES), replace=False)] = EXTREMES
    for i, vals in enumerate((values, extreme)):
        table = LagrangianTable(grid=grid, values=vals)
        env = fiber_convex_envelope(table)
        path = tmp_path / f"envelope{i}.csv"
        serialize.write_envelope_csv(path, table, env)
        back, grad, endpoint = oracles.read_envelope_csv(grid, path)
        assert back.tobytes() == env.values.tobytes()  # -0.0 stays -0.0
        assert np.array_equal(grad.reshape(-1, d), _edge_slopes(env, np.arange(grid.num_edges)))
        assert np.array_equal(endpoint, np.broadcast_to(grid.stencil_end, endpoint.shape))


def test_envelope_csv_rejects_an_envelope_of_another_grid(tmp_path):
    # same shape, other time step: the flag and coordinates would come from
    # the table's grid and the values from the envelope's
    grid, other = build_torus_grid(1, 5, 1, 0.2), build_torus_grid(1, 5, 1, 0.25)
    values = np.random.default_rng(3).uniform(-1, 1, (grid.num_nodes, grid.num_offsets))
    env = fiber_convex_envelope(LagrangianTable(grid=other, values=values))
    path = tmp_path / "envelope.csv"
    with pytest.raises(ValueError, match=r"envelope on PhaseGrid\(.*time_step=0.25\).*table on PhaseGrid\(.*time_step=0.2\)"):
        serialize.write_envelope_csv(path, LagrangianTable(grid=grid, values=values), env)
    assert not path.exists()


@pytest.mark.parametrize("state_dim", [1, 2])
def test_value_function_writer_matches_loop_reference(tmp_path, state_dim):
    rng = np.random.default_rng(state_dim)
    dx, dt = 0.25, 0.25
    if state_dim == 1:
        controls = (-1.0, 0, 1)
    else:
        controls = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
    weights = rng.uniform(0.5, 2.0, len(controls))
    p = make_control_problem(
        state_dim=state_dim,
        nodes_per_axis=4,
        origin=[-0.5] * state_dim,
        spacing=dx,
        controls=controls,
        dynamics=lambda x, a: np.asarray(a, dtype=float) * dx / dt,
        running_cost=lambda x, t, a: float(np.sum(np.square(x))) + weights[controls.index(a)] * t,
        horizon=3 * dt,
        time_step=dt,
    )
    vf = solve_value_function(p)
    assert (vf.argmin_control[:, 0] == -1).all()  # the final layer: nothing remains
    write = serialize.write_value_function_csv
    _same_bytes(tmp_path, write, oracles.loop_write_value_function_csv, vf)


def _csv_module_rows(columns):
    """The rows of ``_write_csv`` columns as Python values, each lookup
    ``(table, index)`` spread into one value per table column."""
    fields = []
    for col in columns:
        if isinstance(col, tuple):
            table, index = (np.asarray(a) for a in col)
            picked = table[np.asarray(index).ravel()]
            fields += list(picked.T) if table.ndim == 2 else [picked]
        else:
            fields.append(np.asarray(col).ravel())
    return [list(row) for row in zip(*(f.tolist() for f in fields))]


def _same_bytes_as_csv_module(tmp_path, header, columns):
    serialize._write_csv(tmp_path / "column.csv", header, columns)
    oracles._loop_write_csv(tmp_path / "loop.csv", header, _csv_module_rows(columns))
    assert (tmp_path / "column.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


def test_write_csv_quotes_as_csv_module(tmp_path):
    # every field kind the column writer formats itself, against csv.writer
    text = np.array(
        ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", None, "plain", '",\r\n', 2.5, 7],
        dtype=object,
    )
    floats = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300, 0.1, 1 / 3, 2.0])
    ints = np.arange(-5, 5)
    flags = ints % 3 == 0
    points = np.array([[0, 1], [-2, 3], [4, 5]])
    names = np.array(["", repr((-1, 0)), repr(1.5)], dtype=object)
    lookups = [(points, ints % 3), (names, ints % 3), (floats[::-1].copy(), ints + 5)]
    header = ["text", "x,y", 'q"', "int", "flag", "p_i", "p_j", "name", "f"]
    _same_bytes_as_csv_module(tmp_path, header, [text, floats, floats, ints, flags] + lookups)
    # zero rows: the header alone
    empty = [np.array([], dtype=object), np.array([]), np.array([], dtype=int)]
    _same_bytes_as_csv_module(tmp_path, ["text", "float", "int"], empty)
    _same_bytes_as_csv_module(tmp_path, ["text", "float", "int"], [(points, ints[:0])] + empty[1:])
    # one column: csv.writer quotes a row that is one empty field
    _same_bytes_as_csv_module(tmp_path, ["text"], [text])
    _same_bytes_as_csv_module(tmp_path, [""], [(names, ints % 3)])
    with pytest.raises(ValueError, match="unequal lengths"):
        serialize._write_csv(tmp_path / "bad.csv", ["a", "b"], [ints, ints[1:]])


B = serialize._BLOCK_ROWS


@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 7])
def test_write_csv_block_boundaries_match_csv_module(tmp_path, rows):
    rng = np.random.default_rng(rows)
    points = rng.integers(-50, 50, (97, 2))
    names = np.array([None, "", "a,b", repr((1, -1))], dtype=object)
    columns = [
        (points, rng.integers(0, 97, rows)),
        rng.uniform(-1, 1, rows) * 10.0 ** rng.integers(-300, 300, rows),
        (names, np.arange(rows) % 4),
        rng.integers(0, 2, rows).astype(bool),
    ]
    _same_bytes_as_csv_module(tmp_path, ["p_i", "p_j", "v", "name", "flag"], columns)
    _same_bytes_as_csv_module(tmp_path, ["name"], [(names, np.arange(rows) % 4)])


def _repeated_columns(rows):
    """Columns of ``rows`` entries whose values repeat: signed zeros in both
    orders with NaNs, infinities and a subnormal, a float32 column, an
    all-equal column, and two-valued bool and int columns."""
    pattern = [-0.0, 0.0, np.nan, 0.25, 0.0, NANS[0], -0.0, np.inf, NANS[1], -np.inf, 5e-324]
    floats = np.resize(pattern, rows)
    return [
        floats,
        np.resize([0.1, -0.0, 0.1, 0.0, 1e30], rows).astype(np.float32),
        np.full(rows, -1.5),
        np.arange(rows) % 3 == 0,
        np.resize([0, 1, 1], rows),
        (np.array([[0, 1], [-2, 3]]), np.arange(rows) % 2),
        floats[::-1].copy(),
    ]


REPEATED_HEADER = ["f", "f32", "same", "flag", "int", "p_i", "p_j", "f_reversed"]


@pytest.mark.parametrize("rows", [2, 11, B - 1, B, B + 1])
def test_write_csv_formats_each_bit_pattern_as_csv_module(tmp_path, rows):
    # each distinct value of a block is formatted once, a float keyed on its
    # bits; with B - 1, B and B + 1 rows the repeats straddle a block boundary
    _same_bytes_as_csv_module(tmp_path, REPEATED_HEADER, _repeated_columns(rows))
    _same_bytes_as_csv_module(tmp_path, REPEATED_HEADER, _repeated_columns(0))


def test_write_csv_rejects_a_long_double_column_and_writes_half_and_single(tmp_path):
    with pytest.raises(TypeError, match=LONG_DOUBLE_ERROR):
        serialize._write_csv(tmp_path / "x.csv", ["f"], [np.array([1.0, 2.0], dtype=np.longdouble)])
    for dtype in (np.float16, np.float32):
        column = np.resize([0.1, -0.0, 0.1, np.nan, 1e4], 11).astype(dtype)
        _same_bytes_as_csv_module(tmp_path, ["f"], [column])


def test_write_csv_keeps_signed_zeros_apart_within_and_across_blocks(tmp_path):
    # the first block holds -0.0 and 0.0 in both orders, the second 0.0 alone
    zeros = np.zeros(B + 3)
    zeros[[1, 4, 5]] = -0.0
    _same_bytes_as_csv_module(tmp_path, ["z"], [zeros])
    fields = (tmp_path / "column.csv").read_bytes().decode().split("\r\n")[1:-1]
    assert fields[:7] == ["0.0", "-0.0", "0.0", "0.0", "-0.0", "-0.0", "0.0"]
    assert set(fields[B:]) == {"0.0"}


def _kernel_texts(values, fallback=repr):
    """The kernel's fields for float64 ``values``, as str."""
    return serialize._texts(serialize._float_fields(np.asarray(values, dtype=np.float64), fallback))


def _assert_kernel_writes_repr(values):
    values = np.asarray(values, dtype=np.float64)
    texts, expected = _kernel_texts(values), list(map(repr, values.tolist()))
    if texts != expected:
        i = next(i for i, (a, b) in enumerate(zip(texts, expected)) if a != b)
        pytest.fail(f"bits {values[i:i + 1].view(np.uint64)[0]:#018x}: {texts[i]!r}, repr {expected[i]!r}")


def test_float_kernel_matches_repr_on_random_bits_and_every_decade():
    # 2**20 random float64 bit patterns, in blocks, seven in eight of them
    # with an exponent in the kernel's own range (about 7.3e-12 to 7.2e16),
    # then every decade from 1e-12 to 1e17
    rng = np.random.default_rng(2018)
    for _ in range(8):
        bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64)
        inside = rng.random(len(bits)) < 7 / 8
        exponent = rng.integers(1075 - 89, 1075 + 4, len(bits), dtype=np.uint64)
        bits[inside] = bits[inside] & ~np.uint64(0x7FF << 52) | exponent[inside] << np.uint64(52)
        _assert_kernel_writes_repr(bits.view(np.float64))
    decades = np.arange(-12, 18)
    values = rng.uniform(1, 10, (len(decades), 4096)) * 10.0 ** decades[:, None]
    values[:, ::2] *= -1
    _assert_kernel_writes_repr(values.ravel())
    inside = values[(decades >= -11) & (decades <= 15)].ravel()
    fallbacks = []
    _kernel_texts(inside, lambda x: fallbacks.append(x) or repr(x))
    assert len(fallbacks) < 0.02 * len(inside)  # the kernel wrote the others


def _powers_of_two():
    return np.ldexp(1.0, np.arange(-1074, 1024))


def _ties(rng):
    """Values in [2**49, 2**50), x = m / 8 with m = 2 mod 4: there the kernel
    rounds x * 10 to an integer, and x * 10 lies exactly halfway between two."""
    m = 2**52 + 4 * rng.integers(0, 2**50, 64, dtype=np.int64) + 2
    return np.ldexp(m.astype(np.float64), -3)


NAMED_EDGES = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, -5e-324, 2.225073858507201e-308],
    "largest": [np.finfo(np.float64).max, -np.finfo(np.float64).max, 2.2250738585072014e-308],
    "powers_of_two": _powers_of_two(),
    "two_to_53": [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 - 1), 2.0**53 - 2],
    "positional_switch": [
        v for x in (1e-4, 1e-5, 1e15, 1e16)
        for v in (np.nextafter(x, 0), x, np.nextafter(x, np.inf))
    ] + [9999999999999998.0, 0.00010000000000000002, 123456789012345.67],
    "ties": _ties(np.random.default_rng(5)),
    "non_finite": [np.inf, -np.inf, np.nan, *NANS],
}


@pytest.mark.parametrize("name", NAMED_EDGES)
def test_float_kernel_writes_each_named_edge_as_repr(name):
    values = np.asarray(NAMED_EDGES[name], dtype=np.float64)
    _assert_kernel_writes_repr(values)
    if name in ("zeros", "powers_of_two", "ties", "non_finite"):
        fallbacks = []
        _kernel_texts(values, lambda x: fallbacks.append(x) or repr(x))
        assert len(fallbacks) == len(values)  # none of these is the kernel's
    # JSON writes null for a value that is not finite
    finite = lambda x: repr(x) if np.isfinite(x) else "null"
    assert _kernel_texts(values, finite) == list(map(finite, values.tolist()))


def test_float_writers_match_modules_on_half_single_and_non_finite(tmp_path):
    # every float16 bit pattern and 65536 random float32 ones, widened to
    # float64, in a CSV column and a JSON array; NaN payloads are written as
    # nan in CSV and null in JSON
    rng = np.random.default_rng(16)
    half = np.arange(2**16, dtype=np.uint16).view(np.float16)
    single = rng.integers(0, 2**32, 2**16, dtype=np.uint64).astype(np.uint32).view(np.float32)
    wide = np.concatenate([rng.uniform(-1, 1, 1000), NANS, [np.inf, -np.inf, np.nan]])
    for column in (half, single, wide):
        assert len(np.unique(column.view(f"u{column.itemsize}"))) >= serialize._KERNEL_MIN
        _same_bytes_as_csv_module(tmp_path, ["f"], [column])
        payload = {"a": column.reshape(-1, 4) if len(column) % 4 == 0 else column}
        serialize.write_json(tmp_path / "emit.json", payload)
        oracles.loop_write_json(tmp_path / "loop.json", payload)
        assert (tmp_path / "emit.json").read_bytes() == (tmp_path / "loop.json").read_bytes()


def test_write_csv_keeps_nul_and_writes_utf8(tmp_path):
    # fields are padded with 0xFF and the padding deleted: a NUL in a control
    # name stays, and text is written as UTF-8
    names = np.array(["a\x00b", "\u00e9t\u00e9", "", None], dtype=object)
    serialize._write_csv(tmp_path / "x.csv", ["name", "v"], [(names, np.arange(4)), np.arange(4.0)])
    expected = "name,v\r\na\x00b,0.0\r\n\u00e9t\u00e9,1.0\r\n,2.0\r\n,3.0\r\n".encode("utf-8")
    assert (tmp_path / "x.csv").read_bytes() == expected


def test_edge_writers_memory_stays_within_the_block_budget(tmp_path):
    # the peak a slack and an envelope CSV take above their inputs, 2-D k=1:
    # within the block budget, and at n=128 no higher than at n=64 but for
    # the third digit of a node coordinate, one byte per row and coordinate
    # in each of the block's copies of its text
    peaks = []
    for n in (64, 128):
        grid = build_torus_grid(2, n, 1, 1.0 / n)
        rng = np.random.default_rng(n)
        table = LagrangianTable(grid=grid, values=rng.uniform(-1, 1, (grid.num_nodes, grid.num_offsets)))
        env = fiber_convex_envelope(table)
        cert = SimpleNamespace(grid=grid, slack=rng.uniform(0, 1, table.values.shape))
        serialize.write_slack_csv(tmp_path / "slack.csv", cert)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            serialize.write_slack_csv(tmp_path / "slack.csv", cert)
            serialize.write_envelope_csv(tmp_path / "envelope.csv", table, env)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= serialize._BLOCK_BYTES
    assert peaks[1] <= peaks[0] + serialize._BLOCK_COPIES * serialize._BLOCK_ROWS * grid.dim


# (d, n, k) grids whose edge tables fill exactly one block, one block and one
# node's edges, and several blocks with a partial last one; node coordinates
# reach four digits in the first two and three in the last
BLOCK_GRIDS = [(1, B // 3, 1), (1, B // 3 + 1, 1), (2, 64, 1), (2, 128, 1)]


@pytest.mark.parametrize("d,n,k", BLOCK_GRIDS)
def test_edge_writers_match_loop_references_across_blocks(tmp_path, d, n, k):
    grid = build_torus_grid(d, n, k, 1.0 / n)
    E, M = grid.num_edges, grid.num_offsets
    assert E == B or B < E <= B + M or (E > 2 * B and E % B)
    rng = np.random.default_rng([d, n, k])
    values = rng.uniform(-1, 1, (grid.num_nodes, M))
    values.flat[rng.choice(E, len(EXTREMES), replace=False)] = EXTREMES
    table = LagrangianTable(grid=grid, values=values)
    cases = [
        ("lagrangian", table),
        ("slack", SimpleNamespace(grid=grid, slack=values[::-1].copy())),
        ("envelope", table, fiber_convex_envelope(table)),
    ]
    for kind, *args in cases:
        write = getattr(serialize, f"write_{kind}_csv")
        _same_bytes(tmp_path, write, getattr(oracles, f"loop_write_{kind}_csv"), *args)


def test_sparse_writers_match_loop_references_across_blocks(tmp_path):
    # B + 1 rows: a measure's atoms, a current's charges and a 1-D node table
    grid = build_torus_grid(1, B + 1, 1, 1.0 / (B + 1))
    rng = np.random.default_rng(11)
    edges = rng.choice(grid.num_edges, B + 1, replace=False).tolist()
    weights = rng.uniform(0, 1, B + 1) * 10.0 ** rng.integers(-300, 300, B + 1)
    mu = DiscreteMeasure(
        grid=grid, weights={divmod(e, grid.num_offsets): w for e, w in zip(edges, weights)}
    )
    _same_bytes(tmp_path, serialize.write_measure_csv, oracles.loop_write_measure_csv, mu)
    current = BoundaryCurrent(grid=grid, charges=dict(enumerate(weights - weights.mean())))
    _same_bytes(tmp_path, serialize.write_current_csv, oracles.loop_write_current_csv, current)
    on = rng.integers(0, 2, grid.num_nodes).astype(bool)
    f, spread, h_resid = rng.normal(size=(3, grid.num_nodes))
    momentum = np.where(on, rng.normal(size=grid.num_nodes), np.nan)[:, None]
    report = SimpleNamespace(
        f=f, momentum=momentum, momentum_spread=spread, H_residual=h_resid, on_support=on
    )
    rows = [
        {
            "node": x,
            "f": f[x],
            "momentum": mom if on[x] else None,
            "momentum_spread": spread[x] if on[x] else None,
            "H_residual": h_resid[x],
            "on_support": on[x],
        }
        for x, mom in enumerate(momentum[:, 0].tolist())
    ]
    serialize.write_node_table_csv(tmp_path / "columns.csv", grid, report)
    oracles.loop_write_node_table_csv(tmp_path / "loop.csv", grid, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("d,n", [(1, 600), (2, 24)])
def test_node_table_of_a_wide_boundary_support_matches_loop_reference(tmp_path, d, n):
    # every node charged: the support covers most nodes, and their hundreds of
    # distinct momenta go through the float kernel; then scattered on-support
    # momenta and spreads set to values the kernel leaves to repr
    rng = np.random.default_rng([d, n, 33])
    grid = build_torus_grid(d, n, 1, 1.0 / n)
    table = LagrangianTable(grid=grid, values=rng.uniform(0, 1, (grid.num_nodes, grid.num_offsets)))
    nodes = rng.permutation(grid.num_nodes).tolist()
    current = BoundaryCurrent(grid=grid, charges={x: (-1.0) ** i for i, x in enumerate(nodes)})
    result = run_measure(table, current)
    report, on = result.report, result.report.on_support
    assert on.mean() > 0.5 and len(np.unique(report.momentum[on])) >= serialize._KERNEL_MIN
    rows = oracles.loop_node_table(table, result.solution, result.certificate, result.envelope)
    serialize.write_node_table_csv(tmp_path / "columns.csv", grid, report)
    oracles.loop_write_node_table_csv(tmp_path / "loop.csv", grid, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    fallback = [-0.0, 0.0, 5e-324, 1e-300, 1e300, 0.1]
    momentum, spread = report.momentum.copy(), rng.uniform(0, 1, grid.num_nodes)
    supported = np.flatnonzero(on)
    momentum[supported[::3]] = np.resize(fallback, momentum[supported[::3]].shape)
    spread[supported[::2]] = np.resize(fallback, len(supported[::2]))
    for x, mom, gap in zip(supported.tolist(), momentum[on].tolist(), spread[on].tolist()):
        rows[x].update(momentum=mom[0] if d == 1 else mom, momentum_spread=gap)
    extreme = dataclasses.replace(report, momentum=momentum, momentum_spread=spread)
    serialize.write_node_table_csv(tmp_path / "columns.csv", grid, extreme)
    oracles.loop_write_node_table_csv(tmp_path / "loop.csv", grid, rows)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


@pytest.mark.parametrize("extra_layers", [0, 1])
def test_value_function_writer_matches_loop_reference_across_blocks(tmp_path, extra_layers):
    # 2-D states with the nine tuple controls: 400 states and B / 400 layers
    # fill exactly one block; one more layer spills 400 rows into the next
    n, dx = 20, 0.05
    layers = B // n**2 + extra_layers
    assert n**2 * (layers - extra_layers) == B
    controls = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
    p = make_control_problem(
        state_dim=2,
        nodes_per_axis=n,
        origin=[-0.5, -0.5],
        spacing=dx,
        controls=controls,
        dynamics=lambda x, a: np.asarray(a, dtype=float),
        running_cost=lambda x, t, a: float(x @ x) + 0.5 * (a[0] ** 2 + a[1] ** 2) + t,
        horizon=(layers - 1) * dx,
        time_step=dx,
    )
    vf = solve_value_function(p)
    assert vf.v.size == n**2 * layers
    write = serialize.write_value_function_csv
    _same_bytes(tmp_path, write, oracles.loop_write_value_function_csv, vf)


# The column reader against the row-loop readers of tests/oracles.py, on
# files written in every accepted syntax.

_INT_FORMS = [str, "{}.0".format, "{}e0".format, " {} ".format]
_FLOAT_FORMS = [repr, "{:.17g}".format, "{:.25e}".format, "{:.3f}".format, "{:.6g}".format]
_EXTRA_FIELDS = ["abc", '"x,y"', "", "7"]
_SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 1e-310, 1e308, -2.5, 0.1]


def _write_messy_csv(path, header, rows, rng, num_ints, newline="\n"):
    """``rows`` as text in the accepted syntaxes: the first ``num_ints``
    fields as 3, 3.0, 3e0 or padded, floats in several precisions, some fields
    quoted, some rows with extra trailing fields, some blank lines."""
    lines = [",".join(header)]
    for row in rows:
        fields = []
        for c, v in enumerate(row):
            forms = _INT_FORMS if c < num_ints else _FLOAT_FORMS
            field = forms[rng.integers(len(forms))](int(v) if c < num_ints else float(v))
            fields.append(f'"{field}"' if rng.random() < 0.2 else field)
        if rng.random() < 0.2:
            fields.append(_EXTRA_FIELDS[rng.integers(len(_EXTRA_FIELDS))])
        lines.append(",".join(fields))
        if rng.random() < 0.1:
            lines.append("")
    path.write_text(newline.join(lines) + newline)


def _with_duplicates(rows, rng, count, key_width):
    """``rows`` shuffled, with ``count`` of them repeated earlier in the file
    with another value: the later row wins, in the place of the earlier one."""
    rows = [list(rows[i]) for i in rng.permutation(len(rows))]
    chosen = rng.choice(len(rows), size=min(count, len(rows)), replace=False)
    for i in sorted(chosen.tolist(), reverse=True):
        dup = rows[i][:key_width] + [float(rng.uniform(0.0, 5.0))] * (len(rows[i]) - key_width)
        rows.insert(int(rng.integers(i + 1)), dup)
    return rows


def _edge_rows(grid, ids, values):
    """Rows (node..., offset..., value) of edge ids."""
    M, n = grid.num_offsets, grid.nodes_per_dim
    rows = []
    for e, v in zip(ids, values):
        node, m = divmod(int(e), M)
        coords = [node] if grid.dim == 1 else [node // n, node % n]
        rows.append(coords + [int(k) for k in grid.offsets[m]] + [float(v)])
    return rows


def _floats(rng, size):
    values = rng.normal(scale=10.0, size=size)
    values[: len(_SPECIAL_VALUES)] = _SPECIAL_VALUES[:size]
    return rng.permutation(values)


def _hex_items(mapping):
    return [(k, float(v).hex()) for k, v in mapping.items()]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_and_node_readers_match_loop_references(tmp_path, d, k):
    rng = np.random.default_rng(10 * d + k)
    n = 7 if d == 1 else 4
    grid = build_torus_grid(d, n, k, 1.0 / n)
    newline = "\r\n" if k == 2 else "\n"
    path = tmp_path / "in.csv"
    header = ["h"] * (2 * d + 1)

    rows = _edge_rows(grid, range(grid.num_edges), _floats(rng, grid.num_edges))
    _write_messy_csv(path, header, _with_duplicates(rows, rng, 9, 2 * d), rng, 2 * d, newline)
    table = serialize.read_lagrangian_csv(grid, path)
    assert table.values.tobytes() == oracles.loop_read_lagrangian_csv(grid, path).tobytes()

    ids = rng.choice(grid.num_edges, size=min(12, grid.num_edges), replace=False)
    rows = _edge_rows(grid, ids, np.abs(_floats(rng, len(ids))))
    _write_messy_csv(path, header, _with_duplicates(rows, rng, 4, 2 * d), rng, 2 * d, newline)
    mu = serialize.read_measure_csv(grid, path)
    loop_mu = DiscreteMeasure(grid=grid, weights=oracles.loop_read_measure_csv(grid, path))
    assert _hex_items(mu.weights) == _hex_items(loop_mu.weights)

    nodes = rng.choice(grid.num_nodes, size=6, replace=False)
    charges = rng.integers(-8, 9, size=6) / 4.0  # every written form stays balanced
    charges[-1] = -charges[:-1].sum()
    rows = [r[:d] + [r[-1]] for r in _edge_rows(grid, nodes * grid.num_offsets, charges)]
    _write_messy_csv(path, header[: d + 1], _with_duplicates(rows, rng, 3, d), rng, d, newline)
    current = serialize.read_current_csv(grid, path)
    loop_current = BoundaryCurrent(grid=grid, charges=oracles.loop_read_current_csv(grid, path))
    assert _hex_items(current.charges) == _hex_items(loop_current.charges)
    init = serialize.read_initial_csv(grid.num_nodes, d, n, path)
    loop_init = oracles.loop_read_initial_csv(grid.num_nodes, d, n, path)
    assert init.tobytes() == loop_init.tobytes()


@pytest.mark.parametrize("state_dim", [1, 2])
def test_control_bundle_reader_matches_loop_reference(tmp_path, state_dim):
    rng = np.random.default_rng(40 + state_dim)
    n, controls, T = 4, [-1, 0, 1], 3
    desc = {"state_dim": state_dim, "n": n, "origin": [0.0] * state_dim, "spacing": 0.25}
    desc.update(controls=controls, t0=0.75, dt=0.25, dynamics_csv="d.csv", costs_csv="c.csv")
    serialize.write_json(tmp_path / "p.json", desc)
    states = list(itertools.product(range(n), repeat=state_dim))
    # control 1 rests everywhere, so every state keeps an admissible control;
    # the others step by -1, 0 or +1 per axis and may leave the box
    dynamics = [
        list(x) + [a] + ([0] * state_dim if a == 1 else list(rng.integers(-1, 2, size=state_dim)))
        for x in states
        for a in range(len(controls))
    ]
    inside = [r for r in dynamics if all(0 <= c + s < n for c, s in zip(r[:state_dim], r[-state_dim:]))]
    for r in [inside[i] for i in rng.choice(len(inside), size=4, replace=False)]:
        dup = r[: state_dim + 1] + list(rng.integers(-1, 2, size=state_dim))
        if all(0 <= c + s < n for c, s in zip(dup[:state_dim], dup[-state_dim:])):
            dynamics.insert(int(rng.integers(len(dynamics) + 1)), dup)
    dynamics = [dynamics[i] for i in rng.permutation(len(dynamics))]
    costs = [list(x) + [j, a, float(rng.normal())] for x in states for j in range(T) for a in range(3)]
    width = 2 * state_dim + 1
    _write_messy_csv(tmp_path / "d.csv", ["h"] * width, dynamics, rng, width)
    costs = _with_duplicates(costs, rng, 5, state_dim + 2)
    _write_messy_csv(tmp_path / "c.csv", ["h"] * (state_dim + 3), costs, rng, state_dim + 2)

    problem = serialize.read_control_problem(tmp_path / "p.json")
    move, steps, ell = oracles.loop_read_control_tables(tmp_path / "p.json", state_dim, n, T, 3)
    assert np.array_equal(problem.move, move)
    assert np.array_equal(problem.steps, steps)
    assert problem.ell.tobytes() == ell.tobytes()


def test_dynamics_last_row_wins_even_when_it_leaves_the_box(tmp_path):
    # the last row of a (state, control) wins even when its step leaves the
    # box, which makes the control inadmissible there; the row-loop reference
    # skips such a row and keeps the earlier one
    bundle = {"state_dim": 1, "n": 3, "origin": [0.0], "spacing": 0.5, "controls": [-1, 1]}
    bundle.update(t0=0.5, dt=0.25, dynamics_csv="d.csv", costs_csv="c.csv")
    serialize.write_json(tmp_path / "p.json", bundle)
    (tmp_path / "d.csv").write_text("x,a,k\n0,0,0\n0,1,1\n1,1,1\n2,0,-1\n1,0,-1\n0,1,-1\n")
    costs = "".join(f"{s},{j},{a},1.0\n" for s in range(3) for j in range(2) for a in range(2))
    (tmp_path / "c.csv").write_text("x,j,a,ell\n" + costs)
    problem = serialize.read_control_problem(tmp_path / "p.json")
    assert problem.move.tolist() == [[0, -1], [0, 2], [1, -1]]
    loop_move = oracles.loop_read_control_tables(tmp_path / "p.json", 1, 3, 2, 2)[0]
    assert loop_move.tolist() == [[0, 1], [0, 2], [1, -1]]


def test_control_bundle_takes_a_number_as_a_one_axis_origin(tmp_path):
    bundle = {"state_dim": 1, "n": 2, "spacing": 1, "controls": [0], "t0": 1, "dt": 1.0}
    bundle.update(dynamics_csv="d.csv", costs_csv="c.csv")
    (tmp_path / "d.csv").write_text("x,a,k\n0,0,0\n1,0,0\n")
    (tmp_path / "c.csv").write_text("x,j,a,ell\n0,0,0,1\n1,0,0,1\n")
    origins = []
    for origin in (-1, [-1.0]):
        serialize.write_json(tmp_path / "p.json", {**bundle, "origin": origin})
        problem = serialize.read_control_problem(tmp_path / "p.json")
        origins.append(problem.origin)
        assert type(problem.spacing) is float and type(problem.horizon) is float
    assert origins[0].tobytes() == origins[1].tobytes() == np.array([-1.0]).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_header_only_files(tmp_path, d):
    grid = build_torus_grid(d, 4, 1, 0.25)
    path = tmp_path / "in.csv"
    path.write_text("node,offset,value\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert serialize.read_measure_csv(grid, path).weights == {}
        assert serialize.read_current_csv(grid, path).charges == {}
        assert not serialize.read_initial_csv(grid.num_nodes, d, 4, path).any()
        with pytest.raises(ValueError, match="in.csv does not cover every edge"):
            serialize.read_lagrangian_csv(grid, path)


_READERS = {
    "measure": lambda grid, path: serialize.read_measure_csv(grid, path),
    "lagrangian": lambda grid, path: serialize.read_lagrangian_csv(grid, path),
    "current": lambda grid, path: serialize.read_current_csv(grid, path),
    "initial": lambda grid, path: serialize.read_initial_csv(grid.num_nodes, grid.dim, 4, path),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_csv_readers_name_short_rows_and_non_numbers(tmp_path, reader, d):
    # a short row or a non-number is bad input that names its file and line,
    # not an IndexError (exit 1, a failed check) or a bare float() message
    grid = build_torus_grid(d, 4, 1, 0.25)
    width = d + 1 if reader in ("current", "initial") else 2 * d + 1
    path = tmp_path / "in.csv"
    good = ",".join(["0"] * width)
    path.write_text(f"h\n{good}\n\n{','.join(['1'] * (width - 1))}\n")
    with pytest.raises(ValueError) as err:
        _READERS[reader](grid, path)
    assert str(err.value) == f"{path} line 4: {width - 1} fields, expected {width}"
    path.write_text(f"h\n{good}\n{good[:-1]}abc,1\n")
    with pytest.raises(ValueError) as err:
        _READERS[reader](grid, path)
    assert str(err.value) == f"{path} line 3: could not convert string to float: 'abc'"


@pytest.mark.parametrize(
    "file, row, error",
    [
        ("d.csv", "0,1", "2 fields, expected 3"),
        ("d.csv", "0,x,1", "could not convert string to float: 'x'"),
        ("c.csv", "0,0,0", "3 fields, expected 4"),
        ("c.csv", "0,0,0,-", "could not convert string to float: '-'"),
    ],
)
def test_control_readers_name_short_rows_and_non_numbers(tmp_path, file, row, error):
    bundle = {"state_dim": 1, "n": 2, "origin": [0.0], "spacing": 1.0, "controls": [0]}
    bundle.update(t0=1.0, dt=1.0, dynamics_csv="d.csv", costs_csv="c.csv")
    serialize.write_json(tmp_path / "p.json", bundle)
    (tmp_path / "d.csv").write_text("x,a,k\n0,0,0\n1,0,0\n")
    (tmp_path / "c.csv").write_text("x,j,a,ell\n0,0,0,1\n1,0,0,1\n")
    header, good = (tmp_path / file).read_text().splitlines()[:2]
    (tmp_path / file).write_text(f"{header}\n{good}\n{row}\n")
    with pytest.raises(ValueError) as err:
        serialize.read_control_problem(tmp_path / "p.json")
    assert str(err.value) == f"{tmp_path / file} line 3: {error}"


def test_cli_short_row_is_a_usage_error(tmp_path, capsys):
    grid = build_torus_grid(1, 4, 1, 0.25)
    serialize.write_json(tmp_path / "g.json", serialize.grid_to_json(grid))
    (tmp_path / "l.csv").write_text("node,offset,value\n0,0,1.0\n1,0\n")
    argv = ["solve", "--grid", str(tmp_path / "g.json"), "--lagrangian", str(tmp_path / "l.csv")]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    assert f"{tmp_path / 'l.csv'} line 3: 2 fields, expected 3" in capsys.readouterr().err


_CORRUPTIONS = ["fractional", "outside", "stencil", "negative"]


@pytest.mark.parametrize("d", [1, 2])
def test_edge_reader_messages_match_loop_reference(tmp_path, d):
    # one to three corrupt fields, some in the same row: the first bad row and
    # the first failed check within it are those the row loop names
    rng = np.random.default_rng(70 + d)
    n, k = 5, 2
    grid = build_torus_grid(d, n, k, 1.0 / n)
    path = tmp_path / "in.csv"
    for trial in range(40):
        rows = _edge_rows(grid, range(grid.num_edges), _floats(rng, grid.num_edges))
        for _ in range(int(rng.integers(1, 4))):
            r = int(rng.integers(len(rows)))
            kind = _CORRUPTIONS[rng.integers(len(_CORRUPTIONS))]
            col = int(rng.integers(d)) + (d if kind == "stencil" else 0)
            rows[r][col] = {"fractional": 1.5, "outside": n, "stencil": k + 1, "negative": -1}[kind]
        lines = ["h"] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in r) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as new:
            serialize.read_lagrangian_csv(grid, path)
        with pytest.raises(ValueError) as loop:
            oracles.loop_read_lagrangian_csv(grid, path)
        assert str(new.value) == str(loop.value), trial
