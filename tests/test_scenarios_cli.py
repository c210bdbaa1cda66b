import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from actionlab import SCENARIOS, parse_config, refinement_sweep, run_scenario
from actionlab.cli import main
from actionlab import scenarios
from actionlab.scenarios import UnknownScenarioError


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_golden_defaults_pass(name):
    run = run_scenario(name)
    for check in run.checks:
        assert check.passed, f"{name}.{check.name}: {check.as_dict()}"


def test_unknown_scenario():
    with pytest.raises(UnknownScenarioError, match="UNKNOWN_SCENARIO"):
        run_scenario("nonesuch")


def test_scenario_rejects_unknown_param():
    with pytest.raises(ValueError, match="unknown parameter"):
        run_scenario("exact_form", {"bogus": 1})


def test_scenario_rejects_out_of_range_param():
    with pytest.raises(ValueError, match="below minimum"):
        run_scenario("exact_form", {"n": 1})


@pytest.mark.parametrize(
    "name,key,value",
    [("free_particle", "n", 7.9), ("legendre_control", "refine", 1.99), ("rotation", "k", float("inf"))],
)
def test_scenario_rejects_a_fractional_integer_param(name, key, value):
    with pytest.raises(ValueError) as info:
        run_scenario(name, {key: value})
    assert str(info.value) == f"parameter {key}={value!r} is not an integer"


def test_scenario_reads_an_integral_float_as_an_integer():
    assert run_scenario("free_particle", {"n": 8.0}).values == run_scenario(
        "free_particle", {"n": 8}
    ).values


@pytest.mark.parametrize("value", ["7.9", "nan"])
def test_cli_fractional_integer_param_is_a_usage_error(tmp_path, capsys, value):
    rc = main(["scenario", "free_particle", "--param", f"n={value}", "--outdir", str(tmp_path)])
    assert rc == 2
    assert f"parameter n={float(value)!r} is not an integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("src, dst, node", [(3, 19, 3), (5, 5, 5), (16, 0, 0)])
def test_finsler_distance_rejects_a_source_that_is_the_destination(tmp_path, capsys, src, dst, node):
    # the two charges sit on one node of the n=16 ring; a single charge map
    # once kept only one of them and reported an unbalanced current instead
    argv = ["scenario", "finsler_distance", "--param", f"src={src}", "--param", f"dst={dst}"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    message = f"parameters src={src} and dst={dst} are the same node {node} of n=16"
    assert f"error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_exact_form_sweep_constant_zero():
    report = refinement_sweep("exact_form", [8, 16, 32])
    c0s = [row["c0"] for row in report["rows"]]
    assert all(abs(c) <= 1e-9 for c in c0s)


def test_tonelli_sweep_converges():
    report = refinement_sweep("tonelli_pendulum", [16, 32, 64])
    assert all("error" not in row for row in report["rows"])
    c0s = [row["c0"] for row in report["rows"]]
    gaps = [abs(c0s[i + 1] - c0s[i]) for i in range(len(c0s) - 1)]
    assert gaps[1] <= gaps[0] + 1e-12


def test_sweep_records_per_level_errors():
    report = refinement_sweep("exact_form", [8, 1, 16])
    kinds = ["error" in row for row in report["rows"]]
    assert kinds == [False, True, False]


@pytest.mark.parametrize(
    "levels, message",
    [
        ([8.7], "parameter n=8.7 is not an integer"),
        ([8, 16.5], "parameter n=16.5 is not an integer"),
        ([float("inf")], "parameter n=inf is not an integer"),
        ([8, float("nan")], "parameter n=nan is not an integer"),
        ([], "refinement sweep of exact_form names no level"),
    ],
)
def test_sweep_rejects_a_bad_level_list_before_any_level_runs(monkeypatch, tmp_path, levels, message):
    # [8.7] once ran as n=8 and recorded "n": 8; [] once returned no rows
    def run_scenario(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(scenarios, "run_scenario", run_scenario)
    with pytest.raises(ValueError) as err:
        refinement_sweep("exact_form", levels, outdir=tmp_path)
    assert str(err.value) == message
    assert not any(tmp_path.iterdir())


def test_sweep_takes_an_integral_float_level_as_that_integer():
    report = refinement_sweep("exact_form", [8.0])
    assert [(row["n"], type(row["n"])) for row in report["rows"]] == [(8, int)]
    assert report["rows"][0]["passed"]


def test_parse_config_values_and_errors():
    cfg = parse_config('n = 32\nV = "cos"\nrate = 0.5  # comment\n\n# full comment\n')
    assert cfg == {"n": 32, "V": "cos", "rate": 0.5}
    with pytest.raises(ValueError, match="line 1"):
        parse_config("broken line")
    with pytest.raises(ValueError, match="neither a number"):
        parse_config("x = unquoted")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_artifacts_and_byte_stability(tmp_path, name):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_scenario(name, outdir=out1, label="golden")
    run_scenario(name, outdir=out2, label="golden")
    d1 = out1 / name / "golden"
    d2 = out2 / name / "golden"
    names = sorted(p.name for p in d1.iterdir())
    solved = "solution.csv" if SCENARIOS[name].kind == "measure" else "value_function.csv"
    assert "summary.json" in names and solved in names
    for fname in names:
        assert (d1 / fname).read_bytes() == (d2 / fname).read_bytes(), fname
    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["passed"] is True
    assert all(c["passed"] for c in summary["checks"])


# The bound each scenario judges its result's criteria at: the smallest of the
# fixed bounds its builder's own optimality checks once carried.
CRITERIA_TOL = {
    "exact_form": 1e-9,
    "free_particle": 1e-8,
    "tonelli_pendulum": 1e-9,
    "rotation": 1e-8,
    "double_well": 1e-9,
    "finsler_distance": 1e-9,
    "dirac_boundary": 1e-8,
    "legendre_control": 1e-9,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_checks_are_its_analytic_checks_then_its_results_criteria(name):
    run = run_scenario(name)
    own = [c for c in run.checks if c.source.startswith(("analytic", "definition"))]
    criteria = run.checks[len(own):]
    assert run.checks[: len(own)] == own
    if SCENARIOS[name].kind == "control":
        names = ["lp_dp_gap", "max_principle_on_support", "max_principle_off_support", "u_v_residual"]
    else:
        names = ["slack_min", "slack_on_support_max", "hamiltonian_residual_max", "duality_gap"]
        names += ["boundary_residual_max"] + ([] if name == "finsler_distance" else ["mass_one"])
    assert [c.name for c in criteria] == names
    assert {c.tol for c in criteria} == {CRITERIA_TOL[name]}


def _with(result, criterion, actual):
    """``result`` with the residual of ``criterion`` replaced by ``actual``."""
    if isinstance(result, scenarios.ctl.ControlResult):
        return dataclasses.replace(result, **{criterion: actual})
    return dataclasses.replace(result, report=dataclasses.replace(result.report, **{criterion: actual}))


@pytest.mark.parametrize(
    "name, pipeline, criterion, actual",
    [
        ("exact_form", "run_measure", "slack_min", -2e-9),
        ("rotation", "run_measure", "hamiltonian_residual_max", 2e-8),
        ("finsler_distance", "run_measure", "boundary_residual_max", 2e-9),
        ("legendre_control", "run_control", "u_v_residual", 2e-9),
    ],
)
def test_cli_scenario_reports_a_missed_criterion(
    tmp_path, capsys, monkeypatch, name, pipeline, criterion, actual
):
    # a scenario's criteria are its only optimality checks: a result that
    # misses one by a factor of two fails the run, in summary.json and in the
    # exit code, with its residual and its bound
    owner = scenarios if pipeline == "run_measure" else scenarios.ctl
    solve = getattr(owner, pipeline)
    monkeypatch.setattr(owner, pipeline, lambda *args: _with(solve(*args), criterion, actual))
    assert main(["scenario", name, "--outdir", str(tmp_path), "--label", "golden"]) == 1
    summary = json.loads((tmp_path / name / "golden" / "summary.json").read_text())
    assert summary["passed"] is False
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [(c["name"], c["actual"], c["tol"]) for c in failed] == [(criterion, actual, CRITERIA_TOL[name])]
    assert f"[FAIL] {name}.{criterion}: actual {actual!r}" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_at_every_sweep_level(name):
    # finsler_distance's default dst 8 wraps onto src 0 at n = 8
    levels = {"refine": [1, 2, 4]}.get(SCENARIOS[name].sweep_param, [8, 16, 32, 64])
    if name == "finsler_distance":
        levels = levels[1:]
    rows = refinement_sweep(name, levels)["rows"]
    assert [(row["n"], row.get("passed")) for row in rows] == [(n, True) for n in levels], rows


@pytest.mark.parametrize("n, src, dst", [(32, 0, 8), (64, 0, 8), (64, 5, 40)])
def test_finsler_distance_profile_is_the_ring_distance_capped_at_the_destination(n, src, dst):
    # the certificate's potential is the zero-start fixpoint, so f - f(src)
    # stops growing at d(src, dst); against the full ring distance this check
    # once read 0.25, 0.375 and 0.047
    run = run_scenario("finsler_distance", {"n": n, "src": src, "dst": dst})
    profile = {c.name: c for c in run.checks}["distance_profile"]
    assert profile.actual == 0.0 and profile.tol == 1e-9
    assert run.passed


def test_cli_scenario_exit_codes(tmp_path, capsys):
    rc = main(["scenario", "exact_form", "--outdir", str(tmp_path), "--label", "golden"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out
    assert (tmp_path / "exact_form" / "golden" / "summary.json").exists()

    rc = main(["scenario", "nonesuch"])
    assert rc == 2


def test_cli_scenario_param_and_config(tmp_path, capsys):
    cfg = tmp_path / "conf.txt"
    cfg.write_text('n = 8\nf = "saw"\n')
    rc = main(["scenario", "exact_form", "--config", str(cfg), "--param", "n = 16"])
    assert rc == 0


def test_cli_sweep(tmp_path, capsys):
    rc = main(
        ["sweep", "tonelli_pendulum", "--n", "16,32", "--outdir", str(tmp_path), "--label", "golden"]
    )
    assert rc == 0
    report = json.loads(
        (tmp_path / "tonelli_pendulum" / "golden" / "sweep.json").read_text()
    )
    assert [row["n"] for row in report["rows"]] == [16, 32]


@pytest.mark.parametrize("levels", [",", "", ",,"])
def test_cli_sweep_without_a_level_is_a_usage_error(tmp_path, capsys, levels):
    # "--n ," once ran no level and exited 0
    rc = main(["sweep", "tonelli_pendulum", "--n", levels, "--outdir", str(tmp_path)])
    assert rc == 2
    assert f"error: --n names no refinement level, got {levels!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_solve_certify_roundtrip(tmp_path):
    from actionlab import build_torus_grid, sample_lagrangian
    from actionlab import serialize

    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + np.cos(2 * np.pi * x))
    gpath = tmp_path / "grid.json"
    lpath = tmp_path / "lagrangian.csv"
    serialize.write_json(gpath, serialize.grid_to_json(grid))
    serialize.write_lagrangian_csv(lpath, table)

    outdir = tmp_path / "solved"
    rc = main(["solve", "--grid", str(gpath), "--lagrangian", str(lpath), "--outdir", str(outdir)])
    assert rc == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["status"] == "OPTIMAL"
    assert abs(summary["value"] - (-1.0)) <= 1e-9

    certdir = tmp_path / "certified"
    rc = main(
        [
            "certify",
            "--grid",
            str(gpath),
            "--lagrangian",
            str(lpath),
            "--solution",
            str(outdir / "solution.csv"),
            "--outdir",
            str(certdir),
        ]
    )
    assert rc == 0
    cert = json.loads((certdir / "certificate.json").read_text())
    assert abs(cert["c0"] - (-1.0)) <= 1e-9
    assert cert["max_negative_slack"] <= 1e-9
    diag = json.loads((certdir / "diagnostics.json").read_text())
    assert diag["duality_gap"] <= 1e-9
    assert (certdir / "node_table.csv").exists()
    assert (certdir / "envelope.csv").exists()


def test_cli_boundary_solve_with_current(tmp_path):
    from actionlab import BoundaryCurrent, build_torus_grid, sample_lagrangian
    from actionlab import serialize

    grid = build_torus_grid(1, 10, 1, 1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    current = BoundaryCurrent(grid=grid, charges={6: 1.0, 1: -1.0})
    gpath, lpath, cpath = (tmp_path / n for n in ("grid.json", "lag.csv", "cur.csv"))
    serialize.write_json(gpath, serialize.grid_to_json(grid))
    serialize.write_lagrangian_csv(lpath, table)
    serialize.write_current_csv(cpath, current)

    outdir = tmp_path / "out"
    rc = main(
        [
            "solve",
            "--grid",
            str(gpath),
            "--lagrangian",
            str(lpath),
            "--current",
            str(cpath),
            "--outdir",
            str(outdir),
        ]
    )
    assert rc == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert abs(summary["value"] - 0.5) <= 1e-9  # five unit steps of cost 1/10

    # the written solution carries no solver dual: certify starts from zero
    rc = main(
        [
            "certify",
            "--grid",
            str(gpath),
            "--lagrangian",
            str(lpath),
            "--current",
            str(cpath),
            "--solution",
            str(outdir / "solution.csv"),
            "--outdir",
            str(tmp_path / "cert"),
        ]
    )
    assert rc == 0
    certificate = json.loads((tmp_path / "cert" / "certificate.json").read_text())
    assert abs(certificate["current_pairing"] - 0.5) <= 1e-9


def _shuffled_certify_problem(closed):
    """A closed table whose optimal cycle has 16 edges, or a boundary problem
    whose flow has edges of many weights."""
    from actionlab import BoundaryCurrent, LagrangianTable, build_torus_grid

    rng = np.random.default_rng(0)
    if closed:
        grid = build_torus_grid(1, 16, 1, 1.0 / 16)
        values = rng.uniform(1.0, 2.0, (16, 3))
        values[:, 0] = rng.uniform(0, 1e-3, 16) * 10.0 ** rng.integers(-3, 3, 16)
        return LagrangianTable(grid=grid, values=values), None
    grid = build_torus_grid(2, 8, 1, 0.125)
    table = LagrangianTable(grid=grid, values=rng.uniform(0.1, 3.0, (64, 9)))
    charges = {1: -0.75, 9: -1.5, 30: -0.3, 44: 1.1, 52: 0.45, 63: 1.0}
    return table, BoundaryCurrent(grid=grid, charges=charges)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "boundary"])
def test_cli_certify_reads_a_shuffled_solution_in_file_order(tmp_path, capsys, closed):
    # the measure keeps the file's row order, and its mass and action add in
    # that order: each output equals that of the loop reader's measure
    from actionlab import DiscreteMeasure, serialize
    from actionlab.diagnostics import verify_measure
    from actionlab.measure_lp import OPTIMAL, OptimalSolution

    table, current = _shuffled_certify_problem(closed)
    grid = table.grid
    serialize.write_json(tmp_path / "grid.json", serialize.grid_to_json(grid))
    serialize.write_lagrangian_csv(tmp_path / "lag.csv", table)
    argv = ["--grid", str(tmp_path / "grid.json"), "--lagrangian", str(tmp_path / "lag.csv")]
    if current is not None:
        serialize.write_current_csv(tmp_path / "cur.csv", current)
        argv += ["--current", str(tmp_path / "cur.csv")]
    assert main(["solve", *argv, "--outdir", str(tmp_path / "solved")]) == 0
    header, *rows = (tmp_path / "solved" / "solution.csv").read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[i] for i in np.random.default_rng(1).permutation(len(rows))))
    capsys.readouterr()
    assert main(["certify", *argv, "--solution", str(shuffled), "--outdir", str(tmp_path / "cli")]) == 0

    mu = DiscreteMeasure(grid=grid, weights=oracles.loop_read_measure_csv(grid, shuffled))
    assert len(mu.weights) == len(rows) > 10 and list(mu.weights) != sorted(mu.weights)
    assert capsys.readouterr().out.endswith(f"  mass {oracles.loop_sum(mu.weights.values())!r}\n")
    value = oracles.loop_action(table, mu)
    if closed:
        in_order = DiscreteMeasure(grid=grid, weights=dict(sorted(mu.weights.items())))
        assert value != oracles.loop_action(table, in_order)  # the order shows in the bits
    ref = verify_measure(table, OptimalSolution(measure=mu, value=value, status=OPTIMAL), current)
    serialize.write_measure_result(tmp_path / "ref", ref)
    names = sorted(p.name for p in (tmp_path / "ref").iterdir())
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_cli_non_finite_charge_is_a_usage_error(tmp_path, capsys):
    from actionlab import build_torus_grid, sample_lagrangian
    from actionlab import serialize

    grid = build_torus_grid(1, 4, 1, 1.0)
    gpath, lpath, cpath = (tmp_path / n for n in ("grid.json", "lag.csv", "cur.csv"))
    serialize.write_json(gpath, serialize.grid_to_json(grid))
    serialize.write_lagrangian_csv(lpath, sample_lagrangian(grid, lambda x, v: abs(v)))
    oracles._loop_write_csv(cpath, ["node", "charge"], [[0, "nan"], [2, 1.0], [3, -1.0]])
    argv = ["solve", "--grid", str(gpath), "--lagrangian", str(lpath), "--current", str(cpath)]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    assert "error: charge nan on node 0 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_cli_grid_without_a_key_is_a_usage_error(tmp_path, capsys, command):
    from actionlab import DiscreteMeasure, build_torus_grid, sample_lagrangian
    from actionlab import serialize

    grid = build_torus_grid(1, 8, 1, 0.125)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)
    gpath, lpath = tmp_path / "grid.json", tmp_path / "lagrangian.csv"
    desc = serialize.grid_to_json(grid)
    del desc["stencil_radius"]
    serialize.write_json(gpath, desc)
    serialize.write_lagrangian_csv(lpath, table)
    measure = DiscreteMeasure(grid=grid, weights={(0, 1): 1.0})
    serialize.write_measure_csv(tmp_path / "solution.csv", measure)
    argv = [command, "--grid", str(gpath), "--lagrangian", str(lpath)]
    if command == "certify":
        argv += ["--solution", str(tmp_path / "solution.csv")]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    assert f"error: {gpath}: missing key 'stencil_radius'" in capsys.readouterr().err


@pytest.mark.parametrize("current", [False, True], ids=["closed", "boundary"])
def test_cli_grid_with_an_infinite_time_step_is_a_usage_error(tmp_path, capsys, current):
    # "h": 1e400 reads as inf; it once solved as OPTIMAL (closed) or failed
    # on a non-finite edge weight (boundary)
    from actionlab import BoundaryCurrent, build_torus_grid, sample_lagrangian
    from actionlab import serialize

    grid = build_torus_grid(1, 8, 1, 0.125)
    gpath, lpath, cpath = tmp_path / "grid.json", tmp_path / "lag.csv", tmp_path / "cur.csv"
    gpath.write_text(json.dumps({**serialize.grid_to_json(grid), "h": "H"}).replace('"H"', "1e400"))
    serialize.write_lagrangian_csv(lpath, sample_lagrangian(grid, lambda x, v: 0.5 * v * v))
    argv = ["solve", "--grid", str(gpath), "--lagrangian", str(lpath)]
    if current:
        serialize.write_current_csv(cpath, BoundaryCurrent(grid=grid, charges={1: -1.0, 2: 1.0}))
        argv += ["--current", str(cpath)]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    assert "error: time step must be positive and finite, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["t0", "dt"])
def test_cli_control_infinite_horizon_or_time_step_is_a_usage_error(tmp_path, capsys, key):
    # "t0": 1e400 once died in an OverflowError (exit 1)
    argv = _control_bundle(tmp_path)
    path = tmp_path / "problem.json"
    text = path.read_text()
    value = {"t0": 0.5, "dt": 0.25}[key]
    assert text.count(f'"{key}": {value}') == 1
    path.write_text(text.replace(f'"{key}": {value}', f'"{key}": 1e400'))
    assert main(argv) == 2
    horizon, time_step = ("inf", 0.25) if key == "t0" else (0.5, "inf")
    message = f"got horizon {horizon} and time step {time_step}"
    assert f"error: horizon and time step must be positive and finite, {message}" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value, shown",
    [(None, "null"), ([1], "[1]"), ("abc", '"abc"'), (2.7, "2.7")],
    ids=["null", "list", "string", "fraction"],
)
def test_cli_grid_key_of_the_wrong_type_is_a_usage_error(tmp_path, capsys, value, shown):
    # a wrong-typed value is bad input named by file and key, not a TypeError
    # (exit 1, a failed check), a bare int() message, or a silent truncation
    from actionlab import build_torus_grid, sample_lagrangian
    from actionlab import serialize

    grid = build_torus_grid(1, 8, 1, 0.125)
    gpath, lpath = tmp_path / "grid.json", tmp_path / "lagrangian.csv"
    gpath.write_text(json.dumps({**serialize.grid_to_json(grid), "n": value}))
    serialize.write_lagrangian_csv(lpath, sample_lagrangian(grid, lambda x, v: 0.5 * v * v))
    argv = ["solve", "--grid", str(gpath), "--lagrangian", str(lpath)]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
    assert f"error: {gpath}: key 'n' must be an integer, got {shown}" in capsys.readouterr().err


def _control_bundle(
    tmp_path, init_rows=((1, 1.0),), dynamics_extra=(), costs_extra=(), **desc_changes
):
    """Three states {-1/2, 0, 1/2}, controls -1 and +1, cost x^2; returns the CLI arguments.

    The input CSVs are written by the csv-module reference writer, not by the
    package's own writer."""
    from actionlab import serialize

    desc = {
        "state_dim": 1,
        "n": 3,
        "origin": [-0.5],
        "spacing": 0.5,
        "controls": [-1, 1],
        "t0": 0.5,
        "dt": 0.25,
        "dynamics_csv": "dynamics.csv",
        "costs_csv": "costs.csv",
        **desc_changes,
    }
    serialize.write_json(tmp_path / "problem.json", desc)
    dyn_rows = []
    for s in range(3):
        for a, lab in enumerate((-1, 1)):
            dyn_rows.append([s, a, lab])
    oracles._loop_write_csv(
        tmp_path / "dynamics.csv", ["x", "control", "step"], dyn_rows + list(dynamics_extra)
    )
    cost_rows = []
    xs = [-0.5, 0.0, 0.5]
    for s in range(3):
        for j in range(2):
            for a in range(2):
                cost_rows.append([s, j, a, xs[s] ** 2])
    oracles._loop_write_csv(
        tmp_path / "costs.csv", ["x", "t_index", "control", "ell"], cost_rows + list(costs_extra)
    )
    oracles._loop_write_csv(tmp_path / "init.csv", ["x", "mass"], [list(r) for r in init_rows])
    return [
        "control",
        "--problem",
        str(tmp_path / "problem.json"),
        "--init",
        str(tmp_path / "init.csv"),
        "--outdir",
        str(tmp_path / "out"),
    ]


def test_cli_control_roundtrip(tmp_path, capsys):
    rc = main(_control_bundle(tmp_path))
    assert rc == 0
    assert "np.float64" not in capsys.readouterr().out
    outdir = tmp_path / "out"
    report = json.loads((outdir / "control_report.json").read_text())
    assert abs(report["lp_value"] - report["dp_total"]) <= 1e-9
    assert abs(report["lp_value"] - 0.25 * 0.25) <= 1e-12
    assert (outdir / "value_function.csv").exists()


def test_cli_control_with_duplicate_controls_passes_and_counts_them(tmp_path):
    # "stay" and "idle" make the same step at every state: each of the 5
    # states and 3 steps has one duplicate, and the min over controls keeps
    # the cheaper "idle"
    from actionlab import serialize

    serialize.write_json(tmp_path / "problem.json", {
        "state_dim": 1, "n": 5, "origin": [-1.0], "spacing": 0.5,
        "controls": ["left", "stay", "right", "idle"], "t0": 1.5, "dt": 0.5,
        "dynamics_csv": "dynamics.csv", "costs_csv": "costs.csv",
    })
    steps, extra = (-1, 0, 1, 0), (0.5, 0.25, 0.5, 0.125)
    dynamics = [[i, a, m] for i in range(5) for a, m in enumerate(steps)]
    oracles._loop_write_csv(tmp_path / "dynamics.csv", ["x0", "control", "step"], dynamics)
    costs = [[i, t, a, (i - 2) ** 2 + e] for i in range(5) for t in range(3) for a, e in enumerate(extra)]
    oracles._loop_write_csv(tmp_path / "costs.csv", ["x0", "t_index", "control", "ell"], costs)
    oracles._loop_write_csv(tmp_path / "init.csv", ["x0", "mass"], [[0, 1.0], [4, 0.5]])
    argv = ["control", "--problem", str(tmp_path / "problem.json"), "--init", str(tmp_path / "init.csv")]
    assert main(argv + ["--outdir", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "control_report.json").read_text())["duplicate_collapses"] == 3 * 5


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cli_control_tolerance_not_finite_and_nonnegative_is_a_usage_error(tmp_path, capsys, tol):
    assert main(_control_bundle(tmp_path) + ["--tol", tol]) == 2
    message = f"error: --tol must be finite and nonnegative, got {float(tol)!r}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"init_rows": [(-1, 1.0)]}, "init.csv line 2: coordinate -1 is outside"),
        ({"init_rows": [(7, 1.0)]}, "init.csv line 2: coordinate 7 is outside"),
        ({"dynamics_extra": [(0, 2, 1)]}, "dynamics.csv line 8: control index 2 is outside"),
        ({"costs_extra": [(0, 2, 0, 1.0)]}, "costs.csv line 14: time index 2 is outside"),
        ({"costs_extra": [(3, 0, 0, 1.0)]}, "costs.csv line 14: coordinate 3 is outside"),
        ({"t0": 0.6}, "horizon must be an integer number of time steps"),
        ({"t0": -0.5, "dt": -0.25}, "horizon and time step must be positive"),
        ({"dt": 0.0}, "horizon and time step must be positive"),
        ({"n": 1}, "need at least 2 state nodes per axis"),
    ],
    ids=[
        "init_negative",
        "init_beyond_grid",
        "dynamics_control",
        "costs_time",
        "costs_state",
        "horizon_off_grid",
        "negative_time_step",
        "zero_time_step",
        "single_node",
    ],
)
def test_cli_control_rejects_out_of_range_input(tmp_path, capsys, bad, message):
    assert main(_control_bundle(tmp_path, **bad)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(2, "nan")], "initial mass at state 2 is nan, not finite"),
        ([(0, 0.5), (1, "inf")], "initial mass at state 1 is inf, not finite"),
    ],
    ids=["nan", "inf"],
)
def test_cli_control_non_finite_initial_mass_is_a_usage_error(tmp_path, capsys, rows, message):
    assert main(_control_bundle(tmp_path, init_rows=rows)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["dt", "costs_csv"])
def test_cli_control_problem_without_a_key_is_a_usage_error(tmp_path, capsys, key):
    argv = _control_bundle(tmp_path)
    path = tmp_path / "problem.json"
    desc = json.loads(path.read_text())
    del desc[key]
    path.write_text(json.dumps(desc))
    assert main(argv) == 2
    assert f"error: {path}: missing key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("controls", 5, "key 'controls' must be a list, got 5"),
        ("origin", "abc", 'key \'origin\' must be a number or a list of numbers, got "abc"'),
        ("costs_csv", 5, "key 'costs_csv' must be a string, got 5"),
    ],
    ids=["controls", "origin", "costs_csv"],
)
def test_cli_control_problem_key_of_the_wrong_type_is_a_usage_error(
    tmp_path, capsys, key, value, message
):
    argv = _control_bundle(tmp_path, **{key: value})
    assert main(argv) == 2
    assert f"error: {tmp_path / 'problem.json'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("origin", [[0.0, 5.0, 7.0], []], ids=["three", "empty"])
def test_cli_control_origin_of_the_wrong_length_is_a_usage_error(tmp_path, capsys, origin):
    argv = _control_bundle(tmp_path, origin=origin)
    assert main(argv) == 2
    message = f"key 'origin' has length {len(origin)}, expected state_dim = 1"
    assert f"error: {tmp_path / 'problem.json'}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"spacing": 0.5', '"spacing": 1e400', "key 'spacing' must be positive and finite, got inf"),
        ('"spacing": 0.5', '"spacing": 0', "key 'spacing' must be positive and finite, got 0.0"),
        ('"spacing": 0.5', '"spacing": -0.5', "key 'spacing' must be positive and finite, got -0.5"),
        ("-0.5", "1e400", "key 'origin' must be finite, got [inf]"),
    ],
    ids=["infinite_spacing", "zero_spacing", "negative_spacing", "infinite_origin"],
)
def test_cli_control_bad_box_is_a_usage_error(tmp_path, capsys, old, new, message):
    # each once exited 0: an infinite spacing printed "hjb nan", and a zero or
    # negative one solved with the HJB gradient term dropped
    argv = _control_bundle(tmp_path)
    path = tmp_path / "problem.json"
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert main(argv) == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_legendre_control_scenario_hjb_refines():
    r1 = run_scenario("legendre_control", {"refine": 1})
    r2 = run_scenario("legendre_control", {"refine": 2})
    assert r1.passed and r2.passed
    assert r1.values["hjb_residual"] / r2.values["hjb_residual"] >= 1.5
