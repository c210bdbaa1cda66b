"""Command-line surface.

Subcommands: solve, certify, control, scenario, sweep.  Exit codes: 0 all
checks pass, 1 a check missed its tolerance, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import serialize
from .diagnostics import verify_measure
from .measure_lp import OPTIMAL, OptimalSolution, solve_boundary, solve_closed
from .scenarios import UnknownScenarioError, parse_config, refinement_sweep, run_scenario
from . import control as ctl

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _default_label(args) -> str:
    if args.label:
        return args.label
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def _load_problem(args):
    import json

    grid = serialize.grid_from_json(json.loads(Path(args.grid).read_text()), source=args.grid)
    table = serialize.read_lagrangian_csv(grid, args.lagrangian)
    current = None
    if args.current:
        current = serialize.read_current_csv(grid, args.current)
    return grid, table, current


def _cmd_solve(args) -> int:
    grid, table, current = _load_problem(args)
    solution = solve_closed(table) if current is None else solve_boundary(table, current)
    dest = Path(args.outdir)
    dest.mkdir(parents=True, exist_ok=True)
    serialize.write_measure_csv(dest / "solution.csv", solution.measure)
    serialize.write_json(dest / "summary.json", solution.summary())
    print(f"status {solution.status}  value {solution.value!r}")
    return 0


def _tolerance(args) -> float:
    """``--tol``; a ValueError (exit 2) unless it is finite and nonnegative."""
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol!r}")
    return args.tol


def _cmd_certify(args) -> int:
    tol = _tolerance(args)
    grid, table, current = _load_problem(args)
    measure = serialize.read_measure_csv(grid, args.solution)
    solution = OptimalSolution(measure=measure, value=measure.action(table), status=OPTIMAL)
    try:
        result = verify_measure(table, solution, current)
    except RuntimeError as exc:
        # negative reduced/residual cycle: the supplied measure is not optimal
        print(f"certification failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    serialize.write_measure_result(args.outdir, result)

    report = result.report
    print(
        f"slack_min {report.slack_min!r}  slack_on_support {report.slack_on_support_max!r}  "
        f"gap {report.duality_gap!r}  energy {report.hamiltonian_residual_max!r}  "
        f"boundary {report.boundary_residual_max!r}  mass {measure.mass!r}"
    )
    return _exit_code(result.criteria(tol))


def _cmd_control(args) -> int:
    tol = _tolerance(args)
    problem = serialize.read_control_problem(args.problem)
    init = serialize.read_initial_csv(
        problem.num_states, problem.state_dim, problem.nodes_per_axis, args.init
    )
    result = ctl.run_control(problem, init)
    serialize.write_control_result(args.outdir, result)
    print(
        f"lp {result.lp.value!r}  dp {result.dp_total!r}  max-principle {result.max_principle!r}  "
        f"u/v {result.u_v_residual!r}  hjb {result.hjb_residual!r}"
    )
    return _exit_code(result.criteria(tol))


def _exit_code(criteria: dict) -> int:
    failed = [name for name, ok in criteria.items() if not ok]
    if failed:
        print(f"failed: {', '.join(failed)}")
        return CHECK_FAILURE
    return 0


def _parse_params(pairs, config_path) -> dict:
    params: dict = {}
    if config_path:
        params.update(parse_config(Path(config_path).read_text()))
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got {item!r}")
        params.update(parse_config(item))
    return params


def _cmd_scenario(args) -> int:
    params = _parse_params(args.param, args.config)
    run = run_scenario(args.name, params, outdir=args.outdir, label=_default_label(args))
    for check in run.checks:
        mark = "pass" if check.passed else "FAIL"
        print(
            f"[{mark}] {run.name}.{check.name}: actual {check.actual!r} "
            f"expected {check.expected!r} tol {check.tol!r} ({check.source})"
        )
    return 0 if run.passed else CHECK_FAILURE


def _cmd_sweep(args) -> int:
    params = _parse_params(args.param, args.config)
    n_list = [int(v) for v in args.n.split(",") if v]
    if not n_list:
        raise ValueError(f"--n names no refinement level, got {args.n!r}")
    report = refinement_sweep(
        args.name, n_list, params, outdir=args.outdir, label=_default_label(args)
    )
    ok = True
    for row in report["rows"]:
        if "error" in row:
            ok = False
            print(f"n={row['n']}: ERROR {row['error']}")
        else:
            ok = ok and row["passed"]
            shown = {k: v for k, v in row.items() if k not in ("n", "passed")}
            print(f"n={row['n']}: passed={row['passed']} {shown}")
    return 0 if ok else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionlab",
        description="Action minimization over discrete measures: solvers, "
        "certificates, diagnostics, scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem given grid/Lagrangian/current files")
    p.add_argument("--grid", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--current", default=None, help="omit for the closed problem")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify", help="certificate + diagnostics for a solution file")
    p.add_argument("--grid", required=True)
    p.add_argument("--lagrangian", required=True)
    p.add_argument("--current", default=None)
    p.add_argument("--solution", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("control", help="solve and verify a finite-horizon control problem")
    p.add_argument("--problem", required=True, help="problem JSON bundle")
    p.add_argument("--init", required=True, help="initial distribution CSV")
    p.add_argument("--outdir", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_control)

    p = sub.add_parser("scenario", help="run a registered scenario")
    p.add_argument("name")
    p.add_argument("--param", action="append", help="key=value override", default=[])
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--outdir", default=None)
    p.add_argument("--label", default=None, help="run directory name (default: UTC timestamp)")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("sweep", help="refinement sweep of a scenario")
    p.add_argument("name")
    p.add_argument("--n", required=True, help="comma-separated refinement levels, e.g. 16,32,64")
    p.add_argument("--param", action="append", default=[])
    p.add_argument("--config", default=None)
    p.add_argument("--outdir", default=None)
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
