"""Scenario library: canonical instances with expected quantities and tolerances.

Each scenario builds a deterministic instance from numeric parameters, runs
the measure pipeline (``run_measure``: solve, certify, convexify, diagnostics)
or the control pipeline (``run_control``), and checks a table of named
expected quantities.  Reference values are analytically forced, e.g. the ring
distance in the distance scenario, or are identities of the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import BoundaryCurrent, LagrangianTable, build_torus_grid, sample_lagrangian
from .diagnostics import run_measure
from . import control as ctl
from . import serialize

__all__ = [
    "SCENARIOS",
    "Check",
    "ScenarioRun",
    "run_scenario",
    "refinement_sweep",
    "parse_config",
    "UnknownScenarioError",
]


class UnknownScenarioError(ValueError):
    pass


@dataclass
class Check:
    name: str
    actual: float
    expected: float
    tol: float
    source: str
    kind: str = "abs"  # "abs" |Δ| <= tol, "ge" actual >= expected - tol

    @property
    def passed(self) -> bool:
        if self.kind == "ge":
            return self.actual >= self.expected - self.tol
        return abs(self.actual - self.expected) <= self.tol

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "actual": self.actual,
            "expected": self.expected,
            "tol": self.tol,
            "kind": self.kind,
            "source": self.source,
            "passed": self.passed,
        }


@dataclass
class ScenarioRun:
    name: str
    params: dict
    values: dict
    checks: list
    results: dict = field(repr=False, default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "measure" or "control"
    defaults: dict
    build: object  # params -> case dict
    sweep_param: str = "n"


def _require_params(name: str, params: dict, defaults: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for scenario {name}; "
            f"valid: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged


def _int(params, key, lo=None, hi=None):
    v = params[key]
    if isinstance(v, float) and not v.is_integer():  # 8.0 means 8; 7.9 does not mean 7
        raise ValueError(f"parameter {key}={v!r} is not an integer")
    v = int(v)
    if lo is not None and v < lo:
        raise ValueError(f"parameter {key}={v} below minimum {lo}")
    if hi is not None and v > hi:
        raise ValueError(f"parameter {key}={v} above maximum {hi}")
    return v


# ---------------------------------------------------------------------------
# measure scenario builders


def _build_exact_form(params):
    n = _int(params, "n", lo=2)
    k = _int(params, "k", lo=1)
    shape = str(params["f"])
    grid = build_torus_grid(1, n, k, h=1.0 / n)
    if shape == "sin":
        f0 = np.sin(2 * np.pi * np.arange(n) / n)
    elif shape == "saw":
        x = np.arange(n) / n
        f0 = np.minimum(x, 1.0 - x)
    else:
        raise ValueError(f"parameter f must be 'sin' or 'saw', got {shape!r}")
    df0 = (f0[grid.neighbors] - f0[:, None]) / grid.time_step

    table = LagrangianTable(grid=grid, values=df0)

    def checks(res):
        cert = res.certificate
        rep = res.report
        rec = cert.potential
        tgt = f0 - f0[cert.normalization_node]
        return [
            Check("value", res.solution.value, 0.0, 1e-9, "analytic: exact differentials telescope"),
            Check("c0", cert.critical_constant, 0.0, 1e-9, "analytic"),
            Check("slack_min", rep.slack_min, 0.0, 1e-9, "dual feasibility", kind="ge"),
            Check("potential_recovery", float(np.max(np.abs(rec - tgt))), 0.0, 1e-8, "analytic"),
            Check("duality_gap", rep.duality_gap, 0.0, 1e-9, "identity"),
            Check("energy_residual", rep.hamiltonian_residual_max, 0.0, 1e-8, "identity"),
        ]

    return {"table": table, "current": None, "checks": checks}


def _build_free_particle(params):
    n = _int(params, "n", lo=2)
    k = _int(params, "k", lo=1)
    grid = build_torus_grid(1, n, k, h=1.0 / n)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v)

    def checks(res):
        cert = res.certificate
        rep = res.report
        return [
            Check("c0", cert.critical_constant, 0.0, 1e-12, "analytic: rest cycle is free"),
            Check("f_max_abs", float(np.max(np.abs(cert.potential))), 0.0, 1e-12, "analytic"),
            Check(
                "slack_matches_kinetic",
                float(np.max(np.abs(cert.slack - res.table.values))),
                0.0,
                1e-12,
                "analytic: g = L when f = 0 and c0 = 0",
            ),
            Check("energy_residual", rep.hamiltonian_residual_max, 0.0, 1e-8, "identity"),
        ]

    return {"table": table, "current": None, "checks": checks}


def _build_tonelli_pendulum(params):
    n = _int(params, "n", lo=4)
    if n % 2:
        raise ValueError("parameter n must be even so the potential minimum is a grid node")
    k = _int(params, "k", lo=1)
    shape = str(params["V"])
    if shape != "cos":
        raise ValueError(f"parameter V must be 'cos', got {shape!r}")
    grid = build_torus_grid(1, n, k, h=1.0 / n)
    table = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + math.cos(2 * math.pi * x))
    xs = np.arange(n) / n
    vmin_node = int(np.argmin(np.cos(2 * np.pi * xs)))
    vmin = float(np.cos(2 * np.pi * xs[vmin_node]))
    dx = 1.0 / n

    def checks(res):
        cert = res.certificate
        rep = res.report
        supp = res.solution.measure.support_nodes()
        return [
            Check("c0", cert.critical_constant, vmin, dx * dx, "analytic: rest atom at the potential minimum"),
            Check("support_size", float(len(res.solution.measure.edge_ids())), 1.0, 0.0, "analytic"),
            Check("support_node", float(supp[0]), float(vmin_node), 0.0, "analytic"),
            Check("slack_on_support", rep.slack_on_support_max, 0.0, 1e-8, "identity"),
            Check("energy_residual", rep.hamiltonian_residual_max, 0.0, 1e-8, "identity"),
            Check("slack_min", rep.slack_min, 0.0, 1e-9, "dual feasibility", kind="ge"),
        ]

    return {"table": table, "current": None, "checks": checks}


def _build_rotation(params):
    n = _int(params, "n", lo=2)
    k = _int(params, "k", lo=2)
    # v0 must be interior to the stencil so the fiber derivative there is
    # two-sided (an endpoint derivative is a truncation artifact)
    v0_offset = _int(params, "v0_offset", lo=-(k - 1), hi=k - 1)
    grid = build_torus_grid(1, n, k, h=1.0 / n)
    v0 = v0_offset * grid.spacing / grid.time_step
    table = sample_lagrangian(grid, lambda x, v: 0.5 * (v - v0) ** 2)

    def checks(res):
        cert = res.certificate
        rep = res.report
        mu = res.solution.measure
        mom_max = float(np.max(np.abs(rep.momentum[rep.on_support]), initial=0.0))
        return [
            Check("c0", cert.critical_constant, 0.0, 1e-12, "analytic: the v0-cycle is free"),
            Check("support_size", float(len(mu.edge_ids())), float(n), 0.0, "analytic: one full rotation"),
            Check("momentum_max_abs", mom_max, 0.0, 1e-9, "analytic: fiber derivative vanishes at v0"),
            Check("momentum_lipschitz", rep.momentum_lipschitz_estimate, 0.0, 1e-9, "analytic: constant momenta"),
            Check("energy_residual", rep.hamiltonian_residual_max, 0.0, 1e-8, "identity"),
        ]

    return {"table": table, "current": None, "checks": checks}


def _build_double_well(params):
    n = _int(params, "n", lo=2)
    grid = build_torus_grid(1, n, 2, h=1.0 / n)
    table = sample_lagrangian(grid, lambda x, v: (v * v - 1.0) ** 2)

    def checks(res):
        env = res.envelope
        cert = res.certificate
        flat = float(np.max(np.abs(env.values[:, grid.zero_offset_index])))
        return [
            Check("envelope_flat_at_rest", flat, 0.0, 0.0, "analytic: hull chord between the wells"),
            Check("c0", cert.critical_constant, 0.0, 1e-12, "analytic: well cycles are free"),
            Check("slack_min", res.report.slack_min, 0.0, 1e-9, "dual feasibility", kind="ge"),
            Check("envelope_below_L", float(np.max(env.values - res.table.values)), 0.0, 1e-12, "definition"),
        ]

    return {"table": table, "current": None, "checks": checks}


def _build_finsler_distance(params):
    n = _int(params, "n", lo=2)
    k = _int(params, "k", lo=1)
    src = _int(params, "src", lo=0) % n
    dst = _int(params, "dst", lo=0) % n
    if src == dst:
        raise ValueError(
            f"parameters src={params['src']} and dst={params['dst']} are the same node "
            f"{src} of n={n}"
        )
    grid = build_torus_grid(1, n, k, h=1.0)
    table = sample_lagrangian(grid, lambda x, v: abs(v))
    current = BoundaryCurrent(grid=grid, charges={dst: 1.0, src: -1.0})
    # a jump of k nodes costs |k|/n, so the distance is the ring distance / n
    x = np.arange(n)
    dist = np.minimum((x - src) % n, (src - x) % n) / n

    def checks(res):
        cert = res.certificate
        rep = res.report
        f = cert.potential - cert.potential[src]
        profile_err = float(np.max(np.abs(f - dist)))
        return [
            Check("value", res.solution.value, float(dist[dst]), 1e-9, "analytic: ring distance"),
            Check("distance_profile", profile_err, 0.0, 1e-9, "analytic: ring distance"),
            Check("pairing_equals_value", cert.current_pairing, res.solution.value, 1e-9, "identity"),
            Check("slack_min", rep.slack_min, 0.0, 1e-9, "dual feasibility", kind="ge"),
            Check("boundary_residual", rep.boundary_residual_max, 0.0, 1e-9, "feasibility"),
        ]

    return {"table": table, "current": current, "checks": checks}


def _build_dirac_boundary(params):
    n = _int(params, "n", lo=4)
    k = _int(params, "k", lo=1)
    grid = build_torus_grid(1, n, k, h=1.0 / n)
    table = sample_lagrangian(
        grid, lambda x, v: 0.5 * v * v + (1.0 - math.cos(2 * math.pi * x))
    )

    def checks(res):
        mu = res.solution.measure
        cert = res.certificate
        off = np.ones(cert.slack.size, dtype=bool)
        off[mu.edge_ids()] = False
        off_support = cert.slack.ravel()[off]
        return [
            Check("support_size", float(len(mu.edge_ids())), 1.0, 0.0, "analytic: single rest atom"),
            Check("support_node", float(mu.support_nodes()[0]), 0.0, 0.0, "analytic"),
            Check("c0", cert.critical_constant, 0.0, 1e-9, "analytic"),
            Check("slack_on_support", cert.slack_on_support(mu), 0.0, 1e-8, "identity"),
            Check(
                "min_slack_off_support",
                float(off_support.min()),
                0.0,
                1e-12,
                "analytic: no tightness away from the atom",
                kind="ge",
            ),
            Check(
                "positive_slack_off_support",
                float(off_support.max()),
                0.5,
                0.0,
                "analytic: slack grows away from the atom",
                kind="ge",
            ),
        ]

    return {"table": table, "current": None, "checks": checks}


def _build_legendre_control(params):
    refine = _int(params, "refine", lo=1)
    gamma = float(params["control_cost"])
    if gamma < 0:
        raise ValueError("control_cost must be nonnegative")
    per_half = 4 * refine
    n_states = 2 * per_half + 1  # box [-0.5, 0.5]
    dx = 1.0 / (2 * per_half)
    t0 = 0.5
    t_steps = 4 * refine
    dt = t0 / t_steps  # equals dx: unit speeds stay grid-compatible

    problem = ctl.make_control_problem(
        state_dim=1,
        nodes_per_axis=n_states,
        origin=[-0.5],
        spacing=dx,
        controls=(-1, 0, 1),
        dynamics=lambda x, a: a * dx / dt,
        running_cost=lambda x, t, a: x * x + gamma * a * a,
        horizon=t0,
        time_step=dt,
    )
    start = per_half + per_half // 2  # node at x = 0.25
    initial = {start: 1.0}

    def checks(res):
        return [
            Check("dp_lp_gap", abs(res.lp.value - res.dp_total), 0.0, 1e-9, "identity: two solvers"),
            Check("max_principle_on_support", res.max_principle[0], 0.0, 1e-8, "identity"),
            Check("max_principle_off_support", res.max_principle[1], 0.0, 1e-9, "dual feasibility", kind="ge"),
            Check("u_v_relation", res.u_v_residual, 0.0, 1e-8, "identity"),
        ]

    return {"problem": problem, "initial": initial, "checks": checks}


SCENARIOS: dict[str, Scenario] = {
    "exact_form": Scenario(
        "exact_form", "measure", {"n": 16, "k": 1, "f": "sin"}, _build_exact_form
    ),
    "free_particle": Scenario(
        "free_particle", "measure", {"n": 16, "k": 1}, _build_free_particle
    ),
    "tonelli_pendulum": Scenario(
        "tonelli_pendulum", "measure", {"n": 32, "k": 1, "V": "cos"}, _build_tonelli_pendulum
    ),
    "rotation": Scenario(
        "rotation", "measure", {"n": 16, "k": 2, "v0_offset": 1}, _build_rotation
    ),
    "double_well": Scenario(
        "double_well", "measure", {"n": 16}, _build_double_well
    ),
    "finsler_distance": Scenario(
        "finsler_distance", "measure", {"n": 16, "k": 1, "src": 0, "dst": 8}, _build_finsler_distance
    ),
    "dirac_boundary": Scenario(
        "dirac_boundary", "measure", {"n": 16, "k": 1}, _build_dirac_boundary
    ),
    "legendre_control": Scenario(
        "legendre_control",
        "control",
        {"refine": 1, "control_cost": 0.05},
        _build_legendre_control,
        sweep_param="refine",
    ),
}


def run_scenario(
    name: str,
    params: dict | None = None,
    outdir=None,
    label: str = "golden",
) -> ScenarioRun:
    """Build, solve, check, and optionally write the report files for a scenario."""
    if name not in SCENARIOS:
        raise UnknownScenarioError(
            f"UNKNOWN_SCENARIO: {name!r}; registered: {sorted(SCENARIOS)}"
        )
    scen = SCENARIOS[name]
    merged = _require_params(name, params or {}, scen.defaults)
    case = scen.build(merged)
    if scen.kind == "measure":
        result = run_measure(case["table"], case["current"])
        values = {
            **result.solution.summary(),
            "c0": result.certificate.critical_constant,
            **result.report.as_dict(),
        }
        results = {"grid": result.table.grid, **vars(result)}
    else:
        result = ctl.run_control(case["problem"], case["initial"])
        values = {
            "value": result.lp.value,
            "status": result.lp.status,
            "dp_total": result.dp_total,
            "c0": result.certificate.c0,
            "empirical_mean_cost": result.certificate.empirical_mean_cost,
            "hjb_residual": result.hjb_residual,
            "max_principle_on_support": result.max_principle[0],
            "max_principle_off_support": result.max_principle[1],
            "u_v_residual": result.u_v_residual,
        }
        results = dict(vars(result))
    checks = case["checks"](result)
    run = ScenarioRun(name=name, params=merged, values=values, checks=checks, results=results)

    if outdir is not None:
        dest = Path(outdir) / name / label
        dest.mkdir(parents=True, exist_ok=True)
        summary = {
            "scenario": run.name,
            "params": run.params,
            "values": run.values,
            "checks": [c.as_dict() for c in run.checks],
            "passed": run.passed,
        }
        serialize.write_json(dest / "summary.json", summary)
        if scen.kind == "measure":
            serialize.write_measure_csv(dest / "solution.csv", result.solution.measure)
            serialize.write_json(dest / "solution_summary.json", result.solution.summary())
            serialize.write_measure_result(dest, result)
        else:
            serialize.write_control_result(dest, result)
    return run


def refinement_sweep(
    name: str, n_list, params: dict | None = None, outdir=None, label: str = "golden"
) -> dict:
    """Run a scenario over a list of refinement levels and collect key figures.

    Per-level errors are recorded and do not stop the sweep; a level that is
    not an integer, or no level at all, is a ValueError before any level runs.
    """
    if name not in SCENARIOS:
        raise UnknownScenarioError(
            f"UNKNOWN_SCENARIO: {name!r}; registered: {sorted(SCENARIOS)}"
        )
    scen = SCENARIOS[name]
    levels = [_int({scen.sweep_param: n}, scen.sweep_param) for n in n_list]
    if not levels:
        raise ValueError(f"refinement sweep of {name} names no level")
    rows = []
    for n in levels:
        p = dict(params or {})
        p[scen.sweep_param] = n
        try:
            run = run_scenario(name, p)
            row = {"n": n, "passed": run.passed}
            for key in ("c0", "momentum_lipschitz_estimate", "hjb_residual", "value"):
                if key in run.values:
                    row[key] = run.values[key]
            rows.append(row)
        except Exception as exc:  # keep sweeping, record the failure
            rows.append({"n": n, "error": f"{type(exc).__name__}: {exc}"})
    report = {"scenario": name, "sweep_param": scen.sweep_param, "rows": rows}
    if outdir is not None:
        dest = Path(outdir) / name / label
        dest.mkdir(parents=True, exist_ok=True)
        serialize.write_json(dest / "sweep.json", report)
    return report


def parse_config(text: str) -> dict:
    """Flat key-value configuration: one ``key = value`` per line.

    Strings are double-quoted, numbers plain; ``#`` starts a comment.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"config line {lineno}: empty key")
        if val.startswith('"') and val.endswith('"') and len(val) >= 2:
            out[key] = val[1:-1]
        else:
            try:
                out[key] = int(val)
            except ValueError:
                try:
                    out[key] = float(val)
                except ValueError:
                    raise ValueError(
                        f"config line {lineno}: value {val!r} is neither a number "
                        f"nor a quoted string"
                    ) from None
    return out
