"""Seeded instances of the benchmark workloads and the pipeline each one runs.

An instance is one full user-visible pipeline: for the measure workloads the
table is built, solved, certified, convexified, diagnosed and every artifact a
scenario run writes is written; for the control workload the pipeline of the
``actionlab control`` command runs and writes that command's files.

Inputs depend only on (seed, workload, round, slot), never on timing, so the
same seed always yields the same instances in the same order.  Every call into
``actionlab`` sits inside ``span(layer)``; the untraced run passes a no-op
(see spans.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from actionlab import control as ctl
from actionlab import serialize
from actionlab.certificates import certify_boundary, certify_closed
from actionlab.convexify import fiber_convex_envelope
from actionlab.diagnostics import full_report
from actionlab.grid import (
    BoundaryCurrent,
    LagrangianTable,
    build_torus_grid,
    sample_lagrangian,
)
from actionlab.measure_lp import OPTIMAL, solve_boundary, solve_closed

# The command-line default check tolerance; never loosened here.
TOL = 1e-8

WORKLOAD_IDS = {"closed_torus": 0, "boundary_torus": 1, "control_box": 2}

# One round of each workload, in run order.  Rounds are never cut short, so
# every run sees the mix in exactly these proportions.
CLOSED_MIX = tuple(
    {"kind": kind, "d": 2, "n": n, "k": k}
    for n, k in ((32, 1), (48, 1), (64, 1), (32, 2))
    for kind in ("tonelli", "uniform")
)
# The 2-D n=48 case runs twice a round, so the median lands well inside its
# instances rather than in the gap between two sizes.
BOUNDARY_MIX = tuple(
    {"kind": "tonelli_shifted", "d": d, "n": n, "k": k, "pairs": pairs}
    for d, n, k, pairs in (
        (2, 48, 1, 40),
        (1, 1024, 2, 40),
        (2, 64, 1, 64),
        (2, 48, 1, 40),
        (1, 4096, 1, 128),
    )
)
# One instance in four starts from several atoms; those are the ones that
# show the open certify_control defect (see README.md).  Box half=12 runs
# twice, so the median lands inside it.
CONTROL_MIX = (
    {"kind": "legendre", "refine": 16, "atoms": 1},
    {"kind": "box", "half": 8, "atoms": 1},
    {"kind": "legendre", "refine": 32, "atoms": 1},
    {"kind": "box", "half": 8, "atoms": 8},
    {"kind": "box", "half": 12, "atoms": 1},
    {"kind": "box", "half": 12, "atoms": 1},
    {"kind": "box", "half": 16, "atoms": 1},
    {"kind": "box", "half": 16, "atoms": 4},
)
MIXES = {"closed_torus": CLOSED_MIX, "boundary_torus": BOUNDARY_MIX, "control_box": CONTROL_MIX}

# Small instances, one per (dimension, stencil radius) shape of a workload,
# run untimed during set-up so lazy per-shape caches are filled.
WARMUPS = {
    "closed_torus": (
        {"kind": "tonelli", "d": 2, "n": 8, "k": 1},
        {"kind": "uniform", "d": 2, "n": 8, "k": 2},
    ),
    "boundary_torus": (
        {"kind": "tonelli_shifted", "d": 2, "n": 8, "k": 1, "pairs": 4},
        {"kind": "tonelli_shifted", "d": 1, "n": 64, "k": 2, "pairs": 4},
        {"kind": "tonelli_shifted", "d": 1, "n": 64, "k": 1, "pairs": 4},
    ),
    "control_box": (
        {"kind": "legendre", "refine": 1, "atoms": 1},
        {"kind": "box", "half": 2, "atoms": 1},
    ),
}


@dataclass
class Instance:
    ident: str
    params: dict
    inputs: dict = field(repr=False)


@dataclass
class Outcome:
    """What one instance produced, and what the benchmark checked about it."""

    passed: bool  # every criterion of the command-line check held
    value_verified: bool  # the optimal value itself is proven right
    criteria: dict  # criterion name -> held
    residuals: dict  # the numbers the criteria were judged on
    value: float
    c0: float
    arcs: int
    karp_table_bytes: int = 0
    mcf_sources: int = 0
    support_pairs: int = 0


def round_instances(workload: str, seed: int, rnd: int) -> list[Instance]:
    return [
        make_instance(params, _rng(seed, workload, rnd, slot), f"r{rnd}.s{slot}")
        for slot, params in enumerate(MIXES[workload])
    ]


def warmup_instances(workload: str, seed: int) -> list[Instance]:
    return [
        make_instance(params, _rng(seed, workload, 2**31, slot), f"warmup.{slot}")
        for slot, params in enumerate(WARMUPS[workload])
    ]


def _rng(seed: int, workload: str, rnd: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], rnd, slot])


def make_instance(params: dict, rng: np.random.Generator, ident: str) -> Instance:
    kind = params["kind"]
    if kind in ("tonelli", "tonelli_shifted"):
        inputs = {"lagrangian": _trig_tonelli(rng, params["d"])}
        if kind == "tonelli_shifted":
            nodes = rng.choice(params["n"] ** params["d"], size=2 * params["pairs"], replace=False)
            inputs["sources"] = sorted(int(x) for x in nodes[: params["pairs"]])
            inputs["sinks"] = sorted(int(x) for x in nodes[params["pairs"] :])
    elif kind == "uniform":
        shape = (params["n"] ** params["d"], (2 * params["k"] + 1) ** params["d"])
        inputs = {"values": rng.uniform(-1.0, 1.0, size=shape)}
    elif kind in ("legendre", "box"):
        inputs = _control_inputs(rng, params)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    return Instance(ident=ident, params=dict(params), inputs=inputs)


def _trig_tonelli(rng: np.random.Generator, d: int):
    """L(x, v) = |v|^2/2 + a seeded three-term trigonometric potential."""
    amps = [float(a) for a in rng.uniform(0.5, 1.5, size=3)]
    phases = [float(p) for p in rng.uniform(0.0, 2.0 * math.pi, size=3)]
    if d == 1:
        waves = [int(w) for w in rng.integers(1, 4, size=3)]

        def lagrangian(x, v):
            return 0.5 * v * v + sum(
                a * math.cos(2.0 * math.pi * w * x + p) for a, w, p in zip(amps, waves, phases)
            )

        return lagrangian

    waves = []
    while len(waves) < 3:
        w = tuple(int(c) for c in rng.integers(-2, 3, size=2))
        if w != (0, 0):
            waves.append(w)

    def lagrangian(x, v):
        x0, x1 = float(x[0]), float(x[1])
        v0, v1 = float(v[0]), float(v[1])
        return 0.5 * (v0 * v0 + v1 * v1) + sum(
            a * math.cos(2.0 * math.pi * (w[0] * x0 + w[1] * x1) + p)
            for a, w, p in zip(amps, waves, phases)
        )

    return lagrangian


def _control_inputs(rng: np.random.Generator, params: dict) -> dict:
    """Legendre-type 1-D problems and a 2-D box with controls {-1,0,1}^2.

    Unit speeds with dt = dx keep every step on the grid; the box is
    [-1/2, 1/2]^dim and the horizon is 1/2.  Atoms are drawn from the middle
    half of each axis so single-atom optima stay off the box edge.
    """
    if params["kind"] == "legendre":
        dim, per_half = 1, 4 * params["refine"]
    else:
        dim, per_half = 2, params["half"]
    n = 2 * per_half + 1
    gamma = float(rng.uniform(0.02, 0.1))
    beta = float(rng.uniform(0.1, 0.5)) if dim == 2 else 0.0
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    lo, side = per_half // 2, n - 2 * (per_half // 2)
    cells = [int(c) for c in rng.choice(side**dim, size=params["atoms"], replace=False)]
    if dim == 1:
        atoms = [lo + c for c in cells]
    else:
        atoms = [(lo + c // side) * n + lo + c % side for c in cells]
    masses = rng.uniform(0.5, 1.5, size=len(atoms))
    return {
        "dim": dim,
        "n": n,
        "dx": 1.0 / (2 * per_half),
        "steps": per_half,
        "gamma": gamma,
        "beta": beta,
        "phase": phase,
        "initial": {int(s): float(m / masses.sum()) for s, m in zip(atoms, masses)},
    }


# ---------------------------------------------------------------------------
# pipelines


def run_instance(inst: Instance, dest: Path, span) -> Outcome:
    if inst.params["kind"] in ("legendre", "box"):
        return _run_control(inst, dest, span)
    return _run_measure(inst, dest, span)


def _run_measure(inst: Instance, dest: Path, span) -> Outcome:
    p = inst.params
    d, n, k = p["d"], p["n"], p["k"]
    closed = "sources" not in inst.inputs
    with span("grid"):
        grid = build_torus_grid(d, n, k, h=1.0 / n)
        if "values" in inst.inputs:
            table = LagrangianTable(grid=grid, values=inst.inputs["values"])
        else:
            table = sample_lagrangian(grid, inst.inputs["lagrangian"])
        current = None
        if not closed:
            table = LagrangianTable(grid=grid, values=table.values - table.values.min())
            charges = {x: 1.0 for x in inst.inputs["sinks"]}
            charges.update({x: -1.0 for x in inst.inputs["sources"]})
            current = BoundaryCurrent(grid=grid, charges=charges)
    with span("measure_lp"):
        solution = solve_closed(table) if closed else solve_boundary(table, current)
    with span("certificates"):
        if closed:
            cert = certify_closed(table, solution)
        else:
            cert = certify_boundary(table, current, solution)
    with span("convexify"):
        envelope = fiber_convex_envelope(table)
    with span("diagnostics"):
        report = full_report(table, solution, cert, envelope, current=current)

    criteria = {
        "status_optimal": solution.status == OPTIMAL,
        "slack_min": report.slack_min >= -TOL,
        "slack_on_support_max": report.slack_on_support_max <= TOL,
        "hamiltonian_residual_max": report.hamiltonian_residual_max <= TOL,
        "duality_gap": report.duality_gap <= TOL,
        "boundary_residual_max": report.boundary_residual_max <= TOL,
    }
    if closed:
        criteria["mass_one"] = abs(solution.measure.mass - 1.0) <= TOL
    # primal feasibility, dual feasibility and a zero gap prove the value
    value_keys = ("status_optimal", "slack_min", "duality_gap", "boundary_residual_max", "mass_one")
    values = {
        "value": solution.value,
        "status": solution.status,
        "mass": solution.measure.mass,
        "c0": cert.critical_constant,
        **report.as_dict(),
    }
    passed = all(criteria.values())
    with span("serialize"):
        serialize.write_json(
            dest / "summary.json",
            {
                "instance": inst.ident,
                "params": p,
                "values": values,
                "checks": criteria,
                "passed": passed,
            },
        )
        serialize.write_measure_csv(dest / "solution.csv", solution.measure)
        serialize.write_certificate_json_with_support(
            dest / "certificate.json", cert, solution.measure
        )
        serialize.write_slack_csv(dest / "slack.csv", cert)
        serialize.write_envelope_csv(dest / "envelope.csv", table, envelope)
        serialize.write_json(dest / "diagnostics.json", report.as_dict())
        serialize.write_node_table_csv(dest / "node_table.csv", grid, report)
        serialize.write_json(
            dest / "solution_summary.json",
            {"value": solution.value, "status": solution.status, "mass": solution.measure.mass},
        )

    # nodes the momentum-Lipschitz pair loop in full_report visits: support
    # nodes with no stencil-endpoint velocity, off the charged nodes
    at_end = np.abs(grid.offsets).max(axis=1) == k
    excluded = {x for (x, m) in solution.measure.weights if at_end[m]}
    excluded |= set(current.charges) if current is not None else set()
    usable = len(set(solution.measure.support_nodes()) - excluded)
    return Outcome(
        passed=passed,
        value_verified=all(criteria[key] for key in value_keys if key in criteria),
        criteria=criteria,
        residuals=report.as_dict(),
        value=float(solution.value),
        c0=float(cert.critical_constant),
        arcs=grid.num_edges,
        karp_table_bytes=(grid.num_nodes + 1) * grid.num_nodes * 8 if closed else 0,
        mcf_sources=0 if closed else len(inst.inputs["sources"]),
        support_pairs=usable * (usable - 1) // 2,
    )


def _run_control(inst: Instance, dest: Path, span) -> Outcome:
    c = inst.inputs
    dim, dx = c["dim"], c["dx"]
    horizon = c["steps"] * dx
    gamma, beta, phase = c["gamma"], c["beta"], c["phase"]
    if dim == 1:
        controls = (-1, 0, 1)

        def running_cost(x, t, a):
            return x * x + gamma * a * a

        def dynamics(x, a):
            return a

    else:
        controls = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
        omega = 2.0 * math.pi / horizon

        def running_cost(x, t, a):
            x0, x1 = float(x[0]), float(x[1])
            return (
                x0 * x0 + x1 * x1
                + gamma * (a[0] * a[0] + a[1] * a[1])
                + beta * math.cos(omega * t + phase) * (x0 - x1)
            )

        def dynamics(x, a):
            return np.array(a, dtype=float)

    with span("control.build"):
        problem = ctl.make_control_problem(
            state_dim=dim,
            nodes_per_axis=c["n"],
            origin=[-0.5] * dim,
            spacing=dx,
            controls=controls,
            dynamics=dynamics,
            running_cost=running_cost,
            horizon=horizon,
            time_step=dx,
        )
    with span("control.dp"):
        vf = ctl.solve_value_function(problem)
    with span("control.lp"):
        lp = ctl.solve_relaxed_lp(problem, c["initial"])
    if lp.status != OPTIMAL:
        raise RuntimeError(f"relaxed LP status {lp.status}")
    with span("control.cert"):
        cert = ctl.certify_control(problem, lp)
    with span("control.checks"):
        mp = ctl.maximum_principle_check(cert, lp.measure)
        trajs = ctl.extract_optimal_trajectories(problem, lp)
        uv = max((ctl.check_u_v_relation(cert, vf, t) for t, _m in trajs), default=0.0)
    with span("control.hjb"):
        hjb = ctl.hjb_residual(vf, problem)
    dp_total = float(np.dot(lp.initial, vf.v[:, -1]))

    criteria = {
        "lp_dp_gap": abs(lp.value - dp_total) <= TOL,
        "max_principle_on_support": mp[0] <= TOL,
        "max_principle_off_support": mp[1] >= -TOL,
        "u_v_residual": uv <= TOL,
    }
    report = {
        "status": lp.status,
        "lp_value": lp.value,
        "dp_total": dp_total,
        "hjb_residual": hjb,
        "max_principle_on_support": mp[0],
        "max_principle_off_support": mp[1],
        "u_v_residual": uv,
    }
    with span("serialize"):
        serialize.write_value_function_csv(dest / "value_function.csv", vf)
        serialize.write_json(
            dest / "control_certificate.json",
            {"c0": cert.c0, "empirical_mean_cost": cert.empirical_mean_cost, "u": cert.u},
        )
        serialize.write_json(dest / "control_report.json", report)

    return Outcome(
        passed=all(criteria.values()),
        # two independent solvers, DP and the flow LP, agree on the value
        value_verified=criteria["lp_dp_gap"],
        criteria=criteria,
        residuals={key: val for key, val in report.items() if key != "status"},
        value=float(lp.value),
        c0=float(cert.c0),
        arcs=int(problem.active.sum()) + problem.num_states,
        mcf_sources=len(c["initial"]),
    )
