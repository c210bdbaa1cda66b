"""Numerical verification of the optimality structure: energy conservation,
decomposition residuals, and momentum regularity on the projected support.

``run_measure`` is the one pipeline for the closed and boundary problems:
solve, certify, convexify, report.  Its second half, ``verify_measure``,
checks a solution that was supplied instead of solved.

Every check reports a residual instead of asserting, so failed runs still
produce a full report.  Distances on the torus use the l-infinity wraparound
metric, which only rescales Lipschitz constants relative to any equivalent
choice and keeps index arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    PhaseGrid,
    boundary_of_measure,
    discrete_differential,
)
from .certificates import DualCertificate, certify_boundary, certify_closed
from .convexify import FiberEnvelope, fiber_convex_envelope, momentum_field
from .measure_lp import OptimalSolution, solve_boundary, solve_closed

__all__ = [
    "DiagnosticsReport",
    "discrete_hamiltonian",
    "check_energy_conservation",
    "estimate_momentum_lipschitz",
    "full_report",
    "MeasureResult",
    "run_measure",
    "verify_measure",
]


@dataclass
class DiagnosticsReport:
    hamiltonian_residual_max: float
    slack_min: float
    slack_on_support_max: float
    duality_gap: float
    momentum_lipschitz_estimate: float
    boundary_residual_max: float
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "hamiltonian_residual_max": self.hamiltonian_residual_max,
            "slack_min": self.slack_min,
            "slack_on_support_max": self.slack_on_support_max,
            "duality_gap": self.duality_gap,
            "momentum_lipschitz_estimate": self.momentum_lipschitz_estimate,
            "boundary_residual_max": self.boundary_residual_max,
        }


def discrete_hamiltonian(table: LagrangianTable, x: int, p) -> float:
    """H(x, p) = max over the stencil of p(v) - L(x, v).

    ``p`` holds one covector value per stencil offset (the edge-wise pairing
    p(v), e.g. a row of a discrete differential).
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (table.grid.num_offsets,):
        raise ValueError("p must supply one value per stencil offset")
    return float(np.max(p - table.values[x]))


def check_energy_conservation(
    table: LagrangianTable, cert: DualCertificate, mu: DiscreteMeasure
) -> float:
    """max over support nodes of |H(x, df_x) + c0|.

    Since H(x, df_x) + c0 = -min over the fiber of the slack g(x, .), this
    residual is bounded by the largest slack on the support, hence vanishes
    for exact optima: the discrete energy conservation principle.
    """
    df = discrete_differential(cert.potential, table.grid)
    worst = 0.0
    for x in mu.support_nodes():
        ham = discrete_hamiltonian(table, x, df[x])
        worst = max(worst, abs(ham + cert.critical_constant))
    return worst


# Values per intermediate array of the blocked pair scan.
LIPSCHITZ_BLOCK = 1 << 16


def estimate_momentum_lipschitz(momenta: dict, grid: PhaseGrid, exclusion=()) -> float:
    """max over node pairs outside the exclusion set of |p(x) - p(y)| / dist(x, y).

    ``momenta`` maps node -> covector (scalar for d=1).  Returns 0 with fewer
    than two usable nodes.  Enlarging the exclusion set can only shrink the
    estimate.  Each node is compared with every later node, a block of rows
    at a time, so memory stays at about LIPSCHITZ_BLOCK values per array.
    """
    excl = set(exclusion)
    nodes = sorted(x for x in momenta if x not in excl)
    s = len(nodes)
    if s < 2:
        return 0.0
    vals = np.array([np.atleast_1d(np.asarray(momenta[x], dtype=float)) for x in nodes])
    pos = grid.positions[nodes]
    rows = max(1, LIPSCHITZ_BLOCK // (s * max(pos.shape[1], vals.shape[1])))
    best = 0.0
    for i in range(0, s - 1, rows):
        # pairs (a, c) with a in this block and c >= a: the wraparound
        # l-infinity distance and the largest component difference
        delta = np.abs(pos[i : i + rows, None, :] - pos[None, i:, :])
        dist = np.minimum(delta, 1.0 - delta).max(axis=2)
        diff = np.abs(vals[i : i + rows, None, :] - vals[None, i:, :]).max(axis=2)
        ratio = np.divide(diff, dist, out=np.zeros_like(diff), where=dist != 0.0)
        best = max(best, float(ratio.max()))
    return best


def full_report(
    table: LagrangianTable,
    solution,
    cert: DualCertificate,
    envelope: FiberEnvelope,
    current: BoundaryCurrent | None = None,
) -> DiagnosticsReport:
    """Aggregate verification of one solved instance.

    ``current`` is the problem's boundary data (None for the closed case);
    it enters the duality gap through the pairing <c, f> and the boundary
    residual.  Inputs must share one grid.
    """
    grid = table.grid
    for other in (solution.measure.grid, cert.grid, envelope.grid):
        if not grid.same_layout(other):
            raise ValueError("inputs live on different grids")
    if current is not None and not grid.same_layout(current.grid):
        raise ValueError("inputs live on different grids")

    mu = solution.measure
    mass = mu.mass
    slack_min = cert.slack_min
    slack_support = cert.slack_on_support(mu)

    action = float(sum(table.values[e] * w for e, w in mu.weights.items()))
    pairing = current.pairing(cert.potential) if current is not None else 0.0
    duality_gap = abs(action - (cert.critical_constant * mass + pairing))

    energy = check_energy_conservation(table, cert, mu)

    bm = boundary_of_measure(mu)
    target = current.to_dense() if current is not None else np.zeros(grid.num_nodes)
    boundary_residual = float(np.max(np.abs(bm.to_dense() - target))) if grid.num_nodes else 0.0

    momenta_info = momentum_field(envelope, mu)
    usable = {
        x: info.momentum
        for x, info in momenta_info.items()
        if not info.any_endpoint
    }
    exclusion = set(current.support()) if current is not None else set()
    lip = estimate_momentum_lipschitz(usable, grid, exclusion)

    df = discrete_differential(cert.potential, grid)
    h_resid = np.max(df - table.values, axis=1) + cert.critical_constant
    support_nodes = set(mu.support_nodes())
    rows = []
    for x in range(grid.num_nodes):
        info = momenta_info.get(x)
        rows.append(
            {
                "node": x,
                "f": float(cert.potential[x]),
                "momentum": None if info is None else info.momentum,
                "momentum_spread": None if info is None else info.spread,
                "H_residual": float(h_resid[x]),
                "on_support": x in support_nodes,
            }
        )

    return DiagnosticsReport(
        hamiltonian_residual_max=energy,
        slack_min=slack_min,
        slack_on_support_max=slack_support,
        duality_gap=duality_gap,
        momentum_lipschitz_estimate=lip,
        boundary_residual_max=boundary_residual,
        details={"nodes": rows},
    )


@dataclass
class MeasureResult:
    """One solution of a closed (``current`` None) or boundary problem, with its proof."""

    table: LagrangianTable
    current: BoundaryCurrent | None
    solution: OptimalSolution
    certificate: DualCertificate
    envelope: FiberEnvelope
    report: DiagnosticsReport

    def criteria(self, tol: float) -> dict[str, bool]:
        """Named pass/fail checks that together prove the solution optimal.

        Dual feasibility, complementary slackness, energy conservation and a
        zero duality gap, plus primal feasibility: the measure's boundary
        matches the current (node balance in the closed case), and a closed
        measure has mass one.
        """
        rep = self.report
        out = {
            "slack_min": rep.slack_min >= -tol,
            "slack_on_support_max": rep.slack_on_support_max <= tol,
            "hamiltonian_residual_max": rep.hamiltonian_residual_max <= tol,
            "duality_gap": rep.duality_gap <= tol,
            "boundary_residual_max": rep.boundary_residual_max <= tol,
        }
        if self.current is None:
            out["mass_one"] = abs(self.solution.measure.mass - 1.0) <= tol
        return out


def run_measure(table: LagrangianTable, current: BoundaryCurrent | None = None) -> MeasureResult:
    """Solve the closed problem (``current`` None) or the boundary problem, then verify."""
    if current is None:
        solution = solve_closed(table)
    else:
        solution = solve_boundary(table, current)
    return verify_measure(table, solution, current)


def verify_measure(
    table: LagrangianTable, solution: OptimalSolution, current: BoundaryCurrent | None = None
) -> MeasureResult:
    """Certificate, convex envelope and diagnostics for a given solution.

    Raises ValueError for a non-OPTIMAL status and RuntimeError when no
    certificate exists because the solution is not optimal.
    """
    if current is None:
        cert = certify_closed(table, solution)
    else:
        cert = certify_boundary(table, current, solution)
    envelope = fiber_convex_envelope(table)
    report = full_report(table, solution, cert, envelope, current=current)
    return MeasureResult(table, current, solution, cert, envelope, report)
