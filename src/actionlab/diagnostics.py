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

from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import (
    BoundaryCurrent,
    LagrangianTable,
    PhaseGrid,
    boundary_of_measure,
    discrete_differential,
    same_grid,
)
from .certificates import DualCertificate, certify_boundary, certify_closed
from .convexify import fiber_convex_envelope, momentum_field
from .measure_lp import OptimalSolution, solve_boundary, solve_closed

__all__ = [
    "Check",
    "DiagnosticsReport",
    "discrete_hamiltonian",
    "estimate_momentum_lipschitz",
    "full_report",
    "MeasureResult",
    "run_measure",
    "verify_measure",
]


@dataclass
class Check:
    """One named condition, ``actual`` against ``expected`` within the bound ``tol``:
    |actual - expected| <= tol for ``kind`` "abs", actual <= expected + tol
    for "le", actual >= expected - tol for "ge"."""

    name: str
    actual: float
    expected: float
    tol: float
    source: str
    kind: str = "abs"

    @property
    def passed(self) -> bool:
        if self.kind == "ge":
            return self.actual >= self.expected - self.tol
        if self.kind == "le":
            return self.actual <= self.expected + self.tol
        return abs(self.actual - self.expected) <= self.tol

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass
class DiagnosticsReport:
    """The six residuals of one solved instance, plus the node table.

    The node table is one column per array, indexed by node: the potential
    ``f``; the mean envelope momentum over the node's supported velocities,
    shape (N, d), and the spread between those momenta, both NaN off the
    projected support; ``H_residual`` = H(x, df_x) + c0; and ``on_support``.
    """

    hamiltonian_residual_max: float
    slack_min: float
    slack_on_support_max: float
    duality_gap: float
    momentum_lipschitz_estimate: float
    boundary_residual_max: float
    f: np.ndarray = field(repr=False, compare=False)
    momentum: np.ndarray = field(repr=False, compare=False)
    momentum_spread: np.ndarray = field(repr=False, compare=False)
    H_residual: np.ndarray = field(repr=False, compare=False)
    on_support: np.ndarray = field(repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "hamiltonian_residual_max": self.hamiltonian_residual_max,
            "slack_min": self.slack_min,
            "slack_on_support_max": self.slack_on_support_max,
            "duality_gap": self.duality_gap,
            "momentum_lipschitz_estimate": self.momentum_lipschitz_estimate,
            "boundary_residual_max": self.boundary_residual_max,
        }


def discrete_hamiltonian(table: LagrangianTable, p) -> np.ndarray:
    """H(x, p_x) = max over the stencil of p_x(v) - L(x, v), for every node.

    ``p`` holds one covector value per edge, shape (N, M): the edge-wise
    pairing p_x(v), e.g. a discrete differential.  For a certificate,
    H(x, df_x) + c0 = -min over the fiber of the slack g(x, .), so it
    vanishes on the support of an exact optimum: the discrete energy
    conservation principle.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != table.values.shape:
        raise ValueError("p must supply one value per edge")
    return np.max(p - table.values, axis=1)


# Values per intermediate array of the blocked pair scan.
LIPSCHITZ_BLOCK = 1 << 16


def estimate_momentum_lipschitz(momentum, usable, grid: PhaseGrid) -> float:
    """max over pairs of usable nodes of |p(x) - p(y)| / dist(x, y).

    ``momentum`` holds one covector per node, shape (N, d); ``usable`` is a
    boolean mask of the nodes to compare.  Returns 0 with fewer than two
    usable nodes.  Shrinking the mask can only shrink the estimate.  Each node is compared with every later node, a block of rows
    at a time, so memory stays at about LIPSCHITZ_BLOCK values per array.
    """
    nodes = np.flatnonzero(usable)
    s = len(nodes)
    if s < 2:
        return 0.0
    vals = momentum[nodes]
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
    envelope: LagrangianTable,
    current: BoundaryCurrent | None = None,
) -> DiagnosticsReport:
    """Aggregate verification of one solved instance.

    ``current`` is the problem's boundary data (None for the closed case);
    it enters the boundary residual, and the duality gap through the
    certificate's pairing <c, f>.  Inputs must share one grid.
    """
    current_grid = None if current is None else current.grid
    grid = same_grid(table.grid, solution.measure.grid, cert.grid, envelope.grid, current_grid)

    mu = solution.measure
    duality_gap = abs(mu.action(table) - (cert.critical_constant * mu.mass + cert.current_pairing))

    bm = boundary_of_measure(mu)
    target = current.to_dense() if current is not None else np.zeros(grid.num_nodes)
    boundary_residual = float(np.max(np.abs(bm.to_dense() - target))) if grid.num_nodes else 0.0

    on_support = np.zeros(grid.num_nodes, dtype=bool)
    on_support[mu.support_nodes()] = True
    df = discrete_differential(cert.potential, grid)
    h_resid = discrete_hamiltonian(table, df) + cert.critical_constant
    energy = float(np.max(np.abs(h_resid[on_support]), initial=0.0))

    momentum, spread, any_endpoint = momentum_field(envelope, mu)
    usable = on_support & ~any_endpoint
    if current is not None:
        usable[current.support()] = False
    lip = estimate_momentum_lipschitz(momentum, usable, grid)

    return DiagnosticsReport(
        hamiltonian_residual_max=energy,
        slack_min=cert.slack_min,
        slack_on_support_max=cert.slack_on_support(mu),
        duality_gap=duality_gap,
        momentum_lipschitz_estimate=lip,
        boundary_residual_max=boundary_residual,
        f=cert.potential,
        momentum=momentum,
        momentum_spread=spread,
        H_residual=h_resid,
        on_support=on_support,
    )


@dataclass
class MeasureResult:
    """One solution of a closed (``current`` None) or boundary problem, with its proof."""

    table: LagrangianTable
    current: BoundaryCurrent | None
    solution: OptimalSolution
    certificate: DualCertificate
    envelope: LagrangianTable
    report: DiagnosticsReport

    def checks(self, tol: float) -> list[Check]:
        """The conditions that prove the solution optimal, at the bound ``tol``:
        dual feasibility, complementary slackness, energy conservation, a zero
        duality gap, the current as the boundary, and mass one if closed."""
        r = self.report
        out = [
            Check("slack_min", r.slack_min, 0.0, tol, "dual feasibility: g >= 0", "ge"),
            Check("slack_on_support_max", r.slack_on_support_max, 0.0, tol, "identity: g = 0 on supp", "le"),
            Check("hamiltonian_residual_max", r.hamiltonian_residual_max, 0.0, tol, "identity: energy", "le"),
            Check("duality_gap", r.duality_gap, 0.0, tol, "identity: zero duality gap", "le"),
            Check("boundary_residual_max", r.boundary_residual_max, 0.0, tol, "feasibility: boundary", "le"),
        ]
        if self.current is None:
            out.append(Check("mass_one", self.solution.measure.mass, 1.0, tol, "feasibility: mass"))
        return out

    def criteria(self, tol: float) -> dict[str, bool]:
        """``checks(tol)`` as a map of name to passed."""
        return {c.name: c.passed for c in self.checks(tol)}


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
