"""Dual certificates: the decomposition L = c0 + df + g and its fixed-point route.

A certificate consists of a node potential f, the critical constant c0, and
the edge slack g defined exactly by g = L - c0 - df.  Dual feasibility is
g >= 0 everywhere; complementary slackness forces g = 0 on the support of any
optimal measure.  In this finite setting the decomposition is exact, with no
limiting sequence.

The closed potential is the Bellman-Ford fixpoint of the reduced costs
h*(L - c0), which is also the fixed point of the backward value update
f <- min(f, T[f]) (the weak-KAM route).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import BoundaryCurrent, DiscreteMeasure, LagrangianTable, discrete_differential, same_grid
from . import network
from .network import OPTIMAL

__all__ = [
    "DualCertificate",
    "certify_closed",
    "certify_boundary",
]


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Potential f on nodes, critical constant c0, and slack g = L - c0 - df."""

    grid: object
    potential: np.ndarray = field(repr=False)  # (N,)
    slack: np.ndarray = field(repr=False)  # (N, M)
    critical_constant: float = 0.0
    normalization_node: int = 0
    current_pairing: float = 0.0  # <c, f>; zero in the closed case

    @property
    def slack_min(self) -> float:
        return float(self.slack.min())

    def slack_on_support(self, mu: DiscreteMeasure) -> float:
        ids = mu.edge_ids()
        return float(self.slack.ravel()[ids].max()) if len(ids) else 0.0


def _finish_certificate(table, pot, c0, support, current=None):
    """The certificate of ``pot`` shifted to vanish at the first ``support`` node, or node 0."""
    normalization_node = support[0] if support else 0
    f = pot - pot[normalization_node]
    g = table.values - c0 - discrete_differential(f, table.grid)
    return DualCertificate(
        grid=table.grid,
        potential=f,
        critical_constant=float(c0),
        slack=g,
        normalization_node=int(normalization_node),
        current_pairing=float(current.pairing(f)) if current is not None else 0.0,
    )


def _describe(table: LagrangianTable) -> str:
    grid = table.grid
    return (
        f"the table on grid d={grid.dim}, n={grid.nodes_per_dim}, k={grid.stencil_radius} "
        f"with L in [{float(table.values.min())!r}, {float(table.values.max())!r}]"
    )


def certify_closed(table: LagrangianTable, solution) -> DualCertificate:
    """Certificate for a closed-case optimum: c0 = value, f from shortest walks.

    The potential is the virtual-source Bellman-Ford fixpoint of the reduced
    edge weights h*(L - c0), normalized to vanish at the smallest node of the
    projected support.  Along any cycle of total reduced weight zero the
    shortest-walk inequalities telescope to equalities, so the slack vanishes
    on the support of every optimal measure, not just the one supplied.
    """
    if solution.status != OPTIMAL:
        raise ValueError(f"cannot certify a solution with status {solution.status}")
    grid = same_grid(table.grid, solution.measure.grid)
    c0 = solution.value
    n = grid.num_nodes
    tails, heads = grid.edge_endpoints
    red = grid.time_step * (table.values.ravel() - c0)
    tol = network.cost_tolerance(float(red.max() - red.min()), n)
    pot, ok = network.relax_to_fixpoint(n, tails, heads, red, tol=tol)
    if not ok:
        # c0 is a rounded sum of up to n costs, so it may lie up to n units in
        # its last place above the critical constant: retry from below that
        rounding = n * grid.time_step * float(np.spacing(abs(c0)))
        pot, ok = network.relax_to_fixpoint(n, tails, heads, red + rounding, tol=tol)
    if not ok:
        raise RuntimeError(
            f"reduced costs h*(L - c0) admit a negative cycle: c0 = {c0!r} is not the "
            f"critical constant of {_describe(table)}, tolerance {tol!r}"
        )
    return _finish_certificate(table, pot, c0, solution.measure.support_nodes())


def certify_boundary(
    table: LagrangianTable, current: BoundaryCurrent, solution
) -> DualCertificate:
    """Certificate for a boundary-case optimum, in the c0-absorbed form (c0 = 0).

    Potentials are shortest-walk values on the residual graph of the optimal
    flow (forward arcs at cost h*L, backward arcs at -h*L on the support), so
    L >= df everywhere with equality on the support.  A negative residual
    cycle means the input was not optimal and is reported as a fault.  Also
    records the pairing <c, f>, which equals the optimal value exactly.

    One route, wherever the solution came from.  The flow's dual for h*L,
    ``solution.potential`` or, when that is None (a file), the dual of the
    flow ``solve_boundary`` solves, is tight on the support of every optimal
    measure (complementary slackness), so it orders one Dijkstra to the
    fixpoint the relaxation reaches from zero; it carries each augmentation's
    rounding, so it is not the start itself.  The relaxation is the test.
    """
    if solution.status != OPTIMAL:
        raise ValueError(f"cannot certify a solution with status {solution.status}")
    grid = same_grid(table.grid, current.grid, solution.measure.grid)
    n = grid.num_nodes
    h = grid.time_step
    fwd_tails, fwd_heads = grid.edge_endpoints
    values = table.values.ravel()
    if solution.potential is None:
        flow = network.min_cost_flow(n, fwd_tails, fwd_heads, values, h * current.to_dense())
        guide = h * flow.potentials
    else:
        guide = _checked_guide(solution.potential, n)

    fwd_costs = h * values
    back = solution.measure.edge_ids()
    tails = np.concatenate([fwd_tails, fwd_heads[back]])
    heads = np.concatenate([fwd_heads, fwd_tails[back]])
    costs = np.concatenate([fwd_costs, -fwd_costs[back]])

    start = network.dijkstra_fixpoint(n, tails, heads, costs, guide)
    tol = network.cost_tolerance(float(costs.max() - costs.min()), n)
    pot, ok = network.relax_to_fixpoint(n, tails, heads, costs, tol=tol, start=start)
    if not ok:
        raise RuntimeError(
            "residual graph has a negative cycle: the supplied solution is not optimal "
            f"for {_describe(table)}, tolerance {tol!r}"
        )
    return _finish_certificate(table, pot, 0.0, solution.measure.support_nodes(), current)


def _checked_guide(potential, num_nodes: int) -> np.ndarray:
    """The solver's potential as the search guide; a bad one is an error, never ignored."""
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (num_nodes,):
        raise ValueError(
            f"solution potential must have one value per node ({num_nodes}), "
            f"got shape {potential.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(potential))
    if len(bad):
        node = int(bad[0])
        raise ValueError(f"solution potential is not finite at node {node}: {float(potential[node])!r}")
    return potential
