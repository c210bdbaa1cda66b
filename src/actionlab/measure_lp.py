"""Action minimization over closed and boundary-constrained discrete measures.

Two exact combinatorial solvers, per the two feasible sets:

* closed probability measures (circulations of mass one): the optimal value is
  the minimum mean cycle weight of the edge-cost graph, computed by Howard's
  policy iteration on the grid's own (V, M) tables of neighbors and costs;
  one achieving cycle is extracted deterministically by walking tight edges
  of the reduced costs under its bias potential.
* measures with a prescribed boundary current: uncapacitated min-cost flow
  with node imbalances h*c(x), solved by successive shortest paths after a
  Bellman-Ford negative-cycle pre-check; each phase runs one Dijkstra from
  every charge of supply and augments every demand charge it settles.

Solvers are pure functions of read-only inputs and safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import _describe
from .grid import BoundaryCurrent, DiscreteMeasure, LagrangianTable, same_grid
from . import network
from .network import INFEASIBLE, OPTIMAL, UNBOUNDED

__all__ = [
    "OptimalSolution",
    "solve_closed",
    "solve_boundary",
    "OPTIMAL",
    "UNBOUNDED",
    "INFEASIBLE",
]


@dataclass
class OptimalSolution:
    measure: DiscreteMeasure
    value: float
    status: str
    # the flow's node potential for the costs h*L, dual-feasible and tight on
    # the support up to rounding; None for the closed problem and for a
    # solution read from a file, whose certificate solves the flow again
    potential: np.ndarray | None = field(default=None, repr=False, compare=False)

    def summary(self) -> dict:
        return {"value": self.value, "status": self.status, "mass": self.measure.mass}


def solve_closed(table: LagrangianTable) -> OptimalSolution:
    """Minimize the mean action over closed probability measures.

    The feasible set is compact and nonempty (grids always contain cycles), so
    the status is always OPTIMAL.  The returned measure is uniform on one
    minimum-mean cycle, in walk order; ties are broken by starting a greedy
    walk at the smallest tight edge id, which makes the output deterministic.
    """
    grid = table.grid
    # The value is shift-equivariant: solve at the data's own scale, so that
    # slack and tolerance do not depend on an added constant.
    shifted = table.values - table.values.min()
    tol = network.cost_tolerance(float(shifted.max()), grid.num_nodes)
    lam, bias = network.minimum_mean_cycle(grid.neighbors, shifted)
    slack = shifted - lam + bias[grid.neighbors] - bias[:, None]
    cycle = _extract_tight_cycle(grid.neighbors, slack <= tol)
    if not cycle:
        raise RuntimeError(
            f"no tight cycle at mean {lam + float(table.values.min())!r} in {_describe(table)}, "
            f"tolerance {tol!r}; solver bug"
        )
    measure = DiscreteMeasure.on_edges(grid, cycle, np.full(len(cycle), 1.0 / len(cycle)))
    value = float(np.mean(table.values.ravel()[cycle]))
    return OptimalSolution(measure=measure, value=value, status=OPTIMAL)


def _extract_tight_cycle(heads, tight) -> list[int]:
    """One minimum-mean cycle, as edge ids in walk order; empty when no tight
    edge lies on a tight cycle.

    ``tight`` masks the grid's (V, M) ``heads`` table at the edges of zero
    slack under a feasible potential of the reduced costs L - lam.  Every
    cycle of tight edges has total reduced cost zero, hence mean cost lam, and
    the cyclic tight edges (both ends in one component of the tight subgraph)
    are the same for every feasible potential; walking each node's first
    cyclic offset from the smallest node with one therefore lands on the same
    optimal cycle after at most V steps.
    """
    nodes, offsets = np.nonzero(tight)  # ascending edge ids
    comp = network.strongly_connected_components(len(heads), nodes, heads[nodes, offsets])
    cyclic = tight & (comp[:, None] == comp[heads])
    if not cyclic.any():
        return []

    first = cyclic.argmax(axis=1).tolist()
    v = int(cyclic.any(axis=1).argmax())
    seen: dict[int, int] = {}
    walk: list[int] = []
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v * heads.shape[1] + first[v])
        v = int(heads[v, first[v]])
    return walk[seen[v]:]


def solve_boundary(table: LagrangianTable, current: BoundaryCurrent) -> OptimalSolution:
    """Minimize the action over measures with the prescribed boundary current.

    UNBOUNDED whenever any negative-cost directed cycle exists (adding that
    circulation preserves the boundary and lowers the cost without limit);
    INFEASIBLE when supply cannot reach demand; otherwise the min-cost flow
    with node imbalances h*c(x), on the edges with flow > 0.  The flow's node
    potentials, scaled by h to the certificate's costs h*L, ride along as
    ``potential``.
    """
    grid = same_grid(table.grid, current.grid)
    tails, heads = grid.edge_endpoints
    costs = table.values.ravel()
    b = grid.time_step * current.to_dense()

    result = network.min_cost_flow(grid.num_nodes, tails, heads, costs, b)
    if result.status != OPTIMAL:
        empty = DiscreteMeasure.on_edges(grid, [], [])
        return OptimalSolution(measure=empty, value=result.value, status=result.status)

    support = np.flatnonzero(result.flow)  # ascending edge ids
    measure = DiscreteMeasure.on_edges(grid, support, result.flow[support])
    value = measure.action(table)
    return OptimalSolution(
        measure=measure, value=value, status=OPTIMAL, potential=grid.time_step * result.potentials
    )
