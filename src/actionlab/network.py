"""Combinatorial solvers on directed graphs with real edge costs.

Graphs are given as parallel arrays (tails, heads, costs); parallel edges and
self-loops are allowed.  These routines back both the phase-space LP solvers
and the time-layered optimal-control LP; all desk-scale sizes, exact
combinatorial algorithms instead of general-purpose LP.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "strongly_connected_components",
    "karp_minimum_mean_cycle",
    "relax_to_fixpoint",
    "min_cost_flow",
    "FlowResult",
]

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"

# Imbalances below MASS_TOL * max(1, total |imbalance|) count as settled.
MASS_TOL = 1e-13
# Successive shortest paths stop with an error after this many augmentations
# per node and edge.
AUGMENTATIONS_PER_ELEMENT = 50


def _adjacency(num_nodes: int, tails: np.ndarray) -> list[list[int]]:
    """Out-edge ids per node, ascending (edge order is the tie-break order)."""
    adj: list[list[int]] = [[] for _ in range(num_nodes)]
    for e, t in enumerate(tails):
        adj[int(t)].append(e)
    return adj


def strongly_connected_components(num_nodes, tails, heads) -> np.ndarray:
    """Component label per node (iterative Tarjan).

    Labels are renumbered so that the node with the smallest index gets the
    smallest label among components it could be compared with; only equality
    of labels is meaningful.
    """
    adj = _adjacency(num_nodes, tails)
    index = np.full(num_nodes, -1, dtype=int)
    low = np.zeros(num_nodes, dtype=int)
    on_stack = np.zeros(num_nodes, dtype=bool)
    comp = np.full(num_nodes, -1, dtype=int)
    stack: list[int] = []
    counter = 0
    ncomp = 0

    for root in range(num_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(adj[v]):
                w = int(heads[adj[v][ei]])
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def karp_minimum_mean_cycle(num_nodes, tails, heads, costs) -> float | None:
    """Minimum mean cycle weight, or None if the graph is acyclic.

    Karp's dynamic program is run inside each strongly connected component:
    with d_k(v) the minimum weight of a k-edge walk from a fixed source,
    the component's value is min_v max_k (d_m(v) - d_k(v)) / (m - k).
    O(V*E) per component, exact up to float rounding.
    """
    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    comp = strongly_connected_components(num_nodes, tails, heads)

    best: float | None = None
    for c in range(comp.max() + 1):
        nodes = np.flatnonzero(comp == c)
        m = len(nodes)
        mask = (comp[tails] == c) & (comp[heads] == c)
        if not mask.any():
            continue  # no cycle through a component with no internal edge
        local = -np.ones(num_nodes, dtype=int)
        local[nodes] = np.arange(m)
        et = local[tails[mask]]
        eh = local[heads[mask]]
        ec = costs[mask]

        d = np.full((m + 1, m), np.inf)
        d[0, 0] = 0.0  # source: smallest-index node of the component
        for k in range(1, m + 1):
            row = np.full(m, np.inf)
            cand = d[k - 1, et] + ec
            np.minimum.at(row, eh, cand)
            d[k] = row

        reach = np.isfinite(d[m])
        if not reach.any():
            continue
        with np.errstate(invalid="ignore"):
            ratios = (d[m][None, :] - d[:m]) / (m - np.arange(m))[:, None]
        ratios[~np.isfinite(d[:m])] = -np.inf
        per_node = ratios.max(axis=0)
        val = float(per_node[reach].min())
        if best is None or val < best:
            best = val
    return best


def relax_to_fixpoint(num_nodes, tails, heads, costs, tol: float = 0.0):
    """Virtual-source Bellman-Ford: smallest walk cost into each node, from 0.

    Starting from the all-zero potential, relaxes every edge until stable.
    Returns (potential, converged); converged is False when improvements keep
    exceeding ``tol`` after num_nodes rounds, which certifies a negative cycle
    (up to the tolerance).
    """
    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    pot = np.zeros(num_nodes)
    for _ in range(num_nodes + 1):
        new = pot.copy()
        np.minimum.at(new, heads, pot[tails] + costs)
        gain = float(np.max(pot - new)) if num_nodes else 0.0
        pot = new
        if gain <= tol:
            return pot, True
    return pot, False


@dataclass
class FlowResult:
    status: str
    flow: np.ndarray  # per edge
    potentials: np.ndarray  # per node; dual-feasible, tight on flow arcs
    value: float


def min_cost_flow(num_nodes, tails, heads, costs, imbalance) -> FlowResult:
    """Uncapacitated min-cost flow by successive shortest paths.

    ``imbalance[v]`` is the required net inflow at v (negative = supply);
    entries must sum to ~0.  Any negative-cost directed cycle makes the
    problem UNBOUNDED (circulations are free to add); disconnected supply
    and demand make it INFEASIBLE.  Dijkstra runs on reduced costs, with
    initial potentials from the virtual-source Bellman-Ford pass, so all
    reduced costs stay nonnegative throughout.
    """
    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    b = np.asarray(imbalance, dtype=float).copy()
    num_edges = len(tails)
    flow = np.zeros(num_edges)

    scale = float(np.max(np.abs(costs))) if num_edges else 1.0
    neg_tol = 1e-12 * max(1.0, scale) * max(1, num_nodes)
    pot, ok = relax_to_fixpoint(num_nodes, tails, heads, costs, tol=neg_tol)
    if not ok:
        return FlowResult(UNBOUNDED, flow, pot, float("-inf"))

    supply_scale = float(np.sum(np.abs(b)))
    if supply_scale == 0.0:
        return FlowResult(OPTIMAL, flow, pot, 0.0)
    zero = MASS_TOL * max(1.0, supply_scale)

    out_edges = _adjacency(num_nodes, tails)
    in_edges = _adjacency(num_nodes, heads)
    for _ in range(AUGMENTATIONS_PER_ELEMENT * (num_nodes + num_edges + 1)):
        sources = np.flatnonzero(b < -zero)
        if len(sources) == 0:
            break
        s = int(sources[0])

        # Dijkstra on the residual graph with reduced costs.
        dist = np.full(num_nodes, np.inf)
        dist[s] = 0.0
        pred: dict[int, tuple[int, int]] = {}  # node -> (edge, direction)
        done = np.zeros(num_nodes, dtype=bool)
        heap = [(0.0, s)]
        target = -1
        while heap:
            dv, v = heapq.heappop(heap)
            if done[v] or dv > dist[v]:
                continue
            done[v] = True
            if b[v] > zero:
                target = v
                break
            for e in out_edges[v]:
                rc = costs[e] + pot[v] - pot[heads[e]]
                nd = dv + max(rc, 0.0)
                w = int(heads[e])
                if nd < dist[w] - 1e-18:
                    dist[w] = nd
                    pred[w] = (e, +1)
                    heapq.heappush(heap, (nd, w))
            for e in in_edges[v]:
                if flow[e] <= zero:
                    continue
                rc = -costs[e] + pot[v] - pot[tails[e]]
                nd = dv + max(rc, 0.0)
                w = int(tails[e])
                if nd < dist[w] - 1e-18:
                    dist[w] = nd
                    pred[w] = (e, -1)
                    heapq.heappush(heap, (nd, w))
        if target < 0:
            return FlowResult(INFEASIBLE, flow, pot, float("inf"))

        # Trace the augmenting path and the amount it can carry.
        path: list[tuple[int, int]] = []
        v = target
        amount = min(-b[s], b[target])
        while v != s:
            e, direction = pred[v]
            path.append((e, direction))
            if direction < 0:
                amount = min(amount, flow[e])
                v = int(heads[e])
            else:
                v = int(tails[e])
        for e, direction in path:
            flow[e] += direction * amount
            if flow[e] < 0.0:
                flow[e] = 0.0
        b[s] += amount
        b[target] -= amount
        pot += np.minimum(dist, dist[target])
    else:
        raise RuntimeError("min_cost_flow failed to terminate; solver bug")

    value = float(np.dot(costs, flow))
    return FlowResult(OPTIMAL, flow, pot, value)
