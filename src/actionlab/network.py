"""Combinatorial solvers on directed graphs with real edge costs.

Graphs are given as parallel arrays (tails, heads, costs), or as (V, M) head
and cost tables for the minimum mean cycle; parallel edges and self-loops are
allowed.  These routines back the phase-space LP solvers; all desk-scale
sizes, exact combinatorial algorithms instead of general-purpose LP: Tarjan's
strongly connected components, Howard's policy iteration for the minimum mean
cycle, Bellman-Ford and Dijkstra for potentials, and the uncapacitated
min-cost flow by successive shortest paths, run in phases that augment every
deficit node one multi-source Dijkstra settles.  The searches scan CSR
tables without self-loops, exactly: a self-loop changes no Tarjan low-link and
shortens no path under nonnegative reduced costs, and Bellman-Ford still
relaxes every edge, so a negative self-loop stays a negative cycle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "strongly_connected_components",
    "cost_tolerance",
    "minimum_mean_cycle",
    "relax_to_fixpoint",
    "dijkstra_fixpoint",
    "min_cost_flow",
    "FlowResult",
]

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"

# Imbalances and flows at or below MASS_TOL * total |imbalance| count as zero.
MASS_TOL = 1e-13
# Successive shortest paths stop with an error after this many phases per node
# and edge; every phase augments at least once, so at least as many
# augmentations were made.
AUGMENTATIONS_PER_ELEMENT = 50


def _csr(num_nodes: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids except self-loops, by tail: node v's are ``order[first[v]:first[v + 1]]``,
    ascending within each node (edge order is the tie-break order)."""
    keep = np.flatnonzero(tails != heads)
    order = keep[np.argsort(tails[keep], kind="stable")]
    first = np.zeros(num_nodes + 1, dtype=int)
    np.cumsum(np.bincount(tails[keep], minlength=num_nodes), out=first[1:])
    return order, first


def strongly_connected_components(num_nodes, tails, heads) -> np.ndarray:
    """Component label per node (iterative Tarjan).

    Labels are renumbered so that the node with the smallest index gets the
    smallest label among components it could be compared with; only equality
    of labels is meaningful.
    """
    heads = np.asarray(heads, dtype=int)
    order, first = _csr(num_nodes, np.asarray(tails, dtype=int), heads)
    succ = heads[order].tolist()
    first = first.tolist()
    index = [-1] * num_nodes
    low = [0] * num_nodes
    on_stack = [False] * num_nodes
    comp = [-1] * num_nodes
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
            while first[v] + ei < first[v + 1]:
                w = succ[first[v] + ei]
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
    return np.array(comp, dtype=int)


def cost_tolerance(spread: float, num_nodes: int) -> float:
    """Round-off allowance for sums of up to ``num_nodes`` costs that lie in an
    interval of width ``spread``.

    Relative to the spread alone, with no absolute floor, so the comparisons
    made on costs a*L + b (a > 0) are those made on L.  The factor covers the
    error of a sum of num_nodes such terms formed by pointer doubling: about
    log2(num_nodes) machine epsilons per term, below 1e-14 for any graph
    that fits in memory.
    """
    return 1e-14 * spread * max(1, num_nodes)


def minimum_mean_cycle(heads, costs) -> tuple[float, np.ndarray]:
    """Minimum mean cycle weight and a bias potential of a graph whose nodes
    all have M out-edges: node v's m-th out-edge goes to ``heads[v, m]`` at
    cost ``costs[v, m]``, both (V, M) tables.

    Howard's policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick &
    Quadrat 1998) in O(V * M) memory.  Every node keeps one out-edge (its
    policy).  Each round evaluates the policy, giving per node the mean eta of
    the policy cycle it reaches and the bias x (the policy path's cost of
    c - eta down to that cycle's smallest node, where x = 0), then improves
    it: every node with an out-edge into a node of smaller eta switches to
    its first out-edge of smallest eta; when no node has one, nodes switch to
    their first out-edge e = (u, w) of equal eta minimizing c(e) - eta + x(w),
    if that is below x(u) by more than ``cost_tolerance`` of the cost spread.

    Returns ``(value, bias)``, the bias finite at every node.
    costs - value + bias[heads] - bias[:, None] >= -cost_tolerance on every
    edge whose head reaches a cycle of mean ``value``, which on a strongly
    connected graph, such as a torus grid, is every edge.
    """
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    num_nodes = len(heads)
    node = np.arange(num_nodes)
    spread = float(costs.max() - costs.min())
    tol = cost_tolerance(spread, num_nodes)

    policy = costs.argmin(axis=1)
    for _ in range(num_nodes + heads.size):
        eta, bias = _evaluate_policy(heads[node, policy], costs[node, policy])
        # argmin keeps the first of equal minima, as edge order breaks ties
        ahead = eta[heads]
        choice = ahead.argmin(axis=1)
        better = ahead[node, choice] < eta
        if not better.any():
            candidate = np.where(ahead == eta[:, None], costs - eta[:, None] + bias[heads], np.inf)
            choice = candidate.argmin(axis=1)
            better = candidate[node, choice] < bias - tol
            if not better.any():
                break
        policy[better] = choice[better]
    else:
        raise RuntimeError(
            f"policy iteration did not settle on {num_nodes} nodes and {heads.size} "
            f"edges with cost spread {spread!r}, tolerance {tol!r}; solver bug"
        )
    return float(eta.min()), bias


def _evaluate_policy(succ, weight):
    """Cycle mean reached and bias of every node of a functional graph.

    Pointer doubling: after ceil(log2 m) squarings, succ^(2^k) maps every node
    onto its policy cycle, whose smallest node is its root (bias 0); the bias
    of any other node sums weight - eta along its path to the root.
    """
    m = len(succ)
    index = np.arange(m)
    rounds = max(1, (m - 1).bit_length())
    jump, low = succ, index
    for _ in range(rounds):
        low = np.minimum(low, low[jump])
        jump = jump[jump]
    root = low[jump]
    on_cycle = np.zeros(m, dtype=bool)
    on_cycle[jump] = True
    total = np.bincount(root[on_cycle], weights=weight[on_cycle], minlength=m)
    length = np.bincount(root[on_cycle], minlength=m)
    eta = total[root] / length[root]

    is_root = root == index
    bias = np.where(is_root, 0.0, weight - eta)
    nxt = np.where(is_root, index, succ)
    for _ in range(rounds):
        bias = bias + bias[nxt]
        nxt = nxt[nxt]
    return eta, bias


def relax_to_fixpoint(num_nodes, tails, heads, costs, tol: float = 0.0, start=None):
    """Virtual-source Bellman-Ford: smallest walk cost into each node, from ``start``.

    The virtual source reaches node v at cost ``start[v]`` (zero when
    ``start`` is None); every edge is relaxed until stable.  Returns
    (potential, converged); converged is False when improvements keep
    exceeding ``tol`` after num_nodes rounds, which certifies a negative cycle
    (up to the tolerance) whatever the finite start.  A start that is already
    feasible, costs + start[tails] - start[heads] >= 0 on every edge, comes
    back unchanged after one round.
    """
    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    pot = np.zeros(num_nodes) if start is None else np.array(start, dtype=float)
    for _ in range(num_nodes + 1):
        new = pot.copy()
        np.minimum.at(new, heads, pot[tails] + costs)
        gain = float(np.max(pot - new)) if num_nodes else 0.0
        pot = new
        if gain <= tol:
            return pot, True
    return pot, False


def dijkstra_fixpoint(num_nodes, tails, heads, costs, guide) -> np.ndarray:
    """The potential ``relax_to_fixpoint`` reaches from zero, by one Dijkstra.

    Smallest walk cost into each node from a virtual source that reaches
    every node at cost 0.  ``guide`` is a potential under which the reduced
    costs costs + guide[tails] - guide[heads] are nonnegative up to rounding,
    such as the node potentials of ``min_cost_flow``, and it only orders the
    search: each node settles once, in order of its value minus its guide,
    at 0 or at its search-tree parent's value plus the edge cost.  Tree edges
    are therefore tight up to one rounding, whatever rounding ``guide``
    carries.  Nothing is checked here: the result is meant as the start of
    ``relax_to_fixpoint``, which settles in one round when the guide was
    right and in at most num_nodes rounds from any finite start.  Self-loops
    are not scanned: a node's own value is final before its out-edges are.
    """
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    guide = np.ascontiguousarray(guide, dtype=float)
    order, first = _csr(num_nodes, np.asarray(tails, dtype=int), heads)
    # memoryviews hand out Python scalars without building lists of them
    succ, step, shift = memoryview(heads[order]), memoryview(costs[order]), memoryview(guide)
    first = first.tolist()
    # every node starts at 0 and waits in the order of that value's key,
    # -guide, ties by index; the heap holds only the values improved since
    waiting = memoryview(np.argsort(-guide, kind="stable"))
    walk = [0.0] * num_nodes
    done = bytearray(num_nodes)
    heap: list[tuple[float, int]] = []
    k = 0
    while True:
        while k < num_nodes and done[waiting[k]]:
            k += 1
        if heap and (k == num_nodes or heap[0] < (-shift[waiting[k]], waiting[k])):
            v = heapq.heappop(heap)[1]
            if done[v]:
                continue
        elif k < num_nodes:
            v = waiting[k]
        else:
            break
        done[v] = 1
        fv = walk[v]
        for i in range(first[v], first[v + 1]):
            w = succ[i]
            nd = fv + step[i]
            if nd < walk[w] and not done[w]:
                walk[w] = nd
                heapq.heappush(heap, (nd - shift[w], w))
    return np.array(walk)


@dataclass
class FlowResult:
    status: str
    flow: np.ndarray  # per edge: 0 or above MASS_TOL * total |imbalance|
    # per node, in the units of ``costs`` (L for solve_boundary, not the
    # certificate's h*L): costs + potentials[tails] - potentials[heads] >= 0
    # on every edge and = 0 on the edges with flow, up to the rounding of one
    # capped Dijkstra distance vector added per phase
    potentials: np.ndarray
    value: float


def min_cost_flow(num_nodes, tails, heads, costs, imbalance) -> FlowResult:
    """Uncapacitated min-cost flow by successive shortest paths in phases.

    ``imbalance[v]`` is the required net inflow at v (negative = supply);
    entries must sum to ~0.  Any negative-cost directed cycle makes the
    problem UNBOUNDED (circulations are free to add); disconnected supply
    and demand make it INFEASIBLE.  Dijkstra runs on reduced costs, with
    initial potentials from the virtual-source Bellman-Ford pass, so all
    reduced costs stay nonnegative throughout.

    Each phase is the primal-dual step of Ahuja, Magnanti & Orlin (Network
    Flows, 1993, ch. 9): one Dijkstra starts from every supply node at
    distance 0, and each deficit node, as it settles, takes flow along its
    search-tree path from the supply node at the root, as much as the
    root's supply, its demand and the flow on the path's reverse arcs allow
    (none when that is not above the mass tolerance).  The phase ends once
    min(#supply, #deficit) deficit nodes have settled, or the search runs
    out of nodes, and adds the distances, capped at the last one settled, to
    the potentials.  The cap keeps every reduced cost nonnegative, and the
    augmented paths, all within it, tight.  A phase that settles no deficit
    node means INFEASIBLE; the first one settled always takes flow.  With a
    single supply or deficit node a phase is one classic augmentation.

    No tolerance depends on the costs' absolute size, so the status and the
    support do not change under costs -> a * costs (a > 0): the negative-cycle
    test allows ``cost_tolerance`` of the cost spread, and Dijkstra compares
    distances exactly.  Imbalances below ``MASS_TOL`` times the total
    |imbalance| count as settled, and a flow an augmentation leaves at or
    below that is set to 0, so imbalances times a > 0 keep the support too.

    Dijkstra reads the arcs through memoryviews, so its inner loop handles
    Python scalars, from CSR tables without self-loops (one would lead a
    node settled at d back to itself at d or more) built per phase with
    their reduced costs, clamped at 0, in array expressions: forward arcs by
    tail, and the reverse arcs of the edges with flow > 0, by head.  An
    augmentation changes only edges between settled nodes; the one arc the
    table misses, a new reverse arc out of the deficit node being settled,
    leads to a node settled no farther, so it would relax nothing.  Of equal
    distances a node keeps the first found, scanning out-edges and then
    in-edges in ascending id; the heap pops equal distances by node index.
    Pushes are strictly below the node's label, so a popped entry above the
    label is stale.
    """
    tails = np.ascontiguousarray(tails, dtype=int)
    heads = np.ascontiguousarray(heads, dtype=int)
    costs = np.ascontiguousarray(costs, dtype=float)
    b = np.array(imbalance, dtype=float)
    num_edges = len(tails)
    flow = np.zeros(num_edges)

    spread = float(costs.max() - costs.min()) if num_edges else 0.0
    neg_tol = cost_tolerance(spread, num_nodes)
    pot, ok = relax_to_fixpoint(num_nodes, tails, heads, costs, tol=neg_tol)
    if not ok:
        return FlowResult(UNBOUNDED, flow, pot, float("-inf"))

    supply_scale = float(np.sum(np.abs(b)))
    if supply_scale == 0.0:
        return FlowResult(OPTIMAL, flow, pot, 0.0)
    zero = MASS_TOL * supply_scale

    arc_ids, first = _csr(num_nodes, tails, heads)
    arc_heads, arc_costs, degree = heads[arc_ids], costs[arc_ids], np.diff(first)
    succ, edge_of, first = memoryview(arc_heads), memoryview(arc_ids), first.tolist()
    tail_of, head_of = memoryview(tails), memoryview(heads)
    flow_of, b_of = memoryview(flow), memoryview(b)
    inf = float("inf")
    limit = AUGMENTATIONS_PER_ELEMENT * (num_nodes + num_edges + 1)
    for _ in range(limit):
        sources = np.flatnonzero(b < -zero).tolist()
        if not sources:
            break
        wanted = min(len(sources), int(np.count_nonzero(b > zero)))
        # pot[tail] in CSR order is pot repeated by out-degree; where keeps -0.0
        red = (arc_costs + np.repeat(pot, degree)) - pot[arc_heads]
        red = memoryview(np.where(red < 0.0, 0.0, red))
        # the reverse arcs, one per edge with flow, by head
        carrying = np.flatnonzero(flow)
        order, back_first = _csr(num_nodes, heads[carrying], tails[carrying])
        back = carrying[order]
        back_red = (-costs[back] + pot[heads[back]]) - pot[tails[back]]
        back_red = memoryview(np.where(back_red < 0.0, 0.0, back_red))
        back_to, back_of = memoryview(tails[back]), memoryview(~back)
        back_first = back_first.tolist()

        # One Dijkstra on the residual graph with reduced costs, from every
        # supply node at distance 0; the heap pops equal distances by index.
        dist = [inf] * num_nodes
        for s in sources:
            dist[s] = 0.0
        heap = [(0.0, s) for s in sources]  # ascending, hence a heap
        # node -> edge id of its tree arc, ~id for a reverse arc; None at
        # the supply nodes, the roots of the search tree
        pred: list[int | None] = [None] * num_nodes
        settled = 0  # deficit nodes settled in this phase
        last = 0.0
        while heap:
            dv, v = heapq.heappop(heap)
            if dv > dist[v]:
                continue
            last = dv
            if b_of[v] > zero:
                # Augment along v's tree path from its root at once: every
                # node on it is settled, so the phase's reverse arcs stay exact.
                path: list[tuple[int, int]] = []
                amount = b_of[v]
                u = v
                while pred[u] is not None:
                    e = pred[u]
                    if e < 0:
                        e = ~e
                        path.append((e, -1))
                        amount = min(amount, flow_of[e])
                        u = head_of[e]
                    else:
                        path.append((e, 1))
                        u = tail_of[e]
                amount = min(amount, -b_of[u])
                if amount > zero:
                    for e, direction in path:
                        flow_of[e] += direction * amount
                        if flow_of[e] <= zero:
                            flow_of[e] = 0.0
                    b_of[u] += amount
                    b_of[v] -= amount
                settled += 1
                if settled == wanted:
                    break
            for i in range(first[v], first[v + 1]):
                w = succ[i]
                nd = dv + red[i]
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = edge_of[i]
                    heapq.heappush(heap, (nd, w))
            for i in range(back_first[v], back_first[v + 1]):
                w = back_to[i]
                nd = dv + back_red[i]
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = back_of[i]
                    heapq.heappush(heap, (nd, w))
        if not settled:
            return FlowResult(INFEASIBLE, flow, pot, float("inf"))
        pot += np.minimum(dist, last)
    else:
        raise RuntimeError(
            f"min_cost_flow did not finish in {limit} augmentations on {num_nodes} nodes and "
            f"{num_edges} edges with costs in [{float(costs.min())!r}, {float(costs.max())!r}], "
            f"mass tolerance {zero!r}; solver bug"
        )

    value = float(np.dot(costs, flow))
    return FlowResult(OPTIMAL, flow, pot, value)
