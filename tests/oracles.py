"""Independent reference computations used to check the solvers.

Everything here is deliberately written differently from the package: plain
loops, exhaustive enumeration, quadratic-scan shortest paths, and (for the 2D
envelope) an external LP solver.  These stay independent of the code paths
they validate.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np


def simple_cycle_min_mean(num_nodes: int, edges) -> float | None:
    """Minimum mean over all node-simple directed cycles, by exhaustive DFS.

    ``edges`` is a list of (tail, head, cost); parallel edges collapse to the
    cheapest one, which cannot change the minimum mean.  Feasible only for
    small graphs.
    """
    best_cost: dict[tuple[int, int], float] = {}
    for t, h, c in edges:
        key = (int(t), int(h))
        if key not in best_cost or c < best_cost[key]:
            best_cost[key] = float(c)
    adj: dict[int, list[int]] = {v: [] for v in range(num_nodes)}
    for (t, h) in best_cost:
        adj[t].append(h)

    best: float | None = None

    def consider(total: float, length: int):
        nonlocal best
        mean = total / length
        if best is None or mean < best:
            best = mean

    for start in range(num_nodes):
        # smallest-node canonical start: only visit nodes >= start
        stack = [(start, 0.0, frozenset([start]))]
        while stack:
            node, total, visited = stack.pop()
            for nxt in adj[node]:
                cost = best_cost[(node, nxt)]
                if nxt == start:
                    consider(total + cost, len(visited))
                elif nxt > start and nxt not in visited:
                    stack.append((nxt, total + cost, visited | {nxt}))
    return best


def independent_karp(num_nodes: int, edges) -> float:
    """Karp's formula written plainly, from node 0, assuming every node is
    reachable from it (a strongly connected graph, for one)."""
    INF = float("inf")
    d = [[INF] * num_nodes for _ in range(num_nodes + 1)]
    d[0][0] = 0.0
    for k in range(1, num_nodes + 1):
        row = d[k]
        prev = d[k - 1]
        for t, h, c in edges:
            if prev[t] + c < row[h]:
                row[h] = prev[t] + c
    best = INF
    for v in range(num_nodes):
        if d[num_nodes][v] == INF:
            continue
        worst = -INF
        for k in range(num_nodes):
            if d[k][v] == INF:
                continue
            ratio = (d[num_nodes][v] - d[k][v]) / (num_nodes - k)
            if ratio > worst:
                worst = ratio
        if worst < best:
            best = worst
    return best


def scan_dijkstra(num_nodes: int, edges, source: int) -> list[float]:
    """O(V^2) label-setting shortest paths (nonnegative costs)."""
    INF = float("inf")
    dist = [INF] * num_nodes
    dist[source] = 0.0
    done = [False] * num_nodes
    for _ in range(num_nodes):
        u, best = -1, INF
        for v in range(num_nodes):
            if not done[v] and dist[v] < best:
                u, best = v, dist[v]
        if u < 0:
            break
        done[u] = True
        for t, h, c in edges:
            if t == u and dist[u] + c < dist[h]:
                dist[h] = dist[u] + c
    return dist


def affine_minorant_max_1d(vs, ys, v_star: float) -> float:
    """sup over affine minorants of the samples, evaluated at v_star.

    Candidate slopes come from all sample pairs (LP basis argument); for each
    slope the best intercept is min_i(y_i - a v_i).
    """
    vs = list(map(float, vs))
    ys = list(map(float, ys))
    m = len(vs)
    best = min(ys[i] - 0.0 * vs[i] for i in range(m)) + 0.0 * v_star  # slope 0
    for i in range(m):
        for j in range(i + 1, m):
            if vs[i] == vs[j]:
                continue
            a = (ys[j] - ys[i]) / (vs[j] - vs[i])
            b = min(ys[k] - a * vs[k] for k in range(m))
            best = max(best, a * v_star + b)
    return best


def affine_minorant_max_2d(pts, ys, p_star) -> float:
    """Same in 2D, via an LP: maximize p.v* + b s.t. p.v_i + b <= y_i."""
    from scipy.optimize import linprog

    pts = np.asarray(pts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    c = -np.array([p_star[0], p_star[1], 1.0])
    A = np.column_stack([pts, np.ones(len(pts))])
    res = linprog(c, A_ub=A, b_ub=ys, bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(-res.fun)


def enumerate_control_cost(problem, start: int) -> float:
    """Cheapest full-horizon cost from one state, by enumerating control sequences."""
    S, T, A = problem.ell.shape
    best = float("inf")
    for seq in itertools.product(range(A), repeat=T):
        s = start
        total = 0.0
        ok = True
        for j, a in enumerate(seq):
            if problem.move[s, a] < 0:
                ok = False
                break
            total += problem.time_step * problem.ell[s, j, a]
            s = int(problem.move[s, a])
        if ok and total < best:
            best = total
    return best


def grid_edges(table):
    """Edge triples (tail, head, cost) of a Lagrangian table, in edge order."""
    grid = table.grid
    out = []
    for node in range(grid.num_nodes):
        for m in range(grid.num_offsets):
            out.append((node, int(grid.neighbors[node, m]), float(table.values[node, m])))
    return out


def loop_action(table, mu) -> float:
    """sum of L * w over a measure, one edge at a time in the measure's order."""
    total = 0.0
    for (node, m), w in mu.weights.items():
        total += float(table.values[node, m]) * w
    return total


def loop_boundary_of_measure(mu) -> dict:
    """Nonzero node charges (inflow - outflow)/h of a measure: each edge in
    the measure's order adds w/h to its head's charge, then -w/h to its tail's."""
    h = mu.grid.time_step
    charges: dict = {}
    for (node, m), w in mu.weights.items():
        head = int(mu.grid.neighbors[node, m])
        charges[head] = charges.get(head, 0.0) + w / h
        charges[node] = charges.get(node, 0.0) - w / h
    return {x: c for x, c in charges.items() if c != 0.0}


# The lattice numbering by explicit per-axis arithmetic: nodes (and control
# states) in [0, n)^d and stencil offsets in [-K, K]^d, each in lexicographic
# order.

# the lattices the numbering is checked on: d, nodes per axis, stencil radius
LATTICES = [(d, n, k) for d in (1, 2) for n in (2, 3, 5, 8) for k in (1, 2, 3)]


def loop_sum(terms) -> float:
    """The floats added one at a time from 0.0, each sum rounded: the plain
    order that Python before 3.12 gives ``sum`` over floats."""
    total = 0.0
    for t in terms:
        total += t
    return total


def loop_node_index(coords, n: int) -> int:
    """Index of the node with coordinates (i,) or (i, j): i, or i*n + j."""
    if len(coords) == 1:
        return int(coords[0])
    i, j = coords
    return int(i) * n + int(j)


def loop_offset_index(grid, offset) -> int:
    """Row of ``grid.offsets`` equal to the integer offset vector ``offset``
    (a number in 1-D), by a scan of the rows."""
    k = tuple(np.atleast_1d(offset).tolist())
    for m, row in enumerate(grid.offsets.tolist()):
        if tuple(row) == k:
            return m
    raise ValueError(f"offset {k} outside stencil radius {grid.stencil_radius}")


def loop_torus_grid(d: int, n: int, K: int) -> dict:
    """Node coordinates, offsets, neighbors and positions of the d-torus grid
    with n nodes per axis and stencil radius K, one entry at a time."""
    axis = range(n)
    stencil = range(-K, K + 1)
    if d == 1:
        coords = [(i,) for i in axis]
        offsets = [(k,) for k in stencil]
    else:
        coords = [(i, j) for i in axis for j in axis]
        offsets = [(a, b) for a in stencil for b in stencil]
    neighbors = [
        [loop_node_index([(c + k) % n for c, k in zip(x, o)], n) for o in offsets]
        for x in coords
    ]
    dx = 1.0 / n
    return {
        "coords": np.array(coords),
        "offsets": np.array(offsets),
        "neighbors": np.array(neighbors),
        "positions": np.array([[c * dx for c in x] for x in coords]),
    }


def loop_sample_lagrangian(grid, lagrangian) -> np.ndarray:
    """(N, M) values of L(x, v), node by node and offset by offset; the
    callback gets floats in 1-D and rows of ``positions`` / ``velocities``
    in 2-D."""
    def arg(points, i):
        return float(points[i][0]) if grid.dim == 1 else points[i]

    values = np.empty((grid.num_nodes, grid.num_offsets))
    for x in range(grid.num_nodes):
        for m in range(grid.num_offsets):
            values[x, m] = lagrangian(arg(grid.positions, x), arg(grid.velocities, m))
    return values


def loop_fiber_slopes(grid, env):
    """(grad, endpoint) of an (N, M) table of envelope values, one fibre,
    offset and velocity axis at a time.

    Along axis a at offset k the backward quotient is (env(k) - env(k - e_a))
    / dv and the forward one (env(k + e_a) - env(k)) / dv, dv = dx / h.  At a
    stencil end only one exists and stands for both; grad is their midpoint.
    """
    d, K = grid.dim, grid.stencil_radius
    dv = grid.spacing / grid.time_step
    offsets = [tuple(o) for o in loop_torus_grid(d, grid.nodes_per_dim, K)["offsets"].tolist()]
    where = {o: m for m, o in enumerate(offsets)}
    grad = np.empty((grid.num_nodes, len(offsets), d))
    endpoint = np.zeros((grid.num_nodes, len(offsets)), dtype=bool)
    for x in range(grid.num_nodes):
        for m, o in enumerate(offsets):
            endpoint[x, m] = any(abs(c) == K for c in o)
            for a in range(d):
                down = where.get(o[:a] + (o[a] - 1,) + o[a + 1 :])
                up = where.get(o[:a] + (o[a] + 1,) + o[a + 1 :])
                lo = None if down is None else (env[x, m] - env[x, down]) / dv
                hi = None if up is None else (env[x, up] - env[x, m]) / dv
                lo = hi if lo is None else lo
                hi = lo if hi is None else hi
                grad[x, m, a] = 0.5 * (lo + hi)
    return grad, endpoint


def loop_supports(dim: int, radius: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stencil point, (index (C, 3), weight (C, 3)) arrays of its
    singleton, segment and triangle convex representations, one candidate at
    a time: segments (i, j, i) with weights (1 - lam, lam, 0) for the points
    strictly inside them, triangles (i, j, k) with all three barycentric
    weights positive.  A 1-D stencil lies on the first axis of the plane."""
    pts = [
        tuple(p) + (0,) * (2 - dim)
        for p in itertools.product(range(-radius, radius + 1), repeat=dim)
    ]
    m = len(pts)
    out = []
    for t in range(m):
        px, py = pts[t]
        idx_rows = [(t, t, t)]
        wt_rows = [(1.0, 0.0, 0.0)]
        for i, j in itertools.combinations(range(m), 2):
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            rx, ry = px - pts[i][0], py - pts[i][1]
            if dx * ry - dy * rx != 0:
                continue
            num, denom = rx * dx + ry * dy, dx * dx + dy * dy
            if 0 < num < denom:
                lam = num / denom
                idx_rows.append((i, j, i))
                wt_rows.append((1.0 - lam, lam, 0.0))
        for i, j, k in itertools.combinations(range(m), 3):
            ux, uy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            vx, vy = pts[k][0] - pts[i][0], pts[k][1] - pts[i][1]
            det = ux * vy - uy * vx
            if det == 0:
                continue
            rx, ry = px - pts[i][0], py - pts[i][1]
            lj = (rx * vy - ry * vx) / det
            lk = (ux * ry - uy * rx) / det
            li = 1.0 - lj - lk
            if lj > 0.0 and lk > 0.0 and li > 0.0:
                idx_rows.append((i, j, k))
                wt_rows.append((li, lj, lk))
        out.append((np.array(idx_rows, dtype=int), np.array(wt_rows)))
    return out


def loop_convex_envelope(table, supports):
    """Envelope values of a table, one fibre and stencil point at a time: the
    least (y_i w_i + y_j w_j) + y_k w_k over the point's representations in
    ``supports`` (a list like ``loop_supports``'s)."""
    y = table.values
    env = np.empty_like(y)
    for x in range(y.shape[0]):
        for t, (idx, wts) in enumerate(supports):
            a, b, c = (y[x, idx[:, col]] * wts[:, col] for col in range(3))
            env[x, t] = ((a + b) + c).min()
    return env


def loop_lower_hull_1d(y) -> np.ndarray:
    """Lower convex hull values of the points (i, y[i]) at every integer i, by
    Andrew's monotone chain: chord values y[p] + slope * (i - p)."""
    m = len(y)
    hull = [0]
    for i in range(1, m):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # pop b when it is not strictly below the chord a -> i
            if (b - a) * (y[i] - y[a]) - (y[b] - y[a]) * (i - a) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    env = np.empty(m)
    for p, q in zip(hull[:-1], hull[1:]):
        slope = (y[q] - y[p]) / (q - p)
        for i in range(p, q + 1):
            env[i] = y[p] + slope * (i - p)
    env[hull[0]] = y[hull[0]]
    env[hull[-1]] = y[hull[-1]]
    return env


def loop_minimum_mean_cycle(heads, costs):
    """Howard's policy iteration with the eta test in every round: each round
    gathers eta over all (V, M) out-edges, even when one mean holds
    everywhere.  Policies are evaluated by ``network._evaluate_policy``, so
    ``network.minimum_mean_cycle`` must give the same value and bias bit for
    bit in the same number of evaluations."""
    from actionlab import network

    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    num_nodes = len(heads)
    node = np.arange(num_nodes)
    spread = float(costs.max() - costs.min())
    tol = network.cost_tolerance(spread, num_nodes)

    policy = costs.argmin(axis=1)
    for _ in range(num_nodes + heads.size):
        eta, bias = network._evaluate_policy(heads[node, policy], costs[node, policy])
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
        raise RuntimeError("policy iteration did not settle")
    return float(eta.min()), bias


def random_closed_instance(rng, max_n=64, max_k=2):
    """Random d=1 torus instance with costs in [-1, 1]."""
    from actionlab import LagrangianTable, build_torus_grid

    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    h = float(rng.choice([0.25, 0.5, 1.0]))
    grid = build_torus_grid(1, n, k, h)
    values = rng.uniform(-1.0, 1.0, size=(grid.num_nodes, grid.num_offsets))
    return LagrangianTable(grid=grid, values=values)


# Per-element loop forms of the control checks.  They are the reference the
# array code in actionlab.control must match bit for bit: the float operations
# are the same, only their batching differs.


def loop_collapse_duplicates(move, ell):
    """Cheapest control per (state, target, time); lowest index wins ties."""
    S, T, A = ell.shape
    active = np.zeros((S, T, A), dtype=bool)
    collapses = []
    for s in range(S):
        groups: dict[int, list[int]] = {}
        for a in range(A):
            if move[s, a] >= 0:
                groups.setdefault(int(move[s, a]), []).append(a)
        for _target, members in sorted(groups.items()):
            for j in range(T):
                kept = members[int(np.argmin([ell[s, j, a] for a in members]))]
                active[s, j, kept] = True
                collapses += [(s, j, a, kept) for a in members if a != kept]
    return active, collapses


def loop_value_function(p, active):
    """Backward DP over only the arcs ``active`` (S, T, A) marks: the
    duration-indexed values and controls, the lowest control winning ties."""
    S, T, A = p.ell.shape
    v = np.zeros((S, T + 1))
    argmin = np.full((S, T + 1), -1, dtype=int)
    for t in range(1, T + 1):
        j = T - t
        for s in range(S):
            best = np.inf
            for a in range(A):
                if active[s, j, a]:
                    cand = p.time_step * p.ell[s, j, a] + v[p.move[s, a], t - 1]
                    if cand < best:
                        best, argmin[s, t] = cand, a
            v[s, t] = best
    return v, argmin


def loop_reachable(problem, supplied):
    S, T, A = problem.ell.shape
    reach = np.zeros((S, T + 1), dtype=bool)
    for s in supplied:
        reach[s, 0] = True
    for j in range(T):
        for s in np.flatnonzero(reach[:, j]):
            for a in range(A):
                if problem.move[s, a] >= 0:
                    reach[problem.move[s, a], j + 1] = True
    return reach


def loop_maximum_principle(cert, measure):
    """(max |w| on the support, min w over reachable admissible arcs off it)."""
    p = cert.problem
    S, T, A = p.ell.shape
    on_max, off_min = 0.0, np.inf
    for j in range(T):
        for s in range(S):
            for a in range(A):
                if measure[s, j, a] > 0:
                    on_max = max(on_max, abs(float(cert.w[s, j, a])))
                elif cert.reachable[s, j] and p.move[s, a] >= 0:
                    off_min = min(off_min, float(cert.w[s, j, a]))
    return on_max, (off_min if np.isfinite(off_min) else 0.0)


def loop_hjb_residual(vf, p):
    """max |v_t + H(x, t, v_x)| over the nodes of the policy paths from t = 0."""
    S, T, A = p.ell.shape
    dt, dx, n, v = p.time_step, p.spacing, p.nodes_per_axis, vf.v
    nodes = set()
    for s in range(S):
        nodes.add((s, 0))
        for j in range(T):
            s = int(p.move[s, vf.argmin_control[s, T - j]])
            nodes.add((s, j + 1))
    worst = 0.0
    for s, j in sorted(nodes):
        td = T - j
        if td == 0:
            v_t = (v[s, 1] - v[s, 0]) / dt
        elif td == T:
            v_t = (v[s, T] - v[s, T - 1]) / dt
        else:
            v_t = (v[s, td + 1] - v[s, td - 1]) / (2 * dt)
        coords = [s] if p.state_dim == 1 else [s // n, s % n]
        grad = np.zeros(p.state_dim)
        for axis in range(p.state_dim):
            up, dn = list(coords), list(coords)
            up[axis] = min(coords[axis] + 1, n - 1)
            dn[axis] = max(coords[axis] - 1, 0)
            su = up[0] if p.state_dim == 1 else up[0] * n + up[1]
            sd = dn[0] if p.state_dim == 1 else dn[0] * n + dn[1]
            grad[axis] = (v[su, td] - v[sd, td]) / ((up[axis] - dn[axis]) * dx)
        ham = -np.inf
        for a in range(A):
            if p.move[s, a] >= 0:
                f_vel = p.steps[s, a] * dx / dt
                slope = loop_sum(float(f) * float(g) for f, g in zip(f_vel, grad))
                ham = max(ham, -slope - p.ell[s, min(j, T - 1), a])
        worst = max(worst, abs(v_t + ham))
    return float(worst)


def loop_u_v_residual(cert, trajectory):
    """Accumulated-cost identity along a trajectory, by a forward arrival DP."""
    p = cert.problem
    S, T, A = p.ell.shape
    dt, y = p.time_step, [int(s) for s in trajectory]
    arrival = np.full((S, len(y)), np.inf)
    arrival[y[0], 0] = 0.0
    for j in range(len(y) - 1):
        for s in np.flatnonzero(np.isfinite(arrival[:, j])):
            for a in range(A):
                if p.active[s, j, a]:
                    t = p.move[s, a]
                    arrival[t, j + 1] = min(arrival[t, j + 1], arrival[s, j] + dt * p.ell[s, j, a])
    worst = 0.0
    for j, s in enumerate(y):
        rhs = cert.u[s, j] - cert.u[y[0], 0] + cert.c0 * (j * dt)
        worst = max(worst, abs(float(arrival[s, j] - rhs)))
    return worst


def flow_relaxed_lp(p, init):
    """The relaxed control LP as a generic min-cost flow: (flow, potentials, value).

    The layered graph as flat arcs in (j, s, a) order, node j*S + s for
    state s at time node j, then one zero-cost arc from every final node
    into a sink that demands the whole initial mass ``init`` (S,), solved
    by ``network.min_cost_flow``.  ``flow`` is (S, T, A), the min-cost flow's
    arc flows (0 off its support), ``potentials`` the flow's node
    potentials (the sink last) and ``value`` sum(flow * dt * ell), added
    plainly in arc order (``loop_sum``).
    """
    from actionlab import network

    S, T, A = p.ell.shape
    j, s, a = np.nonzero(p.active.transpose(1, 0, 2))
    sink = S * (T + 1)
    tails = np.concatenate([j * S + s, T * S + np.arange(S)])
    heads = np.concatenate([(j + 1) * S + p.move[s, a], np.full(S, sink)])
    costs = np.concatenate([p.time_step * p.ell[s, j, a], np.zeros(S)])
    b = np.zeros(sink + 1)
    b[:S] = -init
    b[sink] = init.sum()
    result = network.min_cost_flow(sink + 1, tails, heads, costs, b)
    assert result.status == network.OPTIMAL, result.status
    arc_flow = result.flow[: len(s)]
    keep = arc_flow > 0.0
    flow = np.zeros((S, T, A))
    flow[s[keep], j[keep], a[keep]] = arc_flow[keep]
    value = loop_sum((p.time_step * arc_flow[keep] * p.ell[s[keep], j[keep], a[keep]]).tolist())
    return flow, result.potentials, value


def _loop_clean(obj):
    """JSON-encodable copy; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _loop_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_loop_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [_loop_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def loop_write_json(path, payload) -> None:
    """The JSON writer's byte reference: a cleaned copy through the json
    module's own indented encoder."""
    text = json.dumps(_loop_clean(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


# Row-loop CSV writers: the row-by-row form of the serialize writers, kept
# as the byte reference for their column form.


def _loop_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _loop_node_cols(grid, node):
    n = grid.nodes_per_dim
    if grid.dim == 1:
        return [node]
    return [node // n, node % n]


def _loop_node_header(grid, base="node"):
    if grid.dim == 1:
        return [base]
    return [f"{base}_i", f"{base}_j"]


def _loop_offset_header(grid):
    if grid.dim == 1:
        return ["offset"]
    return ["offset_i", "offset_j"]


def loop_write_lagrangian_csv(path, table):
    grid = table.grid
    header = _loop_node_header(grid) + _loop_offset_header(grid) + ["value"]
    rows = []
    for node in range(grid.num_nodes):
        for m in range(grid.num_offsets):
            rows.append(
                _loop_node_cols(grid, node)
                + [int(k) for k in grid.offsets[m]]
                + [float(table.values[node, m])]
            )
    _loop_write_csv(path, header, rows)


def loop_write_measure_csv(path, mu):
    grid = mu.grid
    header = _loop_node_header(grid) + _loop_offset_header(grid) + ["weight"]
    rows = []
    for (node, m), w in sorted(mu.weights.items()):
        rows.append(
            _loop_node_cols(grid, node) + [int(k) for k in grid.offsets[m]] + [float(w)]
        )
    _loop_write_csv(path, header, rows)


def loop_write_current_csv(path, current):
    grid = current.grid
    header = _loop_node_header(grid) + ["charge"]
    rows = [
        _loop_node_cols(grid, node) + [float(c)] for node, c in sorted(current.charges.items())
    ]
    _loop_write_csv(path, header, rows)


def loop_write_slack_csv(path, cert):
    grid = cert.grid
    header = _loop_node_header(grid) + _loop_offset_header(grid) + ["g"]
    rows = []
    for node in range(grid.num_nodes):
        for m in range(grid.num_offsets):
            rows.append(
                _loop_node_cols(grid, node)
                + [int(k) for k in grid.offsets[m]]
                + [float(cert.slack[node, m])]
            )
    _loop_write_csv(path, header, rows)


def loop_write_envelope_csv(path, table, env):
    grid = table.grid
    K = grid.stencil_radius
    header = _loop_node_header(grid) + _loop_offset_header(grid) + ["L_tilde", "endpoint"]
    rows = []
    for node in range(grid.num_nodes):
        for m in range(grid.num_offsets):
            rows.append(
                _loop_node_cols(grid, node)
                + [int(k) for k in grid.offsets[m]]
                + [float(env.values[node, m]), int(any(abs(c) == K for c in grid.offsets[m]))]
            )
    _loop_write_csv(path, header, rows)


def read_envelope_csv(grid, path):
    """(values, grad, endpoint) of an envelope CSV: L_tilde and the endpoint
    flag as written, the fiber slopes rebuilt from L_tilde by
    ``loop_fiber_slopes``."""
    d = grid.dim
    values = np.full((grid.num_nodes, grid.num_offsets), np.nan)
    endpoint = np.zeros(values.shape, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader)[2 * d :] == ["L_tilde", "endpoint"]
        for row in reader:
            node = loop_node_index([int(c) for c in row[:d]], grid.nodes_per_dim)
            m = loop_offset_index(grid, [int(c) for c in row[d : 2 * d]])
            values[node, m] = float(row[2 * d])
            endpoint[node, m] = {"0": False, "1": True}[row[2 * d + 1]]
    assert not np.isnan(values).any(), "envelope CSV does not cover every edge"
    return values, loop_fiber_slopes(grid, values)[0], endpoint


def loop_node_table(table, solution, cert, envelope):
    """The node table as one dict per node, built one edge at a time.

    Momentum: the envelope slope at each supported velocity, in ascending
    offset order, averaged as a running sum; spread: the largest component
    distance over every pair of those slopes; H: max over the stencil of
    df - L, plus c0.  Off the support, momentum and spread are None.  Each
    dict also says whether a supported velocity is a stencil endpoint.
    """
    grid = table.grid
    h = grid.time_step
    grad, endpoint = loop_fiber_slopes(grid, envelope.values)
    f = [float(v) for v in cert.potential]
    c0 = float(cert.critical_constant)
    offsets = {}
    for node, m in sorted(solution.measure.weights):
        offsets.setdefault(node, []).append(m)
    rows = []
    for x in range(grid.num_nodes):
        ham = max(
            (f[int(grid.neighbors[x, m])] - f[x]) / h - float(table.values[x, m])
            for m in range(grid.num_offsets)
        )
        row = {"node": x, "f": f[x], "momentum": None, "momentum_spread": None,
               "H_residual": ham + c0, "on_support": x in offsets, "any_endpoint": False}
        if x in offsets:
            slopes = [[float(g) for g in grad[x, m]] for m in offsets[x]]
            total = [0.0] * grid.dim
            for slope in slopes:
                for c in range(grid.dim):
                    total[c] += slope[c]
            mean = [t / len(slopes) for t in total]
            spread = 0.0
            for i, j in itertools.combinations(range(len(slopes)), 2):
                spread = max(spread, max(abs(a - b) for a, b in zip(slopes[i], slopes[j])))
            row.update(
                momentum=mean[0] if grid.dim == 1 else mean,
                momentum_spread=spread,
                any_endpoint=any(bool(endpoint[x, m]) for m in offsets[x]),
            )
        rows.append(row)
    return rows


def loop_energy_residual(rows) -> float:
    """max over support nodes of |H(x, df_x) + c0|, from loop_node_table rows."""
    return max((abs(r["H_residual"]) for r in rows if r["on_support"]), default=0.0)


def loop_write_node_table_csv(path, grid, rows):
    """The node table CSV from loop_node_table rows."""
    header = _loop_node_header(grid) + [
        "f", "momentum", "momentum_spread", "H_residual", "on_support"
    ]
    out = []
    for entry in rows:
        mom = entry["momentum"]
        if mom is not None and not np.isscalar(mom):
            mom = "|".join(repr(float(v)) for v in np.atleast_1d(mom))
        out.append(
            _loop_node_cols(grid, entry["node"])
            + [
                float(entry["f"]),
                "" if mom is None else mom,
                "" if entry["momentum_spread"] is None else float(entry["momentum_spread"]),
                float(entry["H_residual"]),
                int(entry["on_support"]),
            ]
        )
    _loop_write_csv(path, header, out)


def loop_write_value_function_csv(path, vf):
    p = vf.problem
    header = (["x"] if p.state_dim == 1 else ["x_i", "x_j"]) + ["t", "v", "argmin_control"]
    rows = []
    coords = p.coords.tolist()
    for s in range(p.num_states):
        for t_idx in range(p.num_steps + 1):
            a = int(vf.argmin_control[s, t_idx])
            rows.append(
                coords[s]
                + [
                    float(t_idx * p.time_step),
                    float(vf.v[s, t_idx]),
                    "" if a < 0 else repr(p.controls[a]),
                ]
            )
    _loop_write_csv(path, header, rows)


# Loop forms of the boundary hot paths: per-node edge lists and numpy-scalar
# reads for the min-cost flow, a Python pair loop for the Lipschitz estimate.
# The package's CSR and array code must match them bit for bit: the float
# operations and their order are the same.  ``loop_ssp_min_cost_flow``, one
# augmenting path per Dijkstra, is the exception: it checks the status and
# the optimal value only.


def _loop_adjacency(num_nodes, tails):
    """Out-edge ids per node, ascending."""
    adj = [[] for _ in range(num_nodes)]
    for e, t in enumerate(tails):
        adj[int(t)].append(e)
    return adj


def loop_min_cost_flow(num_nodes, tails, heads, costs, imbalance):
    """Successive shortest paths in phases, one numpy scalar per arc read.

    Same algorithm, tie-breaks and float operations as
    ``network.min_cost_flow``: each phase runs one Dijkstra from every supply
    node at distance 0, each node remembering the supply node its tree path
    starts at (``root``), and augments the tree path of every deficit node
    as it settles; it stops after min(#supply, #deficit) deficit nodes have
    settled and raises the potential by the distances capped at the last
    one settled.  It reads each in-edge's flow as it scans the edge, where
    the solver reads its reverse arcs off the flow once per phase.
    """
    import heapq

    from actionlab.network import (
        AUGMENTATIONS_PER_ELEMENT,
        INFEASIBLE,
        MASS_TOL,
        OPTIMAL,
        UNBOUNDED,
        FlowResult,
        cost_tolerance,
        relax_to_fixpoint,
    )

    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    b = np.asarray(imbalance, dtype=float).copy()
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

    out_edges = _loop_adjacency(num_nodes, tails)
    in_edges = _loop_adjacency(num_nodes, heads)
    for _ in range(AUGMENTATIONS_PER_ELEMENT * (num_nodes + num_edges + 1)):
        sources = [v for v in range(num_nodes) if b[v] < -zero]
        if not sources:
            break
        deficits = [v for v in range(num_nodes) if b[v] > zero]
        wanted = min(len(sources), len(deficits))

        dist = np.full(num_nodes, np.inf)
        root = np.full(num_nodes, -1)
        pred = {}
        done = np.zeros(num_nodes, dtype=bool)
        heap = []
        for s in sources:
            dist[s] = 0.0
            root[s] = s
            heapq.heappush(heap, (0.0, s))
        settled = 0
        last = 0.0
        while heap:
            dv, v = heapq.heappop(heap)
            if done[v] or dv > dist[v]:
                continue
            done[v] = True
            last = dv
            if b[v] > zero:
                s = int(root[v])
                path = []
                amount = min(-b[s], b[v])
                u = v
                while u != s:
                    e, direction = pred[u]
                    path.append((e, direction))
                    if direction < 0:
                        amount = min(amount, flow[e])
                        u = int(heads[e])
                    else:
                        u = int(tails[e])
                if amount > zero:
                    for e, direction in path:
                        flow[e] += direction * amount
                        if flow[e] <= zero:
                            flow[e] = 0.0
                    b[s] += amount
                    b[v] -= amount
                settled += 1
                if settled == wanted:
                    break
            for e in out_edges[v]:
                rc = costs[e] + pot[v] - pot[heads[e]]
                nd = dv + max(rc, 0.0)
                w = int(heads[e])
                if nd < dist[w]:
                    dist[w] = nd
                    root[w] = root[v]
                    pred[w] = (e, +1)
                    heapq.heappush(heap, (nd, w))
            for e in in_edges[v]:
                if flow[e] <= zero:
                    continue
                rc = -costs[e] + pot[v] - pot[tails[e]]
                nd = dv + max(rc, 0.0)
                w = int(tails[e])
                if nd < dist[w]:
                    dist[w] = nd
                    root[w] = root[v]
                    pred[w] = (e, -1)
                    heapq.heappush(heap, (nd, w))
        if settled == 0:
            return FlowResult(INFEASIBLE, flow, pot, float("inf"))
        pot += np.minimum(dist, last)
    else:
        raise RuntimeError("loop_min_cost_flow failed to terminate")

    value = float(np.dot(costs, flow))
    return FlowResult(OPTIMAL, flow, pot, value)


def loop_ssp_min_cost_flow(num_nodes, tails, heads, costs, imbalance):
    """Successive shortest paths, one Dijkstra from the smallest-index supply
    node per augmentation, one numpy scalar per arc read.

    The textbook form that ``network.min_cost_flow`` ran before its phases:
    same tolerances and statuses, so it is the reference for the optimal
    value and the status, not for the flow or the potentials.
    """
    import heapq

    from actionlab.network import (
        AUGMENTATIONS_PER_ELEMENT,
        INFEASIBLE,
        MASS_TOL,
        OPTIMAL,
        UNBOUNDED,
        FlowResult,
        cost_tolerance,
        relax_to_fixpoint,
    )

    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    b = np.asarray(imbalance, dtype=float).copy()
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

    out_edges = _loop_adjacency(num_nodes, tails)
    in_edges = _loop_adjacency(num_nodes, heads)
    for _ in range(AUGMENTATIONS_PER_ELEMENT * (num_nodes + num_edges + 1)):
        sources = np.flatnonzero(b < -zero)
        if len(sources) == 0:
            break
        s = int(sources[0])

        dist = np.full(num_nodes, np.inf)
        dist[s] = 0.0
        pred = {}
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
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = (e, +1)
                    heapq.heappush(heap, (nd, w))
            for e in in_edges[v]:
                if flow[e] <= zero:
                    continue
                rc = -costs[e] + pot[v] - pot[tails[e]]
                nd = dv + max(rc, 0.0)
                w = int(tails[e])
                if nd < dist[w]:
                    dist[w] = nd
                    pred[w] = (e, -1)
                    heapq.heappush(heap, (nd, w))
        if target < 0:
            return FlowResult(INFEASIBLE, flow, pot, float("inf"))

        path = []
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
            if flow[e] <= zero:
                flow[e] = 0.0
        b[s] += amount
        b[target] -= amount
        pot += np.minimum(dist, dist[target])
    else:
        raise RuntimeError("loop_ssp_min_cost_flow failed to terminate")

    value = float(np.dot(costs, flow))
    return FlowResult(OPTIMAL, flow, pot, value)


def torus_distance(grid, x: int, y: int) -> float:
    """l-infinity wraparound distance between two nodes."""
    px, py = grid.positions[x], grid.positions[y]
    delta = np.abs(px - py)
    delta = np.minimum(delta, 1.0 - delta)
    return float(delta.max())


def loop_momentum_lipschitz(momenta: dict, grid, exclusion=()) -> float:
    """max over node pairs outside the exclusion set of |p(x) - p(y)| / dist(x, y),
    one pair at a time; pairs at distance 0 are skipped."""
    excl = set(exclusion)
    nodes = sorted(x for x in momenta if x not in excl)
    if len(nodes) < 2:
        return 0.0
    vals = [np.atleast_1d(np.asarray(momenta[x], dtype=float)) for x in nodes]
    best = 0.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            dist = torus_distance(grid, nodes[i], nodes[j])
            if dist == 0.0:
                continue
            diff = float(np.max(np.abs(vals[i] - vals[j])))
            best = max(best, diff / dist)
    return best


# The weak-KAM route to the closed potential: the backward value update,
# iterated from zero.  It computes what network.relax_to_fixpoint computes on
# the reduced costs h*(L - c0) with tol=0, and is kept here as the reference
# for that identity and for the fixed-point tests.

CONVERGED = "CONVERGED"
NON_CONVERGED = "NON_CONVERGED"


def lax_oleinik_backward(f0, table, c0: float) -> np.ndarray:
    """One backward value-update step: T[f](x) = min over in-edges (y -> x) of
    f(y) + h*(L - c0).

    Order preserving and min-plus linear: T[f + a] = T[f] + a.
    """
    grid = table.grid
    f0 = np.asarray(f0, dtype=float)
    step = grid.time_step * (table.values - c0)
    out = np.full(grid.num_nodes, np.inf)
    cand = f0[:, None] + step
    np.minimum.at(out, grid.neighbors.ravel(), cand.ravel())
    return out


@dataclasses.dataclass
class WeakKamResult:
    potential: np.ndarray
    converged: bool
    iterations: int

    @property
    def status(self) -> str:
        return CONVERGED if self.converged else NON_CONVERGED


def weak_kam_iterate(table, c0: float) -> WeakKamResult:
    """Fixed-point route to a dual-feasible potential: f <- min(f, T_backward[f]).

    Starting from f = 0, the iteration stabilizes within num_nodes sweeps iff
    the reduced costs L - c0 carry no negative-mean cycle (c0 at most the
    critical constant); a negative reduced cycle drives f to -inf, reported as
    NON_CONVERGED after num_nodes + 1 sweeps.  ``iterations`` counts the
    sweeps run.  The limit satisfies L >= c0 + df.
    """
    grid = table.grid
    max_iters = grid.num_nodes + 1
    f = np.zeros(grid.num_nodes)
    for it in range(1, max_iters + 1):
        new = np.minimum(f, lax_oleinik_backward(f, table, c0))
        if np.array_equal(new, f):
            return WeakKamResult(potential=f, converged=True, iterations=it)
        f = new
    return WeakKamResult(potential=f, converged=False, iterations=max_iters)


# Row-loop CSV readers: the row-by-row form of the serialize readers (one csv
# row, float() and int() per field, the checks in order), kept as the value
# and message reference for the column reader.


def _loop_csv_rows(path):
    """(line number, row) for each non-blank row after the header line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"CSV file {path} is empty")
        for row in reader:
            if row:
                yield reader.line_num, row


def _loop_integers(path, line: int, fields) -> list[int]:
    """Integer coordinates or indices, written as 3 or 3.0; 1.7 is an error."""
    out = []
    for v in fields:
        x = float(v)
        if not x.is_integer():
            raise ValueError(f"{path} line {line}: {v!r} is not an integer")
        out.append(int(x))
    return out


def _loop_index(path, line: int, value: int, size: int, what: str) -> int:
    if not 0 <= value < size:
        raise ValueError(f"{path} line {line}: {what} {value} is outside [0, {size})")
    return value


def _loop_point(path, line: int, fields, n: int) -> int:
    coords = _loop_integers(path, line, fields)
    for c in coords:
        _loop_index(path, line, c, n, "coordinate")
    return loop_node_index(coords, n)


def _loop_edge_rows(grid, path):
    d = grid.dim
    for line, row in _loop_csv_rows(path):
        node = _loop_point(path, line, row[:d], grid.nodes_per_dim)
        try:
            m = loop_offset_index(grid, _loop_integers(path, line, row[d : 2 * d]))
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from None
        yield node, m, float(row[2 * d])


def loop_read_lagrangian_csv(grid, path):
    values = np.full((grid.num_nodes, grid.num_offsets), np.nan)
    for node, m, val in _loop_edge_rows(grid, path):
        values[node, m] = val
    if np.isnan(values).any():
        raise ValueError(f"Lagrangian CSV {path} does not cover every edge")
    return values


def loop_read_measure_csv(grid, path) -> dict:
    weights = {}
    for node, m, w in _loop_edge_rows(grid, path):
        weights[(node, m)] = w
    return weights


def loop_read_current_csv(grid, path) -> dict:
    d = grid.dim
    charges = {}
    for line, row in _loop_csv_rows(path):
        charges[_loop_point(path, line, row[:d], grid.nodes_per_dim)] = float(row[d])
    return charges


def loop_read_initial_csv(num_states: int, state_dim: int, n: int, path) -> np.ndarray:
    init = np.zeros(num_states)
    for line, row in _loop_csv_rows(path):
        init[_loop_point(path, line, row[:state_dim], n)] = float(row[state_dim])
    return init


def loop_read_control_tables(path, state_dim: int, n: int, num_steps: int, num_controls: int):
    """(move, steps, ell) of a control bundle's dynamics and cost CSVs, ``path``
    being the bundle JSON; a dynamics row whose target leaves the box is
    skipped."""
    path = Path(path)
    desc = json.loads(path.read_text())
    S, T, A = n**state_dim, num_steps, num_controls
    move = np.full((S, A), -1, dtype=int)
    steps = np.zeros((S, A, state_dim), dtype=int)
    ell = np.full((S, T, A), np.nan)
    dynamics_csv = path.parent / desc["dynamics_csv"]
    for line, row in _loop_csv_rows(dynamics_csv):
        fields = _loop_integers(dynamics_csv, line, row[: 2 * state_dim + 1])
        coords, step = fields[:state_dim], fields[state_dim + 1 :]
        s = _loop_point(dynamics_csv, line, row[:state_dim], n)
        a = _loop_index(dynamics_csv, line, fields[state_dim], A, "control index")
        target = [c + k for c, k in zip(coords, step)]
        if all(0 <= c < n for c in target):
            steps[s, a] = step
            move[s, a] = loop_node_index(target, n)
    costs_csv = path.parent / desc["costs_csv"]
    for line, row in _loop_csv_rows(costs_csv):
        fields = _loop_integers(costs_csv, line, row[: state_dim + 2])
        s = _loop_point(costs_csv, line, row[:state_dim], n)
        j = _loop_index(costs_csv, line, fields[state_dim], T, "time index")
        a = _loop_index(costs_csv, line, fields[state_dim + 1], A, "control index")
        ell[s, j, a] = float(row[state_dim + 2])
    if np.isnan(ell).any():
        raise ValueError("cost CSV does not cover every (state, time, control)")
    return move, steps, ell
