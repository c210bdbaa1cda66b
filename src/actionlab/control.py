"""Finite-horizon optimal control on a box state grid with tabulated data.

The problem is discretized so that one time step moves each state exactly onto
another grid node: dynamics values f(x, a) must satisfy f*dt = (integer)*dx per
axis.  Two independent solvers are provided and cross-checked:

* backward dynamic programming for the value function (cost to go), and
* a min-cost flow over the time-layered graph for the relaxed measure LP,
  whose node potentials produce the certificate (u, c0, w) with
  ell = c0 + du o (f, 1) + w  on every arc, w >= 0, and w = 0 on the support.

The value table ``v(x, t)`` is indexed by the duration t left to run: v(x, t)
is the optimal cost of the final t-worth of the horizon started at x, so
v(x, 0) = 0 and v(x, t0) is the full-horizon value.  This is the convention
under which the one-step dynamic programming recursion closes and the
Hamilton-Jacobi-Bellman residual v_t + H(x, t, v_x) vanishes up to grid
truncation.

Backward DP layers are sequential; within a layer states are independent.  The
LP and all checks are pure functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import network
from .network import OPTIMAL

__all__ = [
    "ControlProblem",
    "ControlMeasure",
    "ValueFunction",
    "ControlCertificate",
    "RelaxedSolution",
    "make_control_problem",
    "solve_value_function",
    "solve_relaxed_lp",
    "certify_control",
    "hjb_residual",
    "maximum_principle_check",
    "check_u_v_relation",
    "extract_optimal_trajectories",
    "ControlResult",
    "run_control",
]


@dataclass(frozen=True)
class ControlProblem:
    """Tabulated finite-horizon problem data on a box grid.

    ``move[s, a]`` is the target state index after one step (or -1 when the
    step would leave the box, in which case the control is inadmissible at s).
    ``ell[s, j, a]`` is the running cost on the arc leaving state s at time
    node j under control a.  ``active`` marks admissible arcs that survived
    the duplicate-dynamics collapse: controls with identical (x, f(x, a)) keep
    only the cheapest representative per (s, j), mirroring the reduction of a
    control cost to a velocity-indexed Lagrangian.
    """

    state_dim: int
    nodes_per_axis: int
    origin: np.ndarray = field(repr=False, compare=False)  # (N,)
    spacing: float = 0.0
    controls: tuple = ()
    move: np.ndarray = field(repr=False, compare=False, default=None)  # (S, A)
    steps: np.ndarray = field(repr=False, compare=False, default=None)  # (S, A, N)
    ell: np.ndarray = field(repr=False, compare=False, default=None)  # (S, T, A)
    horizon: float = 0.0
    time_step: float = 0.0
    active: np.ndarray = field(repr=False, compare=False, default=None)  # (S, T, A)
    duplicate_collapses: tuple = ()

    @property
    def num_states(self) -> int:
        return self.nodes_per_axis**self.state_dim

    @property
    def num_steps(self) -> int:
        return self.ell.shape[1]

    def state_coords(self, s: int) -> tuple[int, ...]:
        n = self.nodes_per_axis
        if self.state_dim == 1:
            return (s,)
        return (s // n, s % n)

    def state_position(self, s: int):
        coords = np.array(self.state_coords(s), dtype=float)
        pos = self.origin + coords * self.spacing
        return float(pos[0]) if self.state_dim == 1 else pos

    def on_box_edge(self, s: int) -> bool:
        n = self.nodes_per_axis
        return any(c in (0, n - 1) for c in self.state_coords(s))


def make_control_problem(
    *,
    state_dim: int,
    nodes_per_axis: int,
    origin,
    spacing: float,
    controls,
    dynamics,
    running_cost,
    horizon: float,
    time_step: float,
) -> ControlProblem:
    """Sample dynamics and running cost into a ControlProblem.

    ``dynamics(x, a)`` returns the velocity (scalar for N=1, length-N array
    for N=2); ``running_cost(x, t, a)`` the cost rate.  Steps that would leave
    the box remove the control at that state; a state left with no admissible
    control at all is rejected.
    """
    if state_dim not in (1, 2):
        raise ValueError(f"state dimension must be 1 or 2, got {state_dim}")
    if nodes_per_axis < 2:
        raise ValueError("need at least 2 state nodes per axis")
    if not (time_step > 0 and horizon > 0):
        raise ValueError("horizon and time step must be positive")
    num_steps = int(round(horizon / time_step))
    if abs(num_steps * time_step - horizon) > 1e-9 * horizon or num_steps < 1:
        raise ValueError("horizon must be an integer number of time steps")

    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    controls = tuple(controls)
    n = nodes_per_axis
    S = n**state_dim
    A = len(controls)
    move = np.full((S, A), -1, dtype=int)
    steps = np.zeros((S, A, state_dim), dtype=int)
    ell = np.empty((S, num_steps, A))

    prob = ControlProblem(
        state_dim=state_dim,
        nodes_per_axis=n,
        origin=origin,
        spacing=float(spacing),
        controls=controls,
        move=move,
        steps=steps,
        ell=ell,
        horizon=float(horizon),
        time_step=float(time_step),
        active=None,
        duplicate_collapses=(),
    )

    for s in range(S):
        pos = prob.state_position(s)
        coords = np.array(prob.state_coords(s))
        for a, label in enumerate(controls):
            vel = np.atleast_1d(np.asarray(dynamics(pos, label), dtype=float))
            raw = vel * time_step / spacing
            step = np.rint(raw).astype(int)
            if np.max(np.abs(raw - step)) > 1e-9:
                raise ValueError(
                    f"dynamics not grid-compatible at state {s}, control "
                    f"{label!r}: f*dt/dx = {raw}"
                )
            target = coords + step
            if np.all((0 <= target) & (target < n)):
                steps[s, a] = step
                move[s, a] = int(target[0]) if state_dim == 1 else int(
                    target[0] * n + target[1]
                )
            for j in range(num_steps):
                val = running_cost(pos, j * time_step, label)
                if not np.isfinite(val):
                    raise ValueError(
                        f"running cost non-finite at state {s}, t index {j}, "
                        f"control {label!r}"
                    )
                ell[s, j, a] = val
        if not (move[s] >= 0).any():
            raise ValueError(f"state {s} has no admissible control")

    active, collapses = _collapse_duplicates(move, ell)
    return ControlProblem(
        state_dim=state_dim,
        nodes_per_axis=n,
        origin=origin,
        spacing=float(spacing),
        controls=controls,
        move=move,
        steps=steps,
        ell=ell,
        horizon=float(horizon),
        time_step=float(time_step),
        active=active,
        duplicate_collapses=tuple(collapses),
    )


def _collapse_duplicates(move: np.ndarray, ell: np.ndarray):
    """Keep the cheapest control among those with identical targets per (s, t)."""
    S, T, A = ell.shape
    active = np.zeros((S, T, A), dtype=bool)
    collapses = []
    for s in range(S):
        groups: dict[int, list[int]] = {}
        for a in range(A):
            if move[s, a] >= 0:
                groups.setdefault(int(move[s, a]), []).append(a)
        for _target, members in sorted(groups.items()):
            if len(members) == 1:
                active[s, :, members[0]] = True
                continue
            for j in range(T):
                costs = [ell[s, j, a] for a in members]
                kept = members[int(np.argmin(costs))]
                active[s, j, kept] = True
                for a in members:
                    if a != kept:
                        collapses.append((s, j, a, kept))
    return active, collapses


@dataclass(frozen=True)
class ControlMeasure:
    """Relaxed measure on (state, time node, control): weights are flow * dt."""

    weights: dict = field(repr=False, compare=False)

    @property
    def mass(self) -> float:
        return float(sum(self.weights.values()))

    def support(self) -> list[tuple[int, int, int]]:
        return sorted(self.weights)


@dataclass
class ValueFunction:
    """DP value table.

    ``v[x, t_index]`` is indexed by duration (t_index time steps remain);
    ``cost_to_go[x, j]`` is the same data indexed by clock time node j.
    ``argmin_control[x, t_index]`` is the control applied at x when t_index
    steps remain (-1 when nothing remains), with the lowest control index
    breaking ties.
    """

    problem: ControlProblem
    v: np.ndarray  # (S, T+1), duration-indexed
    argmin_control: np.ndarray  # (S, T+1)
    cost_to_go: np.ndarray  # (S, T+1), clock-indexed
    policy: np.ndarray  # (S, T), clock-indexed


def solve_value_function(p: ControlProblem) -> ValueFunction:
    """Backward dynamic programming over the time layers."""
    S, T, A = p.ell.shape
    dt = p.time_step
    ctg = np.zeros((S, T + 1))
    policy = np.zeros((S, T), dtype=int)
    for j in range(T - 1, -1, -1):
        cand = np.where(p.active[:, j, :], dt * p.ell[:, j, :], np.inf)
        targets = np.where(p.move >= 0, p.move, 0)
        cand = cand + ctg[targets, j + 1]
        policy[:, j] = np.argmin(cand, axis=1)
        ctg[:, j] = cand[np.arange(S), policy[:, j]]
    if not np.all(np.isfinite(ctg)):
        raise RuntimeError("value function is not finite; solver bug")

    v = ctg[:, ::-1].copy()
    argmin = np.full((S, T + 1), -1, dtype=int)
    argmin[:, 1:] = policy[:, ::-1]
    return ValueFunction(problem=p, v=v, argmin_control=argmin, cost_to_go=ctg, policy=policy)


def _layered_arcs(p: ControlProblem):
    """Deterministically ordered arc list of the time-layered graph."""
    S, T, A = p.ell.shape
    arcs = []  # (tail, head, cost, s, j, a)
    for j in range(T):
        for s in range(S):
            for a in range(A):
                if p.active[s, j, a]:
                    arcs.append(
                        (
                            j * S + s,
                            (j + 1) * S + int(p.move[s, a]),
                            p.time_step * p.ell[s, j, a],
                            s,
                            j,
                            a,
                        )
                    )
    sink = S * (T + 1)
    for s in range(S):
        arcs.append((T * S + s, sink, 0.0, s, T, -1))
    return arcs, sink


@dataclass
class RelaxedSolution:
    measure: ControlMeasure
    value: float
    status: str
    flow: np.ndarray  # (S, T, A)
    node_potentials: np.ndarray  # layered nodes, (S*(T+1) + 1,)
    initial: np.ndarray  # (S,)


def solve_relaxed_lp(p: ControlProblem, initial) -> RelaxedSolution:
    """Min-cost flow through the time-layered graph.

    ``initial`` is the supplied state distribution at t = 0 (array or dict);
    the final distribution is free (all mass drains into a sink).  The value
    equals the initial-weighted full-horizon DP value; the measure weighting
    is flow * dt so that sum(mu * ell) is the LP objective.
    """
    S, T, A = p.ell.shape
    init = np.zeros(S)
    if isinstance(initial, dict):
        for s, m in initial.items():
            init[int(s)] = float(m)
    else:
        init = np.asarray(initial, dtype=float).copy()
    if init.shape != (S,) or np.any(init < 0) or init.sum() <= 0:
        raise ValueError("initial distribution must be nonnegative with positive mass")

    arcs, sink = _layered_arcs(p)
    tails = np.array([a[0] for a in arcs], dtype=int)
    heads = np.array([a[1] for a in arcs], dtype=int)
    costs = np.array([a[2] for a in arcs], dtype=float)
    b = np.zeros(sink + 1)
    b[:S] = -init
    b[sink] = init.sum()

    result = network.min_cost_flow(sink + 1, tails, heads, costs, b)
    if result.status != OPTIMAL:
        return RelaxedSolution(
            measure=ControlMeasure(weights={}),
            value=result.value,
            status=result.status,
            flow=np.zeros((S, T, A)),
            node_potentials=result.potentials,
            initial=init,
        )

    flow = np.zeros((S, T, A))
    drop = 1e-12 * max(1.0, float(init.sum()))
    weights = {}
    for (tail, head, cost, s, j, a), fl in zip(arcs, result.flow):
        if a >= 0 and fl > drop:
            flow[s, j, a] = fl
            weights[(s, j, a)] = fl * p.time_step
    value = float(sum(w * p.ell[s, j, a] for (s, j, a), w in weights.items()))

    edge_states = {s for (s, _j, _a) in weights if p.on_box_edge(s)}
    edge_states |= {
        int(p.move[s, a]) for (s, _j, a) in weights if p.on_box_edge(int(p.move[s, a]))
    }
    if edge_states:
        warnings.warn(
            f"optimal trajectories touch the state box edge at states "
            f"{sorted(edge_states)}; interior-support assumptions may fail",
            stacklevel=2,
        )

    return RelaxedSolution(
        measure=ControlMeasure(weights=weights),
        value=value,
        status=OPTIMAL,
        flow=flow,
        node_potentials=result.potentials,
        initial=init,
    )


@dataclass(frozen=True)
class ControlCertificate:
    """Potential u on state x time nodes, constant c0, and slack w.

    Exact identity on every admissible arc:
    ell = c0 + (u(target, j+1) - u(x, j)) / dt + w.  The potential vanishes on
    the boundary time layers; w >= 0 is guaranteed on arcs reachable from the
    supplied initial states (everywhere except possibly arcs leaving
    unsupplied states at t = 0, where the boundary normalization wins), and
    w = 0 on the support when the initial distribution is a single atom.
    ``c0`` is the layer-shift constant; ``empirical_mean_cost`` reports
    sum(mu*ell)/mass alongside it.
    """

    problem: ControlProblem
    u: np.ndarray = field(repr=False, compare=False)  # (S, T+1)
    w: np.ndarray = field(repr=False, compare=False)  # (S, T, A); nan inadmissible
    c0: float = 0.0
    empirical_mean_cost: float = 0.0
    supplied: tuple = ()
    reachable: np.ndarray = field(repr=False, compare=False, default=None)  # (S, T+1)


def _reachable_mask(p: ControlProblem, supplied) -> np.ndarray:
    S, T, A = p.ell.shape
    reach = np.zeros((S, T + 1), dtype=bool)
    for s in supplied:
        reach[int(s), 0] = True
    for j in range(T):
        src = np.flatnonzero(reach[:, j])
        for s in src:
            for a in range(A):
                if p.move[s, a] >= 0:
                    reach[int(p.move[s, a]), j + 1] = True
    return reach


def certify_control(p: ControlProblem, lp_solution: RelaxedSolution) -> ControlCertificate:
    """Certificate from the layered-graph flow potentials.

    Potentials are shifted affinely in time so that u vanishes at the initial
    reference state and on the final layer; the shift rate is the constant c0.
    u is then forced to zero on the whole t in {0, t0} boundary, which can
    only increase the slack on reachable arcs.
    """
    if lp_solution.status != OPTIMAL:
        raise ValueError(f"cannot certify a solution with status {lp_solution.status}")
    S, T, A = p.ell.shape
    dt = p.time_step
    pot = lp_solution.node_potentials
    supplied = tuple(int(s) for s in np.flatnonzero(lp_solution.initial > 0))

    beta = max(pot[s] for s in supplied)
    c0 = (pot[S * (T + 1)] - beta) / p.horizon
    reachable = _reachable_mask(p, supplied)
    u = np.empty((S, T + 1))
    for j in range(T + 1):
        u[:, j] = pot[j * S : (j + 1) * S] - c0 * (j * dt) - beta
    # off the reachable set the flow potentials are arbitrary; zero them so the
    # exported potential is determined by the problem alone
    u[~reachable] = 0.0
    u[:, 0] = 0.0
    u[:, T] = 0.0

    w = np.full((S, T, A), np.nan)
    adm = p.move >= 0
    targets = np.where(adm, p.move, 0)
    for j in range(T):
        du = (u[targets, j + 1] - u[:, j][:, None]) / dt
        wj = p.ell[:, j, :] - c0 - du
        w[:, j, :] = np.where(adm, wj, np.nan)

    mu = lp_solution.measure
    mean_cost = (
        float(sum(wt * p.ell[s, j, a] for (s, j, a), wt in mu.weights.items()) / mu.mass)
        if mu.weights
        else 0.0
    )
    return ControlCertificate(
        problem=p,
        u=u,
        c0=float(c0),
        w=w,
        empirical_mean_cost=mean_cost,
        supplied=supplied,
        reachable=reachable,
    )


def maximum_principle_check(cert: ControlCertificate, mu: ControlMeasure):
    """(max |w| on the support, min w off the support over reachable arcs).

    The support values verify the pointwise optimality equality at every
    supported time node; the off-support minimum verifies the inequality side.
    """
    p = cert.problem
    S, T, A = p.ell.shape
    supp = set(mu.weights)
    on_max = 0.0
    for (s, j, a) in supp:
        on_max = max(on_max, abs(float(cert.w[s, j, a])))
    off_min = np.inf
    for j in range(T):
        for s in np.flatnonzero(cert.reachable[:, j]):
            for a in range(A):
                if p.move[s, a] >= 0 and (int(s), j, a) not in supp:
                    off_min = min(off_min, float(cert.w[s, j, a]))
    if not np.isfinite(off_min):
        off_min = 0.0
    return on_max, off_min


def hjb_residual(vf: ValueFunction, p: ControlProblem) -> float:
    """max over optimal-trajectory nodes of |v_t + H(x, t, v_x)|.

    H(x, t, p) = max over admissible a of (-f(x, a).p - ell(x, t, a)).  Time
    derivatives of the duration-indexed table use a backward difference at
    full duration, forward at zero, central inside; space derivatives are
    central with one-sided fallback at the box edge.  The residual is grid
    truncation, O(dx + dt), not a solver defect.
    """
    S, T, A = p.ell.shape
    dt, dx = p.time_step, p.spacing
    n = p.nodes_per_axis
    v = vf.v

    nodes = set()
    for s0 in range(S):
        s = s0
        nodes.add((s, 0))
        for j in range(T):
            a = vf.policy[s, j]
            s = int(p.move[s, a])
            nodes.add((s, j + 1))

    worst = 0.0
    for (s, j) in sorted(nodes):
        td = T - j  # duration index of clock node j
        if td == 0:
            v_t = (v[s, 1] - v[s, 0]) / dt
        elif td == T:
            v_t = (v[s, T] - v[s, T - 1]) / dt
        else:
            v_t = (v[s, td + 1] - v[s, td - 1]) / (2 * dt)

        coords = p.state_coords(s)
        grad = np.zeros(p.state_dim)
        for axis in range(p.state_dim):
            c = coords[axis]
            up = list(coords)
            dn = list(coords)
            up[axis] = min(c + 1, n - 1)
            dn[axis] = max(c - 1, 0)
            su = up[0] if p.state_dim == 1 else up[0] * n + up[1]
            sd = dn[0] if p.state_dim == 1 else dn[0] * n + dn[1]
            span = (up[axis] - dn[axis]) * dx
            grad[axis] = (v[su, td] - v[sd, td]) / span if span > 0 else 0.0

        jt = min(j, T - 1)
        ham = -np.inf
        for a in range(A):
            if p.move[s, a] < 0:
                continue
            f_vel = p.steps[s, a] * dx / dt
            ham = max(ham, float(-np.dot(f_vel, grad) - p.ell[s, jt, a]))
        worst = max(worst, abs(v_t + ham))
    return float(worst)


def extract_optimal_trajectories(p: ControlProblem, lp_solution: RelaxedSolution):
    """Peel the layered flow into weighted trajectories from t = 0.

    Deterministic: sources by ascending state index, arcs by ascending control
    index.  Returns a list of (state tuple of length T+1, mass).
    """
    S, T, A = p.ell.shape
    remaining = lp_solution.flow.copy()
    init = lp_solution.initial.copy()
    tol = 1e-12 * max(1.0, float(init.sum()))
    out = []
    guard = 10 * (int(np.count_nonzero(remaining)) + S + 1)
    for _ in range(guard):
        sources = np.flatnonzero(init > tol)
        if len(sources) == 0:
            break
        s0 = int(sources[0])
        states = [s0]
        arcs = []
        s = s0
        feasible = True
        for j in range(T):
            choices = [a for a in range(A) if remaining[s, j, a] > tol]
            if not choices:
                feasible = False
                break
            a = choices[0]
            arcs.append((s, j, a))
            s = int(p.move[s, a])
            states.append(s)
        if not feasible:
            init[s0] = 0.0  # roundoff leftovers
            continue
        amount = min(init[s0], min(remaining[s, j, a] for (s, j, a) in arcs))
        for (s, j, a) in arcs:
            remaining[s, j, a] -= amount
        init[s0] -= amount
        out.append((tuple(states), float(amount)))
    else:
        raise RuntimeError("trajectory extraction failed to terminate; solver bug")
    return out


def check_u_v_relation(cert: ControlCertificate, vf: ValueFunction, trajectory) -> float:
    """max over time nodes of the accumulated-value identity residual.

    Along a support trajectory y from t = 0, the cost accumulated by time t
    equals u(y(t), t) - u(y(0), 0) + c0*t.  The accumulated value is computed
    independently by a forward arrival dynamic program from (y(0), 0), so the
    residual verifies both the certificate calibration and the optimality of
    the trajectory prefix; it vanishes up to roundoff for exact optima.
    """
    p = cert.problem
    S, T, A = p.ell.shape
    dt = p.time_step
    y = [int(s) for s in trajectory]
    if len(y) > T + 1:
        raise ValueError("trajectory longer than the time grid")

    arrival = np.full((S, len(y)), np.inf)
    arrival[y[0], 0] = 0.0
    for j in range(len(y) - 1):
        nxt = np.full(S, np.inf)
        for s in np.flatnonzero(np.isfinite(arrival[:, j])):
            for a in range(A):
                if p.active[s, j, a]:
                    t = int(p.move[s, a])
                    cand = arrival[s, j] + dt * p.ell[s, j, a]
                    if cand < nxt[t]:
                        nxt[t] = cand
        arrival[:, j + 1] = nxt

    worst = 0.0
    for j, s in enumerate(y):
        if not np.isfinite(arrival[s, j]):
            raise ValueError(f"trajectory node {s} unreachable at time index {j}")
        rhs = cert.u[s, j] - cert.u[y[0], 0] + cert.c0 * (j * dt)
        worst = max(worst, abs(float(arrival[s, j] - rhs)))
    return worst


@dataclass
class ControlResult:
    """One control problem solved twice (DP and LP) and verified.

    The certificate and the checks built on it are None when the LP status is
    not OPTIMAL.  ``max_principle`` is the pair from maximum_principle_check;
    ``certificate_identity`` is the largest |ell - c0 - du o (f, 1) - w| over
    admissible arcs, zero up to roundoff by construction.
    """

    problem: ControlProblem
    value_function: ValueFunction
    lp: RelaxedSolution
    dp_total: float
    certificate: ControlCertificate | None = None
    max_principle: tuple | None = None
    trajectories: list | None = None
    u_v_residual: float | None = None
    hjb_residual: float | None = None
    certificate_identity: float | None = None

    def criteria(self, tol: float) -> dict[str, bool]:
        """Named pass/fail checks: DP = LP, and the certificate's optimality conditions."""
        if self.certificate is None:
            return {"status_optimal": False}
        on_support, off_support = self.max_principle
        return {
            "lp_dp_gap": abs(self.lp.value - self.dp_total) <= tol,
            "max_principle_on_support": on_support <= tol,
            "max_principle_off_support": off_support >= -tol,
            "u_v_residual": self.u_v_residual <= tol,
        }


def run_control(p: ControlProblem, initial) -> ControlResult:
    """Solve by DP and by the layered LP, certify the LP, and run every check."""
    vf = solve_value_function(p)
    lp = solve_relaxed_lp(p, initial)
    dp_total = float(np.dot(lp.initial, vf.v[:, -1]))
    if lp.status != OPTIMAL:
        return ControlResult(problem=p, value_function=vf, lp=lp, dp_total=dp_total)
    cert = certify_control(p, lp)
    mp = maximum_principle_check(cert, lp.measure)
    trajs = extract_optimal_trajectories(p, lp)
    uv = max((check_u_v_relation(cert, vf, states) for states, _m in trajs), default=0.0)
    hjb = hjb_residual(vf, p)

    adm = p.move >= 0
    targets = np.where(adm, p.move, 0)
    ident = 0.0
    for j in range(p.num_steps):
        du = (cert.u[targets, j + 1] - cert.u[:, j][:, None]) / p.time_step
        resid = p.ell[:, j, :] - cert.c0 - du - cert.w[:, j, :]
        ident = max(ident, float(np.nanmax(np.abs(np.where(adm, resid, 0.0)))))
    return ControlResult(
        problem=p,
        value_function=vf,
        lp=lp,
        dp_total=dp_total,
        certificate=cert,
        max_principle=mp,
        trajectories=trajs,
        u_v_residual=uv,
        hjb_residual=hjb,
        certificate_identity=ident,
    )
