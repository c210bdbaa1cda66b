"""Finite-horizon optimal control on a box state grid with tabulated data.

The problem is discretized so that one time step moves each state exactly onto
another grid node: dynamics values f(x, a) must satisfy f*dt = (integer)*dx per
axis.  Two independent solvers are provided and cross-checked:

* backward dynamic programming for the value function (cost to go), and
* the relaxed measure LP, a min-cost flow over the time-layered graph solved
  by one forward label-setting sweep per initial atom.

The DP value function, shifted by c0, is the LP's dual and certifies its
paths: ell = c0 + du o (f, 1) + w on every arc, w >= 0, and w = 0 on the
support (see ``certify_control``).

The value table ``v(x, t)`` is indexed by the duration t left to run: v(x, t)
is the optimal cost of the final t-worth of the horizon started at x, so
v(x, 0) = 0 and v(x, t0) is the full-horizon value.  This is the convention
under which the one-step dynamic programming recursion closes and the
Hamilton-Jacobi-Bellman residual v_t + H(x, t, v_x) vanishes up to grid
truncation.

DP and LP layers are sequential; within a layer states are independent.  The
LP and all checks are pure functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import _integral, callback_points, lattice_index, lattice_points, ordered_sum, sample_callback
from .network import OPTIMAL

__all__ = [
    "ControlProblem",
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


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """Tabulated finite-horizon problem data on a box grid.

    ``move[s, a]`` is the target state index after one step (or -1 when the
    step would leave the box, in which case the control is inadmissible at s).
    ``ell[s, j, a]`` is the running cost on the arc leaving state s at time
    node j under control a.  They are the only arc data: ``steps``,
    ``active`` and ``duplicate_collapses`` are derived from them.  ``active``
    is a read-only view marking every admissible arc, so controls with
    identical (x, f(x, a)) all keep their arcs: the DP's and the LP's min
    over controls takes the cheapest of them, which is the reduction of a
    control cost to a velocity-indexed Lagrangian.

    Checked at every construction, ``dataclasses.replace`` included: the
    origin is finite and the spacing positive and finite, the tables have the
    shapes above, every ``move`` is an integer in [-1, S), ``ell`` is finite,
    ``horizon`` is ``ell.shape[1]`` steps of ``time_step``, and every state
    has an admissible control, so the DP value is finite and the layered LP
    optimal.
    """

    state_dim: int
    nodes_per_axis: int
    origin: np.ndarray = field(repr=False)  # (N,)
    spacing: float
    controls: tuple
    move: np.ndarray = field(repr=False)  # (S, A)
    ell: np.ndarray = field(repr=False)  # (S, T, A)
    horizon: float
    time_step: float

    def __post_init__(self):
        steps = _num_steps(self.state_dim, self.nodes_per_axis, self.horizon, self.time_step)
        _box(self.origin, self.spacing, self.state_dim)
        S, A = self.num_states, len(self.controls)
        shape = np.shape(self.ell)
        if len(shape) != 3 or shape[::2] != (S, A):
            raise ValueError(f"ell has shape {shape}, expected ({S}, T, {A})")
        if shape[1] != steps:
            raise ValueError(
                f"horizon {self.horizon} is {steps} steps of {self.time_step}, ell has {shape[1]}"
            )
        if np.shape(self.move) != (S, A):
            raise ValueError(f"move has shape {np.shape(self.move)}, expected ({S}, {A})")
        if not np.issubdtype(self.move.dtype, np.integer):
            raise ValueError(f"move has dtype {self.move.dtype}, expected integers")
        outside = np.argwhere((self.move < -1) | (self.move >= S))
        if len(outside):
            s, a = outside[0]
            raise ValueError(
                f"move at state {s}, control {self.controls[a]!r} is {self.move[s, a]}, "
                f"outside [-1, {S})"
            )
        bad = np.argwhere(~np.isfinite(self.ell).transpose(0, 2, 1))
        if len(bad):
            s, a, j = bad[0]
            raise ValueError(
                f"running cost non-finite at state {s}, t index {j}, control {self.controls[a]!r}"
            )
        stuck = np.flatnonzero((self.move < 0).all(axis=1))
        if len(stuck):
            raise ValueError(f"state {stuck[0]} has no admissible control at t index 0")

    @property
    def num_states(self) -> int:
        return self.nodes_per_axis**self.state_dim

    @property
    def num_steps(self) -> int:
        return self.ell.shape[1]

    @property
    def coords(self) -> np.ndarray:
        """(S, N) integer coordinates of every state; a state's index is their row-major rank."""
        return lattice_points(self.state_dim, self.nodes_per_axis)

    @property
    def active(self) -> np.ndarray:
        """(S, T, A) read-only view, True on every admissible arc."""
        return np.broadcast_to((self.move >= 0)[:, None, :], self.ell.shape)

    @property
    def duplicate_collapses(self) -> int:
        """Arcs the reduction to a velocity-indexed cost drops: T times the
        admissible (s, a) pairs beyond one per distinct (s, target)."""
        s, a = np.nonzero(self.move >= 0)
        return self.num_steps * (len(s) - len(np.unique(s * self.num_states + self.move[s, a])))

    @property
    def steps(self) -> np.ndarray:
        """(S, A, N) integer step of every control, zero where it is inadmissible."""
        coords = self.coords
        return np.where((self.move >= 0)[:, :, None], coords[self.move] - coords[:, None, :], 0)


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
    num_steps = _num_steps(state_dim, nodes_per_axis, horizon, time_step)
    origin = _box(origin, spacing, state_dim)
    controls = tuple(controls)
    xs = callback_points(origin + lattice_points(state_dim, nodes_per_axis) * spacing)

    raw = _velocities(dynamics, xs, controls, state_dim) * time_step / spacing
    steps = np.rint(raw).astype(int)
    off_grid = np.argwhere(~(np.abs(raw - steps) <= 1e-9).all(axis=2))
    if len(off_grid):
        s, a = off_grid[0]
        raise ValueError(
            f"dynamics not grid-compatible at state {s}, control "
            f"{controls[a]!r}: f*dt/dx = {raw[s, a]}"
        )
    times = [j * time_step for j in range(num_steps)]
    return _control_problem(
        steps,
        True,
        state_dim=state_dim,
        nodes_per_axis=nodes_per_axis,
        origin=origin,
        spacing=float(spacing),
        controls=controls,
        ell=_running_costs(running_cost, xs, times, controls),
        horizon=float(horizon),
        time_step=float(time_step),
    )


def _velocities(dynamics, xs, controls, state_dim: int) -> np.ndarray:
    """(S, A, N) table of ``dynamics(x, a)``.

    ValueError naming the first state and control whose velocity is not N
    finite numbers (a scalar or a length-1 array when N=1).
    """
    found = [dynamics(x, a) for x in xs for a in controls]
    try:
        vel = np.array([np.atleast_1d(v) for v in found], dtype=float)
    except (TypeError, ValueError):
        vel = None
    if vel is None or vel.shape != (len(found), state_dim) or not np.isfinite(vel).all():
        for e, value in enumerate(found):
            try:
                v = np.atleast_1d(np.asarray(value, dtype=float))
                ok = v.shape == (state_dim,) and np.isfinite(v).all()
            except (TypeError, ValueError):
                ok = False
            if not ok:
                s, a = divmod(e, len(controls))
                raise ValueError(
                    f"dynamics at state {s}, control {controls[a]!r} returned {value!r}; "
                    f"expected {state_dim} finite number{'s' if state_dim > 1 else ''}"
                )
    return vel.reshape(len(xs), len(controls), state_dim)


def _running_costs(running_cost, xs, times, controls) -> np.ndarray:
    """(S, T, A) table of ``running_cost(x, t, a)``, streamed into one array.

    ValueError naming the first state, t index and control whose cost is not
    a real number; a None cost becomes NaN, which ``ControlProblem`` rejects.
    """
    try:
        return sample_callback(running_cost, xs, times, controls)
    except (TypeError, ValueError):
        for s, j, a in np.ndindex(len(xs), len(times), len(controls)):
            value = running_cost(xs[s], times[j], controls[a])
            try:
                np.fromiter((value,), dtype=float, count=1)
            except (TypeError, ValueError) as err:
                raise ValueError(
                    f"running cost at state {s}, t index {j}, control {controls[a]!r} "
                    f"returned {value!r}; expected a real number"
                ) from err
        raise


def _num_steps(state_dim: int, nodes_per_axis: int, horizon: float, time_step: float) -> int:
    """Number of time steps of a valid grid description; ValueError otherwise."""
    if state_dim not in (1, 2):
        raise ValueError(f"state dimension must be 1 or 2, got {state_dim}")
    if nodes_per_axis < 2:
        raise ValueError("need at least 2 state nodes per axis")
    if not (0 < time_step < np.inf and 0 < horizon < np.inf):
        raise ValueError(
            "horizon and time step must be positive and finite, "
            f"got horizon {horizon} and time step {time_step}"
        )
    num_steps = int(round(horizon / time_step))
    if abs(num_steps * time_step - horizon) > 1e-9 * horizon or num_steps < 1:
        raise ValueError("horizon must be an integer number of time steps")
    return num_steps


def _box(origin, spacing: float, state_dim: int, source=None) -> np.ndarray:
    """``origin`` as a (state_dim,) array, a bare number being one entry; a
    ValueError names a spacing that is not positive and finite, an origin of
    another length or with a non-finite entry, and ``source``, the file read."""
    def error(key, what):
        return ValueError((key if source is None else f"{source}: key '{key}'") + " " + what)

    if not 0 < spacing < np.inf:
        raise error("spacing", f"must be positive and finite, got {spacing}")
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    if origin.shape != (state_dim,):
        raise error("origin", f"has length {len(origin)}, expected state_dim = {state_dim}")
    if not np.isfinite(origin).all():
        raise error("origin", f"must be finite, got {origin.tolist()}")
    return origin


def _control_problem(steps, given, **fields) -> ControlProblem:
    """The problem whose moves are the integer ``steps`` (S x A x N) from each
    state, -1 where a step is not ``given`` (S x A, or True) or leaves the box."""
    n = fields["nodes_per_axis"]
    target = lattice_points(fields["state_dim"], n)[:, None, :] + steps
    admissible = given & ((0 <= target) & (target < n)).all(axis=2)
    move = np.where(admissible, lattice_index(target.transpose(2, 0, 1), n), -1)
    return ControlProblem(move=move, **fields)


@dataclass
class ValueFunction:
    """DP value table.

    ``v[x, t_index]`` is indexed by duration (t_index time steps remain).
    ``argmin_control[x, t_index]`` is the control applied at x when t_index
    steps remain (-1 when nothing remains), with the lowest control index
    breaking ties.
    """

    problem: ControlProblem
    v: np.ndarray  # (S, T+1), duration-indexed
    argmin_control: np.ndarray  # (S, T+1)


def solve_value_function(p: ControlProblem) -> ValueFunction:
    """Backward dynamic programming, duration t = 1..T on time layer T - t."""
    S, T, A = p.ell.shape
    v = np.zeros((S, T + 1))
    argmin = np.full((S, T + 1), -1, dtype=int)
    targets = np.where(p.move >= 0, p.move, 0)
    for t in range(1, T + 1):
        j = T - t
        cand = np.where(p.active[:, j], p.time_step * p.ell[:, j], np.inf) + v[targets, t - 1]
        argmin[:, t] = np.argmin(cand, axis=1)
        v[:, t] = cand[np.arange(S), argmin[:, t]]
    return ValueFunction(problem=p, v=v, argmin_control=argmin)


def _in_arcs(move: np.ndarray) -> np.ndarray:
    """(S, K) table of the flat ids s*A + a of the admissible arcs into each
    state, ascending, padded with S*A; K is the largest in-degree."""
    S, A = move.shape
    ids = np.flatnonzero(move >= 0)
    heads = move.ravel()[ids]
    order = np.argsort(heads, kind="stable")
    count = np.bincount(heads, minlength=S)
    rank = np.arange(len(ids)) - np.repeat(np.cumsum(count) - count, count)
    table = np.full((S, count.max()), S * A)
    table[heads[order], rank] = ids[order]
    return table


def _sweep(start: np.ndarray, costs: np.ndarray, in_arcs: np.ndarray):
    """Forward label setting through the time layers.

    label[0] = start and label[j+1, h] = min over the arcs (s, a) into h of
    label[j, s] + costs[s, j, a]: one (S, K) gather and argmin per layer.
    Only the admissible arcs of ``in_arcs`` are gathered, so the costs of
    inadmissible arcs are never read.
    Returns the (T+1, S) labels and, per layer, the (T, S) flat id s*A + a of
    the arc each state's label came through, the lowest of equal ones.
    """
    S, T, A = costs.shape
    labels = np.empty((T + 1, S))
    labels[0] = start
    pred = np.empty((T, S), dtype=int)
    reach = np.empty(S * A + 1)  # the label through every arc, then +inf at S*A
    reach[-1] = np.inf
    row_start = np.arange(0, in_arcs.size, in_arcs.shape[1])
    for j in range(T):
        np.add(labels[j][:, None], costs[:, j], out=reach[:-1].reshape(S, A))
        best = reach.take(in_arcs).argmin(axis=1) + row_start
        in_arcs.take(best, out=pred[j])
        reach.take(pred[j], out=labels[j + 1])
    return labels, pred


@dataclass
class RelaxedSolution:
    """The relaxed LP's primal; its dual is the DP value function."""

    measure: np.ndarray  # (S, T, A) weights flow * dt, zero off the support
    value: float
    status: str
    initial: np.ndarray  # (S,)
    paths: np.ndarray  # (atoms, T+1) states of each atom's path, atoms ascending


def _initial_distribution(initial, S: int) -> np.ndarray:
    """``initial`` (a mapping state -> mass, or S masses) as an (S,) array; a
    ValueError names the first state that is not an integer in [0, S) or whose
    mass is not finite, or a negative or zero distribution."""
    if not isinstance(initial, dict):
        mass = np.asarray(initial, dtype=float)
        if mass.shape != (S,):
            raise ValueError(f"initial distribution has shape {mass.shape}, expected ({S},)")
        initial = dict(enumerate(mass.tolist()))
    keys = list(initial)
    states, mass = (np.fromiter(x, float, len(keys)) for x in (keys, initial.values()))
    for bad, what in (
        (~_integral(states), "state {0!r} is not an integer"),
        ((states < 0) | (states >= S), f"state {{0}} is outside [0, {S})"),
        (~np.isfinite(mass), "mass at state {0} is {1}, not finite"),
    ):
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError("initial " + what.format(keys[i], mass[i]))
    if np.any(mass < 0) or mass.sum() <= 0:
        raise ValueError("initial distribution must be nonnegative with positive mass")
    init = np.zeros(S)
    init[states.astype(int)] = mass
    return init


def solve_relaxed_lp(p: ControlProblem, initial) -> RelaxedSolution:
    """Min-cost flow through the time-layered graph, by forward label setting.

    ``initial`` is the supplied state distribution at t = 0 (array or dict);
    the final distribution is free.  The value equals the initial-weighted
    full-horizon DP value; the measure weighting is flow * dt so that
    sum(mu * ell) is the LP objective.

    The flow is uncapacitated and the final layer free, so each atom's whole
    mass takes a cheapest path from it.  Every arc goes from time node j to
    j + 1, so that path is set one time layer at a time ("reaching", Ahuja,
    Magnanti & Orlin, Network Flows, 1993, sec. 4.4), on the costs dt*ell
    of the admissible arcs; negative costs need no reweighting.
    Atom i is swept alone from 0; its path ends at the final state of least
    label and runs back through the arcs the sweep came by (ties: the lowest
    final state, and the lowest s*A + a).  Each path arc carries the summed
    mass of its atoms, so every atom, however light, is in the measure.

    Its dual is the DP value function (see ``certify_control``), which
    ``solve_value_function`` computes backward from the horizon, sharing no
    computation, so ``lp_dp_gap`` compares two independent solvers.  Memory
    is one (S, T, A) cost table, one sweep's tables and the (atoms, T+1) paths.
    """
    S, T, A = p.ell.shape
    init = _initial_distribution(initial, S)
    atoms = np.flatnonzero(init > 0)
    in_arcs = _in_arcs(p.move)
    costs = p.time_step * p.ell

    paths = np.empty((len(atoms), T + 1), dtype=int)
    controls = np.empty((len(atoms), T), dtype=int)
    for i, atom in enumerate(atoms.tolist()):
        start = np.full(S, np.inf)
        start[atom] = 0.0
        labels, pred = _sweep(start, costs, in_arcs)
        paths[i, T] = labels[T].argmin()
        for j in range(T - 1, -1, -1):
            paths[i, j], controls[i, j] = divmod(int(pred[j, paths[i, j + 1]]), A)

    # each path arc as one (j, s, a) flat id, so the ids ascend in arc order
    ids, arc = np.unique((np.arange(T) * S + paths[:, :-1]) * A + controls, return_inverse=True)
    arc_flow = np.bincount(arc.ravel(), np.repeat(init[atoms], T), minlength=len(ids))
    j, s, a = np.unravel_index(ids, (T, S, A))
    measure = np.zeros((S, T, A))
    measure[s, j, a] = arc_flow * p.time_step
    value = ordered_sum((measure[s, j, a] * p.ell[s, j, a]).tolist())  # in arc order

    coords = p.coords
    on_edge = ((coords == 0) | (coords == p.nodes_per_axis - 1)).any(axis=1)
    touched = np.union1d(s, p.move[s, a])
    edge_states = touched[on_edge[touched]].tolist()
    if edge_states:
        warnings.warn(
            f"optimal trajectories touch the state box edge at states "
            f"{edge_states}; interior-support assumptions may fail",
            stacklevel=2,
        )

    return RelaxedSolution(
        measure=measure,
        value=value,
        status=OPTIMAL,
        initial=init,
        paths=paths,
    )


@dataclass(frozen=True, eq=False)
class ControlCertificate:
    """Potential u on state x time nodes, constant c0, and slack w; u is the
    DP value function, negated and shifted by c0 (see ``certify_control``).

    Exact identity on every admissible arc:
    ell = c0 + (u(target, j+1) - u(x, j)) / dt + w.  The potential vanishes on
    the final time layer and off the set reachable from the supplied initial
    states; w >= 0 holds on every reachable arc and w = 0 on the support.
    ``c0`` is the layer-shift constant; ``empirical_mean_cost`` reports
    sum(mu*ell)/mass alongside it.
    """

    problem: ControlProblem
    u: np.ndarray = field(repr=False)  # (S, T+1)
    w: np.ndarray = field(repr=False)  # (S, T, A); nan inadmissible
    c0: float
    empirical_mean_cost: float
    supplied: tuple
    reachable: np.ndarray = field(repr=False)  # (S, T+1)


def _reachable_mask(p: ControlProblem, supplied: np.ndarray) -> np.ndarray:
    S, T, A = p.ell.shape
    reach = np.zeros((S, T + 1), dtype=bool)
    reach[supplied, 0] = True
    adm = p.move >= 0
    for j in range(T):
        reach[p.move[adm & reach[:, j, None]], j + 1] = True
    return reach


def certify_control(p: ControlProblem, lp_solution: RelaxedSolution) -> ControlCertificate:
    """Certificate of the LP's paths from the DP value function, the LP's
    optimal dual (Fleming & Soner, 2006): with best the least full-horizon
    value over the supplied states and c0 = best / horizon,
    u(s, j) = best * (T - j) / T - v(s, T - j), which vanishes on the final
    layer and at the supplied state of least value.  An arc's slack w is the
    DP's optimality gap (dt*ell + v(target, T-j-1) - v(s, T-j)) / dt, so it is
    zero on the support only where the LP's paths are DP-optimal.  u is zeroed
    off the reachable set, which changes no reachable arc's slack.  Solves the
    DP; ``run_control`` passes its own.
    """
    return _certificate(p, lp_solution, solve_value_function(p))


def _certificate(p: ControlProblem, lp: RelaxedSolution, vf: ValueFunction) -> ControlCertificate:
    """``certify_control`` from the value function ``vf`` of ``p``."""
    if lp.status != OPTIMAL:
        raise ValueError(f"cannot certify a solution with status {lp.status}")
    T, dt = p.num_steps, p.time_step
    supplied = np.flatnonzero(lp.initial > 0)

    best = vf.v[supplied, T].min()
    c0 = best / p.horizon
    reachable = _reachable_mask(p, supplied)
    u = best * (np.arange(T, -1, -1) / T) - vf.v[:, ::-1]
    # zero off the reachable set, and +0.0 on the final layer (the formula's
    # zero there is -0.0 when best < 0)
    u[~reachable] = 0.0
    u[:, T] = 0.0

    adm = p.move >= 0
    du = (u[np.where(adm, p.move, 0), 1:] - u[:, None, :-1]) / dt  # (S, A, T)
    w = np.where(adm[:, None, :], p.ell - c0 - du.transpose(0, 2, 1), np.nan)

    mu = lp.measure.transpose(1, 0, 2)  # summed in (j, s, a) arc order, as the value
    mass = ordered_sum(mu[mu > 0].tolist())
    return ControlCertificate(
        problem=p,
        u=u,
        c0=float(c0),
        w=w,
        empirical_mean_cost=float(lp.value / mass) if mass else 0.0,
        supplied=tuple(supplied.tolist()),
        reachable=reachable,
    )


def maximum_principle_check(cert: ControlCertificate, measure: np.ndarray):
    """(max |w| on the support, min w off the support over reachable arcs).

    ``measure`` is RelaxedSolution.measure; its support is where it is
    positive.  The support values verify the pointwise optimality equality at
    every supported time node; the off-support minimum verifies the
    inequality side.
    """
    p = cert.problem
    support = measure > 0
    off = cert.reachable[:, :-1, None] & (p.move >= 0)[:, None, :] & ~support
    on_max = float(np.max(np.abs(cert.w[support]), initial=0.0))
    off_min = float(np.min(cert.w[off], initial=np.inf))
    return on_max, (off_min if np.isfinite(off_min) else 0.0)


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

    # nodes (s, j) on the policy trajectories from every state at t = 0
    on_path = np.zeros((S, T + 1), dtype=bool)
    s = np.arange(S)
    on_path[s, 0] = True
    for j in range(T):
        s = p.move[s, vf.argmin_control[s, T - j]]
        on_path[s, j + 1] = True
    s, j = np.nonzero(on_path)
    td = (T - j)[:, None]  # duration index of clock node j

    hi, lo = np.minimum(td + 1, T), np.maximum(td - 1, 0)
    v_t = (v[s[:, None], hi] - v[s[:, None], lo]) / ((hi - lo) * dt)

    # coordinates (first axis) of the points one step up and down each axis a
    # (last axis) from every path node, clipped to the box
    coords, unit = p.coords[s].T[:, :, None], np.eye(p.state_dim, dtype=int)[:, None, :]
    up, dn = np.minimum(coords + unit, n - 1), np.maximum(coords - unit, 0)
    span = (up - dn).sum(axis=0) * dx  # positive: n >= 2 and dx > 0
    s_up, s_dn = lattice_index(up, n), lattice_index(dn, n)  # (K, N)
    grad = (v[s_up, td] - v[s_dn, td]) / span  # (K, N)

    slope = (p.steps[s] * dx / dt * grad[:, None, :]).sum(axis=2)  # f(x, a).v_x, (K, A)
    ham = np.where(p.move[s] >= 0, -slope - p.ell[s, np.minimum(j, T - 1)], -np.inf).max(axis=1)
    return float(np.max(np.abs(v_t[:, 0] + ham), initial=0.0))


def extract_optimal_trajectories(p: ControlProblem, lp_solution: RelaxedSolution):
    """Each initial atom's path through the layers and its mass, atoms by
    ascending state: a list of (state tuple of length T+1, mass).  The paths
    are the ones ``solve_relaxed_lp`` walked; its flow is their sum."""
    atoms = np.flatnonzero(lp_solution.initial > 0)
    return [
        (tuple(path), mass)
        for path, mass in zip(lp_solution.paths.tolist(), lp_solution.initial[atoms].tolist())
    ]


def check_u_v_relation(cert: ControlCertificate, vf: ValueFunction, trajectory) -> float:
    """max over time nodes of the accumulated-value identity residual.

    Along a support trajectory y from t = 0, the cost accumulated by time t
    equals u(y(t), t) - u(y(0), 0) + c0*t.  The accumulated value is the
    least arrival cost at (y(t), t) from (y(0), 0), from the LP's forward
    sweep (``_sweep``), so the residual verifies both the certificate
    calibration and the optimality of the trajectory prefix; it vanishes up
    to roundoff for exact optima.
    """
    p = cert.problem
    S, T, A = p.ell.shape
    y = np.asarray(trajectory, dtype=int)
    if len(y) > T + 1:
        raise ValueError("trajectory longer than the time grid")

    start = np.full(S, np.inf)
    start[y[0]] = 0.0
    arrival, _ = _sweep(start, p.time_step * p.ell[:, : len(y) - 1], _in_arcs(p.move))
    times = np.arange(len(y))
    reached = arrival[times, y]
    missed = np.flatnonzero(~np.isfinite(reached))
    if len(missed):
        j = int(missed[0])
        raise ValueError(f"trajectory node {y[j]} unreachable at time index {j}")
    rhs = cert.u[y, times] - cert.u[y[0], 0] + cert.c0 * (times * p.time_step)
    return float(np.max(np.abs(reached - rhs), initial=0.0))


@dataclass
class ControlResult:
    """One control problem solved twice (DP and LP) and verified;
    ``max_principle`` is the pair from maximum_principle_check."""

    problem: ControlProblem
    value_function: ValueFunction
    lp: RelaxedSolution
    dp_total: float
    certificate: ControlCertificate
    max_principle: tuple
    trajectories: list
    u_v_residual: float
    hjb_residual: float

    def criteria(self, tol: float) -> dict[str, bool]:
        """Named pass/fail checks: DP = LP, and the certificate's optimality conditions."""
        on_support, off_support = self.max_principle
        return {
            "lp_dp_gap": abs(self.lp.value - self.dp_total) <= tol,
            "max_principle_on_support": on_support <= tol,
            "max_principle_off_support": off_support >= -tol,
            "u_v_residual": self.u_v_residual <= tol,
        }


def run_control(p: ControlProblem, initial) -> ControlResult:
    """Solve by DP and by the layered LP, certify the LP's paths with the
    DP's value function, and run every check."""
    vf = solve_value_function(p)
    lp = solve_relaxed_lp(p, initial)
    cert = _certificate(p, lp, vf)
    mp = maximum_principle_check(cert, lp.measure)
    trajs = extract_optimal_trajectories(p, lp)
    uv = max((check_u_v_relation(cert, vf, states) for states, _m in trajs), default=0.0)
    return ControlResult(
        problem=p,
        value_function=vf,
        lp=lp,
        dp_total=float(np.dot(lp.initial, vf.v[:, -1])),
        certificate=cert,
        max_principle=mp,
        trajectories=trajs,
        u_v_residual=uv,
        hjb_residual=hjb_residual(vf, p),
    )
