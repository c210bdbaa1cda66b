import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from actionlab import (
    certify_control,
    check_u_v_relation,
    extract_optimal_trajectories,
    hjb_residual,
    make_control_problem,
    maximum_principle_check,
    run_control,
    solve_relaxed_lp,
    solve_value_function,
)

from actionlab import control

from oracles import (
    enumerate_control_cost,
    flow_relaxed_lp,
    loop_collapse_duplicates,
    loop_hjb_residual,
    loop_maximum_principle,
    loop_reachable,
    loop_node_index,
    loop_sum,
    loop_torus_grid,
    loop_u_v_residual,
    loop_value_function,
)


def constant_cost_problem(k=2.0, n=5, steps=4):
    return make_control_problem(
        state_dim=1,
        nodes_per_axis=n,
        origin=[0.0],
        spacing=0.25,
        controls=("stay",),
        dynamics=lambda x, a: 0.0,
        running_cost=lambda x, t, a: k,
        horizon=steps * 0.1,
        time_step=0.1,
    )


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2) for n in (2, 3, 5, 8)])
def test_state_numbering_matches_loop_reference(d, n):
    # each control is an integer step; the steps are seeded and lopsided
    rng = np.random.default_rng([d, n])
    steps = [tuple(s) for s in rng.integers(-2, 3, size=(6, d)).tolist()] + [(0,) * d]
    p = make_control_problem(
        state_dim=d,
        nodes_per_axis=n,
        origin=[0.0] * d,
        spacing=0.25,
        controls=steps,
        dynamics=lambda x, a: np.array(a, dtype=float),
        running_cost=lambda x, t, a: 1.0,
        horizon=0.5,
        time_step=0.25,
    )
    coords = loop_torus_grid(d, n, 1)["coords"]
    assert np.array_equal(p.coords, coords)
    move = [
        [
            loop_node_index(t, n) if all(0 <= c < n for c in t) else -1
            for t in ([c + k for c, k in zip(x, step)] for step in steps)
        ]
        for x in coords.tolist()
    ]
    assert np.array_equal(p.move, move)


def three_state_problem(dt=0.25):
    # states {-dx, 0, dx}, controls +-1 moving one node per step, cost x^2
    dx = 0.5
    return make_control_problem(
        state_dim=1,
        nodes_per_axis=3,
        origin=[-dx],
        spacing=dx,
        controls=(-1, 1),
        dynamics=lambda x, a: a * dx / dt,
        running_cost=lambda x, t, a: x * x,
        horizon=2 * dt,
        time_step=dt,
    )


def random_problem(rng, max_states=9, max_controls=3, max_steps=5):
    n = int(rng.integers(2, max_states + 1))
    a_count = int(rng.integers(1, max_controls + 1))
    steps = int(rng.integers(1, max_steps + 1))
    dt = 0.5
    dx = 1.0
    moves = rng.integers(-1, 2, size=(n, a_count))
    costs = rng.uniform(-1.0, 1.0, size=(n, steps, a_count))
    # keep at least one admissible control per state: force control 0 to "stay"
    moves[:, 0] = 0

    def dynamics(x, a):
        return moves[int(round(x)), int(a)] * dx / dt

    def running_cost(x, t, a):
        return float(costs[int(round(x)), int(round(t / dt)), int(a)])

    return make_control_problem(
        state_dim=1,
        nodes_per_axis=n,
        origin=[0.0],
        spacing=dx,
        controls=tuple(range(a_count)),
        dynamics=dynamics,
        running_cost=running_cost,
        horizon=steps * dt,
        time_step=dt,
    )


def legendre_problem(refine, gamma=0.05):
    # x^2 + gamma a^2 on [-1/2, 1/2] with controls -1, 0, 1 at unit speed,
    # dt = dx = 1 / (8 refine), horizon 1/2, as the legendre_control scenario
    per_half = 4 * refine
    dx = 0.5 / per_half
    return make_control_problem(
        state_dim=1,
        nodes_per_axis=2 * per_half + 1,
        origin=[-0.5],
        spacing=dx,
        controls=(-1, 0, 1),
        dynamics=lambda x, a: float(a),
        running_cost=lambda x, t, a: x * x + gamma * a * a,
        horizon=0.5,
        time_step=dx,
    )


def test_constant_cost_value_is_linear_in_time():
    k = 2.0
    p = constant_cost_problem(k=k)
    vf = solve_value_function(p)
    for s in range(p.num_states):
        for t_idx in range(p.num_steps + 1):
            assert vf.v[s, t_idx] == pytest.approx(k * t_idx * p.time_step, abs=1e-12)
    assert np.all(vf.v[:, 0] == 0.0)


def test_three_state_value_matches_enumeration():
    dt = 0.25
    p = three_state_problem(dt=dt)
    vf = solve_value_function(p)
    center = 1
    assert vf.v[center, p.num_steps] == pytest.approx(dt * (0.0 + 0.25), abs=1e-15)
    for s in range(3):
        assert vf.v[s, p.num_steps] == pytest.approx(enumerate_control_cost(p, s), abs=1e-12)


def test_single_control_value_is_path_integral():
    dt = 0.5
    p = make_control_problem(
        state_dim=1,
        nodes_per_axis=4,
        origin=[0.0],
        spacing=1.0,
        controls=("drift",),
        dynamics=lambda x, a: (1.0 if x < 3 else 0.0) / dt,
        running_cost=lambda x, t, a: x + t,
        horizon=3 * dt,
        time_step=dt,
    )
    vf = solve_value_function(p)
    # unique trajectory from state 0 over the last 3 steps: clock times 0, .5, 1.
    expect = dt * ((0 + 0.0) + (1 + 0.5) + (2 + 1.0))
    assert vf.v[0, 3] == pytest.approx(expect, abs=1e-12)


def test_dpp_monotone_in_cost():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p1 = random_problem(rng)
        bump = rng.uniform(0.0, 1.0, size=p1.ell.shape)
        p2 = dataclasses.replace(p1, ell=p1.ell + bump)
        v1 = solve_value_function(p1).v
        v2 = solve_value_function(p2).v
        assert np.all(v1 <= v2 + 1e-12)


def test_problem_without_an_arc_is_rejected_at_construction():
    p = three_state_problem()
    with pytest.raises(ValueError) as err:
        dataclasses.replace(p, move=np.full_like(p.move, -1))  # no arc left to take
    assert str(err.value) == "state 0 has no admissible control at t index 0"


@pytest.mark.parametrize(
    "name, index, value, message",
    [
        ("ell", (1, 1, 0), np.nan, "running cost non-finite at state 1, t index 1, control -1"),
        # state 0 is the box's left edge, where control -1 already leaves it
        ("move", (0, 1), -1, "state 0 has no admissible control at t index 0"),
        ("move", (1, 0), 7, "move at state 1, control -1 is 7, outside [-1, 3)"),
        ("move", (2, 1), -2, "move at state 2, control 1 is -2, outside [-1, 3)"),
    ],
    ids=["non_finite_cost", "stuck_state", "target_past_the_box", "target_below_minus_one"],
)
def test_control_problem_checks_its_invariant_on_replace(name, index, value, message):
    p = three_state_problem()
    table = getattr(p, name).copy()
    table[index] = value
    with pytest.raises(ValueError) as err:
        dataclasses.replace(p, **{name: table})
    assert str(err.value) == message


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("move", lambda p: p.move.astype(float), "move has dtype float64, expected integers"),
        ("ell", lambda p: p.ell[:, :1], "horizon 0.5 is 2 steps of 0.25, ell has 1"),
        ("ell", lambda p: p.ell[:, :, :1], "ell has shape (3, 2, 1), expected (3, T, 2)"),
        ("move", lambda p: p.move[:, :1], "move has shape (3, 1), expected (3, 2)"),
        ("horizon", lambda p: 2 * p.horizon, "horizon 1.0 is 4 steps of 0.25, ell has 2"),
    ],
    ids=["float_targets", "one_time_node_of_two", "ell_one_control", "move_one_control",
         "horizon_twice_the_steps"],
)
def test_control_problem_checks_its_tables_on_replace(name, change, message):
    p = three_state_problem()
    with pytest.raises(ValueError) as err:
        dataclasses.replace(p, **{name: change(p)})
    assert str(err.value) == message


BAD_BOXES = [
    ({"spacing": 0.0}, "spacing must be positive and finite, got 0.0"),
    ({"spacing": -0.25}, "spacing must be positive and finite, got -0.25"),
    ({"spacing": np.inf}, "spacing must be positive and finite, got inf"),
    ({"spacing": np.nan}, "spacing must be positive and finite, got nan"),
    ({"origin": np.array([np.inf])}, "origin must be finite, got [inf]"),
]
BAD_BOX_IDS = ["zero_spacing", "negative_spacing", "infinite_spacing", "nan_spacing",
               "infinite_origin"]


@pytest.mark.parametrize("changes, message", BAD_BOXES, ids=BAD_BOX_IDS)
def test_control_problem_checks_its_box_on_replace(changes, message):
    # a zero or negative spacing once solved with the HJB gradient term
    # dropped, and an infinite one gave hjb_residual nan
    with pytest.raises(ValueError) as err:
        dataclasses.replace(three_state_problem(), **changes)
    assert str(err.value) == message


@pytest.mark.parametrize("changes, message", BAD_BOXES, ids=BAD_BOX_IDS)
def test_make_control_problem_checks_its_box_before_sampling(changes, message):
    def dynamics(x, a):
        raise AssertionError("dynamics sampled on a bad box")

    box = {"origin": [-0.5], "spacing": 0.5, **changes}
    with pytest.raises(ValueError) as err:
        make_control_problem(
            state_dim=1, nodes_per_axis=3, controls=(-1, 1), dynamics=dynamics,
            running_cost=lambda x, t, a: 0.0, horizon=0.5, time_step=0.25, **box,
        )
    assert str(err.value) == message


def test_make_control_problem_names_a_non_finite_origin_entry():
    with pytest.raises(ValueError) as err:
        make_control_problem(
            state_dim=2, nodes_per_axis=3, origin=[1e400, -1.0], spacing=0.5, controls=(0,),
            dynamics=lambda x, a: np.zeros(2), running_cost=lambda x, t, a: 0.0,
            horizon=1.0, time_step=1.0,
        )
    assert str(err.value) == "origin must be finite, got [inf, -1.0]"


def test_replacing_the_costs_collapses_duplicates_again():
    # the DP's min takes the cheapest of the controls that share a target, so
    # new costs pick new representatives, and active stays a view of move
    rng = np.random.default_rng(137)
    for i in range(30):
        if i % 3 == 0:
            p = random_problem(rng, max_states=9, max_controls=4)
        elif i % 3 == 1:
            p = box_problem_2d(rng, half=int(rng.integers(1, 4)), steps=int(rng.integers(1, 4)))
        else:
            try:
                p = box_exit_problem_2d(rng)
            except ValueError:
                continue
        q = dataclasses.replace(p, ell=rng.integers(0, 3, size=p.ell.shape).astype(float))
        assert np.array_equal(q.active, np.broadcast_to((q.move >= 0)[:, None, :], q.ell.shape))
        assert not q.active.flags.writeable
        kept, collapses = loop_collapse_duplicates(q.move, q.ell)
        assert q.duplicate_collapses == len(collapses)
        v, argmin = loop_value_function(q, kept)
        vf = solve_value_function(q)
        assert np.array_equal(vf.v, v) and np.array_equal(vf.argmin_control, argmin)


def test_replacing_the_costs_of_duplicate_dynamics_solves_the_new_problem():
    # both controls stay put; swapping their costs makes "b" the one to keep
    def build(cost):
        return make_control_problem(
            state_dim=1,
            nodes_per_axis=3,
            origin=[0.0],
            spacing=1.0,
            controls=("a", "b"),
            dynamics=lambda x, a: 0.0,
            running_cost=lambda x, t, a: cost[a],
            horizon=2.0,
            time_step=1.0,
        )

    p = build({"a": 1.0, "b": 5.0})
    swapped = dataclasses.replace(p, ell=p.ell[:, :, ::-1].copy())
    want = build({"a": 5.0, "b": 1.0})
    assert np.array_equal(swapped.ell, want.ell) and swapped.active.all()
    assert swapped.duplicate_collapses == want.duplicate_collapses == 3 * 2
    result = run_control(swapped, {1: 1.0})
    assert result.lp.value == result.dp_total == 2.0
    assert all(result.criteria(1e-12).values())
    # "b" is the control taken, in the DP's table and on the LP's path
    assert (result.value_function.argmin_control[:, 1:] == 1).all()
    assert not result.lp.measure[:, :, 0].any() and result.lp.measure[1, :, 1].tolist() == [1.0, 1.0]


def test_replacing_the_moves_gives_their_steps_and_hjb_residual():
    # the same problem built from scratch with the steps the new moves make
    # (a step to state S leaves the box) agrees table for table
    rng = np.random.default_rng(139)
    for _ in range(15):
        p = random_problem(rng, max_states=9, max_controls=4)
        S, A = p.move.shape
        move = rng.integers(-1, S, size=(S, A))
        move[:, 0] = np.arange(S)
        q = dataclasses.replace(p, move=move)
        jump = np.where(move >= 0, move, S) - np.arange(S)[:, None]
        fresh = make_control_problem(
            state_dim=1,
            nodes_per_axis=S,
            origin=[0.0],
            spacing=p.spacing,
            controls=p.controls,
            dynamics=lambda x, a: jump[int(round(x)), a] * p.spacing / p.time_step,
            running_cost=lambda x, t, a: p.ell[int(round(x)), int(round(t / p.time_step)), a],
            horizon=p.horizon,
            time_step=p.time_step,
        )
        assert np.array_equal(fresh.move, move)
        want_steps = np.where(move >= 0, jump, 0)[:, :, None]
        assert np.array_equal(q.steps, want_steps) and np.array_equal(fresh.steps, want_steps)
        assert np.array_equal(q.active, fresh.active)
        vq, vf = solve_value_function(q), solve_value_function(fresh)
        assert np.array_equal(vq.v, vf.v)
        assert hjb_residual(vq, q) == hjb_residual(vf, fresh) == loop_hjb_residual(vf, fresh)


@pytest.mark.parametrize("horizon, time_step", [(np.inf, 0.25), (0.5, np.inf), (np.nan, 0.25)])
def test_make_control_problem_rejects_a_non_finite_horizon_or_time_step(horizon, time_step):
    with pytest.raises(ValueError) as err:
        make_control_problem(
            state_dim=1,
            nodes_per_axis=3,
            origin=[0.0],
            spacing=1.0,
            controls=(0,),
            dynamics=lambda x, a: 0.0,
            running_cost=lambda x, t, a: 1.0,
            horizon=horizon,
            time_step=time_step,
        )
    assert str(err.value) == (
        "horizon and time step must be positive and finite, "
        f"got horizon {horizon} and time step {time_step}"
    )


def test_lp_point_mass_matches_dp():
    p = three_state_problem()
    vf = solve_value_function(p)
    lp = solve_relaxed_lp(p, {1: 1.0})
    assert lp.status == "OPTIMAL"
    assert lp.value == pytest.approx(vf.v[1, p.num_steps], abs=1e-12)


def test_lp_mixture_is_average_of_dp_values():
    p = three_state_problem()
    vf = solve_value_function(p)
    lp = solve_relaxed_lp(p, {0: 0.5, 1: 0.5})
    expect = 0.5 * vf.v[0, p.num_steps] + 0.5 * vf.v[1, p.num_steps]
    assert lp.value == pytest.approx(expect, abs=1e-12)


def test_lp_zero_cost():
    p = make_control_problem(
        state_dim=1,
        nodes_per_axis=3,
        origin=[0.0],
        spacing=1.0,
        controls=(0, 1),
        dynamics=lambda x, a: (a if x < 2 else 0.0),
        running_cost=lambda x, t, a: 0.0,
        horizon=2.0,
        time_step=1.0,
    )
    lp = solve_relaxed_lp(p, {0: 1.0})
    assert lp.value == pytest.approx(0.0, abs=1e-15)


def test_certificate_constant_cost():
    k = 1.5
    p = constant_cost_problem(k=k)
    lp = solve_relaxed_lp(p, {2: 1.0})
    cert = certify_control(p, lp)
    assert cert.c0 == pytest.approx(k, abs=1e-12)
    assert np.max(np.abs(cert.u)) <= 1e-12
    w = cert.w[np.isfinite(cert.w)]
    assert np.max(np.abs(w)) <= 1e-12
    assert cert.empirical_mean_cost == pytest.approx(k, abs=1e-12)


def test_certificate_single_control_telescopes():
    dt = 0.5
    p = make_control_problem(
        state_dim=1,
        nodes_per_axis=4,
        origin=[0.0],
        spacing=1.0,
        controls=("drift",),
        dynamics=lambda x, a: (1.0 if x < 3 else 0.0) / dt,
        running_cost=lambda x, t, a: float(x),
        horizon=3 * dt,
        time_step=dt,
    )
    lp = solve_relaxed_lp(p, {0: 1.0})
    cert = certify_control(p, lp)
    # single control: w vanishes along the (only) reachable trajectory
    for (s, j, a) in np.argwhere(lp.measure > 0).tolist():
        assert abs(cert.w[s, j, a]) <= 1e-12
    assert cert.u[0, 0] == 0.0
    assert np.all(cert.u[:, p.num_steps] == 0.0)


def test_certificate_three_state_slack_pattern():
    p = three_state_problem()
    lp = solve_relaxed_lp(p, {1: 1.0})
    cert = certify_control(p, lp)
    supp = set(map(tuple, np.argwhere(lp.measure > 0).tolist()))
    assert supp, "optimal flow should be nonempty"
    for (s, j, a) in supp:
        assert abs(cert.w[s, j, a]) <= 1e-12
    # evaluate the identity on all 12 arcs (8 admissible): by symmetry every
    # reachable arc lies on one of the two optimal trajectories, so the
    # strictly positive slack shows up on arcs leaving unreached states
    off_reachable = [
        float(cert.w[s, j, a])
        for s in range(3)
        for j in range(2)
        for a in range(2)
        if np.isfinite(cert.w[s, j, a]) and (s, j, a) not in supp and cert.reachable[s, j]
    ]
    assert min(off_reachable) >= -1e-12
    all_adm = [
        float(cert.w[s, j, a])
        for s in range(3)
        for j in range(2)
        for a in range(2)
        if np.isfinite(cert.w[s, j, a]) and (s, j, a) not in supp
    ]
    assert max(all_adm) > 0.0


def test_a_certificate_is_built_with_all_its_fields():
    # a certificate without its constant, supplied states or reachable set
    # once built, and maximum_principle_check then failed on reachable None
    p = three_state_problem()
    cert = certify_control(p, solve_relaxed_lp(p, {1: 1.0}))
    missing = "'c0', 'empirical_mean_cost', 'supplied', and 'reachable'"
    with pytest.raises(TypeError, match=f"missing 4 required positional arguments: {missing}"):
        control.ControlCertificate(problem=p, u=cert.u, w=cert.w)


def test_certificate_identity_is_exact():
    rng = np.random.default_rng(67)
    for _ in range(10):
        p = random_problem(rng)
        start = int(rng.integers(0, p.num_states))
        lp = solve_relaxed_lp(p, {start: 1.0})
        cert = certify_control(p, lp)
        adm = p.move >= 0
        targets = np.where(adm, p.move, 0)
        for j in range(p.num_steps):
            du = (cert.u[targets, j + 1] - cert.u[:, j][:, None]) / p.time_step
            resid = p.ell[:, j, :] - cert.c0 - du - cert.w[:, j, :]
            assert np.nanmax(np.abs(np.where(adm, resid, 0.0))) == 0.0


def test_maximum_principle_examples():
    p = constant_cost_problem()
    lp = solve_relaxed_lp(p, {0: 1.0})
    cert = certify_control(p, lp)
    on_max, off_min = maximum_principle_check(cert, lp.measure)
    assert on_max <= 1e-12 and off_min >= -1e-12

    p3 = three_state_problem()
    lp3 = solve_relaxed_lp(p3, {1: 1.0})
    cert3 = certify_control(p3, lp3)
    on3, off3 = maximum_principle_check(cert3, lp3.measure)
    assert on3 <= 1e-12
    assert off3 >= 0.0


def test_u_v_relation_examples():
    p = constant_cost_problem(k=3.0)
    vf = solve_value_function(p)
    lp = solve_relaxed_lp(p, {1: 1.0})
    cert = certify_control(p, lp)
    trajs = extract_optimal_trajectories(p, lp)
    assert len(trajs) == 1
    resid = check_u_v_relation(cert, vf, trajs[0][0])
    assert resid <= 1e-12

    p3 = three_state_problem()
    vf3 = solve_value_function(p3)
    lp3 = solve_relaxed_lp(p3, {1: 1.0})
    cert3 = certify_control(p3, lp3)
    for states, _mass in extract_optimal_trajectories(p3, lp3):
        assert check_u_v_relation(cert3, vf3, states) <= 1e-9
        # the t = 0 endpoint alone is exact by the boundary normalization
        assert check_u_v_relation(cert3, vf3, states[:1]) == 0.0


@pytest.mark.parametrize(
    "states, message",
    [
        ([1, 0, 1, 0], "trajectory longer than the time grid"),
        ([1, 1], "trajectory node 1 unreachable at time index 1"),
        ([1, 2, 2], "trajectory node 2 unreachable at time index 2"),
    ],
    ids=["too_long", "stays_put", "stays_put_late"],
)
def test_u_v_relation_rejects_a_long_or_unreachable_trajectory(states, message):
    # every control of three_state_problem moves one node a step
    p = three_state_problem()
    vf = solve_value_function(p)
    cert = certify_control(p, solve_relaxed_lp(p, {1: 1.0}))
    with pytest.raises(ValueError) as err:
        check_u_v_relation(cert, vf, states)
    assert str(err.value) == message

def test_hjb_residual_constant_cost_is_zero():
    p = constant_cost_problem(k=2.0)
    vf = solve_value_function(p)
    assert hjb_residual(vf, p) == pytest.approx(0.0, abs=1e-12)


def test_hjb_residual_time_dependent_cost_truncation():
    # singleton frozen dynamics with ell = t: the central time difference of
    # the duration-indexed table lands half a step off the clock label, so the
    # residual is exactly dt/2 (pure truncation, refining linearly)
    def build(steps):
        dt = 0.4 / steps
        return make_control_problem(
            state_dim=1,
            nodes_per_axis=3,
            origin=[0.0],
            spacing=1.0,
            controls=("hold",),
            dynamics=lambda x, a: 0.0,
            running_cost=lambda x, t, a: t,
            horizon=0.4,
            time_step=dt,
        )

    for steps in (4, 8):
        p = build(steps)
        vf = solve_value_function(p)
        assert hjb_residual(vf, p) == pytest.approx(p.time_step / 2, abs=1e-14)


def test_hjb_residual_shrinks_under_refinement():
    # quadratic cost, interior start; halving dx and dt at fixed horizon
    coarse = legendre_problem(1)
    fine = legendre_problem(2)
    r1 = hjb_residual(solve_value_function(coarse), coarse)
    r2 = hjb_residual(solve_value_function(fine), fine)
    assert r1 / r2 >= 1.5


def test_duplicate_dynamics_collapse_lint():
    p = make_control_problem(
        state_dim=1,
        nodes_per_axis=3,
        origin=[0.0],
        spacing=1.0,
        controls=("a", "b"),
        dynamics=lambda x, a: 0.0,  # both controls share every (x, f(x, a))
        running_cost=lambda x, t, a: 1.0 if a == "a" else 2.0,
        horizon=2.0,
        time_step=1.0,
    )
    assert p.duplicate_collapses == 3 * 2  # one per state per time step
    assert p.active.all()  # both stay admissible; the DP's min takes "a"
    vf = solve_value_function(p)
    assert (vf.argmin_control[:, 1:] == 0).all() and vf.v[:, -1].tolist() == [2.0] * 3


def test_box_edge_warning():
    p = three_state_problem()
    with pytest.warns(UserWarning, match="box edge"):
        solve_relaxed_lp(p, {1: 1.0})


def test_rejects_non_grid_dynamics():
    with pytest.raises(ValueError, match="grid-compatible"):
        make_control_problem(
            state_dim=1,
            nodes_per_axis=3,
            origin=[0.0],
            spacing=1.0,
            controls=(1,),
            dynamics=lambda x, a: 0.3,
            running_cost=lambda x, t, a: 0.0,
            horizon=1.0,
            time_step=1.0,
        )


@pytest.mark.parametrize(
    "state_dim, origin",
    [(1, [0.0, 5.0, 7.0]), (1, []), (2, [0.0]), (2, 0.5)],
    ids=["three_in_1d", "empty", "one_in_2d", "number_in_2d"],
)
def test_rejects_an_origin_of_the_wrong_length(state_dim, origin):
    length = len(np.atleast_1d(origin))
    message = f"^origin has length {length}, expected state_dim = {state_dim}$"
    with pytest.raises(ValueError, match=message):
        make_control_problem(
            state_dim=state_dim,
            nodes_per_axis=3,
            origin=origin,
            spacing=1.0,
            controls=(0,),
            dynamics=lambda x, a: np.zeros(state_dim),
            running_cost=lambda x, t, a: 0.0,
            horizon=1.0,
            time_step=1.0,
        )


def test_rejects_state_without_controls():
    with pytest.raises(ValueError, match="no admissible control"):
        make_control_problem(
            state_dim=1,
            nodes_per_axis=3,
            origin=[0.0],
            spacing=1.0,
            controls=(1,),
            dynamics=lambda x, a: 1.0,  # rightmost state would always leave
            running_cost=lambda x, t, a: 0.0,
            horizon=1.0,
            time_step=1.0,
        )


@pytest.mark.parametrize(
    "dynamics,running_cost,state_dim,message",
    [
        (
            lambda x, a: 0.0,
            lambda x, t, a: np.array([1.0, 2.0]) if (x, t, a) == (3.0, 1.0, "b") else 1.0,
            1,
            "running cost at state 3, t index 1, control 'b' returned array([1., 2.]); "
            "expected a real number",
        ),
        (
            lambda x, a: 0.0,
            lambda x, t, a: np.array([1.0]),
            1,
            "running cost at state 0, t index 0, control 'a' returned array([1.]); "
            "expected a real number",
        ),
        (
            lambda x, a: 0.0,
            lambda x, t, a: None if (t, a) == (1.0, "c") else 1.0,
            1,
            "running cost non-finite at state 0, t index 1, control 'c'",
        ),
        (
            lambda x, a: np.array([0.0, 0.0]) if x == 2.0 else 0.0,
            lambda x, t, a: 1.0,
            1,
            "dynamics at state 2, control 'a' returned array([0., 0.]); expected 1 finite number",
        ),
        (
            lambda x, a: None if (x, a) == (4.0, "c") else 0.0,
            lambda x, t, a: 1.0,
            1,
            "dynamics at state 4, control 'c' returned None; expected 1 finite number",
        ),
        (
            lambda x, a: 0.0,
            lambda x, t, a: 1.0,
            2,
            "dynamics at state 0, control 'a' returned 0.0; expected 2 finite numbers",
        ),
    ],
    ids=["cost-array", "cost-size-1-array", "cost-none", "velocity-length-2", "velocity-none",
         "velocity-scalar-in-2d"],
)
def test_rejects_callback_values_of_the_wrong_kind(dynamics, running_cost, state_dim, message):
    with pytest.raises(ValueError) as info:
        make_control_problem(
            state_dim=state_dim,
            nodes_per_axis=5,
            origin=[0.0] * state_dim,
            spacing=1.0,
            controls=("a", "b", "c"),
            dynamics=dynamics,
            running_cost=running_cost,
            horizon=2.0,
            time_step=1.0,
        )
    assert str(info.value) == message


def duplicate_problem(rng):
    # few targets and costs in {0, 1, 2} at dt = 1/2: most (state, target)
    # groups hold several controls, cheaper, equal or dearer than each other,
    # about one move in four is -1, and every sum of costs is exact
    S, T, A = int(rng.integers(2, 7)), int(rng.integers(1, 6)), int(rng.integers(2, 7))
    move = rng.integers(-1, min(3, S), size=(S, A))
    move[:, 0] = rng.integers(0, min(3, S), size=S)  # every state keeps a control
    return control.ControlProblem(
        state_dim=1,
        nodes_per_axis=S,
        origin=np.zeros(1),
        spacing=1.0,
        controls=tuple(range(A)),
        move=move,
        ell=rng.integers(0, 3, size=(S, T, A)).astype(float),
        horizon=0.5 * T,
        time_step=0.5,
    )


def with_a_duplicate(rng, p):
    """``p`` with costs in {1, 2} and one more control, a copy of a seeded
    control's moves whose cost is one less, the same or one more at each arc."""
    S, T, A = p.ell.shape
    ell = rng.integers(1, 3, size=(S, T, A)).astype(float)
    a = int(rng.integers(A))
    copy = ell[:, :, a] + rng.integers(-1, 2, size=(S, T))
    return dataclasses.replace(
        p,
        controls=p.controls + (A,),
        move=np.column_stack([p.move, p.move[:, a]]),
        ell=np.concatenate([ell, copy[:, :, None]], axis=2),
    )


def test_duplicate_controls_solve_as_the_loop_dp_on_the_kept_arcs():
    # the DP's and the LP's min over all admissible arcs give, bit for bit,
    # what a loop DP over only the arcs that loop_collapse_duplicates keeps
    # gives; masses are binary fractions, so every value below is exact
    rng = np.random.default_rng(101)
    collapsed = 0
    for i in range(30):
        if i % 2:
            p = with_a_duplicate(rng, random_problem(rng, max_states=6, max_controls=3))
        else:
            p = duplicate_problem(rng)
        S, T = p.num_states, p.num_steps
        kept, collapses = loop_collapse_duplicates(p.move, p.ell)
        assert p.duplicate_collapses == len(collapses)
        collapsed += len(collapses)
        assert np.array_equal(p.active, np.broadcast_to((p.move >= 0)[:, None, :], p.ell.shape))

        init = np.zeros(S)
        atoms = rng.choice(S, size=int(rng.integers(1, S + 1)), replace=False)
        init[atoms] = rng.choice([0.25, 0.5, 1.0], size=len(atoms))
        result = run_control(p, init)
        v, argmin = loop_value_function(p, kept)
        assert np.array_equal(result.value_function.v, v)
        assert np.array_equal(result.value_function.argmin_control, argmin)
        assert result.lp.value == result.dp_total == float(np.dot(init, v[:, T]))
        assert not result.lp.measure[~kept].any()  # the LP's paths run on kept arcs
        assert all(result.criteria(1e-12).values()), result.criteria(1e-12)
    assert collapsed >= 100


def test_make_control_problem_transient_memory_is_bounded():
    # The build keeps one (S, T, A) table, the costs; it makes no collapse
    # tables, since duplicate controls are left to the solvers' min.  An
    # (S, T, A, A) float table alone would be A / 4 of the bound.  The box is
    # the benchmark's largest: half-width 16, 16 steps, 9 controls.
    tracemalloc.start()
    try:
        p = make_control_problem(
            state_dim=2,
            nodes_per_axis=33,
            origin=[-0.5, -0.5],
            spacing=1 / 32,
            controls=tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)),
            dynamics=lambda x, a: a,
            running_cost=lambda x, t, a: 1.0,
            horizon=0.5,
            time_step=1 / 32,
        )
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    S, T, A = p.ell.shape
    assert (S, T, A) == (33 * 33, 16, 9)
    assert peak - current < 4 * S * T * A * 8


def test_random_suite_dp_equals_lp_and_checks_hold():
    rng = np.random.default_rng(71)
    for _ in range(15):
        p = random_problem(rng)
        vf = solve_value_function(p)
        start = int(rng.integers(0, p.num_states))
        lp = solve_relaxed_lp(p, {start: 1.0})
        assert lp.status == "OPTIMAL"
        assert abs(lp.value - vf.v[start, p.num_steps]) <= 1e-9
        cert = certify_control(p, lp)
        on_max, off_min = maximum_principle_check(cert, lp.measure)
        assert on_max <= 1e-8
        assert off_min >= -1e-9
        for states, _m in extract_optimal_trajectories(p, lp):
            assert check_u_v_relation(cert, vf, states) <= 1e-8


def seeded_lp_problems(rng, count):
    # in turn: random_problem (costs in [-1, 1]), box_problem_2d and a 1-D
    # Legendre problem
    for i in range(count):
        if i % 3 == 0:
            yield random_problem(rng, max_states=12, max_controls=4, max_steps=6)
        elif i % 3 == 1:
            yield box_problem_2d(rng, half=int(rng.integers(1, 5)), steps=int(rng.integers(1, 5)))
        else:
            yield legendre_problem(int(rng.integers(1, 4)), gamma=float(rng.uniform(0.02, 0.1)))


def test_sweep_from_one_atom_equals_the_flow_oracle_bit_for_bit():
    rng = np.random.default_rng(113)
    for p in seeded_lp_problems(rng, 30):
        for atom in rng.choice(p.num_states, size=min(3, p.num_states), replace=False):
            init = np.zeros(p.num_states)
            init[atom] = rng.uniform(0.5, 1.5)
            lp = solve_relaxed_lp(p, init)
            flow, _potentials, value = flow_relaxed_lp(p, init)
            assert np.array_equal(lp.measure, flow * p.time_step)
            assert lp.value == value
            path = tuple(lp.paths[0].tolist())
            assert extract_optimal_trajectories(p, lp) == [(path, init[atom])]


def test_lp_keeps_an_atom_of_any_positive_mass():
    # 9-state Legendre box; the atom at 7 is 13 decades lighter than the one
    # at 2 and their paths share no arc, so the measure is the sum of the two
    # single-atom measures and the LP value is the DP's
    p = legendre_problem(1)
    heavy, light = solve_relaxed_lp(p, {2: 1.0}), solve_relaxed_lp(p, {7: 1e-13})
    assert light.measure[7, 0].max() == 1e-13 * p.time_step
    result = run_control(p, {2: 1.0, 7: 1e-13})
    assert np.array_equal(result.lp.measure, heavy.measure + light.measure)
    assert result.lp.value == pytest.approx(result.dp_total, rel=1e-15)


def test_sweep_from_several_atoms_is_optimal_and_certified():
    # a few atoms, then a mass on every state: the dual is no longer the
    # flow's, but the value is the oracle's and the DP's, and the checks hold
    rng = np.random.default_rng(127)
    for p in seeded_lp_problems(rng, 30):
        S = p.num_states
        k = int(rng.integers(2, min(5, S) + 1))
        some = np.zeros(S)
        some[rng.choice(S, size=k, replace=False)] = rng.uniform(0.5, 1.5, k)
        for init in (some, rng.uniform(0.5, 1.5, S)):
            result = run_control(p, init)
            _flow, _potentials, value = flow_relaxed_lp(p, init)
            bound = 1e-9 * init.sum() * p.horizon
            assert abs(result.lp.value - value) <= bound
            assert abs(result.lp.value - result.dp_total) <= bound
            assert all(result.criteria(1e-8).values()), result.criteria(1e-8)
            atoms = np.flatnonzero(init)
            assert [states[0] for states, _m in result.trajectories] == atoms.tolist()
            assert [m for _states, m in result.trajectories] == init[atoms].tolist()


def seeded_atoms(rng, S, max_atoms):
    """A distribution on 1 to ``max_atoms`` seeded states of S, masses in [0.5, 1.5]."""
    k = int(rng.integers(1, max_atoms + 1))
    init = np.zeros(S)
    init[rng.choice(S, size=k, replace=False)] = rng.uniform(0.5, 1.5, k)
    return init


def test_certificate_is_the_shifted_value_function_bit_for_bit():
    # u(s, j) = best (T - j) / T - v(s, T - j) on reachable nodes before the
    # final layer, +0.0 elsewhere, with best the least supplied full-horizon
    # value and c0 = best / horizon
    rng = np.random.default_rng(137)
    for p in seeded_lp_problems(rng, 30):
        S, T = p.num_states, p.num_steps
        init = seeded_atoms(rng, S, S)
        cert = certify_control(p, solve_relaxed_lp(p, init))
        v = solve_value_function(p).v.tolist()
        supplied = np.flatnonzero(init).tolist()
        best = min(v[s][T] for s in supplied)
        assert cert.c0 == best / p.horizon
        inner = cert.reachable.copy()
        inner[:, T] = False
        formula = np.array(
            [[best * ((T - j) / T) - v[s][T - j] for j in range(T + 1)] for s in range(S)]
        )
        assert np.array_equal(cert.u[inner].view(np.int64), formula[inner].view(np.int64))
        assert not cert.u[~inner].view(np.int64).any()
        assert min(supplied, key=lambda s: v[s][T]) in np.flatnonzero(cert.u[:, 0] == 0.0)


def _path_solution(p, lp, paths):
    """``lp`` with its atoms' paths replaced by the feasible ``paths``: each
    atom's mass times dt, at every step, on the cheapest of the arcs that
    make it (the lowest control of equal ones)."""
    S, T, A = p.ell.shape
    atoms = np.flatnonzero(lp.initial)
    measure = np.zeros((S, T, A))
    for path, mass in zip(paths, lp.initial[atoms]):
        for j in range(T):
            s = path[j]
            a = np.where(p.move[s] == path[j + 1], p.ell[s, j], np.inf).argmin()
            measure[s, j, a] += mass * p.time_step
    value = float((measure * p.ell).sum())
    return control.RelaxedSolution(measure, value, lp.status, lp.initial, np.array(paths))


def test_a_costlier_path_fails_the_certificate(monkeypatch):
    # the certificate is the DP's, not the LP's own, so an LP whose path for
    # one atom is feasible but dearer than the DP value shows slack on its
    # support: at least (cost - v) / horizon on one of its arcs
    rng = np.random.default_rng(139)
    solve = control.solve_relaxed_lp
    checked = 0
    for p in seeded_lp_problems(rng, 24):
        S, T = p.num_states, p.num_steps
        v = solve_value_function(p).v
        init = seeded_atoms(rng, S, min(3, S))
        lp = solve(p, init)
        # one atom takes the worst one-step choice, dt*ell + v, at every step
        i = int(rng.integers(len(lp.paths)))
        paths = lp.paths.tolist()
        for j in range(T):
            s = paths[i][j]
            cand = p.time_step * p.ell[s, j] + v[np.maximum(p.move[s], 0), T - j - 1]
            paths[i][j + 1] = int(p.move[s, np.where(p.active[s, j], cand, -np.inf).argmax()])
        bad = _path_solution(p, lp, paths)
        if bad.value - lp.value <= 1e-6:
            continue  # every active choice ties along this atom's path
        checked += 1
        monkeypatch.setattr(control, "solve_relaxed_lp", lambda *_args: bad)
        criteria = run_control(p, init).criteria(1e-8)
        assert not criteria["max_principle_on_support"]
        assert not criteria["lp_dp_gap"]
    assert checked >= 12


def test_run_control_solves_the_dp_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return solve_value_function(p)

    monkeypatch.setattr(control, "solve_value_function", counted)
    p = box_problem_2d(np.random.default_rng(149))
    result = run_control(p, {0: 1.0, 4: 0.5, p.num_states - 1: 2.0})
    assert all(result.criteria(1e-8).values()), result.criteria(1e-8)
    assert len(calls) == 1 and calls[0] is p


def test_solve_relaxed_lp_memory_does_not_grow_with_the_atoms():
    # a mass on each of the S states; one (T+1, S) label table kept per atom
    # would alone be S / (8 A), here 4, times the bound
    p = box_problem_2d(np.random.default_rng(131), half=8, steps=8)
    S, T, A = p.ell.shape
    tracemalloc.start()
    try:
        solve_relaxed_lp(p, np.ones(S))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * S * T * A * 8


def box_problem_2d(rng, half=3, steps=3):
    # controls {-1, 0, 1}^2 at unit speed, dt = dx, seeded quadratic cost plus
    # a travelling tilt, as in the 2-D box of the benchmark
    dx = 0.5 / half
    gamma, beta, phase = rng.uniform(0.02, 0.1), rng.uniform(0.1, 0.5), rng.uniform(0, 2 * np.pi)
    omega = 2 * np.pi / (steps * dx)

    def running_cost(x, t, a):
        return (
            x[0] ** 2 + x[1] ** 2 + gamma * (a[0] ** 2 + a[1] ** 2)
            + beta * np.cos(omega * t + phase) * (x[0] - x[1])
        )

    return make_control_problem(
        state_dim=2,
        nodes_per_axis=2 * half + 1,
        origin=[-0.5, -0.5],
        spacing=dx,
        controls=tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)),
        dynamics=lambda x, a: np.array(a, dtype=float),
        running_cost=running_cost,
        horizon=steps * dx,
        time_step=dx,
    )


@pytest.mark.parametrize("atoms", [1, 3])
def test_run_control_2d_box(atoms):
    rng = np.random.default_rng(83)
    p = box_problem_2d(rng)
    assert p.state_dim == 2 and len(p.controls) == 9
    starts = rng.choice(p.num_states, size=atoms, replace=False)
    masses = rng.uniform(0.5, 1.5, size=atoms)
    result = run_control(p, {int(s): float(m) for s, m in zip(starts, masses)})
    assert all(result.criteria(1e-8).values()), result.criteria(1e-8)
    for s in starts:
        dp = result.value_function.v[s, p.num_steps]
        assert dp == pytest.approx(enumerate_control_cost(p, int(s)), abs=1e-12)


def test_run_control_1d_multi_atom():
    p = random_problem(np.random.default_rng(89), max_states=9, max_controls=3, max_steps=5)
    result = run_control(p, {0: 0.2, p.num_states // 2: 0.5, p.num_states - 1: 0.3})
    assert all(result.criteria(1e-8).values()), result.criteria(1e-8)
    # u vanishes on the final layer and off the reachable set, not at t = 0
    cert = result.certificate
    assert np.all(cert.u[:, -1] == 0.0) and np.all(cert.u[~cert.reachable] == 0.0)
    assert np.any(cert.u[:, 0] != 0.0)


def box_exit_problem_2d(rng, max_side=5, max_steps=4, max_controls=5):
    # seeded unit-spaced steps drawn from {-2..2}^2, many of which leave the
    # box, and seeded costs; a state where every step leaves is rejected
    n = int(rng.integers(2, max_side + 1))
    steps = rng.integers(-2, 3, size=(int(rng.integers(1, max_controls + 1)), 2))
    T = int(rng.integers(1, max_steps + 1))
    costs = rng.uniform(-1.0, 1.0, size=(n * n, T, len(steps)))

    def running_cost(x, t, a):
        return float(costs[int(round(x[0])) * n + int(round(x[1])), int(round(t)), a])

    return make_control_problem(
        state_dim=2,
        nodes_per_axis=n,
        origin=[0.0, 0.0],
        spacing=1.0,
        controls=tuple(range(len(steps))),
        dynamics=lambda x, a: steps[a].astype(float),
        running_cost=running_cost,
        horizon=float(T),
        time_step=1.0,
    )


def test_every_accepted_problem_keeps_its_invariant_and_solves():
    # whatever make_control_problem accepts has finite costs, admissible
    # active arcs and an active arc at every (state, t index), so the DP
    # value is finite and the layered LP optimal, for any initial atoms
    rng = np.random.default_rng(101)
    problems = [random_problem(rng, max_states=12, max_controls=4, max_steps=6) for _ in range(60)]
    rejected = 0
    while len(problems) < 100:
        try:
            problems.append(box_exit_problem_2d(rng))
        except ValueError as err:
            assert "no admissible control" in str(err)
            rejected += 1
    assert rejected > 0
    for p in problems:
        assert np.isfinite(p.ell).all()
        assert not (p.active & (p.move < 0)[:, None, :]).any()
        assert p.active.any(axis=2).all()
        v = solve_value_function(p).v
        assert np.isfinite(v).all()
        k = int(rng.integers(1, p.num_states + 1))
        atoms = rng.choice(p.num_states, size=k, replace=False)
        lp = solve_relaxed_lp(p, dict(zip(atoms.tolist(), rng.uniform(0.5, 1.5, k).tolist())))
        assert lp.status == "OPTIMAL"
        assert abs(lp.value - np.dot(lp.initial, v[:, -1])) <= 1e-9 * lp.initial.sum() * p.horizon


def test_lp_rejects_initial_state_outside_grid():
    p = three_state_problem()
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            solve_relaxed_lp(p, {bad: 1.0})


@pytest.mark.parametrize(
    "initial, message",
    [
        ({1.5: 1.0}, "initial state 1.5 is not an integer"),
        ({np.nan: 1.0}, "initial state nan is not an integer"),
        ({1: np.nan}, "initial mass at state 1 is nan, not finite"),
        ({0: 1.0, 2: np.inf}, "initial mass at state 2 is inf, not finite"),
        (np.array([0.0, np.nan, 1.0]), "initial mass at state 1 is nan, not finite"),
        ([0.0, 1.0], "initial distribution has shape (2,), expected (3,)"),
        ({0: 1.0, 1: -0.5}, "initial distribution must be nonnegative with positive mass"),
    ],
    ids=["fractional", "nan_state", "nan_mass", "inf_mass", "nan_array", "short_array", "negative"],
)
def test_lp_rejects_a_bad_initial_distribution(initial, message):
    with pytest.raises(ValueError) as err:
        solve_relaxed_lp(three_state_problem(), initial)
    assert str(err.value) == message


def test_lp_reads_an_integral_float_state_as_that_state():
    p = three_state_problem()
    assert np.array_equal(solve_relaxed_lp(p, {1.0: 1.0}).initial, [0.0, 1.0, 0.0])


def test_array_checks_equal_loop_references():
    rng = np.random.default_rng(97)
    for i in range(12):
        if i % 2:
            p = random_problem(rng, max_controls=5)
        else:
            p = box_problem_2d(rng, half=int(rng.integers(1, 4)), steps=int(rng.integers(1, 4)))
        k = int(rng.integers(1, min(3, p.num_states) + 1))
        atoms = rng.choice(p.num_states, size=k, replace=False)
        lp = solve_relaxed_lp(p, {int(s): float(m) for s, m in zip(atoms, rng.uniform(0.5, 1.5, k))})
        vf = solve_value_function(p)
        cert = certify_control(p, lp)

        assert p.duplicate_collapses == len(loop_collapse_duplicates(p.move, p.ell)[1])
        assert np.array_equal(loop_reachable(p, cert.supplied), cert.reachable)
        assert loop_maximum_principle(cert, lp.measure) == maximum_principle_check(cert, lp.measure)
        assert loop_hjb_residual(vf, p) == hjb_residual(vf, p)
        for states, _m in extract_optimal_trajectories(p, lp):
            assert loop_u_v_residual(cert, states) == check_u_v_relation(cert, vf, states)


def _rest_problem(cost):
    """An atom of mass 0.1 at rest for ten unit steps at a constant running cost."""
    p = make_control_problem(
        state_dim=1, nodes_per_axis=3, origin=[0.0], spacing=1.0, controls=(0,),
        dynamics=lambda x, a: 0.0, running_cost=lambda x, t, a: cost,
        horizon=10.0, time_step=1.0,
    )
    return p, solve_relaxed_lp(p, {1: 0.1})


def test_lp_value_adds_the_arcs_in_order():
    # ten arcs of weight 0.1 at cost 0.3: in order 0.30000000000000004,
    # compensated (builtin sum from Python 3.12) 0.3
    p, lp = _rest_problem(0.3)
    terms = [0.1 * 0.3] * 10
    assert math.fsum(terms) != loop_sum(terms)
    assert lp.value == loop_sum(terms) == 0.30000000000000004


def test_empirical_mean_cost_divides_by_the_mass_added_in_order():
    # the mass, ten weights 0.1, is 0.9999999999999999 in order, 1.0 compensated
    p, lp = _rest_problem(0.3)
    cert = certify_control(p, lp)
    assert math.fsum([0.1] * 10) != loop_sum([0.1] * 10)
    assert cert.empirical_mean_cost == lp.value / loop_sum([0.1] * 10) == 0.3000000000000001
