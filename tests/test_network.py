import math

import numpy as np
import pytest

from oracles import independent_karp, loop_min_cost_flow, loop_ssp_min_cost_flow

from actionlab.network import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    cost_tolerance,
    min_cost_flow,
    minimum_mean_cycle,
    relax_to_fixpoint,
    dijkstra_fixpoint,
    strongly_connected_components,
)


def test_scc_two_components_with_bridge():
    # 0 <-> 1 strongly connected, 2 <-> 3 strongly connected, bridge 1 -> 2
    tails = np.array([0, 1, 2, 3, 1])
    heads = np.array([1, 0, 3, 2, 2])
    comp = strongly_connected_components(4, tails, heads)
    assert comp[0] == comp[1]
    assert comp[2] == comp[3]
    assert comp[0] != comp[2]


def _slack(heads, costs, found):
    value, bias = found
    return np.asarray(costs) - value + bias[heads] - bias[:, None]


def test_minimum_mean_cycle_two_cycle_graph():
    # cycle 0->1->0 of mean 1.5, self-loop at 2 of mean 1.0, bridge 1->2;
    # nodes 0 and 2 have one out-edge each, padded with a parallel copy
    heads = np.array([[1, 1], [0, 2], [2, 2]])
    costs = np.array([[1.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
    found = minimum_mean_cycle(heads, costs)
    assert found[0] == pytest.approx(1.0)
    # every node reaches the self-loop, so the bias is feasible on every edge
    assert _slack(heads, costs, found).min() >= -1e-12


def _karp_with_virtual_source(heads, costs) -> float:
    """independent_karp from a node 0 joined to every node at cost 0, so that
    every node is reachable whatever the table."""
    n = len(heads)
    edges = [(0, v + 1, 0.0) for v in range(n)]
    edges += [(v + 1, int(w) + 1, float(c)) for v in range(n) for w, c in zip(heads[v], costs[v])]
    return independent_karp(n + 1, edges)


def test_minimum_mean_cycle_matches_independent_karp():
    # random (V, M) head tables with self-loops and parallel copies; in half
    # of them one column is a random Hamiltonian cycle, which makes the graph
    # strongly connected; integer costs force ties
    rng = np.random.default_rng(29)
    for trial in range(80):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        heads = rng.integers(0, n, size=(n, m))
        for v in rng.integers(0, n, size=int(rng.integers(1, 4))):
            heads[v, rng.integers(0, m)] = v
        for v in rng.integers(0, n, size=3):
            heads[v, rng.integers(0, m)] = heads[v, rng.integers(0, m)]
        connected = trial % 2 == 0
        if connected:
            ring = rng.permutation(n)
            heads[ring, rng.integers(0, m)] = np.roll(ring, -1)
        if trial % 4 < 2:
            costs = rng.integers(-3, 4, size=(n, m)).astype(float)
        else:
            costs = rng.uniform(-1.0, 1.0, size=(n, m))
        found = minimum_mean_cycle(heads, costs)
        assert found[0] == pytest.approx(_karp_with_virtual_source(heads, costs), abs=1e-12)
        assert np.isfinite(found[1]).all()
        if connected:
            tol = cost_tolerance(float(np.ptp(costs)), n)
            slack = _slack(heads, costs, found)
            assert slack.min() >= -tol
            # every node keeps a tight out-edge, so the tight edges hold a cycle
            assert (slack <= tol).any(axis=1).all()


@pytest.mark.parametrize("upstream_mean", [1.0, 3.0])
def test_minimum_mean_cycle_two_components_of_different_means(upstream_mean):
    # component {0, 1} feeds component {2, 3} through the bridge 1 -> 2; the
    # other component has mean 4 - upstream_mean, and the answer is 1 either
    # way; nodes 0 and 2 have one out-edge each, padded with a parallel copy
    downstream_mean = 4.0 - upstream_mean
    heads = np.array([[1, 1], [0, 2], [3, 3], [2, 3]])
    costs = np.array(
        [[upstream_mean - 0.5] * 2, [upstream_mean + 0.5, 10.0],
         [downstream_mean + 1.0] * 2, [downstream_mean - 1.0, 9.0]]
    )
    found = minimum_mean_cycle(heads, costs)
    assert found[0] == pytest.approx(1.0)
    assert np.isfinite(found[1]).all()
    slack = _slack(heads, costs, found)
    # feasible on every edge whose head reaches a mean-1 cycle
    reaches = [0, 1, 2, 3] if downstream_mean == 1.0 else [0, 1]
    into = np.isin(heads, reaches)
    assert slack[into].min() >= -1e-12


def test_relax_to_fixpoint_detects_negative_cycle():
    tails = np.array([0, 1])
    heads = np.array([1, 0])
    costs = np.array([1.0, -2.0])
    _pot, ok = relax_to_fixpoint(2, tails, heads, costs)
    assert not ok
    costs2 = np.array([1.0, -1.0])
    pot, ok2 = relax_to_fixpoint(2, tails, heads, costs2, tol=1e-12)
    assert ok2
    # zero-mean cycle: potentials are finite and feasible
    assert pot[1] <= pot[0] + 1.0 + 1e-12
    assert pot[0] <= pot[1] - 1.0 + 1e-12


def _no_negative_cycle_graph(rng, n):
    """Random graph on n nodes, costs = nonnegative part + a potential
    difference: single arcs go negative, every cycle costs >= 0."""
    m = 4 * n
    tails = np.r_[np.arange(n), rng.integers(0, n, size=m)]
    heads = np.r_[np.roll(np.arange(n), -1), rng.integers(0, n, size=m)]
    phi = rng.uniform(-5.0, 5.0, size=n)
    costs = rng.uniform(0.0, 1.0, size=len(tails)) + phi[tails] - phi[heads]
    return tails, heads, costs


def test_relax_to_fixpoint_exact_fixpoint_start_comes_back_unchanged():
    rng = np.random.default_rng(41)
    tails, heads, costs = _no_negative_cycle_graph(rng, 30)
    pot, ok = relax_to_fixpoint(30, tails, heads, costs)
    assert ok
    again, ok2 = relax_to_fixpoint(30, tails, heads, costs, start=pot)
    assert ok2
    assert np.array_equal(again, pot)
    # a hand-made feasible start above the shortest walks is a fixpoint too:
    # on a path 0 -> 1 -> 2 of cost 1 per arc, start = (0, 1, 2)
    start = np.array([0.0, 1.0, 2.0])
    out, ok3 = relax_to_fixpoint(3, [0, 1], [1, 2], [1.0, 1.0], start=start)
    assert ok3 and np.array_equal(out, start)


def test_relax_to_fixpoint_negative_cycle_from_any_start():
    rng = np.random.default_rng(43)
    tails, heads, costs = _no_negative_cycle_graph(rng, 20)
    # arc 0 -> 1 and a reverse arc one unit cheaper than free: a 2-cycle of cost -1
    tails, heads = np.r_[tails, heads[0]], np.r_[heads, tails[0]]
    costs = np.r_[costs, -costs[0] - 1.0]
    tol = cost_tolerance(float(np.ptp(costs)), 20)
    _pot, ok = relax_to_fixpoint(20, tails, heads, costs, tol=tol)
    assert not ok
    for _ in range(5):
        start = rng.uniform(-1e3, 1e3, size=20)
        _pot, ok = relax_to_fixpoint(20, tails, heads, costs, tol=tol, start=start)
        assert not ok


def test_relax_to_fixpoint_random_starts_end_feasible():
    rng = np.random.default_rng(47)
    for trial in range(20):
        n = int(rng.integers(1, 40))
        tails, heads, costs = _no_negative_cycle_graph(rng, n)
        tol = cost_tolerance(float(np.ptp(costs)), n)
        start = rng.uniform(-100.0, 100.0, size=n) * (trial % 3)
        pot, ok = relax_to_fixpoint(n, tails, heads, costs, tol=tol, start=start)
        assert ok
        assert np.all(pot <= start)
        assert (costs + pot[tails] - pot[heads]).min() >= -tol


def test_dijkstra_fixpoint_is_the_relaxation_fixpoint_under_a_feasible_guide():
    # single arcs are negative, so Dijkstra needs the guide: the fixpoint of
    # the costs before the tilt by phi, moved by -phi, is feasible for the
    # tilted costs but is not their fixpoint, which one Dijkstra must reach
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        tails, heads, costs = _no_negative_cycle_graph(rng, n)
        phi = rng.uniform(-1.0, 1.0, size=n)
        costs = costs + phi[tails] - phi[heads]
        fixpoint, ok = relax_to_fixpoint(n, tails, heads, costs)
        assert ok
        guide, ok = relax_to_fixpoint(n, tails, heads, costs + phi[heads] - phi[tails])
        found = dijkstra_fixpoint(n, tails, heads, costs, guide - phi)
        assert np.allclose(found, fixpoint, rtol=0, atol=1e-9)
        # a start the relaxation confirms in one round
        tol = cost_tolerance(float(np.ptp(costs)), n)
        pot, ok = relax_to_fixpoint(n, tails, heads, costs, tol=tol, start=found)
        assert ok and np.max(found - pot) <= tol


def test_dijkstra_fixpoint_from_any_guide_is_a_start_that_reaches_the_fixpoint():
    rng = np.random.default_rng(59)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        tails, heads, costs = _no_negative_cycle_graph(rng, n)
        fixpoint, _ = relax_to_fixpoint(n, tails, heads, costs)
        found = dijkstra_fixpoint(n, tails, heads, costs, rng.uniform(-50.0, 50.0, size=n))
        assert np.all(np.isfinite(found)) and np.all(found <= 0.0)
        pot, ok = relax_to_fixpoint(n, tails, heads, costs, start=found)
        assert ok and np.allclose(pot, fixpoint, rtol=0, atol=1e-9)


def test_min_cost_flow_simple_transport():
    # two supplies, one demand, cheaper route must win first
    tails = np.array([0, 1, 0])
    heads = np.array([2, 2, 1])
    costs = np.array([3.0, 1.0, 1.0])
    b = np.array([-1.0, -1.0, 2.0])
    res = min_cost_flow(3, tails, heads, costs, b)
    assert res.status == OPTIMAL
    # supply at 0 routes 0->1->2 (cost 2) rather than 0->2 (cost 3)
    assert res.value == pytest.approx(3.0)
    assert res.flow.tolist() == [0.0, 2.0, 1.0]
    # potentials are dual feasible and tight on flow arcs
    rc = costs + res.potentials[tails] - res.potentials[heads]
    assert np.min(rc) >= -1e-12
    assert np.max(np.abs(rc[res.flow > 0])) <= 1e-12


def test_min_cost_flow_names_size_costs_and_limit_when_it_does_not_finish(monkeypatch):
    from actionlab import network

    monkeypatch.setattr(network, "AUGMENTATIONS_PER_ELEMENT", 0)
    tails, heads = np.array([0, 1, 0]), np.array([2, 2, 1])
    b = np.array([-1.0, -1.0, 2.0])
    with pytest.raises(RuntimeError) as err:
        min_cost_flow(3, tails, heads, np.array([3.0, 1.0, 1.0]), b)
    assert str(err.value) == (
        "min_cost_flow did not finish in 0 augmentations on 3 nodes and 3 edges with costs "
        "in [1.0, 3.0], mass tolerance 4e-13; solver bug"
    )


def test_minimum_mean_cycle_names_size_spread_and_tolerance_when_it_does_not_settle(
    monkeypatch,
):
    from actionlab import network

    # a negative tolerance makes every tied edge look improving, so the
    # policy switches until the round limit runs out
    monkeypatch.setattr(network, "cost_tolerance", lambda spread, n: -0.5)
    heads = np.array([[1, 0], [0, 1]])
    with pytest.raises(RuntimeError) as err:
        minimum_mean_cycle(heads, np.ones((2, 2)))
    assert str(err.value) == (
        "policy iteration did not settle on 2 nodes and 4 edges with cost spread 0.0, "
        "tolerance -0.5; solver bug"
    )


def test_min_cost_flow_infeasible_when_disconnected():
    tails = np.array([0])
    heads = np.array([1])
    costs = np.array([1.0])
    b = np.array([0.0, -1.0, 1.0])  # supply at 1 cannot reach demand at 2
    res = min_cost_flow(3, tails, heads, costs, b)
    assert res.status == INFEASIBLE


def test_min_cost_flow_unbounded_on_negative_cycle():
    tails = np.array([0, 1, 0])
    heads = np.array([1, 0, 2])
    costs = np.array([-1.0, -1.0, 1.0])
    b = np.array([-1.0, 0.0, 1.0])
    res = min_cost_flow(3, tails, heads, costs, b)
    assert res.status == UNBOUNDED


def test_min_cost_flow_matches_linprog_with_negative_costs():
    # costs shifted by a potential difference: individual arcs go negative but
    # every cycle keeps positive cost, so the problem stays bounded
    from scipy.optimize import linprog

    rng = np.random.default_rng(89)
    for _ in range(10):
        n = int(rng.integers(4, 8))
        tails, heads, costs = [], [], []
        f = rng.normal(size=n)
        for u in range(n):
            for v in range(n):
                if u != v:
                    tails.append(u)
                    heads.append(v)
                    costs.append(float(rng.uniform(0.05, 1.0) + f[v] - f[u]))
        tails = np.array(tails)
        heads = np.array(heads)
        costs = np.array(costs)
        b = np.zeros(n)
        supply = rng.uniform(0.2, 1.0, size=2)
        b[0], b[1] = -supply[0], -supply[1]
        b[n - 1] = supply.sum()
        res = min_cost_flow(n, tails, heads, costs, b)
        assert res.status == OPTIMAL

        E = len(tails)
        A_eq = np.zeros((n, E))
        for e in range(E):
            A_eq[heads[e], e] += 1.0
            A_eq[tails[e], e] -= 1.0
        lp = linprog(costs, A_eq=A_eq, b_eq=b, bounds=[(0, None)] * E, method="highs")
        assert lp.success
        assert res.value == pytest.approx(lp.fun, abs=1e-9)


def test_min_cost_flow_fractional_amounts():
    rng = np.random.default_rng(83)
    tails, heads, costs = [], [], []
    n = 6
    for u in range(n):
        for v in range(n):
            if u != v:
                tails.append(u)
                heads.append(v)
                costs.append(float(rng.uniform(0.1, 2.0)))
    b = np.zeros(n)
    b[:3] = [-0.3, -0.45, -0.25]
    b[3:] = [0.5, 0.2, 0.3]
    res = min_cost_flow(n, np.array(tails), np.array(heads), np.array(costs), b)
    assert res.status == OPTIMAL
    # flow conservation reproduces the imbalances
    net = np.zeros(n)
    for t, h, f in zip(tails, heads, res.flow):
        net[h] += f
        net[t] -= f
    assert np.max(np.abs(net - b)) <= 1e-10


def _random_flow_case(rng, n, negative_cycle=False, split=False, integer=False):
    """Dense graph with parallel edges and self-loops.  Costs are a positive
    part plus a potential difference, so single arcs go negative while every
    cycle stays positive, unless a negative cycle is planted.  With ``split``
    no edge joins the two halves of the nodes; ``integer`` costs tie often."""
    f = rng.integers(-2, 3, size=n) if integer else rng.normal(size=n)
    tails, heads = [], []
    for u in range(n):
        for v in range(n):
            if not split or (u < n // 2) == (v < n // 2):
                tails += [u] * int(rng.integers(1, 3))
                heads += [v] * (len(tails) - len(heads))
    tails, heads = np.array(tails), np.array(heads)
    if integer:
        costs = (rng.integers(1, 3, size=len(tails)) + f[heads] - f[tails]).astype(float)
    else:
        costs = rng.uniform(0.05, 1.0, size=len(tails)) + f[heads] - f[tails]
    if negative_cycle:
        u, v = rng.choice(n, size=2, replace=False)
        pair = np.flatnonzero(((tails == u) & (heads == v)) | ((tails == v) & (heads == u)))
        costs[pair] = f[heads[pair]] - f[tails[pair]] - 0.5
    b = np.zeros(n)
    ends = rng.choice(n, size=4, replace=False)
    supply = rng.uniform(0.1, 1.0, size=2)
    b[ends[:2]] = -supply
    b[ends[2:]] = supply[::-1] if rng.random() < 0.5 else supply
    return n, tails, heads, costs, b


def _random_layered_case(rng, states, layers):
    """Time-layered DAG like the control LP's: arcs from layer j to j + 1 with
    signed costs, parallel arcs, fractional supplies at layer 0 and one sink."""
    sink = states * (layers + 1)
    tails, heads = [], []
    for j in range(layers):
        for s in range(states):
            for t in rng.integers(0, states, size=int(rng.integers(1, 4))):
                tails.append(j * states + s)
                heads.append((j + 1) * states + int(t))
    tails += [layers * states + s for s in range(states)]
    heads += [sink] * states
    costs = np.concatenate(
        [rng.uniform(-1.0, 1.0, size=len(tails) - states), np.zeros(states)]
    )
    b = np.zeros(sink + 1)
    b[:states] = -rng.dirichlet(np.ones(states))
    b[sink] = -b[:states].sum()
    return sink + 1, np.array(tails), np.array(heads), costs, b


def test_min_cost_flow_equals_loop_reference():
    # the CSR/memoryview solver against the per-node-list, numpy-scalar loop:
    # equal flows, potentials, values and statuses, bit for bit; integer
    # costs make ties, so the scan order of the arcs is pinned too.  The
    # loop computes each reduced cost as it scans the arc, self-loops
    # included; the solver computes them per phase and skips self-loops.
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(6):
        n = int(rng.integers(4, 10))
        cases.append(_random_flow_case(rng, n))
        cases.append(_random_flow_case(rng, n, negative_cycle=True))
        cases.append(_random_flow_case(rng, n, split=True))
        cases.append(_random_flow_case(rng, n, integer=True))
        cases.append(_random_layered_case(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5))))
    # boundary flows on the torus: every node has its rest self-loop, and the
    # one at the table's minimum costs exactly 0
    torus = ((1, 32, 1, 6), (1, 40, 1, 12), (1, 24, 2, 5), (2, 6, 1, 8), (2, 8, 1, 3), (2, 5, 2, 4))
    for d, n, k, pairs in torus:
        num_nodes, tails, heads, costs, b = case = _torus_flow_case(rng, d, n, k, pairs)
        loops = tails == heads
        assert np.array_equal(np.sort(tails[loops]), np.arange(num_nodes))
        assert costs[loops].min() == 0.0
        cases.append(case)
    statuses = set()
    for case in cases:
        res = min_cost_flow(*case)
        ref = loop_min_cost_flow(*case)
        statuses.add(res.status)
        assert res.status == ref.status
        assert np.array_equal(res.flow, ref.flow)
        assert np.array_equal(res.potentials, ref.potentials)
        assert res.value == ref.value
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def _torus_flow_case(rng, d, n, k, pairs):
    """A boundary problem's flow on the d-dimensional torus: a seeded
    kinetic-plus-cosine table shifted to minimum 0, and ``pairs`` unit
    charges h of each sign at distinct random nodes."""
    from actionlab import build_torus_grid, sample_lagrangian

    grid = build_torus_grid(d, n, k, 1.0 / n)
    amps, waves = rng.uniform(0.5, 1.5, size=2), rng.integers(1, 3, size=2)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def lagrangian(x, v):
        v = np.atleast_1d(v)
        x0 = float(np.atleast_1d(x)[0])
        return 0.5 * float(v @ v) + sum(
            a * math.cos(2.0 * math.pi * w * x0 + p) for a, w, p in zip(amps, waves, phases)
        )

    values = sample_lagrangian(grid, lagrangian).values
    tails, heads = grid.edge_endpoints
    nodes = rng.choice(grid.num_nodes, size=2 * pairs, replace=False)
    b = np.zeros(grid.num_nodes)
    b[nodes[:pairs]] = -grid.time_step
    b[nodes[pairs:]] = grid.time_step
    return grid.num_nodes, tails, heads, (values - values.min()).ravel(), b


def _linprog_flow(num_nodes, tails, heads, costs, b):
    """scipy's LP optimum of the same uncapacitated min-cost flow."""
    from scipy.optimize import linprog

    A_eq = np.zeros((num_nodes, len(tails)))
    np.add.at(A_eq, (heads, np.arange(len(tails))), 1.0)
    np.add.at(A_eq, (tails, np.arange(len(tails))), -1.0)
    return linprog(costs, A_eq=A_eq, b_eq=b, bounds=[(0, None)] * len(tails), method="highs")


def test_phased_min_cost_flow_matches_one_path_per_dijkstra_ssp():
    # the phases augment other paths, in another order, than the textbook
    # one-source-per-augmentation loop; the status and the optimal value
    # must not change beyond the round-off of the costs
    rng = np.random.default_rng(67)
    cases = []
    for _ in range(6):
        n = int(rng.integers(4, 10))
        cases.append(_random_flow_case(rng, n))
        cases.append(_random_flow_case(rng, n, integer=True))
        cases.append(_random_flow_case(rng, n, negative_cycle=True))
        cases.append(_random_flow_case(rng, n, split=True))
        cases.append(_random_layered_case(rng, int(rng.integers(2, 6)), int(rng.integers(1, 5))))
    for d, n, k, pairs in ((1, 48, 1, 10), (1, 32, 2, 8), (2, 8, 1, 12), (2, 6, 2, 6)):
        cases.append(_torus_flow_case(rng, d, n, k, pairs))
    statuses = set()
    for case in cases:
        res = min_cost_flow(*case)
        ref = loop_ssp_min_cost_flow(*case)
        statuses.add(res.status)
        assert res.status == ref.status
        if res.status == OPTIMAL:
            costs = case[3]
            tol = cost_tolerance(float(costs.max() - costs.min()), case[0])
            assert abs(res.value - ref.value) <= tol
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_min_cost_flow_self_loops_at_zero_cost_tie_and_a_negative_one_is_unbounded():
    # every self-loop at +-0.0 ties with staying put, among integer-cost
    # ties between paths too; the solver, which does not scan self-loops,
    # must equal the loop that does bit for bit, and scipy's LP in value.
    # One self-loop at -0.5 is a negative cycle on its own: UNBOUNDED, as
    # scipy agrees.
    rng = np.random.default_rng(73)
    for _ in range(6):
        n = int(rng.integers(4, 10))
        for integer in (False, True):
            num_nodes, tails, heads, costs, b = case = _random_flow_case(rng, n, integer=integer)
            loops = np.flatnonzero(tails == heads)
            costs[loops] = np.where(rng.random(len(loops)) < 0.5, 0.0, -0.0)
            res, ref = min_cost_flow(*case), loop_min_cost_flow(*case)
            assert res.status == ref.status == OPTIMAL
            assert np.array_equal(res.flow, ref.flow)
            assert np.array_equal(res.potentials, ref.potentials)
            assert res.value == ref.value
            assert not res.flow[loops].any()
            assert res.value == pytest.approx(_linprog_flow(*case).fun, abs=1e-9)

            costs[rng.choice(loops)] = -0.5
            assert min_cost_flow(*case).status == UNBOUNDED
            assert loop_min_cost_flow(*case).status == UNBOUNDED
            assert _linprog_flow(*case).status == 3  # unbounded


def test_scc_on_torus_tight_subgraphs_with_rest_edges_matches_scipy():
    # the closed solve's tight subgraph, and a random superset of it, with
    # every rest self-loop added: the labels must equal scipy's strong
    # components up to renumbering, a one-to-one map between the two
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(79)
    for d, n, k in ((1, 24, 1), (1, 16, 2), (2, 6, 1), (2, 8, 1), (2, 5, 2)):
        num_nodes, tails, heads, costs, _ = _torus_flow_case(rng, d, n, k, 1)
        neighbors, values = heads.reshape(num_nodes, -1), costs.reshape(num_nodes, -1)
        value, bias = minimum_mean_cycle(neighbors, values)
        slack = values - value + bias[neighbors] - bias[:, None]
        tight = slack <= cost_tolerance(float(values.max()), num_nodes)
        rest = neighbors == np.arange(num_nodes)[:, None]
        for mask in (tight | rest, tight | rest | (rng.random(tight.shape) < 0.3)):
            nodes, offsets = np.nonzero(mask)
            ends = neighbors[nodes, offsets]
            comp = strongly_connected_components(num_nodes, nodes, ends)
            graph = coo_matrix((np.ones(len(nodes)), (nodes, ends)), shape=(num_nodes, num_nodes))
            _, ref = connected_components(graph, directed=True, connection="strong")
            pairs = np.unique(np.stack([comp, ref]), axis=1)
            assert pairs.shape[1] == len(np.unique(comp)) == len(np.unique(ref))


def test_dijkstra_fixpoint_on_torus_graphs_with_rest_edges():
    # the boundary certificate's search on a torus graph, rest self-loops
    # included, with costs tilted by phi so that single arcs go negative
    # while the guide -phi keeps every reduced cost nonnegative: the result
    # is the fixpoint from zero, and the relaxation confirms it in one round
    # (its total descent is within one round's tolerance)
    rng = np.random.default_rng(83)
    for d, n, k in ((1, 40, 1), (1, 24, 2), (2, 8, 1), (2, 6, 2)):
        num_nodes, tails, heads, costs, _ = _torus_flow_case(rng, d, n, k, 1)
        phi = rng.uniform(-1.0, 1.0, size=num_nodes)
        tilted = costs + phi[tails] - phi[heads]
        found = dijkstra_fixpoint(num_nodes, tails, heads, tilted, -phi)
        fixpoint, ok = relax_to_fixpoint(num_nodes, tails, heads, tilted)
        assert ok and np.allclose(found, fixpoint, rtol=0, atol=1e-9)
        tol = cost_tolerance(float(np.ptp(tilted)), num_nodes)
        pot, ok = relax_to_fixpoint(num_nodes, tails, heads, tilted, tol=tol, start=found)
        assert ok and np.max(found - pot) <= tol


def test_min_cost_flow_potentials_are_optimal_duals():
    # reduced costs nonnegative everywhere and zero on the flow, and the
    # dual objective b . potentials equal to the primal value and to scipy's
    rng = np.random.default_rng(71)
    cases = [_random_flow_case(rng, int(rng.integers(4, 10))) for _ in range(4)]
    cases += [_random_flow_case(rng, int(rng.integers(4, 10)), integer=True) for _ in range(4)]
    for d, n, k, pairs in ((1, 40, 1, 9), (1, 24, 2, 6), (2, 6, 1, 8), (2, 5, 2, 5)):
        cases.append(_torus_flow_case(rng, d, n, k, pairs))
    for num_nodes, tails, heads, costs, b in cases:
        res = min_cost_flow(num_nodes, tails, heads, costs, b)
        assert res.status == OPTIMAL
        rc = costs + res.potentials[tails] - res.potentials[heads]
        assert rc.min() >= -1e-12
        assert np.abs(rc[res.flow > 0]).max() <= 1e-12
        lp = _linprog_flow(num_nodes, tails, heads, costs, b)
        assert lp.success
        assert res.value == pytest.approx(lp.fun, abs=1e-9)
        assert float(b @ res.potentials) == pytest.approx(res.value, abs=1e-9)


def test_min_cost_flow_one_source_feeds_two_sinks():
    # a charge -2h meets two +h charges on the ring: the source outlasts
    # its first sink, so its supply is split over two phases
    from actionlab import build_torus_grid, sample_lagrangian

    grid = build_torus_grid(1, 16, 1, 1.0 / 16)
    values = sample_lagrangian(grid, lambda x, v: 0.5 * v * v + 0.3 * math.cos(2 * math.pi * x)).values
    tails, heads = grid.edge_endpoints
    costs = (values - values.min()).ravel()
    h = grid.time_step
    b = np.zeros(16)
    b[[2, 7, 12]] = [-2.0 * h, h, h]
    res = min_cost_flow(16, tails, heads, costs, b)
    assert res.status == OPTIMAL
    net = np.bincount(heads, res.flow, 16) - np.bincount(tails, res.flow, 16)
    assert np.abs(net - b).max() <= 1e-15
    assert res.flow[tails == 2].sum() == pytest.approx(2.0 * h, abs=1e-15)
    lp = _linprog_flow(16, tails, heads, costs, b)
    assert res.value == pytest.approx(lp.fun, abs=1e-12)


def test_min_cost_flow_skips_a_path_whose_reverse_arc_emptied_in_the_same_phase():
    # Nodes a=0, b=1, S1=2, S2=3, d1=4, d2=5, d3=6.  Phase 1 sends a's unit
    # to b over the free arc a->b, and d1 and d2 settle with a's supply
    # spent.  In phase 2 S1 reaches d1 and d2 through b and the reverse of
    # a->b: d1 takes that arc's one unit and empties it, so d2, settling at
    # the same distance on the same tree path, must take nothing; phase 3
    # feeds d2 over S1->a.
    tails = np.array([0, 0, 0, 2, 2, 3])
    heads = np.array([1, 4, 5, 1, 0, 6])
    costs = np.array([0.0, 1.0, 1.0, 3.0, 5.0, 10.0])
    b = np.array([-1.0, 1.0, -2.0, -1.0, 1.0, 1.0, 1.0])
    res = min_cost_flow(7, tails, heads, costs, b)
    assert res.status == OPTIMAL
    assert res.flow.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert res.value == 20.0
    lp = _linprog_flow(7, tails, heads, costs, b)
    assert lp.fun == pytest.approx(20.0, abs=1e-12)


@pytest.mark.parametrize("isolated", [0, 1], ids=["smallest_source", "other_source"])
def test_min_cost_flow_infeasible_when_one_source_is_isolated(isolated):
    # sources 0 and 1, sinks 3 and 4 behind node 2; one source has no arc
    tails = np.array([1 - isolated, 2, 2, 3, 4])
    heads = np.array([2, 3, 4, 4, 3])
    b = np.array([-1.0, -1.0, 0.0, 1.0, 1.0])
    res = min_cost_flow(5, tails, heads, np.ones(5), b)
    assert res.status == INFEASIBLE
    assert _linprog_flow(5, tails, heads, np.ones(5), b).status == 2  # infeasible
