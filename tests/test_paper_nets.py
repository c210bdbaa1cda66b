"""Seeded metamorphic nets for the paper's characterization of minimizable
Lagrangians, checked against the theorem rather than against the code.

* Exact forms: L and L + df have the same minimizers, so the closed value and
  support are unchanged and the certificate of L + df passes every criterion.
* Tilts: alpha(P) = -min over closed probability measures of the action of
  L - P.v is convex in the class P, with rho(P) = the mean velocity of a
  minimizer as a subgradient: alpha(P') >= alpha(P) + rho(P).(P' - P).

Bounds are relative to the data's own scale, max |L|.
"""

import itertools

import numpy as np
import pytest

from actionlab import LagrangianTable, build_torus_grid, discrete_differential, run_measure
from actionlab.measure_lp import solve_closed

EPS = np.finfo(float).eps


def _random_table(rng, d, k, kind):
    n = int(rng.integers(3, 17 if d == 1 else 7))
    grid = build_torus_grid(d, n, k, float(rng.choice([0.25, 0.5, 1.0])))
    shape = (grid.num_nodes, grid.num_offsets)
    if kind == "uniform":
        values = rng.uniform(-1.0, 1.0, size=shape)
    else:  # many ties, so the support is decided by the tie-break alone
        values = rng.integers(0, 2, size=shape).astype(float)
    return LagrangianTable(grid=grid, values=values)


EXACT_FORM_CASES = [
    (d, k, kind, seed)
    for d in (1, 2)
    for k in (1, 2)
    for kind in ("uniform", "binary")
    for seed in range(5)
]


@pytest.mark.parametrize("d,k,kind,seed", EXACT_FORM_CASES)
def test_adding_an_exact_form_keeps_value_and_support(d, k, kind, seed):
    rng = np.random.default_rng([d, k, seed, kind == "binary"])
    table = _random_table(rng, d, k, kind)
    f = rng.normal(size=table.grid.num_nodes)
    formed = LagrangianTable(
        grid=table.grid, values=table.values + discrete_differential(f, table.grid)
    )
    base, result = run_measure(table), run_measure(formed)
    # the value is a mean of costs over one cycle, on which df telescopes
    scale = float(np.max(np.abs(formed.values)))
    assert abs(result.solution.value - base.solution.value) <= 64 * EPS * scale
    assert result.solution.measure.weights.keys() == base.solution.measure.weights.keys()
    criteria = result.criteria(64 * EPS * scale)
    assert all(criteria.values()), criteria


def _tilted_value(table, P):
    """(alpha(P), rho(P), max |L - P.v|) of the closed problem for L - P.v."""
    grid = table.grid
    tilted = LagrangianTable(grid=grid, values=table.values - grid.velocities @ P)
    sol = solve_closed(tilted)
    rho = sum(w * grid.velocities[m] for (_, m), w in sol.measure.weights.items())
    return -sol.value, rho, float(np.max(np.abs(tilted.values)))


@pytest.mark.parametrize("d,seed", [(d, seed) for d in (1, 2) for seed in range(5)])
def test_alpha_is_convex_with_the_rotation_vector_as_subgradient(d, seed):
    """30 ordered pairs of classes per table, 300 in all."""
    rng = np.random.default_rng([d, seed, 7])
    n = int(rng.integers(6, 17 if d == 1 else 9))
    grid = build_torus_grid(d, n, 2, 1.0 / n)
    potential = rng.uniform(-1.0, 1.0, size=grid.num_nodes)
    kinetic = 0.5 * (grid.velocities**2).sum(axis=1)
    table = LagrangianTable(grid=grid, values=kinetic[None, :] + potential[:, None])
    vmax = float(grid.velocities.max())
    classes = rng.uniform(-vmax, vmax, size=(6, d))
    solved = [_tilted_value(table, P) for P in classes]
    for (P, (alpha, rho, scale)), (Q, (alpha_q, _, scale_q)) in itertools.permutations(
        zip(classes, solved), 2
    ):
        gap = alpha_q - (alpha + float(rho @ (Q - P)))
        assert gap >= -64 * EPS * max(scale, scale_q), (P, Q, gap)
