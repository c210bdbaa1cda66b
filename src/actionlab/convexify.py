"""Fiberwise lower convex envelopes of sampled Lagrangians and their derivatives.

The envelope on each fiber is the supremum of affine minorants of the sampled
points, equivalently the minimum over convex combinations of samples that
represent the evaluation velocity.  Stencils are tiny (at most 25 points), so
the d=2 hull is computed by brute force over singleton / segment / triangle
supports with exact integer barycentric precomputation, shared across all
fibers and cached per stencil radius.

Fibers are independent; everything here is pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import DiscreteMeasure, LagrangianTable, PhaseGrid, lattice_points

__all__ = [
    "FiberEnvelope",
    "fiber_convex_envelope",
    "momentum_field",
]


@dataclass(frozen=True)
class FiberEnvelope:
    """Envelope values plus fiber slopes on every edge.

    ``grad`` is the midpoint of the backward and forward difference quotients
    of the envelope along each velocity axis, the deterministic subgradient
    selection used for momenta.  At the stencil boundary, where ``endpoint``
    is set, only one quotient exists and ``grad`` is that one-sided slope.
    """

    grid: PhaseGrid
    values: np.ndarray = field(repr=False, compare=False)  # (N, M)
    grad: np.ndarray = field(repr=False, compare=False)  # (N, M, d)
    endpoint: np.ndarray = field(repr=False, compare=False)  # (N, M) bool


def _lower_hull_1d(y: np.ndarray) -> np.ndarray:
    """Lower convex hull values of points (i, y[i]) at every integer i."""
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


_SUPPORT_CACHE: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


def _supports_2d(radius: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stencil point: (index array (C,3), weight array (C,3)) of all
    singleton / segment / triangle convex representations, integer-exact."""
    if radius in _SUPPORT_CACHE:
        return _SUPPORT_CACHE[radius]
    pts = lattice_points(2, 2 * radius + 1) - radius
    m = len(pts)
    out = []
    for t in range(m):
        p = pts[t]
        idx_rows = [(t, t, t)]
        wt_rows = [(1.0, 0.0, 0.0)]
        for i, j in itertools.combinations(range(m), 2):
            d = pts[j] - pts[i]
            r = p - pts[i]
            if d[0] * r[1] - d[1] * r[0] != 0:
                continue
            denom = int(d[0] ** 2 + d[1] ** 2)
            num = int(r[0] * d[0] + r[1] * d[1])
            if 0 < num < denom:
                lam = num / denom
                idx_rows.append((i, j, i))
                wt_rows.append((1.0 - lam, lam, 0.0))
        for i, j, k in itertools.combinations(range(m), 3):
            u = pts[j] - pts[i]
            v = pts[k] - pts[i]
            det = int(u[0] * v[1] - u[1] * v[0])
            if det == 0:
                continue
            r = p - pts[i]
            lj = (r[0] * v[1] - r[1] * v[0]) / det
            lk = (u[0] * r[1] - u[1] * r[0]) / det
            li = 1.0 - lj - lk
            if lj > 0.0 and lk > 0.0 and li > 0.0:
                idx_rows.append((i, j, k))
                wt_rows.append((li, lj, lk))
        out.append((np.array(idx_rows, dtype=int), np.array(wt_rows)))
    _SUPPORT_CACHE[radius] = out
    return out


def fiber_convex_envelope(table: LagrangianTable) -> FiberEnvelope:
    """Lower convex envelope of each fiber's sampled points.

    d=1 uses a monotone-chain hull per fiber; d=2 minimizes over the cached
    convex representations of each stencil point.  The result dominates every
    affine minorant of the samples and is idempotent.
    """
    grid = table.grid
    n, m = grid.num_nodes, grid.num_offsets
    y = table.values
    env = np.empty_like(y)

    if grid.dim == 1:
        for x in range(n):
            env[x] = _lower_hull_1d(y[x])
    else:
        supports = _supports_2d(grid.stencil_radius)
        for t in range(m):
            idx, wts = supports[t]
            cand = np.einsum("nck,ck->nc", y[:, idx], wts)
            env[:, t] = cand.min(axis=1)

    return _fiber_slopes(grid, env)


def _fiber_slopes(grid: PhaseGrid, env: np.ndarray) -> FiberEnvelope:
    n, m, d = grid.num_nodes, grid.num_offsets, grid.dim
    dv = grid.spacing / grid.time_step
    K = grid.stencil_radius
    cube = env.reshape((n,) + (2 * K + 1,) * d)  # (node, velocity axis 0, ...)

    grad = np.empty((n, m, d))
    for axis in range(d):
        # difference quotients along this velocity axis, moved to axis 1; at
        # the two stencil ends only one of them exists
        dif = np.moveaxis(np.diff(cube, axis=1 + axis) / dv, 1 + axis, 1)
        lo = np.concatenate([dif[:, :1], dif], axis=1)
        hi = np.concatenate([dif, dif[:, -1:]], axis=1)
        grad[:, :, axis] = np.moveaxis(0.5 * (lo + hi), 1, 1 + axis).reshape(n, m)
    endpoint = (np.abs(grid.offsets) == K).any(axis=1)[None, :].repeat(n, axis=0)
    return FiberEnvelope(grid=grid, values=env, grad=grad, endpoint=endpoint)


def momentum_field(env: FiberEnvelope, mu: DiscreteMeasure):
    """Envelope fiber derivatives at the supported velocities, per node.

    Returns ``(momentum, spread, any_endpoint)``: the mean of ``env.grad``
    over each node's supported offsets, shape (N, d); the largest component
    of max - min over those rows, the largest pairwise distance between the
    momenta, shape (N,); and whether any of them is a stencil endpoint.
    Momentum and spread are NaN off the projected support.  The mean adds the
    rows in ascending offset order.
    """
    if not env.grid.same_layout(mu.grid):
        raise ValueError("envelope and measure live on different grids")
    n, d = env.grid.num_nodes, env.grid.dim
    nodes, offs = np.array(sorted(mu.weights), dtype=int).reshape(-1, 2).T
    rows = env.grad[nodes, offs]
    total = np.zeros((n, d))
    hi = np.full((n, d), -np.inf)
    lo = np.full((n, d), np.inf)
    np.add.at(total, nodes, rows)
    np.maximum.at(hi, nodes, rows)
    np.minimum.at(lo, nodes, rows)
    any_endpoint = np.zeros(n, dtype=bool)
    np.logical_or.at(any_endpoint, nodes, env.endpoint[nodes, offs])

    count = np.bincount(nodes, minlength=n)
    on = count > 0
    momentum = np.full((n, d), np.nan)
    momentum[on] = total[on] / count[on, None]
    spread = np.full(n, np.nan)
    spread[on] = (hi[on] - lo[on]).max(axis=1)
    return momentum, spread, any_endpoint
