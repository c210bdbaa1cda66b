"""Fiberwise lower convex envelopes of sampled Lagrangians and their derivatives.

The envelope on each fiber is the supremum of affine minorants of the sampled
points, equivalently the minimum over convex combinations of samples that
represent the evaluation velocity.  By Caratheodory's theorem three samples
suffice in the plane, so it is computed by brute force over the singleton /
segment / triangle supports of each stencil point, with exact integer
barycentric precomputation shared across all fibers and cached per dimension
and stencil radius.  A 1-D stencil is placed on an axis of the plane, so one
path serves both dimensions.  Stencils are small: (2k + 1)**d points, 49 at
d=2, k=3.

Fibers are independent; everything here is pure.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _supports(dim: int, radius: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per stencil point: (index array (C, 3), weight array (C, 3)) of all
    singleton / segment / triangle convex representations, integer-exact.

    A point's rows are its singleton, then the segments and then the
    triangles that hold it strictly inside, each in ``combinations`` order.
    A 1-D stencil lies on the first axis of the plane, where every triangle
    is flat and drops out.
    """
    pts = np.pad(lattice_points(dim, 2 * radius + 1) - radius, ((0, 0), (0, 2 - dim)))
    m = len(pts)
    at = [np.arange(m)]
    idx = [np.repeat(at[0][:, None], 3, axis=1)]
    wts = [np.repeat([[1.0, 0.0, 0.0]], m, axis=0)]

    # segments (i, j) against every point p = pts[i] + r: r on the line, with
    # parameter num / denom strictly between 0 and 1
    i, j = np.array(list(itertools.combinations(range(m), 2))).T
    dx, dy = (pts[j] - pts[i]).T
    rx, ry = np.moveaxis(pts[:, None] - pts[i], 2, 0)  # (m, segments) each
    num = rx * dx + ry * dy
    denom = dx * dx + dy * dy
    p, s = np.nonzero((dx * ry - dy * rx == 0) & (0 < num) & (num < denom))
    lam = num[p, s] / denom[s]
    at.append(p)
    idx.append(np.stack([i[s], j[s], i[s]], axis=1))
    wts.append(np.stack([1.0 - lam, lam, np.zeros_like(lam)], axis=1))

    # triangles (i, j, k) against every point: all barycentric weights > 0
    i, j, k = np.array(list(itertools.combinations(range(m), 3))).T
    ux, uy = (pts[j] - pts[i]).T
    vx, vy = (pts[k] - pts[i]).T
    det = ux * vy - uy * vx
    safe = np.where(det == 0, 1, det)
    rx, ry = np.moveaxis(pts[:, None] - pts[i], 2, 0)
    lj = (rx * vy - ry * vx) / safe
    lk = (ux * ry - uy * rx) / safe
    li = 1.0 - lj - lk
    p, t = np.nonzero((det != 0) & (lj > 0.0) & (lk > 0.0) & (li > 0.0))
    at.append(p)
    idx.append(np.stack([i[t], j[t], k[t]], axis=1))
    wts.append(np.stack([li[p, t], lj[p, t], lk[p, t]], axis=1))

    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")
    cuts = np.cumsum(np.bincount(at, minlength=m))[:-1]
    return list(zip(
        np.split(np.concatenate(idx)[order], cuts),
        np.split(np.concatenate(wts)[order], cuts),
    ))


def fiber_convex_envelope(table: LagrangianTable) -> FiberEnvelope:
    """Lower convex envelope of each fiber's sampled points.

    At each stencil point, the minimum over its cached convex representations
    (``_supports``) of the weighted sample values, for every fiber at once.
    The result dominates every affine minorant of the samples and is
    idempotent.
    """
    grid = table.grid
    y = table.values
    env = np.empty_like(y)
    for t, (idx, wts) in enumerate(_supports(grid.dim, grid.stencil_radius)):
        env[:, t] = np.einsum("nck,ck->nc", y[:, idx], wts).min(axis=1)
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
