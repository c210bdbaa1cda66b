"""Fiberwise lower convex envelopes of sampled Lagrangians and their derivatives.

The envelope on each fiber is the supremum of affine minorants of the sampled
points, equivalently the minimum over convex combinations of samples that
represent the evaluation velocity.  By Caratheodory's theorem three samples
suffice in the plane, so it is computed by brute force over the singleton /
segment / triangle supports of each stencil point, with exact integer
barycentric precomputation shared across all fibers and cached per dimension
and stencil radius.  A 1-D stencil is placed on an axis of the plane, so one
path serves both dimensions.  Stencils are small: (2k + 1)**d points, 49 at
d=2, k=3, but a point can have thousands of representations (3,699 there).

Fibers are independent, so the envelope and the support table are computed
a block at a time, with the block's temporaries held within
``_BLOCK_BYTES``: the transient memory does not grow with the grid.  Each
weighted sum is added in the fixed order (y_i w_i + y_j w_j) + y_k w_k, so
the values do not depend on the block size.  The envelope is a Lagrangian
table; its fiber slopes are read only at a measure's edges (``momentum_field``).
Everything here is pure.
"""

from __future__ import annotations

import functools
import itertools
import numpy as np

from .grid import DiscreteMeasure, LagrangianTable, lattice_points, same_grid

__all__ = [
    "fiber_convex_envelope",
    "momentum_field",
]

# Byte budget for the temporaries of one block of fibers (or of stencil
# points, in ``_supports``); it bounds the layer's transient memory whatever
# the grid size.
_BLOCK_BYTES = 1 << 20


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

    # triangles (i, j, k) against every point: all barycentric weights > 0.
    # A block of points holds about eight (points, triangles) temporaries;
    # blocks go in point order, so the rows come out as from one pass
    i, j, k = np.array(list(itertools.combinations(range(m), 3))).T
    ux, uy = (pts[j] - pts[i]).T
    vx, vy = (pts[k] - pts[i]).T
    det = ux * vy - uy * vx
    safe = np.where(det == 0, 1, det)
    rows = _block_rows(8 * det.nbytes)
    for start in range(0, m, rows):
        rx, ry = np.moveaxis(pts[start : start + rows, None] - pts[i], 2, 0)
        lj = (rx * vy - ry * vx) / safe
        lk = (ux * ry - uy * rx) / safe
        li = 1.0 - lj - lk
        p, t = np.nonzero((det != 0) & (lj > 0.0) & (lk > 0.0) & (li > 0.0))
        at.append(start + p)
        idx.append(np.stack([i[t], j[t], k[t]], axis=1))
        wts.append(np.stack([li[p, t], lj[p, t], lk[p, t]], axis=1))

    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")
    cuts = np.cumsum(np.bincount(at, minlength=m))[:-1]
    return list(zip(
        np.split(np.concatenate(idx)[order], cuts),
        np.split(np.concatenate(wts)[order], cuts),
    ))


def fiber_convex_envelope(table: LagrangianTable) -> LagrangianTable:
    """Lower convex envelope L~ of each fiber's sampled points, as a table.

    At each stencil point, the minimum over its cached convex representations
    (``_supports``) of the weighted sample values
    ``(y_i w_i + y_j w_j) + y_k w_k``, summed in that order, for a block of
    fibers at a time: a block's (fibers, representations) temporaries stay
    within ``_BLOCK_BYTES``.  The result dominates every affine minorant
    of the samples and is idempotent.
    """
    grid = table.grid
    y = table.values
    env = np.empty_like(y)
    for t, (idx, wts) in enumerate(_supports(grid.dim, grid.stencil_radius)):
        (i, j, k), (wi, wj, wk) = idx.T, wts.T
        # a block holds the running sum, one gathered column and its product
        rows = _block_rows(3 * len(idx) * y.itemsize)
        for start in range(0, len(y), rows):
            block = y[start : start + rows]
            total = block[:, i] * wi
            total += block[:, j] * wj
            total += block[:, k] * wk
            # + 0.0 maps -0.0 (all three terms -0.0) to 0.0, as a sum started
            # from zero does, and leaves every other value as it is
            env[start : start + rows, t] = total.min(axis=1) + 0.0
    return LagrangianTable(grid=grid, values=env)


def _block_rows(row_bytes: int) -> int:
    """Rows per block when one row's temporaries take ``row_bytes``."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _edge_slopes(envelope: LagrangianTable, ids: np.ndarray) -> np.ndarray:
    """(len(ids), d) fiber slopes of the envelope at the edges ``ids``: along
    each velocity axis, the midpoint of the backward and forward difference
    quotients over dv = dx / h, the subgradient selection used for momenta.
    At a stencil end the one quotient that exists stands for both."""
    grid = envelope.grid
    values = envelope.values.ravel()
    dv = grid.spacing / grid.time_step
    side = 2 * grid.stencil_radius + 1
    coords = grid.offsets[ids % grid.num_offsets] + grid.stencil_radius
    slopes = np.empty((len(ids), grid.dim))
    for axis in range(grid.dim):
        # each quotient is (L~[a + stride] - L~[a]) / dv: backward from
        # a = ids - stride, forward from a = ids, either moved at an end
        stride = side ** (grid.dim - 1 - axis)
        back = ids - stride * (coords[:, axis] > 0)
        fore = ids - stride * (coords[:, axis] == side - 1)
        lo = (values[back + stride] - values[back]) / dv
        hi = (values[fore + stride] - values[fore]) / dv
        slopes[:, axis] = 0.5 * (lo + hi)
    return slopes


def momentum_field(env: LagrangianTable, mu: DiscreteMeasure):
    """Envelope fiber derivatives at the supported velocities, per node.

    Returns ``(momentum, spread, any_endpoint)``: the mean of ``_edge_slopes``
    over each node's supported offsets, shape (N, d); the largest component
    of max - min over those rows, the largest pairwise distance between the
    momenta, shape (N,); and whether any offset is a stencil end
    (``PhaseGrid.stencil_end``).  Momentum and spread are NaN off the
    projected support.  The mean adds the rows in ascending offset order.
    """
    grid = same_grid(env.grid, mu.grid)
    n, d = grid.num_nodes, grid.dim
    ids = mu.edge_ids()
    nodes, offs = np.divmod(ids, grid.num_offsets)
    rows = _edge_slopes(env, ids)
    total = np.zeros((n, d))
    hi = np.full((n, d), -np.inf)
    lo = np.full((n, d), np.inf)
    np.add.at(total, nodes, rows)
    np.maximum.at(hi, nodes, rows)
    np.minimum.at(lo, nodes, rows)
    any_endpoint = np.zeros(n, dtype=bool)
    np.logical_or.at(any_endpoint, nodes, grid.stencil_end[offs])

    count = np.bincount(nodes, minlength=n)
    on = count > 0
    momentum = np.full((n, d), np.nan)
    momentum[on] = total[on] / count[on, None]
    spread = np.full(n, np.nan)
    spread[on] = (hi[on] - lo[on]).max(axis=1)
    return momentum, spread, any_endpoint
