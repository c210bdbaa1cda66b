"""Discrete phase space on the flat torus: grids, Lagrangian tables, measures, currents.

The torus [0,1)^d (d in {1,2}) is sampled with n nodes per axis, spacing
dx = 1/n.  Admissible motions form a finite stencil of integer offsets k with
|k|_inf <= K, so every edge (node, offset) lands exactly on another grid node
after one time step h, with velocity v = k*dx/h.  Forcing velocities to be
grid-compatible makes the boundary condition on measures a finite linear
constraint with no interpolation error.  Edge ids number the edges
node * M + offset_index; a measure is built and read by edge id, and how it
keys its weights is known to this module alone.

Grids, measures and currents are read-only and safe to share for concurrent
reads (two threads may both build a grid table, with equal bits); a table's
values are a read-only view of the caller's array, which must not be written.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Callable

import numpy as np

__all__ = [
    "PhaseGrid",
    "LagrangianTable",
    "DiscreteMeasure",
    "BoundaryCurrent",
    "build_torus_grid",
    "same_grid",
    "lattice_points",
    "lattice_index",
    "ordered_sum",
    "callback_points",
    "sample_callback",
    "sample_lagrangian",
    "discrete_differential",
    "boundary_of_measure",
]

# The zero-total-charge check allows this times the total |charge|, no floor.
CHARGE_BALANCE_TOL = 1e-12


def lattice_points(dim: int, side: int) -> np.ndarray:
    """Integer coordinates of every point of {0, ..., side-1}^dim, shape
    (side**dim, dim), in row-major order: row i holds the point of index i.

    The one numbering of grid nodes, of stencil offsets (shifted by the
    radius) and of control states.
    """
    return np.indices((side,) * dim).reshape(dim, -1).T


def ordered_sum(terms) -> float:
    """The floats of ``terms`` added in order from 0.0, one rounding per term, on
    every Python version (builtin ``sum`` adds floats compensated from 3.12)."""
    return reduce(operator.add, terms, 0.0)


def _integral(x) -> np.ndarray:
    """Mask of the entries of a float array that are integers (not inf or nan)."""
    return np.isfinite(x) & (np.trunc(x) == x)


def lattice_index(coords, side: int):
    """Row-major index of the lattice point with coordinates ``coords[0],
    coords[1], ...``: numbers, or equal-shape arrays of them (the first axis
    runs over the dimensions, as in ``np.ravel_multi_index``).  The inverse of
    ``lattice_points``; coordinates are not range-checked."""
    index = 0
    for c in coords:
        index = index * side + c
    return index


@dataclass(frozen=True)
class PhaseGrid:
    """Periodic spatial grid plus velocity stencil defining the discrete phase space.

    The four fields are the whole grid, checked at every construction
    (``dataclasses.replace`` included); the read-only tables are derived from
    them on first use.  The stencil is the box of integer offsets k with
    |k|_inf <= stencil_radius, sorted lexicographically, which fixes the edge
    order ``edge_id = node*num_offsets + offset_index``.  The edge with tail
    node ``x`` and offset ``k`` has head ``x (+) k*dx`` (periodic wraparound)
    and velocity ``k*dx/h``.
    """

    dim: int
    nodes_per_dim: int
    stencil_radius: int
    time_step: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if self.nodes_per_dim < 2:
            raise ValueError(f"need at least 2 nodes per axis, got {self.nodes_per_dim}")
        if self.stencil_radius < 1:
            raise ValueError(f"stencil radius must be >= 1, got {self.stencil_radius}")
        if not (0 < self.time_step < math.inf):
            raise ValueError(f"time step must be positive and finite, got {self.time_step}")
        sizes = (self.dim, self.nodes_per_dim, self.stencil_radius)
        if not all(isinstance(size, numbers.Integral) for size in sizes):
            raise TypeError(f"dimension, nodes per axis and stencil radius must be integers, got {sizes}")

    def __reduce__(self):  # the four numbers: a copy derives its own read-only tables
        return type(self), (self.dim, self.nodes_per_dim, self.stencil_radius, self.time_step)

    @property
    def spacing(self) -> float:
        return 1.0 / self.nodes_per_dim

    @property
    def num_nodes(self) -> int:
        return self.nodes_per_dim**self.dim

    @property
    def num_offsets(self) -> int:
        return (2 * self.stencil_radius + 1) ** self.dim

    @property
    def num_edges(self) -> int:
        return self.num_nodes * self.num_offsets

    @cached_property
    def offsets(self) -> np.ndarray:
        """(M, dim) integer offsets k, sorted; read-only."""
        K = self.stencil_radius
        return _read_only(lattice_points(self.dim, 2 * K + 1) - K)

    @cached_property
    def neighbors(self) -> np.ndarray:
        """(N, M) head node of every edge; read-only."""
        n, coords = self.nodes_per_dim, lattice_points(self.dim, self.nodes_per_dim)
        return _read_only(lattice_index((coords.T[:, :, None] + self.offsets.T[:, None, :]) % n, n))

    @cached_property
    def positions(self) -> np.ndarray:
        """(N, dim) node positions in [0, 1)^dim; read-only."""
        return _read_only(lattice_points(self.dim, self.nodes_per_dim) * self.spacing)

    @cached_property
    def velocities(self) -> np.ndarray:
        """(M, dim) edge velocities k*dx/h; read-only."""
        return _read_only(self.offsets * self.spacing / self.time_step)

    @cached_property
    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of every edge, both indexed by ``edge_id``; read-only."""
        tails = np.repeat(np.arange(self.num_nodes), self.num_offsets)
        return _read_only(tails), self.neighbors.ravel()

    @property
    def stencil_end(self) -> np.ndarray:
        """(M,) mask of the offsets on the stencil's boundary |k|_inf = K."""
        return (np.abs(self.offsets) == self.stencil_radius).any(axis=1)

    @property
    def zero_offset_index(self) -> int:
        # Offsets are sorted, so the zero vector sits exactly in the middle.
        return (self.num_offsets - 1) // 2


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_torus_grid(d: int, n: int, stencil_radius: int, h: float) -> PhaseGrid:
    """The phase grid of the d-torus with n nodes per axis (see ``PhaseGrid``)."""
    return PhaseGrid(d, n, stencil_radius, h)


def same_grid(first: PhaseGrid, *rest: PhaseGrid | None) -> PhaseGrid:
    """``first``, once every grid of ``rest`` but None equals it; else a ValueError names both."""
    for grid in rest:
        if grid is not None and grid != first:
            raise ValueError(f"inputs live on different grids: {first!r} and {grid!r}")
    return first


@dataclass(frozen=True, eq=False)
class LagrangianTable:
    """Sampled Lagrangian values L(x, v), one per edge of the grid."""

    grid: PhaseGrid
    values: np.ndarray = field(repr=False)  # (N, M) float

    def __post_init__(self):
        grid, vals = self.grid, np.asarray(self.values, dtype=float)
        if vals.shape != (grid.num_nodes, grid.num_offsets):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({grid.num_nodes} nodes x {grid.num_offsets} offsets)"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("Lagrangian table contains non-finite values")
        object.__setattr__(self, "values", _read_only(vals.view()))

    def __reduce__(self):  # a copy is checked and read-only too
        return type(self), (self.grid, self.values)


def callback_points(points: np.ndarray):
    """(N, d) points as callback arguments: floats for d=1, the rows for d=2."""
    return points[:, 0].tolist() if points.shape[1] == 1 else points


def sample_callback(fn: Callable, first, *rest) -> np.ndarray:
    """``fn`` on the row-major product of its argument axes, streamed into one
    float array of shape (len(first), len(rest[0]), ...).  ``first`` is read
    one item at a time (``itertools.product`` would hold a view of every row
    of a 2-D array at once); a value that is not a real number raises
    numpy's TypeError or ValueError."""
    rest = [list(axis) for axis in rest]
    rows = (itertools.starmap(fn, itertools.product((x,), *rest)) for x in first)
    shape = (len(first), *map(len, rest))
    return np.fromiter(itertools.chain.from_iterable(rows), float, math.prod(shape)).reshape(shape)


def sample_lagrangian(grid: PhaseGrid, lagrangian: Callable) -> LagrangianTable:
    """Tabulate L(tail position, edge velocity) on every edge.

    The callback receives scalars for d=1 and length-d arrays for d=2.  A
    non-finite output raises with the first such edge, in edge order,
    identified.
    """
    positions, velocities = callback_points(grid.positions), callback_points(grid.velocities)
    values = sample_callback(lagrangian, positions, velocities)
    if not np.isfinite(values).all():
        x, m = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(
            f"Lagrangian returned non-finite value {lagrangian(positions[x], velocities[m])!r} "
            f"at node {x} (x={positions[x]}), offset {tuple(grid.offsets[m].tolist())}"
        )
    return LagrangianTable(grid=grid, values=values)


def discrete_differential(f, grid: PhaseGrid) -> np.ndarray:
    """Edge-wise difference quotient df(x, v) = (f(x (+) h v) - f(x)) / h.

    Linear in f; identically zero on constants.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.num_nodes,):
        raise ValueError(f"potential must have one value per node, got shape {f.shape}")
    return (f[grid.neighbors] - f[:, None]) / grid.time_step


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Nonnegative edge weights; a measure on the discrete tangent bundle.

    Stored sparsely: ``weights`` is a read-only mapping of (node, offset_index)
    to a positive weight; its insertion order is the measure's own, which
    every sum keeps.
    """

    grid: PhaseGrid
    weights: dict = field(repr=False)

    def __post_init__(self):
        edges = list(self.weights)
        keys = np.array(edges, dtype=float).reshape(len(edges), 2)
        w = np.fromiter(self.weights.values(), float, len(edges))
        bad = np.flatnonzero((w < 0) | ~np.isfinite(w))
        if len(bad):
            (node, m), v = edges[bad[0]], float(w[bad[0]])
            kind = f"negative weight {v}" if v < 0 else "non-finite weight"
            raise ValueError(f"{kind} on edge ({node}, {m})")
        keep = w > 0
        bad = np.flatnonzero(keep & ~_integral(keys).all(axis=1))
        if len(bad):
            raise ValueError(f"edge {edges[bad[0]]!r} is not a pair of integers")
        N, M = self.grid.num_nodes, self.grid.num_offsets
        bad = np.flatnonzero(keep & ((keys < 0) | (keys >= (N, M))).any(axis=1))
        if len(bad):
            raise ValueError(
                f"edge {edges[bad[0]]} outside the grid: node in [0, {N}), offset index in [0, {M})"
            )
        clean = dict(zip(map(tuple, keys[keep].astype(int).tolist()), w[keep].tolist()))
        object.__setattr__(self, "weights", MappingProxyType(clean))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild from a dict
        return type(self), (self.grid, dict(self.weights))

    @classmethod
    def on_edges(cls, grid: PhaseGrid, ids, weights) -> DiscreteMeasure:
        """The measure with weight ``weights[i]`` on edge ``ids[i]``, in this order."""
        keys = zip(*(a.tolist() for a in np.divmod(np.asarray(ids, dtype=int), grid.num_offsets)))
        return cls(grid=grid, weights=dict(zip(keys, np.asarray(weights, dtype=float).tolist())))

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(edge ids node * M + offset_index, weights) of supp mu, in the measure's order."""
        keys = np.array(list(self.weights), dtype=int).reshape(-1, 2)
        weights = np.fromiter(self.weights.values(), float, len(keys))
        return keys[:, 0] * self.grid.num_offsets + keys[:, 1], weights

    @property
    def mass(self) -> float:
        """sum of w over supp mu, in the measure's order (``ordered_sum``)."""
        return ordered_sum(self.weights.values())

    def action(self, table: LagrangianTable) -> float:
        """sum of L * w over supp mu, in the measure's order (``ordered_sum``)."""
        ids, weights = self.edges()
        return ordered_sum((table.values.ravel()[ids] * weights).tolist())

    def support_nodes(self) -> list[int]:
        """Sorted projected support pi(supp mu)."""
        return np.unique(self.edges()[0] // self.grid.num_offsets).tolist()

    def edge_ids(self) -> np.ndarray:
        """Ascending edge ids of supp mu."""
        return np.sort(self.edges()[0])


@dataclass(frozen=True, eq=False)
class BoundaryCurrent:
    """Signed node charges; the discrete boundary of a measure.

    ``charges`` is a read-only mapping of node to nonzero charge.  A current
    is a boundary iff its charges sum to zero, which is enforced here up to
    roundoff.
    """

    grid: PhaseGrid
    charges: dict = field(repr=False)

    def __post_init__(self):
        nodes = list(self.charges)
        x = np.fromiter(nodes, float, len(nodes))
        values = np.fromiter(self.charges.values(), float, len(nodes))
        bad = np.flatnonzero(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"charge {values[bad[0]]} on node {nodes[bad[0]]!r} is not finite")
        keep = values != 0.0
        bad = np.flatnonzero(keep & ~_integral(x))
        if len(bad):
            raise ValueError(f"charge on node {nodes[bad[0]]!r}: not an integer node")
        N = self.grid.num_nodes
        bad = np.flatnonzero(keep & ((x < 0) | (x >= N)))
        if len(bad):
            raise ValueError(f"charge on node {nodes[bad[0]]} outside the grid: node in [0, {N})")
        clean = dict(zip(x[keep].astype(int).tolist(), values[keep].tolist()))
        total = ordered_sum(clean.values())
        scale = ordered_sum(map(abs, clean.values()))
        if abs(total) > CHARGE_BALANCE_TOL * scale:
            raise ValueError(f"boundary charges must sum to zero, got total {total:g}")
        object.__setattr__(self, "charges", MappingProxyType(clean))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild from a dict
        return type(self), (self.grid, dict(self.charges))

    def support(self) -> list[int]:
        return sorted(self.charges)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.grid.num_nodes)
        dense[list(self.charges)] = list(self.charges.values())
        return dense

    def pairing(self, f) -> float:
        """<c, f> = sum_x c(x) f(x), in the charges' order (``ordered_sum``)."""
        nodes = np.fromiter(self.charges, int, len(self.charges))
        charges = np.fromiter(self.charges.values(), float, len(nodes))
        return ordered_sum((charges * np.asarray(f, dtype=float)[nodes]).tolist())


def boundary_of_measure(mu: DiscreteMeasure) -> BoundaryCurrent:
    """Node charges (inflow - outflow)/h of a measure.

    Satisfies the summation-by-parts identity
    sum_e mu(e) df(e) = sum_x charges(x) f(x) for every potential f, so a
    node-balanced measure (circulation) has zero boundary.  Each edge, in the
    measure's order, adds w/h to its head's charge and then -w/h to its tail's.
    """
    grid = mu.grid
    ids, weights = mu.edges()
    tails, heads = grid.edge_endpoints
    flow = weights / grid.time_step
    ends = np.stack([heads[ids], tails[ids]], axis=1).ravel()
    dense = np.bincount(ends, np.stack([flow, -flow], axis=1).ravel(), minlength=grid.num_nodes)
    nodes = np.flatnonzero(dense)
    return BoundaryCurrent(grid=grid, charges=dict(zip(nodes.tolist(), dense[nodes].tolist())))
