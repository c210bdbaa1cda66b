"""File formats: grid JSON, CSV tables for measures/currents/Lagrangians,
certificate and diagnostics JSON, and the control-problem bundle.

All writers are deterministic (sorted keys, repr floats), so reports are
byte-stable across runs with identical inputs.

CSV tables are written as text columns, byte for byte what ``csv.writer``
writes.  A column is an array with one field per entry, or a lookup
``(table, index)`` whose table rows (lattice points, stencil offsets, times,
control names) are formatted once and then indexed, so only the values are
formatted per row.  Rows are joined column by column and written a block of
``_BLOCK_ROWS`` at a time, so memory stays flat.  The ``csv`` module serves
the readers.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from .grid import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    PhaseGrid,
    build_torus_grid,
    lattice_index,
    lattice_points,
)
from .control import ControlProblem, _control_problem, _num_steps

__all__ = [
    "write_json",
    "grid_to_json",
    "grid_from_json",
    "write_lagrangian_csv",
    "read_lagrangian_csv",
    "write_measure_csv",
    "read_measure_csv",
    "write_current_csv",
    "read_current_csv",
    "write_certificate_json_with_support",
    "write_slack_csv",
    "write_envelope_csv",
    "write_node_table_csv",
    "write_value_function_csv",
    "write_measure_result",
    "write_control_result",
    "read_control_problem",
    "read_initial_csv",
]


def _clean(obj):
    """JSON-encodable copy; non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload: dict) -> None:
    text = json.dumps(_clean(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


# Rows per write: one block's text is built and written at once, so memory
# stays flat.  3600 is divisible by 3, 9 and 25 (stencil sizes), so the
# block-boundary tests fill a block exactly with whole grids.
_BLOCK_ROWS = 3600

# The characters that make csv.writer (QUOTE_MINIMAL) quote a field.
_SPECIAL = re.compile('[,"\r\n]')


def _quote(field: str) -> str:
    """``field`` as csv.writer writes it: in double quotes, with its own
    quotes doubled, when it holds a comma, a quote, CR or LF."""
    if _SPECIAL.search(field) is None:
        return field
    return '"' + field.replace('"', '""') + '"'


def _fields(values: np.ndarray) -> np.ndarray:
    """One CSV field per entry of a 1-D array, as an object array of str: a
    float as its ``repr``, an int or bool as ``str``, None as empty, any
    other value as its ``str``, quoted as csv.writer quotes it."""
    kind = values.dtype.kind
    if kind == "f":
        out = map(repr, values.tolist())
    elif kind in "biu":
        out = map(str, values.tolist())
    else:
        out = (
            "" if v is None else _quote(repr(v) if isinstance(v, float) else str(v))
            for v in values.tolist()
        )
    return np.fromiter(out, dtype=object, count=len(values))


def _table_fields(table) -> np.ndarray:
    """The rows of a lookup table formatted once: one field per entry of a
    1-D table, a 2-D row as its fields joined by ","."""
    table = np.asarray(table)
    fields = _fields(table.ravel())
    if table.ndim == 1:
        return fields
    rows = fields.reshape(table.shape).tolist()
    return np.fromiter(map(",".join, rows), dtype=object, count=len(rows))


def _lines(columns: list[np.ndarray]) -> str:
    """CSV text of rows given as one object array of str per column, each
    line ended by "\r\n" as csv.writer ends it."""
    line = columns[0]
    for col in columns[1:]:
        line = line + "," + col
    if len(columns) == 1:
        line = np.where(line == "", '""', line)  # csv.writer quotes a lone empty field
    return "\r\n".join(line.tolist()) + "\r\n"


def _write_csv(path, header: list[str], columns) -> None:
    """The one CSV writer: the bytes ``csv.writer`` writes for ``header`` and
    the rows of ``columns``.

    A column is an array with one field per entry (see ``_fields``), or a
    lookup pair ``(table, index)``: each row of ``table`` is formatted once
    (see ``_table_fields``) and each entry of ``index`` picks one, so a 2-D
    table gives several fields per row.  Arrays are read flat, in C order.
    The rows are built as object arrays of str, joined column by column, and
    written ``_BLOCK_ROWS`` at a time.
    """
    cols = []
    for col in columns:
        if isinstance(col, tuple):
            table, index = col
            cols.append((_table_fields(table), np.asarray(index).ravel()))
        else:
            cols.append((None, np.asarray(col).ravel()))
    sizes = {len(values) for _, values in cols}
    if len(sizes) != 1:
        raise ValueError(f"CSV columns of unequal lengths {sorted(sizes)}")
    (num_rows,) = sizes
    with open(path, "w", newline="") as fh:
        fh.write(_lines([_fields(np.array([name], dtype=object)) for name in header]))
        for lo in range(0, num_rows, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            fields = [_fields(v[block]) if t is None else t[v[block]] for t, v in cols]
            fh.write(_lines(fields))


def _coord_columns(grid: PhaseGrid, ids, edges: bool = False) -> list[tuple]:
    """Coordinate lookups of node ids, or of edge ids (node * num_offsets + m)
    when ``edges``: the nodes' lattice points, then the offsets."""
    ids = np.asarray(ids, dtype=int)
    points = lattice_points(grid.dim, grid.nodes_per_dim)
    if not edges:
        return [(points, ids)]
    M = grid.num_offsets
    return [(points, ids // M), (grid.offsets, ids % M)]


def _coord_header(dim: int, *bases: str) -> list[str]:
    """Column names of lattice coordinates: each base alone in 1-D, as
    ``base_i, base_j`` in 2-D."""
    return [base + axis for base in bases for axis in ([""] if dim == 1 else ["_i", "_j"])]


def grid_to_json(grid: PhaseGrid) -> dict:
    return {
        "dim": grid.dim,
        "n": grid.nodes_per_dim,
        "stencil_radius": grid.stencil_radius,
        "h": grid.time_step,
    }


def grid_from_json(payload: dict) -> PhaseGrid:
    return build_torus_grid(
        int(payload["dim"]),
        int(payload["n"]),
        int(payload["stencil_radius"]),
        float(payload["h"]),
    )


def write_lagrangian_csv(path, table: LagrangianTable) -> None:
    grid = table.grid
    header = _coord_header(grid.dim, "node", "offset") + ["value"]
    edges = _coord_columns(grid, np.arange(grid.num_edges), edges=True)
    _write_csv(path, header, edges + [table.values])


def read_lagrangian_csv(grid: PhaseGrid, path) -> LagrangianTable:
    values = np.full((grid.num_nodes, grid.num_offsets), np.nan)
    for node, m, val in _read_edge_rows(grid, path):
        values[node, m] = val
    if np.isnan(values).any():
        raise ValueError(f"Lagrangian CSV {path} does not cover every edge")
    return LagrangianTable(grid=grid, values=values)


def _csv_rows(path):
    """(line number, row) for each non-blank row after the header line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"CSV file {path} is empty")
        for row in reader:
            if row:
                yield reader.line_num, row


def _integers(path, line: int, fields) -> list[int]:
    """Integer coordinates or indices, written as 3 or 3.0; 1.7 is an error."""
    out = []
    for v in fields:
        x = float(v)
        if not x.is_integer():
            raise ValueError(f"{path} line {line}: {v!r} is not an integer")
        out.append(int(x))
    return out


def _read_edge_rows(grid: PhaseGrid, path):
    d = grid.dim
    for line, row in _csv_rows(path):
        node = _parse_point(path, line, row[:d], grid.nodes_per_dim)
        try:
            m = grid.offset_index(_integers(path, line, row[d : 2 * d]))
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from None
        yield node, m, float(row[2 * d])


def write_measure_csv(path, mu: DiscreteMeasure) -> None:
    grid = mu.grid
    header = _coord_header(grid.dim, "node", "offset") + ["weight"]
    nodes, m = np.array(list(mu.weights), dtype=int).reshape(-1, 2).T
    ids = nodes * grid.num_offsets + m
    weights = np.fromiter(mu.weights.values(), float, len(ids))
    order = np.argsort(ids)
    columns = _coord_columns(grid, ids[order], edges=True) + [weights[order]]
    _write_csv(path, header, columns)


def read_measure_csv(grid: PhaseGrid, path) -> DiscreteMeasure:
    weights = {}
    for node, m, w in _read_edge_rows(grid, path):
        weights[(node, m)] = w
    return DiscreteMeasure(grid=grid, weights=weights)


def write_current_csv(path, current: BoundaryCurrent) -> None:
    grid = current.grid
    header = _coord_header(grid.dim, "node") + ["charge"]
    nodes = np.fromiter(current.charges, int, len(current.charges))
    charges = np.fromiter(current.charges.values(), float, len(nodes))
    order = np.argsort(nodes)
    _write_csv(path, header, _coord_columns(grid, nodes[order]) + [charges[order]])


def read_current_csv(grid: PhaseGrid, path) -> BoundaryCurrent:
    d = grid.dim
    charges = {}
    for line, row in _csv_rows(path):
        charges[_parse_point(path, line, row[:d], grid.nodes_per_dim)] = float(row[d])
    return BoundaryCurrent(grid=grid, charges=charges)


def write_certificate_json_with_support(path, cert, mu) -> None:
    write_json(
        path,
        {
            "c0": cert.critical_constant,
            "normalization_node": cert.normalization_node,
            "f": cert.potential,
            "max_negative_slack": -min(cert.slack_min, 0.0),
            "slack_on_support": cert.slack_on_support(mu),
            "current_pairing": cert.current_pairing,
        },
    )


def write_slack_csv(path, cert) -> None:
    grid = cert.grid
    header = _coord_header(grid.dim, "node", "offset") + ["g"]
    edges = _coord_columns(grid, np.arange(grid.num_edges), edges=True)
    _write_csv(path, header, edges + [cert.slack])


def write_envelope_csv(path, table: LagrangianTable, env) -> None:
    """L_tilde and the endpoint flag per edge.  L itself is the Lagrangian
    CSV, and the one-sided slopes are differences of L_tilde (``_fiber_slopes``)."""
    grid = table.grid
    header = _coord_header(grid.dim, "node", "offset") + ["L_tilde", "endpoint"]
    edges = _coord_columns(grid, np.arange(grid.num_edges), edges=True)
    _write_csv(path, header, edges + [env.values, env.endpoint.astype(int)])


def write_node_table_csv(path, grid: PhaseGrid, report) -> None:
    """One row per node from the report's node-table columns.  Momentum and
    spread are empty off the support; a 2-D momentum is one field, its
    components joined by "|"."""
    on = report.on_support
    supported = report.momentum[on]
    momentum = np.full(grid.num_nodes, None)
    spread = np.full(grid.num_nodes, None)
    if grid.dim == 1:
        momentum[on] = supported[:, 0]
    else:
        momentum[on] = ["|".join(map(repr, m)) for m in supported.tolist()]
    spread[on] = report.momentum_spread[on]
    header = _coord_header(grid.dim, "node")
    header += ["f", "momentum", "momentum_spread", "H_residual", "on_support"]
    columns = _coord_columns(grid, np.arange(grid.num_nodes)) + [
        report.f,
        momentum,
        spread,
        report.H_residual,
        on.astype(int),
    ]
    _write_csv(path, header, columns)


def write_measure_result(dest, result) -> None:
    """Certificate, slack, envelope and diagnostics files of a MeasureResult."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    cert = result.certificate
    write_certificate_json_with_support(dest / "certificate.json", cert, result.solution.measure)
    write_slack_csv(dest / "slack.csv", cert)
    write_envelope_csv(dest / "envelope.csv", result.table, result.envelope)
    write_json(dest / "diagnostics.json", result.report.as_dict())
    write_node_table_csv(dest / "node_table.csv", result.table.grid, result.report)


def write_control_result(dest, result) -> None:
    """Value function, certificate and report files of a ControlResult.

    Without a certificate (LP status not OPTIMAL) the report holds the status
    alone and no certificate file is written.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    write_value_function_csv(dest / "value_function.csv", result.value_function)
    report = {"status": result.lp.status}
    cert = result.certificate
    if cert is not None:
        write_json(
            dest / "control_certificate.json",
            {"c0": cert.c0, "empirical_mean_cost": cert.empirical_mean_cost, "u": cert.u},
        )
        report.update(
            lp_value=result.lp.value,
            dp_total=result.dp_total,
            hjb_residual=result.hjb_residual,
            max_principle_on_support=result.max_principle[0],
            max_principle_off_support=result.max_principle[1],
            u_v_residual=result.u_v_residual,
            duplicate_collapses=len(result.problem.duplicate_collapses),
        )
    write_json(dest / "control_report.json", report)


def write_value_function_csv(path, vf) -> None:
    p = vf.problem
    header = _coord_header(p.state_dim, "x") + ["t", "v", "argmin_control"]
    layers = p.num_steps + 1
    states, steps = np.divmod(np.arange(p.num_states * layers), layers)
    # argmin_control is -1 where no step remains: index 0 of the lookup, written empty
    names = np.array([""] + [repr(a) for a in p.controls], dtype=object)
    columns = [
        (p.coords, states),
        (np.arange(layers) * p.time_step, steps),
        vf.v,
        (names, vf.argmin_control + 1),
    ]
    _write_csv(path, header, columns)


def read_control_problem(path) -> ControlProblem:
    """Control problem bundle: JSON description plus dynamics and cost CSVs.

    The JSON holds {state_dim, n, origin, spacing, controls, t0, dt,
    dynamics_csv, costs_csv}; CSV paths are relative to the JSON file.
    Dynamics rows are (state..., control_index, step...) integer steps; cost
    rows are (state..., t_index, control_index, ell).
    """
    path = Path(path)
    desc = json.loads(path.read_text())
    state_dim = int(desc["state_dim"])
    n = int(desc["n"])
    origin = np.atleast_1d(np.asarray(desc["origin"], dtype=float))
    spacing = float(desc["spacing"])
    controls = tuple(desc["controls"])
    t0 = float(desc["t0"])
    dt = float(desc["dt"])
    T = _num_steps(state_dim, n, t0, dt)
    S = n**state_dim
    A = len(controls)

    move = np.full((S, A), -1, dtype=int)
    steps = np.zeros((S, A, state_dim), dtype=int)
    ell = np.full((S, T, A), np.nan)

    dynamics_csv = path.parent / desc["dynamics_csv"]
    for line, row in _csv_rows(dynamics_csv):
        fields = _integers(dynamics_csv, line, row[: 2 * state_dim + 1])
        coords, step = fields[:state_dim], fields[state_dim + 1 :]
        s = _parse_point(dynamics_csv, line, row[:state_dim], n)
        a = _index(dynamics_csv, line, fields[state_dim], A, "control index")
        target = [c + k for c, k in zip(coords, step)]
        if all(0 <= c < n for c in target):
            steps[s, a] = step
            move[s, a] = lattice_index(target, n)

    costs_csv = path.parent / desc["costs_csv"]
    for line, row in _csv_rows(costs_csv):
        fields = _integers(costs_csv, line, row[: state_dim + 2])
        s = _parse_point(costs_csv, line, row[:state_dim], n)
        j = _index(costs_csv, line, fields[state_dim], T, "time index")
        a = _index(costs_csv, line, fields[state_dim + 1], A, "control index")
        ell[s, j, a] = float(row[state_dim + 2])

    if np.isnan(ell).any():
        raise ValueError("cost CSV does not cover every (state, time, control)")
    return _control_problem(
        state_dim=state_dim,
        nodes_per_axis=n,
        origin=origin,
        spacing=spacing,
        controls=controls,
        move=move,
        steps=steps,
        ell=ell,
        horizon=t0,
        time_step=dt,
    )


def _index(path, line: int, value: int, size: int, what: str) -> int:
    if not 0 <= value < size:
        raise ValueError(f"{path} line {line}: {what} {value} is outside [0, {size})")
    return value


def _parse_point(path, line: int, fields, n: int) -> int:
    """Index of the node or state whose integer coordinates are ``fields``,
    each checked to lie in [0, n)."""
    coords = _integers(path, line, fields)
    for c in coords:
        _index(path, line, c, n, "coordinate")
    return lattice_index(coords, n)


def read_initial_csv(num_states: int, state_dim: int, n: int, path) -> np.ndarray:
    init = np.zeros(num_states)
    for line, row in _csv_rows(path):
        init[_parse_point(path, line, row[:state_dim], n)] = float(row[state_dim])
    return init
