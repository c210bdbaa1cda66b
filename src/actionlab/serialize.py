"""File formats: grid JSON, CSV tables for measures/currents/Lagrangians,
certificate and diagnostics JSON, and the control-problem bundle.

All writers are deterministic (sorted keys, repr floats), so reports are
byte-stable across runs with identical inputs.

A JSON file holds the bytes of ``json.dumps(sort_keys=True, indent=2)``
plus a newline, written by one small recursive emitter (``_json``): numpy
values are written as Python ones, a non-finite float as null, and a numeric
ndarray has its fields formatted and then grouped into rows.

CSV tables are written as text columns, byte for byte what ``csv.writer``
writes.  A column is an array with one field per entry, or a lookup
``(table, index)`` whose table rows (lattice points, stencil offsets, times,
control names) are formatted once and then indexed, so only the values are
formatted per row.  Each row is one ``",".join`` of its fields, and rows are
written a block of ``_BLOCK_ROWS`` at a time, so memory stays flat.

Each distinct value of a numeric CSV block or JSON array is formatted once
(``_distinct``), floats told apart by their bits: a reversible Lagrangian
repeats its values across a node's edges, and a flag column holds two.

Every CSV input is read by ``_read_csv``: ``np.loadtxt`` parses the rows and
array masks check them; only a bad file is reread with the ``csv`` module, to
name the line of its first bad row.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import re
import warnings
from pathlib import Path

import numpy as np

from .grid import (
    BoundaryCurrent,
    DiscreteMeasure,
    LagrangianTable,
    PhaseGrid,
    _integral,
    build_torus_grid,
    lattice_index,
    lattice_points,
)
from .control import ControlProblem, _control_problem, _box, _num_steps

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


def write_json(path, payload: dict) -> None:
    """``payload`` in the bytes of ``json.dumps(sort_keys=True, indent=2)``
    plus a newline, numpy values written as Python ones (see ``_json``)."""
    Path(path).write_text(_json(payload, "\n") + "\n")


def _json(obj, newline: str) -> str:
    """The JSON text of ``obj`` nested under the line start ``newline`` ("\n"
    plus its indent), laid out as ``json.dumps(sort_keys=True, indent=2)``.

    Dict keys are ``str(k)``, deduplicated as a dict would before sorting;
    strings go through ``json.dumps``; numpy scalars are written as Python
    ones; a non-finite float is null.  An ndarray is its nested lists."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return repr(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, np.ndarray):
        return _json_array(obj, newline)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        return _json_block("{}", [json.dumps(k) + ": " + _json(v, inner) for k, v in items], newline)
    if isinstance(obj, (list, tuple)):
        return _json_block("[]", [_json(v, inner) for v in obj], newline)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_block(brackets: str, fields: list[str], newline: str) -> str:
    """A JSON list or object of formatted ``fields``, one a line."""
    if not fields:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(fields) + newline + brackets[1]


def _json_array(a: np.ndarray, newline: str) -> str:
    """An ndarray as its nested JSON lists.  A numeric array's fields are
    formatted from its flat values, each distinct value once (see
    ``_distinct``), then grouped into rows from the innermost axis out; any
    other array goes through ``tolist``."""
    kind = a.dtype.kind
    if kind not in "biuf":
        return _json(a.tolist(), newline)
    finite = lambda x: repr(x) if math.isfinite(x) else "null"
    fields = _distinct(a.ravel(), {"b": ("false", "true").__getitem__, "f": finite}.get(kind, repr))
    for axis in reversed(range(a.ndim)):
        size, pad = a.shape[axis], newline + "  " * axis
        rows = range(math.prod(a.shape[:axis]))
        fields = [_json_block("[]", fields[i * size : (i + 1) * size], pad) for i in rows]
    return fields[0]


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


def _distinct(values: np.ndarray, fmt) -> list[str]:
    """``fmt`` of each entry of a 1-D numeric array, called once per distinct
    key: a float's bits, so -0.0 and 0.0 and NaN payloads stay apart, or an
    int's or bool's value.  TypeError for floats wider than 64 bits."""
    kind = values.dtype.kind
    if kind == "f" and values.itemsize > 8:
        raise TypeError(f"cannot write {values.dtype} values; convert them to float64 first")
    keys = values.view(f"i{values.itemsize}") if kind == "f" else values
    unique, inverse = np.unique(keys, return_inverse=True)
    texts = np.array(list(map(fmt, unique.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def _fields(values: np.ndarray) -> list[str]:
    """One CSV field per entry of a 1-D array: a float as its ``repr``, an
    int or bool as ``str``, each distinct value formatted once (see
    ``_distinct``); None as empty, any other value as its ``str``, quoted as
    csv.writer quotes it."""
    kind = values.dtype.kind
    if kind in "biuf":
        return _distinct(values, repr if kind == "f" else str)
    return [
        "" if v is None else _quote(repr(v) if isinstance(v, float) else str(v))
        for v in values.tolist()
    ]


def _table_fields(table) -> np.ndarray:
    """The rows of a lookup table formatted once, as an object array of str
    to index: one field per entry of a 1-D table, a 2-D row as its fields
    joined by ","."""
    columns = map(_fields, np.atleast_2d(np.asarray(table).T))
    return np.array(list(map(",".join, zip(*columns))), dtype=object)


def _lines(columns: list[list[str]]) -> str:
    """CSV text of rows given as one list of str per column: one join per
    row, each line ended by "\r\n" as csv.writer ends it."""
    rows = map(",".join, zip(*columns))
    if len(columns) == 1:
        rows = ('""' if row == "" else row for row in rows)  # csv.writer quotes a lone empty field
    return "\r\n".join(rows) + "\r\n"


def _write_csv(path, header: list[str], columns) -> None:
    """The one CSV writer: the bytes ``csv.writer`` writes for ``header`` and
    the rows of ``columns``.

    A column is an array with one field per entry (see ``_fields``), or a
    lookup pair ``(table, index)``: each row of ``table`` is formatted once
    (see ``_table_fields``) and each entry of ``index`` picks one, so a 2-D
    table gives several fields per row.  Arrays are read flat, in C order.
    The fields of ``_BLOCK_ROWS`` rows at a time are built as lists of str,
    joined row by row and written.
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
        fh.write(_lines([[_quote(name)] for name in header]))
        for lo in range(0, num_rows, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            fields = [_fields(v[block]) if t is None else t[v[block]].tolist() for t, v in cols]
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


def grid_from_json(payload: dict, source: str = "grid JSON") -> PhaseGrid:
    """The grid of a ``grid_to_json`` payload; ``source`` names where the
    payload was read in the error raised for a missing or wrong-typed key."""
    kinds = {"dim": int, "n": int, "stencil_radius": int, "h": float}
    return build_torus_grid(*_json_fields(payload, kinds, source))


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _floats(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=float))


# What a JSON value must be to convert to each kind of key.
_JSON_KINDS = {
    int: ("an integer", lambda v: _is_number(v) and v % 1 == 0),
    float: ("a number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list", lambda v: isinstance(v, list)),
    _floats: (
        "a number or a list of numbers",
        lambda v: _is_number(v) or isinstance(v, list) and all(map(_is_number, v)),
    ),
}


def _json_fields(desc, kinds: dict, source) -> list:
    """The values of the keys of ``kinds`` in a JSON object, in order, each
    converted to its kind; a ValueError names ``source`` and the first key the
    object lacks or holds with a value of another kind (see ``_JSON_KINDS``)."""
    if not isinstance(desc, dict):
        raise ValueError(f"{source}: expected a JSON object, got {type(desc).__name__}")
    for key, kind in kinds.items():
        if key not in desc:
            raise ValueError(f"{source}: missing key {key!r}")
        what, test = _JSON_KINDS[kind]
        if not test(desc[key]):
            got = json.dumps(desc[key], default=repr)
            raise ValueError(f"{source}: key {key!r} must be {what}, got {got}")
    return [kind(desc[key]) for key, kind in kinds.items()]


def _write_edge_csv(path, grid: PhaseGrid, names: list[str], columns: list) -> None:
    """One row per edge: its node and offset coordinates, then ``columns``."""
    edges = _coord_columns(grid, np.arange(grid.num_edges), edges=True)
    _write_csv(path, _coord_header(grid.dim, "node", "offset") + names, edges + columns)


def write_lagrangian_csv(path, table: LagrangianTable) -> None:
    _write_edge_csv(path, table.grid, ["value"], [table.values])


def read_lagrangian_csv(grid: PhaseGrid, path) -> LagrangianTable:
    ids, rows = _read_edges(grid, path)
    values = np.full(grid.num_edges, np.nan)
    values[ids] = rows[:, -1]
    if np.isnan(values).any():
        raise ValueError(f"Lagrangian CSV {path} does not cover every edge")
    return LagrangianTable(grid=grid, values=values.reshape(grid.num_nodes, grid.num_offsets))


def _read_csv(path, width: int, checks: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """The one CSV reader, the mirror of ``_write_csv``: a table keyed by
    integer columns, as (keys, rows) with one (width,) float row per key.

    The first line is the header; blank lines are skipped and fields past
    ``width`` ignored.  ``checks`` is an ordered list of ``(columns, bounds,
    message)``: the fields of a column slice are integers, and with ``bounds
    = (lo, hi)`` lie in [lo, hi), ``message`` taking the first value outside
    and the tuple of them all.  A key numbers a row's bounded columns
    row-major; the last row of a key wins, in the place of its first row.
    """
    if Path(path).stat().st_size == 0:
        raise ValueError(f"CSV file {path} is empty")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            rows = np.loadtxt(
                path, delimiter=",", quotechar='"', comments=None, skiprows=1,
                usecols=range(width), ndmin=2,
            )
    except ValueError as exc:
        raise ValueError(_first_error(path, width, checks) or f"{path}: {exc}") from None
    keys = np.zeros(len(rows), dtype=int)
    for columns, bounds, _ in checks:
        x = rows[:, columns]
        lo, hi = bounds or (-np.inf, np.inf)
        if (~_integral(x) | (x < lo) | (x >= hi)).any():
            raise ValueError(_first_error(path, width, checks) or f"{path}: a row fails a check")
        if bounds:
            keys = keys * (hi - lo) ** x.shape[1] + lattice_index((x - lo).T.astype(int), hi - lo)
    _, first = np.unique(keys, return_index=True)
    _, last = np.unique(keys[::-1], return_index=True)
    keep = (len(keys) - 1 - last)[np.argsort(first)]
    return keys[keep], rows[keep]


def _first_error(path, width: int, checks: list[tuple]) -> str | None:
    """``"<path> line <k>: ..."`` for the first data row that is short, holds
    a field that is not a number, or fails a check, in this order within a
    row; None when the ``csv`` module reads every row as valid."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):  # the error path only
            where = f"{path} line {reader.line_num}: "
            if len(row) < width:
                return where + f"{len(row)} fields, expected {width}"
            try:
                numbers = [float(v) for v in row[:width]]
            except ValueError as exc:  # names the field: could not convert string to float: 'x'
                return where + str(exc)
            for columns, bounds, message in checks:
                fractional = [f for v, f in zip(numbers[columns], row[columns]) if not v.is_integer()]
                if fractional:
                    return where + f"{fractional[0]!r} is not an integer"
                ints = tuple(map(int, numbers[columns]))
                outside = [v for v in ints if bounds and not bounds[0] <= v < bounds[1]]
                if outside:
                    return where + message.format(outside[0], ints)


def _bounded(columns: slice, size: int, what: str) -> tuple:
    """The check that the fields in ``columns`` are integers in [0, size)."""
    return columns, (0, size), f"{what} {{0}} is outside [0, {size})"


def _read_edges(grid: PhaseGrid, path) -> tuple[np.ndarray, np.ndarray]:
    """Edge ids and rows of a CSV of rows ``(node..., offset..., value)``."""
    d, K = grid.dim, grid.stencil_radius
    stencil = (slice(d, 2 * d), (-K, K + 1), f"offset {{1}} outside stencil radius {K}")
    nodes = _bounded(slice(0, d), grid.nodes_per_dim, "coordinate")
    return _read_csv(path, 2 * d + 1, [nodes, stencil])


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
    ids, rows = _read_edges(grid, path)
    nodes, m = divmod(ids, grid.num_offsets)
    weights = dict(zip(zip(nodes.tolist(), m.tolist()), rows[:, -1].tolist()))
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
    nodes, rows = _read_csv(path, d + 1, [_bounded(slice(0, d), grid.nodes_per_dim, "coordinate")])
    return BoundaryCurrent(grid=grid, charges=dict(zip(nodes.tolist(), rows[:, d].tolist())))


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
    _write_edge_csv(path, cert.grid, ["g"], [cert.slack])


def write_envelope_csv(path, table: LagrangianTable, env) -> None:
    """L_tilde and the endpoint flag per edge.  L itself is the Lagrangian
    CSV, and the one-sided slopes are differences of L_tilde (``_fiber_slopes``)."""
    columns = [env.values, env.endpoint.astype(int)]
    _write_edge_csv(path, table.grid, ["L_tilde", "endpoint"], columns)


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
    columns = [report.f, momentum, spread, report.H_residual, on.astype(int)]
    _write_csv(path, header, _coord_columns(grid, np.arange(grid.num_nodes)) + columns)


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
    """Value function, certificate and report files of a ControlResult."""
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    write_value_function_csv(dest / "value_function.csv", result.value_function)
    cert = result.certificate
    write_json(
        dest / "control_certificate.json",
        {"c0": cert.c0, "empirical_mean_cost": cert.empirical_mean_cost, "u": cert.u},
    )
    report = {
        "status": result.lp.status,
        "lp_value": result.lp.value,
        "dp_total": result.dp_total,
        "hjb_residual": result.hjb_residual,
        "max_principle_on_support": result.max_principle[0],
        "max_principle_off_support": result.max_principle[1],
        "u_v_residual": result.u_v_residual,
        "duplicate_collapses": result.problem.duplicate_collapses,
    }
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
    """Control problem bundle: JSON {state_dim, n, origin, spacing, controls,
    t0, dt, dynamics_csv, costs_csv}, CSV paths relative to the JSON file.
    Dynamics rows are (state..., control_index, step...) integer steps; cost
    rows are (state..., t_index, control_index, ell).  A missing or
    wrong-typed key raises a ValueError that names the file and the key."""
    path = Path(path)
    kinds = {"state_dim": int, "n": int, "origin": _floats, "spacing": float, "controls": tuple}
    kinds.update(t0=float, dt=float, dynamics_csv=str, costs_csv=str)
    s, n, origin, spacing, controls, t0, dt, dynamics_csv, costs_csv = _json_fields(
        json.loads(path.read_text()), kinds, path
    )
    S, T, A = n**s, _num_steps(s, n, t0, dt), len(controls)
    origin = _box(origin, spacing, s, path)
    states = _bounded(slice(0, s), n, "coordinate")
    control = _bounded(slice(s, s + 1), A, "control index")

    integers = (slice(0, 2 * s + 1), None, None)
    keys, rows = _read_csv(path.parent / dynamics_csv, 2 * s + 1, [integers, states, control])
    given = np.isin(np.arange(S * A), keys)
    steps = np.zeros((S * A, s), dtype=int)
    steps[keys] = np.clip(rows[:, s + 1 :], -n, n)  # a step of n or more leaves the box

    integers = (slice(0, s + 2), None, None)
    time = _bounded(slice(s, s + 1), T, "time index")
    control = _bounded(slice(s + 1, s + 2), A, "control index")
    keys, rows = _read_csv(path.parent / costs_csv, s + 3, [integers, states, time, control])
    ell = np.full(S * T * A, np.nan)
    ell[keys] = rows[:, -1]
    if np.isnan(ell).any():
        raise ValueError("cost CSV does not cover every (state, time, control)")
    return _control_problem(
        steps.reshape(S, A, s),
        given.reshape(S, A),
        state_dim=s,
        nodes_per_axis=n,
        origin=origin,
        spacing=spacing,
        controls=controls,
        ell=ell.reshape(S, T, A),
        horizon=t0,
        time_step=dt,
    )


def read_initial_csv(num_states: int, state_dim: int, n: int, path) -> np.ndarray:
    states, rows = _read_csv(path, state_dim + 1, [_bounded(slice(0, state_dim), n, "coordinate")])
    init = np.zeros(num_states)
    init[states] = rows[:, state_dim]
    return init
