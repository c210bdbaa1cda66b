"""File formats: grid JSON, CSV tables for measures/currents/Lagrangians,
certificate and diagnostics JSON, and the control-problem bundle.

All writers are deterministic (sorted keys, repr floats), so reports are
byte-stable across runs with identical inputs.

A JSON file holds the bytes of ``json.dumps(sort_keys=True, indent=2)``
plus a newline, written by one small recursive emitter (``_json``): numpy
values are written as Python ones, a non-finite float as null, and a numeric
ndarray has its fields formatted and then grouped into rows.

CSV tables are written as text columns, byte for byte what ``csv.writer``
writes, UTF-8.  A column is an array with one field per entry, or a lookup
``(table, index)`` whose table rows (node coordinates along one axis,
stencil offsets, state coordinates, times, control names, a node table's
supported momenta) are formatted once and then indexed; an index that
follows from the row number (an edge's node and offset) is computed a block
at a time.  Rows are written a block at a time (``_BLOCK_ROWS``, fewer
when rows are wide), so memory stays flat: each field of a block is a row of
a byte matrix, the matrices are laid side by side and the padding between
fields is deleted from the block's bytes.

Each distinct value of a numeric CSV block or JSON array is formatted once
(``_distinct``), floats told apart by their bits: a reversible Lagrangian
repeats its values across a node's edges, and a flag column holds two.  A
float is written as the shortest digits that read back as it, in the layout
of ``repr``: many distinct values by an integer numpy kernel
(``_float_fields``) that gives the bytes of ``repr`` without calling it, and
the values it leaves (zeros, subnormals, powers of two, magnitudes outside
about [7e-12, 7e16], exact ties, inf and nan) and small blocks by ``repr``.

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
    same_grid,
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
    formatted from its flat values a block at a time, each distinct value of
    a block once (see ``_distinct``), then grouped into rows from the
    innermost axis out; any other array goes through ``tolist``."""
    kind = a.dtype.kind
    if kind not in "biuf":
        return _json(a.tolist(), newline)
    finite = lambda x: repr(x) if math.isfinite(x) else "null"
    fmt = {"b": ("false", "true").__getitem__, "f": finite}.get(kind, repr)
    flat = a.ravel()
    fields = []
    for lo in range(0, len(flat), _BLOCK_ROWS):
        texts, inverse = _distinct(flat[lo : lo + _BLOCK_ROWS], fmt)
        fields += np.array(_texts(texts), dtype=object)[inverse].tolist()
    for axis in reversed(range(a.ndim)):
        size, pad = a.shape[axis], newline + "  " * axis
        rows = range(math.prod(a.shape[:axis]))
        fields = [_json_block("[]", fields[i * size : (i + 1) * size], pad) for i in rows]
    return fields[0]


# Rows per write: one block's text is built and written at once, so memory
# stays flat.  3600 is divisible by 3, 9 and 25 (stencil sizes), so the
# block-boundary tests fill a block exactly with whole grids.  A block of wide
# rows holds fewer: its working memory, about _BLOCK_COPIES bytes per byte of
# row width, stays within _BLOCK_BYTES.
_BLOCK_ROWS = 3600
_BLOCK_BYTES = 2 << 20
_BLOCK_COPIES = 4

# Fields are built as byte matrices, one row per field, padded on the right or
# in between with _PAD; a block's rows are laid side by side and the pad bytes
# deleted from their bytes.  UTF-8 never holds 0xFF, so no byte of a text
# field (a control name may hold NUL) is deleted with them.
_PAD = 0xFF

# The fewest distinct floats that _float_fields writes faster than repr: its
# hundred-odd numpy calls cost about as much as 250 calls of repr.
_KERNEL_MIN = 256

# The widest field of a bool and an int column; any other column that is not a
# lookup is counted at a float's width, _FLOAT_WIDTH.
_WIDTHS = {"b": 5, "i": 20, "u": 20}

# The characters that make csv.writer (QUOTE_MINIMAL) quote a field.
_SPECIAL = re.compile('[,"\r\n]')


def _quote(field: str) -> str:
    """``field`` as csv.writer writes it: in double quotes, with its own
    quotes doubled, when it holds a comma, a quote, CR or LF."""
    if _SPECIAL.search(field) is None:
        return field
    return '"' + field.replace('"', '""') + '"'


def _text_matrix(texts: list[str]) -> np.ndarray:
    """The UTF-8 bytes of each str as one row of a byte matrix, padded."""
    encoded = [t.encode("utf-8") for t in texts]
    sizes = np.fromiter(map(len, encoded), np.intp, len(encoded))
    out = np.full((len(encoded), sizes.max(initial=0)), _PAD, dtype=np.uint8)
    out[np.arange(out.shape[1]) < sizes[:, None]] = np.frombuffer(b"".join(encoded), np.uint8)
    return out


def _join(fields: list[np.ndarray], end: bytes = b"", sep: str = ",") -> np.ndarray:
    """Field matrices of equal height side by side, ``sep`` between two and
    ``end`` after the last: one matrix row per text row."""
    width = sum(f.shape[1] for f in fields) + len(fields) - 1 + len(end)
    out = np.empty((len(fields[0]), width), dtype=np.uint8)
    at = 0
    for i, f in enumerate(fields):
        if i:
            out[:, at] = ord(sep)
            at += 1
        out[:, at : at + f.shape[1]] = f
        at += f.shape[1]
    out[:, at:] = np.frombuffer(end, np.uint8)
    return out


def _unpad(rows: np.ndarray) -> bytes:
    return rows.tobytes().translate(None, bytes([_PAD]))


def _texts(fields: np.ndarray) -> list[str]:
    """The str of each row of a field matrix."""
    return _unpad(_join([fields], b"\n")).decode("utf-8").split("\n")[:-1]


def _distinct(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """(texts, inverse) of a 1-D numeric array: the field matrix of its
    distinct keys, each formatted once, and the row of each entry's key.  A
    key is a float's bits, so -0.0 and 0.0 and NaN payloads stay apart, or an
    int's or bool's value.  Floats are widened to float64; at least
    ``_KERNEL_MIN`` distinct ones are written by ``_float_fields``, ``fmt``
    writing the values it leaves, and any other value by ``fmt``, which for
    floats gives the same bytes.  TypeError for floats wider than 64 bits."""
    kind = values.dtype.kind
    if kind == "f" and values.itemsize > 8:
        raise TypeError(f"cannot write {values.dtype} values; convert them to float64 first")
    keys = values.view(f"i{values.itemsize}") if kind == "f" else values
    unique, inverse = np.unique(keys, return_inverse=True)
    unique = unique.view(values.dtype)
    if kind == "f" and len(unique) >= _KERNEL_MIN:
        with np.errstate(invalid="ignore"):  # widening a signaling NaN
            wide = unique.astype(np.float64)
        texts = _float_fields(wide, fmt)
    else:
        texts = _text_matrix(list(map(fmt, unique.tolist())))
    return texts, inverse.ravel()


def _fields(values: np.ndarray) -> np.ndarray:
    """The field matrix of a 1-D array: a float as its ``repr``, an int or
    bool as ``str``, each distinct value formatted once (see ``_distinct``);
    None as empty, any other value as its ``str``, quoted as csv.writer
    quotes it."""
    kind = values.dtype.kind
    if kind in "biuf":
        texts, inverse = _distinct(values, repr if kind == "f" else str)
        return texts[inverse]
    return _text_matrix(
        ["" if v is None else _quote(repr(v) if isinstance(v, float) else str(v)) for v in values.tolist()]
    )


def _table_fields(table) -> np.ndarray:
    """The rows of a lookup table formatted once, as a field matrix to index:
    one field per entry of a 1-D table, a 2-D row as its fields joined by
    ","; a uint8 matrix is a field matrix formatted already."""
    if isinstance(table, np.ndarray) and table.dtype == np.uint8 and table.ndim == 2:
        return table
    return _join([_fields(column) for column in np.atleast_2d(np.asarray(table).T)])


def _lines(fields: list[np.ndarray]) -> bytes:
    """The CSV bytes of rows given as one field matrix per column, each line
    ended by "\r\n" as csv.writer ends it."""
    if len(fields) == 1:  # csv.writer quotes a row that is one empty field
        field = np.pad(fields[0], ((0, 0), (0, 2)), constant_values=_PAD)
        field[(field == _PAD).all(axis=1), :2] = ord('"')
        fields = [field]
    return _unpad(_join(fields, b"\r\n"))


def _write_csv(path, header: list[str], columns) -> None:
    """The one CSV writer: the bytes ``csv.writer`` writes for ``header`` and
    the rows of ``columns``, UTF-8.

    A column is an array with one field per entry (see ``_fields``), or a
    lookup pair ``(table, index)``: each row of ``table`` is formatted once
    (see ``_table_fields``), unless it is a field matrix already, and each
    entry of ``index`` picks one, so a 2-D table gives several fields per
    row.  Arrays are read flat, in C order.  An index may also be a function
    of the row numbers, asked for one block of rows at a time, so a column
    that follows from the row number is never held whole.  Each block (see
    ``_BLOCK_ROWS``) has its fields built as byte matrices, laid side by side
    and written.
    """
    cols = []
    for col in columns:
        table, index = col if isinstance(col, tuple) else (None, col)
        if not callable(index):
            index = np.asarray(index).ravel()
        cols.append((None if table is None else _table_fields(table), index))
    sizes = {len(index) for _, index in cols if not callable(index)}
    if len(sizes) != 1:
        raise ValueError(f"CSV columns of unequal lengths {sorted(sizes)}")
    (num_rows,) = sizes
    width = sum((_width(i) if t is None else t.shape[1]) + 1 for t, i in cols) + 1
    block = max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (_BLOCK_COPIES * width)))
    with open(path, "wb") as fh:
        fh.write(_lines([_text_matrix([_quote(name)]) for name in header]))
        for lo in range(0, num_rows, block):
            rows = np.arange(lo, min(lo + block, num_rows))
            picked = [i(rows) if callable(i) else i[lo : lo + block] for _, i in cols]
            fh.write(_lines([_fields(v) if t is None else t[v] for (t, _), v in zip(cols, picked)]))


def _width(column: np.ndarray) -> int:
    """The widest field a column that is not a lookup may hold, as far as its
    kind tells."""
    return _WIDTHS.get(column.dtype.kind, _FLOAT_WIDTH)


# The shortest round-trip digits of a float64, by exact integer arithmetic
# (Ryu, Adams, PLDI 2018; Schubfach, Giulietti, 2020), in the layout of repr.
#
# A finite, normal x that is not a power of two is m * 2**e with
# m = 2**52 | fraction bits.  With k = floor(e * log10(2)) and j = -k in
# [0, 27], x * 10**j = S / 2**t for S = 2m * 5**j and t = k - e + 1, and the
# values that read back as x are those within H / 2**t of it, H = 5**j, ends
# included iff m is even.  That interval is 10**j * 2**e wide, in [1, 10): it
# holds at most one multiple of 10, which gives the fewest digits, and else
# the integer nearest S / 2**t has as few as any.  Every other value (zeros,
# subnormals, powers of two, j outside [0, 27], an exact tie between two
# nearest integers, inf and nan) is written by a fallback, one at a time.
#
# The text is laid out in seven uint64 words, each byte a character, padded
# where a part is shorter than its words: the sign, 16 digits of the integer
# part, 24 of the fraction (the point in its first byte, which is never a
# shown digit) and the exponent.  Digits are made and hidden a word at a time
# ("SWAR").  Positional when -4 < decpt <= 16 (x = 0.d1d2... * 10**decpt),
# with ".0" on an integral value; else d1.d2...e+XX, the point dropped when
# d1 is all the digits.

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**j for j in range(28)], dtype=np.uint64)
_POW10 = np.array([10**p for p in range(20)], dtype=np.uint64)
_FLOAT_WIDTH = 7 * 8
# per byte of a word: its high bit, and 0x7F, which adds up to the high bit
# on a nonzero digit
_HIGH = _U64(0x8080808080808080)
_LOW7 = _U64(0x7F7F7F7F7F7F7F7F)
_ZEROS = _U64(0x3030303030303030)
_ALL = _U64(2**64 - 1)
# (1 << 8 b) - 1, the bytes of a word below byte b, for b in [0, 8]
_BELOW = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)
_MINUS = _U64(0x2D << 56 | 2**56 - 1)  # "-" in the sign word's last byte
# the first fraction slot of each of the fraction's three words
_WORD_SLOTS = np.array([[0], [8], [16]])
# the words of "e-20" .. "e+20", indexed by exponent + 20
_EXPONENTS = np.frombuffer(
    b"".join(f"e{x:+03d}".encode() + bytes([_PAD] * 4) for x in range(-20, 21)), dtype="<u8"
).astype(np.uint64)


def _float_fields(values: np.ndarray, fallback) -> np.ndarray:
    """The field matrix of float64 ``values``: the bytes of ``repr`` from the
    integer kernel, and of ``fallback(x)`` for each value it leaves."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    e = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64) - 1075
    k = (e * 78913) >> 18  # floor(e * log10(2)) for e in [-1126, 1023]
    fast = (bits << _U64(12) != 0) & (k >= -27) & (k <= 0)
    e, k = np.where(fast, e, 0), np.where(fast, k, 0)  # the others get any safe e, k
    digits, tie = _shortest_digits(bits, e, k)
    out = _float_layout(bits, digits, k)
    slow = np.flatnonzero(~fast | tie)
    if len(slow):
        texts = _text_matrix(list(map(fallback, values[slow].tolist())))
        out[slow] = _PAD
        out[slow, : texts.shape[1]] = texts
    return out


def _shortest_digits(bits: np.ndarray, e: np.ndarray, k: np.ndarray):
    """The digits D, with |x| = D * 10**k to the precision of x, and whether
    S / 2**t lies halfway between two integers (see above)."""
    frac = bits & _U64(2**52 - 1)
    t = k - e + 1
    up = np.maximum(1 - t, 0).astype(np.uint64)  # t < 1 for e in [1, 3]: scale S up to t = 1
    t = np.maximum(t, 1).astype(np.uint64)
    m2 = (frac | _U64(2**52)) << _U64(1)
    h = _POW5[-k]
    # S = m2 * h as (hi, lo), from four 32 x 32-bit products
    a0, a1, b0, b1 = m2 & _LOW32, m2 >> _U64(32), h & _LOW32, h >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = ((mid << _U64(32)) | (p00 & _LOW32)) << up
    hi = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    del m2, a0, a1, b0, b1, p00, p01, p10, mid
    h <<= up
    # S = q * 2**t + r and H = hq * 2**t + hr, with t in [1, 63]
    mask = (_U64(1) << t) - _U64(1)
    q = (lo >> t) | (hi << (_U64(64) - t))
    r, hq, hr = lo & mask, h >> t, h & mask
    del lo, hi, h
    half = (mask >> _U64(1)) + _U64(1)
    open_ = (frac & _U64(1)).astype(bool)
    # the least and the greatest integer in the interval
    above = r + hr
    top = q + hq + (above >> t) - (open_ & ((above & mask) == 0))
    bottom = q - hq - (r < hr) + (open_ | (r != hr))
    tens = top - top % _U64(10)
    return np.where(tens >= bottom, tens, q + (r > half)), r == half


def _digit_words(x: np.ndarray) -> None:
    """Write each entry of ``x`` (< 10**8) as its 8 decimal digits, one a byte,
    the first in the lowest byte: halved into 4-digit lanes, then 2, then 1.
    In place: a block's five words per value come to about 140 kB, the size
    at which the C allocator hands each new array back to the system when it
    is freed, so a temporary per step would cost more than the arithmetic."""
    hi, tmp = np.empty_like(x), np.empty_like(x)
    for lanes, base, split, keep in (
        (32, 10000, None, None),
        (16, 100, (10486, 20), 0x0000007F0000007F),  # x // 100 per 32-bit lane
        (8, 10, (103, 10), 0x000F000F000F000F),  # x // 10 per 16-bit lane
    ):
        if split is None:
            np.floor_divide(x, _U64(base), out=hi)
        else:
            np.multiply(x, _U64(split[0]), out=hi)
            hi >>= _U64(split[1])
            hi &= _U64(keep)
        np.multiply(hi, _U64(base), out=tmp)
        x -= tmp
        x <<= _U64(lanes)
        x |= hi


def _float_layout(bits: np.ndarray, digits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The field matrix of the values of sign ``bits`` and magnitude
    ``digits * 10**k``, digits of 16 or 17 digits (see above)."""
    n = len(digits)
    count = 16 + (digits >= _POW10[16])
    decpt = count + k
    expo = (decpt <= -4) | (decpt > 16)
    places = np.where(expo, count - 1, -k)  # digits after the point, at most 20
    scale = _POW10[np.minimum(places, 19)]
    whole = digits // scale
    frac = digits - whole * scale
    words = np.empty((7, n), dtype=np.uint64)
    words[1] = whole // _U64(10**8)
    words[2] = whole - words[1] * _U64(10**8)
    words[3] = frac // _U64(10**16)
    rest = frac - words[3] * _U64(10**16)
    words[4] = rest // _U64(10**8)
    words[5] = rest - words[4] * _U64(10**8)
    del scale, whole, rest
    digit = words[1:6]
    _digit_words(digit)
    # the bytes shown, built in place of the nonzero-digit marks
    shown = digit + _LOW7
    shown &= _HIGH
    # the integer part from its first nonzero digit, and always its last digit
    integer = shown[:2]
    leading = integer[0] != 0
    lowest = ~integer + _U64(1)
    lowest &= integer
    lowest >>= _U64(7)
    lowest -= _U64(1)
    np.invert(lowest, out=integer)
    integer[1] = np.where(leading, _ALL, integer[1] | _U64(0xFF << 56))
    # the fraction's digits from slot 24 - places to its last nonzero digit,
    # and at least its first unless an exponent form has none
    point = ~expo | (frac != 0)
    start = 24 - np.maximum(places, 1) - _WORD_SLOTS
    after = ~_BELOW[np.minimum(np.maximum(start, 0), 8)]
    first = after & _BELOW[np.minimum(np.maximum(start + 1, 0), 8)] & _HIGH
    first[:, ~point] = 0
    last = shown[2:]
    last |= first
    for shift in (8, 16, 32):
        np.right_shift(last, _U64(shift), out=first)
        last |= first
    beyond2 = last[2] != 0
    beyond1 = beyond2 | (last[1] != 0)
    last >>= _U64(7)
    last *= _U64(0xFF)
    last[0] |= np.where(beyond1, _ALL, _U64(0))
    last[1] |= np.where(beyond2, _ALL, _U64(0))
    last &= after
    np.invert(shown, out=shown)
    digit |= shown
    digit |= _ZEROS
    words[3] ^= np.where(point, _U64(_PAD ^ ord(".")), _U64(0))  # the fraction's slot 0 is never shown
    words[0] = np.where(bits >> _U64(63) != 0, _MINUS, _ALL)
    words[6] = np.where(expo, _EXPONENTS[decpt + 19], _ALL)
    out = np.empty((n, 7), dtype="<u8")
    for i, word in enumerate(words):
        out[:, i] = word
    return out.view(np.uint8)


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
    """One row per edge id node * num_offsets + m: the node's coordinates and
    the offset's, then ``columns``.  Each coordinate is a lookup: the n
    values of one axis, or the offsets, are formatted once per file and
    indexed by a function of the row number, so the writer holds nothing per
    edge."""
    d, n, M = grid.dim, grid.nodes_per_dim, grid.num_offsets
    axis = np.arange(n)
    axes = [(axis, lambda rows, step=M * n ** (d - 1 - a): rows // step % n) for a in range(d)]
    edges = axes + [(grid.offsets, lambda rows: rows % M)]
    _write_csv(path, _coord_header(d, "node", "offset") + names, edges + columns)


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
    ids, weights = mu.edges()
    order = np.argsort(ids)
    columns = _coord_columns(grid, ids[order], edges=True) + [weights[order]]
    _write_csv(path, header, columns)


def read_measure_csv(grid: PhaseGrid, path) -> DiscreteMeasure:
    ids, rows = _read_edges(grid, path)
    return DiscreteMeasure.on_edges(grid, ids, rows[:, -1])


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


def write_envelope_csv(path, table: LagrangianTable, env: LagrangianTable) -> None:
    """The envelope L_tilde and the stencil-end flag (``PhaseGrid.stencil_end``,
    by row % M) per edge.  L is the Lagrangian CSV; the fiber slopes are
    differences of L_tilde (``convexify._edge_slopes``).  ``table`` and ``env`` share a grid."""
    grid = same_grid(table.grid, env.grid)
    endpoint = (grid.stencil_end.astype(int), lambda rows: rows % grid.num_offsets)
    _write_edge_csv(path, grid, ["L_tilde", "endpoint"], [env.values, endpoint])


def write_node_table_csv(path, grid: PhaseGrid, report) -> None:
    """One row per node from the report's node-table columns.  Momentum and
    spread are empty off the support; a 2-D momentum is one field, its
    components joined by "|".  Both are lookups into the fields of the
    supported nodes, formatted as any float column (see ``_on_support``)."""
    on = report.on_support
    header = _coord_header(grid.dim, "node")
    header += ["f", "momentum", "momentum_spread", "H_residual", "on_support"]
    momentum, spread = _on_support(report.momentum, on), _on_support(report.momentum_spread, on)
    columns = [report.f, momentum, spread, report.H_residual, on.astype(int)]
    _write_csv(path, header, _coord_columns(grid, np.arange(grid.num_nodes)) + columns)


def _on_support(values: np.ndarray, on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A lookup of float ``values`` (a row of components per node, or one
    each) written where ``on`` holds and empty elsewhere: a field matrix of
    the supported rows, each distinct value formatted once (``_distinct``)
    and a row's components joined by "|", then one empty row for the rest."""
    supported = values.reshape(len(values), -1)[on]
    texts, inverse = _distinct(supported.ravel(), repr)
    fields = _join([texts[c] for c in inverse.reshape(supported.shape).T], sep="|")
    table = np.vstack([fields, np.full((1, fields.shape[1]), _PAD, dtype=np.uint8)])
    index = np.full(len(on), len(fields))
    index[on] = np.arange(len(fields))
    return table, index


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
    # argmin_control is -1 where no step remains: the last entry, written empty
    names = np.array([repr(a) for a in p.controls] + [""], dtype=object)
    columns = [
        (p.coords, lambda rows: rows // layers),
        (np.arange(layers) * p.time_step, lambda rows: rows % layers),
        vf.v,
        (names, vf.argmin_control),
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
