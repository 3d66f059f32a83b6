"""JSON measure files.

One schema, version 1, two kinds:

* ``{"version": 1, "kind": "tree", "depth": N, "support_mode": "...",
  "masses": [...]}`` with masses for nodes 1..2^(N+1)-1 in heap order;
* ``{"version": 1, "kind": "bitree", "depths": [n, m], "masses":
  [[...], ...]}`` with a row-major 2^n x 2^m grid of boundary cells.

The version field may be omitted (it defaults to 1); every other unknown
or missing field is an error, and diagnostics carry the offending
position.

Files are read with orjson. A ``bytes`` file is read in pieces, so that
no parser holds the whole document at once: the ``masses`` array is cut
out of the raw bytes, the rest of the document is parsed with ``null`` in
its place and checked, and the array's text is cut at its top-level
separators into pieces of about ``_PIECE_ENTRIES`` entries, each parsed
and checked on its own and copied into one preallocated float array.
That reader declines anything it does not expect: ``str`` input, a
backslash outside the array, a second ``"masses"`` key, a piece that
orjson rejects or whose entries are not numbers, a wrong count or row
length, and any failed check. Whatever it declines is read whole, as
below, so every error keeps its message; orjson reads each number token
to the same double in a piece as in the whole document.

The whole document is read with orjson. The json module reads only what
orjson rejects: a byte-order mark (which skips orjson), UTF-16 or UTF-32
text, ``NaN``, ``Infinity`` and numbers that overflow to infinity, lone
surrogate escapes, and invalid JSON, whose message is the json module's.
orjson reads an integer outside [-2^63, 2^64) as a float, so such a
``version``, ``depth`` or ``depths`` entry fails as a non-integer; masses
round to the same doubles.
"""

from __future__ import annotations

import codecs
import json
import re
from itertools import chain
from pathlib import Path

import numpy as np
import orjson

from .bitree import BiMeasure, build_bitree
from .errors import CarlesonError, ValidationError
from .tree import ALL_NODES, SUPPORT_MODES, TreeMeasure, build_tree

__all__ = [
    "SCHEMA_VERSION",
    "load_measure",
    "measure_to_dict",
    "parse_measure_dict",
    "parse_measure_file",
    "save_measure",
]

SCHEMA_VERSION = 1

_TREE_FIELDS = {"version", "kind", "depth", "support_mode", "masses"}
_BITREE_FIELDS = {"version", "kind", "depths", "masses"}

# entries per piece of a masses array; a piece of a bi-tree array holds
# whole rows, at least one
_PIECE_ENTRIES = 1 << 12
# the first literal "masses" key, up to its array's first entry or row
_MASSES_KEY = re.compile(rb'"masses"[ \t\n\r]*:[ \t\n\r]*(\[)[ \t\n\r]*(\[?)')
_ROWS_END = re.compile(rb"\][ \t\n\r]*\]")
_SPACE = re.compile(rb"[ \t\n\r]*")


def _is_number(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def _mass_array(masses: list, cols: int | None = None) -> np.ndarray:
    """One float array of a tree's flat masses or a bi-tree's rows of ``cols``.

    Entry types are checked as a set; only a rejected list is scanned, to
    name its first bad entry.
    """
    def entries():
        return iter(masses) if cols is None else chain.from_iterable(masses)

    if all(map(_is_number, set(map(type, entries())))):
        try:
            return np.array(masses, dtype=float)
        except OverflowError:
            pass
    for k, value in enumerate(entries()):
        where = f"masses[{k}]" if cols is None else f"masses[{k // cols}][{k % cols}]"
        if not _is_number(type(value)):
            raise ValidationError(f"{where}: expected a number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ValidationError(f"{where}: integer outside the double range") from None
    raise AssertionError("a rejected mass list has no bad entry")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return value


def _check_fields(obj: dict, allowed: set, required: tuple, kind: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown field(s) {', '.join(unknown)} for kind {kind!r}"
        )
    for name in required:
        if name not in obj:
            raise ValidationError(f"missing field {name!r}")


def _parse_tree(obj: dict, read) -> TreeMeasure:
    _check_fields(obj, _TREE_FIELDS, ("depth", "masses"), "tree")
    depth = _as_int(obj["depth"], "depth")
    if depth < 0:
        raise ValidationError(f"depth: must be nonnegative, got {depth}")
    shape = build_tree(depth)
    mode = obj.get("support_mode", ALL_NODES)
    if mode not in SUPPORT_MODES:
        raise ValidationError(
            f"support_mode: expected one of {SUPPORT_MODES}, got {mode!r}"
        )
    if read is not None:
        return TreeMeasure(shape, read(shape.node_count, None), support_mode=mode)
    masses = obj["masses"]
    if not isinstance(masses, list):
        raise ValidationError("masses: expected a list")
    if len(masses) != shape.node_count:
        raise ValidationError(
            f"masses: expected {shape.node_count} entries for depth {depth}, "
            f"got {len(masses)}"
        )
    return TreeMeasure(shape, _mass_array(masses), support_mode=mode)


def _parse_bitree(obj: dict, read) -> BiMeasure:
    _check_fields(obj, _BITREE_FIELDS, ("depths", "masses"), "bitree")
    depths = obj["depths"]
    if not (isinstance(depths, list) and len(depths) == 2):
        raise ValidationError(f"depths: expected a pair, got {depths!r}")
    n = _as_int(depths[0], "depths[0]")
    m = _as_int(depths[1], "depths[1]")
    if n < 0 or m < 0:
        raise ValidationError(f"depths: must be nonnegative, got [{n}, {m}]")
    shape = build_bitree(n, m)
    rows, cols = shape.cell_grid
    if read is not None:
        return BiMeasure(shape, read(rows, cols))
    masses = obj["masses"]
    if not isinstance(masses, list) or len(masses) != rows:
        raise ValidationError(
            f"masses: expected {rows} rows, got "
            f"{len(masses) if isinstance(masses, list) else type(masses).__name__}"
        )
    for i, row in enumerate(masses):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"masses[{i}]: expected a row of {cols} entries")
    return BiMeasure(shape, _mass_array(masses, cols))


def _parse(obj, read) -> TreeMeasure | BiMeasure:
    """The measure of a parsed document. ``read(rows, cols)``, if given,
    returns the masses in place of ``obj["masses"]``: ``rows`` entries,
    or ``rows`` rows of ``cols`` for a bi-tree."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    version = obj.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported version {version!r}")
    kind = obj.get("kind")
    if kind == "tree":
        return _parse_tree(obj, read)
    if kind == "bitree":
        return _parse_bitree(obj, read)
    raise ValidationError(f"kind: expected 'tree' or 'bitree', got {kind!r}")


def parse_measure_dict(obj) -> TreeMeasure | BiMeasure:
    return _parse(obj, None)


def _pieces_reader(data: bytes, start: int, close: int, flat: bool):
    """``read(rows, cols)`` for the masses array whose entries or rows lie
    in ``data[start:close]``. Each piece ends at the first top-level
    separator after an estimated byte offset: a ``,``, or the ``,`` after a
    row's ``]``. Raises ``ValueError`` on a piece or count it cannot use."""
    def read(rows: int, cols: int | None) -> np.ndarray:
        if flat != (cols is None):
            raise ValueError("the array's layout is not its kind's")
        out = np.empty(rows if cols is None else (rows, cols))
        per_piece = max(1, _PIECE_ENTRIES // (cols or 1))
        step = max(1, (close - start) * per_piece // rows)
        done, pos, cut = 0, start, None
        while cut != close:  # the last piece ends at the array's "]"
            cut = data.find(b"," if flat else b"]", pos + step, close)
            if cut < 0:
                cut = close
            elif not flat:
                cut = _SPACE.match(data, cut + 1).end()
                if cut != close and data[cut] != ord(","):
                    raise ValueError("no separator after a row")
            piece = orjson.loads(b"[" + data[pos:cut] + b"]")
            if not flat and not all(type(row) is list and len(row) == cols for row in piece):
                raise ValueError("a row of the wrong length")
            if not piece or done + len(piece) > rows:
                raise ValueError("a wrong number of entries")
            out[done:done + len(piece)] = _mass_array(piece, cols)
            done += len(piece)
            pos = cut + 1
        if done != rows:
            raise ValueError("a wrong number of entries")
        return out

    return read


def _read_in_pieces(data: bytes) -> TreeMeasure | BiMeasure | None:
    """The measure of a valid file, read a piece of its masses at a time,
    or None for a file that the whole-document reader must read."""
    first = data.find(b'"masses"')
    key = _MASSES_KEY.match(data, first) if first >= 0 else None
    if key is None:
        return None
    flat = not key.group(2)
    if flat:
        close = data.find(b"]", key.end(1))
    else:
        end = _ROWS_END.search(data, key.end(1))
        close = end.end() - 1 if end else -1
    # without a backslash, every key outside the array is literal, so this
    # is the document's only "masses" key
    if (close < 0 or data.find(b"\\", 0, key.start(1)) >= 0
            or data.find(b"\\", close) >= 0 or data.find(b'"masses"', close) >= 0):
        return None
    try:
        obj = orjson.loads(data[:key.start(1)] + b"null" + data[close + 1:])
        if not (isinstance(obj, dict) and "masses" in obj and obj["masses"] is None):
            return None
        return _parse(obj, _pieces_reader(data, key.end(1), close, flat))
    except (ValueError, CarlesonError, RecursionError):
        return None


def parse_measure_file(data: bytes | str) -> TreeMeasure | BiMeasure:
    bom = isinstance(data, (bytes, bytearray)) and data.startswith(codecs.BOM_UTF8)
    if isinstance(data, bytes) and not bom:
        measure = _read_in_pieces(data)
        if measure is not None:
            return measure
    rejected = bom  # orjson rejects a byte-order mark
    if not rejected:
        try:
            obj = orjson.loads(data)
        except orjson.JSONDecodeError:  # its error holds a copy of the text: read again after it
            rejected = True
    if rejected:
        try:
            if isinstance(data, (bytes, bytearray)):  # as json.loads does, dropping the bytes
                data = data.decode(json.detect_encoding(data), "surrogatepass")
            obj = json.loads(data)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long integers
            raise ValidationError(f"not valid JSON: {exc}") from None
    del data  # the input goes before the masses are converted
    try:
        return parse_measure_dict(obj)
    except RecursionError:  # the repr, in a message, of a value nested thousands deep
        raise ValidationError("a value is nested too deep to show") from None


def measure_to_dict(measure: TreeMeasure | BiMeasure) -> dict:
    if isinstance(measure, TreeMeasure):
        return {
            "version": SCHEMA_VERSION,
            "kind": "tree",
            "depth": measure.shape.depth,
            "support_mode": measure.support_mode,
            "masses": measure.masses.tolist(),
        }
    if isinstance(measure, BiMeasure):
        return {
            "version": SCHEMA_VERSION,
            "kind": "bitree",
            "depths": list(measure.shape.depths),
            "masses": measure.cells.tolist(),
        }
    raise TypeError(f"not a measure: {type(measure).__name__}")


def load_measure(path) -> TreeMeasure | BiMeasure:
    return parse_measure_file(Path(path).read_bytes())


def save_measure(measure: TreeMeasure | BiMeasure, path) -> None:
    text = json.dumps(measure_to_dict(measure), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")
