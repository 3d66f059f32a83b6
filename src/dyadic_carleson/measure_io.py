"""JSON measure files.

One schema, version 1, two kinds:

* ``{"version": 1, "kind": "tree", "depth": N, "support_mode": "...",
  "masses": [...]}`` with masses for nodes 1..2^(N+1)-1 in heap order;
* ``{"version": 1, "kind": "bitree", "depths": [n, m], "masses":
  [[...], ...]}`` with a row-major 2^n x 2^m grid of boundary cells.

The version field may be omitted (it defaults to 1); every other unknown
or missing field is an error, and diagnostics carry the offending
position.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .bitree import BiMeasure, build_bitree
from .errors import ValidationError
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


def _parse_tree(obj: dict) -> TreeMeasure:
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
    masses = obj["masses"]
    if not isinstance(masses, list):
        raise ValidationError("masses: expected a list")
    if len(masses) != shape.node_count:
        raise ValidationError(
            f"masses: expected {shape.node_count} entries for depth {depth}, "
            f"got {len(masses)}"
        )
    return TreeMeasure(shape, _mass_array(masses), support_mode=mode)


def _parse_bitree(obj: dict) -> BiMeasure:
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


def parse_measure_dict(obj) -> TreeMeasure | BiMeasure:
    if not isinstance(obj, dict):
        raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
    version = obj.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported version {version!r}")
    kind = obj.get("kind")
    if kind == "tree":
        return _parse_tree(obj)
    if kind == "bitree":
        return _parse_bitree(obj)
    raise ValidationError(f"kind: expected 'tree' or 'bitree', got {kind!r}")


def parse_measure_file(data: bytes | str) -> TreeMeasure | BiMeasure:
    try:
        obj = json.loads(data)
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise ValidationError(f"not valid JSON: {exc}") from None
    return parse_measure_dict(obj)


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
