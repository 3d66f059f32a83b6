"""Command-line behavior: exit codes, report formats, measure files."""

import codecs
import contextlib
import csv
import io
import json
import re
import sys
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dyadic_carleson import (
    ALL_NODES,
    BOUNDARY_ONLY,
    BiMeasure,
    CarlesonError,
    TreeMeasure,
    ValidationError,
    build_bitree,
    build_tree,
    load_measure,
    measure_to_dict,
    parse_measure_file,
    random_bimeasure,
    random_tree_measure,
    save_measure,
    uniform_bimeasure,
    uniform_boundary_measure,
)
from dyadic_carleson import cli, measure_io
from dyadic_carleson.carleson import EmbeddingReport, PairCheckResult
from dyadic_carleson.cli import run_command
from dyadic_carleson.measure_io import parse_measure_dict


def _run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# measure files
# ---------------------------------------------------------------------------


def test_tree_measure_round_trip(tmp_path):
    mu = uniform_boundary_measure(build_tree(2))
    path = tmp_path / "uniform.json"
    save_measure(mu, path)
    back = load_measure(path)
    assert isinstance(back, TreeMeasure)
    assert back.support_mode == mu.support_mode
    assert np.array_equal(back.masses, mu.masses)


def test_bitree_measure_round_trip(tmp_path):
    mu = uniform_bimeasure(build_bitree(1, 2))
    path = tmp_path / "bi.json"
    save_measure(mu, path)
    back = load_measure(path)
    assert isinstance(back, BiMeasure)
    assert np.array_equal(back.cells, mu.cells)


# exact zeros of both signs, subnormals, and masses near 1e300
EDGE_MASSES = [0.0, -0.0, 5e-324, 2.2250738585072e-310, 1e300, 9.999999999999999e299]


@pytest.mark.parametrize("kind", ["boundary-only", "all-nodes", "bitree"])
def test_saved_measure_loads_back_bit_for_bit(tmp_path, kind):
    rng = np.random.default_rng(17)
    if kind == "bitree":
        shape = build_bitree(2, 3)
        cells = rng.exponential(size=shape.cell_grid)
        cells.flat[: len(EDGE_MASSES)] = EDGE_MASSES
        mu = BiMeasure(shape, cells)
    else:
        shape = build_tree(3)
        if kind == "boundary-only":
            leaves = rng.exponential(size=shape.leaf_count)
            leaves[: len(EDGE_MASSES)] = EDGE_MASSES
            mu = TreeMeasure.boundary(shape, leaves)
        else:
            masses = rng.exponential(size=shape.node_count)
            masses[-len(EDGE_MASSES):] = EDGE_MASSES
            mu = TreeMeasure(shape, masses, kind)
    path = tmp_path / "mu.json"
    save_measure(mu, path)
    back = load_measure(path)
    assert type(back) is type(mu) and back.shape == mu.shape
    if kind == "bitree":
        got, want = back.cells, mu.cells
    else:
        assert back.support_mode == mu.support_mode == kind
        got, want = back.masses, mu.masses
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_parse_documented_examples():
    tree_doc = {
        "kind": "tree",
        "depth": 1,
        "support_mode": "boundary-only",
        "masses": [0, 0.5, 0.5],
    }
    mu = parse_measure_dict(tree_doc)
    assert isinstance(mu, TreeMeasure) and mu.total_mass == 1.0
    bi_doc = {
        "kind": "bitree",
        "depths": [1, 1],
        "masses": [[0.25, 0.25], [0.25, 0.25]],
    }
    bi = parse_measure_dict(bi_doc)
    assert isinstance(bi, BiMeasure) and bi.total_mass == 1.0
    # bytes input is accepted too
    again = parse_measure_file(json.dumps(tree_doc).encode())
    assert isinstance(again, TreeMeasure)


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(version=2), "unsupported version"),
    (lambda d: d.update(kind="forest"), "kind"),
    (lambda d: d.pop("masses"), "missing field 'masses'"),
    (lambda d: d.update(surprise=1), "unknown field"),
    (lambda d: d.update(masses=[0, True, 0]), "expected a number"),
    (lambda d: d.update(masses=[0, -1, 0]), r"masses\[1\]"),
    (lambda d: d.update(masses=[0, 0.5]), "expected 3"),
])
def test_parse_rejections(mutate, fragment):
    doc = {"kind": "tree", "depth": 1, "masses": [0, 0.5, 0.5]}
    mutate(doc)
    with pytest.raises(ValidationError, match=fragment):
        parse_measure_dict(doc)


def test_parse_rejects_non_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_measure_file(b"depth: 1")


def test_saved_files_are_stable(tmp_path):
    mu = uniform_boundary_measure(build_tree(1))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_measure(mu, first)
    save_measure(mu, second)
    assert first.read_bytes() == second.read_bytes()
    assert measure_to_dict(mu)["kind"] == "tree"


# The per-entry loop the parser used before it checked entry types as a
# set; the parser must accept exactly what it accepted, with the same
# arrays bit for bit and the same error text.


def _as_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _reference_parse(doc):
    masses = doc["masses"]
    if doc["kind"] == "tree":
        values = [_as_number(v, f"masses[{i}]") for i, v in enumerate(masses)]
        return TreeMeasure(build_tree(doc["depth"]), values)
    grid = [
        [_as_number(v, f"masses[{i}][{j}]") for j, v in enumerate(row)]
        for i, row in enumerate(masses)
    ]
    return BiMeasure(build_bitree(*doc["depths"]), grid)


def _masses_of(mu):
    return mu.masses if isinstance(mu, TreeMeasure) else mu.cells


def _outcome(parse, doc):
    try:
        mu = parse(doc)
    except ValidationError as exc:
        return str(exc)
    arr = _masses_of(mu)
    return arr.shape, arr.tobytes()


_TREE_NODES = 15  # depth 3
_GRID = (4, 4)    # depths (2, 2)

_GOOD_ENTRIES = {
    "ints-and-floats": [0, 1, 0.5, 2**53 + 1, 2**60 + 3, 2**70, 10**300, 3, 1e300],
    "zeros-and-subnormals": [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 0.0, 1e-310],
    "numpy-floats": [np.float64(0.25), np.float64(2.0**-1074), 1, 0.5],
}
_BAD_ENTRIES = [True, False, "1.5", None, [1.0], {"a": 1}, -1, -0.5, -(2**60),
                float("nan"), float("inf"), float("-inf")]


def _tree_doc(entries):
    masses = (list(entries) * _TREE_NODES)[:_TREE_NODES]
    return {"kind": "tree", "depth": 3, "masses": masses}


def _bitree_doc(entries):
    rows, cols = _GRID
    flat = (list(entries) * rows * cols)[: rows * cols]
    return {"kind": "bitree", "depths": [2, 2],
            "masses": [flat[i * cols:(i + 1) * cols] for i in range(rows)]}


def _with_entry(doc, k, value):
    if doc["kind"] == "tree":
        doc["masses"][k] = value
    else:
        cols = len(doc["masses"][0])
        doc["masses"][k // cols][k % cols] = value
    return doc


@pytest.mark.parametrize("make", [_tree_doc, _bitree_doc])
@pytest.mark.parametrize("name", sorted(_GOOD_ENTRIES))
def test_parse_matches_per_entry_reference(make, name):
    doc = make(_GOOD_ENTRIES[name])
    got = _outcome(parse_measure_dict, doc)
    assert got == _outcome(_reference_parse, doc)
    assert not isinstance(got, str)


@pytest.mark.parametrize("make,size", [
    (_tree_doc, _TREE_NODES),
    (_bitree_doc, _GRID[0] * _GRID[1]),
])
@pytest.mark.parametrize("bad", _BAD_ENTRIES, ids=repr)
def test_parse_rejects_like_per_entry_reference(make, size, bad):
    for k in (0, size // 2, size - 1):
        doc = _with_entry(make([0.5, 2**60, 1]), k, bad)
        got = _outcome(parse_measure_dict, doc)
        assert isinstance(got, str)
        assert got == _outcome(_reference_parse, doc)


def test_parse_reports_the_first_bad_entry():
    doc = _with_entry(_with_entry(_bitree_doc([1]), 6, None), 9, "x")
    with pytest.raises(ValidationError, match=r"^masses\[1\]\[2\]: expected a number, got None$"):
        parse_measure_dict(doc)


@pytest.mark.parametrize("make,where", [
    (_tree_doc, "masses[5]"),
    (_bitree_doc, "masses[1][1]"),
])
@pytest.mark.parametrize("huge", [10**400, -(10**400), 2**1024 - 2**970],
                         ids=["1e400", "-1e400", "2^1024-2^970"])
def test_parse_rejects_integers_outside_double_range(make, where, huge):
    doc = _with_entry(make([0.5]), 5, huge)
    with pytest.raises(ValidationError) as info:
        parse_measure_dict(doc)
    assert str(info.value) == f"{where}: integer outside the double range"


def test_parse_accepts_largest_integer_that_rounds_to_a_double():
    # 2**1024 - 2**970 is the first integer that float() refuses
    largest = 2**1024 - 2**970 - 1
    mu = parse_measure_dict(_with_entry(_tree_doc([0.5]), 5, largest))
    assert mu.masses[5] == float(largest) == np.finfo(float).max


def test_integer_overflow_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "huge.json"
    masses = ["0.5"] * _TREE_NODES
    masses[7] = "1" + "0" * 400
    path.write_text('{"kind": "tree", "depth": 3, "masses": [%s]}' % ", ".join(masses))
    code, _, err = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 1
    assert "masses[7]: integer outside the double range" in err


_OVERFLOWING = {
    "tree": TreeMeasure(build_tree(2), np.full(7, 1e200)),
    "bitree": BiMeasure(build_bitree(1, 1), np.full((2, 2), 1e200)),
}


@pytest.mark.parametrize("command, kind", [
    ("tree-embed", "tree"),
    ("maximal-verify", "tree"),
    ("certify", "tree"),
    ("bitree-onebox", "bitree"),
    ("bitree-settest", "bitree"),
    ("bitree-certify", "bitree"),
    ("certify", "bitree"),
])
def test_overflowing_measure_is_an_input_error(command, kind, capsys, tmp_path):
    # finite masses whose squared box masses overflow: no report, no counterexample
    path, out = tmp_path / "huge.json", tmp_path / "report.json"
    save_measure(_OVERFLOWING[kind], path)
    with np.errstate(all="ignore"):
        code, stdout, err = _run(capsys, command, "--in", str(path), "--out", str(out))
    assert code == 1 and stdout == ""
    assert err.startswith("error: ")
    assert ("node values[0]" if kind == "tree" else "rectangle (1, 1)") in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]


def test_overflowing_norm_is_no_counterexample(capsys, tmp_path):
    # one leaf of 5e153: c_test is 2e154 and the sandwich holds
    tree = build_tree(3)
    masses = np.zeros(tree.node_count)
    masses[tree.first_leaf - 1] = 5e153
    path = tmp_path / "leaf.json"
    save_measure(TreeMeasure(tree, masses, "boundary-only"), path)
    with np.errstate(over="ignore"):
        code, out, _ = _run(capsys, "tree-embed", "--in", str(path))
    report = json.loads(out)
    assert code == 0 and report["passed"] and report["converged"]
    assert report["c_emb"] == pytest.approx(report["c_test"], rel=1e-9)


@pytest.mark.parametrize("data", [
    b'{"kind": "tree", "depth": 0, "masses": [1' + b"0" * 5000 + b"]}",
    b'{"kind": "tree\xff", "depth": 0, "masses": [1]}',
], ids=["5001-digit-integer", "bad-utf8"])
def test_parse_rejects_unreadable_json_as_invalid(data):
    with pytest.raises(ValidationError, match="not valid JSON"):
        parse_measure_file(data)


def test_load_measure_and_cli_read_bytes(capsys, tmp_path):
    # a UTF-8 byte-order mark is detected from the bytes, whatever the locale
    path = tmp_path / "bom.json"
    doc = {"kind": "tree", "depth": 1, "masses": [0, 0.5, 0.5]}
    path.write_bytes(codecs.BOM_UTF8 + json.dumps(doc).encode())
    assert np.array_equal(load_measure(path).masses, [0, 0.5, 0.5])
    code, _, _ = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 0


# The reader is orjson, with the json module for what orjson rejects. Its
# arrays must equal those of json.loads and np.array bit for bit.

_EDGE_INTEGERS = sorted({base + d for base in (2**53, 2**63, 2**64) for d in (-2, -1, 0, 1, 2)}
                        | {2**1024 - 2**970 - 1})
# decimal tokens that json.dumps never writes: "-0", long mantissas, and
# exponents from underflow to near the largest double
_TOKENS = st.one_of(
    st.sampled_from(["-0", "-0.0", "0e5", "-0E-3"]),
    st.builds("{}.{}e{}".format, st.integers(0, 10**20), st.integers(0, 10**20),
              st.integers(-345, 285)),
)
_MASS_ENTRIES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),  # subnormals too
    st.just(-0.0),
    st.sampled_from(_EDGE_INTEGERS),
    st.integers(0, 2**1023),
    _TOKENS,
)
_ZERO_ENTRIES = st.sampled_from([0, 0.0, -0.0, "-0", "-0.0"])


@st.composite
def _measure_docs(draw):
    if draw(st.booleans()):
        depth = draw(st.integers(0, 4))
        mode = draw(st.sampled_from([None, "all-nodes", "boundary-only"]))
        interior = _ZERO_ENTRIES if mode == "boundary-only" else _MASS_ENTRIES
        masses = (draw(st.lists(interior, min_size=2**depth - 1, max_size=2**depth - 1))
                  + draw(st.lists(_MASS_ENTRIES, min_size=2**depth, max_size=2**depth)))
        doc = {"kind": "tree", "depth": depth, "masses": masses}
        if mode is not None:
            doc["support_mode"] = mode
        return doc
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    row = st.lists(_MASS_ENTRIES, min_size=2**m, max_size=2**m)
    return {"kind": "bitree", "depths": [n, m],
            "masses": draw(st.lists(row, min_size=2**n, max_size=2**n))}


def _file_text(doc, indent):
    """The document as json.dumps writes it, with each token string unquoted."""
    text = json.dumps(doc, sort_keys=indent is not None, indent=indent)
    return re.sub(r'"(-?[0-9][^"]*)"', r"\1", text)


@contextlib.contextmanager
def _read_in_pieces_only(data):
    """orjson refuses the whole of ``data``, and the json module every text."""
    loads = orjson.loads

    def piece_loads(text):
        if text == data:
            raise AssertionError("orjson read the whole file")
        return loads(text)

    def refuse(*args, **kwargs):
        raise AssertionError("the json module read a file that orjson accepts")

    with mock.patch.object(orjson, "loads", piece_loads), \
            mock.patch.object(json, "loads", refuse), \
            mock.patch.object(json, "detect_encoding", refuse):
        yield


def _check_bit_for_bit(doc, indent):
    # compact json.dumps form and save_measure's indent=2 form; bytes are
    # read in pieces, a str whole
    text = _file_text(doc, indent)
    want = np.array(json.loads(text)["masses"], dtype=float)
    for data in (text, text.encode()):
        with _read_in_pieces_only(data) if isinstance(data, bytes) else contextlib.nullcontext():
            got = _masses_of(parse_measure_file(data))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(_measure_docs(), st.sampled_from([None, 2]))
def test_parse_matches_the_json_module_bit_for_bit(doc, indent):
    _check_bit_for_bit(doc, indent)


@pytest.mark.parametrize("piece_entries", [1, 3])
@settings(max_examples=150, deadline=None)
@given(doc=_measure_docs(), indent=st.sampled_from([None, 2]))
def test_parse_in_small_pieces_matches_the_json_module_bit_for_bit(piece_entries, doc,
                                                                   indent):
    # pieces of one and three entries (a bi-tree piece holds at least one
    # row) cut the drawn arrays between entries and between rows
    with mock.patch.object(measure_io, "_PIECE_ENTRIES", piece_entries):
        _check_bit_for_bit(doc, indent)


def _tree_text(masses="[0, 0.5, 0.5]", kind='"tree"'):
    return '{"kind": %s, "depth": 1, "masses": %s}' % (kind, masses)


_PARENT_MASSES = [0.0, 0.5, 0.5]
_DEEP = "[" * 100_000 + "]" * 100_000

# inputs that orjson rejects, with the outcome the json-module reader gave
# before orjson: the masses, or the error text
_REJECTED_BY_ORJSON = {
    "bom": (codecs.BOM_UTF8 + _tree_text().encode(), _PARENT_MASSES),
    "utf-16": (_tree_text().encode("utf-16"), _PARENT_MASSES),
    "utf-16-be": (_tree_text().encode("utf-16-be"), _PARENT_MASSES),
    "utf-32": (_tree_text().encode("utf-32"), _PARENT_MASSES),
    "nan": (_tree_text("[0, NaN, 0.5]").encode(), "masses[1]: non-finite value nan"),
    "infinity": (_tree_text("[0, 0.5, Infinity]").encode(),
                 "masses[2]: non-finite value inf"),
    "1e400": (_tree_text("[0, 1e400, 0.5]").encode(), "masses[1]: non-finite value inf"),
    "400-digit-integer": (_tree_text("[0, 1" + "0" * 399 + ", 0.5]").encode(),
                          "masses[1]: integer outside the double range"),
    "lone-surrogate-escape": (_tree_text(kind='"tree\\ud800"').encode(),
                              "kind: expected 'tree' or 'bitree', got 'tree\\ud800'"),
    "lone-surrogate-text": (_tree_text(kind='"tree\ud800"'),
                            "kind: expected 'tree' or 'bitree', got 'tree\\ud800'"),
    "5001-digit-integer": (
        _tree_text("[0, 1" + "0" * 5000 + ", 0.5]").encode(),
        "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit"
        if sys.version_info >= (3, 11) else  # no digit limit before 3.11
        "masses[1]: integer outside the double range",
    ),
    "trailing-comma": (_tree_text("[0, 0.5, 0.5,]").encode(),
                       "not valid JSON: Expecting value: line 1 column 53 (char 52)"),
    "deep-after-bom": (codecs.BOM_UTF8 + _tree_text(_DEEP).encode(),
                       "not valid JSON: maximum recursion depth exceeded while decoding "
                       "a JSON array from a unicode string"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED_BY_ORJSON))
def test_files_orjson_rejects_keep_the_json_module_outcome(name):
    data, want = _REJECTED_BY_ORJSON[name]
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(data)
    try:
        got = parse_measure_file(data).masses.tolist()
    except ValidationError as exc:
        got = str(exc)
    assert got == want


def test_json_module_reads_only_what_orjson_rejects(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the json module read a file that orjson accepts")

    monkeypatch.setattr(json, "loads", refuse)
    monkeypatch.setattr(json, "detect_encoding", refuse)
    path = tmp_path / "mu.json"
    save_measure(uniform_bimeasure(build_bitree(2, 1)), path)
    assert load_measure(path).cells.shape == (4, 2)


@pytest.mark.parametrize("mu", [
    random_tree_measure(1, build_tree(12), support_mode=ALL_NODES),
    random_bimeasure(2, build_bitree(5, 5)),
], ids=["tree", "bitree"])
@pytest.mark.parametrize("layout", ["compact", "saved"])
def test_whole_document_reader_runs_only_on_declined_input(mu, layout, tmp_path):
    path = tmp_path / "mu.json"
    if layout == "saved":
        save_measure(mu, path)
    else:
        path.write_text(json.dumps(measure_to_dict(mu)))
    data = path.read_bytes()
    with _read_in_pieces_only(data):
        assert _masses_of(parse_measure_file(data)).tobytes() == _masses_of(mu).tobytes()
    # str input is declined, and read whole as before
    text = data.decode()
    seen = []
    loads = orjson.loads
    with mock.patch.object(orjson, "loads", lambda t: seen.append(t) or loads(t)):
        assert _masses_of(parse_measure_file(text)).tobytes() == _masses_of(mu).tobytes()
    assert seen == [text]


@pytest.mark.parametrize("mu", [
    random_tree_measure(1, build_tree(12), support_mode=BOUNDARY_ONLY),
    random_bimeasure(2, build_bitree(5, 5)),
], ids=["tree", "bitree"])
@pytest.mark.parametrize("layout", ["compact", "saved"])
def test_plain_pieces_skip_the_entry_type_scan(mu, layout, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a piece of plain numbers went through the type scan")

    monkeypatch.setattr(measure_io, "_mass_array", refuse)
    path = tmp_path / "mu.json"
    if layout == "saved":
        save_measure(mu, path)
    else:
        path.write_text(json.dumps(measure_to_dict(mu)))
    data = path.read_bytes()
    with _read_in_pieces_only(data):
        assert _masses_of(parse_measure_file(data)).tobytes() == _masses_of(mu).tobytes()


# entries that are not plain numbers, with the message of the whole-document reader
_ODD_ENTRIES = {
    "true": "expected a number, got True",
    "null": "expected a number, got None",
    '"0.5"': "expected a number, got '0.5'",
    "{}": "expected a number, got {}",
    "[1]": "expected a number, got [1]",
    "1" + "0" * 399: "integer outside the double range",
}


@pytest.mark.parametrize("piece_entries", [None, 1, 3])
@pytest.mark.parametrize("entry", sorted(_ODD_ENTRIES))
def test_entries_that_are_not_plain_numbers_keep_their_message(entry, piece_entries,
                                                               monkeypatch):
    if piece_entries is not None:
        monkeypatch.setattr(measure_io, "_PIECE_ENTRIES", piece_entries)
    tree = '{"kind": "tree", "depth": 2, "masses": [0, 0.5, 0.5, 0.25, 0.25, %s, 0.25]}'
    bitree = ('{"kind": "bitree", "depths": [1, 2], '
              '"masses": [[0.25, 0.5, 0, 1], [1e-3, 2, %s, 3]]}')
    for text, where in ((tree, "masses[5]"), (bitree, "masses[1][2]")):
        # the piece reader declines the file, and the whole-document reader names the entry
        assert measure_io._read_in_pieces((text % entry).encode()) is None
        with pytest.raises(ValidationError) as info:
            parse_measure_file((text % entry).encode())
        assert str(info.value) == f"{where}: {_ODD_ENTRIES[entry]}"


# files cut and spliced around the masses array, with the outcome of the
# whole-document reader: the masses, or the error text
_T = '{"kind": "tree", "depth": 2, %s}'
_B = '{"kind": "bitree", "depths": [1, 1], %s}'
_M7 = '"masses": [0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25]'
_M4 = '"masses": [[0.25, 0.25], [0.25, 0.25]]'
_TREE_MASSES = [0.0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25]


def _spaced(doc):
    text = json.dumps(doc)
    for separator in ",:[]{}":
        text = text.replace(separator, f" \n\t\r {separator} \n\t\r ")
    return text


_SPLICED = {
    "masses-before": (_T % ('"masses": [1, 2], ' + _M7), _TREE_MASSES),
    "masses-after": (_T % (_M7 + ', "masses": null'), "masses: expected a list"),
    "escaped-before": (_T % ('"\\u006dasses": [1, 2], ' + _M7), _TREE_MASSES),
    "escaped-after": (_T % (_M7 + ', "\\u006dasses": [1, 1, 1, 1, 1, 1, 1]'), [1.0] * 7),
    "escaped-null-after": (_T % (_M7 + ', "\\u006dasses": null'), "masses: expected a list"),
    "nested": (_T % ('"support_mode": {"masses": [1]}, ' + _M7),
               "support_mode: expected one of ('all-nodes', 'boundary-only'), "
               "got {'masses': [1]}"),
    "nested-only": ('{"kind": "tree", "depth": 2, "version": {%s}}' % _M7,
                    "unsupported version {'masses': [0, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25]}"),
    "trailing-comma": (_T % _M7.replace("]", ",]"),
                       "not valid JSON: Expecting value: line 1 column 77 (char 76)"),
    "missing-comma": (_T % _M7.replace("0.25, 0.25]", "0.25 0.25]"),
                      "not valid JSON: Expecting ',' delimiter: line 1 column 71 (char 70)"),
    "row-trailing-comma": (_B % _M4.replace("]]", "],]"),
                           "not valid JSON: Expecting value: line 1 column 76 (char 75)"),
    "row-missing-comma": (_B % _M4.replace("], [", "] ["),
                          "not valid JSON: Expecting ',' delimiter: line 1 column 62 (char 61)"),
    "short-last-row": (_B % _M4.replace(", 0.25]]", "]]"),
                       "masses[1]: expected a row of 2 entries"),
    "true-last": (_T % _M7.replace("0.25]", "true]"), "masses[6]: expected a number, got True"),
    "null-last": (_B % _M4.replace("0.25]]", "null]]"),
                  "masses[1][1]: expected a number, got None"),
    "string-last": (_T % _M7.replace("0.25]", '"1"]'), "masses[6]: expected a number, got '1'"),
    "nan-late": (_T % _M7.replace("0.25, 0.25]", "NaN, 0.25]"),
                 "masses[5]: non-finite value nan"),
    "nan-late-row": (_B % _M4.replace("0.25]]", "NaN]]"), "cells[1][1]: non-finite entry nan"),
    "spaced-tree": (_spaced({"kind": "tree", "depth": 2, "masses": _TREE_MASSES[:-1] + [1e300]}),
                    _TREE_MASSES[:-1] + [1e300]),
    "spaced-bitree": (_spaced({"kind": "bitree", "depths": [1, 1],
                               "masses": [[0.25, 0.5], [1e-300, 3]]}),
                      [[0.25, 0.5], [1e-300, 3.0]]),
}


@pytest.mark.parametrize("piece_entries", [None, 1, 3])
@pytest.mark.parametrize("name", sorted(_SPLICED))
def test_spliced_files_keep_the_whole_document_outcome(name, piece_entries, monkeypatch):
    if piece_entries is not None:
        monkeypatch.setattr(measure_io, "_PIECE_ENTRIES", piece_entries)
    text, want = _SPLICED[name]
    try:
        got = _masses_of(parse_measure_file(text.encode())).tolist()
    except ValidationError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("field,value,message,json_message", [
    ("depth", 2**64, "depth: expected an integer, got 1.8446744073709552e+19",
     "depth 18446744073709551616 needs 2^18446744073709551617 - 1 nodes, limit is 2097151 "
     "(set CARLESON_MAX_NODES to raise it)"),
    ("depth", -(2**63) - 1, "depth: expected an integer, got -9.223372036854776e+18",
     "depth: must be nonnegative, got -9223372036854775809"),
    ("version", 2**64, "unsupported version 1.8446744073709552e+19",
     "unsupported version 18446744073709551616"),
    ("depths", [2**64, 0], "depths[0]: expected an integer, got 1.8446744073709552e+19",
     "depths (18446744073709551616, 0) give at least 2^18446744073709551617 - 1 rectangles, "
     "over the limit 4194304 (set CARLESON_MAX_NODES to raise it)"),
])
def test_header_integers_outside_64_bits_read_as_floats(field, value, message, json_message):
    # orjson reads integers outside [-2^63, 2^64) as floats; the json module
    # reads them as integers, and still does for a file that orjson rejects
    doc = ({"kind": "bitree", "masses": [[1]]} if field == "depths"
           else {"kind": "tree", "depth": 0, "masses": [1]})
    doc[field] = value
    data = json.dumps(doc).encode()
    for data, want in [(data, message), (codecs.BOM_UTF8 + data, json_message)]:
        with pytest.raises(CarlesonError) as info:
            parse_measure_file(data)
        assert str(info.value) == want


@pytest.mark.parametrize("argv,shape_error", [
    (("tree-test", "--depth", str(2**64)),
     "depth 18446744073709551616 needs 2^18446744073709551617 - 1 nodes, limit is 2097151"),
    (("bitree-onebox", "--depths", f"{2**64},0"),
     "depths (18446744073709551616, 0) give at least 2^18446744073709551617 - 1 rectangles, "
     "over the limit 4194304"),
])
def test_huge_depth_is_a_size_error(capsys, argv, shape_error):
    # building the count 2^(2^64 + 1) - 1 first raised MemoryError
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {shape_error} (set CARLESON_MAX_NODES to raise it)\n"


@pytest.mark.parametrize("depth", [0, 1])
def test_deep_nesting_is_an_input_error(capsys, tmp_path, depth):
    # a list 100,000 deep: the json module's RecursionError, or the repr of
    # the value in the schema's message, was a traceback
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "tree", "depth": %d, "masses": %s}' % (depth, _DEEP))
    code, out, err = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 1 and out == ""
    try:
        orjson.loads(path.read_bytes())
    except orjson.JSONDecodeError:  # an orjson that limits nesting
        want = ("not valid JSON: maximum recursion depth exceeded while decoding "
                "a JSON array from a unicode string")
    else:
        want = ("a value is nested too deep to show" if depth == 0
                else "masses: expected 3 entries for depth 1, got 1")
    assert err == f"error: {want}\n"


@pytest.mark.parametrize("mu", [
    TreeMeasure(build_tree(3), np.r_[0.1, 1 / 3, 2.0**-1074, 1e300,
                                     np.random.default_rng(1).exponential(size=11)]),
    BiMeasure(build_bitree(2, 1), np.random.default_rng(2).exponential(size=(4, 2)) / 7),
])
def test_saved_bytes_match_per_entry_formatting(tmp_path, mu):
    path = tmp_path / "mu.json"
    save_measure(mu, path)
    doc = measure_to_dict(mu)
    if isinstance(mu, TreeMeasure):
        doc["masses"] = [float(v) for v in mu.masses]
    else:
        doc["masses"] = [[float(v) for v in row] for row in mu.cells]
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# exit code 1: usage and input problems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    (),
    ("tree-test",),                                  # missing --depth
    ("bellman-sample", "--mode", "downhill"),        # not a mode name
    ("tree-embed",),                                 # neither --in nor --depth
    ("tree-embed", "--depth", "3", "--trials", "-1"),
    ("tree-embed", "--depth", "3", "--tol", "0"),
    ("gap-probe", "--depths", "2"),                  # not a pair
    ("gap-probe", "--depths", "2,2", "--optimizer", "sgd"),
    ("bitree-onebox",),
    ("no-such-command",),
])
def test_usage_errors(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 1
    assert err


@pytest.mark.parametrize("command", ["bitree-onebox", "bitree-settest",
                                     "bitree-certify", "gap-probe"])
@pytest.mark.parametrize("depths", [("--depths", "-1,2"), ("--depths=-1,2",)])
def test_negative_depths_reach_the_depths_check(capsys, command, depths):
    # a separated value starting with "-<digit>" is the flag's value, not a flag
    code, out, err = _run(capsys, command, *depths)
    assert code == 1
    assert out == ""
    assert err == "error: --depths must be nonnegative, got '-1,2'\n"


@pytest.mark.parametrize("argv", [
    ("tree-embed", "--depth", "3", "--tol", "inf"),
    ("bellman-sample", "--mode", "martingale", "--trials", "5", "--tol", "1e400"),
])
def test_non_finite_tol_is_a_usage_error(capsys, argv):
    # an infinite tolerance would pass every slack check and put -Infinity,
    # which is not JSON, into the bellman-sample report
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: --tol must be finite, got inf\n"


def test_missing_measure_file(capsys):
    code, _, err = _run(capsys, "tree-embed", "--in", "/no/such/file.json")
    assert code == 1
    assert "cannot read" in err


def test_invalid_measure_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "tree", "depth": 1, "masses": [0, -1, 0]}')
    code, _, err = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 1
    assert "masses[1]" in err


def test_wrong_measure_kind_for_flag(capsys, tmp_path):
    path = tmp_path / "bi.json"
    save_measure(uniform_bimeasure(build_bitree(1, 1)), path)
    code, _, err = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 1
    assert "expects a tree measure" in err


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "tree-embed" in out


# ---------------------------------------------------------------------------
# exit code 0: reports
# ---------------------------------------------------------------------------


def test_tree_embed_report(capsys, tmp_path):
    path = tmp_path / "uniform.json"
    save_measure(uniform_boundary_measure(build_tree(3)), path)
    code, out, _ = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["c_test"] == pytest.approx(1.875, abs=1e-12)
    assert report["c_emb"] == pytest.approx(1.875, rel=1e-9)


def test_tree_test_deterministic_json(capsys):
    argv = ("tree-test", "--depth", "3", "--trials", "4", "--seed", "9")
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] and len(report["rows"]) == 4
    assert {r["support_mode"] for r in report["rows"]} == {
        "boundary-only", "all-nodes"
    }


def test_tree_test_csv(capsys):
    argv = ("tree-test", "--depth", "2", "--trials", "3", "--format", "csv")
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,support_mode,c_test,c_emb,ratio"
    assert len(lines) == 4


def test_report_goes_to_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "bellman-sample", "--mode", "martingale",
                        "--trials", "50", "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["passed"] is True
    assert report["rejected_cauchy_schwarz"] == 0
    assert report["min_slack"] >= -1e-9


def test_bellman_sample_all_modes(capsys):
    for mode in ("martingale", "tree-split", "compensation"):
        code, out, _ = _run(capsys, "bellman-sample", "--mode", mode,
                            "--trials", "200", "--seed", "4")
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_bellman_sample_compensation_takes_tol(capsys):
    code, out, _ = _run(capsys, "bellman-sample", "--mode", "compensation",
                        "--trials", "200", "--seed", "4", "--tol", "1e-6")
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 1e-6
    assert report["passed"] is (report["max_value"] <= 1e-6)


@pytest.mark.parametrize("argv", [("tree-test", "--trials", "30"), ("tree-embed",)])
def test_sandwich_commands_take_tol(capsys, tmp_path, argv):
    # at depth 0 both constants are the one mass up to a rounding, so the
    # default slack passes where a slack of 1e-300 fails the lower end
    base = [*argv, "--depth", "0", "--seed", "0", "--out", str(tmp_path / "r.json")]
    assert _run(capsys, *base)[0] == 0
    assert _run(capsys, *base, "--tol", "1e-300")[0] == 2
    payload = json.loads((tmp_path / "r.json.counterexample.json").read_text())
    assert payload["lower_ok"] is False
    assert payload["embedding_constant"] < payload["test_constant"]


def test_maximal_verify_random(capsys):
    code, out, _ = _run(capsys, "maximal-verify", "--depth", "4",
                        "--trials", "3", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["rows"]) == 3
    assert all(r["invariants_ok"] for r in report["rows"])


def test_maximal_verify_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    save_measure(uniform_boundary_measure(build_tree(3)), path)
    code, out, _ = _run(capsys, "maximal-verify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_bitree_commands(capsys, tmp_path):
    code, out, _ = _run(capsys, "bitree-onebox", "--depths", "1,1",
                        "--trials", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "trial,constant,argmax_row,argmax_col"

    code, out, _ = _run(capsys, "bitree-settest", "--depths", "1,1", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["constant"] <= report["embedding_constant"] + 1e-9

    code, out, _ = _run(capsys, "bitree-certify", "--depths", "2,2",
                        "--trials", "2", "--seed", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True

    path = tmp_path / "bi.json"
    save_measure(uniform_bimeasure(build_bitree(2, 1)), path)
    code, out, _ = _run(capsys, "certify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "bitree" and report["passed"] is True


def test_bitree_settest_tolerance_is_relative(capsys, tmp_path):
    # the set test and the embedding constant of one heavy cell are its
    # mass, here one ulp apart, which is far above an absolute --tol
    path = tmp_path / "heavy.json"
    save_measure(BiMeasure(build_bitree(0, 0), [[1024646501.5313329]]), path)
    code, out, _ = _run(capsys, "bitree-settest", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["constant"] - report["embedding_constant"] > 1e-9
    assert report["passed"] is True


def test_certify_tree_file_rescales(capsys, tmp_path):
    path = tmp_path / "t.json"
    save_measure(uniform_boundary_measure(build_tree(2)), path)  # test 1.75
    code, out, _ = _run(capsys, "certify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "tree"
    assert report["test_constant"] == pytest.approx(1.75, abs=1e-12)
    assert report["passed"] is True


def test_gap_probe_reports(capsys):
    code, out, _ = _run(capsys, "gap-probe", "--depths", "1,1", "--trials", "0")
    assert code == 0
    report = json.loads(out)
    assert report["best_gap"] is None and report["trajectory"] == []

    argv = ("gap-probe", "--depths", "2,2", "--trials", "15",
            "--seed", "8", "--format", "csv")
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "step,gap,one_box,embedding"


# ---------------------------------------------------------------------------
# report encoding
# ---------------------------------------------------------------------------


def _walk_pyify(value):
    """Reference encoder: converts every value to a Python one, one by one."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_walk_pyify(v) for v in value]
    if isinstance(value, dict):
        return {k: _walk_pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walk_pyify(v) for v in value]
    return value


def _numpy_payload():
    rng = np.random.default_rng(5)
    return {
        "float": np.float64(1 / 3),
        "int": np.int64(-7),
        "flag": np.bool_(True),
        "grid": rng.normal(size=(3, 4)),
        "empty": np.zeros((0, 2)),
        "mixed": [np.float32(0.1), (np.float64(np.nan), np.float64(-np.inf)),
                  {"ints": np.arange(3), "none": None}],
        "zeros": [-0.0, np.float64(-0.0), 0.0],
        "plain": (1, 2.5, "text", True, False, np.False_),
        "small": [np.uint8(3), np.float16(0.1), rng.normal(size=3).astype(np.float32)],
        "cells": rng.exponential(size=(4, 4)).tolist(),
    }


def test_json_reports_match_per_value_walk():
    payload = _numpy_payload()
    want = json.dumps(_walk_pyify(payload), sort_keys=True, indent=2)
    assert cli._dumps(payload) == want


_FLOATS = st.floats()  # NaN, the infinities and -0.0 included
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, st.text(max_size=4),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-9, 9).map(np.int64),
    st.booleans().map(np.bool_), st.lists(_FLOATS), st.lists(_FLOATS.map(np.float64)),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_, np.float32]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
)
# keys of one dict must sort together: strings, numbers (bools among them) or None
_KEYS = st.one_of(st.just(st.text(max_size=4)), st.just(st.none()),
                  st.just(st.one_of(st.integers(), _FLOATS, st.booleans())))
_PAYLOADS = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    _KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=4)),
), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_report_writer_matches_json(payload):
    want = json.dumps(payload, sort_keys=True, indent=2, default=cli._plain)
    assert cli._dumps(payload) == want


def test_report_writer_rejects_what_json_rejects():
    for payload in ({"a": object()}, {np.int64(1): 2}, {(1, 2): 3}, [1, {None: set()}]):
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True, indent=2, default=cli._plain)
        with pytest.raises(TypeError):
            cli._dumps(payload)


def test_csv_reports_match_per_value_walk(capsys):
    rows = [(0, np.float64(0.1), "x", np.int64(3), np.float32(0.2), 2.5, np.bool_(False)),
            (1, np.float64(np.nan), None, -0.0, np.float64(-0.0), 1e300, True)]
    header = ("a", "b", "c", "d", "e", "f", "g")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(_walk_pyify(rows))
    cfg = cli.RunConfig(seed=0, trials=0, tol=1e-9, fmt="csv", out=None)
    cli._emit({}, cfg, csv_rows=iter(rows), csv_header=header)
    assert capsys.readouterr().out == buffer.getvalue()


# ---------------------------------------------------------------------------
# exit code 2: a checked inequality fails, counterexample on disk
# ---------------------------------------------------------------------------


def _failing_pair(mu):
    report = EmbeddingReport(
        test_constant=1.0,
        embedding_constant=9.0,  # pretend it escaped the sandwich
        argmax_node=1,
        iterations=3,
        converged=True,
    )
    return PairCheckResult(report, mu, lower_ok=True, upper_ok=False)


def test_sandwich_failure_writes_counterexample(capsys, tmp_path, monkeypatch):
    from dyadic_carleson import carleson

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(carleson, "embedding_pair_check",
                        lambda mu, rel_tol=1e-9: _failing_pair(mu))
    path = tmp_path / "m.json"
    save_measure(uniform_boundary_measure(build_tree(2)), path)
    code, out, err = _run(capsys, "tree-embed", "--in", str(path))
    assert code == 2
    assert json.loads(out)["passed"] is False
    artifact = tmp_path / "tree-embed.counterexample.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["upper_ok"] is False
    assert payload["measure"]["kind"] == "tree"
    assert str(artifact.name) in err


def test_counterexample_path_follows_out(capsys, tmp_path, monkeypatch):
    from dyadic_carleson import carleson

    monkeypatch.setattr(carleson, "embedding_pair_check",
                        lambda mu, rel_tol=1e-9: _failing_pair(mu))
    measure = tmp_path / "m.json"
    save_measure(uniform_boundary_measure(build_tree(2)), measure)
    target = tmp_path / "report.json"
    code, _, _ = _run(capsys, "tree-embed", "--in", str(measure),
                      "--out", str(target))
    assert code == 2
    assert (tmp_path / "report.json.counterexample.json").exists()


def test_bellman_failure_writes_witness(capsys, tmp_path, monkeypatch):
    from dyadic_carleson import bellman

    class FakeBatch:
        def __len__(self):
            return 1

        def slacks(self):
            return np.array([-1.0])

        def witness(self, i):
            p = bellman.BellmanPoint(1, 0, 0, 1)
            return bellman.MartingaleWitness(p, p, 0.0)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bellman, "sample_batch",
                        lambda seed, count, mode: (FakeBatch(),
                                                   bellman.SamplerStats(1, 0, 0)))
    code, out, err = _run(capsys, "bellman-sample", "--mode", "martingale",
                          "--trials", "1")
    assert code == 2
    assert json.loads(out)["passed"] is False
    payload = json.loads((tmp_path / "bellman-sample.counterexample.json").read_text())
    assert payload["left"] == [1, 0, 0, 1]
    assert "counterexample" in err


@pytest.mark.parametrize("target", ["missing/dir/r.json", "."],
                         ids=["missing-directory", "a-directory"])
def test_unwritable_out_is_an_input_error(capsys, tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, "tree-embed", "--depth", "2", "--out", target)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1  # one line, no traceback


@pytest.mark.parametrize("out", [None, "report.json"])
def test_unwritable_counterexample_is_an_input_error(capsys, tmp_path, monkeypatch, out):
    from dyadic_carleson import carleson

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(carleson, "embedding_pair_check",
                        lambda mu, rel_tol=1e-9: _failing_pair(mu))
    artifact = (out or "tree-embed") + ".counterexample.json"
    (tmp_path / artifact).mkdir()
    argv = ["tree-embed", "--depth", "2"] + (["--out", out] if out else [])
    code, stdout, err = _run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: cannot write {artifact}: ")
    report = stdout if out is None else (tmp_path / out).read_text()
    assert json.loads(report)["passed"] is False


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


PARSER_SEQUENCE = [
    ["tree-embed", "--depth", "3", "--seed", "2", "--tol", "1e-6", "--format", "csv",
     "--out", "{out}"],
    ["tree-test", "--depth", "2", "--trials", "3"],
    ["bitree-onebox", "--depths", "1,1", "--trials", "2", "--format", "csv"],
    ["tree-test", "--depth"],
    ["tree-embed", "--tol", "1e-6"],
    ["--help"],
    ["bitree-settest", "--help"],
    ["tree-embed", "--depth", "3", "--seed", "2", "--out", "{out}"],
    ["bitree-onebox", "--depths", "1,1", "--trials", "2"],
    ["certify"],
]


def _outcomes(capsys, tmp_path, fresh):
    out = tmp_path / "report.txt"
    results = []
    for argv in PARSER_SEQUENCE:
        if fresh:
            cli._shared_parser.cache_clear()
        out.unlink(missing_ok=True)
        code, stdout, stderr = _run(capsys, *(a.format(out=out) for a in argv))
        written = out.read_text() if out.exists() else None
        results.append((code, stdout, stderr, written))
    return results


def test_shared_parser_matches_a_fresh_parser_per_call(capsys, tmp_path):
    cli._shared_parser.cache_clear()
    shared = _outcomes(capsys, tmp_path, fresh=False)
    fresh = _outcomes(capsys, tmp_path, fresh=True)
    assert [r[0] for r in shared] == [0, 0, 0, 1, 1, 0, 0, 0, 0, 1]
    assert shared[0][3] is not None and shared[7][3] is not None
    assert shared[2][1].startswith("trial,constant,")
    assert shared[8][1].startswith("{")
    assert shared[5][1].startswith("usage: dyadic-carleson")
    assert shared == fresh
