"""Command-line behavior: exit codes, report formats, measure files."""

import codecs
import csv
import io
import json

import numpy as np
import pytest

from dyadic_carleson import (
    BiMeasure,
    TreeMeasure,
    ValidationError,
    build_bitree,
    build_tree,
    load_measure,
    measure_to_dict,
    parse_measure_file,
    save_measure,
    uniform_bimeasure,
    uniform_boundary_measure,
)
from dyadic_carleson import cli
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


def _outcome(parse, doc):
    try:
        mu = parse(doc)
    except ValidationError as exc:
        return str(exc)
    arr = mu.masses if isinstance(mu, TreeMeasure) else mu.cells
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
