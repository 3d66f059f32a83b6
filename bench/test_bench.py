"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_traced_and_untraced(workload):
    common = ["--workload", workload, "--seed", "5", "--seconds", "1", "--tiny"]
    plain = _run(*common, "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    traced = _run(*common, "--trace", "1")
    assert traced.returncode == 0, traced.stderr

    for done, section in ((plain, "end_to_end"), (traced, "per_layer")):
        line = _last_json(done.stdout)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
        for metric in SPEC[section]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert f"  {metric['name']} " in done.stdout

    out = ROOT / ".bench_out"
    plain_result = json.loads((out / f"{workload}-seed5-trace0-tiny.json").read_text())
    traced_result = json.loads((out / f"{workload}-seed5-trace1-tiny.json").read_text())
    digests = plain_result["report_digests"]["untraced"]
    assert None not in digests
    assert traced_result["report_digests"]["untraced"] == digests
    assert traced_result["report_digests"]["traced"] == digests
    for key in ("python", "numpy", "cpu_count", "cpu_model", "git_commit", "seed", "jobs"):
        assert key in plain_result["provenance"]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "small-many", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_patches_every_binding_and_restores():
    from dyadic_carleson import carleson, maximal, tree

    original = tree.subtree_sums
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tree.subtree_sums is not original
        assert carleson.subtree_sums is tree.subtree_sums
        assert maximal.subtree_sums is tree.subtree_sums
        mu = tree.uniform_boundary_measure(tree.build_tree(3))
        carleson.carleson_ratios(mu)
    finally:
        tracer.remove()
    assert tree.subtree_sums is original and carleson.subtree_sums is original
    names = [s.name for s in tracer.spans]
    assert names == ["carleson.carleson_ratios", "tree.subtree_sums", "tree.subtree_sums"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    own = tracer.self_times()
    root = tracer.spans[0]
    assert own[0] == pytest.approx(root.end - root.start - own[1] - own[2])


def test_tracer_reports_missing_functions(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "tree", {"no_such_pass": None})
    tracer = spans.Tracer()
    tracer.install()
    tracer.remove()
    assert "tree.no_such_pass" in tracer.missing
