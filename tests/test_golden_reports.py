"""Golden CLI reports: every subcommand, JSON and CSV, held as sha256 hashes.

``golden_reports.json`` holds two measure files (a depth-3 tree and a
(2,2) bi-tree, written out in full so that they do not depend on the
random generator) and the hash of each report below.  A change that
keeps the CLI byte-identical leaves every hash in place.  Float results
can differ in the last digits between numpy releases, so the test skips
on a numpy major.minor other than the recorded one.

Run ``PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]`` to
record hashes.  It keeps the measure files, adds the hash of every case
that has none yet, and rewrites the hash of each entry named on the
command line: a report key such as ``"tree-embed --in {tree} --format
json"``, or a case, which names both of its formats.  Any other entry
whose report changed keeps its recorded hash; the script lists it and
exits 1, so an unintended change of the reports cannot slip in.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dyadic_carleson.cli import build_parser, run_command

GOLDEN = Path(__file__).with_name("golden_reports.json")

# every subcommand at small sizes and fixed seeds; {tree} and {bitree}
# stand for the measure files held in the golden file
CASES = [
    "tree-test --depth 4 --trials 6 --seed 3",
    "tree-test --depth 3 --trials 3 --seed 4 --support all-nodes --tol 1e-6",
    "tree-test --depth 6 --trials 400 --seed 12",
    "tree-test --depth 10 --trials 150 --seed 15",
    "tree-embed --depth 5 --seed 4",
    "tree-embed --in {tree}",
    "bellman-sample --mode martingale --trials 2000 --seed 5",
    "bellman-sample --mode tree-split --trials 2000 --seed 5",
    "bellman-sample --mode compensation --trials 2000 --seed 5",
    "maximal-verify --depth 5 --trials 4 --seed 6",
    "maximal-verify --in {tree} --seed 7",
    "bitree-onebox --depths 2,3 --trials 5 --seed 8",
    "bitree-onebox --in {bitree}",
    "bitree-onebox --depths 3,3 --trials 1000 --seed 14",
    "bitree-settest --depths 2,2 --seed 9",
    "bitree-settest --depths 0,4 --seed 9",
    "bitree-settest --in {bitree}",
    "bitree-settest --depths 1,2 --seed 9 --strategy k-rect-unions --k 1",
    "bitree-settest --depths 2,2 --seed 9 --strategy random-downsets --trials 50",
    "bitree-certify --depths 2,2 --trials 3 --seed 10",
    "bitree-certify --in {bitree} --seed 10",
    "gap-probe --depths 2,2 --trials 20 --seed 11 --optimizer random",
    "gap-probe --depths 2,1 --trials 20 --seed 11",
    "gap-probe --depths 4,4 --trials 300 --seed 13 --optimizer random",
    "gap-probe --depths 6,6 --trials 70 --seed 16 --optimizer random",
    "certify --in {tree}",
    "certify --in {bitree}",
    "bitree-certify --depths 4,4 --trials 600 --seed 17",
    "bitree-certify --depths 2,3 --trials 5 --seed 18",
    "maximal-verify --depth 8 --trials 300 --seed 19",
    "maximal-verify --depth 3 --trials 40 --seed 20",
]
FORMATS = ("json", "csv")


def _write_inputs(inputs: dict, directory: Path) -> dict:
    paths = {}
    for name, doc in inputs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def report_digest(case: str, fmt: str, paths: dict, directory: Path) -> str:
    """sha256 of the report file one CLI call writes; it must exit 0."""
    out = directory / "report.out"
    out.unlink(missing_ok=True)
    argv = case.format(**paths).split() + ["--format", fmt, "--out", str(out)]
    code = run_command(argv)
    assert code == 0, f"{case} --format {fmt} exited {code}"
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _numpy_minor() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    golden = _golden()
    assert sorted(golden["reports"]) == sorted(
        f"{case} --format {fmt}" for case in CASES for fmt in FORMATS
    )
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    assert {case.split()[0] for case in CASES} == set(commands)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden_hash(case, fmt, tmp_path, capsys):
    golden = _golden()
    if golden["numpy"] != _numpy_minor():
        pytest.skip(
            f"golden hashes were made with numpy {golden['numpy']}, "
            f"this is numpy {_numpy_minor()}"
        )
    paths = _write_inputs(golden["inputs"], tmp_path)
    digest = report_digest(case, fmt, paths, tmp_path)
    capsys.readouterr()
    assert digest == golden["reports"][f"{case} --format {fmt}"]


def _record(names: list[str]) -> int:
    """Add missing hashes and rewrite the named ones; list any other change."""
    golden = _golden()
    keys = [f"{case} --format {fmt}" for case in CASES for fmt in FORMATS]
    unknown = [n for n in names if n not in CASES and n not in keys]
    if unknown:
        print("not a case or report key: " + "; ".join(unknown), file=sys.stderr)
        return 1
    named = {k for k in keys if k in names or k.rsplit(" --format ", 1)[0] in names}
    old = golden["reports"]
    reports, changed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        paths = _write_inputs(golden["inputs"], directory)
        for key in keys:
            case, fmt = key.rsplit(" --format ", 1)
            digest = report_digest(case, fmt, paths, directory)
            if key in old and key not in named and digest != old[key]:
                changed.append(key)
                digest = old[key]
            reports[key] = digest
    # a hash kept from another numpy stays labelled with that numpy
    numpy = golden["numpy"] if changed else _numpy_minor()
    GOLDEN.write_text(json.dumps(
        {"numpy": numpy, "inputs": golden["inputs"], "reports": reports},
        indent=1, sort_keys=True) + "\n")
    for key in changed:
        print(f"changed, hash kept: {key}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(_record(sys.argv[1:]))
