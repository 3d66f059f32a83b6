"""Pinned CLI outcomes beyond the exit-0 reports of the golden hashes.

Each case runs one ``run_command`` call in an empty working directory
that holds only the two measure files of ``golden_reports.json`` (as
``tree.json`` and ``bitree.json``), and records its exit code, its stderr
text and the sha256 of its stdout and of every file it wrote.  The cases
cover ``--help`` of every subcommand, the usage errors, and every exit-2
path; the failures are forced by wrapping a library call so that its real
result is spoiled from a given call on, or from a given trial on for a
call that solves a batch of trials.

Help and error texts depend on argparse, so the cases skip on a Python
major.minor other than the recorded one; the exit-2 cases print floats
and skip on another numpy major.minor too.

To regenerate the outcomes after an intended change of the CLI, run
``PYTHONPATH=src python tests/test_cli_outcomes.py``.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dyadic_carleson import bellman, bitree, carleson, maximal
from dyadic_carleson.cli import build_parser, run_command

HERE = Path(__file__).parent
PINNED = HERE / "cli_outcomes.json"
INPUTS = json.loads((HERE / "golden_reports.json").read_text())["inputs"]

SPOILED_INDEX = 7


class _SpoiledBatch:
    """A real sampler batch whose checked values fail at one index."""

    def __init__(self, batch):
        self.batch = batch

    def __len__(self):
        return len(self.batch)

    def witness(self, i):
        return self.batch.witness(i)

    def slacks(self):
        out = self.batch.slacks().copy()
        out[SPOILED_INDEX] = -1.0
        return out

    def values(self):
        out = self.batch.values().copy()
        out[SPOILED_INDEX] = 1.0
        return out


def _spoil_pair(result):
    return dataclasses.replace(result, upper_ok=False)


# patch name -> targets (module, function, spoil one real result, batched);
# a batched function yields one result per trial and is spoiled from the
# given trial on, counted over all its calls; any other function is spoiled
# from the given call on.  tree-embed checks its one measure with
# embedding_pair_check, tree-test its trials with embedding_pair_checks.
SPOILERS = {
    "pair": [(carleson, "embedding_pair_check", _spoil_pair, False),
             (carleson, "embedding_pair_checks", _spoil_pair, True)],
    "maximal": [(maximal, "maximal_theorem_check",
                 lambda r: dataclasses.replace(r, passed=False), False)],
    "bitree-cert": [(bitree, "bitree_bellman_certify",
                     lambda r: dataclasses.replace(r, global_ok=False), False)],
    "tree-cert": [(bellman, "certify_tree_embedding",
                   lambda r: dataclasses.replace(r, ok=False), False)],
    "embedding": [(bitree, "bi_embedding_constant",
                   lambda r: dataclasses.replace(r, value=-1.0), False)],
    "sampler": [(bellman, "sample_batch",
                 lambda r: (_SpoiledBatch(r[0]), r[1]), False)],
}

COMMANDS = ("tree-test", "tree-embed", "bellman-sample", "maximal-verify",
            "bitree-onebox", "bitree-settest", "bitree-certify", "gap-probe",
            "certify")

HELP = ["--help"] + [f"{command} --help" for command in COMMANDS]

USAGE = [
    "",
    "no-such-command",
    "tree-test",
    "bellman-sample",
    "gap-probe",
    "certify",
    "tree-embed",
    "maximal-verify",
    "bitree-onebox",
    "bitree-settest",
    "bitree-certify",
    "tree-embed --in bitree.json",
    "maximal-verify --in bitree.json",
    "bitree-onebox --in tree.json",
    "bitree-settest --in tree.json",
    "bitree-certify --in tree.json",
    "bitree-onebox --depths 2",
    "bitree-settest --depths a,b",
    "bitree-certify --depths=-1,2",
    "gap-probe --depths 1,2,3",
    "tree-test --depth 2 --trials -1",
    "bellman-sample --mode martingale --trials -1",
    "tree-embed --depth 2 --tol 0",
    "maximal-verify --depth 2 --tol -1",
    "tree-embed --depth 2 --format xml",
    "bellman-sample --mode downhill",
    "tree-embed --in missing.json",
    "certify --in missing.json",
    "bitree-onebox --in .",
    "tree-test --depth 30 --trials 0",
    "bitree-onebox --depths 20,20 --trials 0",
]

# (argv, patch name, index of the first spoiled call)
FAILURES = [
    ("tree-test --depth 2 --trials 3 --seed 1", "pair", 1),
    ("tree-test --depth 2 --trials 3 --seed 1 --format csv --out t.csv", "pair", 1),
    ("tree-embed --in tree.json", "pair", 0),
    ("tree-embed --depth 3 --seed 2 --out r.json", "pair", 0),
    ("maximal-verify --depth 3 --trials 3 --seed 2", "maximal", 1),
    ("maximal-verify --in tree.json --format csv", "maximal", 0),
    ("bitree-certify --depths 1,1 --trials 3 --seed 3", "bitree-cert", 1),
    ("bitree-certify --in bitree.json --out c.json", "bitree-cert", 0),
    ("certify --in bitree.json", "bitree-cert", 0),
    ("certify --in tree.json --format csv", "tree-cert", 0),
    ("bitree-settest --depths 1,1 --seed 3", "embedding", 0),
    ("bitree-settest --in bitree.json --out s.json", "embedding", 0),
    ("bellman-sample --mode martingale --trials 50 --seed 4", "sampler", 0),
    ("bellman-sample --mode tree-split --trials 50 --seed 4", "sampler", 0),
    ("bellman-sample --mode compensation --trials 50 --seed 4 --out b.json",
     "sampler", 0),
]

CASES = [(argv, None, 0) for argv in HELP + USAGE] + FAILURES


def _case_id(case) -> str:
    argv, patch, first = case
    return argv if patch is None else f"{argv} [{patch}@{first}]"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spoiled(real, spoil, batched, first):
    """``real`` with its results spoiled from call (or trial) ``first`` on."""
    calls = itertools.count()

    def spoiled(*args, **kwargs):
        result = real(*args, **kwargs)
        if batched:
            return (spoil(r) if next(calls) >= first else r for r in result)
        return spoil(result) if next(calls) >= first else result

    return spoiled


def outcome(case, directory: Path) -> dict:
    """Run one case in ``directory`` and describe everything it produced."""
    argv, patch, first = case
    for name, doc in INPUTS.items():
        (directory / f"{name}.json").write_text(json.dumps(doc))
    inputs = set(os.listdir(directory))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        mp.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
        for module, name, spoil, batched in SPOILERS.get(patch, ()):
            mp.setattr(module, name, _spoiled(getattr(module, name), spoil, batched, first))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv.split())
    files = {
        name: _sha((directory / name).read_bytes())
        for name in sorted(set(os.listdir(directory)) - inputs)
    }
    return {"code": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": err.getvalue(), "files": files}


def _minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def _versions() -> dict:
    return {"python": _minor(platform.python_version()), "numpy": _minor(np.__version__)}


def _pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_pinned_file_covers_every_case():
    assert sorted(_pinned()["outcomes"]) == sorted(_case_id(c) for c in CASES)
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    assert set(COMMANDS) == set(commands)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_outcome_is_pinned(case, tmp_path):
    pinned = _pinned()
    now = _versions()
    needed = ("python",) if case[1] is None else ("python", "numpy")
    for name in needed:
        if pinned[name] != now[name]:
            pytest.skip(f"outcomes were pinned with {name} {pinned[name]}, "
                        f"this is {name} {now[name]}")
    assert outcome(case, tmp_path) == pinned["outcomes"][_case_id(case)]


def test_each_group_reaches_its_exit_code():
    # a regenerated file pins whatever happened; this keeps the groups honest
    outcomes = _pinned()["outcomes"]
    assert {outcomes[_case_id(c)]["code"] for c in FAILURES} == {2}
    assert {outcomes[_case_id(c)]["code"] for c in CASES if c[0] in USAGE} == {1}
    assert {outcomes[_case_id(c)]["code"] for c in CASES if c[0] in HELP} == {0}


def _regenerate() -> dict:
    outcomes = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            outcomes[_case_id(case)] = outcome(case, Path(tmp))
    return {**_versions(), "outcomes": outcomes}


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_regenerate(), indent=1, sort_keys=True) + "\n")
