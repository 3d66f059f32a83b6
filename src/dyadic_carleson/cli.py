"""Command-line interface.

Every subcommand wraps one operation family from the library; nothing is
computed here that the API cannot do.  Exit codes: 0 when all assertions
pass, 2 when a checked inequality fails (a counterexample file is
written next to the report), 1 for usage or input problems.  Reports are
deterministic for fixed inputs and seed.

The subcommands are the rows of ``COMMANDS``: a run function, its help
text, its ``--trials`` default and its own flags.  A run function
returns an ``Outcome`` (the report, an optional CSV table, and the
counterexample of a failed check); ``run_command`` alone writes the
report and the counterexample and picks the exit code.  A report or
counterexample that cannot be written is an exit-1 input problem.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import re
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from . import bellman, bitree, carleson, instances, maximal, measure_io, tree
from .errors import CarlesonError

__all__ = ["main", "run_command"]

FORMATS = ("json", "csv")
SANDWICH_TOL = 1e-9

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as "-1,2" starts like a negative number, not a flag
        self._negative_number_matcher = re.compile(r"-\d")

    # argparse exits with status 2 on bad flags; remap to the usage code
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    tol: float
    fmt: str
    out: str | None

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise _UsageError(f"--trials must be nonnegative, got {self.trials}")
        if self.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {self.seed}")
        if not self.tol > 0:
            raise _UsageError(f"--tol must be positive, got {self.tol}")
        if not math.isfinite(self.tol):
            raise _UsageError(f"--tol must be finite, got {self.tol}")
        if self.fmt not in FORMATS:
            raise _UsageError(f"--format must be one of {FORMATS}")


@dataclass(frozen=True)
class Outcome:
    """What one subcommand found; a counterexample means a check failed.

    A failure report is always JSON: ``--format csv`` applies only to a
    report that carries a table.
    """

    report: dict
    csv_header: tuple | None = None
    csv_rows: list | None = None
    counterexample: dict | None = None


def _columns(rows: list[dict], *names: str) -> dict:
    """The CSV table of ``rows`` restricted to ``names``, as Outcome fields."""
    return {"csv_header": names, "csv_rows": [tuple(r[n] for n in names) for r in rows]}


def _plain(value):
    """``json.dumps`` hook for the numpy values that JSON cannot encode.

    Python containers and ``float`` subclasses such as ``np.float64`` are
    encoded directly, so only numpy arrays and non-float scalars land here.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# json's spelling of the plain scalars, by exact type; subclasses such as
# np.float64 go through json.dumps, which spells them as their base types
_SCALARS = {
    str: json.encoder.encode_basestring_ascii, int: int.__repr__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=_plain)``, byte for
    byte, but a list of finite floats, the bulk of a large report, is one join
    over ``float.__repr__`` (json's indented encoder takes them one by one)."""
    scalar = _SCALARS.get(type(value))
    if scalar:
        return scalar(value)
    if isinstance(value, (str, int, float)):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # json's own spelling of a key that is not a string: '{KEY: 0}' less
        # its brace and ': 0}'
        items = [(_SCALARS[str](key) if type(key) is str else json.dumps({key: 0})[1:-4])
                 + ": " + _dumps(item, inner) for key, item in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        separator = ",\n" + inner
        try:
            text = separator.join(map(float.__repr__, value))
        except TypeError:
            text = None
        if text is None or "n" in text:  # "nan", "inf": no finite repr has an n
            text = separator.join(_dumps(item, inner) for item in value)
        return "[\n" + inner + text + "\n" + indent + "]"
    return _dumps(_plain(value), indent)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from None


def _emit(report: dict, cfg: RunConfig, csv_rows=None, csv_header=None) -> None:
    if cfg.fmt == "json" or csv_rows is None:
        text = _dumps(report) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(csv_header)
        # csv writes repr() of a float, which for np.float64 is not the number
        writer.writerows(
            [v.item() if isinstance(v, np.generic) else v for v in row]
            for row in csv_rows
        )
        text = buffer.getvalue()
    if cfg.out:
        _write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _load_measure(path: str):
    try:
        return measure_io.load_measure(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _parse_depths(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        n, m = (int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--depths expects 'n,m', got {text!r}") from None
    if n < 0 or m < 0:
        raise _UsageError(f"--depths must be nonnegative, got {text!r}")
    return (n, m)


TREE_MODES = (tree.BOUNDARY_ONLY, tree.ALL_NODES)


def _instances(args, cfg: RunConfig, kind: str, count: int = 1, values: bool = False,
               modes: tuple = TREE_MODES):
    """Lazy ``(measure, values)`` jobs: the ``--in`` measure, else ``count`` random ones.

    ``kind`` is ``"tree"``, sized by ``--depth``, or ``"bitree"``, sized by
    ``--depths``; a measure file of the other kind is a usage error.  One
    generator seeded with ``--seed`` draws each job's measure (tree ones
    cycle through the support ``modes``) and then, with ``values``, its
    nonnegative node or signed cell values; else values is None.
    """
    is_tree = kind == "tree"
    mu = None
    if getattr(args, "infile", None):
        mu = _load_measure(args.infile)
        if not isinstance(mu, tree.TreeMeasure if is_tree else bitree.BiMeasure):
            raise _UsageError(f"{args.command} --in expects a {kind} measure file")
        shape, count = mu.shape, 1
    elif (args.depth if is_tree else args.depths) is None:
        flag = "--depth" if is_tree else "--depths"
        raise _UsageError(f"{args.command} needs --in or {flag}")
    else:
        shape = (tree.build_tree(args.depth) if is_tree
                 else bitree.build_bitree(*_parse_depths(args.depths)))
    rng = np.random.default_rng(cfg.seed)

    def draw(trial):
        if mu is not None:
            measure = mu
        elif is_tree:
            mode = modes[trial % len(modes)]
            measure = instances.random_tree_measure(rng, shape, support_mode=mode)
        else:
            measure = instances.random_bimeasure(rng, shape)
        if not values:
            return measure, None
        if is_tree:
            return measure, instances.random_node_values(rng, shape, nonneg=True)
        return measure, instances.random_cell_values(rng, shape)

    return map(draw, range(count))


def _trials_outcome(jobs: Iterable, check: Callable, report: dict, *columns: str) -> Outcome:
    """The Outcome of ``check(job)`` over the jobs, stopping at a failure.

    ``check`` returns a row and, when the trial fails, its counterexample.
    Rows and counterexample gain the trial index.  A failure's report holds
    the rows up to the failing trial; else ``report`` gains the rows, with
    their largest ``ratio`` when ``columns``, the CSV table, has one.
    """
    rows = []
    for trial, job in enumerate(jobs):
        row, counterexample = check(job)
        rows.append({"trial": trial, **row})
        if counterexample is not None:
            return Outcome({"rows": rows, "passed": False},
                           counterexample={"trial": trial, **counterexample})
    if "ratio" in columns:
        report["max_ratio"] = max((r["ratio"] for r in rows), default=0.0)
    return Outcome({**report, "rows": rows}, **_columns(rows, *columns))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _sandwich(pair: carleson.PairCheckResult):
    """Report row and counterexample (or None) of one sandwich check."""
    test = pair.report.test_constant
    emb = pair.report.embedding_constant
    row = {
        "c_test": test,
        "c_emb": emb,
        "ratio": emb / test if test > 0 else 0.0,
        "iterations": pair.report.iterations,
        "converged": pair.report.converged,
    }
    failure = None if pair.ok else {
        "reason": "embedding constant escaped [c_test, 4 c_test]",
        "measure": measure_io.measure_to_dict(pair.measure),
        **pair.counterexample(),
    }
    return row, failure


def _cmd_tree_test(args, cfg: RunConfig) -> Outcome:
    def check(pair):
        row, failure = _sandwich(pair)
        return {"support_mode": pair.measure.support_mode, **row}, failure

    modes = TREE_MODES if args.support == "both" else (args.support,)
    jobs = _instances(args, cfg, "tree", cfg.trials, modes=modes)
    pairs = carleson.embedding_pair_checks((mu for mu, _ in jobs), rel_tol=cfg.tol)
    report = {"depth": args.depth, "trials": cfg.trials, "seed": cfg.seed, "passed": True}
    return _trials_outcome(pairs, check, report,
                           "trial", "support_mode", "c_test", "c_emb", "ratio")


def _cmd_tree_embed(args, cfg: RunConfig) -> Outcome:
    [(mu, _)] = _instances(args, cfg, "tree")
    pair = carleson.embedding_pair_check(mu, rel_tol=cfg.tol)
    row, failure = _sandwich(pair)
    report = {"argmax_node": pair.report.argmax_node, "passed": pair.ok, **row}
    return Outcome(report, counterexample=failure)


# bellman-sample draws its witnesses in blocks of this many from one
# generator and keeps only the report's summary of each block, so its memory
# does not grow with --trials.  The size is part of the report's definition:
# a run of one block draws the stream of sample_batch(seed, trials), a longer
# run its own stream.
SAMPLE_BLOCK = 1 << 15


def _cmd_bellman_sample(args, cfg: RunConfig) -> Outcome:
    mode = args.mode.replace("-", "_")  # the flag spells bellman.MODES with hyphens
    compensation = mode == bellman.MODE_COMPENSATION
    pick = np.argmax if compensation else np.argmin
    rng = np.random.default_rng(cfg.seed)
    counts = dataclasses.asdict(bellman.SamplerStats())
    worst, bad, witness, total = 0.0, None, None, 0.0
    for start in range(0, cfg.trials, SAMPLE_BLOCK):
        batch, stats = bellman.sample_batch(rng, min(SAMPLE_BLOCK, cfg.trials - start), mode)
        for key, count in dataclasses.asdict(stats).items():
            counts[key] += count
        values = batch.values() if compensation else batch.slacks()
        total = values.sum() if start == 0 else total + values.sum()
        i = int(pick(values))
        # pick of the pair is pick of the whole: a first NaN, else a first worst
        if bad is None or pick([worst, values[i]]) == 1:
            worst, bad, witness = float(values[i]), start + i, batch.witness(i)
    if compensation:
        passed = worst <= cfg.tol
        summary = {"max_value": worst, "threshold": cfg.tol}
    else:
        passed = worst >= -cfg.tol
        summary = {"min_slack": worst, "threshold": -cfg.tol}
    report = {
        "mode": args.mode,
        "trials": cfg.trials,
        "seed": cfg.seed,
        **counts,
        "mean": float(total / cfg.trials) if cfg.trials else 0.0,
        "passed": passed,
        **summary,
    }
    if passed:
        return Outcome(report)
    payload = {"reason": f"{args.mode} inequality violated", "index": bad}
    for field in dataclasses.fields(witness):
        value = getattr(witness, field.name)
        point = isinstance(value, bellman.BellmanPoint)
        payload[field.name] = value.as_tuple() if point else value
    return Outcome(report, counterexample=payload)


def _cmd_maximal_verify(args, cfg: RunConfig) -> Outcome:
    def check(trial):
        result, dec, invariants = trial.report, trial.report.decomposition, trial.invariants
        row = {
            "lhs": result.lhs,
            "rhs": result.rhs,
            "ratio": result.ratio,
            "passed": result.passed,
            "stopping_bound": result.stopping_bound,
            "stopping_bound_ok": result.stopping_bound_ok,
            "invariants_ok": invariants.ok,
            "invariant_failures": invariants.failures,
            "stopping_vertices": len(dec.beta),
            "generations": len(dec.generations),
        }
        if result.passed and result.stopping_bound_ok and invariants.ok:
            return row, None
        return row, {
            "reason": "maximal inequality or stopping invariant failed",
            "measure": measure_io.measure_to_dict(trial.measure.scaled(trial.scale)),
            "phi": trial.phi,
            "decomposition": dec.to_dict(),
            **row,
        }

    jobs = _instances(args, cfg, "tree", max(1, cfg.trials), values=True)
    return _trials_outcome(maximal.maximal_checks(jobs, tol=cfg.tol), check,
                           {"seed": cfg.seed, "passed": True},
                           "trial", "lhs", "rhs", "ratio", "stopping_bound")


def _cmd_bitree_onebox(args, cfg: RunConfig) -> Outcome:
    def check(result):
        constant, (row, col) = result
        return {"constant": constant, "argmax_row": row, "argmax_col": col}, None

    jobs = _instances(args, cfg, "bitree", max(1, cfg.trials))
    results = bitree.one_box_constants(mu for mu, _ in jobs)
    return _trials_outcome(results, check, {"seed": cfg.seed},
                           "trial", "constant", "argmax_row", "argmax_col")


def _cmd_bitree_settest(args, cfg: RunConfig) -> Outcome:
    [(mu, _)] = _instances(args, cfg, "bitree")
    one_box = bitree.one_box_constant(mu).constant
    result = bitree.set_test_constant(
        mu, args.strategy, k=args.k, trials=cfg.trials, seed=cfg.seed
    )
    embedding = bitree.bi_embedding_constant(mu)
    scale = max(1.0, result.constant, embedding.value)
    passed = result.constant <= embedding.value + cfg.tol * scale
    report = {
        "strategy": result.strategy,
        "constant": result.constant,
        "witness": result.witness,
        "embedding_constant": embedding.value,
        "embedding_converged": embedding.converged,
        "one_box_constant": one_box,
        "passed": passed,
    }
    failure = None if passed else {
        "reason": "set test exceeded the embedding constant",
        "measure": measure_io.measure_to_dict(mu),
        "set_test": result.constant,
        "embedding": embedding.value,
        "witness": result.witness,
    }
    return Outcome(report, counterexample=failure)


def _certificate_row(check: bitree.UnitBoxCertificate) -> dict:
    cert = check.certificate
    return {
        "scale": check.scale,
        "martingale_deviation": cert.martingale_deviation,
        "gain_margin": cert.gain_margin,
        "min_slack": cert.min_slack,
        "telescope_deviation": cert.telescope_deviation,
        "lhs": cert.lhs_total,
        "rhs": cert.rhs_total,
        "upper_bound": cert.upper_bound,
        "passed": cert.ok,
    }


def _cmd_bitree_certify(args, cfg: RunConfig) -> Outcome:
    def check(trial):
        row = _certificate_row(trial)
        return row, (None if row["passed"] else {
            "reason": "per-rectangle certificate failed",
            "measure": measure_io.measure_to_dict(trial.measure),
            "phi": trial.phi,
            **row,
        })

    jobs = _instances(args, cfg, "bitree", max(1, cfg.trials), values=True)
    return _trials_outcome(bitree.unit_box_certificates(jobs, cfg.tol), check,
                           {"seed": cfg.seed, "passed": True},
                           "trial", "min_slack", "lhs", "upper_bound")


def _cmd_gap_probe(args, cfg: RunConfig) -> Outcome:
    config = bitree.GapProbeConfig(
        depths=_parse_depths(args.depths),
        trials=cfg.trials,
        seed=cfg.seed,
        optimizer=args.optimizer,
    )
    probe = bitree.gap_probe(config)
    report = {
        "depths": config.depths,
        "trials": config.trials,
        "seed": config.seed,
        "optimizer": config.optimizer,
        "best_gap": probe.best_gap,
        "best_one_box": probe.best_one_box,
        "best_embedding": probe.best_embedding,
        "best_cells": probe.best_cells,
        "trajectory": probe.trajectory,
    }
    return Outcome(
        report,
        csv_header=("step", "gap", "one_box", "embedding"),
        csv_rows=probe.trajectory,
    )


def _cmd_certify(args, cfg: RunConfig) -> Outcome:
    mu = _load_measure(args.infile)
    if isinstance(mu, tree.TreeMeasure):
        alpha = carleson.box_squared_alpha(mu.shape)
        test = carleson.alpha_test_constant(mu, alpha).constant
        mu = mu.scaled(1.0 / test) if test > 1.0 else mu
        phi = tree.NodeVector(mu.shape, np.ones(mu.shape.node_count))  # read in place, not copied
        cert = bellman.certify_tree_embedding(mu, phi, alpha, tol=cfg.tol)
        # unlike the bi-tree one, the tree counterexample names its kind
        kind, result = "tree", {
            "kind": "tree",
            "test_constant": test,
            "total": cert.total,
            "bellman_bound": cert.bellman_bound,
            "upper_bound": cert.upper_bound,
            "min_slack": cert.min_slack,
            "passed": cert.ok,
        }
    else:
        [check] = bitree.unit_box_certificates([(mu, np.ones(mu.shape.cell_grid))], cfg.tol)
        kind, result = "bitree", _certificate_row(check)
    failure = None if result["passed"] else {
        "reason": f"{kind} certificate failed",
        "measure": measure_io.measure_to_dict(mu),
        **result,
    }
    return Outcome({"kind": kind, **result}, counterexample=failure)


# ---------------------------------------------------------------------------
# the command table and run_command
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    run: Callable[[argparse.Namespace, RunConfig], Outcome]
    help: str
    trials: int
    flags: tuple = ()


def _flag(*names: str, **kwargs) -> tuple:
    return names, kwargs


_IN = _flag("--in", dest="infile", help="measure file")
_DEPTHS = _flag("--depths", help="pair 'n,m' (without --in)")

COMMANDS = {
    "tree-test": Command(
        _cmd_tree_test, "random sandwich checks of the two constants", 100, (
            _flag("--depth", type=int, required=True),
            _flag("--support", choices=(tree.BOUNDARY_ONLY, tree.ALL_NODES, "both"),
                  default="both"),
        )),
    "tree-embed": Command(
        _cmd_tree_embed, "constants for one measure", 100, (
            _IN,
            _flag("--depth", type=int, help="random measure depth (without --in)"),
        )),
    "bellman-sample": Command(
        _cmd_bellman_sample, "sample witnesses of a main inequality", 1000, (
            _flag("--mode", choices=sorted(m.replace("_", "-") for m in bellman.MODES),
                  required=True),
        )),
    "maximal-verify": Command(
        _cmd_maximal_verify, "stopping decomposition and the constant-32 bound", 20, (
            _IN,
            _flag("--depth", type=int, help="random instance depth (without --in)"),
        )),
    "bitree-onebox": Command(
        _cmd_bitree_onebox, "rectangle box constants", 10, (_IN, _DEPTHS)),
    "bitree-settest": Command(
        _cmd_bitree_settest, "boundary-set test constant", 1000, (
            _IN,
            _DEPTHS,
            _flag("--strategy", choices=bitree.SET_TEST_STRATEGIES, default="exhaustive"),
            _flag("--k", type=int, default=2, help="union size for k-rect-unions"),
        )),
    "bitree-certify": Command(
        _cmd_bitree_certify, "per-rectangle Bellman certificates", 10, (_IN, _DEPTHS)),
    "gap-probe": Command(
        _cmd_gap_probe, "search for embedding-vs-box-test gaps", 100, (
            _flag("--depths", required=True, help="pair 'n,m'"),
            _flag("--optimizer", choices=("random", "anneal"), default="anneal"),
        )),
    "certify": Command(
        _cmd_certify, "full certificate for a measure file", 100, (
            _flag("--in", dest="infile", required=True, help="measure file"),
        )),
}


def build_parser() -> _Parser:
    # --help describes the CLI with the docstring's first two paragraphs
    description = "\n\n".join(__doc__.split("\n\n")[:2])
    parser = _Parser(prog="dyadic-carleson", description=description)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        sub.add_argument("--seed", type=int, default=0, help="random seed")
        sub.add_argument(
            "--trials", type=int, default=command.trials, help="number of instances"
        )
        sub.add_argument("--tol", type=float, default=SANDWICH_TOL, help="slack tolerance")
        sub.add_argument("--out", help="write the report here instead of stdout")
        sub.add_argument(
            "--format", choices=FORMATS, default="json", help="report format"
        )
        for names, kwargs in command.flags:
            sub.add_argument(*names, **kwargs)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def run_command(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        cfg = RunConfig(args.seed, args.trials, args.tol, args.format, args.out)
        outcome = COMMANDS[args.command].run(args, cfg)
        report = {"command": args.command, **outcome.report}
        _emit(report, cfg, outcome.csv_rows, outcome.csv_header)
        if outcome.counterexample is None:
            return 0
        path = (cfg.out or args.command) + ".counterexample.json"
        _write(path, _dumps(outcome.counterexample) + "\n")
        print(f"counterexample written to {path}", file=sys.stderr)
        return 2
    except (_UsageError, CarlesonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help lands here with code 0
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
