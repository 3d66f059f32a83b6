"""Command-line interface.

Every subcommand wraps one operation family from the library; nothing is
computed here that the API cannot do.  Exit codes: 0 when all assertions
pass, 2 when a checked inequality fails (a counterexample file is
written next to the report), 1 for usage or input problems.  Reports are
deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import bellman, bitree, carleson, instances, maximal, measure_io, tree
from .errors import CarlesonError

__all__ = ["main", "run_command"]

FORMATS = ("json", "csv")
SANDWICH_TOL = 1e-9

MODE_FLAGS = {
    "martingale": bellman.MODE_MARTINGALE,
    "tree-split": bellman.MODE_TREE_SPLIT,
    "compensation": bellman.MODE_COMPENSATION,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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
        if not self.tol > 0:
            raise _UsageError(f"--tol must be positive, got {self.tol}")
        if self.fmt not in FORMATS:
            raise _UsageError(f"--format must be one of {FORMATS}")


def _config(args) -> RunConfig:
    return RunConfig(
        seed=args.seed,
        trials=getattr(args, "trials", 0),
        tol=args.tol,
        fmt=args.format,
        out=args.out,
    )


def _plain(value):
    """``json.dumps`` hook for the numpy values that JSON cannot encode.

    Python containers and ``float`` subclasses such as ``np.float64`` are
    encoded directly, so only numpy arrays and non-float scalars land here.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, default=_plain)


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
        with open(cfg.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_counterexample(command: str, cfg: RunConfig, payload: dict) -> None:
    path = (cfg.out or command) + ".counterexample.json"
    with open(path, "w") as handle:
        handle.write(_dumps(payload) + "\n")
    print(f"counterexample written to {path}", file=sys.stderr)


def _load_measure(path: str):
    try:
        return measure_io.load_measure(path)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None


def _require_tree(measure, flag: str) -> tree.TreeMeasure:
    if not isinstance(measure, tree.TreeMeasure):
        raise _UsageError(f"{flag} expects a tree measure file")
    return measure


def _require_bitree(measure, flag: str) -> bitree.BiMeasure:
    if not isinstance(measure, bitree.BiMeasure):
        raise _UsageError(f"{flag} expects a bitree measure file")
    return measure


def _parse_depths(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        n, m = (int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--depths expects 'n,m', got {text!r}") from None
    if n < 0 or m < 0:
        raise _UsageError(f"--depths must be nonnegative, got {text!r}")
    return (n, m)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _sandwich_row(mu: tree.TreeMeasure) -> tuple[carleson.PairCheckResult, dict]:
    pair = carleson.embedding_pair_check(mu, rel_tol=SANDWICH_TOL)
    test = pair.report.test_constant
    emb = pair.report.embedding_constant
    row = {
        "c_test": test,
        "c_emb": emb,
        "ratio": emb / test if test > 0 else 0.0,
        "iterations": pair.report.iterations,
        "converged": pair.report.converged,
    }
    return pair, row


def _cmd_tree_test(args) -> int:
    cfg = _config(args)
    rng = np.random.default_rng(cfg.seed)
    shape = tree.build_tree(args.depth)
    modes = (tree.BOUNDARY_ONLY, tree.ALL_NODES)
    rows = []
    for trial in range(cfg.trials):
        mode = modes[trial % 2] if args.support == "both" else args.support
        mu = instances.random_tree_measure(rng, shape, support_mode=mode)
        pair, row = _sandwich_row(mu)
        row = {"trial": trial, "support_mode": mode, **row}
        rows.append(row)
        if not pair.ok:
            _write_counterexample(
                "tree-test",
                cfg,
                {
                    "reason": "embedding constant escaped [c_test, 4 c_test]",
                    "trial": trial,
                    "measure": measure_io.measure_to_dict(mu),
                    **pair.counterexample(),
                },
            )
            _emit({"command": "tree-test", "rows": rows, "passed": False}, cfg)
            return 2
    report = {
        "command": "tree-test",
        "depth": args.depth,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "passed": True,
        "max_ratio": max((r["ratio"] for r in rows), default=0.0),
        "rows": rows,
    }
    _emit(
        report,
        cfg,
        csv_rows=[
            (r["trial"], r["support_mode"], r["c_test"], r["c_emb"], r["ratio"])
            for r in rows
        ],
        csv_header=("trial", "support_mode", "c_test", "c_emb", "ratio"),
    )
    return 0


def _cmd_tree_embed(args) -> int:
    cfg = _config(args)
    if args.infile:
        mu = _require_tree(_load_measure(args.infile), "tree-embed --in")
    else:
        if args.depth is None:
            raise _UsageError("tree-embed needs --in or --depth")
        mu = instances.random_tree_measure(cfg.seed, tree.build_tree(args.depth))
    pair, row = _sandwich_row(mu)
    report = {
        "command": "tree-embed",
        "argmax_node": pair.report.argmax_node,
        "passed": pair.ok,
        **row,
    }
    _emit(report, cfg)
    if not pair.ok:
        _write_counterexample(
            "tree-embed",
            cfg,
            {
                "reason": "embedding constant escaped [c_test, 4 c_test]",
                "measure": measure_io.measure_to_dict(mu),
                **pair.counterexample(),
            },
        )
        return 2
    return 0


def _cmd_bellman_sample(args) -> int:
    cfg = _config(args)
    mode = MODE_FLAGS[args.mode]
    batch, stats = bellman.sample_batch(cfg.seed, cfg.trials, mode)
    if mode == bellman.MODE_COMPENSATION:
        values = batch.values()
        worst = float(values.max()) if len(batch) else 0.0
        passed = worst <= 1e-12
        summary = {"max_value": worst, "threshold": 1e-12}
        bad = int(np.argmax(values)) if len(batch) else None
    else:
        values = batch.slacks()
        worst = float(values.min()) if len(batch) else 0.0
        passed = worst >= -cfg.tol
        summary = {"min_slack": worst, "threshold": -cfg.tol}
        bad = int(np.argmin(values)) if len(batch) else None
    report = {
        "command": "bellman-sample",
        "mode": args.mode,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "draws": stats.draws,
        "rejected_cauchy_schwarz": stats.rejected_cauchy_schwarz,
        "rejected_test_bound": stats.rejected_test_bound,
        "mean": float(values.mean()) if len(batch) else 0.0,
        "passed": passed,
        **summary,
    }
    _emit(report, cfg)
    if not passed:
        witness = batch.witness(bad)
        payload = {"reason": f"{args.mode} inequality violated", "index": bad}
        if hasattr(witness, "left"):
            payload["left"] = witness.left.as_tuple()
            payload["right"] = witness.right.as_tuple()
            for name in ("m", "a", "b", "c"):
                if hasattr(witness, name):
                    payload[name] = getattr(witness, name)
        else:
            payload["parent"] = witness.parent.as_tuple()
            payload.update(a=witness.a, b=witness.b, c=witness.c)
        _write_counterexample("bellman-sample", cfg, payload)
        return 2
    return 0


def _maximal_instance(mu: tree.TreeMeasure, phi, tol: float) -> dict:
    box = carleson.carleson_ratios(mu).test_constant
    if box > 1.0:
        mu = mu.scaled(1.0 / box)
    report = maximal.maximal_theorem_check(mu, phi, tol=tol)
    invariants = maximal.verify_stopping_invariants(
        report.decomposition, mu, phi
    )
    return {
        "lhs": report.lhs,
        "rhs": report.rhs,
        "ratio": report.ratio,
        "passed": report.passed,
        "stopping_bound": report.stopping_bound,
        "stopping_bound_ok": report.stopping_bound_ok,
        "invariants_ok": invariants.ok,
        "invariant_failures": list(invariants.failures),
        "stopping_vertices": len(report.decomposition.beta),
        "generations": len(report.decomposition.generations),
        "_mu": mu,
        "_dec": report.decomposition,
    }


def _cmd_maximal_verify(args) -> int:
    cfg = _config(args)
    rng = np.random.default_rng(cfg.seed)
    if args.infile:
        mu = _require_tree(_load_measure(args.infile), "maximal-verify --in")
        jobs = [(mu, instances.random_node_values(rng, mu.shape, nonneg=True))]
    else:
        if args.depth is None:
            raise _UsageError("maximal-verify needs --in or --depth")
        shape = tree.build_tree(args.depth)
        jobs = []
        for trial in range(max(1, cfg.trials)):
            mode = (tree.BOUNDARY_ONLY, tree.ALL_NODES)[trial % 2]
            jobs.append(
                (
                    instances.random_tree_measure(rng, shape, support_mode=mode),
                    instances.random_node_values(rng, shape, nonneg=True),
                )
            )
    rows = []
    for index, (mu, phi) in enumerate(jobs):
        result = _maximal_instance(mu, phi, cfg.tol)
        ok = result["passed"] and result["stopping_bound_ok"] and result["invariants_ok"]
        scrubbed = {k: v for k, v in result.items() if not k.startswith("_")}
        rows.append({"trial": index, **scrubbed})
        if not ok:
            _write_counterexample(
                "maximal-verify",
                cfg,
                {
                    "reason": "maximal inequality or stopping invariant failed",
                    "trial": index,
                    "measure": measure_io.measure_to_dict(result["_mu"]),
                    "phi": [float(v) for v in np.asarray(phi)],
                    "decomposition": result["_dec"].to_dict(),
                    **scrubbed,
                },
            )
            _emit({"command": "maximal-verify", "rows": rows, "passed": False}, cfg)
            return 2
    report = {
        "command": "maximal-verify",
        "seed": cfg.seed,
        "passed": True,
        "max_ratio": max((r["ratio"] for r in rows), default=0.0),
        "rows": rows,
    }
    _emit(
        report,
        cfg,
        csv_rows=[
            (r["trial"], r["lhs"], r["rhs"], r["ratio"], r["stopping_bound"])
            for r in rows
        ],
        csv_header=("trial", "lhs", "rhs", "ratio", "stopping_bound"),
    )
    return 0


def _cmd_bitree_onebox(args) -> int:
    cfg = _config(args)
    if args.infile:
        mus = [_require_bitree(_load_measure(args.infile), "bitree-onebox --in")]
    else:
        if args.depths is None:
            raise _UsageError("bitree-onebox needs --in or --depths")
        shape = bitree.build_bitree(*_parse_depths(args.depths))
        rng = np.random.default_rng(cfg.seed)
        mus = [
            instances.random_bimeasure(rng, shape) for _ in range(max(1, cfg.trials))
        ]
    rows = []
    for index, mu in enumerate(mus):
        constant, rect = bitree.one_box_constant(mu)
        rows.append(
            {
                "trial": index,
                "constant": constant,
                "argmax_row": rect[0],
                "argmax_col": rect[1],
            }
        )
    report = {"command": "bitree-onebox", "seed": cfg.seed, "rows": rows}
    _emit(
        report,
        cfg,
        csv_rows=[
            (r["trial"], r["constant"], r["argmax_row"], r["argmax_col"])
            for r in rows
        ],
        csv_header=("trial", "constant", "argmax_row", "argmax_col"),
    )
    return 0


def _cmd_bitree_settest(args) -> int:
    cfg = _config(args)
    if args.infile:
        mu = _require_bitree(_load_measure(args.infile), "bitree-settest --in")
    else:
        if args.depths is None:
            raise _UsageError("bitree-settest needs --in or --depths")
        shape = bitree.build_bitree(*_parse_depths(args.depths))
        mu = instances.random_bimeasure(cfg.seed, shape)
    result = bitree.set_test_constant(
        mu, args.strategy, k=args.k, trials=cfg.trials, seed=cfg.seed
    )
    embedding = bitree.bi_embedding_constant(mu)
    passed = result.constant <= embedding.value + cfg.tol
    report = {
        "command": "bitree-settest",
        "strategy": result.strategy,
        "constant": result.constant,
        "witness": [list(c) for c in result.witness],
        "embedding_constant": embedding.value,
        "embedding_converged": embedding.converged,
        "one_box_constant": bitree.one_box_constant(mu).constant,
        "passed": passed,
    }
    _emit(report, cfg)
    if not passed:
        _write_counterexample(
            "bitree-settest",
            cfg,
            {
                "reason": "set test exceeded the embedding constant",
                "measure": measure_io.measure_to_dict(mu),
                "set_test": result.constant,
                "embedding": embedding.value,
                "witness": [list(c) for c in result.witness],
            },
        )
        return 2
    return 0


def _certify_bitree_one(mu: bitree.BiMeasure, phi, tol: float) -> dict:
    normalized, scale = bitree.normalized_to_unit_onebox(mu)
    cert = bitree.bitree_bellman_certify(normalized, phi, tol=tol)
    return {
        "scale": scale,
        "martingale_deviation": cert.martingale_deviation,
        "gain_margin": cert.gain_margin,
        "min_slack": cert.min_slack,
        "telescope_deviation": cert.telescope_deviation,
        "lhs": cert.lhs_total,
        "rhs": cert.rhs_total,
        "upper_bound": cert.upper_bound,
        "passed": cert.ok,
    }


def _cmd_bitree_certify(args) -> int:
    cfg = _config(args)
    rng = np.random.default_rng(cfg.seed)
    if args.infile:
        mu = _require_bitree(_load_measure(args.infile), "bitree-certify --in")
        jobs = [(mu, instances.random_cell_values(rng, mu.shape))]
    else:
        if args.depths is None:
            raise _UsageError("bitree-certify needs --in or --depths")
        shape = bitree.build_bitree(*_parse_depths(args.depths))
        jobs = [
            (
                instances.random_bimeasure(rng, shape),
                instances.random_cell_values(rng, shape),
            )
            for _ in range(max(1, cfg.trials))
        ]
    rows = []
    for index, (mu, phi) in enumerate(jobs):
        result = _certify_bitree_one(mu, phi, cfg.tol)
        rows.append({"trial": index, **result})
        if not result["passed"]:
            _write_counterexample(
                "bitree-certify",
                cfg,
                {
                    "reason": "per-rectangle certificate failed",
                    "trial": index,
                    "measure": measure_io.measure_to_dict(mu),
                    "phi": [[float(v) for v in row] for row in np.asarray(phi)],
                    **result,
                },
            )
            _emit({"command": "bitree-certify", "rows": rows, "passed": False}, cfg)
            return 2
    report = {"command": "bitree-certify", "seed": cfg.seed, "passed": True, "rows": rows}
    _emit(
        report,
        cfg,
        csv_rows=[
            (r["trial"], r["min_slack"], r["lhs"], r["upper_bound"]) for r in rows
        ],
        csv_header=("trial", "min_slack", "lhs", "upper_bound"),
    )
    return 0


def _cmd_gap_probe(args) -> int:
    cfg = _config(args)
    if args.depths is None:
        raise _UsageError("gap-probe needs --depths")
    config = bitree.GapProbeConfig(
        depths=_parse_depths(args.depths),
        trials=cfg.trials,
        seed=cfg.seed,
        optimizer=args.optimizer,
    )
    probe = bitree.gap_probe(config)
    report = {
        "command": "gap-probe",
        "depths": list(config.depths),
        "trials": config.trials,
        "seed": config.seed,
        "optimizer": config.optimizer,
        "best_gap": probe.best_gap,
        "best_one_box": probe.best_one_box,
        "best_embedding": probe.best_embedding,
        "best_cells": None
        if probe.best_cells is None
        else probe.best_cells.tolist(),
        "trajectory": [list(point) for point in probe.trajectory],
    }
    _emit(
        report,
        cfg,
        csv_rows=[tuple(point) for point in probe.trajectory],
        csv_header=("step", "gap", "one_box", "embedding"),
    )
    return 0


def _cmd_certify(args) -> int:
    cfg = _config(args)
    measure = _load_measure(args.infile)
    if isinstance(measure, tree.TreeMeasure):
        alpha = carleson.box_squared_alpha(measure.shape)
        test = carleson.alpha_test_constant(measure, alpha).constant
        mu = measure.scaled(1.0 / test) if test > 1.0 else measure
        phi = np.ones(measure.shape.node_count)
        cert = bellman.certify_tree_embedding(mu, phi, alpha, tol=cfg.tol)
        report = {
            "command": "certify",
            "kind": "tree",
            "test_constant": test,
            "total": cert.total,
            "bellman_bound": cert.bellman_bound,
            "upper_bound": cert.upper_bound,
            "min_slack": cert.min_slack,
            "passed": cert.ok,
        }
        _emit(report, cfg)
        if not cert.ok:
            _write_counterexample(
                "certify",
                cfg,
                {
                    "reason": "tree certificate failed",
                    "measure": measure_io.measure_to_dict(mu),
                    **{k: v for k, v in report.items() if k != "command"},
                },
            )
            return 2
        return 0
    phi = np.ones(measure.shape.cell_grid)
    result = _certify_bitree_one(measure, phi, cfg.tol)
    report = {"command": "certify", "kind": "bitree", **result}
    _emit(report, cfg)
    if not result["passed"]:
        _write_counterexample(
            "certify",
            cfg,
            {
                "reason": "bitree certificate failed",
                "measure": measure_io.measure_to_dict(measure),
                **result,
            },
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, trials_default: int = 100) -> None:
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument(
        "--trials", type=int, default=trials_default, help="number of instances"
    )
    sub.add_argument("--tol", type=float, default=SANDWICH_TOL, help="slack tolerance")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument(
        "--format", choices=FORMATS, default="json", help="report format"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="dyadic-carleson", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = commands.add_parser("tree-test",
                              help="random sandwich checks of the two constants")
    _add_common(sub)
    sub.add_argument("--depth", type=int, required=True)
    sub.add_argument(
        "--support",
        choices=(tree.BOUNDARY_ONLY, tree.ALL_NODES, "both"),
        default="both",
    )
    sub.set_defaults(func=_cmd_tree_test)

    sub = commands.add_parser("tree-embed",
                              help="constants for one measure")
    _add_common(sub)
    sub.add_argument("--in", dest="infile", help="measure file")
    sub.add_argument("--depth", type=int, help="random measure depth (without --in)")
    sub.set_defaults(func=_cmd_tree_embed)

    sub = commands.add_parser("bellman-sample",
                              help="sample witnesses of a main inequality")
    _add_common(sub, trials_default=1000)
    sub.add_argument("--mode", choices=sorted(MODE_FLAGS), required=True)
    sub.set_defaults(func=_cmd_bellman_sample)

    sub = commands.add_parser("maximal-verify",
                              help="stopping decomposition and the constant-32 bound")
    _add_common(sub, trials_default=20)
    sub.add_argument("--in", dest="infile", help="measure file")
    sub.add_argument("--depth", type=int, help="random instance depth (without --in)")
    sub.set_defaults(func=_cmd_maximal_verify)

    sub = commands.add_parser("bitree-onebox",
                              help="rectangle box constants")
    _add_common(sub, trials_default=10)
    sub.add_argument("--in", dest="infile", help="measure file")
    sub.add_argument("--depths", help="pair 'n,m' (without --in)")
    sub.set_defaults(func=_cmd_bitree_onebox)

    sub = commands.add_parser("bitree-settest",
                              help="boundary-set test constant")
    _add_common(sub, trials_default=1000)
    sub.add_argument("--in", dest="infile", help="measure file")
    sub.add_argument("--depths", help="pair 'n,m' (without --in)")
    sub.add_argument(
        "--strategy", choices=bitree.SET_TEST_STRATEGIES, default="exhaustive"
    )
    sub.add_argument("--k", type=int, default=2, help="union size for k-rect-unions")
    sub.set_defaults(func=_cmd_bitree_settest)

    sub = commands.add_parser("bitree-certify",
                              help="per-rectangle Bellman certificates")
    _add_common(sub, trials_default=10)
    sub.add_argument("--in", dest="infile", help="measure file")
    sub.add_argument("--depths", help="pair 'n,m' (without --in)")
    sub.set_defaults(func=_cmd_bitree_certify)

    sub = commands.add_parser("gap-probe",
                              help="search for embedding-vs-box-test gaps")
    _add_common(sub, trials_default=100)
    sub.add_argument("--depths", required=True, help="pair 'n,m'")
    sub.add_argument("--optimizer", choices=("random", "anneal"), default="anneal")
    sub.set_defaults(func=_cmd_gap_probe)

    sub = commands.add_parser("certify",
                              help="full certificate for a measure file")
    _add_common(sub)
    sub.add_argument("--in", dest="infile", required=True, help="measure file")
    sub.set_defaults(func=_cmd_certify)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    # built on the first call, not at import; parse_args leaves it unchanged
    return build_parser()


def run_command(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CarlesonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help lands here with code 0
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
