"""The three benchmark workloads: generated inputs, job lists and checks.

Every job is one ``dyadic_carleson.cli.run_command`` argument list.  Its
check reads the parsed report and returns a list of failures; a failure
is a ``passed: false`` report, a broken inequality, or a value more than
REL_TOL (relative) away from the benchmark's own recomputation in
``oracle``.  Values too costly to recompute at full size (the depth-18
embedding constants and stopping bound, the (9,9) gap probe's embedding
constant) are compared with ``reference.json``, which holds them for
each of VARIANTS large inputs.  ``iterations`` and ``converged`` are
never checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

REL_TOL = 1e-9
VARIANTS = 8  # large inputs cycle through this many seeds; see reference.json
BOUNDARY, ALL_NODES = "boundary-only", "all-nodes"


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    reference: tuple[str, ...] = ()  # report fields compared with reference.json

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    variant: int | None = None  # key into reference.json, None when unused


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------


def _close(out: list, label: str, got, want) -> None:
    if not abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
        out.append(f"{label}: report {got!r}, expected {want!r}")


def _at_most(out: list, label: str, low, high) -> None:
    if not low <= high + REL_TOL * max(1.0, abs(low), abs(high)):
        out.append(f"{label}: {low!r} > {high!r}")


def _passed(out: list, report: dict) -> None:
    if report.get("passed") is not True:
        out.append("report says passed: false")


def field_value(report: dict, path: str):
    value = report
    for part in path.split("."):
        value = value[int(part)] if isinstance(value, list) else value[part]
    return value


def compare_reference(report: dict, fields: dict) -> list[str]:
    out: list[str] = []
    for path, want in fields.items():
        _close(out, f"{path} (reference)", field_value(report, path), want)
    return out


# ---------------------------------------------------------------------------
# per-subcommand checks
# ---------------------------------------------------------------------------


def _sandwich(out: list, c_test: float, c_emb: float) -> None:
    _at_most(out, "c_test <= c_emb", c_test, c_emb)
    _at_most(out, "c_emb <= 4 c_test", c_emb, 4.0 * c_test)


def check_tree_embed(masses: np.ndarray):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        _close(out, "c_test", report["c_test"], oracle.tree_test_constant(masses))
        dense = oracle.tree_embedding_dense(masses)
        if dense is not None:
            _close(out, "c_emb", report["c_emb"], dense)
        _sandwich(out, report["c_test"], report["c_emb"])
        return out
    return check


def check_tree_certify(masses: np.ndarray):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        for key, want in oracle.tree_certificate_totals(masses).items():
            _close(out, key, report[key], want)
        _at_most(out, "total <= bellman_bound", report["total"], report["bellman_bound"])
        _at_most(out, "bellman_bound <= upper_bound",
                 report["bellman_bound"], report["upper_bound"])
        return out
    return check


def _check_maximal_row(out: list, row: dict, masses, phi) -> None:
    lhs, rhs = oracle.maximal_sides(masses, phi)
    _close(out, f"rows.{row['trial']}.lhs", row["lhs"], lhs)
    _close(out, f"rows.{row['trial']}.rhs", row["rhs"], rhs)
    _at_most(out, "lhs <= stopping_bound", row["lhs"], row["stopping_bound"])
    _at_most(out, "ratio <= 32", row["ratio"], 32.0)
    if not (row["passed"] and row["stopping_bound_ok"] and row["invariants_ok"]):
        out.append(f"rows.{row['trial']}: a maximal check failed")


def check_maximal_file(masses: np.ndarray, seed: int):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        phi = np.abs(np.random.default_rng(seed).normal(0.0, 1.0, len(masses)))
        _check_maximal_row(out, report["rows"][0], masses, phi)
        return out
    return check


def check_maximal_random(depth: int, trials: int, seed: int):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        rng = np.random.default_rng(seed)
        rows = report["rows"]
        if len(rows) != max(1, trials):
            out.append(f"{len(rows)} rows for {trials} trials")
        for trial, row in enumerate(rows):
            masses = oracle.draw_tree_masses(rng, depth, (BOUNDARY, ALL_NODES)[trial % 2])
            phi = np.abs(rng.normal(0.0, 1.0, len(masses)))
            _check_maximal_row(out, row, masses, phi)
        return out
    return check


def check_tree_test(depth: int, trials: int, seed: int):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        rng = np.random.default_rng(seed)
        rows = report["rows"]
        if len(rows) != trials:
            out.append(f"{len(rows)} rows for {trials} trials")
        for trial, row in enumerate(rows):
            masses = oracle.draw_tree_masses(rng, depth, (BOUNDARY, ALL_NODES)[trial % 2])
            _close(out, f"rows.{trial}.c_test", row["c_test"], oracle.tree_test_constant(masses))
            _close(out, f"rows.{trial}.c_emb", row["c_emb"], oracle.tree_embedding_dense(masses))
            _sandwich(out, row["c_test"], row["c_emb"])
        return out
    return check


def check_bellman_sample(trials: int):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        if report["draws"] < trials:
            out.append(f"{report['draws']} draws for {trials} witnesses")
        if "min_slack" in report:
            _at_most(out, "-tol <= min_slack", report["threshold"], report["min_slack"])
        else:
            _at_most(out, "max_value <= threshold", report["max_value"], report["threshold"])
        return out
    return check


def _check_onebox(out: list, label: str, cells, constant, row_node, col_node) -> float:
    want, ratios = oracle.one_box(cells)
    _close(out, f"{label}.constant", constant, want)
    _close(out, f"{label}.argmax", oracle.ratio_at(ratios, row_node, col_node), want)
    return want


def check_onebox(cell_list: list):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        rows = report["rows"]
        if len(rows) != len(cell_list):
            out.append(f"{len(rows)} rows for {len(cell_list)} measures")
        for row, cells in zip(rows, cell_list):
            _check_onebox(out, f"rows.{row['trial']}", cells, row["constant"],
                          row["argmax_row"], row["argmax_col"])
        return out
    return check


def _check_bitree_row(out: list, label: str, row: dict, cells, phi) -> None:
    one_box, _ = oracle.one_box(cells)
    _close(out, f"{label}.scale", row["scale"], 1.0 / one_box)
    lhs, rhs = oracle.area_weighted_sides(cells * row["scale"], phi)
    _close(out, f"{label}.lhs", row["lhs"], lhs)
    _close(out, f"{label}.rhs", row["rhs"], rhs)
    _at_most(out, f"{label}: lhs <= upper_bound", row["lhs"], row["upper_bound"])
    if row["passed"] is not True:
        out.append(f"{label}: certificate failed")


def check_bitree_certify(cells_phi: list):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        rows = report["rows"]
        if len(rows) != len(cells_phi):
            out.append(f"{len(rows)} rows for {len(cells_phi)} measures")
        for row, (cells, phi) in zip(rows, cells_phi):
            _check_bitree_row(out, f"rows.{row['trial']}", row, cells, phi)
        return out
    return check


def check_bitree_certify_random(depths, trials: int, seed: int):
    def check(report: dict) -> list[str]:
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(max(1, trials)):
            cells = oracle.draw_cells(rng, depths)
            pairs.append((cells, rng.normal(0.0, 1.0, cells.shape)))
        return check_bitree_certify(pairs)(report)
    return check


def check_bitree_file_certify(cells: np.ndarray):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _check_bitree_row(out, "certify", report, cells, np.ones(cells.shape))
        return out
    return check


def check_settest(cells: np.ndarray):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        _passed(out, report)
        one_box, _ = oracle.one_box(cells)
        _close(out, "one_box_constant", report["one_box_constant"], one_box)
        _close(out, "constant", report["constant"], oracle.set_test(cells))
        _close(out, "embedding_constant", report["embedding_constant"],
               oracle.bi_embedding_dense(cells))
        _at_most(out, "one_box <= set test", report["one_box_constant"], report["constant"])
        _at_most(out, "set test <= embedding", report["constant"], report["embedding_constant"])
        return out
    return check


def check_gap_probe(trials: int):
    def check(report: dict) -> list[str]:
        out: list[str] = []
        if len(report["trajectory"]) != trials:
            out.append(f"{len(report['trajectory'])} trajectory points for {trials} trials")
        cells = np.array(report["best_cells"], dtype=float)
        gap, box, emb = report["best_gap"], report["best_one_box"], report["best_embedding"]
        _close(out, "best_one_box", box, oracle.one_box(cells)[0])
        dense = oracle.bi_embedding_dense(cells)
        if dense is not None:
            _close(out, "best_embedding", emb, dense)
        _close(out, "best_gap", gap, emb / box)
        _close(out, "best_gap is the trajectory maximum", gap,
               max(point[1] for point in report["trajectory"]))
        _at_most(out, "best_gap >= 1", 1.0, gap)
        return out
    return check


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def write_tree(path: Path, masses: np.ndarray, mode: str) -> None:
    doc = {"version": 1, "kind": "tree", "depth": oracle.tree_depth(masses),
           "support_mode": mode, "masses": masses.tolist()}
    path.write_text(json.dumps(doc))


def write_bitree(path: Path, cells: np.ndarray) -> None:
    depths = [cells.shape[0].bit_length() - 1, cells.shape[1].bit_length() - 1]
    doc = {"version": 1, "kind": "bitree", "depths": depths, "masses": cells.tolist()}
    path.write_text(json.dumps(doc))


def _seed(rng) -> int:
    return int(rng.integers(1 << 31))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def tree_large(seed: int, tiny: bool, workdir: Path) -> Workload:
    """Depth-18 boundary-only and all-nodes files through the tree layers."""
    variant = seed % VARIANTS
    rng = np.random.default_rng([1, variant])
    depth = 6 if tiny else 18
    boundary = oracle.draw_tree_masses(rng, depth, BOUNDARY)
    everywhere = oracle.draw_tree_masses(rng, depth, ALL_NODES)
    b_path, a_path = workdir / "boundary.json", workdir / "all-nodes.json"
    write_tree(b_path, boundary, BOUNDARY)
    write_tree(a_path, everywhere, ALL_NODES)
    phi_seed = _seed(rng)
    jobs = [
        Job("tree-embed:boundary", ["tree-embed", "--in", str(b_path)],
            check_tree_embed(boundary), ("c_emb",)),
        Job("tree-embed:all-nodes", ["tree-embed", "--in", str(a_path)],
            check_tree_embed(everywhere), ("c_emb",)),
        Job("maximal-verify:all-nodes",
            ["maximal-verify", "--in", str(a_path), "--seed", str(phi_seed)],
            check_maximal_file(everywhere, phi_seed),
            ("rows.0.stopping_bound", "rows.0.stopping_vertices", "rows.0.generations")),
        Job("certify:boundary", ["certify", "--in", str(b_path)],
            check_tree_certify(boundary)),
    ]
    return Workload("tree-large", jobs, variant)


def bitree_large(seed: int, tiny: bool, workdir: Path) -> Workload:
    """One (10,10) bi-measure file through the bi-tree layers, plus a (9,9) probe."""
    variant = seed % VARIANTS
    rng = np.random.default_rng([2, variant])
    depths = (3, 3) if tiny else (10, 10)
    probe = "3,3" if tiny else "9,9"
    cells = oracle.draw_cells(rng, depths)
    path = workdir / "bimeasure.json"
    write_bitree(path, cells)
    phi_seed, probe_seed = _seed(rng), _seed(rng)
    phi = np.random.default_rng(phi_seed).normal(0.0, 1.0, cells.shape)
    jobs = [
        Job("bitree-onebox:file", ["bitree-onebox", "--in", str(path)],
            check_onebox([cells])),
        Job("bitree-certify:file",
            ["bitree-certify", "--in", str(path), "--seed", str(phi_seed)],
            check_bitree_certify([(cells, phi)])),
        Job("certify:bitree", ["certify", "--in", str(path)],
            check_bitree_file_certify(cells)),
        Job(f"gap-probe:{probe}",
            ["gap-probe", "--depths", probe, "--trials", "2", "--optimizer", "random",
             "--seed", str(probe_seed)],
            check_gap_probe(2), ("best_embedding", "best_gap")),
    ]
    return Workload("bitree-large", jobs, variant)


def small_many(seed: int, tiny: bool, workdir: Path) -> Workload:
    """128 small jobs over all nine subcommands; per-call overhead dominates."""
    rng = np.random.default_rng([3, seed % (1 << 64)])
    if tiny:
        sizes = dict(test=(4, 8), bellman=2000, maximal=(5, 6), onebox=((2, 2), 10),
                     settest=2, certify=((2, 2), 5), probe=((2, 2), 5), files=4)
    else:
        sizes = dict(test=(6, 400), bellman=1_000_000, maximal=(8, 200),
                     onebox=((3, 3), 1000), settest=20, certify=((4, 4), 300),
                     probe=((4, 4), 300), files=20)
    jobs: list[Job] = []

    depth, trials = sizes["test"]
    s = _seed(rng)
    jobs.append(Job("tree-test", ["tree-test", "--depth", str(depth), "--trials",
                                  str(trials), "--seed", str(s)],
                    check_tree_test(depth, trials, s)))
    for mode in ("martingale", "tree-split", "compensation"):
        s = _seed(rng)
        jobs.append(Job(f"bellman-sample:{mode}",
                        ["bellman-sample", "--mode", mode, "--trials",
                         str(sizes["bellman"]), "--seed", str(s)],
                        check_bellman_sample(sizes["bellman"])))
    depth, trials = sizes["maximal"]
    s = _seed(rng)
    jobs.append(Job("maximal-verify", ["maximal-verify", "--depth", str(depth), "--trials",
                                       str(trials), "--seed", str(s)],
                    check_maximal_random(depth, trials, s)))
    depths, trials = sizes["onebox"]
    s = _seed(rng)
    draws = np.random.default_rng(s)
    jobs.append(Job("bitree-onebox", ["bitree-onebox", "--depths", "%d,%d" % depths,
                                      "--trials", str(trials), "--seed", str(s)],
                    check_onebox([oracle.draw_cells(draws, depths) for _ in range(trials)])))
    for k in range(sizes["settest"]):
        s = _seed(rng)
        cells = oracle.draw_cells(np.random.default_rng(s), (2, 2))
        jobs.append(Job(f"bitree-settest:{k}",
                        ["bitree-settest", "--depths", "2,2", "--seed", str(s)],
                        check_settest(cells)))
    depths, trials = sizes["certify"]
    s = _seed(rng)
    jobs.append(Job("bitree-certify", ["bitree-certify", "--depths", "%d,%d" % depths,
                                       "--trials", str(trials), "--seed", str(s)],
                    check_bitree_certify_random(depths, trials, s)))
    depths, trials = sizes["probe"]
    jobs.append(Job("gap-probe", ["gap-probe", "--depths", "%d,%d" % depths, "--trials",
                                  str(trials), "--optimizer", "random",
                                  "--seed", str(_seed(rng))],
                    check_gap_probe(trials)))

    for k in range(sizes["files"]):
        depth = 2 + k % 7
        mode = (BOUNDARY, ALL_NODES)[k % 2]
        masses = oracle.draw_tree_masses(rng, depth, mode)
        path = workdir / f"tree-{k}.json"
        write_tree(path, masses, mode)
        jobs.append(Job(f"tree-embed:{k}", ["tree-embed", "--in", str(path)],
                        check_tree_embed(masses)))
        jobs.append(Job(f"certify:tree-{k}", ["certify", "--in", str(path)],
                        check_tree_certify(masses)))
    for k in range(sizes["files"]):
        depths = (1 + k % 4, 1 + (k // 4) % 4)
        cells = oracle.draw_cells(rng, depths)
        path = workdir / f"bitree-{k}.json"
        write_bitree(path, cells)
        s = _seed(rng)
        phi = np.random.default_rng(s).normal(0.0, 1.0, cells.shape)
        jobs.append(Job(f"bitree-onebox:{k}", ["bitree-onebox", "--in", str(path)],
                        check_onebox([cells])))
        jobs.append(Job(f"bitree-certify:{k}",
                        ["bitree-certify", "--in", str(path), "--seed", str(s)],
                        check_bitree_certify([(cells, phi)])))
        jobs.append(Job(f"certify:bitree-{k}", ["certify", "--in", str(path)],
                        check_bitree_file_certify(cells)))
    return Workload("small-many", jobs)


WORKLOADS = {"tree-large": tree_large, "bitree-large": bitree_large, "small-many": small_many}
