"""Benchmark of the dyadic-carleson CLI: end-to-end timings and per-layer spans.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tree-large --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own process as a closed loop with one client:
every job is an in-process ``dyadic_carleson.cli.run_command(argv)`` call
writing its report under ``.bench_work/``, and the next job starts when
the previous one returns.  One pass runs the whole job list; passes
repeat until ``--seconds`` is spent, and timings are medians over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the
traced ones; their reports must be byte-identical to the untraced ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results,
with provenance, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

SETUP_SAMPLES = 7  # at least this many, one per pass beyond it
SETUP_CODE = (
    "import time; t = time.perf_counter(); import dyadic_carleson.cli as c; "
    "c.build_parser(); print(repr(time.perf_counter() - t))"
)
SUBCOMMANDS = (
    "tree-test", "tree-embed", "bellman-sample", "maximal-verify", "bitree-onebox",
    "bitree-settest", "bitree-certify", "gap-probe", "certify",
)
# end-to-end metrics on the last line for --trace 0: the ones every workload has
GATED = ("wall_s", "setup_s", "peak_rss_mb")

# per-layer metrics: name -> (unit, traced function, statistic)
PER_LAYER = {
    "tree.subtree_sums.calls": ("count", "tree.subtree_sums", "calls"),
    "tree.subtree_sums.self_s": ("s", "tree.subtree_sums", "self_s"),
    "tree.ancestor_sums.calls": ("count", "tree.ancestor_sums", "calls"),
    "tree.ancestor_sums.self_s": ("s", "tree.ancestor_sums", "self_s"),
    "tree.passes.computed_bytes": ("bytes", "tree.*_sums", "computed_bytes"),
    "carleson.carleson_ratios.self_s": ("s", "carleson.carleson_ratios", "self_s"),
    "carleson.alpha_test_constant.self_s": ("s", "carleson.alpha_test_constant", "self_s"),
    "maximal.stopping_decomposition.self_s": ("s", "maximal.stopping_decomposition", "self_s"),
    "maximal.stopping_decomposition.stopping_vertices":
        ("count", "maximal.stopping_decomposition", "stopping_vertices"),
    "maximal.verify_stopping_invariants.self_s":
        ("s", "maximal.verify_stopping_invariants", "self_s"),
    "maximal.maximal_theorem_check.self_s": ("s", "maximal.maximal_theorem_check", "self_s"),
    "maximal.maximal_ratios.self_s": ("s", "maximal.maximal_ratios", "self_s"),
    "bellman.certify_tree_embedding.self_s": ("s", "bellman.certify_tree_embedding", "self_s"),
    "bellman.certify_tree_embedding.rows": ("count", "bellman.certify_tree_embedding", "rows"),
    "bellman.sample_batch.self_s": ("s", "bellman.sample_batch", "self_s"),
    "bellman.sample_batch.draws": ("count", "bellman.sample_batch", "draws"),
    "bellman.sample_batch.accept_ratio": ("ratio", "bellman.sample_batch", "accept_ratio"),
    "bitree.rect_integrals.calls": ("count", "bitree.rect_integrals", "calls"),
    "bitree.rect_integrals.self_s": ("s", "bitree.rect_integrals", "self_s"),
    "bitree.one_box_constant.self_s": ("s", "bitree.one_box_constant", "self_s"),
    "bitree.bitree_bellman_certify.self_s": ("s", "bitree.bitree_bellman_certify", "self_s"),
    "bitree.set_test_constant.self_s": ("s", "bitree.set_test_constant", "self_s"),
    "bitree.gap_probe.self_s": ("s", "bitree.gap_probe", "self_s"),
    "measure_io.parse_measure_file.calls": ("count", "measure_io.parse_measure_file", "calls"),
    "measure_io.parse_measure_file.self_s": ("s", "measure_io.parse_measure_file", "self_s"),
    "measure_io.parse_measure_file.bytes": ("bytes", "measure_io.parse_measure_file", "bytes"),
    "instances.self_s": ("s", "instances.*", "self_s"),
    "cli.self_s": ("s", "cli.run_command", "self_s"),
}
for _solver in ("carleson.embedding_constant", "carleson.embedding_constant.boundary-only",
                "carleson.embedding_constant.all-nodes", "bitree.bi_embedding_constant"):
    for _stat, _unit in (("calls", "count"), ("self_s", "s"), ("iterations", "count"),
                         ("s_per_iter", "s/iter")):
        PER_LAYER[f"{_solver}.{_stat}"] = (_unit, _solver, _stat)
PER_LAYER["cli.report_bytes"] = ("bytes", None, "report_bytes")
PER_LAYER["trace_overhead_frac"] = ("ratio", None, "trace_overhead_frac")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyadic_carleson").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "seed": seed,
        "variant": workload.variant,
        "jobs": [[job.name, _relative(job.argv)] for job in workload.jobs],
    }


def _relative(argv: list[str]) -> list[str]:
    return [os.path.relpath(a, ROOT) if a.startswith(str(ROOT)) else a for a in argv]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_seconds() -> float:
    """Fresh-interpreter time to import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _out_path(outdir: Path, index: int, job) -> Path:
    return outdir / f"{index:03d}-{job.command}.json"


def run_pass(cli, jobs, outdir: Path, tracer=None) -> dict:
    """Run every job once, in order; only the run_command calls are timed."""
    argvs = [job.argv + ["--out", str(_out_path(outdir, i, job))] for i, job in enumerate(jobs)]
    for i, job in enumerate(jobs):
        _out_path(outdir, i, job).unlink(missing_ok=True)
    gc.collect()
    times, codes = [], []
    begin = perf_counter()
    for index, argv in enumerate(argvs):
        start = perf_counter()
        if tracer is None:
            code = cli.run_command(argv)
        else:
            tracer.job = index
            code = tracer.span("cli.run_command", cli.run_command, argv)
        times.append(perf_counter() - start)
        codes.append(code)
    wall = perf_counter() - begin
    digests, sizes = [], []
    for i, job in enumerate(jobs):
        path = _out_path(outdir, i, job)
        data = path.read_bytes() if path.exists() else None
        digests.append(hashlib.sha256(data).hexdigest() if data is not None else None)
        sizes.append(len(data) if data is not None else 0)
    return {"wall": wall, "times": times, "codes": codes, "digests": digests,
            "sizes": sizes, "traced": tracer is not None}


def check_reports(workload, outdir: Path, reference: dict | None) -> list[list[str]]:
    """Failures per job, from the reports the last pass left behind."""
    failures = []
    for i, job in enumerate(workload.jobs):
        path = _out_path(outdir, i, job)
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            failures.append([f"no readable report: {exc}"])
            continue
        try:
            found = job.check(report)
            if reference is not None and job.reference:
                fields = reference.get(job.name)
                if fields is None:
                    found.append("no reference values for this job")
                else:
                    found += workloads.compare_reference(report, fields)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"report does not have the expected shape: {exc!r}"]
        failures.append(found)
    return failures


def layer_stats(tracer: spans.Tracer) -> dict:
    """Per traced function: calls, self and inclusive seconds, summed counts."""
    stats: dict = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        keys = [span.name]
        counts = span.counts or {}
        if "tag" in counts:
            keys.append(f"{span.name}.{counts['tag']}")
        for key in keys:
            entry = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span.end - span.start
            if span.counts is None and span.name in spans.COUNTED:
                entry["incomplete"] = True
            for name, value in counts.items():
                if name != "tag":
                    entry[name] = entry.get(name, 0) + value
    return stats


def _stat(stats: dict, missing: set, key: str, stat: str):
    if "*" in key:
        prefix = key.split("*")[0]
        names = [k for k in spans.TRACED if k.startswith(prefix)]
        present = [n for n in names if n not in missing]
        if not present:
            return None
        parts = [_stat(stats, missing, n, stat) for n in present]
        return None if any(p is None for p in parts) else sum(parts)
    base = ".".join(key.split(".")[:2])
    if base in missing:
        return None
    entry = stats.get(key)
    if entry is None:
        return 0
    if stat not in ("calls", "self_s") and entry.get("incomplete"):
        return None
    if stat == "s_per_iter":
        return entry["total_s"] / entry["iterations"] if entry.get("iterations") else 0.0
    if stat == "accept_ratio":
        return entry["accepted"] / entry["draws"] if entry.get("draws") else 0.0
    return entry.get(stat, 0)


def layer_metrics(tracer: spans.Tracer, report_bytes: int) -> dict:
    stats = layer_stats(tracer)
    missing = set(tracer.missing)
    out = {}
    for name, (_unit, key, stat) in PER_LAYER.items():
        if key is None:
            continue
        value = _stat(stats, missing, key, stat)
        if value is not None:
            out[name] = value
    out["cli.report_bytes"] = report_bytes
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from dyadic_carleson import cli

    # set-up samples are taken between passes, so that they spread over the
    # run instead of sharing one moment's machine load
    setup = [setup_seconds()]

    workdir = WORK / f"{name}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}.spans.jsonl"
    try:
        workload = workloads.WORKLOADS[name](seed, tiny, workdir)
        reference = None
        if workload.variant is not None and not tiny:
            table = json.loads(REFERENCE.read_text())
            reference = table[name][str(workload.variant)]
        outdir = workdir / "reports"
        outdir.mkdir()

        # warm-up: the first pass in a process runs up to twice as slow as its
        # repeats (fresh allocator arenas, cold caches), so one untimed pass
        # of the whole job list, all at the workload's own sizes, goes first
        run_pass(cli, workload.jobs, outdir)
        setup.append(setup_seconds())

        passes = []
        layer_runs = []
        if trace:
            spans_path.unlink(missing_ok=True)
        begin = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            tracer = spans.Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                result = run_pass(cli, workload.jobs, outdir, tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            if tracer is not None:
                layer_runs.append(layer_metrics(tracer, sum(result["sizes"])))
                tracer.write_jsonl(spans_path, len(passes))
                del tracer
            passes.append(result)
            setup.append(setup_seconds())
            elapsed = perf_counter() - begin
            longest = max(p["wall"] for p in passes)
            enough = len(passes) >= (3 if trace else 2)
            if enough and elapsed + longest > seconds:
                break
        # every pass must match pass 0 byte for byte, so checking the reports
        # the last pass left behind checks them all, outside the timed loop
        job_failures = check_reports(workload, outdir, reference)
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    failed_jobs = []
    attempted = failed = 0
    for index, job in enumerate(workload.jobs):
        checks = job_failures[index]
        problems = list(checks)
        for number, p in enumerate(passes):
            attempted += 1
            if p["codes"][index] != 0:
                problems.append(f"pass {number}: exit code {p['codes'][index]}")
            elif p["digests"][index] != first["digests"][index]:
                kind = "traced" if p["traced"] else "untraced"
                problems.append(f"pass {number} ({kind}): report differs from pass 0")
            elif not checks:
                continue
            failed += 1
        if problems:
            failed_jobs.append({"job": job.name, "problems": problems[:10]})

    plain = [p for p in passes if not p["traced"]]
    end_to_end = {
        "wall_s": (statistics.median([p["wall"] for p in plain]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    for command in SUBCOMMANDS:
        picks = [i for i, job in enumerate(workload.jobs) if job.command == command]
        if picks:
            totals = [sum(p["times"][i] for i in picks) for p in plain]
            end_to_end[f"{command}_s"] = (statistics.median(totals), "s")

    per_layer = {}
    if layer_runs:
        for metric, (unit, _key, _stat) in PER_LAYER.items():
            values = [run[metric] for run in layer_runs if metric in run]
            if len(values) == len(layer_runs):
                per_layer[metric] = (statistics.median_low(values), unit)
        traced_wall = statistics.median([p["wall"] for p in passes if p["traced"]])
        per_layer["trace_overhead_frac"] = (traced_wall / end_to_end["wall_s"][0] - 1.0,
                                            "ratio")

    return {
        "workload": name,
        "provenance": provenance(workload, seed),
        "tiny": tiny,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "pass_walls": [p["wall"] for p in passes],
        "pass_job_times": [p["times"] for p in passes],
        "report_digests": {"untraced": first["digests"],
                           "traced": next((p["digests"] for p in passes if p["traced"]), None)},
        "setup_samples": setup,
        "attempted": attempted,
        "failed": failed,
        "failed_jobs": failed_jobs,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "spans_file": os.path.relpath(spans_path, ROOT) if trace else None,
    }


def print_result(result: dict, trace: bool) -> None:
    prov = result["provenance"]
    print(f"workload {result['workload']}  seed {prov['seed']}  variant {prov['variant']}  "
          f"jobs {len(prov['jobs'])}  untraced passes {result['passes']}  "
          f"traced passes {result['traced_passes']}")
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k != "jobs"}))
    for section in ("end_to_end", "per_layer") if trace else ("end_to_end",):
        for name, metric in result[section].items():
            print(f"  {name:<52} {metric['value']!r:>24} {metric['unit']}")
    for entry in result["failed_jobs"]:
        print(f"  FAILED {entry['job']}: {'; '.join(entry['problems'])}")


def summary_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {k: result["end_to_end"][k] for k in GATED}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# reference values for the large inputs
# ---------------------------------------------------------------------------


def write_reference() -> None:
    """Record the costly report fields of every large-input variant."""
    from dyadic_carleson import cli

    table: dict = {}
    for name in ("tree-large", "bitree-large"):
        table[name] = {}
        for variant in range(workloads.VARIANTS):
            workdir = WORK / f"reference-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                workload = workloads.WORKLOADS[name](variant, False, workdir)
                entry = {}
                for job in workload.jobs:
                    out = workdir / "report.json"
                    code = cli.run_command(job.argv + ["--out", str(out)])
                    report = json.loads(out.read_text())
                    problems = job.check(report)
                    if code != 0 or problems:
                        raise SystemExit(f"{name} v{variant} {job.name}: {code} {problems}")
                    if job.reference:
                        entry[job.name] = {f: workloads.field_value(report, f)
                                           for f in job.reference}
                table[name][str(variant)] = entry
                print(f"{name} variant {variant}: {entry}", flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and print all metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the package at this commit")
    args = parser.parse_args(argv)

    if not (SRC / "dyadic_carleson" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    print_result(result, bool(args.trace))
    print(json.dumps(summary_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
