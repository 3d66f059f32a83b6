"""Span recording around calls into the package's public functions.

The benchmark patches every binding of the listed functions inside the
``dyadic_carleson`` modules, including names imported with
``from .tree import subtree_sums``, for the length of one traced pass.
``TreeShape`` methods are left alone: a depth-18 stopping decomposition
makes millions of them, and wrapping them would time the tracer.

Spans hold a name, start, end, parent span and job id, stay in memory
and are written as JSONL when the pass ends.  Counts are read off return
values, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter


def _nbytes(args, kwargs, result):
    return {"computed_bytes": 2 * result.nbytes}


def _embedding(args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    return {"iterations": result.iterations, "tag": mu.support_mode}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _stopping(args, kwargs, result):
    return {"stopping_vertices": len(result.beta)}


def _rows(args, kwargs, result):
    return {"rows": len(result.rows)}


def _sampler(args, kwargs, result):
    batch, stats = result
    return {"draws": stats.draws, "accepted": len(batch)}


def _input_bytes(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"bytes": len(data)}


PACKAGE = "dyadic_carleson"

# module -> {function: count extractor or None}
TARGETS = {
    "tree": {"subtree_sums": _nbytes, "ancestor_sums": _nbytes},
    "carleson": {
        "carleson_ratios": None,
        "alpha_test_constant": None,
        "embedding_constant": _embedding,
    },
    "maximal": {
        "stopping_decomposition": _stopping,
        "verify_stopping_invariants": None,
        "maximal_theorem_check": None,
        "maximal_ratios": None,
    },
    "bellman": {"certify_tree_embedding": _rows, "sample_batch": _sampler},
    "bitree": {
        "rect_integrals": None,
        "one_box_constant": None,
        "bi_embedding_constant": _iterations,
        "bitree_bellman_certify": None,
        "set_test_constant": None,
        "gap_probe": None,
    },
    "measure_io": {"parse_measure_file": _input_bytes},
    "instances": {
        "random_tree_measure": None,
        "random_node_values": None,
        "random_bimeasure": None,
        "random_cell_values": None,
    },
}
TRACED = [f"{module}.{name}" for module, functions in TARGETS.items() for name in functions]
COUNTED = {f"{module}.{name}" for module, functions in TARGETS.items()
           for name, count in functions.items() if count is not None}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int
    counts: dict | None


class Tracer:
    """Collects spans for one traced pass; ``install`` patches, ``remove`` undoes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, count, fn, args, kwargs):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.job, None))
        self.stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            record = self.spans[index]
            record.start, record.end = start, end
        if count is not None:
            try:
                record.counts = count(args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                record.counts = None  # the return value changed shape: count absent
        return result

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, count, fn, args, kwargs)

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for short, functions in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for fname, count in functions.items():
                original = getattr(home, fname, None) if home else None
                name = f"{short}.{fname}"
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def write_jsonl(self, path, pass_index: int) -> None:
        with open(path, "a") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "pass": pass_index, "id": index, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "job": s.job, "counts": s.counts,
                }) + "\n")
