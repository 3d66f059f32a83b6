"""Carleson test condition and embedding constants on the dyadic tree.

For a measure ``mu`` on the tree the test ratio at a node ``R`` is

    ratio(R) = sum_{Q <= R} mu(Q)^2 / mu(R),

where ``mu(Q)`` is the subtree (box) mass and ``Q <= R`` runs over the
subtree of ``R``; ``0/0`` counts as 0.  The test constant is the maximum
ratio.  The embedding constant is the best ``C`` in

    sum_Q ( sum_{P <= Q} phi(P) mu_P )^2  <=  C * sum_P phi(P)^2 mu_P,

equivalently the operator norm squared of the ancestor-sum operator from
unweighted little-l2 into l2(mu).  The two are equivalent up to the
factor 4: ``test <= embedding <= 4 * test``.

A weighted variant replaces ``mu(Q)^2`` by ``alpha_Q * average(Q)^2``
with arbitrary non-negative weights ``alpha``; the box-area weights
``alpha_Q = |Q|^2`` recover the plain test condition.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ShapeMismatchError, ValidationError
from .tree import (
    NodeVector,
    TreeMeasure,
    TreeShape,
    _ancestor_sums_inplace,
    _common_ancestors,
    _subtree_sums_inplace,
    as_node_array,
    subtree_sums,
)

__all__ = [
    "AlphaSequence",
    "AlphaTestResult",
    "CarlesonRatios",
    "EmbeddingReport",
    "EmbeddingSides",
    "PairCheckResult",
    "alpha_test_constant",
    "box_squared_alpha",
    "carleson_ratios",
    "embedding_constant",
    "embedding_constant_dense",
    "embedding_constants",
    "embedding_lhs",
    "embedding_pair_check",
    "embedding_pair_checks",
    "carleson_normalized",
]


class CarlesonRatios(NamedTuple):
    ratios: NodeVector
    test_constant: float
    argmax_node: int


class AlphaTestResult(NamedTuple):
    constant: float
    argmax_node: int


class EmbeddingSides(NamedTuple):
    lhs: float
    rhs: float


@dataclass(frozen=True, eq=False)
class AlphaSequence:
    """Non-negative weight per node, used by the weighted test condition."""

    shape: TreeShape
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = as_node_array(self.shape, self.values)
        if np.any(arr < 0):
            i = int(np.flatnonzero(arr < 0)[0])
            raise ValidationError(f"alpha[{i}]: negative weight {arr[i]}")
        object.__setattr__(self, "values", arr)


def box_squared_alpha(shape: TreeShape) -> AlphaSequence:
    """The weights ``alpha_Q = |Q|^2`` (squared interval lengths)."""
    return AlphaSequence(shape, shape.lengths() ** 2)


@dataclass(frozen=True)
class EmbeddingReport:
    test_constant: float
    embedding_constant: float
    argmax_node: int
    iterations: int
    converged: bool


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _test_ratios(depth: int, masses: np.ndarray) -> np.ndarray:
    """Test ratios at every node, along the leading axis of ``masses``.

    Both the numerator and the denominator are subtree sums, so the whole
    computation is two leaf-to-root passes.  Trailing axes are trials.
    """
    box = subtree_sums(depth, masses)
    return _safe_ratio(subtree_sums(depth, box**2), box)


def carleson_ratios(mu: TreeMeasure) -> CarlesonRatios:
    """Test ratios at every node, the test constant and its argmax node."""
    ratios = _test_ratios(mu.shape.depth, mu.masses)
    arg = int(np.argmax(ratios))
    return CarlesonRatios(
        NodeVector(mu.shape, ratios), float(ratios[arg]), arg + 1
    )


def alpha_test_constant(lam: TreeMeasure, alpha: AlphaSequence) -> AlphaTestResult:
    """Weighted test constant sup_I (1/|I|) sum_{K<=I} alpha_K <lam>_K^2 / <lam>_I.

    ``<lam>_K`` is the box average; the ``1/|I|`` cancels against the
    average in the denominator, so the ratio is a subtree sum over the
    box mass.
    """
    if alpha.shape != lam.shape:
        raise ShapeMismatchError(
            f"alpha built for depth {alpha.shape.depth}, "
            f"measure for depth {lam.shape.depth}"
        )
    depth = lam.shape.depth
    box = subtree_sums(depth, lam.masses)
    averages = box * np.exp2(lam.shape.depths().astype(float))
    num = subtree_sums(depth, alpha.values * averages**2)
    values = _safe_ratio(num, box)
    arg = int(np.argmax(values))
    return AlphaTestResult(float(values[arg]), arg + 1)


def carleson_normalized(mu: TreeMeasure) -> TreeMeasure:
    """Scale ``mu`` so its test constant becomes 1 (exactly, up to rounding).

    Both constants scale linearly with the measure, so dividing by the
    test constant is the canonical normalization.
    """
    constant = carleson_ratios(mu).test_constant
    if constant <= 0:
        raise PreconditionError("cannot normalize the zero measure")
    return mu.scaled(1.0 / constant)


# ---------------------------------------------------------------------------
# embedding constant
# ---------------------------------------------------------------------------


BATCH_ENTRIES = 1 << 17  # measure entries solved as one stack, which bounds its memory


def _batches(items: Iterable, entries: Callable) -> Iterator[list]:
    """Consecutive items in lists of about ``BATCH_ENTRIES`` measure entries.

    ``entries(item)`` is the size of one item; each list is sized by its
    first item and holds at least one.  Items are drawn only as the lists
    are taken, so a caller that stops early leaves the rest undrawn.
    """
    items = iter(items)
    for first in items:
        more = max(1, BATCH_ENTRIES // max(1, entries(first))) - 1
        yield [first, *itertools.islice(items, more)]


def _power_iteration(operator: Callable, x: np.ndarray, offsets: Sequence[int],
                     tol: float, max_iter: int) -> list[tuple[float, int, bool]]:
    """Largest eigenvalues of a stack of positive semidefinite operators.

    Row ``k`` of the stack starts from the non-zero vector
    ``x[offsets[k]:offsets[k + 1]]``; the loop takes over ``x``.
    ``operator(rows)`` returns the apply of the active rows, a list of
    ascending row numbers: it maps their vectors, concatenated in that
    order, to a new buffer of the same layout, which the loop then
    normalizes row by row in place.  ``operator`` is called once and
    again each time rows stop, never per iteration.

    Each row stops once successive Rayleigh quotients agree to ``tol``
    relatively twice in a row (to dodge spurious plateaus), or with value
    0 when its image is the zero vector, or unconverged after
    ``max_iter`` iterations.  Its quotient and norm are ``ndarray.dot``
    of its own contiguous slice, so a row's outcome does not depend on
    the rest of the stack.  Returns ``(value, iterations, converged)``
    per row.
    """
    count = len(offsets) - 1
    results: list = [None] * count
    value, hits = [0.0] * count, [0] * count
    rows, bounds = list(range(count)), list(offsets)
    for lo, hi in zip(bounds, bounds[1:]):
        row = x[lo:hi]
        row /= math.sqrt(row.dot(row))
    apply = None
    for iteration in range(1, max_iter + 1):
        if not rows:
            break
        if apply is None:
            apply = operator(rows)
        y = apply(x)
        stopped = []
        for pos, k in enumerate(rows):
            lo, hi = bounds[pos], bounds[pos + 1]
            image = y[lo:hi]
            current = float(x[lo:hi].dot(image))
            norm = math.sqrt(image.dot(image))
            if norm == 0.0:
                results[k] = (0.0, iteration, True)
                stopped.append(pos)
                continue
            image /= norm
            if abs(current - value[k]) <= tol * max(abs(current), 1e-300):
                hits[k] += 1
                if hits[k] >= 2:
                    results[k] = (current, iteration, True)
                    stopped.append(pos)
                    continue
            else:
                hits[k] = 0
            value[k] = current
        x = y
        if stopped:
            gone = set(stopped)
            left = [pos for pos in range(len(rows)) if pos not in gone]
            if left:
                keep = np.ones(x.size, dtype=bool)
                for pos in stopped:
                    keep[bounds[pos] : bounds[pos + 1]] = False
                x = x[keep]
            rows = [rows[pos] for pos in left]
            bounds = [0, *itertools.accumulate(bounds[p + 1] - bounds[p] for p in left)]
            apply = None
    for k in rows:
        results[k] = (value[k], max_iter, False)
    return results


def _embedding_values(depth: int, masses: np.ndarray, tol: float,
                      max_iter: int) -> list[tuple[float, int, bool]]:
    """Power iteration of the Gram operator of each row of ``masses``.

    ``masses`` holds one measure per row.  The active trials share one
    ``(nodes, trials)`` array: their stacked ``sqrt(mu) * g`` is
    scattered into it, both tree passes run along its leading axis, and
    the result is gathered back.  A measure without support gets
    ``(0.0, 0, True)``.
    """
    trials, nodes = masses.shape
    node = np.flatnonzero(masses)  # trial * nodes + node, trial by trial
    bounds = np.searchsorted(node, np.arange(trials + 1) * nodes)
    sizes = np.diff(bounds)
    sqrt_m = np.sqrt(masses.reshape(-1)[node])
    bounds = bounds.tolist()
    for k in range(1, trials):  # down to the node numbers of each trial
        node[bounds[k] : bounds[k + 1]] -= k * nodes
    solved = [k for k in range(trials) if sizes[k]]

    def operator(rows: list[int]):
        picked = [solved[r] for r in rows]
        if len(picked) == 1:
            # a lone trial takes a 1-D array, which the passes walk faster
            [k] = picked
            weights = sqrt_m[bounds[k] : bounds[k + 1]]
            index = node[bounds[k] : bounds[k + 1]]
            full = np.empty(nodes)
        else:
            member = np.zeros(trials, dtype=bool)
            member[picked] = True
            keep = np.repeat(member, sizes)
            weights = sqrt_m[keep]
            slots = np.repeat(np.arange(len(picked)), sizes[picked])
            index = node[keep] * len(picked) + slots
            full = np.empty((nodes, len(picked)))
        flat = full.reshape(-1)

        def apply(g: np.ndarray) -> np.ndarray:
            full.fill(0.0)
            flat[index] = weights * g
            _subtree_sums_inplace(depth, full)
            _ancestor_sums_inplace(depth, full)
            return weights * flat[index]

        return apply

    results = [(0.0, 0, True)] * trials
    offsets = [bounds[k] for k in solved] + [node.size]
    solutions = _power_iteration(operator, np.ones(node.size), offsets, tol, max_iter)
    for k, solution in zip(solved, solutions):
        results[k] = solution
    return results


def embedding_constant(
    mu: TreeMeasure, tol: float = 1e-12, max_iter: int = 100_000
) -> EmbeddingReport:
    """Best embedding constant by power iteration on the support of mu.

    The constant is the largest eigenvalue of the Gram operator
    ``g -> sqrt(mu) * hardy_up(hardy_down(sqrt(mu) * g))`` restricted to
    the support; its kernel is ``sqrt(mu_p mu_q)`` times the number of
    common ancestors of p and q.  Iteration starts from the all-ones
    vector and stops once successive Rayleigh quotients agree to ``tol``
    relatively (twice in a row, to dodge spurious plateaus).
    """
    ratios = carleson_ratios(mu)
    [(value, iterations, converged)] = _embedding_values(
        mu.shape.depth, mu.masses[None], tol, max_iter
    )
    return EmbeddingReport(
        ratios.test_constant, value, ratios.argmax_node, iterations, converged
    )


def embedding_constants(
    measures: Sequence[TreeMeasure], tol: float = 1e-12, max_iter: int = 100_000
) -> list[EmbeddingReport]:
    """:func:`embedding_constant` of each measure, solved as one stack.

    The measures share one shape.  Their test ratios come from one pass
    pair over the stacked masses, and their power iterations run in one
    loop; each report equals the one :func:`embedding_constant` gives.
    """
    if not measures:
        return []
    shape = measures[0].shape
    for mu in measures:
        if mu.shape != shape:
            raise ShapeMismatchError(
                f"measures built for depths {shape.depth} and {mu.shape.depth}"
            )
    masses = np.stack([mu.masses for mu in measures])
    ratios = _test_ratios(shape.depth, masses.T)
    argmax = ratios.argmax(axis=0)
    tests = ratios[argmax, np.arange(len(measures))]
    solutions = _embedding_values(shape.depth, masses, tol, max_iter)
    return [
        EmbeddingReport(float(test), value, int(arg) + 1, iterations, converged)
        for test, arg, (value, iterations, converged) in zip(tests, argmax, solutions)
    ]


def embedding_constant_dense(mu: TreeMeasure) -> float:
    """Oracle: dense eigensolve of the Gram kernel on the support.

    Entry (p, q) is sqrt(mu_p mu_q) * (depth(lca(p, q)) + 1).  Intended
    for modest supports; the power iteration must agree with this.
    """
    supp = np.flatnonzero(mu.masses)
    if supp.size == 0:
        return 0.0
    ids = supp + 1
    common = _common_ancestors(ids[:, None], ids[None, :])  # depth(lca) + 1
    w = np.sqrt(mu.masses[supp])
    kernel = (w[:, None] * w[None, :]) * common
    return float(np.linalg.eigvalsh(kernel)[-1])


@dataclass(frozen=True)
class PairCheckResult:
    report: EmbeddingReport
    measure: TreeMeasure
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

    def counterexample(self) -> dict:
        """Structured failure report: the measure plus both constants."""
        return {
            "depth": self.measure.shape.depth,
            "support_mode": self.measure.support_mode,
            "masses": [float(x) for x in self.measure.masses],
            "test_constant": self.report.test_constant,
            "embedding_constant": self.report.embedding_constant,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
        }


def _pair_check(report: EmbeddingReport, mu: TreeMeasure,
                rel_tol: float) -> PairCheckResult:
    c_test = report.test_constant
    c_emb = report.embedding_constant
    scale = max(1.0, c_test, c_emb)
    lower_ok = c_test <= c_emb + rel_tol * scale
    upper_ok = c_emb <= 4.0 * c_test + rel_tol * scale
    return PairCheckResult(report, mu, lower_ok, upper_ok)


def embedding_pair_check(mu: TreeMeasure, rel_tol: float = 1e-9) -> PairCheckResult:
    """Check ``test <= embedding <= 4 * test`` with relative slack."""
    return _pair_check(embedding_constant(mu), mu, rel_tol)


def embedding_pair_checks(
    measures: Iterable[TreeMeasure], rel_tol: float = 1e-9
) -> Iterator[PairCheckResult]:
    """:func:`embedding_pair_check` of each measure, drawn and solved lazily
    as :func:`embedding_constants` stacks of about ``BATCH_ENTRIES`` masses."""
    for batch in _batches(measures, lambda mu: mu.masses.size):
        for report, mu in zip(embedding_constants(batch), batch):
            yield _pair_check(report, mu, rel_tol)


def embedding_lhs(phi, lam: TreeMeasure, alpha: AlphaSequence) -> EmbeddingSides:
    """Weighted embedding sum and its theorem counterpart.

    Returns ``(lhs, rhs)`` with ``lhs = sum_I alpha_I <phi lam>_I^2`` and
    ``rhs = <phi^2 lam>_root`` (the root interval has length 1).  When the
    weighted test constant is at most 1, ``lhs <= 4 * rhs``.
    """
    if alpha.shape != lam.shape:
        raise ShapeMismatchError("alpha and measure shapes differ")
    shape = lam.shape
    phi_a = as_node_array(shape, phi)
    inv_len = np.exp2(shape.depths().astype(float))
    pairing = subtree_sums(shape.depth, phi_a * lam.masses) * inv_len
    lhs = float((alpha.values * pairing**2).sum())
    rhs = float((phi_a**2 * lam.masses).sum())
    return EmbeddingSides(lhs, rhs)
