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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CarlesonError, PreconditionError, ShapeMismatchError, ValidationError
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


def _safe_ratio(num: np.ndarray, den: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0, into ``out`` (which may be ``num`` or ``den``)."""
    positive = den > 0
    if out is None:
        return np.divide(num, den, out=np.zeros_like(num), where=positive)
    np.divide(num, den, out=out, where=positive)
    np.putmask(out, np.logical_not(positive, out=positive), 0.0)
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
    ratios = _test_ratios(mu.shape.depth, mu.masses[:, None])
    [test] = _test_constants(mu.shape, ratios)
    return CarlesonRatios(NodeVector(mu.shape, ratios[:, 0]), *test)


def _weighted_ratios(shape: TreeShape, box: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Weighted test ratios of ``(nodes, trials)`` box masses and weights,
    written over the weights: ``alpha`` takes the squared box averages a row
    block at a time, then one subtree pass and the division by ``box``."""
    lengths = shape.lengths()[:, None]
    for rows in _row_blocks(*box.shape):
        averages = box[rows] / lengths[rows]
        averages **= 2
        alpha[rows] *= averages
    _subtree_sums_inplace(shape.depth, alpha)
    return _safe_ratio(alpha, box, out=alpha)


def _test_constants(shape: TreeShape, ratios: np.ndarray) -> list[AlphaTestResult]:
    """Largest ratio of each trial of ``(nodes, trials)`` ratios, and its node.

    This is the tree family's one check for non-finite ratios: the first
    trial with one raises, at its trial, the error that a
    :class:`NodeVector` of its ratios raises.
    """
    arg = ratios.argmax(axis=0)
    values = ratios[arg, np.arange(ratios.shape[1])].tolist()
    for k in np.flatnonzero(~np.isfinite(ratios).all(axis=0)).tolist():
        with _trial(k):
            NodeVector(shape, ratios[:, k])
    return [AlphaTestResult(v, a + 1) for v, a in zip(values, arg.tolist())]


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
    box = subtree_sums(lam.shape.depth, lam.masses[:, None])
    ratios = _weighted_ratios(lam.shape, box, alpha.values[:, None].copy())
    [result] = _test_constants(lam.shape, ratios)
    return result


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


# A stack holds about BATCH_ENTRIES measure entries in a few whole arrays (the bi-tree
# certificate: two rectangle arrays).  Sums run on whole per-trial arrays, whose bits
# numpy's pairwise order sets; elementwise passes, min and max run in cache-sized row blocks.
BATCH_ENTRIES = 1 << 17
BLOCK_ENTRIES = 1 << 15


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows of ``width`` entries, about ``BLOCK_ENTRIES`` each."""
    step = max(1, BLOCK_ENTRIES // width)
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


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


@contextmanager
def _trial(k: int) -> Iterator[None]:
    """Tag a library error raised in the block as the error of trial ``k``
    of its stack, for :func:`_stacks`."""
    try:
        yield
    except CarlesonError as exc:
        exc.trial = k
        raise


def _stacks(items: Iterable, kernel: Callable, entries: Callable,
            measure: Callable = lambda item: item) -> Iterator:
    """The results of ``kernel(shape, batch)`` over :func:`_batches` of items
    that carry measures, one result per item.

    ``measure(item)`` is the measure of an item and ``entries(shape)`` its
    size.  Every measure must have the shape of the first one, across all
    stacks: another shape raises ``ShapeMismatchError`` when its stack is
    drawn, whatever the stack size.  A kernel raises the error of a failing
    trial under :func:`_trial`; the kernel then runs again on the items
    before that trial until a run succeeds, its results are yielded, and
    the last error is raised.  So each error surfaces when the loop over the
    items reaches its trial, and only the error path pays for the re-runs.
    """
    shape = None
    for batch in _batches(items, lambda item: entries(measure(item).shape)):
        shape = shape or measure(batch[0]).shape
        for item in batch:
            if measure(item).shape != shape:
                raise ShapeMismatchError(
                    f"measures built for shapes {shape} and {measure(item).shape}"
                )
        results, error = None, None
        while results is None:
            try:
                results = kernel(shape, batch) if batch else []
            except CarlesonError as exc:
                if not hasattr(exc, "trial"):
                    raise
                batch, error = batch[: exc.trial], exc
        yield from results
        if error:
            raise error


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[k].dot(y[k])`` for each row ``k``: one BLAS dot per row."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _power_iteration(apply: Callable, x: np.ndarray, tol: float,
                     max_iter: int) -> list[tuple[float, int, bool]]:
    """Largest eigenvalues of a stack of positive semidefinite operators.

    Row ``k`` of the C-contiguous ``(trials, size)`` stack ``x`` is the start
    vector of operator ``k``; the loop takes over ``x``.  ``apply`` maps the
    stack to a C-contiguous stack of the same shape, each row by its own
    operator, and may reuse the buffer of the stack it was given the call
    before; the loop normalizes the image in place.  A row that stops is
    zeroed and stays in place, so its operator must map a zero row to zero.

    A row whose start vector is zero (a measure without support) stops
    before the first apply with ``(0.0, 0, True)``.  Any other row stops once
    successive Rayleigh quotients agree to ``tol`` relatively twice in a row
    (to dodge spurious plateaus), or with value 0 when its image is the zero
    vector, or unconverged with value NaN when its image is not finite, or
    unconverged after ``max_iter`` iterations.  Its quotient and norm are
    dots of its own row, so a row's outcome does not depend on the rest of
    the stack.  Returns ``(value, iterations, converged)`` per row.
    """
    results = [(0.0, 0, True)] * len(x)
    norm = np.sqrt(_row_dots(x, x))
    running = norm > 0
    x /= np.where(running, norm, 1.0)[:, None]
    value, agreed = np.zeros(len(x)), np.zeros(len(x), dtype=bool)
    for iteration in range(1, max_iter + 1):
        if not running.any():
            break
        y = apply(x)
        current = _row_dots(x, y)
        norm = np.sqrt(_row_dots(y, y))
        for k in (norm == np.inf).nonzero()[0].tolist():  # squares overflow, not entries
            peak = np.abs(y[k]).max()
            norm[k] = peak * np.linalg.norm(y[k] / peak)
        ok = (0.0 < norm) & (norm < np.inf)  # neither a zero image nor one that overflowed
        y /= np.where(ok, norm, 1.0)[:, None]
        close = np.abs(current - value) <= tol * np.maximum(np.abs(current), 1e-300)
        stop = running & (~ok | (close & agreed))
        for k in stop.nonzero()[0].tolist():
            y[k] = 0.0
            results[k] = ((float(current[k]), iteration, True) if ok[k]
                          else (0.0, iteration, True) if norm[k] == 0.0
                          else (math.nan, iteration, False))
        running &= ~stop
        x, value, agreed = y, current, close
    for k in running.nonzero()[0].tolist():
        results[k] = (float(value[k]), max_iter, False)
    return results


def _embedding_reports(shape: TreeShape, measures: Sequence[TreeMeasure],
                       tol: float = 1e-12, max_iter: int = 100_000) -> list[EmbeddingReport]:
    """:func:`embedding_constant` of each measure of one shape.

    The test ratios come from one pass pair over the ``(nodes, trials)``
    stack of masses.  The power loop's stack holds one whole node vector
    per trial, from the indicator of its support.  ``sqrt(mu)`` is 0 off
    the support, so the apply multiplies by it into the masses' buffer,
    runs both tree passes in place along its node axis, and multiplies by
    it again into the other of two output buffers.  A measure without
    support is a zero row, which the loop stops with ``(0.0, 0, True)``.
    """
    depth = shape.depth
    masses = np.stack([mu.masses for mu in measures], axis=-1)
    tests = _test_constants(shape, _test_ratios(depth, masses))
    weights = np.sqrt(masses)
    x = (masses.T > 0).astype(float, order="C")
    spare = np.empty_like(x)

    def apply(g: np.ndarray) -> np.ndarray:
        nonlocal spare
        np.multiply(weights, g.T, out=masses)
        _subtree_sums_inplace(depth, masses)
        _ancestor_sums_inplace(depth, masses)
        y, spare = spare, g
        return np.multiply(masses.T, weights.T, out=y)

    solutions = _power_iteration(apply, x, tol, max_iter)
    return [EmbeddingReport(test.constant, value, test.argmax_node, iterations, converged)
            for test, (value, iterations, converged) in zip(tests, solutions)]


def embedding_constant(
    mu: TreeMeasure, tol: float = 1e-12, max_iter: int = 100_000
) -> EmbeddingReport:
    """Best embedding constant by power iteration on the support of mu.

    The constant is the largest eigenvalue of the Gram operator
    ``g -> sqrt(mu) * hardy_up(hardy_down(sqrt(mu) * g))`` restricted to
    the support; its kernel is ``sqrt(mu_p mu_q)`` times the number of
    common ancestors of p and q.  Iteration starts from the all-ones
    vector and stops once successive Rayleigh quotients agree to ``tol``
    relatively (twice in a row, to dodge spurious plateaus).  The stack
    kernel of :func:`embedding_constants`, on a stack of one.
    """
    [report] = _embedding_reports(mu.shape, [mu], tol, max_iter)
    return report


def embedding_constants(
    measures: Iterable[TreeMeasure], tol: float = 1e-12, max_iter: int = 100_000
) -> list[EmbeddingReport]:
    """:func:`embedding_constant` of each measure, solved as stacks of about
    ``BATCH_ENTRIES`` masses.

    The measures share one shape.  The test ratios of a stack come from one
    pass pair over its stacked masses, and its power iterations run in one
    loop; each report equals the one :func:`embedding_constant` gives.
    """
    return list(_stacks(measures, lambda shape, batch: _embedding_reports(
        shape, batch, tol, max_iter), lambda shape: shape.node_count))


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
    as :func:`embedding_constants` stacks of about ``BATCH_ENTRIES`` masses.
    All measures take the shape of the first."""
    def pair_checks(shape: TreeShape, batch: list) -> list[PairCheckResult]:
        return [_pair_check(report, mu, rel_tol)
                for report, mu in zip(_embedding_reports(shape, batch), batch)]

    return _stacks(measures, pair_checks, lambda shape: shape.node_count)


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
    pairing = subtree_sums(shape.depth, phi_a * lam.masses) / shape.lengths()
    lhs = float((alpha.values * pairing**2).sum())
    rhs = float((phi_a**2 * lam.masses).sum())
    return EmbeddingSides(lhs, rhs)
