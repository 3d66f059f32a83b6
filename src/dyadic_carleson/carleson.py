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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ShapeMismatchError, ValidationError
from .tree import (
    NodeVector,
    TreeMeasure,
    TreeShape,
    _ancestor_sums_inplace,
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
    "embedding_lhs",
    "embedding_pair_check",
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


def carleson_ratios(mu: TreeMeasure) -> CarlesonRatios:
    """Test ratios at every node, the test constant and its argmax node.

    Both the numerator and the denominator are subtree sums, so the whole
    computation is two leaf-to-root passes.
    """
    depth = mu.shape.depth
    box = subtree_sums(depth, mu.masses)
    num = subtree_sums(depth, box**2)
    ratios = _safe_ratio(num, box)
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


def _power_iteration(apply, x: np.ndarray, tol: float,
                     max_iter: int) -> tuple[float, int, bool]:
    """Largest eigenvalue of a positive semidefinite operator from start ``x``.

    ``apply`` maps a flat vector to a new array, which the loop then
    normalizes in place.  Stops once successive Rayleigh quotients agree
    to ``tol`` relatively twice in a row (to dodge spurious plateaus), or
    with value 0 when ``apply`` returns the zero vector.  Returns
    ``(value, iterations, converged)``.
    """
    x = x / math.sqrt(x.dot(x))
    value = 0.0
    hits = 0
    for iteration in range(1, max_iter + 1):
        y = apply(x)
        current = float(x.dot(y))
        norm = math.sqrt(y.dot(y))
        if norm == 0.0:
            return 0.0, iteration, True
        y /= norm
        x = y
        if abs(current - value) <= tol * max(abs(current), 1e-300):
            hits += 1
            if hits >= 2:
                return current, iteration, True
        else:
            hits = 0
        value = current
    return value, max_iter, False


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
    supp = np.flatnonzero(mu.masses)
    if supp.size == 0:
        return EmbeddingReport(ratios.test_constant, 0.0, ratios.argmax_node, 0, True)
    sqrt_m = np.sqrt(mu.masses[supp])
    depth = mu.shape.depth
    full = np.zeros(mu.shape.node_count)

    def apply(g: np.ndarray) -> np.ndarray:
        full.fill(0.0)
        full[supp] = sqrt_m * g
        _subtree_sums_inplace(depth, full)
        _ancestor_sums_inplace(depth, full)
        return sqrt_m * full[supp]

    value, iterations, converged = _power_iteration(
        apply, np.ones(supp.size), tol, max_iter
    )
    return EmbeddingReport(
        ratios.test_constant, value, ratios.argmax_node, iterations, converged
    )


def _bit_lengths(arr: np.ndarray) -> np.ndarray:
    out = np.zeros(arr.shape, dtype=np.int64)
    top = int(arr.max()) if arr.size else 0
    for b in range(top.bit_length()):
        out = np.where(arr >= (1 << b), b + 1, out)
    return out


def embedding_constant_dense(mu: TreeMeasure) -> float:
    """Oracle: dense eigensolve of the Gram kernel on the support.

    Entry (p, q) is sqrt(mu_p mu_q) * (depth(lca(p, q)) + 1).  Intended
    for modest supports; the power iteration must agree with this.
    """
    supp = np.flatnonzero(mu.masses)
    if supp.size == 0:
        return 0.0
    ids = supp + 1
    s = supp.size
    p = np.broadcast_to(ids[:, None], (s, s)).copy()
    q = np.broadcast_to(ids[None, :], (s, s)).copy()
    while True:
        gt = p > q
        lt = q > p
        if not gt.any() and not lt.any():
            break
        p = np.where(gt, p >> 1, p)
        q = np.where(lt, q >> 1, q)
    common = _bit_lengths(p).astype(float)  # depth(lca) + 1
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


def embedding_pair_check(mu: TreeMeasure, rel_tol: float = 1e-9) -> PairCheckResult:
    """Check ``test <= embedding <= 4 * test`` with relative slack."""
    report = embedding_constant(mu)
    c_test = report.test_constant
    c_emb = report.embedding_constant
    scale = max(1.0, c_test, c_emb)
    lower_ok = c_test <= c_emb + rel_tol * scale
    upper_ok = c_emb <= 4.0 * c_test + rel_tol * scale
    return PairCheckResult(report, mu, lower_ok, upper_ok)


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
