"""Dyadic rectangles on the product of two trees.

A rectangle is a pair of tree nodes (one per axis); the boundary is the
grid of leaf-leaf cells, and measures live on that grid.  The module
covers the rectangle-wise Carleson box test, the area-weighted embedding
with its full per-rectangle Bellman certificate, the boundary-set test,
the two-parameter embedding constant, and a randomized probe for the gap
between the box test and the embedding constant.

Rectangle arrays are indexed ``[row_node - 1, col_node - 1]`` with each
axis in heap order, so the array core from :mod:`.tree` accumulates over
either coordinate directly.  Quantities that only need the cell grid
(the Gram operator of the embedding constant) stay on the grid.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from .bellman import BellmanPoint, bellman_values
from .carleson import _safe_ratio
from .errors import (
    PreconditionError,
    ShapeMismatchError,
    SizeError,
    ValidationError,
)
from .tree import MAX_NODES_ENV, TreeShape, subtree_sums

__all__ = [
    "BiCertificateRow",
    "BiEmbeddingReport",
    "BiMeasure",
    "BiTreeCertificate",
    "BiTreeShape",
    "CubeEmbeddingReport",
    "DEFAULT_MAX_RECTS",
    "GapProbeConfig",
    "GapProbeReport",
    "OneBoxResult",
    "SET_TEST_STRATEGIES",
    "SetTestResult",
    "TrajectoryPoint",
    "bi_embedding_constant",
    "bi_embedding_constant_dense",
    "bitree_bellman_certify",
    "boundary_set_ratio",
    "build_bitree",
    "cell_point_mass",
    "cube_embedding_check",
    "gap_probe",
    "normalized_to_unit_onebox",
    "one_box_constant",
    "one_box_ratios",
    "rect_integrals",
    "set_test_constant",
    "uniform_bimeasure",
]

DEFAULT_MAX_RECTS = 1 << 22
EXHAUSTIVE_CELL_LIMIT = 16
DENSE_CELL_LIMIT = 1 << 10

STRATEGY_EXHAUSTIVE = "exhaustive"
STRATEGY_K_RECT = "k-rect-unions"
STRATEGY_RANDOM = "random-downsets"
SET_TEST_STRATEGIES = (STRATEGY_EXHAUSTIVE, STRATEGY_K_RECT, STRATEGY_RANDOM)


def _max_rects() -> int:
    raw = os.environ.get(MAX_NODES_ENV)
    if raw is None:
        return DEFAULT_MAX_RECTS
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{MAX_NODES_ENV} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class BiTreeShape:
    """Pair of tree depths with rectangle and boundary-cell layout."""

    depths: tuple[int, int]

    def __post_init__(self) -> None:
        n, m = self.depths
        if n < 0 or m < 0:
            raise ValidationError(f"depths must be nonnegative, got {self.depths}")

    @property
    def row_tree(self) -> TreeShape:
        return TreeShape(self.depths[0])

    @property
    def col_tree(self) -> TreeShape:
        return TreeShape(self.depths[1])

    @property
    def node_counts(self) -> tuple[int, int]:
        return (self.row_tree.node_count, self.col_tree.node_count)

    @property
    def rect_count(self) -> int:
        a, b = self.node_counts
        return a * b

    @property
    def cell_grid(self) -> tuple[int, int]:
        return (1 << self.depths[0], 1 << self.depths[1])

    @property
    def cell_count(self) -> int:
        r, c = self.cell_grid
        return r * c

    def areas(self) -> np.ndarray:
        """|R| for every rectangle, as an outer product of side lengths."""
        return np.outer(self.row_tree.lengths(), self.col_tree.lengths())

    def require_rect(self, rect: tuple[int, int]) -> None:
        u, v = rect
        self.row_tree.require_node(u)
        self.col_tree.require_node(v)

    def row_span(self, node: int) -> tuple[int, int]:
        """Half-open range of boundary row indices below a row node."""
        tree = self.row_tree
        tree.require_node(node)
        shift = tree.depth - tree.depth_of(node)
        first = tree.first_leaf
        return ((node << shift) - first, ((node + 1) << shift) - first)

    def col_span(self, node: int) -> tuple[int, int]:
        tree = self.col_tree
        tree.require_node(node)
        shift = tree.depth - tree.depth_of(node)
        first = tree.first_leaf
        return ((node << shift) - first, ((node + 1) << shift) - first)


def build_bitree(n: int, m: int) -> BiTreeShape:
    """Validated shape; rectangle count is capped by the size guard."""
    shape = BiTreeShape((int(n), int(m)))
    limit = _max_rects()
    if shape.rect_count > limit:
        raise SizeError(
            f"depths {shape.depths} give {shape.rect_count} rectangles, over the "
            f"limit {limit} (set {MAX_NODES_ENV} to raise it)"
        )
    return shape


def _checked_grid(shape: BiTreeShape, values, label: str) -> np.ndarray:
    grid = np.array(values, dtype=float)
    if grid.shape != shape.cell_grid:
        raise ShapeMismatchError(
            f"{label}: expected grid {shape.cell_grid}, got {grid.shape}"
        )
    bad = ~np.isfinite(grid)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValidationError(f"{label}[{i}][{j}]: non-finite entry {grid[i, j]}")
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, eq=False)
class BiMeasure:
    """Nonnegative masses on the boundary cells of a bi-tree."""

    shape: BiTreeShape
    cells: np.ndarray

    def __post_init__(self) -> None:
        grid = _checked_grid(self.shape, self.cells, "cells")
        neg = grid < 0
        if neg.any():
            i, j = np.argwhere(neg)[0]
            raise ValidationError(f"cells[{i}][{j}]: negative mass {grid[i, j]}")
        object.__setattr__(self, "cells", grid)

    @property
    def total_mass(self) -> float:
        return float(self.cells.sum())

    def scaled(self, factor: float) -> "BiMeasure":
        return BiMeasure(self.shape, self.cells * factor)


def uniform_bimeasure(shape: BiTreeShape, total: float = 1.0) -> BiMeasure:
    cells = np.full(shape.cell_grid, total / shape.cell_count)
    return BiMeasure(shape, cells)


def cell_point_mass(
    shape: BiTreeShape, row: int, col: int, mass: float = 1.0
) -> BiMeasure:
    rows, cols = shape.cell_grid
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValidationError(
            f"cell ({row}, {col}) outside the {rows}x{cols} boundary grid"
        )
    cells = np.zeros(shape.cell_grid)
    cells[row, col] = mass
    return BiMeasure(shape, cells)


def _fill_pair_levels(depth: int, out: np.ndarray, axis: int) -> None:
    """Fill the internal heap levels along ``axis`` with child-pair sums.

    Runs bottom-up from the leaf level, which must already be in place.
    Entries come out as ``0.0 + (left + right)``, the value a subtree
    pass over zero-initialised parents gives: two -0.0 halves make +0.0.
    """
    vw = np.moveaxis(out, axis, 0)
    for d in range(depth - 1, -1, -1):
        lo, hi, end = (1 << d) - 1, (1 << (d + 1)) - 1, (1 << (d + 2)) - 1
        level = vw[lo:hi]
        np.add(vw[hi:end:2], vw[hi + 1 : end : 2], out=level)
        if d == depth - 1:
            # only sums of leaf values can be -0.0; higher sums never are
            level += 0.0


def rect_integrals(shape: BiTreeShape, cell_values: np.ndarray) -> np.ndarray:
    """Integral of a boundary function over every rectangle.

    Pairwise level sums straight from the leaf grid: columns first (on
    the leaf rows), then rows over every column.  The row pass runs last
    so parent rows equal their child-pair sums bit for bit.
    """
    n, m = shape.depths
    grid = np.asarray(cell_values, dtype=float)
    if grid.shape != shape.cell_grid:
        raise ShapeMismatchError(
            f"expected grid {shape.cell_grid}, got {grid.shape}"
        )
    out = np.empty(shape.node_counts)
    leaf_rows = out[(1 << n) - 1 :]
    leaf_rows[:, (1 << m) - 1 :] = grid
    _fill_pair_levels(m, leaf_rows, axis=1)
    _fill_pair_levels(n, out, axis=0)
    return out


def rect_masses(mu: BiMeasure) -> np.ndarray:
    return rect_integrals(mu.shape, mu.cells)


def _box_sums(shape: BiTreeShape, masses: np.ndarray) -> np.ndarray:
    """Sum of mu(Q)^2 over rectangles Q below each R, both axes."""
    out = subtree_sums(shape.depths[1], masses**2, axis=1)
    return subtree_sums(shape.depths[0], out, axis=0)


def one_box_ratios(mu: BiMeasure) -> np.ndarray:
    masses = rect_masses(mu)
    return _safe_ratio(_box_sums(mu.shape, masses), masses)


class OneBoxResult(NamedTuple):
    constant: float
    argmax_rect: tuple[int, int]


def _largest_ratio(ratios: np.ndarray) -> OneBoxResult:
    u, v = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    return OneBoxResult(float(ratios[u, v]), (int(u) + 1, int(v) + 1))


def one_box_constant(mu: BiMeasure) -> OneBoxResult:
    """Largest rectangle-wise Carleson ratio and where it is attained."""
    return _largest_ratio(one_box_ratios(mu))


def normalized_to_unit_onebox(mu: BiMeasure) -> tuple[BiMeasure, float]:
    """Scale so the box constant becomes exactly 1; zero measure passes through."""
    constant = one_box_constant(mu).constant
    if constant == 0.0:
        return mu, 1.0
    return mu.scaled(1.0 / constant), 1.0 / constant


def _require_one_box(ratios: np.ndarray, tol: float = 1e-9) -> None:
    result = _largest_ratio(ratios)
    if result.constant > 1.0 + tol:
        raise PreconditionError(
            f"box constant {result.constant:.12g} at rectangle "
            f"{result.argmax_rect} exceeds 1; scale the measure by "
            f"1/{result.constant:.12g} first"
        )


@dataclass(frozen=True)
class CubeEmbeddingReport:
    lhs: float
    rhs: float
    ratio: float
    passed: bool


def cube_embedding_check(
    mu: BiMeasure, phi, tol: float = 1e-9
) -> CubeEmbeddingReport:
    """Area-weighted embedding with constant 4 under the unit box test.

    lhs sums |R| (integral of phi over R)^2 over all rectangles, rhs is
    the integral of phi^2; requires the box constant to be at most 1.
    """
    _require_one_box(one_box_ratios(mu))
    phi_grid = _checked_grid(mu.shape, phi, "phi")
    g1 = rect_integrals(mu.shape, phi_grid * mu.cells)
    lhs = float((mu.shape.areas() * g1**2).sum())
    rhs = float((phi_grid**2 * mu.cells).sum())
    ratio = lhs / rhs if rhs > 0 else 0.0
    return CubeEmbeddingReport(lhs, rhs, ratio, lhs <= 4.0 * rhs + tol)


@dataclass(frozen=True)
class BiCertificateRow:
    rect: tuple[int, int]
    point: BellmanPoint
    slack: float
    weighted_value: float


def _child_pair_sums(values: np.ndarray, axis: int) -> np.ndarray:
    """Per-parent child sums along one heap axis, zero at childless slots."""
    work = np.moveaxis(values, axis, 0)
    internal = (work.shape[0] - 1) // 2
    out = np.empty_like(work)
    np.add(work[1::2], work[2::2], out=out[:internal])
    out[internal:] = 0.0
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True, eq=False)
class BiTreeCertificate:
    """Row-by-row Bellman verification of the area-weighted embedding."""

    shape: BiTreeShape
    masses: np.ndarray
    box_sums: np.ndarray
    integrals: np.ndarray
    square_integrals: np.ndarray
    weighted_values: np.ndarray
    slacks: np.ndarray
    martingale_deviation: float
    martingale_ok: bool
    gain_margin: float
    gain_ok: bool
    min_slack: float
    slack_ok: bool
    telescope_deviation: float
    telescope_ok: bool
    lhs_total: float
    rhs_total: float
    upper_bound: float
    global_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.martingale_ok
            and self.gain_ok
            and self.slack_ok
            and self.telescope_ok
            and self.global_ok
        )

    def rows(self) -> Iterator[BiCertificateRow]:
        areas = self.shape.areas()
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.where(areas > 0, self.square_integrals / areas, 0.0)
            f = np.where(areas > 0, self.integrals / areas, 0.0)
            A = np.where(areas > 0, self.box_sums / areas, 0.0)
            v = np.where(areas > 0, self.masses / areas, 0.0)
        n1, n2 = self.shape.node_counts
        for u in range(n1):
            for v_ in range(n2):
                yield BiCertificateRow(
                    (u + 1, v_ + 1),
                    BellmanPoint(
                        float(F[u, v_]), float(f[u, v_]),
                        float(A[u, v_]), float(v[u, v_]),
                    ),
                    float(self.slacks[u, v_]),
                    float(self.weighted_values[u, v_]),
                )


def bitree_bellman_certify(
    mu: BiMeasure, phi, tol: float = 1e-9
) -> BiTreeCertificate:
    """Verify the area-weighted embedding rectangle by rectangle.

    Checks, per rectangle R with the aggregates at integral scale:

    * splitting either coordinate preserves the integrals of phi mu,
      phi^2 mu and mu exactly (to 1e-12 of the larger of 1, mu(root) and
      the root integral of phi^2 mu, which bound every entry; the
      measure lives on cells, so both half-sums reproduce the whole);
    * the box sums gain at least mu(R)^2 over the averaged children;
    * |R|^2 B(x_R) minus the same for the existing children dominates
      |R| (integral of phi over R)^2 / 4, where B = F - f^2/(v + A);
    * summing those rows telescopes to the global bound with constant 4,
      to ``tol`` relative to the larger of 1 and the bound.

    Raises when the box constant exceeds 1, naming the worst rectangle.
    """
    shape = mu.shape
    M = rect_masses(mu)
    SQ = _box_sums(shape, M)
    _require_one_box(_safe_ratio(SQ, M))
    phi_grid = _checked_grid(shape, phi, "phi")
    G1 = rect_integrals(shape, phi_grid * mu.cells)
    G2 = rect_integrals(shape, phi_grid**2 * mu.cells)
    areas = shape.areas()

    deviation = 0.0
    for arr in (M, G1, G2):
        for axis in (0, 1):
            work = np.moveaxis(arr, axis, 0)
            internal = (work.shape[0] - 1) // 2
            if internal:
                dev = np.abs(work[1::2] + work[2::2] - work[:internal]).max()
                deviation = max(deviation, float(dev))
    # |G1| <= sqrt(G2 M) entrywise, so this bounds the three arrays
    magnitude = max(1.0, float(M[0, 0]), float(G2[0, 0]))
    martingale_ok = deviation <= 1e-12 * magnitude

    gain = SQ - 0.5 * (_child_pair_sums(SQ, 0) + _child_pair_sums(SQ, 1)) - M**2
    gain_margin = float(gain.min())
    gain_ok = gain_margin >= -1e-12

    G1sq = G1**2
    W = areas * (G2 - _safe_ratio(G1sq, M + SQ))
    childW = _child_pair_sums(W, 0) + _child_pair_sums(W, 1)
    slacks = W - childW - 0.25 * areas * G1sq
    min_slack = float(slacks.min())
    slack_ok = min_slack >= -tol

    net = float(W.sum() - childW.sum())
    expected = float(W[0, 0] - W[1:, 1:].sum())
    scale = max(1.0, float(np.abs(W).sum()))
    telescope_deviation = abs(net - expected)
    telescope_ok = telescope_deviation <= tol * scale

    lhs_total = float((areas * G1sq).sum())
    rhs_total = float(G2[0, 0])
    upper = 4.0 * rhs_total
    global_ok = lhs_total <= upper + tol * max(1.0, upper)

    return BiTreeCertificate(
        shape=shape,
        masses=M,
        box_sums=SQ,
        integrals=G1,
        square_integrals=G2,
        weighted_values=W,
        slacks=slacks,
        martingale_deviation=deviation,
        martingale_ok=martingale_ok,
        gain_margin=gain_margin,
        gain_ok=gain_ok,
        min_slack=min_slack,
        slack_ok=slack_ok,
        telescope_deviation=telescope_deviation,
        telescope_ok=telescope_ok,
        lhs_total=lhs_total,
        rhs_total=rhs_total,
        upper_bound=upper,
        global_ok=global_ok,
    )


# ---------------------------------------------------------------------------
# boundary-set test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetTestResult:
    constant: float
    witness: list[tuple[int, int]]
    strategy: str


def _cells_of_mask(shape: BiTreeShape, mask: int) -> list[tuple[int, int]]:
    cols = shape.cell_grid[1]
    return [divmod(k, cols) for k in range(shape.cell_count) if mask >> k & 1]


def _rect_cell_masks(shape: BiTreeShape) -> list[int]:
    """Boundary cells below each rectangle as a bitmask, row-major bits."""
    rows, cols = shape.cell_grid
    masks = []
    for u in range(1, shape.node_counts[0] + 1):
        rs, re = shape.row_span(u)
        for v in range(1, shape.node_counts[1] + 1):
            cs, ce = shape.col_span(v)
            stripe = ((1 << (ce - cs)) - 1) << cs
            mask = 0
            for i in range(rs, re):
                mask |= stripe << (i * cols)
            masks.append(mask)
    return masks


def _set_ratio(mu: BiMeasure, masses: np.ndarray, member: np.ndarray) -> float:
    """Test ratio of one boundary set given by a boolean grid."""
    total = float(mu.cells[member].sum())
    if total <= 0:
        return 0.0
    missing = rect_integrals(mu.shape, (~member).astype(float))
    covered = missing == 0.0
    return float((masses[covered] ** 2).sum()) / total


def boundary_set_ratio(mu: BiMeasure, member) -> float:
    """Test ratio of one boundary set.

    Counts the squared masses of the rectangles whose boundary cells all
    belong to the set, divided by the mass of the set (0 when massless).
    """
    grid = np.asarray(member, dtype=bool)
    if grid.shape != mu.shape.cell_grid:
        raise ShapeMismatchError(
            f"expected grid {mu.shape.cell_grid}, got {grid.shape}"
        )
    return _set_ratio(mu, rect_masses(mu), grid)


def _exhaustive_set_test(mu: BiMeasure) -> tuple[float, int]:
    shape = mu.shape
    cells = shape.cell_count
    if cells > EXHAUSTIVE_CELL_LIMIT:
        raise SizeError(
            f"exhaustive strategy needs at most {EXHAUSTIVE_CELL_LIMIT} boundary "
            f"cells, got {cells}; use {STRATEGY_K_RECT} or {STRATEGY_RANDOM}"
        )
    size = 1 << cells
    masses = rect_masses(mu).ravel()
    num = np.zeros(size)
    for mask, m in zip(_rect_cell_masks(shape), masses):
        num[mask] += m * m
    den = np.zeros(size)
    den[1 << np.arange(cells)] = mu.cells.ravel()
    # subset-sum (zeta) passes: after bit b, each entry holds the sum of
    # its sources with that bit optionally cleared
    for b in range(cells):
        bit = 1 << b
        idx = (np.arange(size) & bit).astype(bool)
        num[idx] += num[np.arange(size)[idx] ^ bit]
        den[idx] += den[np.arange(size)[idx] ^ bit]
    ratios = np.zeros(size)
    np.divide(num, den, out=ratios, where=den > 0)
    best = int(np.argmax(ratios))
    return float(ratios[best]), best


def set_test_constant(
    mu: BiMeasure,
    strategy: str = STRATEGY_EXHAUSTIVE,
    *,
    k: int = 2,
    trials: int = 1000,
    seed: int = 0,
) -> SetTestResult:
    """Best boundary-set test ratio found by the chosen strategy.

    A rectangle counts toward a set E when every boundary cell below it
    belongs to E; the ratio divides the sum of squared masses of the
    counted rectangles by the mass of E.  ``exhaustive`` enumerates all
    subsets (at most 16 cells), ``k-rect-unions`` takes unions of up to
    ``k`` rectangle shadows, ``random-downsets`` samples ``trials``
    random subsets with a seeded generator.
    """
    if strategy == STRATEGY_EXHAUSTIVE:
        constant, mask = _exhaustive_set_test(mu)
        return SetTestResult(constant, _cells_of_mask(mu.shape, mask), strategy)

    shape = mu.shape
    masses = rect_masses(mu)
    best = 0.0
    best_member = np.zeros(shape.cell_grid, dtype=bool)
    if strategy == STRATEGY_K_RECT:
        if k < 1:
            raise ValidationError(f"k must be at least 1, got {k}")
        n1, n2 = shape.node_counts
        rects = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
        total = sum(math.comb(len(rects), j) for j in range(1, k + 1))
        if total > 200_000:
            raise SizeError(
                f"{total} rectangle combinations for k={k}; use {STRATEGY_RANDOM}"
            )
        for size in range(1, k + 1):
            for combo in combinations(rects, size):
                member = np.zeros(shape.cell_grid, dtype=bool)
                for u, v in combo:
                    rs, re = shape.row_span(u)
                    cs, ce = shape.col_span(v)
                    member[rs:re, cs:ce] = True
                ratio = _set_ratio(mu, masses, member)
                if ratio > best:
                    best, best_member = ratio, member
    elif strategy == STRATEGY_RANDOM:
        if trials < 0:
            raise ValidationError(f"trials must be nonnegative, got {trials}")
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            p = rng.uniform(0.05, 0.95)
            member = rng.uniform(size=shape.cell_grid) < p
            ratio = _set_ratio(mu, masses, member)
            if ratio > best:
                best, best_member = ratio, member
    else:
        raise ValidationError(
            f"unknown strategy {strategy!r}; expected one of {SET_TEST_STRATEGIES}"
        )
    witness = [(int(i), int(j)) for i, j in np.argwhere(best_member)]
    return SetTestResult(best, witness, strategy)


# ---------------------------------------------------------------------------
# two-parameter embedding constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiEmbeddingReport:
    value: float
    iterations: int
    converged: bool


def _common_ancestor_apply(depth: int, x: np.ndarray, axis: int) -> np.ndarray:
    """``C x`` along one axis of a leaf array, ``C[i, j]`` the common ancestors.

    Leaves ``i`` and ``j`` of a depth-``depth`` tree share one ancestor per
    level at which their blocks coincide, so ``C x`` adds, at every leaf,
    the block sums of ``x`` over the leaf's blocks at all levels: block
    sums up the levels, then each level broadcast down onto its children.
    """
    before = math.prod(x.shape[:axis])
    work = x.reshape(before, x.shape[axis], -1)
    levels = [work]
    for _ in range(depth):
        work = work[:, 0::2] + work[:, 1::2]
        levels.append(work)
    out = levels.pop()
    while levels:
        fine = levels.pop()
        rows, half, after = out.shape
        out = (fine.reshape(rows, half, 2, after) + out[:, :, None]).reshape(fine.shape)
    return out.reshape(x.shape)


def _apply_bi_gram(
    depths: tuple[int, int], weights: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """``W (C_n ⊗ C_m) W g`` on the cell grid, ``W`` the diagonal of ``weights``.

    ``C_n ⊗ C_m`` counts the rectangles containing both cells of a pair,
    so this sums the weighted rectangle integrals back over every
    rectangle containing each cell, one axis at a time.
    """
    x = _common_ancestor_apply(depths[1], weights * g, axis=1)
    return weights * _common_ancestor_apply(depths[0], x, axis=0)


def bi_embedding_constant(
    mu: BiMeasure, tol: float = 1e-12, max_iter: int = 100_000
) -> BiEmbeddingReport:
    """Largest eigenvalue of the rectangle-summation Gram operator.

    Power iteration on the cell grid from the indicator of the
    positive-mass cells; the operator applies square-root mass weights,
    accumulates rectangle integrals, and sums them back over all
    containing rectangles.  Convergence requires two consecutive Rayleigh
    quotients within relative ``tol``.
    """
    active = mu.cells > 0
    if not active.any():
        return BiEmbeddingReport(0.0, 0, True)
    weights = np.sqrt(mu.cells)
    x = active.astype(float)
    x /= np.linalg.norm(x)
    value = 0.0
    hits = 0
    for iteration in range(1, max_iter + 1):
        y = _apply_bi_gram(mu.shape.depths, weights, x)
        current = float(np.vdot(x, y))
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return BiEmbeddingReport(0.0, iteration, True)
        x = y / norm
        if abs(current - value) <= tol * max(abs(current), 1e-300):
            hits += 1
            if hits >= 2:
                return BiEmbeddingReport(current, iteration, True)
        else:
            hits = 0
        value = current
    return BiEmbeddingReport(value, max_iter, False)


def _pairwise_common_ancestors(depth: int, leaves: np.ndarray) -> np.ndarray:
    """Count of common ancestors for same-depth leaf heap indices."""
    xor = leaves[:, None] ^ leaves[None, :]
    shift = np.zeros_like(xor)
    work = xor.copy()
    while (work > 0).any():
        positive = work > 0
        shift[positive] += 1
        work >>= 1
    return depth + 1 - shift


def bi_embedding_constant_dense(mu: BiMeasure) -> float:
    """Dense eigensolve oracle for the embedding constant."""
    active = np.argwhere(mu.cells > 0)
    count = len(active)
    if count == 0:
        return 0.0
    if count > DENSE_CELL_LIMIT:
        raise SizeError(
            f"dense oracle limited to {DENSE_CELL_LIMIT} active cells, got {count}"
        )
    n, m = mu.shape.depths
    rows = active[:, 0] + (1 << n)
    cols = active[:, 1] + (1 << m)
    common = _pairwise_common_ancestors(n, rows) * _pairwise_common_ancestors(m, cols)
    w = np.sqrt(mu.cells[mu.cells > 0])
    kernel = np.outer(w, w) * common
    return float(max(0.0, np.linalg.eigvalsh(kernel)[-1]))


# ---------------------------------------------------------------------------
# gap probe
# ---------------------------------------------------------------------------


class TrajectoryPoint(NamedTuple):
    step: int
    gap: float
    one_box: float
    embedding: float


@dataclass(frozen=True)
class GapProbeConfig:
    depths: tuple[int, int]
    trials: int
    seed: int = 0
    optimizer: str = "anneal"

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValidationError(f"trials must be nonnegative, got {self.trials}")
        if self.optimizer not in ("random", "anneal"):
            raise ValidationError(
                f"optimizer must be 'random' or 'anneal', got {self.optimizer!r}"
            )


@dataclass(frozen=True, eq=False)
class GapProbeReport:
    config: GapProbeConfig
    best_gap: float | None
    best_one_box: float | None
    best_embedding: float | None
    best_cells: np.ndarray | None
    trajectory: list[TrajectoryPoint]


def _random_cells(rng: np.random.Generator, shape: BiTreeShape) -> np.ndarray:
    density = rng.uniform(0.3, 1.0)
    cells = rng.exponential(1.0, shape.cell_grid)
    cells *= rng.uniform(size=shape.cell_grid) < density
    if not cells.any():
        cells[0, 0] = 1.0
    return cells


def _probe_values(mu: BiMeasure) -> tuple[float, float, float]:
    box = one_box_constant(mu).constant
    if box == 0.0:
        return 0.0, 0.0, 0.0
    emb = bi_embedding_constant(mu).value
    return emb / box, box, emb


def gap_probe(config: GapProbeConfig) -> GapProbeReport:
    """Search boundary measures for a large embedding-to-box-test gap.

    The objective is scale invariant (both constants are linear in the
    measure).  ``random`` draws independent measures; ``anneal`` runs a
    single chain with per-cell proposals under a geometric temperature
    ramp.  Exploratory: the report carries evidence, not assertions.
    """
    shape = build_bitree(*config.depths)
    rng = np.random.default_rng(config.seed)
    trajectory: list[TrajectoryPoint] = []
    best_gap = None
    best = (None, None, None)

    if config.trials == 0:
        return GapProbeReport(config, None, None, None, None, trajectory)

    if config.optimizer == "random":
        for step in range(config.trials):
            cells = _random_cells(rng, shape)
            gap, box, emb = _probe_values(BiMeasure(shape, cells))
            trajectory.append(TrajectoryPoint(step, gap, box, emb))
            if best_gap is None or gap > best_gap:
                best_gap, best = gap, (box, emb, cells)
        box, emb, cells = best
        return GapProbeReport(config, best_gap, box, emb, cells, trajectory)

    cells = _random_cells(rng, shape)
    gap, box, emb = _probe_values(BiMeasure(shape, cells))
    best_gap, best = gap, (box, emb, cells.copy())
    start_t, end_t = 0.3, 1e-3
    for step in range(config.trials):
        frac = step / max(1, config.trials - 1)
        temperature = start_t * (end_t / start_t) ** frac
        proposal = cells.copy()
        i = int(rng.integers(shape.cell_grid[0]))
        j = int(rng.integers(shape.cell_grid[1]))
        move = rng.uniform()
        if move < 0.7 and proposal[i, j] > 0:
            proposal[i, j] *= math.exp(0.7 * rng.normal())
        elif move < 0.85:
            proposal[i, j] = rng.exponential(1.0)
        else:
            proposal[i, j] = 0.0
        if not proposal.any():
            trajectory.append(TrajectoryPoint(step, gap, box, emb))
            continue
        new_gap, new_box, new_emb = _probe_values(BiMeasure(shape, proposal))
        accept = new_gap >= gap
        if not accept and new_gap > 0 and gap > 0:
            accept = rng.uniform() < math.exp(
                (math.log(new_gap) - math.log(gap)) / temperature
            )
        if accept:
            cells, gap, box, emb = proposal, new_gap, new_box, new_emb
            if gap > best_gap:
                best_gap, best = gap, (box, emb, cells.copy())
        trajectory.append(TrajectoryPoint(step, gap, box, emb))
    box, emb, cells = best
    return GapProbeReport(config, best_gap, box, emb, cells, trajectory)
