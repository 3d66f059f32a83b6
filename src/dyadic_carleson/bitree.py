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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .bellman import bellman_values
from .carleson import _batches, _power_iteration, _safe_ratio
from .errors import (
    PreconditionError,
    ShapeMismatchError,
    SizeError,
    ValidationError,
)
from .tree import MAX_NODES_ENV, TreeShape, _common_ancestors, _size_limit, subtree_sums

__all__ = [
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
    "one_box_constants",
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

    def row_span(self, node: int) -> tuple[int, int]:
        """Half-open range of boundary row indices below a row node."""
        return _leaf_span(self.row_tree, node)

    def col_span(self, node: int) -> tuple[int, int]:
        return _leaf_span(self.col_tree, node)


def _leaf_span(tree: TreeShape, node: int) -> tuple[int, int]:
    tree.require_node(node)
    shift = tree.depth - tree.depth_of(node)
    first = tree.first_leaf
    return ((node << shift) - first, ((node + 1) << shift) - first)


def build_bitree(n: int, m: int) -> BiTreeShape:
    """Validated shape; rectangle count is capped by the size guard."""
    shape = BiTreeShape((int(n), int(m)))
    limit = _size_limit(DEFAULT_MAX_RECTS)
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
    grid = np.asarray(cell_values, dtype=float)
    if grid.shape != shape.cell_grid:
        raise ShapeMismatchError(
            f"expected grid {shape.cell_grid}, got {grid.shape}"
        )
    return _rect_integrals(shape, grid)


def _rect_integrals(shape: BiTreeShape, grid: np.ndarray) -> np.ndarray:
    """:func:`rect_integrals` over the last two axes; leading axes are trials."""
    n, m = shape.depths
    out = np.empty(grid.shape[:-2] + shape.node_counts)
    leaf_rows = out[..., (1 << n) - 1 :, :]
    leaf_rows[..., (1 << m) - 1 :] = grid
    _fill_pair_levels(m, leaf_rows, axis=-1)
    _fill_pair_levels(n, out, axis=-2)
    return out


def rect_masses(mu: BiMeasure) -> np.ndarray:
    return rect_integrals(mu.shape, mu.cells)


def _box_sums(shape: BiTreeShape, masses: np.ndarray) -> np.ndarray:
    """Sum of mu(Q)^2 over rectangles Q below each R, over the last two axes."""
    out = subtree_sums(shape.depths[1], masses**2, axis=-1)
    return subtree_sums(shape.depths[0], out, axis=-2)


def _one_box_ratios(shape: BiTreeShape, masses: np.ndarray) -> np.ndarray:
    return _safe_ratio(_box_sums(shape, masses), masses)


def one_box_ratios(mu: BiMeasure) -> np.ndarray:
    return _one_box_ratios(mu.shape, rect_masses(mu))


class OneBoxResult(NamedTuple):
    constant: float
    argmax_rect: tuple[int, int]


def _largest_ratios(ratios: np.ndarray) -> list[OneBoxResult]:
    """Largest ratio of each rectangle array along the leading axes.

    The first largest in row-major order wins, as in ``np.argmax``.
    """
    cols = ratios.shape[-1]
    flat = ratios.reshape(-1, ratios.shape[-2] * cols)
    return [
        OneBoxResult(float(flat[k, b]), (b // cols + 1, b % cols + 1))
        for k, b in enumerate(flat.argmax(axis=1).tolist())
    ]


def one_box_constant(mu: BiMeasure) -> OneBoxResult:
    """Largest rectangle-wise Carleson ratio and where it is attained."""
    [result] = _largest_ratios(one_box_ratios(mu))
    return result


def _one_box_results(shape: BiTreeShape, cells: np.ndarray) -> list[OneBoxResult]:
    """:func:`one_box_constant` of each grid of a ``(trials, rows, cols)`` stack."""
    return _largest_ratios(_one_box_ratios(shape, _rect_integrals(shape, cells)))


def one_box_constants(measures: Iterable[BiMeasure]) -> Iterator[OneBoxResult]:
    """:func:`one_box_constant` of each measure, drawn and solved lazily as
    stacks of about ``carleson.BATCH_ENTRIES`` cells of one shape."""
    for batch in _batches(measures, lambda mu: mu.cells.size):
        shape = batch[0].shape
        for mu in batch:
            if mu.shape != shape:
                raise ShapeMismatchError(
                    f"measures built for depths {shape.depths} and {mu.shape.depths}"
                )
        yield from _one_box_results(shape, np.stack([mu.cells for mu in batch]))


def normalized_to_unit_onebox(mu: BiMeasure) -> tuple[BiMeasure, float]:
    """Scale so the box constant becomes exactly 1; zero measure passes through."""
    constant = one_box_constant(mu).constant
    if constant == 0.0:
        return mu, 1.0
    return mu.scaled(1.0 / constant), 1.0 / constant


def _require_one_box(ratios: np.ndarray, tol: float = 1e-9) -> None:
    [result] = _largest_ratios(ratios)
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
    """Per-rectangle Bellman verification of the area-weighted embedding."""

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
    W = areas * bellman_values(G2, G1, SQ, M, scale=1.0)
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


def _row_subset_sums(table: np.ndarray) -> None:
    """In place, row ``i`` of a ``2**k``-row table becomes its submask sum.

    One pass per bit ``b`` adds each row with the bit clear into the row
    with it set: in blocks of ``2 * 2**b`` rows, the upper half takes the
    lower half.
    """
    for b in range(table.shape[0].bit_length() - 1):
        halves = table.reshape(-1, 2, table.shape[1] << b)
        halves[:, 1] += halves[:, 0]


def _subset_sums(values: np.ndarray) -> None:
    """In place, entry ``mask`` of a ``2**k`` array becomes its submask sum.

    The passes run bit by bit from the lowest, as row passes of a table:
    the low bits on its transpose, so that every pass adds long rows
    rather than many short runs.
    """
    low = (values.size.bit_length() - 1) // 2
    grid = values.reshape(-1, 1 << low)
    flipped = grid.T.copy()
    _row_subset_sums(flipped)
    grid[:] = flipped.T
    _row_subset_sums(grid)


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
    _subset_sums(num)
    _subset_sums(den)
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

    The grid is the last two axes; leading axes are trials.
    ``C_n ⊗ C_m`` counts the rectangles containing both cells of a pair,
    so this sums the weighted rectangle integrals back over every
    rectangle containing each cell, one axis at a time.
    """
    x = _common_ancestor_apply(depths[1], weights * g, axis=-1)
    return weights * _common_ancestor_apply(depths[0], x, axis=-2)


def _bi_embedding_values(
    depths: tuple[int, int], cells: np.ndarray, tol: float = 1e-12,
    max_iter: int = 100_000,
) -> list[tuple[float, int, bool]]:
    """Power iteration of the Gram operator of each grid of a cell stack.

    ``cells`` is ``(trials, rows, cols)``; the active trials run as one
    ``_apply_bi_gram`` on their stacked grids.  A grid without positive
    cells gets ``(0.0, 0, True)``.
    """
    positive = cells > 0
    solved = np.flatnonzero(positive.any(axis=(1, 2)))
    weights, starts = np.sqrt(cells), positive.astype(float)
    if solved.size < len(cells):
        weights, starts = weights[solved], starts[solved]

    def operator(rows: list[int]):
        active = weights if len(rows) == len(weights) else weights[rows]

        def apply(x: np.ndarray) -> np.ndarray:
            return _apply_bi_gram(depths, active, x.reshape(active.shape)).ravel()

        return apply

    size = cells.shape[1] * cells.shape[2]
    results = [(0.0, 0, True)] * len(cells)
    offsets = range(0, (len(solved) + 1) * size, size)
    for k, solution in zip(solved, _power_iteration(operator, starts.ravel(), offsets,
                                                    tol, max_iter)):
        results[k] = solution
    return results


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
    [solution] = _bi_embedding_values(mu.shape.depths, mu.cells[None], tol, max_iter)
    return BiEmbeddingReport(*solution)


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
    common = (_common_ancestors(rows[:, None], rows[None, :])
              * _common_ancestors(cols[:, None], cols[None, :]))
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


def _probe_values(shape: BiTreeShape, cells: np.ndarray) -> list[tuple]:
    """``(gap, one-box, embedding)`` of each grid of a ``(trials, rows, cols)`` stack."""
    boxes = [result.constant for result in _one_box_results(shape, cells)]
    positive = [k for k, box in enumerate(boxes) if box != 0.0]
    values = [(0.0, 0.0, 0.0)] * len(boxes)
    solutions = _bi_embedding_values(shape.depths, cells[positive])
    for k, (emb, _, _) in zip(positive, solutions):
        values[k] = (emb / boxes[k], boxes[k], emb)
    return values


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
        draws = (_random_cells(rng, shape) for _ in range(config.trials))
        for batch in _batches(draws, np.size):
            values = _probe_values(shape, np.stack(batch))
            for cells, (gap, box, emb) in zip(batch, values):
                trajectory.append(TrajectoryPoint(len(trajectory), gap, box, emb))
                if best_gap is None or gap > best_gap:
                    best_gap, best = gap, (box, emb, cells)
        box, emb, cells = best
        return GapProbeReport(config, best_gap, box, emb, cells, trajectory)

    cells = _random_cells(rng, shape)
    [(gap, box, emb)] = _probe_values(shape, cells[None])
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
        [(new_gap, new_box, new_emb)] = _probe_values(shape, proposal[None])
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
