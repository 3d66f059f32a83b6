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
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import carleson
from .carleson import _batches, _power_iteration, _row_blocks, _safe_ratio, _stacks, _trial
from .errors import PreconditionError, ShapeMismatchError, SizeError, ValidationError
from .tree import (
    MAX_NODES_ENV, TreeShape, _common_ancestors, _count_past_limit, _size_limit,
    _subtree_sums_inplace,
)

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
    "UnitBoxCertificate",
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
    "unit_box_certificates",
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
    deepest = max(shape.depths)
    if _count_past_limit(deepest, limit):
        rect_count = f"at least 2^{deepest + 1} - 1"
    else:
        rect_count = shape.rect_count
        if rect_count <= limit:
            return shape
    raise SizeError(
        f"depths {shape.depths} give {rect_count} rectangles, over the "
        f"limit {limit} (set {MAX_NODES_ENV} to raise it)"
    )


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


def _rect_integrals(shape: BiTreeShape, *grids: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """:func:`rect_integrals` of the product of ``grids``, taken left to right
    on the leaf block of the output (``(phi, phi, cells)`` gives the bits of
    ``phi**2 * cells``), over the last two axes; leading axes are trials.
    Every entry of ``out``, when given, is overwritten."""
    n, m = shape.depths
    first, *rest = grids
    if out is None:
        out = np.empty(first.shape[:-2] + shape.node_counts)
    leaf_rows = out[..., (1 << n) - 1 :, :]
    leaves = leaf_rows[..., (1 << m) - 1 :]
    leaves[...] = first
    for grid in rest:
        leaves *= grid
    _fill_pair_levels(m, leaf_rows, axis=-1)
    _fill_pair_levels(n, out, axis=-2)
    return out


def _integral_rows(shape: BiTreeShape, phi: np.ndarray,
                   cells: np.ndarray) -> Iterator[tuple[slice, np.ndarray, slice]]:
    """The rows of ``_rect_integrals(shape, phi, cells)`` bit for bit, bottom-up,
    without the whole array: each ``(rows, heap, local)`` has the rows ``rows``
    at ``heap[..., local, :]``, valid until the next is taken.  Row ``i`` of a
    ``heap`` has its children at rows ``2i + 1`` and ``2i + 2``, as in the whole
    array, so ``_child_pairs(heap, local)`` pairs ``rows`` with their children.

    The row tree is cut into subtrees of ``2^h`` leaf rows, about
    ``carleson.BLOCK_ENTRIES`` entries, each summed into one buffer and yielded
    level by level; their roots are then the leaf level of the top levels,
    which are yielded in row blocks of about that size.  A row tree that is
    one such subtree comes whole, at once.
    """
    n, m = shape.depths
    cols = shape.node_counts[1]
    step = max(1, carleson.BLOCK_ENTRIES // (math.prod(phi.shape[:-2]) * cols))
    h = min(n, step.bit_length() - 1)
    if h == n:  # one subtree: the whole array, at most two row blocks
        rows = slice(0, shape.node_counts[0])
        yield rows, _rect_integrals(shape, phi, cells), rows
        return
    tops, sub = 1 << (n - h), BiTreeShape((h, m))
    heap = np.empty(phi.shape[:-2] + sub.node_counts)
    top = np.empty(phi.shape[:-2] + ((2 << (n - h)) - 1, cols))
    for s in range(tops):
        leaves = slice(s << h, (s + 1) << h)
        _rect_integrals(sub, phi[..., leaves, :], cells[..., leaves, :], out=heap)
        top[..., tops - 1 + s, :] = heap[..., 0, :]
        for e in range(h, -1, -1):
            first = (tops << e) - 1 + (s << e)
            yield slice(first, first + (1 << e)), heap, slice((1 << e) - 1, (2 << e) - 1)
    # the top's lowest summed level takes +0.0: the level above the leaves
    # when h = 0, and a no-op higher up, where no sum is -0.0
    _fill_pair_levels(n - h, top, axis=-2)
    for e in range(n - h - 1, -1, -1):
        for first in range((1 << e) - 1, (2 << e) - 1, step):
            rows = slice(first, min(first + step, (2 << e) - 1))
            yield rows, top, rows


def rect_masses(mu: BiMeasure) -> np.ndarray:
    return rect_integrals(mu.shape, mu.cells)


def _box_sums(shape: BiTreeShape, masses: np.ndarray) -> np.ndarray:
    """Sum of mu(Q)^2 over rectangles Q below each R, over the last two axes."""
    out = masses**2
    _subtree_sums_inplace(shape.depths[1], out.swapaxes(0, -1))
    _subtree_sums_inplace(shape.depths[0], out.swapaxes(0, -2))
    return out


def one_box_ratios(mu: BiMeasure) -> np.ndarray:
    masses = rect_masses(mu)
    return _safe_ratio(_box_sums(mu.shape, masses), masses)


class OneBoxResult(NamedTuple):
    constant: float
    argmax_rect: tuple[int, int]


def _largest_ratios(masses: np.ndarray, box_sums: np.ndarray) -> list[OneBoxResult]:
    """Largest box ratio of each array of a ``(trials, rows, cols)`` stack of
    rectangle masses and box sums, and where it is attained, one row block
    at a time.  The first largest in row-major order wins, as in
    ``np.argmax``.  This is the bi-tree family's one check for non-finite
    ratios: the first array with one raises, at its trial, a
    ``ValidationError`` that names its first such rectangle.
    """
    trials, rows, cols = masses.shape
    best, where, bad = np.full(trials, -np.inf), np.zeros(trials, dtype=np.int64), {}
    for block in _row_blocks(rows, trials * cols):
        ratios = _safe_ratio(box_sums[:, block], masses[:, block]).reshape(trials, -1)
        for k in np.flatnonzero(~np.isfinite(ratios).all(axis=1)).tolist():
            b = int(np.flatnonzero(~np.isfinite(ratios[k]))[0])
            bad.setdefault(k, (block.start * cols + b, ratios[k, b]))
        arg = ratios.argmax(axis=1)
        value = ratios[np.arange(trials), arg]
        higher = value > best
        best[higher], where[higher] = value[higher], arg[higher] + block.start * cols
    if bad:
        k = min(bad)
        b, value = bad[k]
        with _trial(k):
            raise ValidationError(
                f"rectangle {(b // cols + 1, b % cols + 1)}: non-finite box ratio {value}"
            )
    return [OneBoxResult(v, (b // cols + 1, b % cols + 1))
            for v, b in zip(best.tolist(), where.tolist())]


def _require_unit_box(boxes: list[OneBoxResult]) -> None:
    """The first of ``boxes`` whose constant exceeds 1 (to 1e-9) raises, at its trial."""
    for k, box in enumerate(boxes):
        if box.constant > 1.0 + 1e-9:
            with _trial(k):
                raise PreconditionError(
                    f"box constant {box.constant:.12g} at rectangle {box.argmax_rect} "
                    f"exceeds 1; scale the measure by 1/{box.constant:.12g} first"
                )


def one_box_constant(mu: BiMeasure) -> OneBoxResult:
    """Largest rectangle-wise Carleson ratio and where it is attained."""
    [result] = _one_box_results(mu.shape, mu.cells[None])
    return result


def _one_box_results(shape: BiTreeShape, cells: np.ndarray) -> list[OneBoxResult]:
    """:func:`one_box_constant` of each grid of a ``(trials, rows, cols)`` stack."""
    masses = _rect_integrals(shape, cells)
    return _largest_ratios(masses, _box_sums(shape, masses))


def one_box_constants(measures: Iterable[BiMeasure]) -> Iterator[OneBoxResult]:
    """:func:`one_box_constant` of each measure, drawn and solved lazily as
    stacks of about ``carleson.BATCH_ENTRIES`` cells; all measures take the
    shape of the first."""
    return _stacks(measures, lambda shape, batch: _one_box_results(
        shape, np.stack([mu.cells for mu in batch])), lambda shape: shape.cell_count)


def normalized_to_unit_onebox(mu: BiMeasure) -> tuple[BiMeasure, float]:
    """Scale so the box constant becomes exactly 1; zero measure passes through."""
    constant = one_box_constant(mu).constant
    scale = 1.0 / constant if constant else 1.0
    return (mu, 1.0) if scale == 1.0 else (mu.scaled(scale), scale)


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
    _require_unit_box(_one_box_results(mu.shape, mu.cells[None]))
    phi_grid = _checked_grid(mu.shape, phi, "phi")
    g1 = _rect_integrals(mu.shape, phi_grid, mu.cells)
    for rows in _row_blocks(g1.shape[0], g1.shape[-1]):
        block = g1[rows]
        np.square(block, out=block)
        block *= _areas(mu.shape, rows)
    lhs = float(g1.sum())  # |R| G1^2, written over G1 row block by row block
    rhs = float((phi_grid**2 * mu.cells).sum())
    ratio = lhs / rhs if rhs > 0 else 0.0
    return CubeEmbeddingReport(lhs, rhs, ratio, lhs <= 4.0 * rhs + tol)


def _child_pairs(values: np.ndarray, rows: slice):
    """Per axis of a rectangle array (or a stack of them, along leading
    axes): the parents in ``rows`` that have children on that axis, and
    those two children."""
    lo, hi = rows.start, max(rows.start, min(rows.stop, (values.shape[-2] - 1) // 2))
    yield (values[..., lo:hi, :], values[..., 2 * lo + 1 : 2 * hi : 2, :],
           values[..., 2 * lo + 2 : 2 * hi + 1 : 2, :])
    block = values[..., rows, :]
    yield block[..., : (values.shape[-1] - 1) // 2], block[..., 1::2], block[..., 2::2]


def _child_sums(values: np.ndarray, rows: slice) -> np.ndarray:
    """Row-axis plus column-axis child-pair sums at ``rows``, each 0 if childless."""
    out, cols = np.zeros_like(values[..., rows, :]), np.zeros_like(values[..., rows, :])
    (up, *below), (left, *right) = _child_pairs(values, rows)
    np.add(*below, out=out[..., : up.shape[-2], :])
    np.add(*right, out=cols[..., : left.shape[-1]])
    out += cols
    return out


def _areas(shape: BiTreeShape, rows: slice) -> np.ndarray:
    """The areas |R| of the rectangles in ``rows``: one row, to broadcast,
    when the rows are of one level and so share them."""
    if (rows.start + 1).bit_length() == rows.stop.bit_length():
        rows = slice(rows.start, rows.start + 1)
    return np.outer(shape.row_tree.lengths()[rows], shape.col_tree.lengths())


# Row-block steps of the certificate.  Each takes rectangle arrays, or stacks
# of them along leading axes, then a block of rows and its areas |R|, and the
# steps that read the integrals G1 of phi mu take G1's rows of the block last.


def _weigh(D: np.ndarray, W: np.ndarray, rows: slice, areas: np.ndarray,
           g1: np.ndarray) -> None:
    """Overwrite W on ``rows``, where it holds G2, with |R| (G2 - G1^2 / D),
    0/0 read as 0, where D = M + SQ: ``bellman.bellman_values`` without its
    factor 4.  D's rows are spent: they end up holding G1^2 / D."""
    d = D[..., rows, :]
    np.divide(g1**2, d, out=d, where=d > 0)
    block = W[..., rows, :]
    block -= d
    block *= areas


def _children(W: np.ndarray, out: np.ndarray, rows: slice, areas: np.ndarray) -> None:
    out[..., rows, :] = _child_sums(W, rows)


def _slack(W: np.ndarray, out: np.ndarray, rows: slice, areas: np.ndarray,
           g1: np.ndarray) -> None:
    """Overwrite ``out`` on ``rows``, where it holds the children's W, with the
    slacks W - childW - |R| G1^2 / 4."""
    out[..., rows, :] = W[..., rows, :] - out[..., rows, :] - 0.25 * areas * g1**2


def _blockwise(shape: BiTreeShape, step: Callable, *arrays: np.ndarray) -> np.ndarray:
    """``step(*arrays, rows, areas)`` over the row blocks, in order; returns
    the last array, which the step fills."""
    for rows in _row_blocks(arrays[0].shape[-2], arrays[0].size // arrays[0].shape[-2]):
        step(*arrays, rows, _areas(shape, rows))
    return arrays[-1]


def _streamed(shape: BiTreeShape, step: Callable, phi: np.ndarray, cells: np.ndarray,
              *arrays: np.ndarray) -> np.ndarray:
    """``step(*arrays, rows, areas, g1)`` over the rows of the integrals G1 of
    ``phi`` ``cells``, in the order :func:`_integral_rows` yields them; returns
    the last array, which the step fills."""
    for rows, heap, local in _integral_rows(shape, phi, cells):
        step(*arrays, rows, _areas(shape, rows), heap[..., local, :])
    return arrays[-1]


def _built(build: Callable) -> cached_property:
    """A certificate's rectangle array: ``build(cert)`` on first read, then
    kept, read-only."""
    def array(cert: BiTreeCertificate) -> np.ndarray:
        out = build(cert)
        out.flags.writeable = False
        return out
    return cached_property(array)


@dataclass(frozen=True, eq=False)
class BiTreeCertificate:
    """Per-rectangle Bellman verification of the area-weighted embedding.

    ``cells`` is the (scaled) measure and ``phi`` the checked grid that the
    verdicts certify.  The six rectangle arrays are built from those two on
    first read, by the row-block steps of the certificate itself, so they
    equal the arrays behind the verdicts bit for bit; each is then kept.
    """

    shape: BiTreeShape
    cells: np.ndarray
    phi: np.ndarray
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
        return (self.martingale_ok and self.gain_ok and self.slack_ok
                and self.telescope_ok and self.global_ok)

    masses = _built(lambda c: _rect_integrals(c.shape, c.cells))
    box_sums = _built(lambda c: _box_sums(c.shape, c.masses))
    integrals = _built(lambda c: _rect_integrals(c.shape, c.phi, c.cells))
    square_integrals = _built(lambda c: _rect_integrals(c.shape, c.phi, c.phi, c.cells))
    weighted_values = _built(lambda c: _streamed(
        c.shape, _weigh, c.phi, c.cells, c.masses + c.box_sums, c.square_integrals.copy()))
    # the children's W, then the slacks over them
    slacks = _built(lambda c: _streamed(
        c.shape, _slack, c.phi, c.cells, c.weighted_values,
        _blockwise(c.shape, _children, c.weighted_values, np.empty_like(c.masses))))


def bitree_bellman_certify(
    mu: BiMeasure, phi, tol: float = 1e-9
) -> BiTreeCertificate:
    """Verify the area-weighted embedding rectangle by rectangle.

    Checks, per rectangle R with the aggregates at integral scale:

    * splitting either coordinate preserves the integrals of phi mu,
      phi^2 mu and mu exactly (to 1e-12 of the larger of 1, mu(root) and
      the root integral of phi^2 mu, which bound every entry; the
      measure lives on cells, so both half-sums reproduce the whole);
    * the box sums gain at least mu(R)^2 over the averaged children
      (``gain_margin`` is the least gain over the rectangles with
      children and positive mass, 0.0 when there is none: a massless
      rectangle gains exactly 0);
    * |R|^2 B(x_R) minus the same for the existing children dominates
      |R| (integral of phi over R)^2 / 4, where B = F - f^2/(v + A);
    * summing those rows telescopes to the global bound with constant 4,
      to ``tol`` relative to the larger of 1 and the bound.

    Raises when the box constant exceeds 1, naming the worst rectangle.
    The check holds two rectangle arrays at once and keeps none of them.
    """
    [cert] = _certificates(mu.shape, mu.cells[None], [phi], tol)
    return cert


class UnitBoxCertificate(NamedTuple):
    measure: BiMeasure
    phi: object
    scale: float
    certificate: BiTreeCertificate


def unit_box_certificates(
    jobs: Iterable[tuple[BiMeasure, object]], tol: float = 1e-9
) -> Iterator[UnitBoxCertificate]:
    """:func:`bitree_bellman_certify` of each ``(mu, phi)`` after scaling
    ``mu`` to box constant 1 (a zero measure keeps scale 1).

    The jobs are drawn and solved lazily as stacks of about
    ``carleson.BATCH_ENTRIES`` rectangles; all measures take the shape of
    the first.  Each certificate equals the one-measure computation, and an
    error is raised when the loop over the jobs reaches its measure.
    """
    def certificates(shape: BiTreeShape, batch: list) -> list[UnitBoxCertificate]:
        cells = np.stack([mu.cells for mu, _ in batch])
        scales = [1.0 / box.constant if box.constant else 1.0
                  for box in _one_box_results(shape, cells)]
        cells *= np.array(scales)[:, None, None]
        certs = _certificates(shape, cells, [phi for _, phi in batch], tol)
        return [UnitBoxCertificate(mu, phi, scale, cert)
                for (mu, phi), scale, cert in zip(batch, scales, certs)]

    return _stacks(jobs, certificates, lambda shape: shape.rect_count, itemgetter(0))


def _certificates(shape: BiTreeShape, cells: np.ndarray, phis: list,
                  tol: float) -> list[BiTreeCertificate]:
    """:func:`bitree_bellman_certify` of each grid of a ``(trials, rows, cols)``
    stack with its phi.

    A stack holds two rectangle arrays.  The first pass runs over them in row
    blocks of about ``carleson.BLOCK_ENTRIES`` entries, in row order.  A block
    reads its own rows and the rows below them, so once it is done its rows
    may be overwritten.  It reads the masses ``M`` and box sums ``SQ`` and
    overwrites ``SQ`` with ``D = M + SQ``.  The integrals of phi^2 mu are then
    built into M's buffer.  The integrals ``G1`` of phi mu are never stored:
    :func:`_integral_rows` yields their rows bottom-up, and the second pass
    overwrites the same rows of the other array with W and of D with
    |R| G1^2 (for ``lhs``), so phi^2 mu's deviations are taken first.  D's
    buffer then holds in turn |W| (for the scales), the children's W (for the
    telescope) and the slacks, with G1 streamed again.  Min and max run per
    block, but each sum on a trial's whole array, in numpy's pairwise order,
    so each certificate equals the one-trial computation bit for bit.  The
    box constants are checked before the phis.
    """
    M = _rect_integrals(shape, cells)
    SQ = _box_sums(shape, M)
    _require_unit_box(_largest_ratios(M, SQ))
    phi = np.empty(cells.shape)
    for k, values in enumerate(phis):
        with _trial(k):
            phi[k] = _checked_grid(shape, values, "phi")
    cells.flags.writeable = phi.flags.writeable = False  # the certificates keep them
    trials, width = range(len(cells)), M.size // M.shape[1]
    mass_totals = M[:, 0, 0].tolist()
    # per trial: the largest deviation of each (array, axis) pair, and the least
    # gain over the rectangles with children and positive mass (0.0 when there
    # is none); a leaf-row, leaf-column rectangle has box sum M^2 and no
    # children, and a massless one has massless children, so both gain 0
    deviations = np.full((6, len(cells)), -np.inf)
    gain_margins = np.full(len(cells), np.inf)
    inner_rows, inner_cols = (M.shape[1] - 1) // 2, (M.shape[2] - 1) // 2

    def deviate(devs: np.ndarray, values: np.ndarray, rows: slice) -> None:
        for dev, (up, left, right) in zip(devs, _child_pairs(values, rows)):
            np.maximum(dev, np.abs(left + right - up).max((1, 2), initial=-np.inf), out=dev)

    for rows in _row_blocks(M.shape[1], width):
        deviate(deviations[:2], M, rows)
        gain = SQ[:, rows] - 0.5 * _child_sums(SQ, rows) - M[:, rows] ** 2
        gain[:, max(0, inner_rows - rows.start):, inner_cols:] = np.inf
        gain[M[:, rows] <= 0] = np.inf
        np.minimum(gain_margins, gain.min(axis=(1, 2)), out=gain_margins)
        np.add(M[:, rows], SQ[:, rows], out=SQ[:, rows])
    gain_margins[gain_margins == np.inf] = 0.0
    D, W = SQ, _rect_integrals(shape, phi, phi, cells, out=M)  # G2 until weighed
    rhs_totals = W[:, 0, 0].tolist()
    # |G1| <= sqrt(G2 M) entrywise, so this bounds the three arrays
    magnitudes = [max(1.0, m, g) for m, g in zip(mass_totals, rhs_totals)]
    for rows in _row_blocks(W.shape[1], width):
        deviate(deviations[4:], W, rows)
    for rows, heap, local in _integral_rows(shape, phi, cells):
        deviate(deviations[2:4], heap, local)
        g1, areas = heap[:, local], _areas(shape, rows)
        _weigh(D, W, rows, areas, g1)
        np.multiply(areas, g1**2, out=D[:, rows])
    del heap, g1  # the stream's last buffer
    lhs = [float(D[k].sum()) for k in trials]
    scales = [max(1.0, float(np.abs(W[k], out=D[k]).sum())) for k in trials]
    _blockwise(shape, _children, W, D)
    nets = [float(W[k].sum() - D[k].sum()) for k in trials]
    _streamed(shape, _slack, phi, cells, W, D)
    min_slacks = [float(D[k].min()) for k in trials]
    deviations, gain_margins = deviations.tolist(), gain_margins.tolist()

    results = []
    for k in trials:
        deviation = max(0.0, *(dev[k] for dev in deviations))
        telescope_deviation = abs(nets[k] - float(W[k, 0, 0] - W[k, 1:, 1:].sum()))
        upper = 4.0 * rhs_totals[k]
        results.append(BiTreeCertificate(
            shape=shape, cells=cells[k], phi=phi[k],
            martingale_deviation=deviation, martingale_ok=deviation <= 1e-12 * magnitudes[k],
            gain_margin=gain_margins[k], gain_ok=gain_margins[k] >= -1e-12,
            min_slack=min_slacks[k], slack_ok=min_slacks[k] >= -tol,
            telescope_deviation=telescope_deviation,
            telescope_ok=telescope_deviation <= tol * scales[k],
            lhs_total=lhs[k], rhs_total=rhs_totals[k], upper_bound=upper,
            global_ok=lhs[k] <= upper + tol * max(1.0, upper),
        ))
    return results


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


def _rect_cell_masks(shape: BiTreeShape) -> np.ndarray:
    """Boundary cells below each rectangle as a bitmask, row-major bits: the
    integral of the cell weights ``2**k``, exact in float64 up to 53 cells."""
    weights = 1 << np.arange(shape.cell_count).reshape(shape.cell_grid)
    return _rect_integrals(shape, weights).astype(np.int64)


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
    one_box_constant(mu)  # raises where the box ratios are not finite
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


def _exhaustive_set_test(mu: BiMeasure, masses: np.ndarray) -> tuple[float, int]:
    shape = mu.shape
    cells = shape.cell_count
    if cells > EXHAUSTIVE_CELL_LIMIT:
        raise SizeError(
            f"exhaustive strategy needs at most {EXHAUSTIVE_CELL_LIMIT} boundary "
            f"cells, got {cells}; use {STRATEGY_K_RECT} or {STRATEGY_RANDOM}"
        )
    size = 1 << cells
    num = np.zeros(size)
    np.add.at(num, _rect_cell_masks(shape).ravel(), masses.ravel() ** 2)
    den = np.zeros(size)
    den[1 << np.arange(cells)] = mu.cells.ravel()
    _subset_sums(num)
    _subset_sums(den)
    ratios = _safe_ratio(num, den)
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
    random subsets with a seeded generator.  A measure whose box ratios
    are not finite raises as in :func:`one_box_constant`.
    """
    one_box_constant(mu)  # raises where the box ratios are not finite
    masses = rect_masses(mu)
    if strategy == STRATEGY_EXHAUSTIVE:
        constant, mask = _exhaustive_set_test(mu, masses)
        return SetTestResult(constant, _cells_of_mask(mu.shape, mask), strategy)

    shape = mu.shape
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

    ``cells`` is ``(trials, rows, cols)``; the loop's stack is its
    ``(trials, rows * cols)`` view, from the indicator of the positive
    cells, and one ``_apply_bi_gram`` runs on every grid of the stack.  A
    grid without positive cells starts from zero, so the loop stops it with
    ``(0.0, 0, True)``.
    """
    weights = np.sqrt(cells)
    x = (cells > 0).astype(float, order="C").reshape(len(cells), math.prod(cells.shape[1:]))

    def apply(g: np.ndarray) -> np.ndarray:
        return _apply_bi_gram(depths, weights, g.reshape(weights.shape)).reshape(g.shape)

    return _power_iteration(apply, x, tol, max_iter)


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
    solutions = _bi_embedding_values(shape.depths, cells)
    return [(emb / box, box, emb) if box else (0.0, 0.0, 0.0)
            for box, (emb, _, _) in zip(boxes, solutions)]


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
