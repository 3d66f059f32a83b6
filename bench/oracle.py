"""Independent numpy recomputations used to check the CLI reports.

Nothing here imports ``dyadic_carleson``: every value is computed from
the benchmark's own arrays with its own code, so a check does not pass
merely because the package agrees with itself.  Tree arrays are in heap
order (root first, ``2**(depth+1) - 1`` entries); bi-tree measures are
``2**n x 2**m`` grids of boundary cells.
"""

from __future__ import annotations

import numpy as np

DENSE_LIMIT = 1024  # largest support handed to a dense eigensolve


# ---------------------------------------------------------------------------
# random inputs, drawn in the same order as the CLI draws them
# ---------------------------------------------------------------------------


def draw_tree_masses(rng, depth: int, mode: str, density: float = 0.7) -> np.ndarray:
    """Sparse exponential masses; ``mode`` is boundary-only or all-nodes."""
    nodes = (1 << (depth + 1)) - 1
    count = 1 << depth if mode == "boundary-only" else nodes
    draw = rng.exponential(1.0, count)
    draw *= rng.uniform(size=count) < density
    if not draw.any():
        draw[int(rng.integers(count))] = 1.0
    masses = np.zeros(nodes)
    masses[nodes - count:] = draw
    return masses


def draw_cells(rng, depths: tuple[int, int], density: float = 0.7) -> np.ndarray:
    grid = (1 << depths[0], 1 << depths[1])
    cells = rng.exponential(1.0, grid)
    cells *= rng.uniform(size=grid) < density
    if not cells.any():
        cells[int(rng.integers(grid[0])), int(rng.integers(grid[1]))] = 1.0
    return cells


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def tree_depth(values: np.ndarray) -> int:
    return int(len(values) + 1).bit_length() - 2


def subtree_totals(values: np.ndarray) -> np.ndarray:
    """Per-node total of ``values`` over the node's subtree."""
    depth = tree_depth(values)
    out = np.empty(len(values))
    below = None
    for level in range(depth, -1, -1):
        own = values[(1 << level) - 1:(1 << (level + 1)) - 1]
        below = own if below is None else own + below.reshape(-1, 2).sum(axis=1)
        out[(1 << level) - 1:(1 << (level + 1)) - 1] = below
    return out


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(len(num))
    positive = den > 0
    out[positive] = num[positive] / den[positive]
    return out


def tree_test_constant(masses: np.ndarray) -> float:
    """max over nodes R of sum_{Q <= R} mu(Q)^2 / mu(R)."""
    box = subtree_totals(masses)
    return float(_quotient(subtree_totals(box * box), box).max())


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Bit length of positive integers below 2**52 (0 maps to 0)."""
    _, exponent = np.frexp(values.astype(float))
    return exponent.astype(np.int64)


def tree_embedding_dense(masses: np.ndarray) -> float | None:
    """Largest eigenvalue of sqrt(mu_p mu_q) * #common ancestors(p, q).

    Returns None when the support exceeds DENSE_LIMIT nodes.
    """
    support = np.flatnonzero(masses)
    if support.size > DENSE_LIMIT:
        return None
    heap = support + 1
    level = _bit_length(heap) - 1
    p, q = heap[:, None], heap[None, :]
    top = np.minimum(level[:, None], level[None, :])
    differ = (p >> (level[:, None] - top)) ^ (q >> (level[None, :] - top))
    common = top + 1 - _bit_length(differ)
    root = np.sqrt(masses[support])
    kernel = np.outer(root, root) * common
    return float(np.linalg.eigvalsh(kernel)[-1])


def maximal_sides(masses: np.ndarray, phi: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the maximal inequality after scaling the box constant to 1.

    lhs sums mu(I)^2 times the squared running maximum, along the path from
    the root, of the subtree averages of phi; rhs is the integral of phi^2.
    """
    test = tree_test_constant(masses)
    lam = masses / test if test > 1.0 else masses
    den = subtree_totals(lam)
    running = _quotient(subtree_totals(phi * lam), den)
    for level in range(1, tree_depth(masses) + 1):
        lo, hi = (1 << level) - 1, (1 << (level + 1)) - 1
        parents = running[(1 << (level - 1)) - 1:lo]
        running[lo:hi] = np.maximum(running[lo:hi], np.repeat(parents, 2))
    return float((den * den * running * running).sum()), float((phi * phi * lam).sum())


def tree_certificate_totals(masses: np.ndarray) -> dict:
    """Closed forms of the constant-4 certificate with phi = 1.

    With alpha_Q = |Q|^2 the weighted test constant is the plain one, the
    certified sum is sum_I (sum_{K <= I} sqrt(lam_K))^2, and the Bellman
    value at the root is 4 (N - (sum sqrt lam)^2 / (sum lam + sum_I lam(I)^2)).
    """
    test = tree_test_constant(masses)
    lam = masses / test if test > 1.0 else masses
    roots = subtree_totals(np.sqrt(lam))
    box = subtree_totals(lam)
    nodes = len(masses)
    return {
        "test_constant": test,
        "total": float((roots * roots).sum()),
        "bellman_bound": 4.0 * (nodes - roots[0] ** 2 / (box[0] + float((box * box).sum()))),
        "upper_bound": 4.0 * nodes,
    }


# ---------------------------------------------------------------------------
# bi-trees
# ---------------------------------------------------------------------------


def block_sums(cells: np.ndarray) -> dict:
    """Rectangle integrals keyed by (row level, column level)."""
    rows, cols = cells.shape
    n, m = rows.bit_length() - 1, cols.bit_length() - 1
    out = {}
    for a in range(n + 1):
        folded = cells.reshape(1 << a, rows >> a, cols).sum(axis=1)
        for b in range(m + 1):
            out[a, b] = folded.reshape(1 << a, 1 << b, cols >> b).sum(axis=2)
    return out


def _fold_rows(block: np.ndarray) -> np.ndarray:
    return block.reshape(-1, 2, block.shape[1]).sum(axis=1)


def _fold_cols(block: np.ndarray) -> np.ndarray:
    return block.reshape(block.shape[0], -1, 2).sum(axis=2)


def one_box(cells: np.ndarray) -> tuple[float, dict]:
    """Largest rectangle ratio sum_{Q in R} mu(Q)^2 / mu(R) and all ratios.

    The sums over sub-rectangles come from inclusion-exclusion across the
    (row level, column level) lattice rather than from per-axis passes.
    Ratios are keyed by (row level, column level).
    """
    masses = block_sums(cells)
    n = max(a for a, _ in masses)
    m = max(b for _, b in masses)
    below: dict = {}
    ratios = {}
    for a in range(n, -1, -1):
        for b in range(m, -1, -1):
            total = masses[a, b] ** 2
            if a < n:
                total = total + _fold_rows(below[a + 1, b])
            if b < m:
                total = total + _fold_cols(below[a, b + 1])
            if a < n and b < m:
                total = total - _fold_cols(_fold_rows(below[a + 1, b + 1]))
            below[a, b] = total
            ratio = np.zeros(total.shape)
            positive = masses[a, b] > 0
            ratio[positive] = total[positive] / masses[a, b][positive]
            ratios[a, b] = ratio
    return max(float(r.max()) for r in ratios.values()), ratios


def ratio_at(ratios: dict, row_node: int, col_node: int) -> float:
    """Ratio of the rectangle given by 1-based heap indices."""
    a, b = row_node.bit_length() - 1, col_node.bit_length() - 1
    return float(ratios[a, b][row_node - (1 << a), col_node - (1 << b)])


def area_weighted_sides(cells: np.ndarray, phi: np.ndarray) -> tuple[float, float]:
    """(sum_R |R| (int_R phi dmu)^2, int phi^2 dmu)."""
    lhs = 0.0
    for (a, b), block in block_sums(phi * cells).items():
        lhs += float((block * block).sum()) / float(1 << (a + b))
    return lhs, float((phi * phi * cells).sum())


def _leaf_common(depth: int, index: np.ndarray) -> np.ndarray:
    return depth + 1 - _bit_length(index[:, None] ^ index[None, :])


def bi_embedding_dense(cells: np.ndarray) -> float | None:
    """Largest eigenvalue of the rectangle kernel on the active cells."""
    rows, cols = np.nonzero(cells > 0)
    if rows.size > DENSE_LIMIT:
        return None
    n = cells.shape[0].bit_length() - 1
    m = cells.shape[1].bit_length() - 1
    common = _leaf_common(n, rows) * _leaf_common(m, cols)
    root = np.sqrt(cells[rows, cols])
    return float(np.linalg.eigvalsh(np.outer(root, root) * common)[-1])


def set_test(cells: np.ndarray) -> float:
    """Exhaustive boundary-set test over every subset of the cells.

    A rectangle counts for a set when its whole shadow lies in the set.
    """
    rows, cols = cells.shape
    count = rows * cols
    subsets = np.arange(1 << count, dtype=np.int64)
    num = np.zeros(subsets.size)
    for (a, b), block in block_sums(cells).items():
        height, width = rows >> a, cols >> b
        for i in range(1 << a):
            for j in range(1 << b):
                shadow = 0
                for r in range(i * height, (i + 1) * height):
                    for c in range(j * width, (j + 1) * width):
                        shadow |= 1 << (r * cols + c)
                num += ((subsets & shadow) == shadow) * block[i, j] ** 2
    bits = (subsets[:, None] >> np.arange(count)) & 1
    den = bits @ cells.ravel()
    return float(_quotient(num, den).max())
