"""Array kernels of the tree and bi-tree layers against independent references.

The references are the earlier forms of the kernels: reshape/repeat tree
passes, rectangle integrals over a zero-padded rectangle array, the
Gram apply that builds every rectangle sum and spreads it back with two
ancestor passes, the fancy-index subset-sum passes of the exhaustive set
test, and the two power-iteration loops the embedding constants had
before they shared one, and the one-row loop that came before the stacked
one.  The pass kernels add in the same order and must
agree exactly.  Only the sign of a zero may differ in the tree passes: a
``reshape(...).sum(axis=1)`` of two -0.0 halves gives +0.0 in some numpy
versions and -0.0 in others.  Rectangle integrals, subset sums and both
power iterations agree bit for bit, and so does every row of a stacked
solve with its one-row solve.  The Gram apply adds in another
order and must agree to rounding, and also with a dense matvec of the
common-ancestor kernel.
"""

import math

import numpy as np
import pytest

from dyadic_carleson import (
    ALL_NODES,
    BOUNDARY_ONLY,
    BiMeasure,
    PreconditionError,
    ShapeMismatchError,
    TreeMeasure,
    bi_embedding_constant,
    bi_embedding_constant_dense,
    bitree_bellman_certify,
    build_bitree,
    build_tree,
    carleson_ratios,
    cell_point_mass,
    embedding_constant,
    embedding_constants,
    embedding_pair_check,
    embedding_pair_checks,
    leaf_point_mass,
    one_box_constant,
    one_box_constants,
    random_bimeasure,
    random_tree_measure,
    set_test_constant,
    uniform_bimeasure,
    uniform_boundary_measure,
)
from dyadic_carleson import carleson
from dyadic_carleson.bitree import (
    _apply_bi_gram,
    _bi_embedding_values,
    _child_pair_sums,
    _pairwise_common_ancestors,
    _probe_values,
    _rect_cell_masks,
    _subset_sums,
    normalized_to_unit_onebox,
    rect_integrals,
    rect_masses,
)
from dyadic_carleson.carleson import _batches, _power_iteration
from dyadic_carleson.cli import run_command
from dyadic_carleson.tree import (
    _ancestor_sums_inplace,
    _subtree_sums_inplace,
    ancestor_sums,
    subtree_sums,
)


def _ref_ancestor_sums(depth, values, axis=0):
    out = np.array(values, dtype=float)
    vw = np.moveaxis(out, axis, 0)
    for d in range(1, depth + 1):
        lo = (1 << d) - 1
        hi = (1 << (d + 1)) - 1
        parents = vw[(1 << (d - 1)) - 1 : lo]
        vw[lo:hi] += np.repeat(parents, 2, axis=0)
    return out


def _ref_subtree_sums(depth, values, axis=0):
    out = np.array(values, dtype=float)
    vw = np.moveaxis(out, axis, 0)
    for d in range(depth - 1, -1, -1):
        lo = (1 << d) - 1
        hi = (1 << (d + 1)) - 1
        children = vw[hi : (1 << (d + 2)) - 1]
        vw[lo:hi] += children.reshape(hi - lo, 2, *vw.shape[1:]).sum(axis=1)
    return out


def _ref_rect_integrals(shape, grid):
    n, m = shape.depths
    out = np.zeros(shape.node_counts)
    out[(1 << n) - 1 :, (1 << m) - 1 :] = grid
    out = _ref_subtree_sums(m, out, axis=1)
    return _ref_subtree_sums(n, out, axis=0)


def _ref_child_pair_sums(values, axis):
    work = np.moveaxis(values, axis, 0)
    internal = (work.shape[0] - 1) // 2
    out = np.zeros_like(work)
    if internal:
        out[:internal] = work[1:].reshape(internal, 2, *work.shape[1:]).sum(axis=1)
    return np.moveaxis(out, 0, axis)


def _ref_gram_apply(shape, weights, g):
    """Rectangle sums of ``weights * g``, summed back over containing rectangles."""
    n, m = shape.depths
    sums = _ref_rect_integrals(shape, weights * g)
    sums = _ref_ancestor_sums(m, sums, axis=1)
    sums = _ref_ancestor_sums(n, sums, axis=0)
    return weights * sums[(1 << n) - 1 :, (1 << m) - 1 :]


def _dense_gram_apply(shape, weights, g):
    n, m = shape.depths
    rows, cols = np.indices(shape.cell_grid)
    common = _pairwise_common_ancestors(
        n, rows.ravel() + (1 << n)
    ) * _pairwise_common_ancestors(m, cols.ravel() + (1 << m))
    w = weights.ravel()
    return (w * (common @ (w * g.ravel()))).reshape(shape.cell_grid)


def _inputs(rng, shape):
    """Exponential and normal draws, then normal draws with exact zeros."""
    plain = (rng.exponential(size=shape), rng.normal(size=shape))
    return plain, _signed_values(rng, shape)


def _signed_values(rng, shape):
    """Normal draws with runs of exact -0.0 and +0.0, so signed zeros meet."""
    values = rng.normal(size=shape)
    zeros = rng.uniform(size=shape) < 0.3
    values[zeros] = np.where(rng.uniform(size=shape)[zeros] < 0.7, -0.0, 0.0)
    return values


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# tree passes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", range(11))
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("other", [0, 1, 3])
def test_tree_passes_match_reference(depth, axis, other):
    rng = np.random.default_rng(depth * 10 + axis * 3 + other)
    size = (1 << (depth + 1)) - 1
    shape = (size, other) if axis == 0 else (other, size)
    plain, signed = _inputs(rng, shape)
    for fast, ref in ((subtree_sums, _ref_subtree_sums),
                      (ancestor_sums, _ref_ancestor_sums)):
        for values in plain:
            assert _same_bits(fast(depth, values, axis=axis),
                              ref(depth, values, axis=axis))
        assert np.array_equal(fast(depth, signed, axis=axis),
                              ref(depth, signed, axis=axis))


@pytest.mark.parametrize("depth", [0, 1, 5, 18])
def test_tree_passes_match_reference_1d(depth):
    plain, signed = _inputs(np.random.default_rng(depth), (1 << (depth + 1)) - 1)
    for fast, ref in ((subtree_sums, _ref_subtree_sums),
                      (ancestor_sums, _ref_ancestor_sums)):
        for values in plain:
            assert _same_bits(fast(depth, values), ref(depth, values))
        assert np.array_equal(fast(depth, signed), ref(depth, signed))


# ---------------------------------------------------------------------------
# rectangle integrals and child-pair sums
# ---------------------------------------------------------------------------

RECT_DEPTHS = [(0, 0), (0, 1), (1, 0), (0, 5), (5, 0), (0, 10), (10, 0),
               (1, 1), (2, 3), (3, 2), (4, 4), (6, 5), (7, 7), (9, 3)]


@pytest.mark.parametrize("depths", RECT_DEPTHS)
def test_rect_integrals_match_zero_padded_reference(depths):
    shape = build_bitree(*depths)
    rng = np.random.default_rng(sum(depths))
    plain, signed = _inputs(rng, shape.cell_grid)
    for grid in (*plain, signed, np.full(shape.cell_grid, -0.0)):
        got = rect_integrals(shape, grid)
        want = _ref_rect_integrals(shape, grid)
        assert np.array_equal(got, want)
        assert _same_bits(got, want)


@pytest.mark.parametrize("depths", RECT_DEPTHS)
def test_child_pair_sums_match_reference(depths):
    shape = build_bitree(*depths)
    plain, signed = _inputs(np.random.default_rng(7), shape.node_counts)
    for axis in (0, 1):
        for values in plain:
            assert _same_bits(_child_pair_sums(values, axis),
                              _ref_child_pair_sums(values, axis))
        assert np.array_equal(_child_pair_sums(signed, axis),
                              _ref_child_pair_sums(signed, axis))


# ---------------------------------------------------------------------------
# Gram apply of the embedding constant
# ---------------------------------------------------------------------------

GRAM_DEPTHS = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (0, 10),
               (10, 0), (4, 6), (5, 5)]


@pytest.mark.parametrize("depths", GRAM_DEPTHS)
def test_gram_apply_matches_dense_kernel(depths):
    shape = build_bitree(*depths)
    assert shape.cell_count <= 1024
    rng = np.random.default_rng(sum(depths) + 5)
    cells = rng.exponential(size=shape.cell_grid)
    cells *= rng.uniform(size=shape.cell_grid) < 0.7
    weights = np.sqrt(cells)
    for g in (rng.exponential(size=shape.cell_grid),
              rng.normal(size=shape.cell_grid)):
        got = _apply_bi_gram(shape.depths, weights, g)
        scale = np.abs(_dense_gram_apply(shape, np.abs(weights), np.abs(g))).max()
        for want in (_dense_gram_apply(shape, weights, g),
                     _ref_gram_apply(shape, weights, g)):
            assert np.abs(got - want).max() <= 1e-13 * scale
        assert np.all(got[cells == 0] == 0.0)


# ---------------------------------------------------------------------------
# scale of the measure and of phi
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e-14, 1e-10, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_bi_embedding_relative_stop_on_any_scale(scale):
    mu = random_bimeasure(21, build_bitree(4, 4))
    dense = bi_embedding_constant_dense(mu)
    report = bi_embedding_constant(mu.scaled(scale))
    assert report.converged
    assert report.value == pytest.approx(scale * dense, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("depths", [(4, 4), (6, 6), (8, 8)])
def test_certificate_verdict_is_homogeneous_in_phi(depths):
    shape = build_bitree(*depths)
    mu, _ = normalized_to_unit_onebox(random_bimeasure(3, shape, density=0.6))
    phi = np.random.default_rng(4).normal(size=shape.cell_grid)
    verdicts = {}
    for c in (1e-3, 1.0, 1e3, 1e6):
        cert = bitree_bellman_certify(mu, c * phi)
        verdicts[c] = (cert.ok, cert.martingale_ok, cert.global_ok)
    assert set(verdicts.values()) == {(True, True, True)}, verdicts


def test_certificate_checks_the_box_before_phi():
    shape = build_bitree(1, 1)
    mu = uniform_bimeasure(shape)
    message = r"box constant 2\.25 at rectangle \(1, 1\)"
    with pytest.raises(PreconditionError, match=message):
        bitree_bellman_certify(mu, np.full(shape.cell_grid, np.nan))
    with pytest.raises(PreconditionError, match="scale the measure"):
        bitree_bellman_certify(mu, np.ones((3, 3)))
    zero = BiMeasure(shape, np.zeros(shape.cell_grid))
    assert bitree_bellman_certify(zero, np.ones(shape.cell_grid)).ok


# ---------------------------------------------------------------------------
# subset sums of the exhaustive set test
# ---------------------------------------------------------------------------


def _ref_set_sums(mu):
    """Inputs of the subset sums: squared rectangle masses at each
    rectangle's cell mask, and cell masses at the one-cell masks."""
    shape = mu.shape
    size = 1 << shape.cell_count
    num = np.zeros(size)
    for mask, m in zip(_rect_cell_masks(shape), rect_masses(mu).ravel()):
        num[mask] += m * m
    den = np.zeros(size)
    den[1 << np.arange(shape.cell_count)] = mu.cells.ravel()
    return num, den


def _ref_subset_sums(values):
    size = values.size
    out = values.copy()
    for b in range(size.bit_length() - 1):
        bit = 1 << b
        idx = (np.arange(size) & bit).astype(bool)
        out[idx] += out[np.arange(size)[idx] ^ bit]
    return out


SET_TEST_DEPTHS = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2),
                   (2, 1), (3, 0), (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]


def _set_test_measures(shape):
    """Zero-mass cells, ties (uniform, and equal masses), a point, nothing."""
    rng = np.random.default_rng(shape.cell_count)
    sparse = rng.exponential(size=shape.cell_grid)
    sparse *= rng.uniform(size=shape.cell_grid) < 0.6
    equal = np.where(rng.uniform(size=shape.cell_grid) < 0.5, 2.0, 0.0)
    point = np.zeros(shape.cell_grid)
    point[-1, 0] = 3.0
    return [BiMeasure(shape, grid) for grid in (
        sparse, np.ones(shape.cell_grid), equal, point, np.zeros(shape.cell_grid))]


@pytest.mark.parametrize("bits", range(17))
def test_subset_sums_match_fancy_index_passes(bits):
    rng = np.random.default_rng(bits)
    for values in (rng.exponential(size=1 << bits), _signed_values(rng, 1 << bits)):
        got = values.copy()
        _subset_sums(got)
        assert _same_bits(got, _ref_subset_sums(values))


@pytest.mark.parametrize("depths", SET_TEST_DEPTHS)
def test_exhaustive_set_test_matches_fancy_index_reference(depths):
    shape = build_bitree(*depths)
    cols = shape.cell_grid[1]
    for mu in _set_test_measures(shape):
        sums = []
        for values in _ref_set_sums(mu):
            want = _ref_subset_sums(values)
            got = values.copy()
            _subset_sums(got)
            assert _same_bits(got, want)
            sums.append(want)
        num, den = sums
        ratios = np.zeros_like(num)
        np.divide(num, den, out=ratios, where=den > 0)
        best = int(np.argmax(ratios))
        result = set_test_constant(mu)
        assert _same_bits(np.float64(result.constant), ratios[best])
        assert result.witness == [
            divmod(k, cols) for k in range(shape.cell_count) if best >> k & 1
        ]


# ---------------------------------------------------------------------------
# power iterations
# ---------------------------------------------------------------------------


def _ref_tree_power(mu, tol=1e-12, max_iter=100_000):
    supp = np.flatnonzero(mu.masses)
    if supp.size == 0:
        return 0.0, 0, True
    depth = mu.shape.depth
    sqrt_m = np.sqrt(mu.masses[supp])
    g = np.ones(supp.size)
    g /= np.linalg.norm(g)
    rho_prev = rho = 0.0
    hits = iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        full = np.zeros(mu.shape.node_count)
        full[supp] = sqrt_m * g
        y = sqrt_m * ancestor_sums(depth, subtree_sums(depth, full))[supp]
        rho = float(g @ y)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            rho = 0.0
            converged = True
            break
        g = y / norm
        if abs(rho - rho_prev) <= tol * max(abs(rho), 1e-300):
            hits += 1
            if hits >= 2:
                converged = True
                break
        else:
            hits = 0
        rho_prev = rho
    return rho, iterations, converged


def _ref_bitree_power(mu, tol=1e-12, max_iter=100_000):
    active = mu.cells > 0
    if not active.any():
        return 0.0, 0, True
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
            return 0.0, iteration, True
        x = y / norm
        if abs(current - value) <= tol * max(abs(current), 1e-300):
            hits += 1
            if hits >= 2:
                return current, iteration, True
        else:
            hits = 0
        value = current
    return value, max_iter, False


def _same_outcome(got, want):
    value, iterations, converged = want
    return (_same_bits(np.float64(got[0]), np.float64(value))
            and got[1:] == (iterations, converged))


@pytest.mark.parametrize("depth", range(11))
@pytest.mark.parametrize("mode", [BOUNDARY_ONLY, ALL_NODES])
def test_tree_power_iteration_matches_old_loop(depth, mode):
    shape = build_tree(depth)
    zero = np.zeros(shape.node_count)
    measures = [random_tree_measure(depth, shape, support_mode=mode),
                random_tree_measure(depth + 50, shape, support_mode=mode, density=0.1),
                TreeMeasure(shape, zero, mode)]
    for mu in measures:
        for max_iter in (100_000, 2):
            report = embedding_constant(mu, max_iter=max_iter)
            got = (report.embedding_constant, report.iterations, report.converged)
            assert _same_outcome(got, _ref_tree_power(mu, max_iter=max_iter))
    # two Rayleigh quotients can agree at most once in two iterations
    assert not embedding_constant(measures[0], max_iter=2).converged


@pytest.mark.parametrize("depths", [(0, 0), (0, 3), (3, 0), (2, 2), (4, 4), (6, 6)])
def test_bitree_power_iteration_matches_old_loop(depths):
    shape = build_bitree(*depths)
    measures = [random_bimeasure(sum(depths), shape),
                random_bimeasure(sum(depths) + 50, shape, density=0.2),
                BiMeasure(shape, np.zeros(shape.cell_grid))]
    for mu in measures:
        for max_iter in (100_000, 2):
            report = bi_embedding_constant(mu, max_iter=max_iter)
            got = (report.value, report.iterations, report.converged)
            assert _same_outcome(got, _ref_bitree_power(mu, max_iter=max_iter))
    assert not bi_embedding_constant(measures[0], max_iter=2).converged


# ---------------------------------------------------------------------------
# stacked power iteration against the one-row loop
# ---------------------------------------------------------------------------


def _row_power_iteration(apply, x, tol, max_iter):
    """The power loop of one operator, as it was before trials were stacked."""
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


def _row_tree_solve(mu, tol=1e-12, max_iter=100_000):
    supp = np.flatnonzero(mu.masses)
    if supp.size == 0:
        return 0.0, 0, True
    sqrt_m = np.sqrt(mu.masses[supp])
    depth = mu.shape.depth
    full = np.zeros(mu.shape.node_count)

    def apply(g):
        full.fill(0.0)
        full[supp] = sqrt_m * g
        _subtree_sums_inplace(depth, full)
        _ancestor_sums_inplace(depth, full)
        return sqrt_m * full[supp]

    return _row_power_iteration(apply, np.ones(supp.size), tol, max_iter)


def _row_bitree_solve(mu, tol=1e-12, max_iter=100_000):
    active = mu.cells > 0
    if not active.any():
        return 0.0, 0, True
    weights = np.sqrt(mu.cells)

    def apply(x):
        return _apply_bi_gram(mu.shape.depths, weights, x.reshape(weights.shape)).ravel()

    return _row_power_iteration(apply, active.ravel().astype(float), tol, max_iter)


def _tree_stack(shape, mode):
    """Random, zero, point, uniform and sparse measures in one support mode."""
    depth = shape.depth
    point = leaf_point_mass(shape, 2 * shape.first_leaf - 1, 2.5)
    uniform = uniform_boundary_measure(shape, 3.0)
    if mode == ALL_NODES:
        masses = np.zeros(shape.node_count)
        masses[shape.node_count // 2] = 2.5
        point = TreeMeasure(shape, masses)
        uniform = TreeMeasure(shape, np.full(shape.node_count, 0.5))
    return [
        random_tree_measure(depth, shape, support_mode=mode),
        TreeMeasure(shape, np.zeros(shape.node_count), mode),
        point,
        uniform,
        random_tree_measure(depth + 50, shape, support_mode=mode, density=0.1),
        random_tree_measure(depth + 90, shape, support_mode=mode),
    ]


def _bitree_stack(shape):
    """Random, zero, point, uniform and sparse grids."""
    s = sum(shape.depths)
    rows, cols = shape.cell_grid
    return np.stack([
        random_bimeasure(s, shape).cells,
        np.zeros(shape.cell_grid),
        cell_point_mass(shape, rows - 1, cols // 2, 2.5).cells,
        uniform_bimeasure(shape, 3.0).cells,
        random_bimeasure(s + 50, shape, density=0.2).cells,
        random_bimeasure(s + 90, shape).cells,
    ])


@pytest.mark.parametrize("depth", range(9))
@pytest.mark.parametrize("mode", [BOUNDARY_ONLY, ALL_NODES])
def test_stacked_tree_rows_match_one_row_loop(depth, mode):
    measures = _tree_stack(build_tree(depth), mode)
    for max_iter in (100_000, 2):
        reports = embedding_constants(measures, max_iter=max_iter)
        assert len(reports) == len(measures)
        for mu, report in zip(measures, reports):
            got = (report.embedding_constant, report.iterations, report.converged)
            assert _same_outcome(got, _row_tree_solve(mu, max_iter=max_iter))
            ratios = carleson_ratios(mu)
            assert _same_bits(np.float64(report.test_constant),
                              np.float64(ratios.test_constant))
            assert report.argmax_node == ratios.argmax_node
            assert embedding_constant(mu, max_iter=max_iter) == report


@pytest.mark.parametrize("depths", [(0, 0), (0, 3), (3, 0), (2, 2), (4, 4)])
def test_stacked_bitree_rows_match_one_row_loop(depths):
    shape = build_bitree(*depths)
    stack = _bitree_stack(shape)
    for max_iter in (100_000, 2):
        solutions = _bi_embedding_values(depths, stack, max_iter=max_iter)
        assert len(solutions) == len(stack)
        for cells, got in zip(stack, solutions):
            mu = BiMeasure(shape, cells)
            assert _same_outcome(got, _row_bitree_solve(mu, max_iter=max_iter))
            single = bi_embedding_constant(mu, max_iter=max_iter)
            assert (single.value, single.iterations, single.converged) == got
    for cells, (gap, box, emb) in zip(stack, _probe_values(shape, stack)):
        mu = BiMeasure(shape, cells)
        want_box = one_box_constant(mu).constant
        want_emb = bi_embedding_constant(mu).value if want_box else 0.0
        assert (box, emb) == (want_box, want_emb)
        assert gap == (want_emb / want_box if want_box else 0.0)


def _block_operator(blocks):
    """Apply of the block-diagonal operator of the given rows of ``blocks``."""
    def operator(rows):
        def apply(x):
            out, start = [], 0
            for k in rows:
                size = len(blocks[k])
                out.append(blocks[k] @ x[start : start + size])
                start += size
            return np.concatenate(out)
        return apply
    return operator


def test_stacked_loop_matches_one_row_loop_on_every_exit():
    rng = np.random.default_rng(5)
    blocks = []
    for size in (1, 4, 3, 6, 2, 5, 3):
        a = rng.normal(size=(size, size))
        blocks.append(a @ a.T)
    blocks[2] = np.zeros((3, 3))              # zero image: value 0 at iteration 1
    blocks[4] = np.eye(2)                     # stops at iteration 3, the earliest
    blocks[6] = np.diag([1.0, 1.0 - 1e-3, 0.5])  # slow: runs into small max_iter
    starts = [rng.exponential(size=len(b)) + 0.1 for b in blocks]
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    for max_iter in (0, 1, 2, 3, 7, 100_000):
        got = _power_iteration(_block_operator(blocks), np.concatenate(starts),
                               offsets, 1e-12, max_iter)
        for k, block in enumerate(blocks):
            want = _row_power_iteration(lambda v, b=block: b @ v, starts[k], 1e-12,
                                        max_iter)
            assert _same_outcome(got[k], want), (k, max_iter)


def test_batches_of_none_and_of_one():
    assert _power_iteration(_block_operator([]), np.zeros(0), [0], 1e-12, 10) == []
    assert embedding_constants([]) == []
    assert embedding_pair_checks([]) == []
    assert one_box_constants([]) == []
    assert _bi_embedding_values((2, 2), np.zeros((0, 4, 4))) == []
    mu = random_tree_measure(3, build_tree(5))
    assert embedding_constants([mu]) == [embedding_constant(mu)]
    [pair] = embedding_pair_checks([mu])
    assert (pair.report, pair.ok) == (embedding_pair_check(mu).report, True)
    bi = random_bimeasure(3, build_bitree(2, 3))
    assert one_box_constants([bi]) == [one_box_constant(bi)]


def test_stacks_take_one_shape():
    with pytest.raises(ShapeMismatchError):
        embedding_constants([random_tree_measure(1, build_tree(2)),
                             random_tree_measure(1, build_tree(3))])
    with pytest.raises(ShapeMismatchError):
        one_box_constants([random_bimeasure(1, build_bitree(1, 2)),
                           random_bimeasure(1, build_bitree(2, 1))])


@pytest.mark.parametrize("depths", SET_TEST_DEPTHS + [(3, 3), (4, 2), (5, 5)])
def test_stacked_one_box_matches_one_box_constant(depths):
    # uniform and equal masses tie many rectangles; the zero grid ties all
    shape = build_bitree(*depths)
    measures = _set_test_measures(shape)
    for got, mu in zip(one_box_constants(measures), measures):
        want = one_box_constant(mu)
        assert _same_bits(np.float64(got.constant), np.float64(want.constant))
        assert got.argmax_rect == want.argmax_rect
    assert one_box_constants(measures)[-1] == (0.0, (1, 1))


# ---------------------------------------------------------------------------
# batch boundaries
# ---------------------------------------------------------------------------


def test_batches_are_lazy_and_bounded(monkeypatch):
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", 10)
    drawn = []

    def items():
        for i in range(7):
            drawn.append(i)
            yield i

    batches = _batches(items(), lambda item: 3)
    assert next(batches) == [0, 1, 2]
    assert drawn == [0, 1, 2]
    assert list(batches) == [[3, 4, 5], [6]]
    assert list(_batches(range(3), lambda item: 100)) == [[0], [1], [2]]


@pytest.mark.parametrize("argv", [
    "tree-test --depth 3 --trials 9 --seed 2",
    "tree-test --depth 2 --trials 7 --seed 3 --support all-nodes --format csv",
    "bitree-onebox --depths 2,1 --trials 9 --seed 3",
    "gap-probe --depths 1,2 --trials 9 --seed 4 --optimizer random",
])
def test_reports_do_not_depend_on_batch_size(argv, monkeypatch, tmp_path):
    out = tmp_path / "report"
    reports = []
    for budget in (carleson.BATCH_ENTRIES, 1, 20, 40):
        monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
        assert run_command(argv.split() + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1:] == reports[:1] * 3
