"""Array kernels of the tree and bi-tree layers against independent references.

The references are the earlier forms of the kernels: reshape/repeat tree
passes, rectangle integrals over a zero-padded rectangle array, the
Gram apply that builds every rectangle sum and spreads it back with two
ancestor passes, the fancy-index subset-sum passes of the exhaustive set
test, and two kinds of power loop.  The one-measure loops the embedding
constants had before they shared one stay as references; the tree's runs
on whole node vectors with zeros off the support, as the stacked solve
does, so each Rayleigh quotient is the same dot.  A one-row loop checks
the stacked loop on operators zero-padded to one size, row by row.  The
pass kernels add in the same order and must agree exactly.  Only the
sign of a zero may differ in the tree passes: a
``reshape(...).sum(axis=1)`` of two -0.0 halves gives +0.0 in some numpy
versions and -0.0 in others.  Rectangle integrals, subset sums and both
power iterations agree bit for bit, and so does every row of a stacked
solve with its one-row solve.  The Gram apply adds in another
order and must agree to rounding, and also with a dense matvec of the
common-ancestor kernel.  The common-ancestor counter of the dense oracles
must equal, exactly, the LCA loop and the xor-shift count it replaced and
a brute force over ancestor sets.  The stacked bi-tree certificates and
maximal checks must equal, bit for bit, the one-trial certificate,
theorem check, stopping decomposition and invariant check they replaced,
kept here with the per-trial normalization the CLI did before them.
"""

import codecs
import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from dyadic_carleson import (
    ALL_NODES,
    BOUNDARY_ONLY,
    BiMeasure,
    CarlesonError,
    PreconditionError,
    ShapeMismatchError,
    TreeMeasure,
    ValidationError,
    bi_embedding_constant,
    bi_embedding_constant_dense,
    bitree_bellman_certify,
    box_squared_alpha,
    build_bitree,
    build_tree,
    carleson_normalized,
    carleson_ratios,
    cell_point_mass,
    certify_tree_embedding,
    cube_embedding_check,
    embedding_constant,
    embedding_constant_dense,
    embedding_constants,
    embedding_pair_check,
    embedding_pair_checks,
    leaf_point_mass,
    load_measure,
    maximal_checks,
    maximal_theorem_check,
    one_box_constant,
    one_box_constants,
    random_bimeasure,
    random_cell_values,
    random_node_values,
    random_tree_measure,
    save_measure,
    set_test_constant,
    stopping_decomposition,
    uniform_bimeasure,
    uniform_boundary_measure,
    unit_box_certificates,
    verify_stopping_invariants,
)
from dyadic_carleson import bitree, carleson, instances, maximal
from dyadic_carleson.bitree import (
    BiTreeCertificate,
    _apply_bi_gram,
    _bi_embedding_values,
    _checked_grid,
    _child_sums,
    _probe_values,
    _rect_cell_masks,
    _subset_sums,
    normalized_to_unit_onebox,
    one_box_ratios,
    rect_integrals,
    rect_masses,
)
from dyadic_carleson.carleson import (
    AlphaSequence,
    _batches,
    _power_iteration,
    _safe_ratio,
    alpha_test_constant,
)
from dyadic_carleson.maximal import MaximalReport, StoppingDecomposition
from dyadic_carleson.cli import run_command
from dyadic_carleson.tree import (
    _ancestor_sums_inplace,
    _common_ancestors,
    _subtree_sums_inplace,
    ancestor_sums,
    as_node_array,
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
    """Whole-array child-pair sums along one heap axis, 0 at childless slots."""
    work = np.moveaxis(values, axis, 0)
    out = np.zeros_like(work)
    out[: (work.shape[0] - 1) // 2] = work[1::2] + work[2::2]
    return np.moveaxis(out, 0, axis)


def _ref_box_sums(shape, masses):
    """Sum of mu(Q)^2 over the rectangles Q below each R, by public passes."""
    n, m = shape.depths
    return subtree_sums(n, subtree_sums(m, masses**2, axis=1), axis=0)


def _ref_gram_apply(shape, weights, g):
    """Rectangle sums of ``weights * g``, summed back over containing rectangles."""
    n, m = shape.depths
    sums = _ref_rect_integrals(shape, weights * g)
    sums = _ref_ancestor_sums(m, sums, axis=1)
    sums = _ref_ancestor_sums(n, sums, axis=0)
    return weights * sums[(1 << n) - 1 :, (1 << m) - 1 :]


def _ref_pairwise_common_ancestors(depth, leaves):
    """Count of common ancestors for same-depth leaf heap indices."""
    xor = leaves[:, None] ^ leaves[None, :]
    shift = np.zeros_like(xor)
    work = xor.copy()
    while (work > 0).any():
        positive = work > 0
        shift[positive] += 1
        work >>= 1
    return depth + 1 - shift


def _ref_bit_lengths(arr):
    out = np.zeros(arr.shape, dtype=np.int64)
    top = int(arr.max()) if arr.size else 0
    for b in range(top.bit_length()):
        out = np.where(arr >= (1 << b), b + 1, out)
    return out


def _ref_lca_common_ancestors(ids):
    """Common ancestors of every pair of ``ids``: lift the larger until equal."""
    s = ids.size
    p = np.broadcast_to(ids[:, None], (s, s)).copy()
    q = np.broadcast_to(ids[None, :], (s, s)).copy()
    while True:
        gt = p > q
        lt = q > p
        if not gt.any() and not lt.any():
            break
        p = np.where(gt, p >> 1, p)
        q = np.where(lt, q >> 1, q)
    return _ref_bit_lengths(p)  # depth(lca) + 1


def _dense_gram_apply(shape, weights, g):
    n, m = shape.depths
    rows, cols = np.indices(shape.cell_grid)
    common = _ref_pairwise_common_ancestors(
        n, rows.ravel() + (1 << n)
    ) * _ref_pairwise_common_ancestors(m, cols.ravel() + (1 << m))
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
    # the row-block child sums of the certificate, over blocks of 1, 3 and
    # all rows, against the whole-array sums along each axis
    shape = build_bitree(*depths)
    stack = np.stack([*_inputs(np.random.default_rng(7), shape.node_counts)[0],
                      _signed_values(np.random.default_rng(8), shape.node_counts)])
    want = _ref_child_pair_sums(stack, 1) + _ref_child_pair_sums(stack, 2)
    rows = shape.node_counts[0]
    for step in (1, 3, rows):
        got = np.concatenate([_child_sums(stack, slice(r, min(r + step, rows)))
                              for r in range(0, rows, step)], axis=1)
        assert _same_bits(got, want)


STREAM_DEPTHS = [(0, 0), (0, 4), (4, 0), (2, 5), (5, 2), (6, 6)]


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("depths", STREAM_DEPTHS)
def test_streamed_integral_rows_match_the_whole_array(depths, trials, monkeypatch):
    # the certificate's G1 stream with row subtrees of one and two leaf rows,
    # of half the row tree's depth and of the whole row tree, on signed zeros
    # in both phi and the cells: every row comes once, not before its
    # children, paired with them as in the whole array, and with its bits
    shape = build_bitree(*depths)
    n, rows_count, cols = depths[0], *shape.node_counts
    rng = np.random.default_rng(sum(depths) + trials)
    phi, cells = (_signed_values(rng, (trials, *shape.cell_grid)) for _ in range(2))
    want = bitree._rect_integrals(shape, phi, cells)
    for leaves in sorted({1, 2, 1 << (n // 2), 1 << n}):
        monkeypatch.setattr(carleson, "BLOCK_ENTRIES", leaves * trials * cols)
        got, seen = np.full_like(want, np.nan), np.zeros(rows_count, dtype=bool)
        first_leaf, order = (1 << n) - 1, []
        for rows, heap, local in bitree._integral_rows(shape, phi, cells):
            order.append(rows)
            assert not seen[rows].any()
            seen[rows] = True
            parents = np.arange(rows.start, min(rows.stop, first_leaf))
            assert seen[2 * parents + 1].all() and seen[2 * parents + 2].all()
            got[:, rows] = heap[:, local]
            for part, whole in zip(bitree._child_pairs(heap, local),
                                   bitree._child_pairs(want, rows)):
                assert all(_same_bits(a, b) for a, b in zip(part, whole))
        # the first subtree's leaf rows come first, or the whole array at once
        first = (slice(0, rows_count) if leaves >= 1 << n
                 else slice(first_leaf, first_leaf + leaves))
        assert order[0] == first
        assert seen.all()
        assert _same_bits(got, want)


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
# common-ancestor counter of the dense oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("depth", range(11))
def test_common_ancestors_match_old_helpers(depth):
    nodes = np.arange(1, 1 << (depth + 1))
    got = _common_ancestors(nodes[:, None], nodes[None, :])
    assert np.array_equal(got, _ref_lca_common_ancestors(nodes))
    leaves = np.arange(1 << depth, 1 << (depth + 1))
    got = _common_ancestors(leaves[:, None], leaves[None, :])
    assert np.array_equal(got, _ref_pairwise_common_ancestors(depth, leaves))


def test_common_ancestors_match_ancestor_sets():
    nodes = range(1, 1 << 7)  # every node of depths 0-6, mixed depths
    ancestors = {k: {k >> s for s in range(k.bit_length())} for k in nodes}
    want = np.array([[len(ancestors[a] & ancestors[b]) for b in nodes]
                     for a in nodes])
    got = _common_ancestors(np.array(nodes)[:, None], np.array(nodes)[None, :])
    assert np.array_equal(got, want)


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


def _ref_rect_cell_masks(shape):
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


def _ref_set_sums(mu):
    """Inputs of the subset sums: squared rectangle masses at each
    rectangle's cell mask, and cell masses at the one-cell masks."""
    shape = mu.shape
    size = 1 << shape.cell_count
    num = np.zeros(size)
    for mask, m in zip(_ref_rect_cell_masks(shape), rect_masses(mu).ravel()):
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


@pytest.mark.parametrize("depths", SET_TEST_DEPTHS)
def test_rect_cell_masks_match_bit_loops(depths):
    shape = build_bitree(*depths)
    masks = _rect_cell_masks(shape)
    assert masks.shape == shape.node_counts
    assert masks.ravel().tolist() == _ref_rect_cell_masks(shape)


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
    support = mu.masses > 0
    if not support.any():
        return 0.0, 0, True
    depth = mu.shape.depth
    sqrt_m = np.sqrt(mu.masses)  # 0 off the support
    g = support.astype(float)
    g /= np.linalg.norm(g)
    rho_prev = rho = 0.0
    hits = iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        y = sqrt_m * ancestor_sums(depth, subtree_sums(depth, sqrt_m * g))
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
    support = mu.masses > 0
    if not support.any():
        return 0.0, 0, True
    sqrt_m = np.sqrt(mu.masses)  # 0 off the support
    depth = mu.shape.depth

    def apply(g):
        full = sqrt_m * g
        _subtree_sums_inplace(depth, full)
        _ancestor_sums_inplace(depth, full)
        return sqrt_m * full

    return _row_power_iteration(apply, support.astype(float), tol, max_iter)


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
    stack = _tree_stack(build_tree(depth), mode)
    # the zero measure is second, then first, then last in the stack
    for measures, max_iter in itertools.product(
            [stack, stack[1:] + stack[:1], stack[2:] + stack[:2]], (100_000, 2)):
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
    # the zero grid is second, then first, then last in the stack
    stacks = [np.roll(_bitree_stack(shape), -shift, axis=0) for shift in (0, 1, 2)]
    for stack, max_iter in itertools.product(stacks, (100_000, 2)):
        solutions = _bi_embedding_values(depths, stack, max_iter=max_iter)
        assert len(solutions) == len(stack)
        for cells, got in zip(stack, solutions):
            mu = BiMeasure(shape, cells)
            assert _same_outcome(got, _row_bitree_solve(mu, max_iter=max_iter))
            single = bi_embedding_constant(mu, max_iter=max_iter)
            assert (single.value, single.iterations, single.converged) == got
    for stack in stacks:
        for cells, (gap, box, emb) in zip(stack, _probe_values(shape, stack)):
            mu = BiMeasure(shape, cells)
            want_box = one_box_constant(mu).constant
            want_emb = bi_embedding_constant(mu).value if want_box else 0.0
            assert (box, emb) == (want_box, want_emb)
            assert gap == (want_emb / want_box if want_box else 0.0)


def _padded(blocks, starts, size):
    """The operators and start vectors of ``blocks``, zero-padded to ``size``."""
    ops, x = np.zeros((len(blocks), size, size)), np.zeros((len(blocks), size))
    for k, (block, start) in enumerate(zip(blocks, starts)):
        ops[k, : len(block), : len(block)] = block
        x[k, : len(start)] = start
    return ops, x


def _block_operator(ops):
    """Apply of the operator stack ``ops``, one matvec per row of the stack."""
    return lambda x: np.array([op @ row for op, row in zip(ops, x)])


def test_stacked_loop_matches_one_row_loop_on_every_exit():
    rng = np.random.default_rng(5)
    blocks = []
    for size in (1, 4, 3, 6, 2, 5, 3):
        a = rng.normal(size=(size, size))
        blocks.append(a @ a.T)
    blocks[2] = np.zeros((3, 3))              # zero image: value 0 at iteration 1
    blocks[4] = np.eye(2)                     # stops at iteration 3, the earliest
    blocks[6] = np.diag([1.0, 1.0 - 1e-3, 0.5])  # slow: runs into small max_iter
    ops, starts = _padded(blocks, [rng.exponential(size=len(b)) + 0.1 for b in blocks], 6)
    for max_iter in (*range(8), 100_000):
        got = _power_iteration(_block_operator(ops), starts.copy(), 1e-12, max_iter)
        for k, op in enumerate(ops):
            want = _row_power_iteration(lambda v, b=op: b @ v, starts[k], 1e-12, max_iter)
            assert _same_outcome(got[k], want), (k, max_iter)
        if max_iter >= 3:
            assert got[2] == (0.0, 1, True) and got[4][1:] == (3, True)


def test_stacked_loop_keeps_one_layout_and_zeroes_stopped_rows():
    rng = np.random.default_rng(11)
    blocks = []
    for size in (3, 4, 2, 0, 5, 3, 1, 4):
        a = rng.normal(size=(size, size))
        blocks.append(a @ a.T)
    blocks[2] = np.eye(2)                     # stops at iteration 3
    blocks[4] = np.zeros((5, 5))              # zero image: stops at iteration 1
    starts = [rng.exponential(size=len(b)) + 0.1 for b in blocks]
    zero = [0, 3, 5, 7]                       # zero starts: first, middle, empty, last
    for k in zero:
        starts[k] = np.zeros(len(blocks[k]))
    ops, starts = _padded(blocks, starts, 5)
    block_apply = _block_operator(ops)
    seen, given = [], []

    def spy(x):
        # write each image into the stack given the call before, as the tree apply does
        seen.append(x.copy())
        y = block_apply(x)
        if given:
            given[-1][...] = y
            y = given[-1]
        given.append(x)
        return y

    got = _power_iteration(spy, starts.copy(), 1e-12, 100_000)
    assert seen and all(x.shape == starts.shape and x.flags.c_contiguous for x in seen)
    for k in range(len(ops)):
        # call i + 1 follows iteration i, so a row stopped at iteration t
        # is zero in every call after the t-th
        assert all(not x[k].any() for x in seen[got[k][1]:]), k
        if k in zero:
            assert got[k] == (0.0, 0, True)
        else:
            want = _row_power_iteration(lambda v, b=ops[k]: b @ v, starts[k], 1e-12,
                                        100_000)
            assert _same_outcome(got[k], want), k
    assert got[4] == (0.0, 1, True) and got[2][1] == 3 and len(seen) > 3


def test_batches_of_none_and_of_one():
    assert _power_iteration(_block_operator([]), np.zeros((0, 0)), 1e-12, 10) == []
    assert embedding_constants([]) == []
    assert list(embedding_pair_checks([])) == []
    assert list(one_box_constants([])) == []
    assert _bi_embedding_values((2, 2), np.zeros((0, 4, 4))) == []
    mu = random_tree_measure(3, build_tree(5))
    assert embedding_constants([mu]) == [embedding_constant(mu)]
    [pair] = embedding_pair_checks([mu])
    assert (pair.report, pair.ok) == (embedding_pair_check(mu).report, True)
    bi = random_bimeasure(3, build_bitree(2, 3))
    assert list(one_box_constants([bi])) == [one_box_constant(bi)]
    assert list(unit_box_certificates([])) == []
    assert list(maximal_checks([])) == []


def test_stacks_take_one_shape(monkeypatch):
    trees = [random_tree_measure(1, build_tree(2)), random_tree_measure(1, build_tree(3))]
    grids = [random_bimeasure(1, build_bitree(1, 2)), random_bimeasure(1, build_bitree(2, 1))]
    with pytest.raises(ShapeMismatchError):
        embedding_constants(trees)
    # the shape of the first measure binds every stack, whatever their size
    for budget in (carleson.BATCH_ENTRIES, 1):
        monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
        with pytest.raises(ShapeMismatchError):
            list(embedding_pair_checks(trees))
        with pytest.raises(ShapeMismatchError):
            list(one_box_constants(grids))
        with pytest.raises(ShapeMismatchError):
            list(unit_box_certificates((mu, np.ones(mu.shape.cell_grid)) for mu in grids))
        with pytest.raises(ShapeMismatchError):
            list(maximal_checks((mu, np.ones(mu.shape.node_count)) for mu in trees))


@pytest.mark.parametrize("depths", SET_TEST_DEPTHS + [(3, 3), (4, 2), (5, 5)])
def test_stacked_one_box_matches_one_box_constant(depths):
    # uniform and equal masses tie many rectangles; the zero grid ties all
    shape = build_bitree(*depths)
    measures = _set_test_measures(shape)
    results = list(one_box_constants(measures))
    assert len(results) == len(measures)
    for got, mu in zip(results, measures):
        want = one_box_constant(mu)
        assert _same_bits(np.float64(got.constant), np.float64(want.constant))
        assert got.argmax_rect == want.argmax_rect
    assert results[-1] == (0.0, (1, 1))


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("depths", [(0, 0), (1, 3), (3, 1), (3, 3), (5, 2)])
def test_row_blocks_keep_the_first_largest_box_ratio(depths, rows, monkeypatch):
    # the blocked box step finds the value and the first rectangle that
    # np.argmax finds on the whole ratio array, ties across blocks included
    monkeypatch.setattr(bitree, "_row_blocks", _rows_of(rows))
    shape = build_bitree(*depths)
    for mu in _set_test_measures(shape):
        ratios = one_box_ratios(mu)
        i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
        got = one_box_constant(mu)
        assert _same_bits(np.float64(got.constant), ratios[i, j])
        assert got.argmax_rect == (int(i) + 1, int(j) + 1)


def test_non_finite_box_ratio_in_a_later_row_block_names_its_rectangle(monkeypatch):
    # an infinite box sum at rectangle (6, 2), in the second block of three
    # rows, raises the whole-array message; a stack raises it at its trial
    real = bitree._box_sums

    def spoiled(shape, masses):
        out = real(shape, masses)
        out[..., 5, 1] = np.inf
        return out

    monkeypatch.setattr(bitree, "_box_sums", spoiled)
    monkeypatch.setattr(bitree, "_row_blocks", _rows_of(3))
    shape = build_bitree(2, 2)
    mu = uniform_bimeasure(shape)
    message = "rectangle (6, 2): non-finite box ratio inf"
    with pytest.raises(ValidationError, match=re.escape(message)):
        one_box_constant(mu)
    with pytest.raises(ValidationError, match=re.escape(message)):
        bitree_bellman_certify(mu, np.ones(shape.cell_grid))
    masses = rect_masses(mu)
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        bitree._largest_ratios(np.stack([masses, masses]),
                               np.stack([real(shape, masses), spoiled(shape, masses)]))
    assert info.value.trial == 1


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


def _taken_lazily(solve, measures, stack):
    """All results of ``solve`` over a generator of ``measures``, checking its draws.

    Nothing is drawn before the first result is taken, only the first
    stack with it, and never more than one stack beyond the results taken.
    """
    drawn = []

    def draws():
        for mu in measures:
            drawn.append(mu)
            yield mu

    results = solve(draws())
    assert drawn == []
    taken = []
    for result in results:
        taken.append(result)
        assert len(taken) <= len(drawn) <= len(taken) + stack
        if len(taken) == 1:
            assert len(drawn) <= stack
    assert drawn == measures
    return taken


def test_pair_checks_draw_lazily(monkeypatch):
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", 21)  # 7 masses each: stacks of 3
    measures = [random_tree_measure(seed, build_tree(2)) for seed in range(8)]
    pairs = _taken_lazily(embedding_pair_checks, measures, 3)
    assert [pair.report for pair in pairs] == [
        embedding_pair_check(mu).report for mu in measures
    ]


def test_one_box_constants_draw_lazily(monkeypatch):
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", 24)  # 8 cells each: stacks of 3
    measures = [random_bimeasure(seed, build_bitree(1, 2)) for seed in range(8)]
    results = _taken_lazily(one_box_constants, measures, 3)
    assert results == [one_box_constant(mu) for mu in measures]


@pytest.mark.parametrize("argv", [
    "tree-test --depth 3 --trials 9 --seed 2",
    "tree-test --depth 2 --trials 7 --seed 3 --support all-nodes --format csv",
    "bitree-onebox --depths 2,1 --trials 9 --seed 3",
    "gap-probe --depths 1,2 --trials 9 --seed 4 --optimizer random",
    # two golden cases that fit in one stack at the default budget
    "maximal-verify --depth 3 --trials 40 --seed 20",
    "bitree-certify --depths 2,3 --trials 5 --seed 18 --format csv",
])
def test_reports_do_not_depend_on_batch_size(argv, monkeypatch, tmp_path):
    out = tmp_path / "report"
    reports = []
    for budget in (carleson.BATCH_ENTRIES, 1, 20, 40, 300):
        monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
        assert run_command(argv.split() + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[1:] == reports[:1] * 4


def test_maximal_checks_and_certificates_draw_lazily(monkeypatch):
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", 21)  # 7 nodes each: stacks of 3
    shape = build_tree(2)
    jobs = [(random_tree_measure(seed, shape), random_node_values(seed, shape, nonneg=True))
            for seed in range(8)]
    checks = _taken_lazily(maximal_checks, jobs, 3)
    assert [check.report.lhs for check in checks] == [
        _ref_maximal_trial(mu, phi)[1].lhs for mu, phi in jobs
    ]
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", 27)  # 9 rectangles each: stacks of 3
    shape = build_bitree(1, 1)
    jobs = [(random_bimeasure(seed, shape), random_cell_values(seed, shape))
            for seed in range(8)]
    certs = _taken_lazily(unit_box_certificates, jobs, 3)
    assert [c.certificate.lhs_total for c in certs] == [
        _ref_certify_trial(mu, phi)[1].lhs_total for mu, phi in jobs
    ]


# ---------------------------------------------------------------------------
# stacked certificates and maximal checks against the per-trial loops
# ---------------------------------------------------------------------------


def _ref_bitree_certify(mu, phi, tol=1e-9):
    """The one-measure bi-tree certificate before the stacked one."""
    shape = mu.shape
    M = rect_masses(mu)
    SQ = _ref_box_sums(shape, M)
    ratios = _safe_ratio(SQ, M)
    bad = np.argwhere(~np.isfinite(ratios))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValidationError(f"rectangle {(i + 1, j + 1)}: non-finite box ratio {ratios[i, j]}")
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    box = float(ratios[i, j])
    if box > 1.0 + 1e-9:
        raise PreconditionError(
            f"box constant {box:.12g} at rectangle {(int(i) + 1, int(j) + 1)} exceeds 1; "
            f"scale the measure by 1/{box:.12g} first"
        )
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
    magnitude = max(1.0, float(M[0, 0]), float(G2[0, 0]))
    gain = SQ - 0.5 * (_ref_child_pair_sums(SQ, 0) + _ref_child_pair_sums(SQ, 1)) - M**2
    # the least gain over the rectangles with children on at least one axis
    # and positive mass
    rows, cols = np.indices(gain.shape)
    parents = (rows < (gain.shape[0] - 1) // 2) | (cols < (gain.shape[1] - 1) // 2)
    parents &= M > 0
    gain_margin = float(gain[parents].min()) if parents.any() else 0.0
    G1sq = G1**2
    # the bi-tree Bellman function F - f^2 / (v + A), with 0/0 read as 0
    ratio = np.zeros_like(G1sq)
    np.divide(G1sq, M + SQ, out=ratio, where=M + SQ > 0)
    W = areas * (G2 - ratio)
    childW = _ref_child_pair_sums(W, 0) + _ref_child_pair_sums(W, 1)
    slacks = W - childW - 0.25 * areas * G1sq
    net = float(W.sum() - childW.sum())
    expected = float(W[0, 0] - W[1:, 1:].sum())
    scale = max(1.0, float(np.abs(W).sum()))
    lhs_total = float((areas * G1sq).sum())
    rhs_total = float(G2[0, 0])
    upper = 4.0 * rhs_total
    cert = BiTreeCertificate(
        shape=shape, cells=mu.cells, phi=phi_grid,
        martingale_deviation=deviation,
        martingale_ok=deviation <= 1e-12 * magnitude,
        gain_margin=gain_margin,
        gain_ok=gain_margin >= -1e-12,
        min_slack=float(slacks.min()),
        slack_ok=float(slacks.min()) >= -tol,
        telescope_deviation=abs(net - expected),
        telescope_ok=abs(net - expected) <= tol * scale,
        lhs_total=lhs_total, rhs_total=rhs_total, upper_bound=upper,
        global_ok=lhs_total <= upper + tol * max(1.0, upper),
    )
    # the reference's own arrays stand in for the ones the certificate builds
    vars(cert).update(zip(RECT_ARRAYS, (M, SQ, G1, G2, W, slacks)))
    return cert


def _ref_certify_trial(mu, phi, tol=1e-9):
    """The CLI's per-trial loop body: unit box normalization, then the certificate."""
    constant = one_box_constant(mu).constant
    if constant == 0.0:
        return 1.0, _ref_bitree_certify(mu, phi, tol)
    return 1.0 / constant, _ref_bitree_certify(mu.scaled(1.0 / constant), phi, tol)


def _ref_ratios(lam, phi):
    phi_a = as_node_array(lam.shape, phi)
    num = subtree_sums(lam.shape.depth, phi_a * lam.masses)
    den = subtree_sums(lam.shape.depth, lam.masses)
    return _safe_ratio(num, den), den


def _ref_stopping_decomposition(lam, phi):
    """The one-measure stopping decomposition before the stacked one."""
    shape = lam.shape
    r, den = _ref_ratios(lam, phi)
    n = shape.node_count
    nodes = np.arange(1, n + 1, dtype=np.int64)
    owner = np.ones(n, dtype=np.int64)
    generation = np.zeros(n, dtype=np.int64)
    for d in range(1, shape.depth + 1):
        here, up = slice((1 << d) - 1, (1 << (d + 1)) - 1), slice((1 << (d - 1)) - 1, (1 << d) - 1)
        po = np.repeat(owner[up], 2)
        r_po, r_here = r[po - 1], r[here]
        stops = (den[here] > 0.0) & np.where(
            r_po == 0.0, r_here > 0.0, r_here >= 2.0 * r_po
        )
        owner[here] = np.where(stops, nodes[here], po)
        generation[here] = np.repeat(generation[up], 2) + stops
    stopping = np.flatnonzero(owner == nodes)
    stopping = stopping[np.argsort(generation[stopping], kind="stable")]
    children = stopping[1:]
    escaped = np.bincount(
        owner[(children + 1) // 2 - 1] - 1, weights=den[children], minlength=n
    )
    keys = (stopping + 1).tolist()
    beta = dict(zip(keys, (den[stopping] - escaped[stopping]).tolist()))
    ratios = dict(zip(keys, r[stopping].tolist()))
    gens = generation[stopping]
    generations = [(stopping[gens == g] + 1).tolist() for g in range(gens[-1] + 1)]
    return StoppingDecomposition(shape, generations, owner, beta, ratios)


def _ref_theorem_check(lam, phi, tol=1e-9):
    """The one-measure maximal theorem check before the stacked one."""
    box = carleson_ratios(lam).test_constant
    assert box <= 1.0 + 1e-9
    phi_a = as_node_array(lam.shape, phi)
    m, den = _ref_ratios(lam, phi_a)
    _ancestor_sums_inplace(lam.shape.depth, m, np.maximum)
    lhs = float((den**2 * m**2).sum())
    rhs = float((phi_a**2 * lam.masses).sum())
    dec = _ref_stopping_decomposition(lam, phi_a)
    bound = 8.0 * sum(dec.ratios[h] ** 2 * dec.beta[h] for h in dec.beta)
    return MaximalReport(
        lhs=lhs, rhs=rhs, ratio=lhs / rhs if rhs > 0 else 0.0,
        passed=lhs <= 32.0 * rhs + tol,
        stopping_bound=float(bound), stopping_bound_ok=lhs <= bound + tol,
        one_box_constant=float(box), decomposition=dec,
    )


def _ref_node_items(table, n):
    keys = np.fromiter(table, dtype=np.int64, count=len(table))
    values = np.fromiter(table.values(), dtype=float, count=len(table))
    inside = (keys >= 1) & (keys <= n)
    return keys[inside], values[inside], bool(inside.all())


def _ref_invariants(dec, lam, phi, tol=1e-12):
    """The one-measure invariant check before the stacked one, as a dict."""
    shape = lam.shape
    n = shape.node_count
    r, den = _ref_ratios(lam, phi)
    m = r.copy()
    _ancestor_sums_inplace(shape.depth, m, np.maximum)
    owner = np.array(dec.owner, dtype=np.int64)
    if owner.shape != (n,):
        owner = np.zeros(n, dtype=np.int64)
    owners_in_tree = bool(np.all((owner >= 1) & (owner <= n)))
    owner[(owner < 1) | (owner > n)] = 0
    stop, beta, keys_in_tree = _ref_node_items(dec.beta, n)
    is_stop = np.zeros(n + 1, dtype=bool)
    is_stop[stop] = True
    sizes = np.bincount(owner, minlength=n + 1)
    listed = [h for g in dec.generations for h in g]
    partition_ok = bool(
        dec.beta and keys_in_tree and owners_in_tree
        and dec.generations[:1] == [[1]]
        and not sizes[~is_stop].any() and sizes[stop].all()
        and len(listed) == len(set(listed)) and set(listed) == set(dec.beta)
    )
    nodes = np.arange(1, n + 1)
    parent_owner = np.concatenate(([0], owner[nodes[1:] // 2 - 1]))
    owner_consistent = owners_in_tree and np.array_equal(
        owner, np.where(is_stop[1:], nodes, parent_owner)
    )
    later = np.array([h for g in dec.generations[1:] for h in g], dtype=np.int64)
    later = later[(later >= 2) & (later <= n)]
    pred = owner[later // 2 - 1]
    escaped = np.bincount(pred, weights=den[later - 1], minlength=n + 1)[stop]
    region_margin = float(np.max(escaped - 0.5 * den[stop - 1], initial=-np.inf))
    beta_values = np.zeros(n)
    beta_values[stop - 1] = beta
    beta_sums = subtree_sums(shape.depth, beta_values)
    beta_margin = np.abs(beta - (den[stop - 1] - escaped)).max(initial=-np.inf)
    beta_sum_margin = float(max(beta_margin, (beta_sums - den).max()))
    r0 = np.concatenate(([0.0], r))
    recorded = r0.copy()
    ratio_keys, ratio_values, _ = _ref_node_items(dec.ratios, n)
    recorded[ratio_keys] = ratio_values
    r_p, r_j = recorded[pred], r[later - 1]
    zero = r_p == 0.0
    chain_margin = float(np.max(2.0 * r_p[~zero] - r_j[~zero], initial=-np.inf))
    owner_ratio = r0[owner] if dec.beta else np.zeros_like(r)
    ratio_margin = float((r - 2.0 * owner_ratio).max())
    maximal_margin = float((m - 2.0 * owner_ratio).max())
    keep = den[stop - 1] > 0
    pos = stop[keep] - 1
    values = np.zeros(n)
    values[pos] = beta[keep] * (shape.lengths()[pos] / den[pos]) ** 2
    alpha_constant = float(alpha_test_constant(lam, AlphaSequence(shape, values)).constant)
    return dict(
        partition_ok=partition_ok,
        owner_consistent=owner_consistent,
        region_mass_ok=bool(region_margin <= tol),
        region_mass_margin=region_margin,
        beta_sum_ok=bool(beta_sum_margin <= tol),
        beta_sum_margin=beta_sum_margin,
        chain_ok=bool(np.all(r_j[zero] > 0.0) and chain_margin <= tol),
        chain_margin=chain_margin,
        ownership_ratio_ok=bool(ratio_margin <= tol),
        ownership_ratio_margin=ratio_margin,
        maximal_ratio_ok=bool(maximal_margin <= tol),
        maximal_ratio_margin=maximal_margin,
        alpha_test_ok=alpha_constant <= 1.0 + 1e-9,
        alpha_test_constant=alpha_constant,
    )


def _ref_maximal_trial(mu, phi, tol=1e-9):
    """The CLI's per-trial loop body: box rescaling, theorem check, invariants."""
    box = carleson_ratios(mu).test_constant
    if box > 1.0:
        mu = mu.scaled(1.0 / box)
    report = _ref_theorem_check(mu, phi, tol)
    return mu, report, _ref_invariants(report.decomposition, mu, phi)


def _same_value(got, want):
    """Equal values, floats and arrays bit for bit."""
    if isinstance(want, np.ndarray):
        return _same_bits(np.asarray(got), want)
    if isinstance(want, float):
        return isinstance(got, float) and _same_bits(np.float64(got), np.float64(want))
    if isinstance(want, dict):
        return list(got) == list(want) and all(
            _same_value(got[k], want[k]) for k in want
        )
    return type(got) is type(want) and got == want


# the rectangle arrays that a bi-tree certificate builds on first read; they are
# not dataclass fields, so they are compared by name, after the fields
RECT_ARRAYS = ("masses", "box_sums", "integrals", "square_integrals",
               "weighted_values", "slacks")


def _same_fields(got, want):
    names = [f.name for f in dataclasses.fields(want)]
    if isinstance(want, BiTreeCertificate):
        names += RECT_ARRAYS
    return all(_same_value(getattr(got, name), getattr(want, name)) for name in names)


def _same_decomposition(got, want):
    return (got.generations == want.generations
            and _same_bits(np.ascontiguousarray(got.owner), want.owner)
            and _same_value(got.beta, want.beta)
            and _same_value(got.ratios, want.ratios))


def _same_report(got, want):
    return (all(_same_value(getattr(got, f.name), getattr(want, f.name))
                for f in dataclasses.fields(want) if f.name != "decomposition")
            and _same_decomposition(got.decomposition, want.decomposition))


def _same_invariants(got, want):
    failures = [name for flag, name in maximal._INVARIANTS.items() if not want[flag]]
    return got.failures == failures and all(
        _same_value(getattr(got, name), value) for name, value in want.items()
    )


BUDGETS = [1, 20, 2000, carleson.BATCH_ENTRIES]


def _maximal_jobs(shape):
    """Zero, point, uniform, random and sparse measures in both support
    modes, each with random, zero and sparse nonnegative phi."""
    rng = np.random.default_rng(shape.depth)
    sparse = random_node_values(rng, shape, nonneg=True, density=0.2)
    phis = [random_node_values(rng, shape, nonneg=True), np.zeros(shape.node_count), sparse]
    measures = _tree_stack(shape, BOUNDARY_ONLY) + _tree_stack(shape, ALL_NODES)
    return [(mu, phi) for mu in measures for phi in phis]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("depth", range(9))
def test_stacked_maximal_checks_match_per_trial_loop(depth, budget, monkeypatch):
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
    jobs = _maximal_jobs(build_tree(depth))
    checks = list(maximal_checks(jobs))
    assert len(checks) == len(jobs)
    for (mu, phi), check in zip(jobs, checks):
        scaled, report, invariants = _ref_maximal_trial(mu, phi)
        assert check.measure is mu and check.phi is phi
        assert _same_bits(check.measure.scaled(check.scale).masses, scaled.masses)
        assert _same_report(check.report, report)
        assert _same_invariants(check.invariants, invariants)
        # the one-measure entry points are stacks of one
        assert _same_report(maximal_theorem_check(scaled, phi), report)
        assert _same_decomposition(stopping_decomposition(scaled, phi), report.decomposition)
        assert _same_invariants(
            verify_stopping_invariants(report.decomposition, scaled, phi), invariants
        )


def _certify_jobs(shape):
    """Zero, point, uniform, random and sparse grids, each with signed,
    constant and nonnegative phi."""
    rng = np.random.default_rng(sum(shape.depths))
    phis = [rng.normal(size=shape.cell_grid), np.ones(shape.cell_grid),
            random_cell_values(rng, shape, nonneg=True)]
    return [(BiMeasure(shape, cells), phi) for cells in _bitree_stack(shape) for phi in phis]


def _rows_of(step):
    return lambda rows, width: [slice(r, min(r + step, rows)) for r in range(0, rows, step)]


def _signed_certify_jobs(shape):
    """Grids and phis with runs of -0.0, phi also at about 1e-160, where
    |R| G1^2 is subnormal, and a grid of -0.0 alone."""
    rng = np.random.default_rng(sum(shape.depths) + 1)
    signed = _signed_values(rng, shape.cell_grid)
    cells = np.where(signed == 0.0, signed, np.abs(signed))
    phi = _signed_values(rng, shape.cell_grid)
    zeros = np.full(shape.cell_grid, -0.0)
    return [(BiMeasure(shape, grid), values) for grid in (cells, zeros)
            for values in (phi, 1e-160 * phi)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("depths", [(0, 0), (0, 3), (3, 0), (2, 2), (4, 4),
                                    (5, 3), (1, 6), (6, 0)])
def test_stacked_certificates_match_per_trial_loop(depths, budget, monkeypatch):
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
    shape = build_bitree(*depths)
    jobs = _certify_jobs(shape) + _signed_certify_jobs(shape)
    wants = [_ref_certify_trial(mu, phi) for mu, phi in jobs]
    # row blocks and G1 subtrees of the default size; blocks of one row, with
    # subtrees of one leaf row under a top of all other levels; blocks of
    # three rows (edges inside a heap level and on the leaf rows); and, in a
    # full stack, blocks of two rows and subtrees of two leaf rows (subtree
    # edges inside each level below the top)
    stack_cols = max(1, budget // shape.rect_count) * shape.node_counts[1]
    real_blocks = bitree._row_blocks
    for entries, blocks in ((carleson.BLOCK_ENTRIES, real_blocks), (1, real_blocks),
                            (1, _rows_of(3)), (2 * stack_cols, real_blocks)):
        monkeypatch.setattr(carleson, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(bitree, "_row_blocks", blocks)
        checks = list(unit_box_certificates(jobs))
        assert len(checks) == len(jobs)
        for (mu, phi), check, (scale, want) in zip(jobs, checks, wants):
            assert check.measure is mu and check.phi is phi
            assert _same_value(check.scale, scale)
            assert _same_fields(check.certificate, want)
            normalized, _ = normalized_to_unit_onebox(mu)
            assert _same_fields(bitree_bellman_certify(normalized, phi), want)


def test_row_blocks_keep_each_trial_least_gain(monkeypatch):
    # box sums halved on the first row put a negative gain in the first
    # block, which blocks of one and of three rows must find as one whole
    # block does; the leaf rows, in the last block, count only their
    # rectangles with column children
    real = bitree._box_sums

    def lowered(shape, masses):
        out = real(shape, masses)
        out[..., 0, :] *= 0.5
        return out

    monkeypatch.setattr(bitree, "_box_sums", lowered)
    jobs = _certify_jobs(build_bitree(5, 3))
    want = list(unit_box_certificates(jobs))
    assert min(check.certificate.gain_margin for check in want) < 0.0
    for blocks in (_rows_of(1), _rows_of(3)):
        monkeypatch.setattr(bitree, "_row_blocks", blocks)
        for got, check in zip(unit_box_certificates(jobs), want):
            assert _same_fields(got.certificate, check.certificate)


def test_rect_arrays_at_the_peak_of_a_certificate(traced_peak, small_temporaries):
    # a certificate holds two rectangle arrays and its phi stack, a quarter
    # array, which it keeps, and streams G1's rows through two buffers: a row
    # subtree of about one row block, and its top levels; the one-box test
    # holds two arrays.  At (7,7) a default row block is half a rectangle
    # array, its G1 subtree the whole array, and each of numpy's ufunc buffers
    # an eighth, so all are cut to 2^10 entries here: subtrees of four leaf
    # rows under a top of 63 rows, a quarter array
    shape = build_bitree(7, 7)
    mu, phi = random_bimeasure(3, shape), random_cell_values(4, shape)
    normalized, _ = normalized_to_unit_onebox(mu)
    rect_bytes = shape.rect_count * 8
    certify = traced_peak(lambda: bitree_bellman_certify(normalized, phi))
    # the stacked path also keeps its scaled copy of the cells
    stacked = traced_peak(lambda: list(unit_box_certificates([(mu, phi)])))
    one_box = traced_peak(lambda: one_box_constant(mu))
    assert certify <= 3.0 * rect_bytes
    assert stacked <= 3.25 * rect_bytes
    assert one_box <= 2.5 * rect_bytes


def test_rect_arrays_at_the_peak_of_a_large_certificate(traced_peak):
    # at (9,9) the default row blocks and buffers are small beside the arrays,
    # and so are G1's subtrees of 32 leaf rows and their top of 31 rows
    shape = build_bitree(9, 9)
    mu, phi = random_bimeasure(3, shape), random_cell_values(4, shape)
    normalized, _ = normalized_to_unit_onebox(mu)
    rect_bytes = shape.rect_count * 8
    assert traced_peak(lambda: bitree_bellman_certify(normalized, phi)) <= 2.75 * rect_bytes
    assert traced_peak(lambda: one_box_constant(mu)) <= 2.5 * rect_bytes


def test_rect_arrays_at_the_peak_of_the_cube_embedding(traced_peak, small_temporaries):
    # |R| G1^2 is written over G1 row block by row block, so the one-box
    # pre-check and its two arrays set the peak; blocks and buffers are cut
    # as for the certificate above
    shape = build_bitree(7, 7)
    mu, _ = normalized_to_unit_onebox(random_bimeasure(3, shape))
    phi = random_cell_values(4, shape)
    peak = traced_peak(lambda: cube_embedding_check(mu, phi))
    assert peak <= 2.5 * shape.rect_count * 8


@pytest.mark.parametrize("mode", [ALL_NODES, BOUNDARY_ONLY])
def test_node_arrays_at_the_peak_of_a_lone_maximal_check(mode, traced_peak, small_temporaries):
    # the stack of masses, the owners and the decomposition's vertex tables
    # (0.7 node arrays here), beside two more: the gathered phi, while the
    # invariants gather it again, or the ratios and subtree masses that the
    # invariants recompute into phi's and the masses' buffers, whose ratios
    # then take the beta sums and the weighted test constant; 4.9 node arrays.
    # With the ratios copied for the owners and a buffer of their own for the
    # weights, the check took 6.85
    shape = build_tree(14)
    mu = random_tree_measure(3, shape, support_mode=mode)
    phi = random_node_values(4, shape, nonneg=True)
    list(maximal_checks([(mu, phi)]))  # shape caches
    peak = traced_peak(lambda: list(maximal_checks([(mu, phi)])))
    assert peak <= 5.25 * shape.node_count * 8


def test_node_arrays_at_the_peak_of_a_tree_certificate(traced_peak, small_temporaries):
    # the checked phi that the certificate keeps, and v + A, f and F, then the
    # weighted values, f and the slacks: 4.25 node arrays. Building all four
    # averages before v + A, and f^2 whole, took 5.26
    shape = build_tree(14)
    lam = carleson_normalized(random_tree_measure(3, shape, support_mode=ALL_NODES))
    phi, alpha = random_node_values(4, shape), box_squared_alpha(shape)
    certify_tree_embedding(lam, phi, alpha)  # shape caches
    peak = traced_peak(lambda: certify_tree_embedding(lam, phi, alpha))
    assert peak <= 4.5 * shape.node_count * 8


@pytest.mark.parametrize("mode", [ALL_NODES, BOUNDARY_ONLY])
@pytest.mark.parametrize("command, budget", [("maximal-verify", 7.5), ("certify", 6.5)])
def test_node_arrays_at_the_peak_of_a_tree_check_job(command, budget, mode, traced_peak,
                                                     small_temporaries, tmp_path):
    # a job reads its measure file first (4.6 node arrays at the parse), then
    # holds the masses and phi (maximal-verify) or the masses, alpha and
    # phi = 1 (certify) beside the check: 7.2 and 6.3 node arrays on all nodes.
    # They took 9.2 and 7.3; tree-embed --in takes 5.3
    shape = build_tree(14)
    path = tmp_path / "mu.json"
    save_measure(random_tree_measure(3, shape, support_mode=mode), path)
    argv = [command, "--in", str(path), "--out", str(tmp_path / "report.json")]
    assert run_command(argv) == 0  # shape caches and the parser
    peak = traced_peak(lambda: run_command(argv))
    assert peak <= budget * shape.node_count * 8


@pytest.mark.parametrize("mode", [BOUNDARY_ONLY, ALL_NODES])
def test_node_arrays_at_the_peak_of_an_embedding_solve(mode, traced_peak, small_temporaries):
    # the masses (then the pass buffer), the test ratios' temporaries or the
    # weights and the two iterates, in either support mode; packing the
    # support into its own buffers took 6.9 node arrays on all nodes
    shape = build_tree(14)
    mu = random_tree_measure(3, shape, support_mode=mode)
    embedding_constant(mu)  # shape caches
    peak = traced_peak(lambda: embedding_constant(mu))
    assert peak <= 4.5 * shape.node_count * 8


def test_node_arrays_at_the_peak_of_a_measure_file_load(traced_peak, small_temporaries,
                                                         tmp_path):
    # the file's bytes (2.45 node arrays) beside the masses and their checked
    # copy. Reading the whole file with orjson took 6.44, with its list of
    # floats beside the bytes; at 2^12 entries a piece's bytes, list and
    # array take 0.17 more. orjson's own buffers are not Python allocations,
    # so tracemalloc does not see them
    shape = build_tree(14)
    path = tmp_path / "mu.json"
    save_measure(random_tree_measure(3, shape, support_mode=ALL_NODES), path)
    peak = traced_peak(lambda: load_measure(path))
    assert peak <= 4.75 * shape.node_count * 8


def test_cell_grids_at_the_peak_of_a_bi_measure_file_load(traced_peak, small_temporaries,
                                                          tmp_path):
    # the file's bytes (2.7 cell grids) beside the cells and their checked
    # copy; reading the whole file with orjson took 6.72
    shape = build_bitree(7, 7)
    path = tmp_path / "mu.json"
    save_measure(random_bimeasure(3, shape), path)
    peak = traced_peak(lambda: load_measure(path))
    assert peak <= 5.25 * shape.cell_count * 8


def test_node_arrays_at_the_peak_of_a_measure_file_load_after_orjson(traced_peak,
                                                                     small_temporaries,
                                                                     tmp_path):
    # a byte-order mark sends the file straight to the json module, which
    # peaks at 6.6 node arrays. Trying orjson first took 9.8, since its error
    # holds a copy of the text, two bytes a character for the mark's sake
    shape = build_tree(14)
    path = tmp_path / "mu.json"
    save_measure(random_tree_measure(3, shape, support_mode=ALL_NODES), path)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    peak = traced_peak(lambda: load_measure(path))
    assert peak <= 6.75 * shape.node_count * 8


@pytest.mark.parametrize("blocks", [None, 1, 3])
@pytest.mark.parametrize("depths", [(0, 0), (1, 3), (3, 1), (5, 4), (7, 7)])
def test_cube_embedding_lhs_matches_whole_array_expression(depths, blocks, monkeypatch):
    if blocks is not None:
        monkeypatch.setattr(bitree, "_row_blocks", _rows_of(blocks))
    shape = build_bitree(*depths)
    mu, _ = normalized_to_unit_onebox(random_bimeasure(5, shape))
    phi = random_cell_values(6, shape)
    g1 = rect_integrals(shape, phi * mu.cells)
    report = cube_embedding_check(mu, phi)
    assert _same_value(report.lhs, float((shape.areas() * g1**2).sum()))
    assert _same_value(report.rhs, float((phi**2 * mu.cells).sum()))


@pytest.mark.parametrize("depths", [(0, 0), (1, 3), (3, 1), (2, 2), (5, 4)])
def test_certificate_arrays_are_built_on_first_read(depths):
    # the verdicts come first; each array is built when read, equals the
    # reference's bit for bit, is read-only, and is built once
    shape = build_bitree(*depths)
    for mu, phi in _certify_jobs(shape):
        scale, want = _ref_certify_trial(mu, phi)
        cert = bitree_bellman_certify(mu.scaled(scale) if scale != 1.0 else mu, phi)
        fields = [f.name for f in dataclasses.fields(want)]
        assert all(_same_value(getattr(cert, name), getattr(want, name)) for name in fields)
        assert not set(RECT_ARRAYS) & set(vars(cert))
        for name in RECT_ARRAYS:
            array = getattr(cert, name)
            assert _same_bits(array, getattr(want, name))
            assert not array.flags.writeable and getattr(cert, name) is array
        assert not cert.cells.flags.writeable and not cert.phi.flags.writeable


def _spoiled_kernel(real, spoil, trial):
    """``real`` stack kernel with the result of the ``trial``-th job spoiled."""
    seen = []

    def kernel(*args, **kwargs):
        results = real(*args, **kwargs)
        start = len(seen)
        seen.extend(results)
        if start <= trial < len(seen):
            results[trial - start] = spoil(results[trial - start])
        return results

    return kernel


@pytest.mark.parametrize("argv, kernel, spoil, draw, per_trial", [
    ("maximal-verify --depth 3 --trials 9 --seed 5", (maximal, "_theorem_checks"),
     lambda r: dataclasses.replace(r, passed=False), "random_tree_measure", 15),
    ("bitree-certify --depths 1,1 --trials 9 --seed 5", (bitree, "_certificates"),
     lambda c: dataclasses.replace(c, global_ok=False), "random_bimeasure", 9),
])
def test_failure_inside_a_stack_stops_the_rows_there(argv, kernel, spoil, draw, per_trial,
                                                     monkeypatch, tmp_path):
    out = tmp_path / "report.json"
    argv = argv.split() + ["--out", str(out)]
    assert run_command(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    real = getattr(*kernel)
    outcomes = []
    # stacks of one, then of 3 trials: trial 4 sits in the middle of the second
    for budget, draws in ((1, 5), (3 * per_trial, 6)):
        monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
        monkeypatch.setattr(*kernel, _spoiled_kernel(real, spoil, 4))
        drawn = []
        real_draw = getattr(instances, draw)
        monkeypatch.setattr(instances, draw,
                            lambda *a, **k: drawn.append(1) or real_draw(*a, **k))
        assert run_command(argv) == 2
        monkeypatch.setattr(instances, draw, real_draw)
        report = json.loads(out.read_text())
        counterexample = json.loads((tmp_path / "report.json.counterexample.json").read_text())
        assert [row["trial"] for row in report["rows"]] == list(range(5))
        assert report["rows"][:4] == rows[:4] and counterexample["trial"] == 4
        assert not report["passed"] and not counterexample["passed"]
        # the stack after the failing trial is never drawn
        assert len(drawn) == draws
        outcomes.append((out.read_bytes(), counterexample))
    assert outcomes[0] == outcomes[1]


def test_corrupted_owner_fails_only_its_trial():
    shape = build_tree(5)
    jobs = [(random_tree_measure(seed, shape), random_node_values(seed, shape, nonneg=True))
            for seed in range(6)]
    checks = list(maximal_checks(jobs))
    masses = np.stack([c.measure.scaled(c.scale).masses for c in checks], axis=-1)
    phis = [phi for _, phi in jobs]
    decs = [c.report.decomposition for c in checks]
    owner = np.array(decs[3].owner)
    owner[-1] = 0  # not a node
    decs[3] = StoppingDecomposition(shape, decs[3].generations, owner,
                                    decs[3].beta, decs[3].ratios)
    reports = maximal._invariant_reports(shape, masses, np.stack(phis, axis=-1), decs, 1e-12)
    for k, (report, check) in enumerate(zip(reports, checks)):
        if k == 3:
            assert {"partition", "owner-consistency"} <= set(report.failures)
            scaled = check.measure.scaled(check.scale)
            assert _same_invariants(report, _ref_invariants(decs[3], scaled, phis[3]))
        else:
            assert report.ok and report == check.invariants


def _corrupted(dec, lam, phi, kind):
    """``dec`` with one defect that the invariants must report as the
    reference does."""
    owner, beta, ratios = np.array(dec.owner), dict(dec.beta), dict(dec.ratios)
    if kind == "owner-off-the-stops":
        # the node of the largest running maximum goes to the non-stopping node
        # of least ratio below its running maximum, which sets the margin
        r, _ = _ref_ratios(lam, phi)
        m = r.copy()
        _ancestor_sums_inplace(lam.shape.depth, m, np.maximum)
        free = [q for q in np.flatnonzero(m > r) + 1 if q not in beta]
        owner[np.argmax(m)] = min(free, key=lambda q: r[q - 1])
    elif kind == "no-stops":
        beta, ratios = {}, {}
    elif kind == "recorded-root-ratio":
        ratios[1] = 5.0 * ratios[1] + 1.0
    elif kind == "root-owns-all":
        owner[:] = 1
    return StoppingDecomposition(lam.shape, dec.generations, owner, beta, ratios)


def test_invariants_of_corrupted_decompositions_match_the_reference():
    # a stack of valid and corrupted decompositions: the owners' ratios are
    # read before the running maximum overwrites them, escaped masses go to
    # owners only, the chain reads recorded ratios, and a trial without
    # stopping vertices compares with 0
    shape = build_tree(6)
    kinds = [None, "owner-off-the-stops", "no-stops", "recorded-root-ratio", "root-owns-all"]
    jobs = [(carleson_normalized(random_tree_measure(seed, shape, support_mode=mode)),
             random_node_values(seed + 50, shape, nonneg=True))
            for seed, mode in zip(range(len(kinds)), itertools.cycle([ALL_NODES, BOUNDARY_ONLY]))]
    decs = [stopping_decomposition(lam, phi) for lam, phi in jobs]
    decs = [dec if kind is None else _corrupted(dec, lam, phi, kind)
            for dec, (lam, phi), kind in zip(decs, jobs, kinds)]
    masses = np.stack([lam.masses for lam, _ in jobs], axis=-1)
    phis = np.stack([phi for _, phi in jobs], axis=-1)
    reports = maximal._invariant_reports(shape, masses, phis, decs, 1e-12)
    for report, dec, (lam, phi), kind in zip(reports, decs, jobs, kinds):
        assert report.ok == (kind is None)
        assert _same_invariants(report, _ref_invariants(dec, lam, phi)), kind
        assert _same_invariants(verify_stopping_invariants(dec, lam, phi),
                                _ref_invariants(dec, lam, phi)), kind


def test_errors_surface_at_their_trial():
    # a stack computes all its trials, but raises a trial's error only when
    # the loop over the jobs reaches it, as the per-trial loop did
    tree = build_tree(3)
    lam, phi = random_tree_measure(1, tree), random_node_values(1, tree, nonneg=True)
    for bad, error in ((-phi, ValidationError), (phi[:3], ValidationError)):
        results = maximal_checks([(lam, phi), (lam, bad), (lam, phi)])
        assert _same_report(next(results).report, _ref_maximal_trial(lam, phi)[1])
        with pytest.raises(error):
            next(results)
    shape = build_bitree(1, 1)
    mu, ones = random_bimeasure(3, shape), np.ones(shape.cell_grid)
    huge = BiMeasure(shape, np.full(shape.cell_grid, 1e308))  # box constant NaN
    for job, error in (((mu, np.ones((3, 3))), ShapeMismatchError),
                       ((mu, np.full(shape.cell_grid, np.nan)), ValidationError),
                       ((huge, ones), ValidationError)):
        results = unit_box_certificates([(mu, ones), job, (mu, ones)])
        with np.errstate(all="ignore"):
            assert _same_fields(next(results).certificate, _ref_certify_trial(mu, ones)[1])
            with pytest.raises(error):
                next(results)


@pytest.mark.parametrize("budget", [1, carleson.BATCH_ENTRIES])
def test_errors_inside_a_stack_surface_in_trial_order(budget, monkeypatch):
    # trial 1 has a bad phi and trial 2 a non-finite box: trial 0 is yielded,
    # then trial 1 raises its phi error, as the per-trial loop did
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
    tree = build_tree(2)
    lam, phi = random_tree_measure(1, tree), random_node_values(1, tree, nonneg=True)
    huge = TreeMeasure(tree, np.full(tree.node_count, 1e200))
    shape = build_bitree(1, 1)
    mu, ones = random_bimeasure(3, shape), np.ones(shape.cell_grid)
    bi_huge = BiMeasure(shape, np.full(shape.cell_grid, 1e200))
    bad_phi, bad_grid = phi[:3], np.ones((3, 3))
    with np.errstate(all="ignore"):
        checks = maximal_checks([(lam, phi), (lam, bad_phi), (huge, phi)])
        first = next(checks)
        assert _same_report(first.report, _ref_maximal_trial(lam, phi)[1])
        scaled = lam.scaled(first.scale)
        assert (_raised(lambda: next(checks))
                == _raised(lambda: maximal_theorem_check(scaled, bad_phi)))
        certs = unit_box_certificates([(mu, ones), (mu, bad_grid), (bi_huge, ones)])
        first = next(certs)
        assert _same_fields(first.certificate, _ref_certify_trial(mu, ones)[1])
        scaled = mu.scaled(first.scale)
        assert (_raised(lambda: next(certs))
                == _raised(lambda: bitree_bellman_certify(scaled, bad_grid)))

        # a trial with both a non-finite box and a bad phi raises its box error
        box_error = _raised(lambda: maximal_theorem_check(huge, phi))
        assert _raised(lambda: maximal_theorem_check(huge, bad_phi)) == box_error
        checks = maximal_checks([(lam, phi), (huge, bad_phi)])
        next(checks)
        assert _raised(lambda: next(checks)) == box_error
        box_error = _raised(lambda: bitree_bellman_certify(bi_huge, ones))
        assert _raised(lambda: bitree_bellman_certify(bi_huge, bad_grid)) == box_error
        certs = unit_box_certificates([(mu, ones), (bi_huge, bad_grid)])
        next(certs)
        assert _raised(lambda: next(certs)) == box_error


def test_embedding_constants_do_not_depend_on_the_stack_size(monkeypatch):
    tree = build_tree(4)
    measures = [random_tree_measure(seed, tree) for seed in range(5)]
    measures.append(TreeMeasure(tree, np.zeros(tree.node_count)))
    lone = [embedding_constant(mu) for mu in measures]
    assert embedding_constants(measures) == lone
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", 1)
    assert embedding_constants(measures) == lone


def test_box_constants_fail_as_the_per_trial_ratios_did():
    # a non-finite test ratio raised where the per-trial loop built its ratios
    tree = build_tree(2)
    lam, phi = random_tree_measure(1, tree), np.ones(tree.node_count)
    huge = TreeMeasure(tree, np.full(tree.node_count, 1e200))
    with np.errstate(all="ignore"):
        with pytest.raises(ValidationError, match="non-finite value inf"):
            maximal_theorem_check(huge, phi)
        results = maximal_checks([(lam, phi), (huge, phi)])
        next(results)
        with pytest.raises(ValidationError, match="non-finite value inf"):
            next(results)


# ---------------------------------------------------------------------------
# overflow: a lone call and its stack fail alike
# ---------------------------------------------------------------------------


def _raised(call):
    """The class and message of the library error that ``call()`` raises."""
    with pytest.raises(CarlesonError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("budget", [1, carleson.BATCH_ENTRIES])
def test_overflowing_trial_fails_in_a_stack_as_alone(budget, monkeypatch):
    # trial 1 of 3 overflows its squared box masses; trial 0 still gives its
    # normal result, and trial 1 raises the lone call's error
    monkeypatch.setattr(carleson, "BATCH_ENTRIES", budget)
    tree = build_tree(2)
    lam, phi = random_tree_measure(1, tree), random_node_values(1, tree, nonneg=True)
    huge = TreeMeasure(tree, np.full(tree.node_count, 1e200))
    shape = build_bitree(1, 1)
    mu, ones = random_bimeasure(3, shape), np.ones(shape.cell_grid)
    bi_huge = BiMeasure(shape, np.full(shape.cell_grid, 1e200))
    with np.errstate(all="ignore"):
        pairs = embedding_pair_checks([lam, huge, lam])
        assert next(pairs).report == embedding_constant(lam)
        assert _raised(lambda: next(pairs)) == _raised(lambda: embedding_constant(huge))

        boxes = one_box_constants([mu, bi_huge, mu])
        assert next(boxes) == one_box_constant(mu)
        assert _raised(lambda: next(boxes)) == _raised(lambda: one_box_constant(bi_huge))

        checks = maximal_checks([(lam, phi), (huge, phi), (lam, phi)])
        first = next(checks)
        assert _same_report(first.report, maximal_theorem_check(lam.scaled(first.scale), phi))
        assert (_raised(lambda: next(checks))
                == _raised(lambda: maximal_theorem_check(huge, phi)))

        certs = unit_box_certificates([(mu, ones), (bi_huge, ones), (mu, ones)])
        first = next(certs)
        assert _same_fields(first.certificate,
                            bitree_bellman_certify(mu.scaled(first.scale), ones))
        assert (_raised(lambda: next(certs))
                == _raised(lambda: bitree_bellman_certify(bi_huge, ones)))
        assert "node" in _raised(lambda: embedding_constant(huge))[1]
        assert "rectangle" in _raised(lambda: one_box_constant(bi_huge))[1]


def test_power_iteration_stops_on_a_non_finite_image():
    # the Gram apply of 1e308 cells overflows to inf: the row stops at once
    shape = build_bitree(1, 1)
    huge = np.full(shape.cell_grid, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        report = bi_embedding_constant(BiMeasure(shape, huge), max_iter=2000)
    assert math.isnan(report.value) and not report.converged
    assert report.iterations <= 2
    # the other rows of a stack keep their lone solves, bit for bit
    good = random_bimeasure(5, shape).cells
    with np.errstate(over="ignore", invalid="ignore"):
        stack = _bi_embedding_values(shape.depths, np.stack([good, huge, good]))
    lone = bi_embedding_constant(BiMeasure(shape, good))
    assert _same_outcome(stack[0], (lone.value, lone.iterations, lone.converged))
    assert _same_outcome(stack[2], (lone.value, lone.iterations, lone.converged))
    assert math.isnan(stack[1][0]) and stack[1][1:] == (report.iterations, False)


def test_power_iteration_rescales_an_overflowing_norm():
    # finite entries whose squares overflow: the norm is large, not infinite
    tree = build_tree(3)
    lam = leaf_point_mass(tree, tree.first_leaf, 5e153)
    with np.errstate(over="ignore"):
        report = embedding_constant(lam)
    assert report.test_constant == pytest.approx(2e154, rel=1e-12)
    assert report.converged and report.iterations > 2
    assert report.embedding_constant == pytest.approx(embedding_constant_dense(lam),
                                                      rel=1e-9)
    mu = BiMeasure(build_bitree(1, 1), np.full((2, 2), 1e200))
    with np.errstate(over="ignore"):
        bi = bi_embedding_constant(mu)
    assert bi.converged and bi.iterations > 2
    assert bi.value == pytest.approx(bi_embedding_constant_dense(mu), rel=1e-9)
    # in the middle of a stack, the rescued row and its neighbours keep their lone bits
    good = random_tree_measure(5, tree)
    with np.errstate(over="ignore"):
        reports = embedding_constants([good, lam, good])
    lone = [embedding_constant(good), report, embedding_constant(good)]
    for got, want in zip(reports, lone):
        assert _same_outcome((got.embedding_constant, got.iterations, got.converged),
                             (want.embedding_constant, want.iterations, want.converged))
    bi_good = random_bimeasure(5, mu.shape)
    with np.errstate(over="ignore"):
        stack = _bi_embedding_values(mu.shape.depths,
                                     np.stack([bi_good.cells, mu.cells, bi_good.cells]))
    lone = [bi_embedding_constant(bi_good), bi, bi_embedding_constant(bi_good)]
    for got, want in zip(stack, lone):
        assert _same_outcome(got, (want.value, want.iterations, want.converged))
