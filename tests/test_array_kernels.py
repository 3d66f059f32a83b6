"""Array kernels of the tree and bi-tree layers against independent references.

The references are the earlier forms of the kernels: reshape/repeat tree
passes, rectangle integrals over a zero-padded rectangle array, and the
Gram apply that builds every rectangle sum and spreads it back with two
ancestor passes.  The pass kernels add in the same order and must agree
exactly.  Only the sign of a zero may differ in the tree passes: a
``reshape(...).sum(axis=1)`` of two -0.0 halves gives +0.0 in some numpy
versions and -0.0 in others.  Rectangle integrals agree bit for bit.  The
Gram apply adds in another order and must agree to rounding, and also
with a dense matvec of the common-ancestor kernel.
"""

import numpy as np
import pytest

from dyadic_carleson import (
    BiMeasure,
    PreconditionError,
    bi_embedding_constant,
    bi_embedding_constant_dense,
    bitree_bellman_certify,
    build_bitree,
    random_bimeasure,
    uniform_bimeasure,
)
from dyadic_carleson.bitree import (
    _apply_bi_gram,
    _child_pair_sums,
    _pairwise_common_ancestors,
    normalized_to_unit_onebox,
    rect_integrals,
)
from dyadic_carleson.tree import ancestor_sums, subtree_sums


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
