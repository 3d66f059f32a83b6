"""Test condition vs embedding constant on the dyadic tree.

The ratio computations are cross-checked against a literal double loop
over (node, descendant) pairs, and the power iteration against a dense
eigensolve of the same kernel.
"""

import numpy as np
import pytest

from dyadic_carleson import (
    ALL_NODES,
    BOUNDARY_ONLY,
    AlphaSequence,
    PreconditionError,
    TreeMeasure,
    ValidationError,
    alpha_test_constant,
    box_squared_alpha,
    build_tree,
    carleson_normalized,
    carleson_ratios,
    embedding_constant,
    embedding_constant_dense,
    embedding_lhs,
    embedding_pair_check,
    leaf_point_mass,
    random_tree_measure,
    uniform_boundary_measure,
)


def _subtree(shape, node):
    out, stack = [], [node]
    while stack:
        k = stack.pop()
        out.append(k)
        if 2 * k + 1 <= shape.node_count:
            stack += [2 * k, 2 * k + 1]
    return out


def _brute_ratios(mu):
    """Literal definition: sum of squared box masses over each subtree."""
    shape = mu.shape
    box = {k: sum(mu.masses[j - 1] for j in _subtree(shape, k))
           for k in range(1, shape.node_count + 1)}
    out = np.zeros(shape.node_count)
    for r in range(1, shape.node_count + 1):
        if box[r] > 0:
            out[r - 1] = sum(box[q] ** 2 for q in _subtree(shape, r)) / box[r]
    return out


@pytest.mark.parametrize("seed,mode", [(0, BOUNDARY_ONLY), (1, ALL_NODES),
                                       (2, BOUNDARY_ONLY), (3, ALL_NODES)])
def test_ratios_match_brute_force(seed, mode):
    shape = build_tree(4)
    mu = random_tree_measure(seed, shape, support_mode=mode)
    got = carleson_ratios(mu)
    expected = _brute_ratios(mu)
    assert np.allclose(got.ratios.values, expected, rtol=1e-12, atol=1e-12)
    assert got.ratios.at(got.argmax_node) == got.test_constant


def test_zero_over_zero_counts_as_zero():
    shape = build_tree(2)
    mu = TreeMeasure.boundary(shape, [1.0, 0.0, 0.0, 0.0])
    ratios = carleson_ratios(mu).ratios
    # node 3's subtree carries no mass at all
    assert ratios.at(3) == 0.0
    assert ratios.at(6) == 0.0


@pytest.mark.parametrize("depth", range(1, 7))
def test_uniform_closed_form(depth):
    mu = uniform_boundary_measure(build_tree(depth))
    got = carleson_ratios(mu)
    assert got.test_constant == pytest.approx(2.0 - 2.0 ** -depth, abs=1e-12)
    assert got.argmax_node == 1


@pytest.mark.parametrize("depth", range(1, 7))
def test_point_mass_closed_form(depth):
    shape = build_tree(depth)
    mu = leaf_point_mass(shape, shape.first_leaf)
    got = carleson_ratios(mu)
    assert got.test_constant == pytest.approx(depth + 1, abs=1e-12)
    report = embedding_constant(mu)
    # a point mass saturates the lower bound: both constants coincide
    assert report.embedding_constant == pytest.approx(depth + 1, rel=1e-10)


def test_frozen_embedding_values():
    assert embedding_constant(
        uniform_boundary_measure(build_tree(2))
    ).embedding_constant == pytest.approx(1.75, rel=1e-10)
    single = TreeMeasure(build_tree(0), [1.0])
    assert embedding_constant(single).embedding_constant == pytest.approx(1.0, rel=1e-10)


def test_constants_scale_linearly():
    shape = build_tree(4)
    mu = random_tree_measure(11, shape)
    base = embedding_constant(mu)
    scaled = embedding_constant(mu.scaled(3.5))
    assert scaled.test_constant == pytest.approx(3.5 * base.test_constant, rel=1e-12)
    assert scaled.embedding_constant == pytest.approx(
        3.5 * base.embedding_constant, rel=1e-9
    )


def test_box_squared_alpha_recovers_plain_test():
    for seed in range(6):
        shape = build_tree(5)
        lam = random_tree_measure(seed, shape,
                                  support_mode=ALL_NODES if seed % 2 else BOUNDARY_ONLY)
        plain = carleson_ratios(lam)
        weighted = alpha_test_constant(lam, box_squared_alpha(shape))
        # bitwise: the length and inverse-length powers of two cancel exactly
        assert weighted.constant == plain.test_constant
        assert weighted.argmax_node == plain.argmax_node


def test_random_measure_rejects_unknown_support_mode():
    with pytest.raises(ValidationError, match="unknown support mode"):
        random_tree_measure(0, build_tree(2), support_mode="interior-only")


def _ref_random_tree_measure(rng, shape, support_mode, density):
    """The draw of random_tree_measure as one branch per support mode."""
    if support_mode == BOUNDARY_ONLY:
        masses = rng.exponential(1.0, shape.leaf_count)
        masses *= rng.uniform(size=shape.leaf_count) < density
        if not masses.any():
            masses[int(rng.integers(shape.leaf_count))] = 1.0
        return TreeMeasure.boundary(shape, masses)
    masses = rng.exponential(1.0, shape.node_count)
    masses *= rng.uniform(size=shape.node_count) < density
    if not masses.any():
        masses[int(rng.integers(shape.node_count))] = 1.0
    return TreeMeasure(shape, masses)


@pytest.mark.parametrize("mode", [BOUNDARY_ONLY, ALL_NODES])
@pytest.mark.parametrize("density", [0.0, 0.7, 1.0])
def test_random_measure_matches_per_mode_draw(mode, density):
    # density 0.0 takes the fallback draw of one unit mass; the generators
    # must also end in the same state, so that later draws agree
    for depth in (0, 3, 6):
        for seed in range(4):
            shape = build_tree(depth)
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_tree_measure(got_rng, shape, support_mode=mode, density=density)
            want = _ref_random_tree_measure(want_rng, shape, mode, density)
            assert got.support_mode == want.support_mode == mode
            assert got.masses.tobytes() == want.masses.tobytes()
            assert got_rng.random() == want_rng.random()


def test_alpha_validation():
    shape = build_tree(1)
    with pytest.raises(ValidationError, match=r"alpha\[2\]"):
        AlphaSequence(shape, [0.0, 1.0, -0.5])
    other = AlphaSequence(build_tree(2), np.ones(7))
    lam = uniform_boundary_measure(shape)
    with pytest.raises(Exception, match="depth"):
        alpha_test_constant(lam, other)


@pytest.mark.parametrize("seed", range(12))
def test_power_iteration_matches_dense(seed):
    depth = 3 + seed % 3
    shape = build_tree(depth)
    mode = BOUNDARY_ONLY if seed % 2 == 0 else ALL_NODES
    mu = random_tree_measure(seed, shape, support_mode=mode, density=0.6)
    report = embedding_constant(mu)
    dense = embedding_constant_dense(mu)
    assert report.converged
    assert report.embedding_constant == pytest.approx(dense, rel=1e-8, abs=1e-8)


def test_embedding_of_zero_measure():
    shape = build_tree(3)
    mu = TreeMeasure(shape, np.zeros(shape.node_count))
    report = embedding_constant(mu)
    assert report.embedding_constant == 0.0
    assert report.converged
    assert embedding_constant_dense(mu) == 0.0
    with pytest.raises(PreconditionError):
        carleson_normalized(mu)


@pytest.mark.parametrize("seed", range(10))
def test_sandwich_on_random_measures(seed):
    shape = build_tree(4 + seed % 4)
    mode = ALL_NODES if seed % 3 == 0 else BOUNDARY_ONLY
    result = embedding_pair_check(random_tree_measure(seed, shape, support_mode=mode))
    assert result.lower_ok and result.upper_ok and result.ok


def test_pair_check_counterexample_payload():
    mu = uniform_boundary_measure(build_tree(2))
    result = embedding_pair_check(mu)
    payload = result.counterexample()
    assert payload["depth"] == 2
    assert payload["lower_ok"] and payload["upper_ok"]
    assert len(payload["masses"]) == 7


def test_normalized_measure_has_unit_test_constant():
    mu = random_tree_measure(21, build_tree(5))
    unit = carleson_normalized(mu)
    assert carleson_ratios(unit).test_constant == pytest.approx(1.0, rel=1e-12)


def _brute_sides(phi, lam, alpha):
    shape = lam.shape
    lhs = 0.0
    for node in range(1, shape.node_count + 1):
        pairing = sum(phi[j - 1] * lam.masses[j - 1] for j in _subtree(shape, node))
        length = 2.0 ** -shape.depth_of(node)
        lhs += alpha.values[node - 1] * (pairing / length) ** 2
    rhs = sum(p * p * m for p, m in zip(phi, lam.masses))
    return lhs, rhs


def test_embedding_lhs_matches_brute_force():
    shape = build_tree(4)
    rng = np.random.default_rng(3)
    lam = random_tree_measure(8, shape, support_mode=ALL_NODES)
    phi = rng.normal(size=shape.node_count)
    alpha = AlphaSequence(shape, rng.uniform(0, 1, shape.node_count))
    sides = embedding_lhs(phi, lam, alpha)
    lhs, rhs = _brute_sides(phi, lam, alpha)
    assert sides.lhs == pytest.approx(lhs, rel=1e-10)
    assert sides.rhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_weighted_embedding_conclusion(seed):
    """alpha-test <= 1 forces lhs <= 4 rhs, for any sign pattern of phi."""
    shape = build_tree(5)
    rng = np.random.default_rng(seed)
    lam = random_tree_measure(seed, shape, support_mode=BOUNDARY_ONLY)
    raw = AlphaSequence(shape, rng.uniform(0, 2, shape.node_count))
    constant = alpha_test_constant(lam, raw).constant
    alpha = AlphaSequence(shape, raw.values / max(constant, 1.0))
    phi = rng.normal(size=shape.node_count)
    sides = embedding_lhs(phi, lam, alpha)
    assert sides.lhs <= 4.0 * sides.rhs + 1e-9 * max(1.0, sides.rhs)
