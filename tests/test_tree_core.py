import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadic_carleson import (
    ALL_NODES,
    BOUNDARY_ONLY,
    NodeVector,
    ShapeMismatchError,
    SizeError,
    TreeMeasure,
    TreeShape,
    ValidationError,
    box_average,
    box_integral,
    build_tree,
    hardy_down,
    hardy_up,
    leaf_point_mass,
    potential,
    uniform_boundary_measure,
)
from dyadic_carleson.tree import ancestor_sums, subtree_sums


def test_shape_counts():
    shape = build_tree(3)
    assert shape.node_count == 15
    assert shape.leaf_count == 8
    assert shape.first_leaf == 8
    assert list(shape.leaves()) == list(range(8, 16))
    assert build_tree(0).node_count == 1


def test_depths_and_lengths():
    shape = build_tree(2)
    assert list(shape.depths()) == [0, 1, 1, 2, 2, 2, 2]
    assert list(shape.lengths()) == [1, 0.5, 0.5, 0.25, 0.25, 0.25, 0.25]
    assert shape.depth_of(1) == 0
    assert shape.depth_of(7) == 2


def test_parent_child_navigation():
    shape = build_tree(2)
    assert shape.children(1) == (2, 3)
    assert shape.parent(6) == 3
    for node in range(2, shape.node_count + 1):
        left, right = shape.children(shape.parent(node))
        assert node in (left, right)
    with pytest.raises(IndexError):
        shape.parent(1)
    with pytest.raises(IndexError):
        shape.children(4)  # leaf
    with pytest.raises(IndexError):
        shape.require_node(8)


def test_hardy_up_counts_ancestors():
    shape = build_tree(2)
    ones = np.ones(shape.node_count)
    up = hardy_up(shape, ones)
    assert list(up.values) == [1, 2, 2, 3, 3, 3, 3]


def test_hardy_down_counts_descendants():
    shape = build_tree(2)
    ones = np.ones(shape.node_count)
    down = hardy_down(shape, ones)
    assert list(down.values) == [7, 3, 3, 1, 1, 1, 1]


def test_potential_of_point_mass():
    shape = build_tree(2)
    mu = leaf_point_mass(shape, 4)
    # mass at leaf 4: its subtree sums are 1 along the path 1 -> 2 -> 4,
    # and the ancestor pass then counts path overlaps
    assert list(potential(shape, mu.masses).values) == [1, 2, 1, 3, 2, 1, 1]


def test_subtree_root_is_total_mass():
    shape = build_tree(5)
    rng = np.random.default_rng(0)
    masses = rng.uniform(0, 1, shape.node_count)
    root = subtree_sums(shape.depth, masses)[0]
    assert root == pytest.approx(math.fsum(masses), rel=1e-14)


def test_box_integral_and_average():
    shape = build_tree(2)
    mu = uniform_boundary_measure(shape)
    assert box_integral(shape, mu.masses, 2) == pytest.approx(0.5, abs=1e-15)
    assert box_average(shape, mu.masses, 2) == pytest.approx(1.0, abs=1e-15)
    assert box_integral(shape, mu.masses, 1) == pytest.approx(1.0, abs=1e-15)


def test_duality_random():
    shape = build_tree(4)
    rng = np.random.default_rng(7)
    for _ in range(25):
        phi = rng.normal(size=shape.node_count)
        g = rng.normal(size=shape.node_count)
        lhs = float(hardy_up(shape, phi).values @ g)
        rhs = float(phi @ hardy_down(shape, g).values)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=7, max_size=7),
       st.lists(st.floats(-10, 10), min_size=7, max_size=7))
def test_duality_hypothesis(phi, g):
    shape = build_tree(2)
    lhs = float(hardy_up(shape, phi).values @ np.asarray(g))
    rhs = float(np.asarray(phi) @ hardy_down(shape, g).values)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_hardy_linearity_and_monotonicity():
    shape = build_tree(3)
    rng = np.random.default_rng(1)
    a = rng.normal(size=shape.node_count)
    b = rng.normal(size=shape.node_count)
    combo = hardy_up(shape, 2.0 * a + b).values
    parts = 2.0 * hardy_up(shape, a).values + hardy_up(shape, b).values
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12)
    low = np.abs(a)
    high = low + np.abs(b)
    assert (hardy_down(shape, high).values >= hardy_down(shape, low).values).all()


def test_axis_cores_match_loops():
    depth = 3
    shape = build_tree(depth)
    rng = np.random.default_rng(5)
    values = rng.normal(size=shape.node_count)
    up = ancestor_sums(depth, values)
    down = subtree_sums(depth, values)
    for node in range(1, shape.node_count + 1):
        ancestors = []
        k = node
        while k >= 1:
            ancestors.append(k)
            k //= 2
        assert up[node - 1] == pytest.approx(
            sum(values[a - 1] for a in ancestors), rel=1e-12
        )
        stack, total = [node], 0.0
        while stack:
            k = stack.pop()
            total += values[k - 1]
            if 2 * k + 1 <= shape.node_count:
                stack += [2 * k, 2 * k + 1]
        assert down[node - 1] == pytest.approx(total, rel=1e-12)


def test_measure_validation():
    shape = build_tree(1)
    with pytest.raises(ValidationError, match=r"masses\[1\]"):
        TreeMeasure(shape, [0.0, -1.0, 0.0])
    with pytest.raises(ValidationError, match="non-finite"):
        TreeMeasure(shape, [0.0, np.nan, 0.0])
    with pytest.raises(ValidationError, match="expected 3 entries"):
        TreeMeasure(shape, [0.0, 1.0])
    other = NodeVector(build_tree(2), np.zeros(7))
    with pytest.raises(ShapeMismatchError):
        hardy_up(shape, other)
    # interior mass is rejected in boundary mode only
    with pytest.raises(ValidationError, match="interior"):
        TreeMeasure(shape, [1.0, 0.0, 0.0], support_mode=BOUNDARY_ONLY)
    TreeMeasure(shape, [1.0, 0.0, 0.0], support_mode=ALL_NODES)


def test_boundary_constructor():
    shape = build_tree(2)
    mu = TreeMeasure.boundary(shape, [1.0, 2.0, 3.0, 4.0])
    assert mu.support_mode == BOUNDARY_ONLY
    assert mu.total_mass == 10.0
    assert list(mu.masses[:3]) == [0.0, 0.0, 0.0]
    scaled = mu.scaled(0.5)
    assert scaled.total_mass == 5.0


def test_node_vector_access():
    shape = build_tree(1)
    vec = NodeVector(shape, [1.0, 2.0, 3.0])
    assert vec.at(1) == 1.0 and vec.at(3) == 3.0
    assert len(vec) == 3
    with pytest.raises(IndexError):
        vec.at(0)
    vec2 = hardy_up(shape, vec)
    assert list(vec2.values) == [1.0, 3.0, 4.0]


def test_values_are_frozen():
    shape = build_tree(1)
    mu = TreeMeasure.boundary(shape, [1.0, 1.0])
    with pytest.raises(ValueError):
        mu.masses[0] = 5.0


def test_size_guard(monkeypatch):
    with pytest.raises(SizeError, match="CARLESON_MAX_NODES"):
        build_tree(21)
    monkeypatch.setenv("CARLESON_MAX_NODES", "3")
    with pytest.raises(SizeError):
        build_tree(2)
    build_tree(1)
    monkeypatch.setenv("CARLESON_MAX_NODES", str((1 << 23) - 1))
    assert build_tree(22).node_count == (1 << 23) - 1
    monkeypatch.setenv("CARLESON_MAX_NODES", "many")
    with pytest.raises(ValidationError):
        build_tree(1)


def test_size_guard_of_a_huge_depth_builds_no_node_count(monkeypatch):
    # 1 << (2**64 + 1) would raise MemoryError, and a depth near 2**40
    # would allocate and zero-fill the count's digits
    with pytest.raises(SizeError) as info:
        build_tree(2**64)
    assert str(info.value) == (
        "depth 18446744073709551616 needs 2^18446744073709551617 - 1 nodes, "
        "limit is 2097151 (set CARLESON_MAX_NODES to raise it)"
    )
    # the count is written out up to 64 bits, and up to the limit's bit length
    with pytest.raises(SizeError, match=f"^depth 64 needs {2**65 - 1} nodes"):
        build_tree(64)
    with pytest.raises(SizeError, match=r"^depth 65 needs 2\^66 - 1 nodes"):
        build_tree(65)
    monkeypatch.setenv("CARLESON_MAX_NODES", str(2**80))
    with pytest.raises(SizeError, match=f"^depth 81 needs {2**82 - 1} nodes"):
        build_tree(81)
    with pytest.raises(SizeError, match=r"^depth 82 needs 2\^83 - 1 nodes"):
        build_tree(82)


def test_negative_depth_rejected():
    with pytest.raises(ValidationError):
        TreeShape(-1)
