"""Bi-tree (rectangle) layer: prefix sums, box test, certificates, probes."""

import numpy as np
import pytest

from dyadic_carleson import (
    BiMeasure,
    GapProbeConfig,
    PreconditionError,
    ShapeMismatchError,
    SizeError,
    ValidationError,
    bi_embedding_constant,
    bi_embedding_constant_dense,
    bitree_bellman_certify,
    boundary_set_ratio,
    build_bitree,
    cell_point_mass,
    cube_embedding_check,
    gap_probe,
    one_box_constant,
    random_bimeasure,
    set_test_constant,
    uniform_bimeasure,
)
from dyadic_carleson.bitree import (
    normalized_to_unit_onebox,
    one_box_ratios,
    rect_integrals,
    rect_masses,
)


# ---------------------------------------------------------------------------
# geometry and prefix sums
# ---------------------------------------------------------------------------


def test_shape_counts():
    assert build_bitree(1, 1).rect_count == 9
    assert build_bitree(2, 2).rect_count == 49
    assert build_bitree(0, 0).rect_count == 1
    shape = build_bitree(2, 3)
    assert shape.node_counts == (7, 15)
    assert shape.cell_grid == (4, 8)
    assert shape.areas()[0, 0] == 1.0


def test_spans():
    shape = build_bitree(1, 2)
    assert shape.row_span(1) == (0, 2)
    assert shape.row_span(2) == (0, 1)
    assert shape.row_span(3) == (1, 2)
    assert shape.col_span(1) == (0, 4)
    assert shape.col_span(5) == (1, 2)
    with pytest.raises(IndexError):
        shape.row_span(4)


def test_size_guard(monkeypatch):
    monkeypatch.setenv("CARLESON_MAX_NODES", "48")
    with pytest.raises(SizeError, match="49 rectangles"):
        build_bitree(2, 2)
    assert build_bitree(1, 1).rect_count == 9
    monkeypatch.setenv("CARLESON_MAX_NODES", "many")
    with pytest.raises(ValidationError, match="CARLESON_MAX_NODES must be an integer"):
        build_bitree(1, 1)


def test_measure_validation():
    shape = build_bitree(1, 1)
    with pytest.raises(ValidationError, match=r"cells\[0\]\[1\]"):
        BiMeasure(shape, [[0.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ShapeMismatchError):
        BiMeasure(shape, np.zeros((2, 3)))
    with pytest.raises(ValidationError, match="outside"):
        cell_point_mass(shape, 2, 0)
    mu = uniform_bimeasure(shape, total=2.0)
    assert mu.total_mass == pytest.approx(2.0)
    with pytest.raises(ValueError):
        mu.cells[0, 0] = 1.0


def _naive_rect_integrals(shape, grid):
    n1, n2 = shape.node_counts
    out = np.zeros((n1, n2))
    for u in range(1, n1 + 1):
        rs, re = shape.row_span(u)
        for v in range(1, n2 + 1):
            cs, ce = shape.col_span(v)
            out[u - 1, v - 1] = grid[rs:re, cs:ce].sum()
    return out


@pytest.mark.parametrize("seed", range(8))
def test_rect_integrals_match_naive(seed):
    shape = build_bitree(2 + seed % 2, 3 - seed % 2)
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=shape.cell_grid)
    got = rect_integrals(shape, grid)
    assert np.allclose(got, _naive_rect_integrals(shape, grid),
                       rtol=1e-12, atol=1e-12)


def test_row_split_is_bitwise_exact():
    shape = build_bitree(3, 3)
    mu = random_bimeasure(4, shape)
    M = rect_masses(mu)
    first_leaf = shape.row_tree.first_leaf
    for u in range(1, first_leaf):
        assert np.array_equal(M[u - 1], M[2 * u - 1] + M[2 * u])


# ---------------------------------------------------------------------------
# one-box constant
# ---------------------------------------------------------------------------


def test_one_box_uniform_frozen():
    mu = uniform_bimeasure(build_bitree(1, 1))
    result = one_box_constant(mu)
    assert result.constant == pytest.approx(2.25, abs=1e-12)  # (2 - 1/2)^2
    assert result.argmax_rect == (1, 1)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("m", range(1, 5))
def test_one_box_closed_forms(n, m):
    shape = build_bitree(n, m)
    uniform = one_box_constant(uniform_bimeasure(shape)).constant
    expected = (2.0 - 2.0**-n) * (2.0 - 2.0**-m)
    assert uniform == pytest.approx(expected, abs=1e-12)
    pm = one_box_constant(cell_point_mass(shape, 0, 0)).constant
    assert pm == pytest.approx((n + 1) * (m + 1), abs=1e-12)


def test_one_box_ratio_of_product_measure():
    # a product of leaf weights factors the ratio into the two trees
    shape = build_bitree(2, 1)
    row = np.array([0.1, 0.2, 0.3, 0.4])
    col = np.array([0.6, 0.4])
    mu = BiMeasure(shape, np.outer(row, col))
    from dyadic_carleson import TreeMeasure, carleson_ratios

    r1 = carleson_ratios(TreeMeasure.boundary(shape.row_tree, row)).ratios.values
    r2 = carleson_ratios(TreeMeasure.boundary(shape.col_tree, col)).ratios.values
    assert np.allclose(one_box_ratios(mu), np.outer(r1, r2), rtol=1e-12)


def test_normalization():
    mu = uniform_bimeasure(build_bitree(2, 2))
    unit, scale = normalized_to_unit_onebox(mu)
    assert one_box_constant(unit).constant == pytest.approx(1.0, rel=1e-12)
    assert scale == pytest.approx(1.0 / one_box_constant(mu).constant, rel=1e-12)
    zero = BiMeasure(build_bitree(1, 1), np.zeros((2, 2)))
    same, scale0 = normalized_to_unit_onebox(zero)
    assert scale0 == 1.0 and same.total_mass == 0.0


# ---------------------------------------------------------------------------
# embedding check and the Bellman certificate
# ---------------------------------------------------------------------------


def test_cube_embedding_point_mass_frozen():
    """Normalized point mass on the 2x2 grid: lhs = 9/64, rhs = 1/4.

    Four rectangles contain the cell, with areas 1, 1/2, 1/2, 1/4 and
    integral 1/4 each, so lhs = (9/4)/16.
    """
    shape = build_bitree(1, 1)
    mu = cell_point_mass(shape, 0, 0).scaled(0.25)
    report = cube_embedding_check(mu, np.ones(shape.cell_grid))
    assert report.lhs == pytest.approx(9.0 / 64.0, rel=1e-12)
    assert report.rhs == pytest.approx(0.25, rel=1e-12)
    assert report.ratio == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert report.passed


def test_cube_embedding_zero_phi():
    shape = build_bitree(1, 1)
    mu = uniform_bimeasure(shape).scaled(1 / 2.25)
    report = cube_embedding_check(mu, np.zeros(shape.cell_grid))
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed


def test_cube_embedding_requires_unit_box():
    shape = build_bitree(1, 1)
    with pytest.raises(PreconditionError, match="rectangle"):
        cube_embedding_check(uniform_bimeasure(shape), np.ones(shape.cell_grid))


@pytest.mark.parametrize("seed", range(6))
def test_cube_embedding_random(seed):
    shape = build_bitree(2 + seed % 2, 2)
    mu, _ = normalized_to_unit_onebox(random_bimeasure(seed, shape))
    rng = np.random.default_rng(seed + 7)
    report = cube_embedding_check(mu, rng.normal(size=shape.cell_grid))
    assert report.passed
    assert report.ratio <= 4.0 + 1e-9


def test_certificate_point_mass():
    shape = build_bitree(1, 1)
    mu = cell_point_mass(shape, 0, 0).scaled(0.25)
    cert = bitree_bellman_certify(mu, np.ones(shape.cell_grid))
    assert cert.ok
    assert cert.lhs_total == pytest.approx(9.0 / 64.0, rel=1e-12)
    assert cert.rhs_total == pytest.approx(0.25, rel=1e-12)
    assert cert.slacks.shape == cert.weighted_values.shape == (3, 3)
    assert cert.slacks.min() == cert.min_slack


@pytest.mark.parametrize("seed", range(10))
def test_certificate_random_instances(seed):
    shape = build_bitree(2 + seed % 3, 2 + (seed + 1) % 3)
    mu, _ = normalized_to_unit_onebox(random_bimeasure(seed, shape, density=0.6))
    rng = np.random.default_rng(seed + 13)
    phi = rng.normal(size=shape.cell_grid)  # signed is fine
    cert = bitree_bellman_certify(mu, phi)
    assert cert.martingale_ok and cert.martingale_deviation <= 1e-12
    assert cert.gain_ok and cert.gain_margin >= -1e-12
    assert cert.slack_ok, cert.min_slack
    assert cert.telescope_ok
    assert cert.global_ok and cert.ok
    assert cert.lhs_total <= cert.upper_bound + 1e-9


def test_certificate_requires_unit_box():
    shape = build_bitree(1, 1)
    with pytest.raises(PreconditionError, match="scale the measure"):
        bitree_bellman_certify(uniform_bimeasure(shape), np.ones(shape.cell_grid))


# ---------------------------------------------------------------------------
# boundary-set test
# ---------------------------------------------------------------------------


def test_set_ratio_singleton_vs_full():
    shape = build_bitree(2, 2)
    mu = cell_point_mass(shape, 0, 0)
    single = np.zeros(shape.cell_grid, dtype=bool)
    single[0, 0] = True
    # only the leaf-leaf rectangle fits inside the singleton
    assert boundary_set_ratio(mu, single) == pytest.approx(1.0, abs=1e-12)
    full = np.ones(shape.cell_grid, dtype=bool)
    assert boundary_set_ratio(mu, full) == pytest.approx(9.0, abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        boundary_set_ratio(mu, np.ones((2, 2), dtype=bool))


def test_exhaustive_set_test_point_mass():
    shape = build_bitree(2, 2)
    result = set_test_constant(cell_point_mass(shape, 1, 2))
    assert result.constant == pytest.approx(9.0, abs=1e-12)
    assert result.strategy == "exhaustive"
    assert (1, 2) in result.witness


def test_set_test_zero_measure():
    shape = build_bitree(1, 1)
    zero = BiMeasure(shape, np.zeros(shape.cell_grid))
    assert set_test_constant(zero).constant == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_dominates_one_box(seed):
    shape = build_bitree(2, 2)
    mu = random_bimeasure(seed, shape)
    exhaustive = set_test_constant(mu).constant
    assert exhaustive >= one_box_constant(mu).constant - 1e-12
    # the restricted strategies can only find less
    k_rect = set_test_constant(mu, "k-rect-unions", k=2).constant
    sampled = set_test_constant(mu, "random-downsets", trials=300, seed=1).constant
    assert k_rect <= exhaustive + 1e-12
    assert sampled <= exhaustive + 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_set_test_below_embedding(seed):
    shape = build_bitree(2, 2)
    mu = random_bimeasure(seed, shape)
    exhaustive = set_test_constant(mu).constant
    embedding = bi_embedding_constant(mu).value
    assert exhaustive <= embedding + 1e-9 * max(1.0, embedding)


def test_set_test_size_guards():
    with pytest.raises(SizeError, match="exhaustive"):
        set_test_constant(uniform_bimeasure(build_bitree(2, 3)))
    with pytest.raises(SizeError, match="combinations"):
        set_test_constant(uniform_bimeasure(build_bitree(3, 3)),
                          "k-rect-unions", k=3)
    with pytest.raises(ValidationError, match="unknown strategy"):
        set_test_constant(uniform_bimeasure(build_bitree(1, 1)), "greedy")
    with pytest.raises(ValidationError):
        set_test_constant(uniform_bimeasure(build_bitree(1, 1)),
                          "k-rect-unions", k=0)


def test_random_downsets_deterministic():
    mu = random_bimeasure(3, build_bitree(2, 2))
    a = set_test_constant(mu, "random-downsets", trials=200, seed=9)
    b = set_test_constant(mu, "random-downsets", trials=200, seed=9)
    assert a.constant == b.constant and a.witness == b.witness


# ---------------------------------------------------------------------------
# bi-parameter embedding constant
# ---------------------------------------------------------------------------


def test_bi_embedding_trivial_cases():
    single = build_bitree(0, 0)
    assert bi_embedding_constant(
        BiMeasure(single, [[1.0]])
    ).value == pytest.approx(1.0, rel=1e-10)
    zero = BiMeasure(build_bitree(1, 1), np.zeros((2, 2)))
    report = bi_embedding_constant(zero)
    assert report.value == 0.0 and report.converged


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (2, 4)])
def test_bi_embedding_point_mass(n, m):
    # one cell sees (n+1)(m+1) rectangles, all with full mass
    mu = cell_point_mass(build_bitree(n, m), 0, 0)
    got = bi_embedding_constant(mu)
    assert got.converged
    assert got.value == pytest.approx((n + 1) * (m + 1), rel=1e-10)


def test_bi_embedding_homogeneity():
    mu = random_bimeasure(17, build_bitree(2, 2))
    base = bi_embedding_constant(mu).value
    assert bi_embedding_constant(mu.scaled(2.5)).value == pytest.approx(
        2.5 * base, rel=1e-9
    )


@pytest.mark.parametrize("seed", range(8))
def test_bi_embedding_matches_dense(seed):
    shape = build_bitree(2 + seed % 2, 2 + seed % 3)
    mu = random_bimeasure(seed, shape, density=0.5)
    report = bi_embedding_constant(mu)
    dense = bi_embedding_constant_dense(mu)
    assert report.converged
    assert report.value == pytest.approx(dense, rel=1e-8, abs=1e-8)


def test_bi_embedding_dominates_one_box():
    for seed in range(5):
        mu = random_bimeasure(seed + 60, build_bitree(2, 3))
        emb = bi_embedding_constant(mu).value
        box = one_box_constant(mu).constant
        assert emb >= box - 1e-9 * max(1.0, box)


def test_dense_oracle_size_guard():
    mu = uniform_bimeasure(build_bitree(5, 6))  # 2048 active cells
    with pytest.raises(SizeError):
        bi_embedding_constant_dense(mu)


# ---------------------------------------------------------------------------
# gap probe
# ---------------------------------------------------------------------------


def test_gap_probe_empty():
    report = gap_probe(GapProbeConfig(depths=(1, 1), trials=0))
    assert report.best_gap is None
    assert report.best_cells is None
    assert report.trajectory == []


def test_gap_probe_config_validation():
    with pytest.raises(ValidationError):
        GapProbeConfig(depths=(1, 1), trials=-1)
    with pytest.raises(ValidationError, match="optimizer"):
        GapProbeConfig(depths=(1, 1), trials=5, optimizer="newton")


@pytest.mark.parametrize("optimizer", ["random", "anneal"])
def test_gap_probe_runs_and_is_deterministic(optimizer):
    config = GapProbeConfig(depths=(2, 2), trials=40, seed=5, optimizer=optimizer)
    a = gap_probe(config)
    b = gap_probe(config)
    assert a.best_gap == b.best_gap
    assert len(a.trajectory) == len(b.trajectory)
    # indicator substitution at the best rectangle forces gap >= 1
    assert a.best_gap >= 1.0 - 1e-9
    assert a.best_embedding >= a.best_one_box - 1e-9
    steps = [t.step for t in a.trajectory]
    assert steps == sorted(steps)
