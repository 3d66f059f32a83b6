"""Stopping-time decomposition and the constant-32 maximal inequality."""

import itertools

import numpy as np
import pytest

from dyadic_carleson import (
    ALL_NODES,
    BOUNDARY_ONLY,
    AlphaSequence,
    PreconditionError,
    StoppingDecomposition,
    TreeMeasure,
    ValidationError,
    alpha_test_constant,
    build_tree,
    carleson_normalized,
    maximal_ratios,
    maximal_theorem_check,
    random_node_values,
    random_tree_measure,
    stopping_decomposition,
    uniform_boundary_measure,
    verify_stopping_invariants,
)
from dyadic_carleson import carleson, maximal
from dyadic_carleson.tree import subtree_sums


# ---------------------------------------------------------------------------
# oracles: the subtree ratios and the weights of the stopping vertices
# ---------------------------------------------------------------------------


def average_ratios(lam, phi):
    """Per-node ratio of the phi-integral to the mass of the subtree, 0 where
    that mass vanishes."""
    depth = lam.shape.depth
    num = subtree_sums(depth, np.asarray(phi, dtype=float) * lam.masses)
    den = subtree_sums(depth, lam.masses)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def derived_alpha(dec, lam):
    """Weight sequence beta_H / (subtree average of lam at H)^2 on the stopping
    vertices of positive subtree mass, 0 elsewhere.

    Its Carleson test constant is at most 1 because the beta masses of
    stopping descendants never exceed the subtree mass.
    """
    box = subtree_sums(lam.shape.depth, lam.masses)
    lengths = lam.shape.lengths()
    values = np.zeros(lam.shape.node_count)
    for h, beta in dec.beta.items():
        if box[h - 1] > 0:
            values[h - 1] = beta / (box[h - 1] / lengths[h - 1]) ** 2
    return AlphaSequence(lam.shape, values)


# ---------------------------------------------------------------------------
# scalar reference for the level sweep
# ---------------------------------------------------------------------------


def _reference_stops(child_ratio, parent_ratio):
    if parent_ratio == 0.0:
        return child_ratio > 0.0
    return child_ratio >= 2.0 * parent_ratio


def _reference_subtree_nodes(shape, node):
    nodes = []
    level = [node]
    while level:
        nodes.extend(level)
        level = [
            c for n in level if not shape.is_leaf(n) for c in shape.children(n)
        ]
    return nodes


def _reference_decomposition(lam, phi):
    """Node-by-node stack walk from each stopping vertex, one generation
    at a time; returns (generations, owner, beta, ratios)."""
    shape = lam.shape
    phi = np.asarray(phi, dtype=float)
    num = subtree_sums(shape.depth, phi * lam.masses)
    den = subtree_sums(shape.depth, lam.masses)
    r = np.zeros_like(num)
    np.divide(num, den, out=r, where=den > 0)

    owner = np.zeros(shape.node_count, dtype=np.int64)
    beta, ratios = {}, {}
    generations = [[1]]
    frontier = [1]
    while frontier:
        next_generation = []
        for h in frontier:
            r_h = float(r[h - 1])
            ratios[h] = r_h
            absorbed = float(den[h - 1])
            stack = [h]
            while stack:
                node = stack.pop()
                owner[node - 1] = h
                if shape.is_leaf(node):
                    continue
                for child in shape.children(node):
                    if den[child - 1] <= 0.0:
                        for k in _reference_subtree_nodes(shape, child):
                            owner[k - 1] = h
                        continue
                    if _reference_stops(float(r[child - 1]), r_h):
                        next_generation.append(child)
                        absorbed -= float(den[child - 1])
                    else:
                        stack.append(child)
            beta[h] = absorbed
        if next_generation:
            next_generation.sort()
            generations.append(next_generation)
        frontier = next_generation
    return generations, owner, beta, ratios


def _zero_on_blocks(shape, values, rng):
    """Zero ``values`` on the subtrees of a few random nodes."""
    out = np.array(values, dtype=float)
    for node in rng.integers(1, shape.node_count + 1, size=3):
        out[np.array(_reference_subtree_nodes(shape, int(node))) - 1] = 0.0
    return out


def _sweep_cases(depth, mode):
    """(name, lam, phi, allow_signed) for every case the sweep must match."""
    shape = build_tree(depth)
    seed = 10 * depth + (mode == ALL_NODES)
    rng = np.random.default_rng(seed)
    lam = random_tree_measure(seed, shape, support_mode=mode, density=0.6)
    sparse = random_tree_measure(seed + 1, shape, support_mode=mode, density=0.1)
    phi = np.abs(random_node_values(seed + 2, shape, density=0.8))
    signed = random_node_values(seed + 3, shape)
    return [
        ("plain", lam, phi, False),
        ("sparse", sparse, phi, False),
        ("blocks", lam, _zero_on_blocks(shape, phi, rng), False),
        ("signed", lam, signed, True),
        ("signed-blocks", sparse, _zero_on_blocks(shape, signed, rng), True),
    ]


@pytest.mark.parametrize("mode", [ALL_NODES, BOUNDARY_ONLY])
@pytest.mark.parametrize("depth", range(11))
def test_sweep_matches_scalar_reference(depth, mode):
    for name, lam, phi, allow_signed in _sweep_cases(depth, mode):
        dec = stopping_decomposition(lam, phi, allow_signed=allow_signed)
        generations, owner, beta, ratios = _reference_decomposition(lam, phi)
        assert np.array_equal(dec.owner, owner), name
        assert dec.generations == generations, name
        assert list(dec.beta) == list(beta), name
        assert list(dec.ratios) == list(ratios), name
        # beta is a subtree mass minus the escaped masses, which the sweep
        # sums in another order than the reference; with signed phi it
        # can cancel to about zero, so its error is measured against the
        # subtree mass
        got = np.array(list(dec.beta.values()))
        want = np.array(list(beta.values()))
        scale = subtree_sums(depth, lam.masses)[np.array(list(beta)) - 1]
        assert np.all(np.abs(got - want) <= 1e-12 * scale), name
        np.testing.assert_allclose(
            list(dec.ratios.values()), list(ratios.values()), rtol=1e-12,
            err_msg=name,
        )
        if not allow_signed:
            assert verify_stopping_invariants(dec, lam, phi).ok, name


def test_sweep_cases_reach_the_edge_cases():
    """The reference cases above include massless subtrees, zero-ratio
    owners below the root, three generations with nonnegative phi, and
    generation order that differs from node order."""
    massless = zero_owner = deep = reordered = False
    for depth in range(11):
        for mode in (ALL_NODES, BOUNDARY_ONLY):
            for name, lam, phi, allow_signed in _sweep_cases(depth, mode):
                dec = stopping_decomposition(lam, phi, allow_signed=allow_signed)
                den = subtree_sums(depth, lam.masses)
                massless |= name == "sparse" and bool((den == 0).any())
                zero_owner |= any(
                    h != 1 and ratio == 0.0 for h, ratio in dec.ratios.items()
                )
                deep |= not allow_signed and len(dec.generations) >= 3
                reordered |= list(dec.beta) != sorted(dec.beta)
    assert massless and zero_owner and deep and reordered


def _hand_instance():
    """Depth 1, half the mass on each leaf, phi visible on the left only.

    Ratios are (1/2, 1, 0); the left child doubles the root ratio and
    stops, the right child never does.
    """
    shape = build_tree(1)
    lam = TreeMeasure.boundary(shape, [0.5, 0.5])
    phi = [0.0, 1.0, 0.0]
    return shape, lam, phi


def test_hand_ratios_and_maximal():
    shape, lam, phi = _hand_instance()
    assert list(average_ratios(lam, phi)) == [0.5, 1.0, 0.0]
    # the running max keeps the root value alive on the right branch
    assert list(maximal_ratios(lam, phi).values) == [0.5, 1.0, 0.5]


def test_hand_decomposition():
    shape, lam, phi = _hand_instance()
    dec = stopping_decomposition(lam, phi)
    assert dec.generations == [[1], [2]]
    assert list(dec.owner) == [1, 2, 1]
    assert dec.beta == {1: 0.5, 2: 0.5}
    assert dec.ratios == {1: 0.5, 2: 1.0}
    assert dec.stopping_vertices() == [1, 2]
    assert dec.region_sizes() == {1: 2, 2: 1}


def test_hand_derived_alpha_saturates():
    shape, lam, phi = _hand_instance()
    dec = stopping_decomposition(lam, phi)
    alpha = derived_alpha(dec, lam)
    assert list(alpha.values) == [0.5, 0.5, 0.0]
    # the packing bound is tight here: the test constant is exactly 1
    assert alpha_test_constant(lam, alpha).constant == 1.0


def test_hand_invariants():
    shape, lam, phi = _hand_instance()
    dec = stopping_decomposition(lam, phi)
    report = verify_stopping_invariants(dec, lam, phi)
    assert report.ok and report.failures == []
    assert report.alpha_test_constant == pytest.approx(1.0, abs=1e-15)


def test_constant_phi_stops_nowhere():
    shape = build_tree(3)
    lam = uniform_boundary_measure(shape)
    dec = stopping_decomposition(lam, np.ones(shape.node_count))
    assert dec.generations == [[1]]
    assert dec.beta == {1: pytest.approx(1.0, rel=1e-12)}
    assert set(dec.owner) == {1}
    dec0 = stopping_decomposition(lam, np.zeros(shape.node_count))
    assert dec0.generations == [[1]]


def test_signed_phi_needs_opt_in():
    shape = build_tree(2)
    lam = uniform_boundary_measure(shape)
    phi = [0.0, 0.0, 0.0, 1.0, -1.0, 1.0, -1.0]
    with pytest.raises(ValidationError, match="allow_signed"):
        stopping_decomposition(lam, phi)
    dec = stopping_decomposition(lam, phi, allow_signed=True)
    assert sum(dec.region_sizes().values()) == shape.node_count


def _brute_maximal(lam, phi):
    shape = lam.shape
    out = np.zeros(shape.node_count)
    for node in range(1, shape.node_count + 1):
        best = 0.0
        k = node
        while k >= 1:
            num = den = 0.0
            stack = [k]
            while stack:
                j = stack.pop()
                num += phi[j - 1] * lam.masses[j - 1]
                den += lam.masses[j - 1]
                if 2 * j + 1 <= shape.node_count:
                    stack += [2 * j, 2 * j + 1]
            if den > 0:
                best = max(best, num / den)
            k //= 2
        out[node - 1] = best
    return out


@pytest.mark.parametrize("seed", range(5))
def test_maximal_matches_brute_force(seed):
    shape = build_tree(4)
    lam = random_tree_measure(seed, shape, support_mode=ALL_NODES, density=0.6)
    phi = np.abs(random_node_values(seed + 50, shape))
    got = maximal_ratios(lam, phi).values
    assert np.allclose(got, _brute_maximal(lam, phi), rtol=1e-12, atol=1e-12)


def _level_loop_running_max(r, depth):
    """The per-level ``np.repeat`` loop that maximal_ratios used before."""
    m = r.copy()
    for d in range(1, depth + 1):
        up = slice((1 << (d - 1)) - 1, (1 << d) - 1)
        here = slice((1 << d) - 1, (1 << (d + 1)) - 1)
        np.maximum(m[here], np.repeat(m[up], 2), out=m[here])
    return m


@pytest.mark.parametrize("depth", [0, 1, 5, 10])
def test_running_max_matches_the_level_loop(depth):
    shape = build_tree(depth)
    lam = random_tree_measure(depth, shape, support_mode=ALL_NODES, density=0.5)
    phi = np.abs(random_node_values(depth + 7, shape))
    r = average_ratios(lam, phi)
    want = _level_loop_running_max(r, depth)
    assert maximal_ratios(lam, phi).values.tobytes() == want.tobytes()


def test_check_and_invariants_share_tree_passes(monkeypatch):
    shape = build_tree(6)
    lam = carleson_normalized(random_tree_measure(4, shape, support_mode=ALL_NODES))
    phi = np.abs(random_node_values(5, shape))
    calls = []
    # a pass is a subtree_sums call or an in-place one on a buffer of the caller's
    for module, name in itertools.product((maximal, carleson),
                                          ("subtree_sums", "_subtree_sums_inplace")):
        real = getattr(module, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(args[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    report = maximal_theorem_check(lam, phi)
    assert verify_stopping_invariants(report.decomposition, lam, phi).ok
    # the check: box constant 2, ratios 2 (which the decomposition shares);
    # the invariants: ratios 2, beta sums 1, weighted test constant 1 (its
    # box masses are the subtree masses of the ratios)
    assert len(calls) == 8


@pytest.mark.parametrize("seed", range(10))
def test_invariants_on_random_instances(seed):
    depth = 4 + seed % 5
    shape = build_tree(depth)
    mode = BOUNDARY_ONLY if seed % 2 else ALL_NODES
    lam = random_tree_measure(seed, shape, support_mode=mode, density=0.5)
    phi = np.abs(random_node_values(seed + 100, shape, density=0.8))
    dec = stopping_decomposition(lam, phi)
    report = verify_stopping_invariants(dec, lam, phi)
    assert report.ok, report.failures
    assert report.alpha_test_constant <= 1.0 + 1e-9


def test_corrupted_owner_is_caught():
    shape, lam, phi = _hand_instance()
    dec = stopping_decomposition(lam, phi)
    bad_owner = dec.owner.copy()
    bad_owner[2] = 3  # hand node 3 to itself; 3 is not a stopping vertex
    bad = StoppingDecomposition(shape, dec.generations, bad_owner,
                                dec.beta, dec.ratios)
    report = verify_stopping_invariants(bad, lam, phi)
    assert not report.ok
    assert "owner-consistency" in report.failures


@pytest.mark.parametrize("entry", [0, -1, 4, 10**9])
def test_owner_outside_the_tree_is_reported(entry):
    shape, lam, phi = _hand_instance()
    dec = stopping_decomposition(lam, phi)
    for node in range(shape.node_count):
        bad_owner = dec.owner.copy()
        bad_owner[node] = entry
        bad = StoppingDecomposition(shape, dec.generations, bad_owner,
                                    dec.beta, dec.ratios)
        report = verify_stopping_invariants(bad, lam, phi)
        assert not report.ok
        assert {"partition", "owner-consistency"} <= set(report.failures)
        assert not report.partition_ok and not report.owner_consistent


def test_invariant_flags_are_plain_bools():
    shape = build_tree(6)
    lam = random_tree_measure(3, shape, support_mode=ALL_NODES, density=0.5)
    phi = np.abs(random_node_values(4, shape))
    report = verify_stopping_invariants(stopping_decomposition(lam, phi), lam, phi)
    flags = [name for name in vars(report) if name.endswith("_ok")]
    flags.append("owner_consistent")
    assert len(flags) == 8
    assert all(type(getattr(report, name)) is bool for name in flags)


def test_corrupted_beta_is_caught():
    shape, lam, phi = _hand_instance()
    dec = stopping_decomposition(lam, phi)
    bad = StoppingDecomposition(shape, dec.generations, dec.owner,
                                {1: 0.5, 2: 1.5}, dec.ratios)
    report = verify_stopping_invariants(bad, lam, phi)
    assert not report.ok
    assert "beta-sum" in report.failures


@pytest.mark.parametrize("spoil", [lambda b: -b - 1.0, lambda b: np.nan],
                         ids=["negative", "nan"])
def test_betas_without_an_alpha_sequence_fail_the_checks(spoil):
    # negative or NaN betas give no weight sequence: the check reports it
    # as failed beta-sum and alpha-test instead of raising
    shape = build_tree(2)
    lam = carleson_normalized(random_tree_measure(1, shape))
    phi = np.abs(random_node_values(2, shape))
    dec = stopping_decomposition(lam, phi)
    bad = StoppingDecomposition(shape, dec.generations, dec.owner,
                                {h: spoil(b) for h, b in dec.beta.items()}, dec.ratios)
    report = verify_stopping_invariants(bad, lam, phi)
    assert {"beta-sum", "alpha-test"} <= set(report.failures)
    assert not report.beta_sum_ok and not report.alpha_test_ok
    assert np.isnan(report.alpha_test_constant)


def test_theorem_uniform_constant_phi():
    shape = build_tree(2)
    lam = carleson_normalized(uniform_boundary_measure(shape))
    report = maximal_theorem_check(lam, np.ones(shape.node_count))
    # constant phi has every ratio equal to 1, so lhs collapses to the
    # sum of squared box masses = test constant * total mass = rhs
    assert report.lhs == pytest.approx(report.rhs, rel=1e-12)
    assert report.passed and report.stopping_bound_ok
    assert report.ratio <= 32.0


def test_theorem_zero_phi():
    shape = build_tree(3)
    lam = carleson_normalized(uniform_boundary_measure(shape))
    report = maximal_theorem_check(lam, np.zeros(shape.node_count))
    assert report.lhs == 0.0 and report.rhs == 0.0
    assert report.ratio == 0.0 and report.passed


def test_theorem_requires_small_box_constant():
    shape = build_tree(2)
    lam = uniform_boundary_measure(shape)  # box constant 1.75
    with pytest.raises(PreconditionError, match="scale the measure"):
        maximal_theorem_check(lam, np.ones(shape.node_count))


@pytest.mark.parametrize("seed", range(10))
def test_theorem_on_random_instances(seed):
    depth = 4 + seed % 4
    shape = build_tree(depth)
    lam = carleson_normalized(random_tree_measure(seed, shape, density=0.6))
    phi = np.abs(random_node_values(seed + 200, shape, density=0.7))
    report = maximal_theorem_check(lam, phi)
    assert report.passed, (report.lhs, report.rhs)
    assert report.stopping_bound_ok
    assert report.one_box_constant <= 1.0 + 1e-9


def test_theorem_signed_phi_flag():
    shape = build_tree(3)
    lam = carleson_normalized(uniform_boundary_measure(shape))
    phi = random_node_values(33, shape)
    with pytest.raises(ValidationError):
        maximal_theorem_check(lam, phi)
    report = maximal_theorem_check(lam, phi, allow_signed=True)
    assert report.lhs >= 0.0 and report.rhs >= 0.0


def test_decomposition_serialization():
    shape, lam, phi = _hand_instance()
    payload = stopping_decomposition(lam, phi).to_dict()
    assert payload["depth"] == 1
    assert payload["generations"] == [[1], [2]]
    assert payload["owner"] == [1, 2, 1]
    assert payload["stopping"] == [
        {"node": 1, "beta": 0.5, "ratio": 0.5},
        {"node": 2, "beta": 0.5, "ratio": 1.0},
    ]


def test_zero_mass_subtree_stays_with_owner():
    shape = build_tree(2)
    # all mass under node 2; node 3's subtree is massless
    lam = TreeMeasure.boundary(shape, [0.25, 0.75, 0.0, 0.0])
    phi = np.ones(shape.node_count)
    dec = stopping_decomposition(lam, phi)
    assert int(dec.owner[2]) == int(dec.owner[0])
    assert sum(dec.region_sizes().values()) == shape.node_count
    assert verify_stopping_invariants(dec, lam, phi).ok
