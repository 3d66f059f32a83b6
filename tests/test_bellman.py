"""Bellman function: frozen values, domain handling, sampled inequalities.

Every frozen expectation below is a short hand computation with the
closed form B = 4 (F - f^2 / (v + A)); the comments spell the arithmetic
out so the numbers can be re-derived without running anything.
"""

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadic_carleson import (
    AlphaSequence,
    BellmanPoint,
    DomainError,
    MODES,
    PreconditionError,
    TreeMeasure,
    ValidationError,
    bellman_gradient,
    bellman_value,
    bellman_values,
    box_squared_alpha,
    build_tree,
    carleson_normalized,
    certify_tree_embedding,
    leaf_point_mass,
    martingale_split_slack,
    random_tree_measure,
    sample_admissible,
    sample_batch,
    split_compensation,
    tree_split_slack,
    uniform_boundary_measure,
)
from dyadic_carleson import bellman, carleson, cli
from dyadic_carleson.bellman import (
    DOMAIN_TOL,
    CertificateRow,
    MartingaleWitness,
    SplitWitness,
    _require_domain,
    domain_violation,
)
from dyadic_carleson.tree import subtree_sums


# ---------------------------------------------------------------------------
# oracles: first-order properties of B, checked on scalar points
# ---------------------------------------------------------------------------


class ShiftGain(NamedTuple):
    gain: float
    exact_bound: float
    weak_bound: float


def a_shift_gain(p: BellmanPoint, c: float, tol: float = DOMAIN_TOL) -> ShiftGain:
    """Gain of B from raising the test coordinate by ``c``, with bounds.

    Returns (gain, exact, weak) where
    gain = (B(F,f,A,v) - B(F,f,A-c,v)) / 4 and the bounds are the
    first-order estimates c f^2/(v+A)^2 and c f^2/(4 v^2); the chain
    gain >= exact >= weak holds for 0 <= c <= A <= v.
    """
    if c < -tol or c > p.A + tol:
        raise DomainError(f"need 0 <= c <= A, got c = {c}, A = {p.A}")
    shifted = BellmanPoint(p.F, p.f, p.A - c, p.v)
    gain = 0.25 * (bellman_value(p, tol) - bellman_value(shifted, tol))
    s = p.v + p.A
    exact = c * p.f * p.f / (s * s) if s > 0 else 0.0
    weak = c * p.f * p.f / (4.0 * p.v * p.v) if p.v > 0 else 0.0
    return ShiftGain(gain, exact, weak)


def concavity_first_order_gap(x: BellmanPoint, x_star: BellmanPoint) -> float:
    """First-order concavity defect; non-negative up to rounding.

    Computes grad B(x*) . (x - x*) - (B(x) - B(x*)); concavity makes the
    tangent plane at x* dominate B.
    """
    g = bellman_gradient(x_star)
    dx = (
        x.F - x_star.F,
        x.f - x_star.f,
        x.A - x_star.A,
        x.v - x_star.v,
    )
    linear = sum(gi * di for gi, di in zip(g, dx))
    return linear - (bellman_value(x) - bellman_value(x_star))


# ---------------------------------------------------------------------------
# gradient sign check by finite differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradientReport:
    dF: float
    df: float
    dA: float
    dv: float
    F_ok: bool
    f_ok: bool
    A_ok: bool
    v_ok: bool

    @property
    def ok(self) -> bool:
        return self.F_ok and self.f_ok and self.A_ok and self.v_ok


def gradient_signs_check(p: BellmanPoint, step: float = 1e-6) -> GradientReport:
    """Check the gradient signs by central differences.

    Requires the point to sit strictly inside the domain (all margins at
    least 1e-6) so every shifted evaluation stays admissible.  Expected:
    dF = 4 (tol 1e-4), dA >= -1e-8, dv >= -1e-8 and sign(df) = -sign(f).
    """
    _require_domain(p)
    margins = (p.F, p.A, p.v - p.A, p.v + p.A, p.F * p.v - p.f * p.f)
    if min(margins) < 1e-6:
        raise PreconditionError(
            f"point too close to the domain boundary (margins {margins})"
        )

    def diff(index: int) -> float:
        coords = list(p.as_tuple())
        h = step * max(1.0, abs(coords[index]))
        hi, lo = list(coords), list(coords)
        hi[index] += h
        lo[index] -= h
        return (
            bellman_value(BellmanPoint(*hi)) - bellman_value(BellmanPoint(*lo))
        ) / (2.0 * h)

    dF, df, dA, dv = (diff(i) for i in range(4))
    if abs(p.f) > 1e-9:
        f_ok = (df * np.sign(p.f) <= 1e-8) or abs(df) <= 1e-6
    else:
        f_ok = abs(df) <= 1e-6
    return GradientReport(
        dF, df, dA, dv,
        F_ok=abs(dF - 4.0) <= 1e-4,
        f_ok=bool(f_ok),
        A_ok=dA >= -1e-8,
        v_ok=dv >= -1e-8,
    )


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def test_frozen_values():
    assert bellman_value(BellmanPoint(1, 0, 0, 1)) == 4.0       # 4*(1 - 0/1)
    assert bellman_value(BellmanPoint(1, 1, 0, 1)) == 0.0       # 4*(1 - 1/1)
    assert bellman_value(BellmanPoint(2, 1, 1, 1)) == 6.0       # 4*(2 - 1/2)
    # v + A = 0 forces f = 0 and the value degenerates to 4F
    assert bellman_value(BellmanPoint(1, 0, 0, 0)) == 4.0
    assert bellman_value(BellmanPoint(0, 0, 0, 0)) == 0.0


def test_vectorized_matches_scalar():
    pts = [BellmanPoint(1, 0, 0, 1), BellmanPoint(2, 1, 1, 1),
           BellmanPoint(3, -1, 0.5, 2), BellmanPoint(1, 0, 0, 0)]
    arrays = [np.array([getattr(p, n) for p in pts]) for n in "FfAv"]
    vec = bellman_values(*arrays)
    for i, p in enumerate(pts):
        assert vec[i] == pytest.approx(bellman_value(p), rel=1e-15)


@pytest.mark.parametrize("point,fragment", [
    (BellmanPoint(-1, 0, 0, 1), "F >= 0"),
    (BellmanPoint(1, 0, 0, -1), "v >= 0"),
    (BellmanPoint(1, 0, -1, 1), "A >= 0"),
    (BellmanPoint(1, 0, 2, 1), "A <= v"),
    (BellmanPoint(1, 2, 0, 1), "f\\^2 <= F v"),
    (BellmanPoint(1, float("nan"), 0, 1), "finite"),
])
def test_domain_rejection(point, fragment):
    assert domain_violation(point) is not None
    with pytest.raises(DomainError, match=fragment):
        bellman_value(point)


def test_gradient_closed_form():
    # at (2, 1, 1/2, 1): s = v + A = 3/2, so
    # dF = 4, df = -8/s = -16/3, dA = dv = 4 (f/s)^2 = 16/9
    g = bellman_gradient(BellmanPoint(2, 1, 0.5, 1))
    assert g[0] == pytest.approx(4.0, abs=1e-15)
    assert g[1] == pytest.approx(-16.0 / 3.0, rel=1e-14)
    assert g[2] == pytest.approx(16.0 / 9.0, rel=1e-14)
    assert g[3] == pytest.approx(16.0 / 9.0, rel=1e-14)


def test_gradient_signs_by_finite_differences():
    report = gradient_signs_check(BellmanPoint(2, 1, 0.5, 1))
    assert report.ok
    assert report.dF == pytest.approx(4.0, abs=1e-4)
    report = gradient_signs_check(BellmanPoint(2, -1, 0.5, 1))
    assert report.ok and report.df > 0
    with pytest.raises(PreconditionError, match="boundary"):
        gradient_signs_check(BellmanPoint(1, 1, 0, 1))  # F v - f^2 = 0


@settings(max_examples=200, deadline=None)
@given(F=st.floats(0, 10), v=st.floats(0, 10),
       t=st.floats(-1, 1), s=st.floats(0, 1))
@example(F=0.75, v=5e-324, t=1.0, s=0.0)  # F v rounds up to the subnormal v
def test_range_on_admissible_points(F, v, t, s):
    p = BellmanPoint(F, t * np.sqrt(F * v), s * v, v)
    value = bellman_value(p, tol=1e-9)
    assert -1e-9 <= value <= 4.0 * F + 1e-9


# ---------------------------------------------------------------------------
# the three split inequalities, hand-checked instances first
# ---------------------------------------------------------------------------


def test_martingale_slack_hand_cases():
    p = BellmanPoint(1, 0, 0, 1)
    assert martingale_split_slack(p, p, 0.0) == pytest.approx(0.0, abs=1e-12)
    # opposite-sign children cancel: parent value 4, children both 0
    up = BellmanPoint(1, 1, 0, 1)
    dn = BellmanPoint(1, -1, 0, 1)
    assert martingale_split_slack(up, dn, 0.0) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(DomainError, match="m >= 0"):
        martingale_split_slack(p, p, -1.0)
    half = BellmanPoint(1, 0, 0.5, 1)
    with pytest.raises(DomainError, match="A <= v"):
        martingale_split_slack(half, half, 1.0)


def test_tree_split_slack_hand_cases():
    zero = BellmanPoint(0, 0, 0, 0)
    # a = b = 1, c = 0 builds the Cauchy-Schwarz equality parent (1,1,0,1)
    assert tree_split_slack(SplitWitness(zero, zero, 1, 1, 0)) == pytest.approx(
        0.0, abs=1e-12
    )
    # c = 1 moves the parent to (1,1,1,1): B = 2, drift = 1, slack = 1
    assert tree_split_slack(SplitWitness(zero, zero, 1, 1, 1)) == pytest.approx(
        1.0, abs=1e-12
    )
    with pytest.raises(ValidationError, match="a >= 0"):
        SplitWitness(zero, zero, -1, 0, 0)
    with pytest.raises(ValidationError, match="c >= 0"):
        SplitWitness(zero, zero, 0, 0, -1)


def test_split_compensation_hand_cases():
    # stripped (1,0,0,1) has B = 4, shifted (2,1,0,2) has B = 6
    got = split_compensation(BellmanPoint(2, 1, 1, 2), 1, 1, 1)
    assert got == pytest.approx(-0.5, abs=1e-12)
    assert split_compensation(BellmanPoint(1, 1, 0, 1), 1, 1, 0) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        split_compensation(BellmanPoint(1, 0, 0, 1), 2, 0, 0)  # v - a^2 < 0


def test_a_shift_gain_frozen():
    # B(2,1,1,2) = 4*(2 - 1/3) = 20/3 and B(2,1,0,2) = 6, so the gain is
    # (20/3 - 6)/4 = 1/6; the bounds are 1*1/9 and 1/16
    gain = a_shift_gain(BellmanPoint(2, 1, 1, 2), 1.0)
    assert gain.gain == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert gain.exact_bound == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert gain.weak_bound == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert gain.gain >= gain.exact_bound >= gain.weak_bound
    with pytest.raises(DomainError, match="0 <= c <= A"):
        a_shift_gain(BellmanPoint(1, 0, 0.5, 1), 0.7)


def _random_interior_points(seed, count):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 3.0, count)
    A = rng.uniform(0.0, 1.0, count) * v
    F = rng.uniform(0.1, 3.0, count)
    f = rng.uniform(-0.99, 0.99, count) * np.sqrt(F * v)
    return [BellmanPoint(*map(float, q)) for q in zip(F, f, A, v)]


def test_a_shift_gain_chain_randomized():
    rng = np.random.default_rng(5)
    for p in _random_interior_points(5, 200):
        c = float(rng.uniform(0, p.A))
        got = a_shift_gain(p, c)
        assert got.gain >= got.exact_bound - 1e-12
        assert got.exact_bound >= got.weak_bound - 1e-12


def test_concavity_gap_randomized():
    pts = _random_interior_points(9, 400)
    for x, x_star in zip(pts[::2], pts[1::2]):
        assert concavity_first_order_gap(x, x_star) >= -1e-9


# ---------------------------------------------------------------------------
# admissible sampler
# ---------------------------------------------------------------------------


def test_sampler_validation():
    with pytest.raises(ValidationError, match="unknown mode"):
        sample_batch(0, 10, "downhill")
    with pytest.raises(ValidationError):
        sample_batch(0, -1, "martingale")
    batch, _ = sample_batch(0, 0, "martingale")
    assert len(batch) == 0


@pytest.mark.parametrize("mode", MODES)
def test_sampler_is_deterministic_and_rejection_free(mode):
    batch1, stats = sample_batch(123, 500, mode)
    batch2, _ = sample_batch(123, 500, mode)
    assert len(batch1) == 500
    assert stats.rejected_cauchy_schwarz == 0
    assert stats.rejected_test_bound == 0
    if mode == "compensation":
        assert np.array_equal(batch1.values(), batch2.values())
    else:
        assert np.array_equal(batch1.slacks(), batch2.slacks())


# The sampler's oracle: whole-array formulas over raw draws taken in the
# sampler's stream order (per side F, v, A, f; then m, or a, b, c), each
# round's admissible draws kept and the rounds joined.


def _ref_B(F, f, A, v):
    """B = 4 (F - f^2 / (v + A)), and 4F where v + A = 0."""
    s = v + A
    with np.errstate(divide="ignore", invalid="ignore"):
        return 4.0 * (F - np.where(s > 0, f * f / s, 0.0))


def _ref_parent(x, mode):
    """The parent of the children: half-sums plus m, or the node terms."""
    F, f, A, v = (0.5 * (x[k + "-"] + x[k + "+"]) for k in "FfAv")
    if mode == "martingale":
        return F, f, A + x["m"], v
    a, b = x["a"], x["b"]
    return F + b * b, f + a * b, A + x["c"], v + a * a


def _ref_round(rng, n, mode):
    """One round's named arrays and its two rejection masks."""
    x = {}
    for side in "-+":
        F = rng.standard_exponential(n)
        v = rng.standard_exponential(n)
        A = rng.random(n) * v
        f = rng.uniform(-1.0, 1.0, n) * np.sqrt(F * v)
        x.update({"F" + side: F, "f" + side: f, "A" + side: A, "v" + side: v})
    v_half, a_half = 0.5 * (x["v-"] + x["v+"]), 0.5 * (x["A-"] + x["A+"])
    if mode == "martingale":
        x["m"] = rng.random(n) * (v_half - a_half)
    else:
        a = np.abs(rng.standard_normal(n))
        b = rng.standard_normal(n)
        x.update(a=a, b=b, c=rng.random(n) * (v_half + a * a - a_half))
    F, f, A, v = _ref_parent(x, mode)
    if mode == "compensation":
        x = dict(F=F, f=f, A=A, v=v, a=x["a"], b=x["b"], c=x["c"])
    cs_bad = f * f > F * v + 1e-12
    return x, cs_bad, (A > v + 1e-12) & ~cs_bad


def _ref_sample_batch(seed, count, mode, forced=None):
    """Arrays and stats of ``sample_batch``; ``forced(n)`` also drops from round 1."""
    rng = np.random.default_rng(seed)
    stats = bellman.SamplerStats()
    rounds, need = [], count
    while True:
        x, cs_bad, a_bad = _ref_round(rng, need, mode)
        keep = ~(cs_bad | a_bad)
        if forced is not None and not rounds:
            keep &= forced(need)
        stats.draws += need
        stats.rejected_cauchy_schwarz += int(cs_bad.sum())
        stats.rejected_test_bound += int(a_bad.sum())
        rounds.append({k: values[keep] for k, values in x.items()})
        need -= int(keep.sum())
        if need == 0:
            break
    return {k: np.concatenate([r[k] for r in rounds]) for k in rounds[0]}, stats


def _ref_outputs(x, mode):
    """Slacks of the split modes, values of the compensation."""
    if mode == "compensation":
        a, b, As = x["a"], x["b"], x["A"] - x["c"]
        stripped = _ref_B(x["F"] - b * b, x["f"] - a * b, As, x["v"] - a * a)
        return 0.25 * (stripped - _ref_B(x["F"], x["f"], As, x["v"]))
    F, f, A, v = _ref_parent(x, mode)
    increment = x["m"] if mode == "martingale" else x["c"]
    half = 0.5 * (_ref_B(*(x[k + "-"] for k in "FfAv")) + _ref_B(*(x[k + "+"] for k in "FfAv")))
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.where(v > 0, f * f * increment / (v * v), 0.0)
    return _ref_B(F, f, A, v) - half - drift


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_batch(batch, stats, ref):
    arrays, ref_stats = ref
    return (
        stats == ref_stats
        and list(batch.arrays) == list(arrays)
        and all(_same_bits(batch.arrays[k], arrays[k]) for k in arrays)
    )


def _outputs(batch):
    return batch.values() if batch.mode == "compensation" else batch.slacks()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_sampler_matches_whole_array_oracle(mode, block, blocks, extra, monkeypatch):
    # counts at and around the block edges: 0, 1, B-1, B, B+1 and 2B+3
    if block is not None:
        monkeypatch.setattr(carleson, "BLOCK_ENTRIES", block)
    count = blocks * carleson.BLOCK_ENTRIES + extra
    batch, stats = sample_batch(11, count, mode)
    arrays, _ = ref = _ref_sample_batch(11, count, mode)
    assert batch.mode == mode and len(batch) == count
    assert _same_batch(batch, stats, ref)
    got, want = _outputs(batch), _ref_outputs(arrays, mode)
    assert _same_bits(got, want)
    if count:
        assert _same_bits(got.mean(), want.mean())


@pytest.mark.parametrize("mode", MODES)
def test_sampler_rounds_with_rejections_match_always_copy_path(mode, monkeypatch):
    draw = bellman._draw_mode
    rounds = []

    def dropping(rng, count, mode, stats):
        batch, keep = draw(rng, count, mode, stats)
        if not rounds:
            keep = keep & (np.arange(count) % 3 != 0)
        rounds.append(count)
        return batch, keep

    monkeypatch.setattr(bellman, "_draw_mode", dropping)
    batch, stats = sample_batch(5, 300, mode)
    assert rounds == [300, 100]
    assert len(batch) == 300
    ref = _ref_sample_batch(5, 300, mode, forced=lambda n: np.arange(n) % 3 != 0)
    assert _same_batch(batch, stats, ref)
    assert _same_bits(_outputs(batch), _ref_outputs(ref[0], mode))


@pytest.mark.parametrize("mode, arrays", [("martingale", 11), ("tree_split", 13),
                                          ("compensation", 13)])
def test_sampler_peak_memory(mode, arrays, traced_peak):
    # the raw draws (9 arrays for the martingale, 11 for the others) plus
    # two: the output and block-sized temporaries, not whole-size ones
    count = 1 << 20
    peak = traced_peak(lambda: _outputs(sample_batch(0, count, mode)[0]).mean())
    assert peak <= arrays * 8 * count


@pytest.mark.parametrize("mode", ["martingale", "tree_split"])
def test_batch_slacks_match_scalar_witnesses(mode):
    batch, _ = sample_batch(7, 64, mode)
    slacks = batch.slacks()
    for i in (0, 13, 63):
        w = batch.witness(i)
        if mode == "martingale":
            scalar = martingale_split_slack(w.left, w.right, w.m)
        else:
            scalar = tree_split_slack(w)
        assert slacks[i] == pytest.approx(scalar, rel=1e-12, abs=1e-12)


def test_compensation_batch_matches_scalar():
    batch, _ = sample_batch(8, 64, "compensation")
    values = batch.values()
    for i in (0, 31, 63):
        w = batch.witness(i)
        scalar = split_compensation(w.parent, w.a, w.b, w.c)
        assert values[i] == pytest.approx(scalar, rel=1e-12, abs=1e-12)


def test_sampled_inequalities_at_scale():
    batch, _ = sample_batch(2024, 10_000, "martingale")
    assert batch.slacks().min() >= -1e-9
    batch, _ = sample_batch(2024, 10_000, "tree_split")
    assert batch.slacks().min() >= -1e-9
    batch, _ = sample_batch(2024, 10_000, "compensation")
    assert batch.values().max() <= 1e-12


def test_sampled_parents_stay_in_range():
    batch, _ = sample_batch(31, 5_000, "tree_split")
    F, f, A, v = batch.parent()
    values = bellman_values(F, f, A, v)
    assert values.min() >= -1e-9
    assert (values <= 4.0 * F + 1e-9 * np.maximum(1.0, F)).all()


def test_midpoint_concavity_sampled():
    x, _ = sample_batch(1, 5_000, "martingale")
    y, _ = sample_batch(2, 5_000, "martingale")
    xs, ys = x.parent(), y.parent()
    mid = bellman_values(*(0.5 * (a + b) for a, b in zip(xs, ys)))
    avg = 0.5 * (bellman_values(*xs) + bellman_values(*ys))
    assert (mid >= avg - 1e-9).all()


def test_witness_stream_types():
    stream = list(sample_admissible(5, 3, "martingale"))
    assert len(stream) == 3 and isinstance(stream[0], MartingaleWitness)
    for w in stream:
        assert martingale_split_slack(w.left, w.right, w.m) >= -1e-9
    split = next(sample_admissible(5, 1, "tree_split"))
    assert isinstance(split, SplitWitness)


# ---------------------------------------------------------------------------
# the bellman-sample report, drawn block by block
# ---------------------------------------------------------------------------

FLAG_MODES = ("martingale", "tree-split", "compensation")


def _ref_report(flag, trials, seed, tol=1e-9):
    """The report of ``bellman-sample``: blocks of ``cli.SAMPLE_BLOCK`` trials
    drawn by the oracle from one generator, then numpy on their joined
    values; the mean is the per-block sums, added in order, over ``trials``."""
    mode = flag.replace("-", "_")
    rng = np.random.default_rng(seed)
    stats, outputs = bellman.SamplerStats(), []
    for start in range(0, trials, cli.SAMPLE_BLOCK):
        arrays, block = _ref_sample_batch(rng, min(cli.SAMPLE_BLOCK, trials - start), mode)
        stats.draws += block.draws
        stats.rejected_cauchy_schwarz += block.rejected_cauchy_schwarz
        stats.rejected_test_bound += block.rejected_test_bound
        outputs.append(_ref_outputs(arrays, mode))
    values = np.concatenate(outputs) if outputs else np.empty(0)
    sums = [out.sum() for out in outputs]
    if mode == "compensation":
        worst = float(values.max()) if trials else 0.0
        summary = {"max_value": worst, "threshold": tol, "passed": worst <= tol}
    else:
        worst = float(values.min()) if trials else 0.0
        summary = {"min_slack": worst, "threshold": -tol, "passed": worst >= -tol}
    return {"command": "bellman-sample", "mode": flag, "trials": trials, "seed": seed,
            "draws": stats.draws, "rejected_cauchy_schwarz": stats.rejected_cauchy_schwarz,
            "rejected_test_bound": stats.rejected_test_bound,
            "mean": float(functools.reduce(operator.add, sums) / trials) if trials else 0.0,
            **summary}


@pytest.mark.parametrize("flag", FLAG_MODES)
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_bellman_sample_report_matches_block_oracle(flag, blocks, extra, tmp_path):
    # trials at and around the block edges: 0, 1, B-1, B, B+1 and 2B+3
    trials = blocks * cli.SAMPLE_BLOCK + extra
    path = tmp_path / "r.json"
    argv = ["bellman-sample", "--mode", flag, "--trials", str(trials), "--seed", "6",
            "--out", str(path)]
    assert cli.run_command(argv) == 0
    assert json.loads(path.read_text()) == _ref_report(flag, trials, 6)


@pytest.mark.parametrize("flag, method, pick, bad", [
    ("martingale", "slacks", np.argmin, -1.0),
    ("compensation", "values", np.argmax, 1.0),
])
@pytest.mark.parametrize("second", ["nan", "tie"])
def test_bellman_sample_names_the_first_worst_of_all_blocks(flag, method, pick, bad,
                                                            second, tmp_path, monkeypatch):
    # block 1 fails at entry 9; block 2 holds, at entry 5, a NaN or block 1's
    # worst value again; the report names what pick gives on the joined values
    real = getattr(bellman.SampleBatch, method)
    blocks = []

    def spoiled(batch):
        out = real(batch)
        if not blocks:
            out[9] = bad
        else:
            first = blocks[0][1]
            out[5] = np.nan if second == "nan" else first[pick(first)]
        blocks.append((batch, out.copy()))
        return out

    monkeypatch.setattr(bellman.SampleBatch, method, spoiled)
    monkeypatch.chdir(tmp_path)
    argv = ["bellman-sample", "--mode", flag, "--trials", str(cli.SAMPLE_BLOCK + 100),
            "--seed", "3", "--out", "r.json"]
    assert cli.run_command(argv) == 2
    values = np.concatenate([out for _, out in blocks])
    index = int(pick(values))
    assert index == (cli.SAMPLE_BLOCK + 5 if second == "nan" else 9)
    report = json.loads((tmp_path / "r.json").read_text())
    worst = report["max_value" if flag == "compensation" else "min_slack"]
    assert np.array_equal(worst, values[index], equal_nan=True)
    payload = json.loads((tmp_path / "r.json.counterexample.json").read_text())
    assert payload["index"] == index
    batch = blocks[index // cli.SAMPLE_BLOCK][0]
    witness = batch.witness(index % cli.SAMPLE_BLOCK)
    point = "parent" if flag == "compensation" else "left"
    assert payload[point] == list(getattr(witness, point).as_tuple())


@pytest.mark.parametrize("flag", FLAG_MODES)
def test_bellman_sample_memory_does_not_grow_with_trials(flag, tmp_path, monkeypatch,
                                                         traced_peak):
    # drawn whole, a 2^20-trial job peaked at 82-98 MB and a 2^17 one at 12-14 MB
    monkeypatch.chdir(tmp_path)

    def peak(trials):
        argv = ["bellman-sample", "--mode", flag, "--trials", str(trials), "--out", "r.json"]
        codes = []
        used = traced_peak(lambda: codes.append(cli.run_command(argv)))
        assert codes == [0]
        return used

    peak(1)  # the shared parser is built on the first call
    small, large = peak(1 << 17), peak(1 << 20)
    assert large <= 16 << 20
    assert abs(large - small) <= 1 << 20


# ---------------------------------------------------------------------------
# telescoping certificate
# ---------------------------------------------------------------------------


def test_certificate_uniform_depth3():
    """Uniform measure, phi = 1, box-squared weights, hand-checked totals.

    After normalizing by the test constant 15/8 every box average is
    8/15, each path level contributes 2^d * 2^-2d * 64/15 to the total,
    so total = (64/15) * (15/8) = 8.  F at the root counts the 15 nodes,
    giving the upper bound 60, and B(root) = 4*(15 - 4) = 44.
    """
    shape = build_tree(3)
    lam = carleson_normalized(uniform_boundary_measure(shape))
    cert = certify_tree_embedding(lam, np.ones(shape.node_count),
                                  box_squared_alpha(shape))
    assert cert.ok
    assert cert.total == pytest.approx(8.0, rel=1e-12)
    assert cert.bellman_bound == pytest.approx(44.0, rel=1e-12)
    assert cert.upper_bound == pytest.approx(60.0, rel=1e-12)
    assert cert.min_slack >= -1e-9
    assert len(cert.rows) == shape.node_count
    assert cert.rows[0].node == 1
    assert min(r.slack for r in cert.rows) == cert.min_slack


def _eager_rows(lam, phi, alpha):
    """The certificate rows as one list, built straight from the averages."""
    shape = lam.shape
    inv_len = np.exp2(shape.depths().astype(float))
    v = inv_len * subtree_sums(shape.depth, lam.masses)
    F = inv_len * subtree_sums(shape.depth, phi**2)
    f = inv_len * subtree_sums(shape.depth, phi * np.sqrt(lam.masses))
    A = inv_len * subtree_sums(shape.depth, alpha.values * v**2)
    weighted = shape.lengths() * bellman_values(F, f, A, v)
    slack = weighted.copy()
    internal = (shape.node_count - 1) // 2
    if internal:
        slack[:internal] -= weighted[1:].reshape(-1, 2).sum(axis=1)
    slack -= alpha.values * f**2
    return [
        CertificateRow(
            k + 1,
            BellmanPoint(float(F[k]), float(f[k]), float(A[k]), float(v[k])),
            float(slack[k]),
            float(weighted[k]),
        )
        for k in range(shape.node_count)
    ]


@pytest.mark.parametrize("depth", range(9))
def test_lazy_rows_equal_eager_rows(depth):
    shape = build_tree(depth)
    lam = carleson_normalized(random_tree_measure(depth, shape, density=0.5))
    phi = np.random.default_rng(depth).normal(size=shape.node_count)
    alpha = box_squared_alpha(shape)
    rows = certify_tree_embedding(lam, phi, alpha).rows
    eager = _eager_rows(lam, phi, alpha)
    assert len(rows) == len(eager)
    assert list(rows) == eager
    assert rows[-1] == eager[-1] and rows[0] == eager[0]
    with pytest.raises(IndexError):
        rows[len(eager)]


def _closed_form_rows(lam, phi, alpha):
    """The six row arrays from their closed forms, node by node in Python floats.

    A box average is the subtree sum, which adds each node's value to the sum
    of its children's sums, over the interval length 2^-depth.  Then
    v = <lam>, F = <phi^2>, f = <phi sqrt(lam)>, A = <alpha v^2>,
    B = 4 (F - f^2 / (v + A)), or 4F where v + A = 0, the weighted value is
    |I| B and the slack is that minus the children's minus alpha f^2.
    """
    n = lam.shape.node_count
    masses, weights, phi = lam.masses.tolist(), alpha.values.tolist(), list(phi)

    def averages(values):
        sums = [0.0] * (n + 1)
        for k in range(n, 0, -1):
            below = sums[2 * k] + sums[2 * k + 1] if 2 * k <= n else None
            sums[k] = values[k - 1] if below is None else values[k - 1] + below
        return [sums[k] * 2.0 ** (k.bit_length() - 1) for k in range(1, n + 1)]

    v = averages(masses)
    F = averages([p * p for p in phi])
    f = averages([p * math.sqrt(m) for p, m in zip(phi, masses)])
    A = averages([a * (x * x) for a, x in zip(weights, v)])
    weighted = []
    for k in range(1, n + 1):
        s = v[k - 1] + A[k - 1]
        ratio = f[k - 1] * f[k - 1] / s if s > 0 else 0.0
        weighted.append((F[k - 1] - ratio) * 4.0 * 2.0 ** -(k.bit_length() - 1))
    slacks = []
    for k in range(1, n + 1):
        children = weighted[2 * k - 1] + weighted[2 * k] if 2 * k <= n else None
        slack = weighted[k - 1] if children is None else weighted[k - 1] - children
        slacks.append(slack - weights[k - 1] * (f[k - 1] * f[k - 1]))
    return dict(F=F, f=f, A=A, v=v, weighted_values=weighted, slacks=slacks)


@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_rows_equal_their_closed_forms(depth):
    shape = build_tree(depth)
    rng = np.random.default_rng(depth)
    masses = rng.exponential(size=shape.node_count)
    for level in range(depth):  # node 2's subtree has no mass: there v + A = 0
        masses[(2 << level) - 1 : (3 << level) - 1] = 0.0
    lam = TreeMeasure(shape, masses)
    alpha = AlphaSequence(shape, rng.uniform(size=shape.node_count))
    lam = lam.scaled(1.0 / carleson.alpha_test_constant(lam, alpha).constant)
    phi = rng.normal(size=shape.node_count)
    cert = certify_tree_embedding(lam, phi, alpha)
    want = _closed_form_rows(lam, phi, alpha)
    for name, values in want.items():
        assert getattr(cert.rows, name).tobytes() == np.array(values).tobytes(), name
    assert cert.bellman_bound == want["weighted_values"][0]
    assert cert.upper_bound == 4.0 * want["F"][0]
    assert cert.min_slack == min(want["slacks"])
    if depth:
        assert want["v"][1] == want["A"][1] == 0.0 and want["F"][1] > 0.0


def test_rows_are_built_on_first_read_and_kept_read_only(traced_peak):
    shape = build_tree(12)
    lam = carleson_normalized(random_tree_measure(2, shape, density=0.5))
    alpha = box_squared_alpha(shape)
    cert = certify_tree_embedding(lam, np.ones(shape.node_count), alpha)
    node_bytes = shape.node_count * 8
    # the verdicts and the length read no row array
    assert traced_peak(lambda: (len(cert.rows), cert.ok, cert.min_slack)) < node_bytes
    assert len(cert.rows) == shape.node_count and cert.ok
    assert cert.rows.masses is lam.masses and cert.rows.alpha is alpha.values
    # the first read builds all six, which are then kept
    assert traced_peak(lambda: cert.rows.slacks) >= 6 * node_bytes
    names = ("F", "f", "A", "v", "slacks", "weighted_values")
    assert traced_peak(lambda: [getattr(cert.rows, name) for name in names]) < node_bytes
    assert cert.rows.slacks.min() == cert.min_slack
    for name in names:
        array = getattr(cert.rows, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_certificate_point_mass():
    # each of the N+1 path nodes contributes exactly 1/(N+1)
    shape = build_tree(4)
    lam = leaf_point_mass(shape, shape.first_leaf).scaled(1.0 / 5.0)
    cert = certify_tree_embedding(lam, np.ones(shape.node_count),
                                  box_squared_alpha(shape))
    assert cert.ok
    assert cert.total == pytest.approx(1.0, rel=1e-12)


def test_certificate_requires_normalized_measure():
    shape = build_tree(2)
    lam = uniform_boundary_measure(shape)  # test constant 1.75
    with pytest.raises(PreconditionError, match="scale the measure"):
        certify_tree_embedding(lam, np.ones(shape.node_count),
                               box_squared_alpha(shape))


@pytest.mark.parametrize("seed", range(8))
def test_certificate_random_instances(seed):
    shape = build_tree(5)
    rng = np.random.default_rng(seed)
    lam = carleson_normalized(random_tree_measure(seed, shape, density=0.5))
    phi = rng.normal(size=shape.node_count)
    cert = certify_tree_embedding(lam, phi, box_squared_alpha(shape))
    assert cert.ok
    assert cert.total <= cert.bellman_bound + 1e-9 * max(1.0, cert.bellman_bound)
    assert cert.bellman_bound <= cert.upper_bound + 1e-9 * max(1.0, cert.upper_bound)


def test_certificate_with_random_alpha():
    from dyadic_carleson import alpha_test_constant

    shape = build_tree(4)
    rng = np.random.default_rng(40)
    lam = random_tree_measure(40, shape)
    raw = AlphaSequence(shape, rng.uniform(0, 1, shape.node_count))
    constant = alpha_test_constant(lam, raw).constant
    alpha = AlphaSequence(shape, raw.values / (constant * (1 + 1e-12)))
    cert = certify_tree_embedding(lam, rng.normal(size=shape.node_count), alpha)
    assert cert.ok
