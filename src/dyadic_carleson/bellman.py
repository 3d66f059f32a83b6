"""The Bellman function of the dyadic Carleson embedding and its checks.

The function is

    B(F, f, A, v) = 4 * (F - f^2 / (v + A)),        B = 4F when v + A = 0,

on the domain  { f^2 <= F v,  0 <= A <= v,  F >= 0 }.  It is concave,
sits between 0 and 4F, and satisfies two "main inequalities" that drive
the telescoping proof of the embedding theorem:

* the martingale split: for children points x-, x+ and an extra test
  increment m, with the parent built as half-sums except
  A = m + (A- + A+)/2,

      B(parent) - (B(x-) + B(x+))/2  >=  (f^2 / v^2) * m;

* the tree split: the parent gains a node term (a, b, c) via
  F = F~ + b^2, f = f~ + a b, A = A~ + c, v = v~ + a^2 (tildes are the
  half-sums), and

      B(parent) - (B(x-) + B(x+))/2  >=  c * f^2 / v^2.

A third check, the split compensation, bounds the quantity that absorbs
the parent node's own function value:

      (B(F - b^2, f - a b, A - c, v - a^2) - B(F, f, A - c, v)) / 4 <= 0.

``certify_tree_embedding`` turns these into a per-node certificate of
the embedding theorem with constant exactly 4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .carleson import AlphaSequence, alpha_test_constant
from .errors import DomainError, PreconditionError, ValidationError
from .tree import TreeMeasure, as_node_array, subtree_sums

__all__ = [
    "BellmanPoint",
    "CertificateRow",
    "CertificateRows",
    "CompensationBatch",
    "CompensationWitness",
    "GradientReport",
    "MartingaleBatch",
    "MartingaleWitness",
    "SamplerStats",
    "ShiftGain",
    "SplitWitness",
    "TreeCertificate",
    "TreeSplitBatch",
    "a_shift_gain",
    "bellman_gradient",
    "bellman_value",
    "bellman_values",
    "certify_tree_embedding",
    "concavity_first_order_gap",
    "gradient_signs_check",
    "martingale_split_slack",
    "sample_admissible",
    "sample_batch",
    "split_compensation",
    "tree_split_slack",
    "MODES",
]

DOMAIN_TOL = 1e-12

MODE_MARTINGALE = "martingale"
MODE_TREE_SPLIT = "tree_split"
MODE_COMPENSATION = "compensation"
MODES = (MODE_MARTINGALE, MODE_TREE_SPLIT, MODE_COMPENSATION)


@dataclass(frozen=True)
class BellmanPoint:
    """A point (F, f, A, v) of the Bellman domain."""

    F: float
    f: float
    A: float
    v: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.F, self.f, self.A, self.v)


def domain_violation(p: BellmanPoint, tol: float = DOMAIN_TOL) -> str | None:
    """Name of the first violated domain constraint, or None."""
    if not all(np.isfinite(p.as_tuple())):
        return "coordinates must be finite"
    if p.F < -tol:
        return f"F >= 0 violated (F = {p.F})"
    if p.v < -tol:
        return f"v >= 0 violated (v = {p.v})"
    if p.A < -tol:
        return f"A >= 0 violated (A = {p.A})"
    if p.A > p.v + tol:
        return f"A <= v violated (A = {p.A}, v = {p.v})"
    if p.f * p.f > p.F * p.v + tol:
        return f"f^2 <= F v violated (f^2 = {p.f * p.f}, F v = {p.F * p.v})"
    return None


def _require_domain(p: BellmanPoint, tol: float = DOMAIN_TOL) -> None:
    reason = domain_violation(p, tol)
    if reason is not None:
        raise DomainError(reason)


def bellman_value(p: BellmanPoint, tol: float = DOMAIN_TOL) -> float:
    """Evaluate B; raises DomainError off the domain.  0 <= B <= 4F."""
    _require_domain(p, tol)
    s = p.v + p.A
    if s <= 0:
        return 4.0 * p.F
    # f^2 / s <= F (v / s) <= F on the domain; cap it there for points admitted
    # through ``tol`` or with a subnormal F v rounded up, so that B stays >= 0
    return 4.0 * (p.F - min(p.f * p.f / s, p.F * (max(p.v, 0.0) / s)))


def bellman_values(F, f, A, v, scale: float = 4.0) -> np.ndarray:
    """Vectorized B over coordinate arrays; no domain validation.

    ``scale = 1`` gives the unscaled variant used by the bi-tree
    certificate.
    """
    F = np.asarray(F, dtype=float)
    f = np.asarray(f, dtype=float)
    s = np.asarray(v, dtype=float) + np.asarray(A, dtype=float)
    ratio = np.zeros(np.broadcast(F, f, s).shape)
    np.divide(f * f, s, out=ratio, where=s > 0)
    return scale * (F - ratio)


def bellman_gradient(p: BellmanPoint) -> tuple[float, float, float, float]:
    """Closed-form gradient (dF, df, dA, dv) of B at an interior point."""
    s = p.v + p.A
    if s <= 0:
        return (4.0, 0.0, 0.0, 0.0)
    shared = 4.0 * (p.f / s) ** 2
    return (4.0, -8.0 * p.f / s, shared, shared)


# ---------------------------------------------------------------------------
# main inequalities, scalar form
# ---------------------------------------------------------------------------


def _drift(f: float, v: float, amount: float) -> float:
    if v <= 0:
        return 0.0
    return f * f / (v * v) * amount


def martingale_split_slack(
    left: BellmanPoint, right: BellmanPoint, m: float, tol: float = DOMAIN_TOL
) -> float:
    """Slack of the martingale main inequality; must be >= -1e-9.

    The parent is the half-sum of the children except that A gains the
    extra increment ``m``; building it outside the domain (``m`` larger
    than ``v - (A- + A+)/2``) raises DomainError.
    """
    _require_domain(left, tol)
    _require_domain(right, tol)
    if m < -tol:
        raise DomainError(f"m >= 0 violated (m = {m})")
    parent = BellmanPoint(
        0.5 * (left.F + right.F),
        0.5 * (left.f + right.f),
        m + 0.5 * (left.A + right.A),
        0.5 * (left.v + right.v),
    )
    _require_domain(parent, tol)
    half = 0.5 * (bellman_value(left, tol) + bellman_value(right, tol))
    return bellman_value(parent, tol) - half - _drift(parent.f, parent.v, m)


@dataclass(frozen=True)
class MartingaleWitness:
    left: BellmanPoint
    right: BellmanPoint
    m: float


@dataclass(frozen=True)
class SplitWitness:
    """Children points plus the node terms (a, b, c) of a tree split."""

    left: BellmanPoint
    right: BellmanPoint
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValidationError(f"a >= 0 violated (a = {self.a})")
        if self.c < 0:
            raise ValidationError(f"c >= 0 violated (c = {self.c})")

    def parent(self) -> BellmanPoint:
        return BellmanPoint(
            0.5 * (self.left.F + self.right.F) + self.b * self.b,
            0.5 * (self.left.f + self.right.f) + self.a * self.b,
            0.5 * (self.left.A + self.right.A) + self.c,
            0.5 * (self.left.v + self.right.v) + self.a * self.a,
        )


@dataclass(frozen=True)
class CompensationWitness:
    parent: BellmanPoint
    a: float
    b: float
    c: float


def tree_split_slack(witness: SplitWitness, tol: float = DOMAIN_TOL) -> float:
    """Slack of the tree-split main inequality; must be >= -1e-9."""
    _require_domain(witness.left, tol)
    _require_domain(witness.right, tol)
    parent = witness.parent()
    _require_domain(parent, tol)
    half = 0.5 * (bellman_value(witness.left, tol) + bellman_value(witness.right, tol))
    return bellman_value(parent, tol) - half - _drift(parent.f, parent.v, witness.c)


def split_compensation(
    parent: BellmanPoint, a: float, b: float, c: float, tol: float = DOMAIN_TOL
) -> float:
    """Quarter-difference absorbing the parent node term; must be <= 1e-12.

    Evaluates (B(F - b^2, f - ab, A - c, v - a^2) - B(F, f, A - c, v)) / 4.
    Both points must lie in the domain.
    """
    stripped = BellmanPoint(
        parent.F - b * b, parent.f - a * b, parent.A - c, parent.v - a * a
    )
    shifted = BellmanPoint(parent.F, parent.f, parent.A - c, parent.v)
    _require_domain(stripped, tol)
    _require_domain(shifted, tol)
    return 0.25 * (bellman_value(stripped, tol) - bellman_value(shifted, tol))


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
# admissible sampling (vectorized, with a scalar witness stream on top)
# ---------------------------------------------------------------------------


@dataclass
class SamplerStats:
    draws: int = 0
    rejected_cauchy_schwarz: int = 0
    rejected_test_bound: int = 0


@dataclass(frozen=True, eq=False)
class _ChildArrays:
    F: np.ndarray
    f: np.ndarray
    A: np.ndarray
    v: np.ndarray


def _draw_children(rng: np.random.Generator, count: int) -> _ChildArrays:
    F = rng.exponential(1.0, count)
    v = rng.exponential(1.0, count)
    A = rng.uniform(0.0, v)
    f = rng.uniform(-1.0, 1.0, count) * np.sqrt(F * v)
    return _ChildArrays(F, f, A, v)


@dataclass(frozen=True, eq=False)
class MartingaleBatch:
    left: _ChildArrays
    right: _ChildArrays
    m: np.ndarray

    def __len__(self) -> int:
        return self.m.size

    def parent(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        F = 0.5 * (self.left.F + self.right.F)
        f = 0.5 * (self.left.f + self.right.f)
        A = self.m + 0.5 * (self.left.A + self.right.A)
        v = 0.5 * (self.left.v + self.right.v)
        return F, f, A, v

    def slacks(self) -> np.ndarray:
        F, f, A, v = self.parent()
        half = 0.5 * (
            bellman_values(self.left.F, self.left.f, self.left.A, self.left.v)
            + bellman_values(self.right.F, self.right.f, self.right.A, self.right.v)
        )
        drift = np.zeros_like(f)
        np.divide(f * f * self.m, v * v, out=drift, where=v > 0)
        return bellman_values(F, f, A, v) - half - drift

    def witness(self, i: int) -> MartingaleWitness:
        return MartingaleWitness(
            BellmanPoint(self.left.F[i], self.left.f[i], self.left.A[i], self.left.v[i]),
            BellmanPoint(
                self.right.F[i], self.right.f[i], self.right.A[i], self.right.v[i]
            ),
            float(self.m[i]),
        )


@dataclass(frozen=True, eq=False)
class TreeSplitBatch:
    left: _ChildArrays
    right: _ChildArrays
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return self.a.size

    def parent(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        F = 0.5 * (self.left.F + self.right.F) + self.b * self.b
        f = 0.5 * (self.left.f + self.right.f) + self.a * self.b
        A = 0.5 * (self.left.A + self.right.A) + self.c
        v = 0.5 * (self.left.v + self.right.v) + self.a * self.a
        return F, f, A, v

    def slacks(self) -> np.ndarray:
        F, f, A, v = self.parent()
        half = 0.5 * (
            bellman_values(self.left.F, self.left.f, self.left.A, self.left.v)
            + bellman_values(self.right.F, self.right.f, self.right.A, self.right.v)
        )
        drift = np.zeros_like(f)
        np.divide(f * f * self.c, v * v, out=drift, where=v > 0)
        return bellman_values(F, f, A, v) - half - drift

    def witness(self, i: int) -> SplitWitness:
        return SplitWitness(
            BellmanPoint(self.left.F[i], self.left.f[i], self.left.A[i], self.left.v[i]),
            BellmanPoint(
                self.right.F[i], self.right.f[i], self.right.A[i], self.right.v[i]
            ),
            float(self.a[i]),
            float(self.b[i]),
            float(self.c[i]),
        )


@dataclass(frozen=True, eq=False)
class CompensationBatch:
    F: np.ndarray
    f: np.ndarray
    A: np.ndarray
    v: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return self.a.size

    def values(self) -> np.ndarray:
        Ft = self.F - self.b * self.b
        ft = self.f - self.a * self.b
        vt = self.v - self.a * self.a
        As = self.A - self.c
        return 0.25 * (
            bellman_values(Ft, ft, As, vt) - bellman_values(self.F, self.f, As, self.v)
        )

    def witness(self, i: int) -> CompensationWitness:
        return CompensationWitness(
            BellmanPoint(self.F[i], self.f[i], self.A[i], self.v[i]),
            float(self.a[i]),
            float(self.b[i]),
            float(self.c[i]),
        )


def _draw_mode(rng: np.random.Generator, count: int, mode: str, stats: SamplerStats):
    left = _draw_children(rng, count)
    right = _draw_children(rng, count)
    a_half = 0.5 * (left.A + right.A)
    v_half = 0.5 * (left.v + right.v)
    if mode == MODE_MARTINGALE:
        m = rng.uniform(0.0, v_half - a_half)
        batch = MartingaleBatch(left, right, m)
    else:
        a = np.abs(rng.normal(0.0, 1.0, count))
        b = rng.normal(0.0, 1.0, count)
        c = rng.uniform(0.0, v_half + a * a - a_half)
        if mode == MODE_TREE_SPLIT:
            batch = TreeSplitBatch(left, right, a, b, c)
        else:
            F, f, A, v = TreeSplitBatch(left, right, a, b, c).parent()
            batch = CompensationBatch(F, f, A, v, a, b, c)
    stats.draws += count
    F, f, A, v = (
        batch.parent() if not isinstance(batch, CompensationBatch)
        else (batch.F, batch.f, batch.A, batch.v)
    )
    cs_bad = f * f > F * v + DOMAIN_TOL
    a_bad = A > v + DOMAIN_TOL
    stats.rejected_cauchy_schwarz += int(np.count_nonzero(cs_bad))
    stats.rejected_test_bound += int(np.count_nonzero(a_bad & ~cs_bad))
    return batch, ~(cs_bad | a_bad)


def _select(batch, keep: np.ndarray):
    def cut(arr):
        return arr[keep]

    if isinstance(batch, MartingaleBatch):
        return MartingaleBatch(
            _ChildArrays(*(cut(x) for x in (batch.left.F, batch.left.f, batch.left.A, batch.left.v))),
            _ChildArrays(*(cut(x) for x in (batch.right.F, batch.right.f, batch.right.A, batch.right.v))),
            cut(batch.m),
        )
    if isinstance(batch, TreeSplitBatch):
        return TreeSplitBatch(
            _ChildArrays(*(cut(x) for x in (batch.left.F, batch.left.f, batch.left.A, batch.left.v))),
            _ChildArrays(*(cut(x) for x in (batch.right.F, batch.right.f, batch.right.A, batch.right.v))),
            cut(batch.a),
            cut(batch.b),
            cut(batch.c),
        )
    return CompensationBatch(*(cut(x) for x in (
        batch.F, batch.f, batch.A, batch.v, batch.a, batch.b, batch.c)))


def _concat(parts):
    first = parts[0]
    if isinstance(first, MartingaleBatch):
        return MartingaleBatch(
            _ChildArrays(
                np.concatenate([p.left.F for p in parts]),
                np.concatenate([p.left.f for p in parts]),
                np.concatenate([p.left.A for p in parts]),
                np.concatenate([p.left.v for p in parts]),
            ),
            _ChildArrays(
                np.concatenate([p.right.F for p in parts]),
                np.concatenate([p.right.f for p in parts]),
                np.concatenate([p.right.A for p in parts]),
                np.concatenate([p.right.v for p in parts]),
            ),
            np.concatenate([p.m for p in parts]),
        )
    if isinstance(first, TreeSplitBatch):
        return TreeSplitBatch(
            _ChildArrays(
                np.concatenate([p.left.F for p in parts]),
                np.concatenate([p.left.f for p in parts]),
                np.concatenate([p.left.A for p in parts]),
                np.concatenate([p.left.v for p in parts]),
            ),
            _ChildArrays(
                np.concatenate([p.right.F for p in parts]),
                np.concatenate([p.right.f for p in parts]),
                np.concatenate([p.right.A for p in parts]),
                np.concatenate([p.right.v for p in parts]),
            ),
            np.concatenate([p.a for p in parts]),
            np.concatenate([p.b for p in parts]),
            np.concatenate([p.c for p in parts]),
        )
    return CompensationBatch(
        *(np.concatenate([getattr(p, name) for p in parts])
          for name in ("F", "f", "A", "v", "a", "b", "c"))
    )


MAX_REJECTION_ROUNDS = 10_000


def sample_batch(seed, count: int, mode: str):
    """Draw ``count`` admissible witnesses at once.

    Returns ``(batch, stats)``.  ``seed`` may be an integer or a numpy
    Generator.  The construction makes the induced parent admissible by
    design, so rejections can only come from floating-point noise; the
    stats record which constraint was responsible.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    if count < 0:
        raise ValidationError("count must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    stats = SamplerStats()
    parts = []
    need = count
    for _ in range(MAX_REJECTION_ROUNDS):
        if need == 0:
            break
        batch, keep = _draw_mode(rng, need, mode, stats)
        kept = _select(batch, keep)
        parts.append(kept)
        need -= len(kept)
    else:
        raise PreconditionError(
            "sampler exceeded the rejection budget; the domain logic is broken"
        )
    if not parts:
        parts = [_draw_mode(rng, 0, mode, stats)[0]]
    return _concat(parts), stats


def sample_admissible(seed, count: int, mode: str) -> Iterator:
    """Stream of scalar witnesses, deterministic for a given seed."""
    batch, _ = sample_batch(seed, count, mode)
    for i in range(len(batch)):
        yield batch.witness(i)


# ---------------------------------------------------------------------------
# the telescoping certificate of the tree embedding theorem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateRow:
    node: int
    point: BellmanPoint
    slack: float
    weighted_value: float


@dataclass(frozen=True, eq=False)
class CertificateRows(Sequence):
    """Per-node arrays of a tree certificate in heap order, read as a
    sequence of :class:`CertificateRow` built on access."""

    F: np.ndarray
    f: np.ndarray
    A: np.ndarray
    v: np.ndarray
    slacks: np.ndarray
    weighted_values: np.ndarray

    def __len__(self) -> int:
        return self.slacks.size

    def __getitem__(self, index: int) -> CertificateRow:
        k = range(len(self))[index]
        point = BellmanPoint(*(float(x[k]) for x in (self.F, self.f, self.A, self.v)))
        return CertificateRow(
            k + 1, point, float(self.slacks[k]), float(self.weighted_values[k])
        )


@dataclass(frozen=True, eq=False)
class TreeCertificate:
    rows: CertificateRows
    total: float
    bellman_bound: float
    upper_bound: float
    min_slack: float
    ok: bool


def certify_tree_embedding(
    lam: TreeMeasure, phi, alpha: AlphaSequence, tol: float = 1e-9
) -> TreeCertificate:
    """Per-node Bellman certificate of the weighted embedding theorem.

    For every node I the quadruple is built from subtree averages
    (v = box average of lam, F of phi^2, f of phi * sqrt(lam), A of the
    weighted squared averages), and the row slack

        |I| B(x_I) - |I-| B(x_left) - |I+| B(x_right) - alpha_I f_I^2

    must be >= -tol.  Summing rows telescopes to

        sum_I alpha_I f_I^2  <=  B(root)  <=  4 F(root),

    the theorem with constant exactly 4.  Requires the weighted test
    constant of (lam, alpha) to be at most 1 (that is literally the
    domain condition A <= v at every node); otherwise an error asks the
    caller to rescale.
    """
    shape = lam.shape
    phi_a = as_node_array(shape, phi)
    test = alpha_test_constant(lam, alpha)
    if test.constant > 1.0 + 1e-9:
        raise PreconditionError(
            f"weighted test constant {test.constant:.12g} exceeds 1 at node "
            f"{test.argmax_node}; scale the measure by 1/{test.constant:.12g} first"
        )
    depth = shape.depth
    inv_len = np.exp2(shape.depths().astype(float))
    lens = shape.lengths()

    v = inv_len * subtree_sums(depth, lam.masses)
    F = inv_len * subtree_sums(depth, phi_a**2)
    f = inv_len * subtree_sums(depth, phi_a * np.sqrt(lam.masses))
    A = inv_len * subtree_sums(depth, alpha.values * v**2)

    weighted = lens * bellman_values(F, f, A, v)
    slack = weighted.copy()
    internal = (shape.node_count - 1) // 2
    if internal:
        slack[:internal] -= weighted[1:].reshape(-1, 2).sum(axis=1)
    slack -= alpha.values * f**2

    total = float((alpha.values * f * f).sum())
    bound = float(weighted[0])
    upper = float(4.0 * F[0])
    min_slack = float(slack.min())
    scale = max(1.0, abs(total), abs(bound), abs(upper))
    ok = (
        min_slack >= -tol
        and total <= bound + tol * scale
        and bound <= upper + tol * scale
    )
    rows = CertificateRows(F, f, A, v, slack, weighted)
    return TreeCertificate(rows, total, bound, upper, min_slack, ok)
