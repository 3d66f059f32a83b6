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

``sample_batch`` draws admissible witnesses of any of the three checks
into one ``SampleBatch`` record of named coordinate arrays, and
``certify_tree_embedding`` turns the checks into a per-node certificate
of the embedding theorem with constant exactly 4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .carleson import AlphaSequence, _row_blocks, _safe_ratio, alpha_test_constant
from .errors import DomainError, PreconditionError, ValidationError
from .tree import TreeMeasure, TreeShape, _subtree_sums_inplace, as_node_array

__all__ = [
    "BellmanPoint",
    "CertificateRow",
    "CertificateRows",
    "CompensationWitness",
    "MartingaleWitness",
    "SampleBatch",
    "SamplerStats",
    "SplitWitness",
    "TreeCertificate",
    "bellman_gradient",
    "bellman_value",
    "bellman_values",
    "certify_tree_embedding",
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


def bellman_values(F, f, A, v) -> np.ndarray:
    """Vectorized B over coordinate arrays; no domain validation."""
    F = np.asarray(F, dtype=float)
    f = np.asarray(f, dtype=float)
    s = np.asarray(v, dtype=float) + np.asarray(A, dtype=float)
    ratio = np.zeros(np.broadcast(F, f, s).shape)
    np.divide(f * f, s, out=ratio, where=s > 0)
    return 4.0 * (F - ratio)


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


def _split_slack(left: BellmanPoint, right: BellmanPoint, parent: BellmanPoint,
                 increment: float, tol: float) -> float:
    """B(parent) - (B(left) + B(right))/2 - increment * f^2 / v^2 at the parent."""
    _require_domain(parent, tol)
    half = 0.5 * (bellman_value(left, tol) + bellman_value(right, tol))
    f, v = parent.f, parent.v
    drift = f * f / (v * v) * increment if v > 0 else 0.0
    return bellman_value(parent, tol) - half - drift


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
    return _split_slack(left, right, parent, m, tol)


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
    return _split_slack(witness.left, witness.right, witness.parent(), witness.c, tol)


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


# ---------------------------------------------------------------------------
# admissible sampling (vectorized, with a scalar witness stream on top)
# ---------------------------------------------------------------------------


@dataclass
class SamplerStats:
    draws: int = 0
    rejected_cauchy_schwarz: int = 0
    rejected_test_bound: int = 0


# Raw arrays are drawn whole and scaled in place: ``rng.random(n) * high``
# draws the same stream and bits as ``rng.uniform(0.0, high)``; likewise
# ``standard_exponential`` and ``standard_normal`` stand for
# ``exponential(1.0)`` and ``normal(0.0, 1.0)``.  All later arithmetic is
# elementwise and runs in blocks of about ``carleson.BLOCK_ENTRIES`` entries,
# so temporaries stay cache-sized and each entry has the whole-array bits.


def _draw_children(rng: np.random.Generator, count: int, side: str) -> dict:
    """Raw draws of one side: F and v, and A and f before their scaling."""
    F = rng.standard_exponential(count)
    v = rng.standard_exponential(count)
    A = rng.random(count)
    f = rng.uniform(-1.0, 1.0, count)
    return {"F" + side: F, "f" + side: f, "A" + side: A, "v" + side: v}


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Equal-length named arrays of one sampler mode.

    The split modes hold the children ``F-, f-, A-, v-, F+, f+, A+, v+``
    followed by ``m`` (martingale) or ``a, b, c`` (tree split); the
    compensation mode holds the parent ``F, f, A, v`` and ``a, b, c``.
    ``slacks`` serves the split modes and ``values`` the compensation; both
    run block by block into one array.
    """

    mode: str
    arrays: dict[str, np.ndarray]

    def __len__(self) -> int:
        return next(iter(self.arrays.values())).size

    def _select(self, index) -> SampleBatch:
        """The entries at ``index``: views for a slice, copies for a mask."""
        return SampleBatch(self.mode, {k: x[index] for k, x in self.arrays.items()})

    def parent(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        x = self.arrays
        if self.mode == MODE_COMPENSATION:
            return x["F"], x["f"], x["A"], x["v"]
        # the half-sums take the node terms in place, so no array is left behind
        F, f, A, v = (0.5 * (x[k + "-"] + x[k + "+"]) for k in "FfAv")
        if self.mode == MODE_MARTINGALE:
            A += x["m"]
        else:
            a, b = x["a"], x["b"]
            F += b * b
            f += a * b
            A += x["c"]
            v += a * a
        return F, f, A, v

    def _by_blocks(self, formula) -> np.ndarray:
        out = np.empty(len(self))
        for rows in _row_blocks(len(self), 1):
            out[rows] = formula(self._select(rows))
        return out

    def slacks(self) -> np.ndarray:
        return self._by_blocks(SampleBatch._block_slacks)

    def values(self) -> np.ndarray:
        return self._by_blocks(SampleBatch._block_values)

    def _block_slacks(self) -> np.ndarray:
        x = self.arrays
        F, f, A, v = self.parent()
        half = 0.5 * (
            bellman_values(x["F-"], x["f-"], x["A-"], x["v-"])
            + bellman_values(x["F+"], x["f+"], x["A+"], x["v+"])
        )
        increment = x["m"] if self.mode == MODE_MARTINGALE else x["c"]
        drift = np.zeros_like(f)
        np.divide(f * f * increment, v * v, out=drift, where=v > 0)
        return bellman_values(F, f, A, v) - half - drift

    def _block_values(self) -> np.ndarray:
        x = self.arrays
        a, b = x["a"], x["b"]
        As = x["A"] - x["c"]
        return 0.25 * (
            bellman_values(x["F"] - b * b, x["f"] - a * b, As, x["v"] - a * a)
            - bellman_values(x["F"], x["f"], As, x["v"])
        )

    def witness(self, i: int):
        """The scalar witness at index ``i``, of the mode's witness class."""
        x = self.arrays
        if self.mode == MODE_COMPENSATION:
            point = BellmanPoint(x["F"][i], x["f"][i], x["A"][i], x["v"][i])
            return CompensationWitness(point, *(float(x[k][i]) for k in "abc"))
        left, right = (
            BellmanPoint(*(x[k + side][i] for k in "FfAv")) for side in "-+"
        )
        if self.mode == MODE_MARTINGALE:
            return MartingaleWitness(left, right, float(x["m"][i]))
        return SplitWitness(left, right, *(float(x[k][i]) for k in "abc"))


def _draw_mode(rng: np.random.Generator, count: int, mode: str, stats: SamplerStats):
    """One round of ``count`` witnesses and the mask of the admissible ones;
    compensation parents overwrite the ``-`` children, the ``+`` ones go."""
    x = {**_draw_children(rng, count, "-"), **_draw_children(rng, count, "+")}
    if mode == MODE_MARTINGALE:
        x["m"] = rng.random(count)
    else:
        a = rng.standard_normal(count)
        x.update(a=np.abs(a, out=a), b=rng.standard_normal(count), c=rng.random(count))
    split = SampleBatch(MODE_MARTINGALE if mode == MODE_MARTINGALE else MODE_TREE_SPLIT, x)
    keep = np.empty(count, dtype=bool)
    for rows in _row_blocks(count, 1):
        block = split._select(rows)
        y = block.arrays
        for side in "-+":
            y["A" + side] *= y["v" + side]
            y["f" + side] *= np.sqrt(y["F" + side] * y["v" + side])
        a_half = 0.5 * (y["A-"] + y["A+"])
        v_half = 0.5 * (y["v-"] + y["v+"])
        if mode == MODE_MARTINGALE:
            y["m"] *= v_half - a_half
        else:
            y["c"] *= v_half + y["a"] * y["a"] - a_half
        F, f, A, v = block.parent()
        if mode == MODE_COMPENSATION:
            for k, parent in zip("FfAv", (F, f, A, v)):
                y[k + "-"][...] = parent
        cs_bad = f * f > F * v + DOMAIN_TOL
        a_bad = A > v + DOMAIN_TOL
        stats.rejected_cauchy_schwarz += int(np.count_nonzero(cs_bad))
        stats.rejected_test_bound += int(np.count_nonzero(a_bad & ~cs_bad))
        np.logical_not(cs_bad | a_bad, out=keep[rows])
    stats.draws += count
    if mode == MODE_COMPENSATION:
        parent = {k: x[k + "-"] for k in "FfAv"}
        return SampleBatch(mode, {**parent, **{k: x[k] for k in "abc"}}), keep
    return split, keep


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
        batch, keep = _draw_mode(rng, need, mode, stats)
        if not keep.all():
            batch = batch._select(keep)
        parts.append(batch)
        need -= len(batch)
        if need == 0:
            break
    else:
        raise PreconditionError(
            "sampler exceeded the rejection budget; the domain logic is broken"
        )
    if len(parts) == 1:
        return parts[0], stats
    arrays = {k: np.concatenate([p.arrays[k] for p in parts]) for k in parts[0].arrays}
    return SampleBatch(mode, arrays), stats


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
    """Per-node arrays of a tree certificate in heap order, read as a sequence
    of :class:`CertificateRow`; the six arrays are built on first read, then kept."""

    shape: TreeShape
    masses: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray

    @cached_property
    def _arrays(self) -> list[np.ndarray]:
        inputs = (self.shape, self.masses, self.phi, self.alpha)
        arrays = [*_quadruples(*inputs), *_certificate_arrays(*inputs)[:2]]
        for x in arrays:
            x.flags.writeable = False
        return arrays

    F, f, A, v, weighted_values, slacks = (
        property(lambda rows, k=k: rows._arrays[k]) for k in range(6))

    def __len__(self) -> int:
        return self.masses.size

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


def _quadruples(shape: TreeShape, masses: np.ndarray, phi: np.ndarray,
                alpha: np.ndarray) -> list[np.ndarray]:
    """The box averages F, f, A and v of phi^2, phi sqrt(lam), alpha v^2 and lam."""
    def averages(x: np.ndarray) -> np.ndarray:
        _subtree_sums_inplace(shape.depth, x)
        x /= shape.lengths()
        return x

    v = averages(masses.copy())
    A = averages(v * v * alpha)
    f = averages(np.sqrt(masses) * phi)
    return [averages(phi * phi), f, A, v]


def _certificate_arrays(shape: TreeShape, masses: np.ndarray, phi: np.ndarray,
                        alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The weighted values |I| B(x_I) and the slacks of every node, the total
    and the upper bound 4 F(root), with about four node arrays at once."""
    F, f, s, v = _quadruples(shape, masses, phi, alpha)
    s += v  # v + A, for B = 4 (F - f^2 / s) as in bellman_values
    del v
    weighted = _safe_ratio(f * f, s, out=s)  # v + A is not read again
    np.subtract(F, weighted, out=weighted)
    upper = float(4.0 * F[0])
    del F, s
    weighted *= 4.0
    weighted *= shape.lengths()
    total = float((alpha * f * f).sum())
    f *= f
    f *= alpha  # now alpha f^2
    slack = weighted.copy()
    slack[: slack.size // 2] -= weighted[1:].reshape(-1, 2).sum(axis=1)
    slack -= f
    return weighted, slack, total, upper


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
    caller to rescale.  The certificate keeps the masses, phi and alpha
    it certified, and its rows build their arrays from them on first read.
    """
    shape = lam.shape
    phi_a = as_node_array(shape, phi)
    test = alpha_test_constant(lam, alpha)
    if test.constant > 1.0 + 1e-9:
        raise PreconditionError(
            f"weighted test constant {test.constant:.12g} exceeds 1 at node "
            f"{test.argmax_node}; scale the measure by 1/{test.constant:.12g} first"
        )
    weighted, slack, total, upper = _certificate_arrays(
        shape, lam.masses, phi_a, alpha.values)
    bound = float(weighted[0])
    min_slack = float(slack.min())
    scale = max(1.0, abs(total), abs(bound), abs(upper))
    ok = (
        min_slack >= -tol
        and total <= bound + tol * scale
        and bound <= upper + tol * scale
    )
    rows = CertificateRows(shape, lam.masses, phi_a, alpha.values)
    return TreeCertificate(rows, total, bound, upper, min_slack, ok)
