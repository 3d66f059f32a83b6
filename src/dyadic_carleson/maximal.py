"""Maximal ratio function on a tree and the stopping-time decomposition.

For a measure Lam on the tree and a node function phi, each node K
carries the ratio

    r_K = (integral of phi dLam over the subtree of K) / Lam(subtreeK),

set to 0 where the subtree mass vanishes.  The maximal function m_I is
the largest ratio over ancestors of I (including I itself).  The
stopping-time decomposition cuts the tree at the minimal descendants
where the ratio at least doubles; the resulting regions of controlled
ratio prove the maximal inequality

    sum_I Lam(I)^2 m_I^2  <=  32 * integral of phi^2 dLam

whenever the Carleson box constant of Lam is at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carleson import AlphaSequence, _safe_ratio, alpha_test_constant, carleson_ratios
from .errors import PreconditionError, ValidationError
from .tree import NodeVector, TreeMeasure, TreeShape, as_node_array, subtree_sums
from .tree import _ancestor_sums_inplace

__all__ = [
    "MaximalReport",
    "StoppingDecomposition",
    "StoppingInvariantReport",
    "average_ratios",
    "maximal_ratios",
    "maximal_theorem_check",
    "stopping_decomposition",
    "verify_stopping_invariants",
]


def _ratios(lam: TreeMeasure, phi) -> tuple[np.ndarray, np.ndarray]:
    """Subtree ratios of ``phi`` against ``lam``, and the subtree masses."""
    phi_a = as_node_array(lam.shape, phi)
    num = subtree_sums(lam.shape.depth, phi_a * lam.masses)
    den = subtree_sums(lam.shape.depth, lam.masses)
    return _safe_ratio(num, den), den


def _level(d: int) -> slice:
    """Heap positions (node - 1) of the nodes at depth ``d``."""
    return slice((1 << d) - 1, (1 << (d + 1)) - 1)


def average_ratios(lam: TreeMeasure, phi) -> NodeVector:
    """Per-node ratio of the phi-integral to the mass of the subtree."""
    return NodeVector(lam.shape, _ratios(lam, phi)[0])


def maximal_ratios(lam: TreeMeasure, phi) -> NodeVector:
    """Running maximum of the subtree ratios along root-to-node paths."""
    m = _ratios(lam, phi)[0]
    _ancestor_sums_inplace(lam.shape.depth, m, np.maximum)
    return NodeVector(lam.shape, m)


@dataclass(frozen=True, eq=False)
class StoppingDecomposition:
    """Stopping vertices, per-node owners, and the region masses."""

    shape: TreeShape
    generations: list[list[int]]
    owner: np.ndarray
    beta: dict[int, float]
    ratios: dict[int, float]

    def stopping_vertices(self) -> list[int]:
        return sorted(self.beta)

    def region_sizes(self) -> dict[int, int]:
        # np.unique tallies any owner, so a corrupted decomposition still counts
        owners, counts = np.unique(self.owner, return_counts=True)
        sizes = dict.fromkeys(self.beta, 0)
        sizes.update(zip(owners.tolist(), counts.tolist()))
        return sizes

    def to_dict(self) -> dict:
        return {
            "depth": self.shape.depth,
            "generations": [list(g) for g in self.generations],
            "owner": [int(h) for h in self.owner],
            "stopping": [
                {"node": h, "beta": self.beta[h], "ratio": self.ratios[h]}
                for h in self.stopping_vertices()
            ],
        }


def stopping_decomposition(
    lam: TreeMeasure, phi, *, allow_signed: bool = False
) -> StoppingDecomposition:
    """Cut the tree at minimal descendants where the ratio doubles.

    The root always opens generation zero.  A descendant J of the
    current vertex H becomes a stopping vertex when its subtree has
    positive mass and its ratio reaches twice the ratio at H (strictly
    positive when the ratio at H is zero).  Zero-mass subtrees never
    stop and stay with the vertex that reached them.

    Signed phi makes the ratios oscillate and voids the guarantees of
    ``verify_stopping_invariants``; pass ``allow_signed=True`` to
    experiment anyway.

    One root-to-leaf sweep decides a level at a time: each node stops
    against its parent's owner or inherits that owner.  ``beta`` and
    ``ratios`` list the vertices generation by generation, sorted.
    """
    shape = lam.shape
    phi_a = as_node_array(shape, phi)
    if not allow_signed and np.any(phi_a < 0):
        raise ValidationError(
            "phi must be nonnegative (pass allow_signed=True to override)"
        )
    r, den = _ratios(lam, phi_a)

    n = shape.node_count
    nodes = np.arange(1, n + 1, dtype=np.int64)
    owner = np.ones(n, dtype=np.int64)
    generation = np.zeros(n, dtype=np.int64)
    for d in range(1, shape.depth + 1):
        here, up = _level(d), _level(d - 1)
        po = np.repeat(owner[up], 2)
        r_po, r_here = r[po - 1], r[here]
        # With a zero owner ratio the >= test would fire at every child;
        # require strict growth instead so the recursion cannot degenerate.
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


@dataclass(frozen=True)
class StoppingInvariantReport:
    partition_ok: bool
    owner_consistent: bool
    region_mass_ok: bool
    region_mass_margin: float
    beta_sum_ok: bool
    beta_sum_margin: float
    chain_ok: bool
    chain_margin: float
    ownership_ratio_ok: bool
    ownership_ratio_margin: float
    maximal_ratio_ok: bool
    maximal_ratio_margin: float
    alpha_test_ok: bool
    alpha_test_constant: float
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _node_items(table: dict[int, float], n: int):
    """Keys in ``1..n`` of a per-vertex table, their values, and whether all were."""
    keys = np.fromiter(table, dtype=np.int64, count=len(table))
    values = np.fromiter(table.values(), dtype=float, count=len(table))
    inside = (keys >= 1) & (keys <= n)
    return keys[inside], values[inside], bool(inside.all())


def derived_alpha(dec: StoppingDecomposition, lam: TreeMeasure) -> AlphaSequence:
    """Weight sequence beta_H / (subtree average of Lam at H)^2.

    Supported on the stopping vertices; its Carleson test constant is at
    most 1 because the beta masses of stopping descendants never exceed
    the subtree mass.
    """
    return _derived_alpha(dec, lam.shape, subtree_sums(lam.shape.depth, lam.masses))


def _derived_alpha(
    dec: StoppingDecomposition, shape: TreeShape, den: np.ndarray
) -> AlphaSequence:
    keys, beta, _ = _node_items(dec.beta, shape.node_count)
    keep = den[keys - 1] > 0
    pos, beta = keys[keep] - 1, beta[keep]
    values = np.zeros(shape.node_count)
    values[pos] = beta * (shape.lengths()[pos] / den[pos]) ** 2
    return AlphaSequence(shape, values)


def verify_stopping_invariants(
    dec: StoppingDecomposition, lam: TreeMeasure, phi, tol: float = 1e-12
) -> StoppingInvariantReport:
    """Check every structural claim the decomposition is built on.

    Pure check: nothing raises, each invariant reports pass/fail with
    its worst margin and failures are collected by name.  Ratios and
    masses are recomputed from ``lam`` and ``phi``.  Owners that are not
    nodes fail ``partition`` and ``owner-consistency`` and read ratio 0.
    """
    shape = lam.shape
    n = shape.node_count
    r, den = _ratios(lam, phi)
    m = r.copy()
    _ancestor_sums_inplace(shape.depth, m, np.maximum)

    # slot 0 of the owner-indexed arrays stands for "not a node"
    owner = np.array(dec.owner, dtype=np.int64)
    if owner.shape != (n,):
        owner = np.zeros(n, dtype=np.int64)
    owners_in_tree = bool(np.all((owner >= 1) & (owner <= n)))
    owner[(owner < 1) | (owner > n)] = 0
    stop, beta, keys_in_tree = _node_items(dec.beta, n)
    is_stop = np.zeros(n + 1, dtype=bool)
    is_stop[stop] = True
    sizes = np.bincount(owner, minlength=n + 1)
    listed = [h for g in dec.generations for h in g]
    partition_ok = bool(
        dec.beta
        and keys_in_tree
        and owners_in_tree
        and dec.generations[:1] == [[1]]
        and not sizes[~is_stop].any()
        and sizes[stop].all()
        and len(listed) == len(set(listed))
        and set(listed) == set(dec.beta)
    )

    # the root has no parent's owner to inherit, so it must stop
    nodes = np.arange(1, n + 1)
    parent_owner = np.concatenate(([0], owner[nodes[1:] // 2 - 1]))
    owner_consistent = owners_in_tree and np.array_equal(
        owner, np.where(is_stop[1:], nodes, parent_owner)
    )

    # mass captured by the stopping children must stay below half
    later = np.array([h for g in dec.generations[1:] for h in g], dtype=np.int64)
    later = later[(later >= 2) & (later <= n)]  # the rest fail the partition
    pred = owner[later // 2 - 1]
    escaped = np.bincount(pred, weights=den[later - 1], minlength=n + 1)[stop]
    region_margin = float(np.max(escaped - 0.5 * den[stop - 1], initial=-np.inf))
    region_mass_ok = bool(region_margin <= tol)

    beta_values = np.zeros(n)
    beta_values[stop - 1] = beta
    beta_sums = subtree_sums(shape.depth, beta_values)
    beta_margin = np.abs(beta - (den[stop - 1] - escaped)).max(initial=-np.inf)
    beta_sum_margin = float(max(beta_margin, (beta_sums - den).max()))
    beta_sum_ok = bool(beta_sum_margin <= tol)

    # the owner's ratio as the decomposition records it, else recomputed
    r0 = np.concatenate(([0.0], r))
    recorded = r0.copy()
    ratio_keys, ratio_values, _ = _node_items(dec.ratios, n)
    recorded[ratio_keys] = ratio_values
    r_p, r_j = recorded[pred], r[later - 1]
    zero = r_p == 0.0
    chain_margin = float(np.max(2.0 * r_p[~zero] - r_j[~zero], initial=-np.inf))
    chain_ok = bool(np.all(r_j[zero] > 0.0) and chain_margin <= tol)

    owner_ratio = r0[owner] if dec.beta else np.zeros_like(r)
    ratio_margin = float((r - 2.0 * owner_ratio).max())
    ownership_ratio_ok = bool(ratio_margin <= tol)
    maximal_margin = float((m - 2.0 * owner_ratio).max())
    maximal_ratio_ok = bool(maximal_margin <= tol)

    alpha = _derived_alpha(dec, shape, den)
    alpha_constant = float(alpha_test_constant(lam, alpha).constant)
    alpha_test_ok = alpha_constant <= 1.0 + 1e-9

    failures = [
        name
        for name, ok in (
            ("partition", partition_ok),
            ("owner-consistency", owner_consistent),
            ("region-mass", region_mass_ok),
            ("beta-sum", beta_sum_ok),
            ("chain-growth", chain_ok),
            ("ownership-ratio", ownership_ratio_ok),
            ("maximal-ratio", maximal_ratio_ok),
            ("alpha-test", alpha_test_ok),
        )
        if not ok
    ]
    return StoppingInvariantReport(
        partition_ok=partition_ok,
        owner_consistent=owner_consistent,
        region_mass_ok=region_mass_ok,
        region_mass_margin=region_margin,
        beta_sum_ok=beta_sum_ok,
        beta_sum_margin=beta_sum_margin,
        chain_ok=chain_ok,
        chain_margin=chain_margin,
        ownership_ratio_ok=ownership_ratio_ok,
        ownership_ratio_margin=ratio_margin,
        maximal_ratio_ok=maximal_ratio_ok,
        maximal_ratio_margin=maximal_margin,
        alpha_test_ok=alpha_test_ok,
        alpha_test_constant=alpha_constant,
        failures=failures,
    )


@dataclass(frozen=True, eq=False)
class MaximalReport:
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    stopping_bound: float
    stopping_bound_ok: bool
    one_box_constant: float
    decomposition: StoppingDecomposition


def maximal_theorem_check(
    lam: TreeMeasure,
    phi,
    tol: float = 1e-9,
    *,
    allow_signed: bool = False,
) -> MaximalReport:
    """End-to-end constant-32 maximal inequality on one instance.

    lhs = sum of Lam(I)^2 m_I^2 over nodes, rhs = integral of phi^2
    dLam; passes when lhs <= 32 rhs + tol.  Also recomputes the
    intermediate stopping bound 8 * sum of ratio_H^2 beta_H, which must
    dominate lhs on the way to the constant 32.  Requires the box
    constant of Lam to be at most 1; rescale first (both sides are
    homogeneous, quadratic against linear, so this costs nothing).
    """
    box = carleson_ratios(lam).test_constant
    if box > 1.0 + 1e-9:
        raise PreconditionError(
            f"box constant {box:.12g} exceeds 1; scale the measure by "
            f"1/{box:.12g} first"
        )
    shape = lam.shape
    phi_a = as_node_array(shape, phi)
    m, den = _ratios(lam, phi_a)
    _ancestor_sums_inplace(shape.depth, m, np.maximum)
    lhs = float((den**2 * m**2).sum())
    rhs = float((phi_a**2 * lam.masses).sum())
    dec = stopping_decomposition(lam, phi_a, allow_signed=allow_signed)
    bound = 8.0 * sum(dec.ratios[h] ** 2 * dec.beta[h] for h in dec.beta)
    ratio = lhs / rhs if rhs > 0 else 0.0
    return MaximalReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        passed=lhs <= 32.0 * rhs + tol,
        stopping_bound=float(bound),
        stopping_bound_ok=lhs <= bound + tol,
        one_box_constant=float(box),
        decomposition=dec,
    )
