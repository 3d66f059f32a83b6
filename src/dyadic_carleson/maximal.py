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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .carleson import (
    AlphaSequence,
    _row_blocks,
    _safe_ratio,
    _stacks,
    _test_constants,
    _test_ratios,
    _trial,
    _weighted_ratios,
)
from .errors import PreconditionError, ValidationError
from .tree import NodeVector, TreeMeasure, TreeShape, as_node_array, subtree_sums
from .tree import _ancestor_sums_inplace, _subtree_sums_inplace

__all__ = [
    "MaximalCheck",
    "MaximalReport",
    "StoppingDecomposition",
    "StoppingInvariantReport",
    "average_ratios",
    "maximal_checks",
    "maximal_ratios",
    "maximal_theorem_check",
    "stopping_decomposition",
    "verify_stopping_invariants",
]


def _ratios(depth: int, masses: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtree ratios of ``phi`` against ``masses``, and the subtree masses.

    Along the leading (node) axis; a trailing axis holds trials.
    """
    num = phi * masses
    _subtree_sums_inplace(depth, num)
    den = subtree_sums(depth, masses)
    return _safe_ratio(num, den, out=num), den


def _gathered(shape: TreeShape, phis: list) -> np.ndarray:
    """The phis as one ``(nodes, trials)`` array; the first phi that
    :func:`as_node_array` rejects raises, at its trial."""
    out = np.empty((shape.node_count, len(phis)))
    for k, phi in enumerate(phis):
        with _trial(k):
            out[:, k] = as_node_array(shape, phi)
    return out


def _level(d: int) -> slice:
    """Heap positions (node - 1) of the nodes at depth ``d``."""
    return slice((1 << d) - 1, (1 << (d + 1)) - 1)


def average_ratios(lam: TreeMeasure, phi) -> NodeVector:
    """Per-node ratio of the phi-integral to the mass of the subtree."""
    phi_a = as_node_array(lam.shape, phi)
    return NodeVector(lam.shape, _ratios(lam.shape.depth, lam.masses, phi_a)[0])


def maximal_ratios(lam: TreeMeasure, phi) -> NodeVector:
    """Running maximum of the subtree ratios along root-to-node paths."""
    phi_a = as_node_array(lam.shape, phi)
    m = _ratios(lam.shape.depth, lam.masses, phi_a)[0]
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
    phi_a = as_node_array(lam.shape, phi)[:, None]
    if not allow_signed and np.any(phi_a < 0):
        raise ValidationError(_SIGNED_PHI)
    [dec] = _decompositions(lam.shape, *_ratios(lam.shape.depth, lam.masses[:, None], phi_a))
    return dec


_SIGNED_PHI = "phi must be nonnegative (pass allow_signed=True to override)"


def _decompositions(shape: TreeShape, r: np.ndarray,
                    den: np.ndarray) -> list[StoppingDecomposition]:
    """The stopping decomposition of each trial of subtree ratios and masses.

    ``r`` and ``den`` are ``(nodes, trials)``; the sweep runs over all
    trials at once.  The stopping vertices of all trials are then sorted
    by trial, generation and node, so each trial's ``escaped`` masses add
    up in the order a lone trial adds them.
    """
    n = shape.node_count
    owner = np.ones(r.shape, dtype=np.int64)
    generation = np.zeros(r.shape, dtype=np.int8)  # at most the depth: int64 ids keep it < 63
    for d in range(1, shape.depth + 1):
        here, up = _level(d), _level(d - 1)
        po = np.repeat(owner[up], 2, axis=0)
        r_po, r_here = np.take_along_axis(r, po - 1, axis=0), r[here]
        # With a zero owner ratio the >= test would fire at every child;
        # require strict growth instead so the recursion cannot degenerate.
        stops = (den[here] > 0.0) & np.where(
            r_po == 0.0, r_here > 0.0, r_here >= 2.0 * r_po
        )
        owner[here] = np.where(stops, np.arange(here.start + 1, here.stop + 1)[:, None], po)
        generation[here] = np.repeat(generation[up], 2, axis=0) + stops

    owners = np.ascontiguousarray(owner.T)
    trial, pos = np.nonzero(owners == np.arange(1, n + 1))
    slot = trial * n + pos  # ascending: the bins of the escaped masses below
    gen = generation.T[trial, pos]
    order = np.argsort(trial * (shape.depth + 1) + gen, kind="stable")
    trial, pos, gen = trial[order], pos[order], gen[order]
    # every trial's first vertex is the root; the others are its children
    child = pos > 0
    up = owners[trial[child], (pos[child] + 1) // 2 - 1] - 1
    den_t, r_t = den.T, r.T
    count = len(owners)
    escaped = np.bincount(np.searchsorted(slot, trial[child] * n + up),
                          weights=den_t[trial[child], pos[child]], minlength=slot.size)
    beta = (den_t[trial, pos] - escaped[order]).tolist()
    ratio = r_t[trial, pos].tolist()
    keys, gen = (pos + 1).tolist(), gen.tolist()
    bounds = np.searchsorted(trial, np.arange(count + 1)).tolist()
    decs = []
    for k in range(count):
        lo, hi = bounds[k], bounds[k + 1]
        generations = [[] for _ in range(gen[hi - 1] + 1)]
        for g, key in zip(gen[lo:hi], keys[lo:hi]):
            generations[g].append(key)
        decs.append(StoppingDecomposition(
            shape, generations, owners[k],
            dict(zip(keys[lo:hi], beta[lo:hi])), dict(zip(keys[lo:hi], ratio[lo:hi])),
        ))
    return decs


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


# the flag of each invariant and the name a failure lists it by, in order
_INVARIANTS = {
    "partition_ok": "partition",
    "owner_consistent": "owner-consistency",
    "region_mass_ok": "region-mass",
    "beta_sum_ok": "beta-sum",
    "chain_ok": "chain-growth",
    "ownership_ratio_ok": "ownership-ratio",
    "maximal_ratio_ok": "maximal-ratio",
    "alpha_test_ok": "alpha-test",
}


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
    keys, beta, _ = _node_items(dec.beta, lam.shape.node_count)
    den = subtree_sums(lam.shape.depth, lam.masses[:, None])
    trial = np.zeros(len(keys), dtype=np.int64)
    return AlphaSequence(lam.shape, _alpha_weights(lam.shape, trial, keys, beta, den)[:, 0])


def _alpha_weights(shape: TreeShape, trial: np.ndarray, keys: np.ndarray,
                   beta: np.ndarray, den: np.ndarray) -> np.ndarray:
    """:func:`derived_alpha` weights of ``beta`` at vertices ``keys`` of
    trials ``trial``, laid out like the ``(nodes, trials)`` subtree masses ``den``."""
    keep = den[keys - 1, trial] > 0
    trial, pos = trial[keep], keys[keep] - 1
    values = np.zeros(den.shape)
    values[pos, trial] = beta[keep] * (shape.lengths()[pos] / den[pos, trial]) ** 2
    return values


def verify_stopping_invariants(
    dec: StoppingDecomposition, lam: TreeMeasure, phi, tol: float = 1e-12
) -> StoppingInvariantReport:
    """Check every structural claim the decomposition is built on.

    Pure check: nothing raises, each invariant reports pass/fail with
    its worst margin and failures are collected by name.  Ratios and
    masses are recomputed from ``lam`` and ``phi``.  Owners that are not
    nodes fail ``partition`` and ``owner-consistency`` and read ratio 0.
    Betas that give a negative or non-finite weight fail ``alpha-test`` at NaN.
    """
    phi_a = as_node_array(lam.shape, phi)[:, None]
    [report] = _invariant_reports(lam.shape, lam.masses[:, None], phi_a, [dec], tol)
    return report


def _invariant_reports(shape: TreeShape, masses: np.ndarray, phi: np.ndarray,
                       decs: list, tol: float) -> list[StoppingInvariantReport]:
    """:func:`verify_stopping_invariants` of each trial.

    ``masses`` and ``phi`` are ``(nodes, trials)``.  Ratios and masses are
    recomputed here from the masses and phi.  Per-vertex values of all
    trials sit in one flat array of ``nodes + 1`` slots per trial (slot 0
    stands for "not a node"); the owner-grouped sums add each trial's
    values in its own order, and the margins are maxima per trial.
    """
    n, count = shape.node_count, len(decs)
    slots = n + 1
    r, den = _ratios(shape.depth, masses, phi)
    del phi  # a caller's temporary goes before the node arrays below
    r_t, den_t = r.T, den.T

    owners = [np.asarray(dec.owner, dtype=np.int64) for dec in decs]
    owners = [o if o.shape == (n,) else np.zeros(n, dtype=np.int64) for o in owners]
    # a lone trial reads its owners in place, and never writes them
    owners = owners[0][None] if count == 1 else np.stack(owners)
    listed_ok = np.zeros(count, dtype=bool)
    stops, betas, laters, ratio_keys, ratio_values = [], [], [], [], []
    for k, dec in enumerate(decs):
        stop, beta, keys_in_tree = _node_items(dec.beta, n)
        stops.append(stop)
        betas.append(beta)
        listed = [h for g in dec.generations for h in g]
        listed_ok[k] = bool(
            dec.beta
            and keys_in_tree
            and dec.generations[:1] == [[1]]
            and len(listed) == len(set(listed))
            and set(listed) == set(dec.beta)
        )
        later = np.array([h for g in dec.generations[1:] for h in g], dtype=np.int64)
        laters.append(later[(later >= 2) & (later <= n)])  # the rest fail the partition
        keys, values, _ = _node_items(dec.ratios, n)
        ratio_keys.append(keys)
        ratio_values.append(values)

    def flat(parts: list) -> tuple[np.ndarray, np.ndarray]:
        trial = np.repeat(np.arange(count), [len(p) for p in parts])
        return trial, np.concatenate(parts).astype(np.int64)

    def largest(trial: np.ndarray, values: np.ndarray) -> np.ndarray:
        out = np.full(count, -np.inf)
        with np.errstate(invalid="ignore"):  # a NaN margin stays NaN, silently
            np.maximum.at(out, trial, values)
        return out

    owners_in_tree = ((owners >= 1) & (owners <= n)).all(axis=1)
    if not owners_in_tree.all():  # a new array, so no decomposition's owners change
        owners = np.where((owners >= 1) & (owners <= n), owners, 0)
    stop_trial, stop = flat(stops)
    beta = np.concatenate(betas)
    is_stop = np.zeros((count, slots), dtype=bool)
    is_stop[stop_trial, stop] = True
    # every owner is a stopping vertex and every stopping vertex owns a node
    owned = np.zeros((count, slots), dtype=bool)
    owned[np.arange(count)[:, None], owners] = True
    partition_ok = listed_ok & owners_in_tree & (owned == is_stop).all(axis=1)
    del owned

    # a stopping vertex owns itself, another node its parent's owner; the root must stop
    owner_consistent = owners_in_tree & is_stop[:, 1]
    owner_consistent[stop_trial[owners[stop_trial, stop - 1] != stop]] = False
    for first in (1, 2):  # the left children, then the right ones
        moved = (owners[:, first::2] != owners[:, : n // 2]) & ~is_stop[:, first + 1 :: 2]
        owner_consistent &= ~moved.any(axis=1)
    del is_stop

    # mass captured by the stopping children must stay below half
    later_trial, later = flat(laters)
    pred = owners[later_trial, later // 2 - 1]
    escaped = np.bincount(later_trial * slots + pred, weights=den_t[later_trial, later - 1],
                          minlength=count * slots)[stop_trial * slots + stop]
    den_stop = den_t[stop_trial, stop - 1]
    region_margin = largest(stop_trial, escaped - 0.5 * den_stop)

    beta_values = np.zeros(den.shape)
    beta_values[stop - 1, stop_trial] = beta
    beta_margin = largest(stop_trial, np.abs(beta - (den_stop - escaped)))
    _subtree_sums_inplace(shape.depth, beta_values)
    beta_values -= den
    sums_margin = beta_values.max(axis=0)
    del beta_values

    # each node's ratio and running maximum against twice its owner's ratio (0 for
    # "not a node" and without stopping vertices), a block of nodes at a time
    r0 = np.zeros((count, slots))
    r0[:, 1:] = r_t
    r_j = r_t[later_trial, later - 1]
    _ancestor_sums_inplace(shape.depth, r, np.maximum)  # now the running maximum
    ratio_margin, maximal_margin = np.full(count, -np.inf), np.full(count, -np.inf)
    for block in _row_blocks(n, count):
        twice = 2.0 * np.take_along_axis(r0, owners[:, block], axis=1)
        twice[[not dec.beta for dec in decs]] = 0.0
        np.maximum(ratio_margin, (r0[:, 1:][:, block] - twice).max(axis=1), out=ratio_margin)
        np.maximum(maximal_margin, (r_t[:, block] - twice).max(axis=1), out=maximal_margin)
    del r, r_t

    # the owner's ratio as the decomposition records it, else recomputed
    ratio_trial, keys = flat(ratio_keys)
    r0[ratio_trial, keys] = np.concatenate(ratio_values)
    r_p = r0[later_trial, pred]
    del r0
    zero = r_p == 0.0
    chain_margin = largest(later_trial[~zero], 2.0 * r_p[~zero] - r_j[~zero])
    chain_bad = np.bincount(later_trial[zero & ~(r_j > 0.0)], minlength=count)

    # the weighted test constant of carleson.alpha_test_constant, NaN without valid weights
    alpha = _alpha_weights(shape, stop_trial, stop, beta, den)
    alpha_constants = _weighted_ratios(shape, den, alpha).max(axis=0)
    alpha_constants[~(np.isfinite(alpha) & (alpha >= 0)).all(axis=0)] = np.nan

    results = []
    for k in range(count):
        beta_sum_margin = float(max(beta_margin[k], sums_margin[k]))
        alpha_constant = float(alpha_constants[k])
        fields = dict(
            partition_ok=bool(partition_ok[k]),
            owner_consistent=bool(owner_consistent[k]),
            region_mass_ok=bool(region_margin[k] <= tol),
            region_mass_margin=float(region_margin[k]),
            beta_sum_ok=beta_sum_margin <= tol,
            beta_sum_margin=beta_sum_margin,
            chain_ok=bool(chain_bad[k] == 0 and chain_margin[k] <= tol),
            chain_margin=float(chain_margin[k]),
            ownership_ratio_ok=bool(ratio_margin[k] <= tol),
            ownership_ratio_margin=float(ratio_margin[k]),
            maximal_ratio_ok=bool(maximal_margin[k] <= tol),
            maximal_ratio_margin=float(maximal_margin[k]),
            alpha_test_ok=alpha_constant <= 1.0 + 1e-9,
            alpha_test_constant=alpha_constant,
        )
        failures = [name for flag, name in _INVARIANTS.items() if not fields[flag]]
        results.append(StoppingInvariantReport(**fields, failures=failures))
    return results


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
    [report] = _theorem_checks(lam.shape, lam.masses[:, None], [phi], tol, allow_signed)
    return report


def _theorem_checks(shape: TreeShape, masses: np.ndarray, phis: list, tol: float,
                    allow_signed: bool) -> list[MaximalReport]:
    """:func:`maximal_theorem_check` of each trial of ``(nodes, trials)``
    masses with its phi.

    The box constants are checked before the phis are gathered, and the
    phis before their signs.  The tree passes and the stopping sweep run
    over all trials at once; the sums of ``lhs`` and ``rhs`` run on each
    trial's own contiguous row.
    """
    depth = shape.depth
    boxes = _test_constants(shape, _test_ratios(depth, masses))
    for k, box in enumerate(boxes):
        if box.constant > 1.0 + 1e-9:
            with _trial(k):
                raise PreconditionError(
                    f"box constant {box.constant:.12g} exceeds 1; scale the measure by "
                    f"1/{box.constant:.12g} first"
                )
    phi = _gathered(shape, phis)
    if not allow_signed:
        for k in np.flatnonzero((phi < 0).any(axis=0)).tolist():
            with _trial(k):
                raise ValidationError(_SIGNED_PHI)
    r, den = _ratios(depth, masses, phi)
    rhs = [float(row.sum()) for row in np.ascontiguousarray((phi**2 * masses).T)]
    del phi
    m = r.copy()
    _ancestor_sums_inplace(depth, m, np.maximum)
    m *= m
    m *= den**2
    lhs = [float(row.sum()) for row in np.ascontiguousarray(m.T)]
    del m
    results = []
    for k, dec in enumerate(_decompositions(shape, r, den)):
        bound = 8.0 * sum(dec.ratios[h] ** 2 * dec.beta[h] for h in dec.beta)
        results.append(MaximalReport(
            lhs=lhs[k],
            rhs=rhs[k],
            ratio=lhs[k] / rhs[k] if rhs[k] > 0 else 0.0,
            passed=lhs[k] <= 32.0 * rhs[k] + tol,
            stopping_bound=float(bound),
            stopping_bound_ok=lhs[k] <= bound + tol,
            one_box_constant=boxes[k].constant,
            decomposition=dec,
        ))
    return results


class MaximalCheck(NamedTuple):
    measure: TreeMeasure
    phi: object
    scale: float
    report: MaximalReport
    invariants: StoppingInvariantReport


def maximal_checks(
    jobs: Iterable[tuple[TreeMeasure, object]], tol: float = 1e-9
) -> Iterator[MaximalCheck]:
    """:func:`maximal_theorem_check` and :func:`verify_stopping_invariants`
    of each ``(lam, phi)``, after scaling ``lam`` by the inverse of its box
    constant when that exceeds 1 (else scale 1).

    The jobs are drawn and solved lazily as stacks of about
    ``carleson.BATCH_ENTRIES`` masses; all measures take the shape of the
    first.  Each result equals the one-measure computation, and an error is
    raised when the loop over the jobs reaches its measure.
    """
    def checks(shape: TreeShape, batch: list) -> list[MaximalCheck]:
        masses = np.stack([mu.masses for mu, _ in batch], axis=-1)
        scales = [1.0 / box.constant if box.constant > 1.0 else 1.0
                  for box in _test_constants(shape, _test_ratios(shape.depth, masses))]
        masses *= np.array(scales)
        phis = [phi for _, phi in batch]
        reports = _theorem_checks(shape, masses, phis, tol, allow_signed=False)
        invariants = _invariant_reports(shape, masses, _gathered(shape, phis),
                                        [report.decomposition for report in reports], 1e-12)
        results = zip(batch, scales, reports, invariants)
        return [MaximalCheck(mu, phi, scale, report, invariant)
                for (mu, phi), scale, report, invariant in results]

    return _stacks(jobs, checks, lambda shape: shape.node_count, itemgetter(0))
