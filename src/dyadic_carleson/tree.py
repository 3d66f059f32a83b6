"""Finite dyadic tree geometry and the basic summation operators.

Nodes of the depth-``N`` tree are heap indices ``1 .. 2**(N+1)-1``: node
``k`` has children ``2k`` and ``2k+1``, ``depth(k) = floor(log2 k)``, and
the leaves (the boundary) sit at depth ``N``.  Node ``k`` stands for a
dyadic subinterval of the unit interval of length ``2**-depth(k)``; the
root interval has length 1.

Everything downstream reduces to two linear passes plus elementwise
arithmetic:

* ``hardy_up``   sums a function over the ancestors of each node
  (including the node itself), in one root-to-leaf sweep;
* ``hardy_down`` sums over each node's subtree, in one leaf-to-root
  sweep, and is the adjoint of ``hardy_up`` for the counting inner
  product;
* ``potential``  is the composition ``hardy_up(hardy_down(.))``, the
  discrete logarithmic potential of a measure on the tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatchError, SizeError, ValidationError

__all__ = [
    "ALL_NODES",
    "BOUNDARY_ONLY",
    "DEFAULT_MAX_DEPTH",
    "MAX_NODES_ENV",
    "NodeVector",
    "TreeMeasure",
    "TreeShape",
    "ancestor_sums",
    "box_average",
    "box_integral",
    "build_tree",
    "hardy_down",
    "hardy_up",
    "leaf_point_mass",
    "potential",
    "subtree_sums",
    "uniform_boundary_measure",
]

DEFAULT_MAX_DEPTH = 20
MAX_NODES_ENV = "CARLESON_MAX_NODES"

BOUNDARY_ONLY = "boundary-only"
ALL_NODES = "all-nodes"
SUPPORT_MODES = (ALL_NODES, BOUNDARY_ONLY)


def _size_limit(default: int) -> int:
    """Size guard of trees and bi-trees: CARLESON_MAX_NODES, else ``default``."""
    raw = os.environ.get(MAX_NODES_ENV)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"{MAX_NODES_ENV} must be an integer, got {raw!r}"
        ) from None


@lru_cache(maxsize=128)
def _lengths_array(depth: int) -> np.ndarray:
    out = np.concatenate([np.full(1 << d, 2.0**-d) for d in range(depth + 1)])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TreeShape:
    """Index geometry of the finite dyadic tree of a given depth."""

    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValidationError("tree depth must be non-negative")

    @property
    def node_count(self) -> int:
        return (1 << (self.depth + 1)) - 1

    @property
    def leaf_count(self) -> int:
        return 1 << self.depth

    @property
    def first_leaf(self) -> int:
        return 1 << self.depth

    def depths(self) -> np.ndarray:
        """Read-only array, depth of node ``k`` at position ``k - 1``."""
        out = np.repeat(np.arange(self.depth + 1), 1 << np.arange(self.depth + 1))
        out.setflags(write=False)
        return out

    def lengths(self) -> np.ndarray:
        """Read-only array of interval lengths ``2**-depth(k)``."""
        return _lengths_array(self.depth)

    def depth_of(self, node: int) -> int:
        self.require_node(node)
        return node.bit_length() - 1

    def is_leaf(self, node: int) -> bool:
        self.require_node(node)
        return node >= self.first_leaf

    def parent(self, node: int) -> int:
        self.require_node(node)
        if node == 1:
            raise IndexError("the root has no parent")
        return node >> 1

    def children(self, node: int) -> tuple[int, int]:
        self.require_node(node)
        if self.is_leaf(node):
            raise IndexError(f"node {node} is a leaf and has no children")
        return 2 * node, 2 * node + 1

    def leaves(self) -> np.ndarray:
        return np.arange(self.first_leaf, 2 * self.first_leaf, dtype=np.int64)

    def require_node(self, node: int) -> None:
        if not 1 <= node <= self.node_count:
            raise IndexError(
                f"node {node} outside 1..{self.node_count} (depth {self.depth})"
            )


def _count_past_limit(depth: int, limit: int) -> bool:
    """Whether 2^(depth+1) - 1 is over ``limit`` and too long to be worth building.

    Past 64 bits and past the limit's bit length the count exceeds the limit,
    and building it for a huge depth would allocate and zero gigabytes.
    """
    return depth > max(64, limit.bit_length())


def build_tree(depth: int) -> TreeShape:
    """Build the depth-``depth`` shape, enforcing the size guard."""
    if depth < 0:
        raise ValidationError("tree depth must be non-negative")
    limit = _size_limit((1 << (DEFAULT_MAX_DEPTH + 1)) - 1)
    if _count_past_limit(depth, limit):
        node_count = f"2^{depth + 1} - 1"
    else:
        node_count = (1 << (depth + 1)) - 1
        if node_count <= limit:
            return TreeShape(depth)
    raise SizeError(
        f"depth {depth} needs {node_count} nodes, limit is {limit} "
        f"(set {MAX_NODES_ENV} to raise it)"
    )


def _checked_array(values, expected_len: int, label: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.shape != (expected_len,):
        raise ValidationError(
            f"{label}: expected {expected_len} entries, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValidationError(f"{label}[{bad}]: non-finite value {arr[bad]}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NodeVector:
    """Dense real assignment of one value per tree node, heap order.

    Position ``k - 1`` of ``values`` belongs to node ``k``.  The array is
    frozen after construction; operators return new vectors.
    """

    shape: TreeShape
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked_array(self.values, self.shape.node_count, "node values")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return self.shape.node_count

    def at(self, node: int) -> float:
        self.shape.require_node(node)
        return float(self.values[node - 1])


@dataclass(frozen=True, eq=False)
class TreeMeasure:
    """Non-negative masses on tree nodes.

    ``support_mode`` records whether masses may sit on every node or only
    on the boundary (the leaves); in boundary-only mode every interior
    entry must be exactly zero.
    """

    shape: TreeShape
    masses: np.ndarray
    support_mode: str = ALL_NODES

    def __post_init__(self) -> None:
        if self.support_mode not in SUPPORT_MODES:
            raise ValidationError(
                f"unknown support_mode {self.support_mode!r}; "
                f"expected one of {SUPPORT_MODES}"
            )
        arr = _checked_array(self.masses, self.shape.node_count, "masses")
        neg = np.flatnonzero(arr < 0)
        if neg.size:
            i = int(neg[0])
            raise ValidationError(f"masses[{i}]: negative mass {arr[i]}")
        if self.support_mode == BOUNDARY_ONLY:
            interior = arr[: self.shape.first_leaf - 1]
            bad = np.flatnonzero(interior != 0.0)
            if bad.size:
                i = int(bad[0])
                raise ValidationError(
                    f"masses[{i}]: interior node {i + 1} carries mass "
                    f"{arr[i]} in boundary-only mode"
                )
        object.__setattr__(self, "masses", arr)

    @classmethod
    def boundary(cls, shape: TreeShape, leaf_masses) -> "TreeMeasure":
        """Build a boundary-only measure from the 2**depth leaf masses."""
        leaf = _checked_array(leaf_masses, shape.leaf_count, "leaf masses")
        full = np.zeros(shape.node_count)
        full[shape.first_leaf - 1 :] = leaf
        return cls(shape, full, BOUNDARY_ONLY)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def scaled(self, factor: float) -> "TreeMeasure":
        if factor < 0:
            raise ValidationError("measure scale factor must be non-negative")
        return TreeMeasure(self.shape, self.masses * factor, self.support_mode)


def uniform_boundary_measure(shape: TreeShape, total: float = 1.0) -> TreeMeasure:
    """Total mass spread evenly over the leaves, nothing on the interior."""
    per_leaf = total / shape.leaf_count
    return TreeMeasure.boundary(shape, np.full(shape.leaf_count, per_leaf))


def leaf_point_mass(shape: TreeShape, leaf: int, mass: float = 1.0) -> TreeMeasure:
    """Point mass at one leaf node (given by heap index)."""
    shape.require_node(leaf)
    if not shape.is_leaf(leaf):
        raise ValidationError(f"node {leaf} is not a leaf of depth-{shape.depth} tree")
    full = np.zeros(shape.node_count)
    full[leaf - 1] = mass
    return TreeMeasure(shape, full, BOUNDARY_ONLY)


def as_node_array(shape: TreeShape, values) -> np.ndarray:
    """Coerce a NodeVector, TreeMeasure or raw sequence to a value array."""
    if isinstance(values, NodeVector):
        if values.shape != shape:
            raise ShapeMismatchError(
                f"vector built for depth {values.shape.depth}, "
                f"operator for depth {shape.depth}"
            )
        return values.values
    if isinstance(values, TreeMeasure):
        if values.shape != shape:
            raise ShapeMismatchError(
                f"measure built for depth {values.shape.depth}, "
                f"operator for depth {shape.depth}"
            )
        return values.masses
    return _checked_array(values, shape.node_count, "node values")


# ---------------------------------------------------------------------------
# array cores
#
# Both passes work on the leading axis so the bi-tree module can reuse them
# along either coordinate of a rectangle-indexed array.
# ---------------------------------------------------------------------------


def ancestor_sums(depth: int, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum ``values`` over ancestors (root-to-leaf pass), along ``axis``."""
    out = np.array(values, dtype=float)
    _ancestor_sums_inplace(depth, out if axis == 0 else out.swapaxes(0, axis))
    return out


def subtree_sums(depth: int, values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum ``values`` over subtrees (leaf-to-root pass), along ``axis``."""
    out = np.array(values, dtype=float)
    _subtree_sums_inplace(depth, out if axis == 0 else out.swapaxes(0, axis))
    return out


def _ancestor_sums_inplace(depth: int, vw: np.ndarray, op=np.add) -> None:
    """:func:`ancestor_sums` along the leading axis, overwriting ``vw``.

    ``op=np.maximum`` gives the running maximum along root-to-node paths.
    """
    vw = vw[:, 0] if vw.shape[1:] == (1,) else vw  # a lone column walks as 1-D, same bits
    for d in range(1, depth + 1):
        lo = (1 << d) - 1
        hi = (1 << (d + 1)) - 1
        parents = vw[(1 << (d - 1)) - 1 : lo]
        for children in (vw[lo:hi:2], vw[lo + 1 : hi : 2]):
            op(children, parents, out=children)


def _subtree_sums_inplace(depth: int, vw: np.ndarray) -> None:
    """:func:`subtree_sums` along the leading axis, overwriting ``vw``."""
    vw = vw[:, 0] if vw.shape[1:] == (1,) else vw  # a lone column walks as 1-D, same bits
    for d in range(depth - 1, -1, -1):
        lo = (1 << d) - 1
        hi = (1 << (d + 1)) - 1
        end = (1 << (d + 2)) - 1
        vw[lo:hi] += vw[hi:end:2] + vw[hi + 1 : end : 2]


def _common_ancestors(a, b) -> np.ndarray:
    """Number of common ancestors of heap nodes ``a`` and ``b``, broadcast.

    Lifted to the shallower depth, the two share the leading bits left of
    their xor; ``np.frexp`` gives the bit length of an integer exactly.
    """
    len_a, len_b = np.frexp(a)[1], np.frexp(b)[1]
    common = np.minimum(len_a, len_b)
    lifted = (a >> (len_a - common)) ^ (b >> (len_b - common))
    return common - np.frexp(lifted)[1]


# ---------------------------------------------------------------------------
# operator surface
# ---------------------------------------------------------------------------


def hardy_up(shape: TreeShape, phi) -> NodeVector:
    """Ancestor sums: output at node k is the sum of phi over {j : j >= k}.

    Here ``j >= k`` means the interval of j contains the interval of k,
    so the sum runs over the root-to-k path, k included.
    """
    vals = as_node_array(shape, phi)
    return NodeVector(shape, ancestor_sums(shape.depth, vals))


def hardy_down(shape: TreeShape, phi) -> NodeVector:
    """Subtree sums, the adjoint of :func:`hardy_up`.

    Applied to a measure this returns the box masses: the total mass of
    each node's subtree, with the full mass of the measure at the root.
    """
    vals = as_node_array(shape, phi)
    return NodeVector(shape, subtree_sums(shape.depth, vals))


def potential(shape: TreeShape, mu) -> NodeVector:
    """Discrete potential ``hardy_up(hardy_down(mu))`` of a measure."""
    vals = as_node_array(shape, mu)
    return NodeVector(
        shape, ancestor_sums(shape.depth, subtree_sums(shape.depth, vals))
    )


def box_integral(shape: TreeShape, values, node: int) -> float:
    """Sum of ``values`` over the subtree rooted at ``node``."""
    vals = as_node_array(shape, values)
    shape.require_node(node)
    total = 0.0
    lo, hi = node, node + 1
    while lo <= shape.node_count:
        total += float(vals[lo - 1 : min(hi, shape.node_count + 1) - 1].sum())
        lo <<= 1
        hi <<= 1
    return total


def box_average(shape: TreeShape, values, node: int) -> float:
    """Subtree sum of ``values`` divided by the interval length of ``node``."""
    return box_integral(shape, values, node) * float(2 ** shape.depth_of(node))
