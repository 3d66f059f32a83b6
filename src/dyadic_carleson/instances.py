"""Seeded random instances shared by the test harness and the CLI."""

from __future__ import annotations

import numpy as np

from .bitree import BiMeasure, BiTreeShape
from .errors import ValidationError
from .tree import ALL_NODES, BOUNDARY_ONLY, TreeMeasure, TreeShape

__all__ = [
    "random_bimeasure",
    "random_cell_values",
    "random_node_values",
    "random_tree_measure",
]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_tree_measure(
    seed,
    shape: TreeShape,
    support_mode: str = BOUNDARY_ONLY,
    density: float = 0.7,
) -> TreeMeasure:
    """Sparse exponential masses, never identically zero."""
    rng = _as_rng(seed)
    if support_mode not in (BOUNDARY_ONLY, ALL_NODES):
        raise ValidationError(f"unknown support mode {support_mode!r}")
    masses = np.zeros(shape.node_count)
    drawn = masses[shape.first_leaf - 1 :] if support_mode == BOUNDARY_ONLY else masses
    drawn[:] = rng.exponential(1.0, drawn.size)
    drawn *= rng.uniform(size=drawn.size) < density
    if not drawn.any():
        drawn[int(rng.integers(drawn.size))] = 1.0
    return TreeMeasure(shape, masses, support_mode)


def random_node_values(
    seed, shape: TreeShape, nonneg: bool = False, density: float = 1.0
) -> np.ndarray:
    rng = _as_rng(seed)
    values = rng.normal(0.0, 1.0, shape.node_count)
    if nonneg:
        values = np.abs(values)
    if density < 1.0:
        values *= rng.uniform(size=shape.node_count) < density
    return values


def random_bimeasure(seed, shape: BiTreeShape, density: float = 0.7) -> BiMeasure:
    rng = _as_rng(seed)
    cells = rng.exponential(1.0, shape.cell_grid)
    cells *= rng.uniform(size=shape.cell_grid) < density
    if not cells.any():
        cells[
            int(rng.integers(shape.cell_grid[0])),
            int(rng.integers(shape.cell_grid[1])),
        ] = 1.0
    return BiMeasure(shape, cells)


def random_cell_values(seed, shape: BiTreeShape, nonneg: bool = False) -> np.ndarray:
    rng = _as_rng(seed)
    values = rng.normal(0.0, 1.0, shape.cell_grid)
    return np.abs(values) if nonneg else values
