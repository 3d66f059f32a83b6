"""Carleson embedding constants on dyadic trees and bi-trees.

The package computes and certifies the quantities around the discrete
Carleson embedding theorem: box test constants, embedding constants by
power iteration, Bellman-function certificates with explicit constant 4,
the stopping-time maximal inequality with constant 32, and their
two-parameter (bi-tree) counterparts.
"""

from types import ModuleType as _ModuleType

from .bellman import (
    BellmanPoint, CertificateRow, MODES, SamplerStats, TreeCertificate, bellman_gradient,
    bellman_value, bellman_values, certify_tree_embedding, martingale_split_slack,
    sample_admissible, sample_batch, split_compensation, tree_split_slack,
)
from .bitree import (
    BiMeasure, BiTreeShape, GapProbeConfig, GapProbeReport, bi_embedding_constant,
    bi_embedding_constant_dense, bitree_bellman_certify, boundary_set_ratio,
    build_bitree, cell_point_mass, cube_embedding_check, gap_probe, one_box_constant,
    one_box_constants, set_test_constant, uniform_bimeasure, unit_box_certificates,
)
from .carleson import (
    AlphaSequence, EmbeddingReport, alpha_test_constant, box_squared_alpha,
    carleson_normalized, carleson_ratios, embedding_constant, embedding_constant_dense,
    embedding_constants, embedding_lhs, embedding_pair_check, embedding_pair_checks,
)
from .errors import (
    CarlesonError, DomainError, PreconditionError, ShapeMismatchError, SizeError,
    ValidationError,
)
from .instances import (
    random_bimeasure, random_cell_values, random_node_values, random_tree_measure,
)
from .maximal import (
    StoppingDecomposition, maximal_checks, maximal_ratios, maximal_theorem_check,
    stopping_decomposition, verify_stopping_invariants,
)
from .measure_io import (
    load_measure, measure_to_dict, parse_measure_file, save_measure,
)
from .tree import (
    ALL_NODES, BOUNDARY_ONLY, NodeVector, TreeMeasure, TreeShape, box_average,
    box_integral, build_tree, hardy_down, hardy_up, leaf_point_mass, potential,
    uniform_boundary_measure,
)

__version__ = "0.1.0"

# the public names are the imports above; submodules and private names are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
