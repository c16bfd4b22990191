"""Affine Landau-Ginzburg phases of gauged linear sigma models.

Exact, dependency-free analysis of integer charge matrices: the Herbst
criterion and phase enumeration, orbifold group and canonical action data,
moment polyhedra with an independent simplicial-cone cross-check, and a
seeded generator of models that carry a phase by construction.
"""

from .cones import (
    BOUNDARY,
    INTERIOR,
    OUTSIDE,
    HalfSpace,
    MomentPolyhedron,
    PhaseConeReport,
    is_in_phase_cone,
    lift_level,
    moment_polyhedron,
    phase_cone,
    verify_simplicial_cone,
)
from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    InternalCheckFailed,
    LevelNotInImage,
    LgPhaseError,
    NotInterior,
    NotNegativeCone,
    NotSquare,
    ParseError,
    RankDeficientGaugeGroup,
    RejectionBudgetExceeded,
    SingularChoice,
    SingularMatrix,
)
from .generate import ATTEMPT_BUDGET, GeneratorConfig, SplitMix64, random_lg_model, witness_of_construction
from .linalg import (
    IntMatrix,
    RatMatrix,
    SmithDecomposition,
    determinant,
    hermite_normal_form,
    integer_kernel,
    invariant_factors,
    invert_rational,
    rank,
    row_space_reduce,
    smith_normal_form,
    solve_exact,
    xgcd,
)
from .orbifold import (
    OrbifoldData,
    actions_equivalent,
    canonical_action,
    canonical_torus_action,
    effective_factors,
    orbifold_group,
    torus_subgroup_lattice,
)
from .phases import (
    ChargeMatrix,
    HerbstWitness,
    candidate_columns,
    check_superpotential_invariance,
    check_witness,
    enumerate_phases,
    make_charge_matrix,
    vev_split,
)
from .report import (
    WARN_RANK_DEFICIENT,
    build_phase_report,
    parse_charge_matrix,
    parse_index_list,
    parse_level,
    render_phase_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # matrices
    "IntMatrix",
    "RatMatrix",
    "SmithDecomposition",
    "xgcd",
    "rank",
    "determinant",
    "invert_rational",
    "smith_normal_form",
    "invariant_factors",
    "hermite_normal_form",
    "integer_kernel",
    "row_space_reduce",
    "solve_exact",
    # criterion
    "ChargeMatrix",
    "HerbstWitness",
    "make_charge_matrix",
    "candidate_columns",
    "check_witness",
    "enumerate_phases",
    "check_superpotential_invariance",
    "vev_split",
    # orbifold
    "OrbifoldData",
    "orbifold_group",
    "effective_factors",
    "canonical_action",
    "actions_equivalent",
    "canonical_torus_action",
    "torus_subgroup_lattice",
    # cones
    "INTERIOR",
    "BOUNDARY",
    "OUTSIDE",
    "HalfSpace",
    "MomentPolyhedron",
    "PhaseConeReport",
    "lift_level",
    "moment_polyhedron",
    "is_in_phase_cone",
    "verify_simplicial_cone",
    "phase_cone",
    # generator
    "GeneratorConfig",
    "SplitMix64",
    "random_lg_model",
    "witness_of_construction",
    "ATTEMPT_BUDGET",
    # reports
    "WARN_RANK_DEFICIENT",
    "build_phase_report",
    "render_phase_table",
    "parse_charge_matrix",
    "parse_index_list",
    "parse_level",
    # errors
    "LgPhaseError",
    "NotSquare",
    "SingularMatrix",
    "EmptyMatrix",
    "DimensionMismatch",
    "SingularChoice",
    "NotNegativeCone",
    "RankDeficientGaugeGroup",
    "LevelNotInImage",
    "NotInterior",
    "RejectionBudgetExceeded",
    "ParseError",
    "InternalCheckFailed",
]
