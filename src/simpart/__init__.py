"""Regular simplicial partitions: refinement, solid-angle audits, branch and bound.

The package is organised around one experiment: take a partition of a box
into simplices, keep every cell's regularity ratio vol(S) / h(S)^d above a
floor eta, and check by exact solid-angle measurement, in every dimension,
that no point of space meets more than (1/eta) * (2*e*pi/d)^(d/2) of the
cells.  `geometry` holds the simplex primitives, `cones` the tangent-cone
measures and the bound arithmetic, `partition` the refinement machinery and
the audit, `optimizer` a small Lipschitz branch-and-bound built on the same
partitions, and `cli` the command-line front end.
"""

from .cones import (
    EXACT_STDERR,
    FractionEstimate,
    MonteCarloConfig,
    VertexCone,
    cone_at_point,
    exact_solid_angle_fraction,
    max_intersection_bound,
    per_simplex_angle_bound,
    solid_angle_fraction,
)
from .errors import (
    ArityError,
    BudgetTooSmall,
    DegenerateSimplex,
    DimensionMismatch,
    EmptyPartition,
    InvalidEta,
    InvalidPoint,
    PointOutsideDomain,
    PointOutsideSimplex,
    QuadratureError,
    SimpartError,
    UnsupportedDimension,
)
from .geometry import (
    Simplex,
    barycentric,
    canonical_simplex,
    contains,
    make_simplex,
    regular_simplex_ratio,
    regularity_ratio,
)
from .optimizer import (
    OBJECTIVES,
    Objective,
    OptimizeResult,
    TraceRow,
    build_objective,
    optimize,
    simplex_lower_bound,
)
from .partition import (
    DecompositionCheck,
    Partition,
    TheoremReport,
    VertexCheck,
    boundary_vertex_mask,
    kuhn_triangulation,
    max_valence,
    min_regularity,
    partition_from_simplices,
    refine,
    registry_valences,
    verify_theorem,
    vertex_valence,
)
from .serialization import (
    partition_to_json,
    read_partition,
    read_simplex,
    simplex_to_json,
    write_fraction_csv,
    write_partition,
    write_simplex,
    write_theorem_report_csv,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "BudgetTooSmall",
    "DecompositionCheck",
    "DegenerateSimplex",
    "DimensionMismatch",
    "EXACT_STDERR",
    "EmptyPartition",
    "FractionEstimate",
    "InvalidEta",
    "InvalidPoint",
    "MonteCarloConfig",
    "OBJECTIVES",
    "Objective",
    "OptimizeResult",
    "Partition",
    "PointOutsideDomain",
    "PointOutsideSimplex",
    "QuadratureError",
    "SimpartError",
    "Simplex",
    "TheoremReport",
    "TraceRow",
    "UnsupportedDimension",
    "VertexCheck",
    "VertexCone",
    "barycentric",
    "boundary_vertex_mask",
    "build_objective",
    "canonical_simplex",
    "cone_at_point",
    "contains",
    "exact_solid_angle_fraction",
    "kuhn_triangulation",
    "make_simplex",
    "max_intersection_bound",
    "max_valence",
    "min_regularity",
    "optimize",
    "partition_from_simplices",
    "partition_to_json",
    "per_simplex_angle_bound",
    "read_partition",
    "read_simplex",
    "refine",
    "registry_valences",
    "regular_simplex_ratio",
    "regularity_ratio",
    "simplex_lower_bound",
    "simplex_to_json",
    "solid_angle_fraction",
    "verify_theorem",
    "vertex_valence",
    "write_fraction_csv",
    "write_partition",
    "write_simplex",
    "write_theorem_report_csv",
    "write_trace_csv",
]
