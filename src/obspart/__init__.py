"""Structural observability analysis for sparse LTI systems, from
sparsity patterns alone: which measurements matter, which sensor sites
are interchangeable, and how few sensors suffice.  The ``numeric`` module
cross-checks every structural verdict on random realizations.
"""

from .errors import (
    DegenerateStructureError,
    InconsistencyError,
    InfeasiblePlacementError,
    MalformedInputError,
    NumericError,
    ObspartError,
    ParameterError,
    PreconditionError,
)
from .dot import export_dot
from .generate import random_system
from .io import (
    SCHEMA_VERSION,
    load_matrix_market,
    load_system,
    render_report,
    report_dict,
    system_from_dict,
    verify_dict,
)
from .matching import (
    Contraction,
    contractions,
    s_rank,
    system_contractions,
)
from .numeric import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    NumericRealization,
    RankReport,
    gramian_rank,
    modal_gramian_rank,
    pbh_check,
    rank_report,
    realize,
    verify_alpha_equivalence,
    verify_beta_equivalence,
)
from .partition import (
    ALPHA,
    BETA,
    GAMMA,
    PartitionReport,
    TheoremCheck,
    classify_measurements,
    equivalence_classes,
    forbid_states,
    minimal_placement,
    partition_report,
    theorem_check,
)
from .scc import (
    SccDecomposition,
    accessibility_check,
    decompose,
)
from .structure import (
    StructuredSystem,
    build_digraph,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "GAMMA",
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "DEFAULT_TRIALS",
    "SCHEMA_VERSION",
    "Contraction",
    "DegenerateStructureError",
    "InconsistencyError",
    "InfeasiblePlacementError",
    "MalformedInputError",
    "NumericError",
    "NumericRealization",
    "ObspartError",
    "ParameterError",
    "PartitionReport",
    "PreconditionError",
    "RankReport",
    "SccDecomposition",
    "StructuredSystem",
    "TheoremCheck",
    "accessibility_check",
    "build_digraph",
    "classify_measurements",
    "contractions",
    "decompose",
    "equivalence_classes",
    "export_dot",
    "forbid_states",
    "gramian_rank",
    "load_matrix_market",
    "load_system",
    "minimal_placement",
    "modal_gramian_rank",
    "partition_report",
    "pbh_check",
    "random_system",
    "rank_report",
    "realize",
    "render_report",
    "report_dict",
    "s_rank",
    "system_contractions",
    "system_from_dict",
    "theorem_check",
    "verify_alpha_equivalence",
    "verify_beta_equivalence",
    "verify_dict",
]
