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
from .generate import random_partitionable_system, random_system
from .io import (
    SCHEMA_VERSION,
    load_matrix_market,
    load_system,
    render_report,
    report_dict,
    system_from_dict,
    system_to_dict,
    verify_dict,
)
from .matching import (
    Contraction,
    Matching,
    contractions,
    maximum_matching,
    s_rank,
    system_contractions,
)
from .numeric import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    DEFAULT_TRIALS,
    NumericRealization,
    RankReport,
    generic_agreement,
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
    is_necessary,
    minimal_placement,
    partition_report,
    theorem_check,
)
from .scc import (
    SccDecomposition,
    accessibility_check,
    block_form_certificate,
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
    "Matching",
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
    "block_form_certificate",
    "build_digraph",
    "classify_measurements",
    "contractions",
    "decompose",
    "equivalence_classes",
    "export_dot",
    "forbid_states",
    "generic_agreement",
    "gramian_rank",
    "is_necessary",
    "load_matrix_market",
    "load_system",
    "maximum_matching",
    "minimal_placement",
    "modal_gramian_rank",
    "partition_report",
    "pbh_check",
    "random_partitionable_system",
    "random_system",
    "rank_report",
    "realize",
    "render_report",
    "report_dict",
    "s_rank",
    "system_contractions",
    "system_from_dict",
    "system_to_dict",
    "theorem_check",
    "verify_alpha_equivalence",
    "verify_beta_equivalence",
    "verify_dict",
]
