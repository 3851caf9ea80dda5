"""hardylab: a finite-dimensional laboratory for polydisc Hardy-space operator theory.

Everything runs on degree-truncated monomial bases, where operator
statements become dense matrix identities with measurable residuals:
shift compressions to quotient modules, the defect-product and
cross-commutator detectors for Beurling quotients, canonical isometric
co-extensions of commuting contraction pairs, inner-function division
with gap-subspace audits, and the reduced kernel of the bidisc with its
sign-indefinite factor.
"""

__version__ = "0.1.0"

from .grids import TruncationGrid
from .symbols import (
    AnalyticSymbol,
    SymbolEvaluationError,
    dump_coefficient_text,
    parse_coefficient_text,
)
from .operators import (
    InnernessError,
    InnernessReport,
    eval_margins,
    innerness_check,
    shift_matrices,
    shift_matrix,
    spectral_norm,
    toeplitz_matrix,
    windowed_norm,
)
from .subspaces import (
    InvarianceError,
    SubspaceData,
    invariance_defect,
    parse_basis_text,
    submodule_projection,
    subspace_from_columns,
)
from .criteria import (
    CriterionReport,
    QuotientData,
    beurling_criterion,
    cross_commutator_criterion,
    identity_suite,
    quotient_data,
    shift_power,
)
from .dilation import (
    ContractionTuple,
    DilationData,
    DilationError,
    PurenessReport,
    brehmer_defect,
    canonical_dilation,
    model_correspondence,
    parse_tuple_text,
    pureness_check,
    random_brehmer_pair,
)
from .factorization import (
    FactorizationError,
    FactorizationWitness,
    beurling_submodule_check,
    divide_inner,
    invariant_subspace_from_factorization,
)
from .kernels import (
    GramWitness,
    gram_matrix,
    gram_negativity_search,
    kernel_factor,
    kernel_sum_oracle,
    rational_inner_witness,
    reduced_kernel_suite,
    reduced_szego_kernel,
    szego_kernel,
)
from .corpus import CorpusEntry, corpus_entries
from .reports import Report, emit_report
from .scenarios import (
    Scenario,
    ScenarioError,
    expectations_met,
    parse_scenario,
    run_scenario,
)

__all__ = [
    "__version__",
    "TruncationGrid",
    "AnalyticSymbol",
    "SymbolEvaluationError",
    "parse_coefficient_text",
    "dump_coefficient_text",
    "shift_matrix",
    "shift_matrices",
    "toeplitz_matrix",
    "spectral_norm",
    "windowed_norm",
    "eval_margins",
    "innerness_check",
    "InnernessReport",
    "InnernessError",
    "SubspaceData",
    "submodule_projection",
    "subspace_from_columns",
    "parse_basis_text",
    "invariance_defect",
    "InvarianceError",
    "QuotientData",
    "CriterionReport",
    "quotient_data",
    "beurling_criterion",
    "cross_commutator_criterion",
    "identity_suite",
    "shift_power",
    "ContractionTuple",
    "PurenessReport",
    "DilationData",
    "DilationError",
    "brehmer_defect",
    "pureness_check",
    "canonical_dilation",
    "model_correspondence",
    "random_brehmer_pair",
    "parse_tuple_text",
    "FactorizationError",
    "FactorizationWitness",
    "divide_inner",
    "invariant_subspace_from_factorization",
    "beurling_submodule_check",
    "szego_kernel",
    "reduced_szego_kernel",
    "kernel_factor",
    "kernel_sum_oracle",
    "gram_matrix",
    "GramWitness",
    "gram_negativity_search",
    "rational_inner_witness",
    "reduced_kernel_suite",
    "CorpusEntry",
    "corpus_entries",
    "Report",
    "emit_report",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "run_scenario",
    "expectations_met",
]
