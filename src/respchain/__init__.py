"""Markov-chain analysis of questionnaire response sequences.

Estimate first-order transition matrices from ordered Likert responses,
find their stationary distributions with explicit structural checks,
score sequences with log2 likelihood ratios between competing models,
evaluate the resulting classifiers, and simulate synthetic cohorts
reproducibly.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .chain import (
    DEFAULT_MAX_POWER,
    DEFAULT_TOLERANCE,
    InertiaSummary,
    ResponseSequence,
    StateSpace,
    StationaryResult,
    TransitionCounts,
    TransitionMatrix,
    count_tensor,
    count_transitions,
    expected_inertia,
    inertia,
    is_aperiodic,
    is_irreducible,
    matrix_power,
    normalize_rows,
    pool_counts,
    sequence_log2_prob,
    stationary,
)
from .dataio import (
    CONFIG_ENV_VAR,
    CSV_HEADER,
    CohortDataset,
    Config,
    load_cohort,
    load_config,
    write_cohort,
)
from .diagnostics import (
    ConfusionTable,
    DiagnosticMetrics,
    RocCurve,
    confusion,
    metrics,
    roc_curve,
)
from .errors import RespchainError, StructuralError, ValidationError
from .models import (
    TheoreticalModelSpec,
    builtin_models,
    drunkards_walk,
    from_stationary_vector,
    max_entropy,
)
from .scoring import (
    FloorRecord,
    LogRatioMatrix,
    MultiModelVerdict,
    SequenceScore,
    VerdictColumns,
    classify_binary,
    classify_counts,
    classify_multimodel,
    log2_matrix,
    log_likelihood_matrix,
    ratio_matrix,
    score_counts,
    score_sequence,
    score_terms,
    score_value,
)
from .simulate import SimulationSpec, generate_cohort, generate_sequence, resolve_initial
from .stats import (
    ChiSquareOutcome,
    chi_square_p,
    chi_square_statistic,
    equiprobability_test,
    inertia_association_test,
    standardized_residuals,
    stationary_gof,
)

# The public API is what the imports above bind, less the submodules
# (chain, dataio, ...) that they also bind as attributes of the package.
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
