"""Sequential re-estimation of (generalized) linear models.

As data arrives in batches, each new fit is a ridge regression shrunk
toward the previous estimate instead of toward zero, so the model carries
its history through a single coefficient vector. The package provides the
closed-form linear update, the IRLS logistic update, cross-validated
penalty selection with an optional historic-fit constraint, pooled
baselines to compare against, simulation studies, and a state-file based
command line driver.
"""

import os

# NumPy's BLAS reads these as it loads: one thread per process, unless set
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    ConvergenceError,
    EstimationError,
    LockError,
    RegistryError,
    RidgeRelayError,
    SelectionError,
    SingularMatrixError,
    StateFileError,
    ValidationError,
)
from .model_core import (
    Batch,
    CoefficientVector,
    CovariateRegistry,
    EstimatorState,
    StackedHistory,
    TriangularHistory,
    UpdateRecord,
    align_batch,
    assemble_target,
    fold_stacked,
    fold_triangular,
    start_state,
    target_records,
)
from .linear_estimator import (
    MomentReport,
    exact_moments_general,
    exact_moments_orthonormal,
    fit_targeted_ridge,
    fit_targeted_ridge_grid,
    loo_ridge_grid,
    update,
)
from .logistic_estimator import (
    LogisticFit,
    irls_fit,
    irls_fit_grid,
    update_logistic,
)
from .penalty_tuning import (
    Candidate,
    ConstraintTerms,
    Family,
    FoldPlan,
    PenaltySearchConfig,
    SelectionReport,
    constraint_terms,
    cv_score,
    default_grid,
    fit_first_batch,
    get_family,
    make_folds,
    select_penalty,
)
from .baselines import (
    MixedFit,
    StackedData,
    default_xi_grid,
    estimate_xi,
    mixed_fixed_effects,
    mixed_moments,
    plain_ridge,
    stack_batches,
)
from .sim_harness import (
    ScenarioConfig,
    TrajectoryResult,
    covariate_names,
    generate_batch,
    generate_batches,
    initial_state,
    resolve_beta,
    run_study_mixed_vs_updated,
    run_study_regular_vs_updated,
    tracked_positions,
)

__version__ = "0.1.0"
