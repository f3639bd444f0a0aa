"""Difference-in-differences for limited dependent variables.

Linear DD applied to non-negative, count, censored, or binary outcomes
estimates a quantity with no clean interpretation; the ratio-in-ratios
(exponential means) and ratio-in-odds-ratios (logit / multinomial odds)
versions identify a proportional treatment effect instead. This package
builds the repeated cross-section designs, fits the quasi-likelihood
estimators with sandwich variances, restates coefficients as proportional
effects, and replicates the bias comparisons against linear DD.
"""

from .design import (
    CellStats,
    DesignMatrix,
    DesignSpec,
    RcsDataset,
    build_design,
    summarize_cells,
)
from .effects import (
    EffectReport,
    effect_report,
    lin_dd_proportional,
    nonparametric_ror,
    nonparametric_rr,
    proportional_effect,
)
from .errors import (
    ColumnBindingError,
    CsvParseError,
    EmptyCellError,
    MonteCarloAbort,
    NegativeVarianceError,
    NonFiniteObjectiveError,
    OverflowGuardError,
    RedrawRequired,
    SeparationError,
    SingularDesignError,
    SingularHessianError,
)
from .estimators import (
    FitOptions,
    FitResult,
    NewtonDiagnostics,
    fit_logit_qmle,
    fit_multinomial_logit,
    fit_ols,
    fit_poisson_qmle,
    maximize,
    robust_vcov,
    standard_error,
)
from .simulate import (
    McRow,
    McSummary,
    MultinomialClassParams,
    Panel,
    Scenario,
    analytic_trend_check,
    dgp_draw,
    panel_to_rcs,
    replication_rng,
    run_monte_carlo,
)

__version__ = "0.1.0"
