"""Exception types shared across the package."""


class SingularDesignError(ValueError):
    """Design matrix is rank deficient; names the offending columns."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        cols = ", ".join(self.columns)
        super().__init__(f"design matrix is rank deficient; offending columns: {cols}")


class SingularHessianError(RuntimeError):
    """Newton step failed because the Hessian could not be solved."""


class OverflowGuardError(RuntimeError):
    """Linear-predictor cap is active at the reported optimum; estimate unreliable."""


class SeparationError(RuntimeError):
    """Perfect separation: coefficients diverged until the linear-predictor cap hit."""


class NegativeVarianceError(RuntimeError):
    """A variance is negative beyond round-off; the covariance is not positive semidefinite."""


class NonFiniteObjectiveError(RuntimeError):
    """Objective evaluated to a non-finite value at the starting point."""


class EmptyCellError(ValueError):
    """A (group, pre/post) cell required by a ratio statistic has no observations."""


class RedrawRequired(Exception):
    """The log transform of a linear DD estimate is undefined for this draw.

    Monte Carlo drivers respond by redrawing the whole replication.
    """


class MonteCarloAbort(RuntimeError):
    """Too many failed replications; the summary would be misleading."""


class CsvParseError(ValueError):
    """Malformed CSV input; message carries the 1-based row number."""


class ColumnBindingError(ValueError):
    """One CSV column bound to two roles that read it differently."""
