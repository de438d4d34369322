"""Exception and warning taxonomy shared across the package."""

from __future__ import annotations


class ChoiceStatsError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ChoiceStatsError):
    """Malformed input: dataset files, specification files, or documents.

    Carries an optional source location so command-line users see the
    offending line.
    """

    def __init__(self, message, source=None, line=None):
        if source is not None and line is not None:
            message = f"{source}:{line}: {message}"
        elif source is not None:
            message = f"{source}: {message}"
        super().__init__(message)
        self.source = source
        self.line = line


class SpecMismatchError(ChoiceStatsError):
    """Dataset and model specification do not fit together."""


class IdentificationError(ChoiceStatsError):
    """Singular or near-singular information matrix.

    The optional ``report`` holds an IdentificationReport with eigenvalue
    diagnostics and the suspect parameters.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConvergenceError(ChoiceStatsError):
    """A fit did not converge; ``runs`` holds multi-start's failed fits."""

    def __init__(self, message, statuses=(), runs=()):
        super().__init__(message)
        self.statuses = tuple(statuses)
        self.runs = tuple(runs)


class StartPointError(ChoiceStatsError, ValueError):
    """The log-likelihood is not finite at the optimiser's start point."""


class NestingError(ChoiceStatsError):
    """Restricted log-likelihood exceeds the general one beyond tolerance."""


class CovarianceError(ChoiceStatsError):
    """A covariance quantity failed an integrity check."""


class ProbabilityUnderflowWarning(UserWarning):
    """A chosen-alternative probability fell below the log floor."""


class IdentificationRiskWarning(UserWarning):
    """The specification or design looks under-identified."""


class DivergenceWarning(UserWarning):
    """A coefficient ran away during optimisation (possible separation)."""


class EstimationDisagreementWarning(UserWarning):
    """Converged multi-start runs did not agree on the optimum."""


class ReplicateFailureWarning(UserWarning):
    """More than 10 percent of a run's replicates failed."""
