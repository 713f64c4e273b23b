"""Exception types shared across the package."""


class AnomalyFlowError(Exception):
    """Base class for all package-specific errors."""


class PositivityError(AnomalyFlowError):
    """A matrix or field required to be positive definite is not."""


class ConditioningError(AnomalyFlowError):
    """Input is too ill-conditioned for the requested operation."""


class DegenerateInputError(AnomalyFlowError):
    """Degenerate input (zero covector, empty sample set, ...)."""


class ProjectionResidualError(AnomalyFlowError):
    """A symbol image failed to lie in the expected subspace."""


class FormDegreeError(AnomalyFlowError):
    """A multivector does not have the required bidegree."""


class ConfigError(AnomalyFlowError):
    """Malformed or inconsistent run configuration."""
