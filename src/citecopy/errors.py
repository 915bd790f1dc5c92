"""Exception hierarchy shared across the package."""


class CitecopyError(Exception):
    """Base class for all domain errors."""


class InvalidTallyError(CitecopyError):
    """An input out of range, such as misprint counts that violate
    0 <= distinct <= total <= citations.  Each input type raises it when
    it is constructed with a field out of range."""


class InsufficientStatisticsError(CitecopyError):
    """No misprints observed; the estimator has no signal."""


class EstimatorBreakdownError(CitecopyError):
    """Misprint rate too high for the observed propagation factor."""
