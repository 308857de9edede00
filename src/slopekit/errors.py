"""Exception hierarchy shared across the package."""


class SlopekitError(Exception):
    """Base class for all slopekit errors."""


class ShapeError(SlopekitError):
    """Input has the wrong shape or contains non-finite entries."""


class MetricError(SlopekitError):
    """A distance matrix violates the metric axioms, each named in ``report``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DomainError(SlopekitError):
    """A point is outside the effective domain (or the space) it is used in."""


class ParameterError(SlopekitError):
    """A numeric or structural parameter is out of range."""


class ImproperFieldError(SlopekitError):
    """Operation requires a proper field (at least one finite value)."""


class UndefinedArithmeticError(SlopekitError):
    """An extended-real operation would produce the undefined inf - inf."""


class HypothesisViolation(SlopekitError):
    """A theorem hypothesis fails on the given instance.

    Carries the violating points so callers can report or classify
    the instance instead of evaluating a conclusion that is not owed.
    """

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = list(witnesses)


class FatalFinding(SlopekitError):
    """A verified theorem conclusion failed on a hypothesis-satisfying
    instance.  This contradicts a proved statement and always carries a
    reproducible witness payload."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
