"""Exception types shared across the package."""


class LagflagError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LagflagError):
    """An argument lies outside the domain of the requested operation."""


class DescriptorError(DomainError):
    """A flag-scheme descriptor violates its defining constraints.

    Raised when one is built.  Carries the violated constraints (errors
    only), so callers can report which one failed rather than a bare
    message, and the rejected ``descriptor``, warnings included.
    """

    def __init__(self, message, violations=(), descriptor=None):
        super().__init__(message)
        self.violations = tuple(violations)
        self.descriptor = descriptor


class UnsupportedError(LagflagError):
    """The input is valid but outside the regime the formula covers."""
