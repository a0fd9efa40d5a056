"""Exception types shared across the package."""


class LagflagError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LagflagError):
    """An argument lies outside the domain of the requested operation."""


class DescriptorError(DomainError):
    """A flag-scheme descriptor violates its defining constraints.

    Carries the list of violations so callers can report which constraint
    failed rather than a bare message.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class UnsupportedError(LagflagError):
    """The input is valid but outside the regime the formula covers."""
