"""Exception types shared across the package, and the JSON field reader that raises them."""


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


_REQUIRED = object()


def _json_field(payload, key: str, parse=lambda value: value, default=_REQUIRED):
    """``parse(payload[key])``, or `default` if given and the key is absent.

    For the ``from_json`` parsers: a payload that is not an object, a missing
    required key, or a value that `parse` rejects with a ``TypeError`` or
    ``ValueError`` is a `DomainError` that names the key.
    """
    if not isinstance(payload, dict):
        raise DomainError(f"expected a JSON object, got {payload!r}")
    if key not in payload:
        if default is _REQUIRED:
            raise DomainError(f"missing key {key!r}")
        return default
    value = payload[key]
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise DomainError(f"bad value for key {key!r}: {value!r}") from None


def _json_int(value) -> int:
    """A `_json_field` parse: `value` if it is a plain ``int`` (not a bool), else ``TypeError``."""
    if type(value) is not int:
        raise TypeError(value)
    return value
