"""The base of the package's records: ``__slots__`` classes, not dataclasses,
since importing `dataclasses` and generating methods took ~30 ms per CLI start-up.
"""

from operator import attrgetter


class Record:
    """Equality, hash, the dataclass repr, immutability, copy and pickle.

    A subclass names in ``_fields`` the slots that equality, hash and repr
    read, and writes an ``__init__`` that takes them in that order and sets
    its slots with ``object.__setattr__``.  Copy and pickle call it again.
    Assigning or deleting an attribute raises `AttributeError`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)  # of a single name, the bare value
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._values
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
