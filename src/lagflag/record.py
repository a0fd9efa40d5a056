"""The base of the package's records: ``__slots__`` classes, not dataclasses,
since importing `dataclasses` and generating methods took ~30 ms per CLI start-up.
"""

from operator import attrgetter


class Record:
    """Equality, hash, the dataclass repr, immutability, copy and pickle.

    A subclass names in ``_fields`` the slots that equality, hash and repr
    read.  One that only stores them writes no ``__init__``: it gets one
    built from source, as `collections.namedtuple` builds its ``__new__``,
    that takes the fields in order, by position or keyword, and sets each
    with ``object.__setattr__``, so it costs what a hand-written one does.
    One that checks, coerces or has defaults writes its own, which its
    subclasses inherit.  Copy and pickle call ``__init__`` again.
    Assigning or deleting an attribute raises `AttributeError`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields
        get = attrgetter(*fields)  # of a single name, the bare value
        cls._values = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))
        if cls.__init__ is object.__init__:
            sets = "".join(f"\n _set(self, {name!r}, {name})" for name in fields)
            scope = {"_set": object.__setattr__, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(fields)}):{sets}", scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
