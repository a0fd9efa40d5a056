"""The base of the package's records: ``__slots__`` classes, not dataclasses,
since importing `dataclasses` and generating methods took ~30 ms per CLI start-up.
"""

from enum import Enum
from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType, MemberDescriptorType


class Record:
    """Equality, hash, the dataclass repr, JSON, immutability, copy and pickle.

    A subclass names in ``_fields`` the slots that equality, hash and repr
    read; naming anything but a slot fails when the class is made.  Each
    record gets ``_store(self, <fields>)``, built from source as
    `collections.namedtuple` builds its ``__new__``, which sets each field
    through its slot's own ``__set__``.  That setter, like
    ``object.__setattr__``, passes the ``__setattr__`` that refuses
    assignment, and it is a plain C call where ``object.__setattr__`` looks
    the name up again on every store.  A record that only stores its fields
    writes no ``__init__``: ``_store`` is its ``__init__``, taking the fields
    in order, by position or keyword.  One that checks or coerces its input
    writes its own, which ends in ``self._store(...)`` and which its
    subclasses inherit.  Copy and pickle call ``__init__`` again.
    Assigning or deleting an attribute raises `AttributeError`.  ``to_json``
    writes the fields under their own names; a record whose JSON differs
    writes its own.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields
        get = attrgetter(*fields)  # of a single name, the bare value
        cls._values = get if len(fields) > 1 else staticmethod(lambda self: (get(self),))
        setters = {"__name__": cls.__module__}
        for i, name in enumerate(fields):
            slot = getattr(cls, name, None)
            if type(slot) is not MemberDescriptorType:
                raise TypeError(f"{cls.__qualname__}._fields names {name!r}, which is no slot")
            setters[f"_set{i}"] = slot.__set__
        code = _store_template(len(fields)).replace(co_varnames=("self", *fields))
        store = cls._store = FunctionType(code, setters)
        if cls.__init__ is object.__init__:
            cls.__init__ = store
            store.__qualname__ = f"{cls.__qualname__}.__init__"
        else:
            store.__qualname__ = f"{cls.__qualname__}._store"

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

    def to_json(self) -> dict:
        """Each field under its own name, in ``_fields`` order, written by `_json`."""
        return dict(zip(self._fields, map(_json, self._values(self))))


def _json(value):
    """An enum member as its value, a tuple as a list, a record as its `to_json`."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(map(_json, value))
    if isinstance(value, Record):
        return value.to_json()
    return value


@cache
def _store_template(arity: int) -> CodeType:
    """``_store(self, _0, ..., _<arity-1>)``, which passes each to the global ``_set<i>``.

    It is compiled once per arity, and each record renames its parameters
    to its fields, so the stores cost a compile per arity, not per record.
    """
    params = [f"_{i}" for i in range(arity)]
    sets = "".join(f"\n _set{i}(self, {param})" for i, param in enumerate(params))
    scope: dict = {}
    exec(f"def _store(self, {', '.join(params)}):{sets}", scope)
    return scope["_store"].__code__
