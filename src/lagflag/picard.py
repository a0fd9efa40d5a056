"""Exponent vectors of formal line bundles on flag schemes.

Line bundles are modeled as elements of the free abelian group on the
generator symbols

* ``Delta(j)``   - determinant of the j-th Lagrangian stratum,
* ``Nabla(i)``   - determinant of the i-th intermediate stratum,
* ``DetV(m)``    - determinant of the base flag step of rank m,
* ``AmbientDelta`` - determinant of the tautological bundle on the ambient
  Lagrangian Grassmannian,
* ``E1``, ``E2`` - the exceptional divisor classes of the two-step blow-up.

Exponents are integers, or affine expressions ``a*n + b`` when the half rank
is kept symbolic.  The relative canonical sheaf of a Gorenstein descriptor
``(n, d, e, t)`` with ``k`` intermediate strata is

    Delta(k)^(n - d_k + 1) * DetV(d_k)^(d_k - n - 1)
      * prod over i < k of   Delta(i)^(t_i + e_i + 1 - d_i)
                           * Delta(i+1)^(t_i + e_i - n)
                           * Nabla(i)^(n + d_i - 2 e_i - t_i - 1)
                           * DetV(d_i)^(-t_i),

with contributions to the same generator accumulating.

The relative canonical sheaf and its parity are computed once per point
query and once per GW summand of a basis, so `canonical_exponents` builds
its item list in one pass, reading each generator from a per-kind table
(``_DELTAS``, ``_NABLAS``, ``_DET_VS``) in place of calling a cached
constructor; `mod2_reduce` reads the items in place.  A `Generator`
checks its kind and index when it is built, and a `PicElement` takes only
generators, so neither path checks them again.

Parity computations quotient by squares and by the base-trivial generators:
every ``DetV``, every ``Delta(j)`` whose Lagrangian is pinched to the fixed
flag step (``d_j`` equal to the half rank), and every ``Nabla(i)`` whose
stratum is pinched likewise (``e_i`` equal to half rank minus ``t_i``).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Union

from .diagrams import DOWN, ShiftedDiagram, _require_frame_size, boundary, classify
from .errors import DescriptorError, DomainError, UnsupportedError
from .flags import FlagDescriptor, _rejection, is_gorenstein
from .marking import padded_scheme, uses_type1
from .record import Record


class Affine(Record):
    """An exponent of the form ``n_coeff * n + const`` for symbolic half rank.

    ``n_coeff`` is nonzero: a constant exponent is a plain ``int``, which
    `affine` returns when the coefficient comes out 0.
    """

    __slots__ = _fields = ("n_coeff", "const")

    def __init__(self, n_coeff: int, const: int):
        if type(n_coeff) is not int or type(const) is not int:  # rejects bools too
            raise DomainError(f"affine coefficients must be integers, got {n_coeff!r}, {const!r}")
        if n_coeff == 0:
            raise DomainError(f"an affine exponent needs a nonzero n coefficient, got 0, {const!r}")
        self._store(n_coeff, const)

    @staticmethod
    def _coerce(other) -> tuple[int, int]:
        """``(n_coeff, const)`` of an operand; a plain ``int`` reads as ``(0, other)``."""
        if isinstance(other, Affine):
            return other.n_coeff, other.const
        if isinstance(other, int):
            if type(other) is not int:  # a bool, refused as the constructor refuses it
                raise DomainError(f"affine coefficients must be integers, got 0, {other!r}")
            return 0, other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return affine(self.n_coeff + o[0], self.const + o[1])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return affine(self.n_coeff - o[0], self.const - o[1])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return affine(o[0] - self.n_coeff, o[1] - self.const)

    def to_json(self) -> list[int]:
        return [self.n_coeff, self.const]

    def __str__(self) -> str:
        a, b = self.n_coeff, self.const
        if a > 0:
            head = "n" if a == 1 else f"{a}n"
            if b == 0:
                return head
            return f"{head}+{b}" if b > 0 else f"{head}-{-b}"
        # negative leading coefficient: write the constant first, e.g. 1-n
        tail = "n" if a == -1 else f"{-a}n"
        return f"{b}-{tail}" if b != 0 else f"-{tail}"


def affine(n_coeff: int, const: int) -> Union[int, Affine]:
    """Normalized affine exponent: collapses to a plain int when constant."""
    return const if n_coeff == 0 else Affine(n_coeff, const)


#: The symbolic half rank itself, for canonical sheaves as functions of n.
SYMBOLIC_N = Affine(1, 0)

Exponent = Union[int, Affine]

_KIND_ORDER = {"Delta": 0, "Nabla": 1, "DetV": 2, "AmbientDelta": 3, "E1": 4, "E2": 5}


class _GeneratorFields(NamedTuple):
    kind: str
    index: int | None = None


class Generator(_GeneratorFields):
    """A generator symbol; a malformed one raises `DomainError` when built.

    ``Delta``, ``Nabla`` and ``DetV`` need a plain ``int`` index at least 0;
    the other kinds take no index.  It stays a tuple, so sets of generators
    hash and compare them in C.  ``_make``, and so ``_replace`` and a
    pickle, builds through the same check.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int | None = None):
        if kind not in _KIND_ORDER:
            raise DomainError(f"unknown generator kind {kind!r}")
        if kind in ("Delta", "Nabla", "DetV"):
            if type(index) is not int or index < 0:  # rejects bools too
                raise DomainError(f"{kind} needs an integer index at least 0, got {index!r}")
        elif index is not None:
            raise DomainError(f"{kind} takes no index, got {index!r}")
        return super().__new__(cls, kind, index)

    @classmethod
    def _make(cls, iterable) -> "Generator":
        return cls(*iterable)

    def __str__(self) -> str:
        return self.kind if self.index is None else f"{self.kind}({self.index})"


class _Generators(dict):
    """One kind's shared `Generator` per index, made on first read."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind

    def __missing__(self, index):
        gen = self[index] = Generator(self.kind, index)
        return gen


# One table per indexed kind hands out one shared object per index.  They
# replace `functools.lru_cache` on the constructors: `canonical_exponents`
# reads a table straight from its loops, and a dict read costs less than a
# cached call.  The constructors read a table for a plain ``int`` only, since
# ``True`` would find the entry of ``1``; any other index is built, and fails.
_DELTAS = _Generators("Delta")
_NABLAS = _Generators("Nabla")
_DET_VS = _Generators("DetV")


def delta(j: int) -> Generator:
    return _DELTAS[j] if type(j) is int else Generator("Delta", j)


def nabla(i: int) -> Generator:
    return _NABLAS[i] if type(i) is int else Generator("Nabla", i)


def det_v(m: int) -> Generator:
    return _DET_VS[m] if type(m) is int else Generator("DetV", m)


AMBIENT_DELTA = Generator("AmbientDelta")
E1 = Generator("E1")
E2 = Generator("E2")


def _gen_key(gen: Generator) -> tuple[int, int]:
    """Sort key of a generator: its kind's place, then its index (0 for none)."""
    return (_KIND_ORDER[gen.kind], gen.index or 0)


class PicElement(Record):
    """A formal line bundle as a finitely supported exponent vector.

    Construction adds up the exponents given for one generator and drops
    the zero ones; it raises `DomainError` for a key that is not a
    `Generator` or an exponent that is neither a plain ``int`` nor `Affine`.
    """

    __slots__ = _fields = ("_items",)

    def __init__(self, exponents: Mapping[Generator, Exponent] | Iterable = ()):
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        acc: dict[Generator, Exponent] = {}
        for gen, exp in items:
            if not isinstance(gen, Generator):
                raise DomainError(f"line bundle keys must be generators, got {gen!r}")
            if type(exp) is not int and not isinstance(exp, Affine):  # rejects bools too
                raise DomainError(
                    f"exponent of {gen} must be an integer or affine, got {exp!r}"
                )
            acc[gen] = acc.get(gen, 0) + exp
        nonzero = [(gen, exp) for gen, exp in acc.items() if exp != 0]
        self._store(tuple(sorted(nonzero, key=lambda item: _gen_key(item[0]))))

    @classmethod
    def _from_sorted(cls, items: tuple[tuple[Generator, Exponent], ...]) -> "PicElement":
        """Wrap ``items`` unchecked, for `canonical_exponents` alone.

        Precondition: every generator occurs once, every exponent is a
        nonzero ``int`` or `Affine`, and the items are in `_gen_key` order,
        exactly as the constructor would store them.
        """
        elt = cls.__new__(cls)
        elt._store(items)
        return elt

    @classmethod
    def zero(cls) -> "PicElement":
        return cls()

    def items(self) -> tuple[tuple[Generator, Exponent], ...]:
        return self._items

    def exponent(self, gen: Generator) -> Exponent:
        if not isinstance(gen, Generator):
            raise DomainError(f"line bundle keys must be generators, got {gen!r}")
        for g, exp in self._items:
            if g == gen:
                return exp
        return 0

    @property
    def is_zero(self) -> bool:
        return not self._items

    def to_json(self) -> dict:
        out: dict = {"Delta": {}, "Nabla": {}, "DetV": {}, "AmbientDelta": 0, "E1": 0, "E2": 0}
        for gen, exp in self._items:
            value = exp.to_json() if isinstance(exp, Affine) else exp
            if gen.index is None:
                out[gen.kind] = value
            else:
                out[gen.kind][str(gen.index)] = value
        return out

    def __str__(self) -> str:
        if not self._items:
            return "0"
        return " + ".join(
            f"({exp})*{gen}" if isinstance(exp, Affine) else f"{exp}*{gen}"
            for gen, exp in self._items
        )

    def __repr__(self) -> str:
        return f"PicElement({dict(self._items)!r})"


class ParityClass(Record):
    """An exponent vector mod 2 after deleting base-trivial generators."""

    __slots__ = _fields = ("generators",)

    @classmethod
    def zero(cls) -> "ParityClass":
        return cls(frozenset())

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def to_json(self) -> list[str]:
        return [str(g) for g in sorted(self.generators, key=_gen_key)]

    def __str__(self) -> str:
        return "0" if self.is_zero else " + ".join(self.to_json())


def canonical_exponents(
    d: tuple[int, ...], e: tuple[int, ...], t: tuple[int, ...], half_rank: Exponent
) -> PicElement:
    """Canonical-sheaf exponent vector of ``(half_rank, d, e, t)``.

    The unchecked formula of the module docstring: `canonical_sheaf` and
    `canonical_sheaf_in_n` call it on a built descriptor that is Gorenstein.
    ``half_rank`` may be `SYMBOLIC_N`, in which case exponents come out as
    affine expressions in the half rank.  One list takes the nonzero items
    in generator order: each ``Delta(i)`` once stratum ``i`` has added its
    share, then the ``Nabla`` and ``DetV`` items.
    """
    k = len(e)
    items: list[tuple[Generator, Exponent]] = []
    dets: dict[int, Exponent] = {d[k]: d[k] - half_rank - 1}
    carried: Exponent = 0  # what stratum i - 1 adds to Delta(i)
    for i in range(k):
        di, ti_ei = d[i], t[i] + e[i]
        exp = carried + ti_ei + 1 - di
        if exp != 0:
            items.append((_DELTAS[i], exp))
        carried = ti_ei - half_rank
        dets[di] = dets.get(di, 0) - t[i]
    exp = carried + half_rank - d[k] + 1
    if exp != 0:
        items.append((_DELTAS[k], exp))
    for i in range(k):
        exp = half_rank + d[i] - 2 * e[i] - t[i] - 1
        if exp != 0:
            items.append((_NABLAS[i], exp))
    for m in sorted(dets):
        exp = dets[m]
        if exp != 0:
            items.append((_DET_VS[m], exp))
    return PicElement._from_sorted(tuple(items))


def canonical_sheaf(desc: FlagDescriptor) -> PicElement:
    """Relative canonical sheaf of a Gorenstein descriptor over the base."""
    if not is_gorenstein(desc):
        raise UnsupportedError(
            f"the canonical-sheaf formula needs a Gorenstein descriptor, got {desc}"
        )
    return canonical_exponents(desc.d, desc.e, desc.t, desc.half_rank)


def canonical_sheaf_in_n(
    d: tuple[int, ...], e: tuple[int, ...], t: tuple[int, ...]
) -> PicElement:
    """Canonical sheaf with the half rank kept symbolic.

    The tuples are validated at the least half rank that meets every bound
    involving it, so exactly the constraints among ``d``, ``e`` and ``t``
    themselves are checked; a violation names the descriptor at ``@N``.
    """
    try:
        least = max((0, *d, *(ei + ti for ei, ti in zip(e, t))))
    except TypeError:
        FlagDescriptor(0, d, e, t)  # raises its DomainError naming the bad part
        raise
    try:
        probe = FlagDescriptor(least, d, e, t)
    except DescriptorError as exc:
        shown = str(exc.descriptor).rpartition("@")[0] + "@N"
        raise _rejection(exc.descriptor, shown) from None
    if not is_gorenstein(probe):
        raise UnsupportedError("the canonical-sheaf formula needs d_i - e_i in {0, 1}")
    return canonical_exponents(d, e, t, SYMBOLIC_N)


def mod2_reduce(elt: PicElement, desc: FlagDescriptor) -> ParityClass:
    """Exponents mod 2, with the base-trivial generators deleted.

    Deleted: every ``DetV``; ``Delta(j)`` when ``d_j`` equals the half rank
    (the Lagrangian is the fixed flag step); ``Nabla(i)`` when ``e_i`` equals
    half rank minus ``t_i`` (the stratum is fixed).
    """
    half_rank, d, e, t = desc.half_rank, desc.d, desc.e, desc.t
    k = len(e)
    odd: set[Generator] = set()
    for gen, exp in elt._items:
        if type(exp) is not int:  # an `Affine`, the one other kind of exponent
            raise DomainError("parity is undefined for symbolic exponents; fix a half rank")
        kind, index = gen
        if kind == "DetV":
            continue
        if kind == "Delta":
            if index > k:  # indices are ints >= 0 (see `Generator`)
                raise DomainError(f"generator {gen} is out of range for {desc}")
            if d[index] == half_rank:
                continue
        elif kind == "Nabla":
            if index >= k:
                raise DomainError(f"generator {gen} is out of range for {desc}")
            if e[index] == half_rank - t[index]:
                continue
        if exp % 2 == 1:
            odd.add(gen)
    return ParityClass(frozenset(odd))


class Twist(str, Enum):
    """Coefficient line bundle on the ambient Grassmannian."""

    TRIVIAL = "O"
    DELTA = "Delta"


def _member(kind: type[Enum], value):
    """The member of the enum ``kind`` that is ``value`` or has it as value.

    Callers that compare members with ``is``, and the records that carry a
    member (``basis.Decomposition``, ``basis.WittTable``), coerce their
    argument once with this, so a plain string gets its own member's answer
    and anything else is a `DomainError`.
    """
    try:
        return kind(value)
    except ValueError:
        choices = " or ".join(repr(member.value) for member in kind)
        raise DomainError(f"{kind.__name__} must be {choices}, got {value!r}") from None


def blowup_pullback(twist: Twist) -> PicElement:
    """Class of the twist pulled back to the two-step blow-up.

    Through the affine-bundle identification and the two blow-up projections
    the ambient determinant gains both exceptional divisors, each with
    exponent one; the trivial twist stays trivial.
    """
    if _member(Twist, twist) is Twist.TRIVIAL:
        return PicElement.zero()
    return PicElement({AMBIENT_DELTA: 1, E1: 1, E2: 1})


def lambda_pair(twist: Twist) -> tuple[int, int]:
    """Parities of the exceptional-divisor exponents in the pullback of the twist."""
    elt = blowup_pullback(twist)
    return (elt.exponent(E1) % 2, elt.exponent(E2) % 2)


class ConnectingCase(str, Enum):
    """Outcome of the two-step blow-up connecting-homomorphism analysis."""

    SPLIT_CASE_I = "SplitCaseI"
    ETA_CASE_II = "EtaCaseII"
    ETA_CASE_III = "EtaCaseIII"
    NEEDS_PADDING = "NeedsPadding"


def classify_connecting(c1: int, c2: int, lam1: int, lam2: int) -> ConnectingCase:
    """Case split by the parities of the divisor exponents against the codimensions.

    ``c1`` and ``c2`` are the codimensions of the two blow-up centers (each
    at least 2); ``lam1``, ``lam2`` the divisor-exponent parities (0 or 1) of
    the coefficient bundle.
    """
    for value in (c1, c2, lam1, lam2):
        if type(value) is not int:  # rejects bools too
            raise DomainError(f"codimensions and parities must be integers, got {value!r}")
    if c1 < 2 or c2 < 2:
        raise DomainError(f"blow-up codimensions must be at least 2, got {c1}, {c2}")
    if lam1 not in (0, 1) or lam2 not in (0, 1):
        raise DomainError(f"parities lam1, lam2 must be 0 or 1, got {lam1}, {lam2}")
    first = (lam1 - (c1 - 1)) % 2 == 0
    second = (lam2 - (c2 - 1)) % 2 == 0
    if first and second:
        return ConnectingCase.SPLIT_CASE_I
    if first:
        return ConnectingCase.ETA_CASE_II
    if second:
        return ConnectingCase.ETA_CASE_III
    return ConnectingCase.NEEDS_PADDING


class TwistVariant(str, Enum):
    """Which pushforward family a diagram's scheme feeds (plain or twisted)."""

    XI0 = "Xi0"
    XI1 = "Xi1"


class AlignmentResult(Record):
    __slots__ = _fields = ("ok", "parity", "required", "scheme")


def scheme_alignment(diagram: ShiftedDiagram, scheme: FlagDescriptor) -> AlignmentResult:
    """Check the mod-2 condition that makes a summand's pushforward well-defined.

    Reduces the canonical-sheaf parity of ``scheme``, the scheme a summand
    of ``diagram`` carries, and compares it against the class the
    pushforward needs: ``Delta(0)`` when the diagram takes the type-1
    construction (even frame, empty right column) and zero otherwise.
    """
    parity = mod2_reduce(canonical_sheaf(scheme), scheme)
    required = ParityClass(frozenset({delta(0)}) if uses_type1(diagram) else frozenset())
    return AlignmentResult(parity == required, parity, required, scheme)


def twist_alignment(
    diagram: ShiftedDiagram, variant: TwistVariant, n: int
) -> AlignmentResult:
    """`scheme_alignment` of the padded scheme the basis builds for a diagram.

    The diagram must be almost even and lie in frame ``n``.  Its variant is
    ``Xi1`` for even frames with a full top row and ``Xi0`` otherwise.
    """
    variant = _member(TwistVariant, variant)
    _require_frame_size(n)
    if diagram.n != n:
        raise DomainError(f"diagram lives in frame {diagram.n}, not {n}")
    if not classify(diagram).is_almost_even:
        raise DomainError(f"{diagram.steps!r} is not almost even")
    full_top = diagram.steps[0] == DOWN
    expected = TwistVariant.XI1 if n % 2 == 0 and full_top else TwistVariant.XI0
    if variant is not expected:
        raise DomainError(
            f"{diagram.steps!r} in frame {n} uses variant {expected.value}, "
            f"not {variant.value}"
        )
    scheme = padded_scheme(diagram, boundary(diagram).segment_count)
    return scheme_alignment(diagram, scheme)
