"""Descriptors of generalized Lagrangian flag schemes and their closed-form data.

A descriptor ``(half_rank, d, e, t)`` specifies the moduli of chains of
Lagrangian subbundles of a rank ``2*half_rank`` symplectic bundle, where the
``j``-th Lagrangian sits inside the annihilator of the flag step ``V_{d_j}``
and consecutive Lagrangians share an intermediate stratum of corank ``t_i``
containing ``V_{e_i}``.  None of that geometry is materialized here: this
module evaluates the descriptor-level criteria (regularity, the Gorenstein
bound, relative dimension, component count).  Construction is the one
validity gate: `validate` runs there once, an invalid descriptor is
rejected and a built one cannot be changed, so readers need no check.
`validate` decides validity alone; the monotonicity warnings of ``e`` and
``t`` are built only when a descriptor's ``violations`` are read.
`_closed_forms`, the one home of the Gorenstein rule and of the last two
criteria, is one loop per reading.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .errors import DescriptorError, DomainError, UnsupportedError
from .record import Record
from .text import text


class FlagDescriptor(Record):
    """The data (half_rank, d, e, t) of a generalized Lagrangian flag scheme.

    ``d`` has ``k+1`` entries and ``e``, ``t`` have ``k`` each.  Construction
    checks that every value is a plain ``int`` (not a bool) and checks shapes,
    then runs `validate` once.  A broken defining inequality raises
    `DescriptorError`, which carries the errors and the rejected instance as
    ``descriptor``.  Fields cannot be assigned, so a built descriptor stays
    valid.  ``violations`` is no field: it is built when read.
    """

    __slots__ = _fields = ("half_rank", "d", "e", "t")

    def __init__(self, half_rank: int, d: Sequence[int], e: Sequence[int], t: Sequence[int]):
        try:
            d = tuple(d)
            e = tuple(e)
            t = tuple(t)
        except TypeError:
            raise DomainError(
                f"d, e and t must be sequences of integers, got {d!r}, {e!r}, {t!r}"
            ) from None
        self._store(half_rank, d, e, t)
        for value in (half_rank, *d, *e, *t):
            if type(value) is not int:  # rejects bools too
                # plain str: the memo must not see an unchecked value
                raise DomainError(
                    f"descriptor values must be integers, got {value!r} in {self.__str__(str)}"
                )
        if len(d) == 0:
            raise DomainError("d must have at least one entry")
        if len(e) != len(d) - 1 or len(t) != len(e):
            raise DomainError(
                f"shape mismatch: len(d)={len(d)} needs "
                f"len(e)=len(t)={len(d) - 1}, got {len(e)}, {len(t)}"
            )
        errors = validate(self)  # the module global, which a tracer may wrap
        if errors:
            raise _rejection(self, errors)

    @property
    def violations(self) -> tuple[Violation, ...]:
        """Every violated constraint: the errors, then the ``e``/``t`` monotonicity warnings.

        Built when read, from the itemised loops that `validate` runs on
        failure, so reading them is no second validation.  A built
        descriptor is valid and its violations are warnings only; the
        rejected one that a `DescriptorError` carries has its errors too.
        """
        return (*_itemised_errors(self), *_monotonicity_warnings(self))

    @property
    def k(self) -> int:
        return len(self.e)

    def __str__(self, number=text) -> str:
        """``LF[d](e)_[t]@half_rank``, each integer written by ``number``."""
        d = ",".join(map(number, self.d))
        e = ",".join(map(number, self.e))
        t = ",".join(map(number, self.t))
        return f"LF[{d}]({e})_[{t}]@{number(self.half_rank)}"


class Violation(Record):
    """One violated descriptor constraint; warnings do not make it invalid."""

    __slots__ = _fields = ("constraint", "message", "severity")  # "error" or "warning"


def validate(desc: FlagDescriptor) -> list[Violation]:
    """The broken defining inequalities of ``desc``; empty list means valid.

    One loop decides validity: per index, one chained comparison covers
    every bound, and the loop stops at the first failure.  Only then do the
    itemised loops of `_itemised_errors`, the one source of the error
    messages, run.  Monotonicity of ``e`` and ``t`` is no defining
    inequality: the constructed descriptors of the marking module do not
    always satisfy it and nothing downstream relies on it, so it is only a
    warning among a descriptor's ``violations``.
    """
    n, d, e, t = desc.half_rank, desc.d, desc.e, desc.t
    sound = bool(e) or 0 <= d[0] <= n  # the chain below bounds d when k >= 1
    for i, ei in enumerate(e):
        if not (0 <= ei <= d[i] <= d[i + 1] <= n and 0 < t[i] <= n - ei):
            sound = False
            break
    return [] if sound else _itemised_errors(desc)


def _itemised_errors(desc: FlagDescriptor) -> list[Violation]:
    """Each broken defining inequality on its own, in a fixed order."""
    n, d, e, t = desc.half_rank, desc.d, desc.e, desc.t
    out: list[Violation] = []

    def err(constraint: str, message: str) -> None:
        out.append(Violation(constraint, message, "error"))

    if n < 0:
        err("half_rank_nonnegative", f"half_rank must be non-negative, got {n}")
    for j, dj in enumerate(d):
        if dj < 0:
            err("d_nonnegative", f"d_{j} = {dj} is negative")
        if dj > n:
            err("d_leq_half_rank", f"d_{j} = {dj} exceeds half_rank {n}")
    for j in range(len(d) - 1):
        if d[j] > d[j + 1]:
            err("d_nondecreasing", f"d_{j} = {d[j]} > d_{j+1} = {d[j+1]}")
    for i, ti in enumerate(t):
        if ti <= 0:
            err("t_positive", f"t_{i} = {ti} is not positive")
    for i, ei in enumerate(e):
        if ei < 0:
            err("e_nonnegative", f"e_{i} = {ei} is negative")
        if ei > d[i]:
            err("e_leq_d_i", f"e_{i} = {ei} exceeds d_{i} = {d[i]}")
        if ei > d[i + 1]:
            err("e_leq_d_next", f"e_{i} = {ei} exceeds d_{i+1} = {d[i + 1]}")
        if ei > n - t[i]:
            err(
                "e_leq_half_rank_minus_t",
                f"e_{i} = {ei} exceeds half_rank - t_{i} = {n - t[i]}",
            )
    return out


def _monotonicity_warnings(desc: FlagDescriptor) -> list[Violation]:
    """A warning per decrease of ``e`` or ``t``, the one home of their messages."""
    e, t = desc.e, desc.t
    out: list[Violation] = []
    for i in range(len(e) - 1):
        if e[i] > e[i + 1]:
            out.append(
                Violation("e_nondecreasing", f"e_{i} = {e[i]} > e_{i+1} = {e[i + 1]}", "warning")
            )
        if t[i] > t[i + 1]:
            out.append(
                Violation("t_nondecreasing", f"t_{i} = {t[i]} > t_{i+1} = {t[i + 1]}", "warning")
            )
    return out


def _rejection(
    desc: FlagDescriptor, errors: Sequence[Violation], shown: str | None = None
) -> DescriptorError:
    """The `DescriptorError` rejecting ``desc`` for ``errors``, naming it as ``shown`` if given."""
    return DescriptorError(
        f"invalid descriptor {shown or desc}: " + "; ".join(v.message for v in errors),
        violations=errors,
        descriptor=desc,
    )


def is_regular(desc: FlagDescriptor) -> bool:
    """True when ``d`` with its last entry dropped equals ``e`` componentwise."""
    return desc.d[: desc.k] == desc.e


def is_gorenstein(desc: FlagDescriptor) -> bool:
    """True when ``0 <= d_i - e_i <= 1`` for all ``i < k``, the rule `_closed_forms` applies."""
    return _closed_forms(desc) is not None


def relative_dimension(desc: FlagDescriptor) -> int:
    """Relative dimension over the base, valid in the Gorenstein regime.

    Equals ``C(half_rank - d_k + 1, 2)`` plus, for each intermediate stratum,
    ``(half_rank - t_i - d_i) * t_i + C(t_i + 1, 2)``.  Note the formula does
    not involve ``e``.  `_closed_forms` evaluates it.
    """
    return dimension_and_components(desc)[0]


def component_count(desc: FlagDescriptor) -> int:
    """Number of irreducible components: ``2**s`` with ``s = #{i : d_i - e_i = 1}``."""
    forms = _closed_forms(desc)
    if forms is None:
        raise UnsupportedError(f"component count needs a Gorenstein descriptor, got {desc}")
    return forms[1]


def dimension_and_components(desc: FlagDescriptor) -> tuple[int, int]:
    """`relative_dimension` and `component_count`, in one pass over the descriptor."""
    forms = _closed_forms(desc)
    if forms is None:
        raise UnsupportedError(
            f"relative dimension is only asserted for Gorenstein descriptors "
            f"(d_i - e_i <= 1); got {desc}"
        )
    return forms


def _closed_forms(desc: FlagDescriptor) -> tuple[int, int] | None:
    """Both closed forms of a valid descriptor in one loop over it.

    None at a gap ``d_i - e_i`` outside 0..1: the descriptor is not Gorenstein.
    """
    n = desc.half_rank
    dimension = comb(n - desc.d[-1] + 1, 2)
    s = 0
    for di, ei, ti in zip(desc.d, desc.e, desc.t):
        gap = di - ei
        if not 0 <= gap <= 1:
            return None
        dimension += (n - ti - di) * ti + ti * (ti + 1) // 2
        s += gap
    return dimension, 2**s


class SchemeReport(Record):
    """Evaluated predicates and quantities of one descriptor.

    ``relative_dimension`` and ``component_count`` are None outside the
    Gorenstein regime, where the closed forms do not apply.
    """

    __slots__ = _fields = ("regular", "gorenstein", "relative_dimension", "component_count",
                           "reduced_with_trivial_pushforward")


def scheme_report(desc: FlagDescriptor) -> SchemeReport:
    """Every predicate and closed form of the descriptor, in one pass over it."""
    forms = _closed_forms(desc)
    gor = forms is not None
    dimension, components = forms or (None, None)
    return SchemeReport(
        regular=is_regular(desc),
        gorenstein=gor,
        relative_dimension=dimension,
        component_count=components,
        # The structure-map pushforward of the structure sheaf is the base's
        # structure sheaf in the Gorenstein regime with every t_i equal to 1.
        reduced_with_trivial_pushforward=gor and desc.t.count(1) == len(desc.t),
    )


def named_scheme(name: str, n: int) -> FlagDescriptor:
    """Descriptors of the recurring small schemes at half rank ``n``.

    ``B2``, ``E2`` and ``F2`` are the two-step blow-up companions of the
    Lagrangian Grassmannian; ``LF_i`` is the sub-Grassmannian of Lagrangians
    containing the flag step ``V_i`` (``LF_0`` is the full Grassmannian).
    Any other name, a non-string included, raises one `DomainError`.
    """
    if name == "B2":
        return FlagDescriptor(n, (0, 1), (0,), (1,))
    if name == "E2":
        return FlagDescriptor(n, (1, 1), (1,), (1,))
    if name == "F2":
        return FlagDescriptor(n, (1, 1), (0,), (1,))
    if isinstance(name, str) and name.startswith("LF_"):
        index = name[3:]
        if index.isascii() and index.isdigit():
            return FlagDescriptor(n, (int(index),), (), ())
    raise DomainError(f"unknown scheme name {name!r}; expected B2, E2, F2 or LF_<i>")
