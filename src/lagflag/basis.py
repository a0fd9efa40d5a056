"""Additive-basis decompositions and the induction identities between them.

The K-theory of the Lagrangian Grassmannian of frame ``n`` splits into one
copy of the base's K-theory per diagram in the frame; its Hermitian theory
splits into K-summands indexed by K-even diagrams and shifted Hermitian
summands indexed by almost even diagrams, with the exact index sets set by
the frame parity and the twist.  This module produces those decompositions
at the level of ranks, shifts and twists, attaches the intermediate scheme
descriptor to every summand, and verifies the degree-by-degree recursion
identities the decompositions satisfy.

A summand's diagram is built from its walk's steps and its scheme read off
them, so no summand's diagram computes its segment ends.  `_summand_role`
is the one rule for which summand a diagram's class yields.  It gives the
atoms two ways: `walk_atoms` reads them off the enumerated walks, and
`gw_atoms` folds the per-class weight tables of `counting.class_weights`
(`_counted`), which enumerates nothing.  Each summand stream is its
``V…`` half followed by its ``H…`` half (`_k_halves`, `_gw_halves`), two
streams over one frame that can be read in either order, or in two
processes, as the CLI's ``basis`` does.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain
from math import comb
from typing import Iterator

from . import counting
# boundary is unused here; perfbench/test_harness.py asserts that this module binds it
from .diagrams import (  # noqa: F401
    DOWN,
    LEFT,
    RowType,
    ShiftedDiagram,
    _require_frame_size,
    boundary,
    enumerate_diagrams,
)
from .errors import DomainError
from .flags import FlagDescriptor, is_gorenstein, relative_dimension
from .marking import lf_ktheory, padded_scheme, uses_type1
from .picard import Twist, _member, scheme_alignment
from .record import Record


class Kind(str, Enum):
    K = "K"
    GW = "GW"


class MapLabel(str, Enum):
    PHI = "phi"
    XI0 = "xi0"
    XI1 = "xi1"
    MU0 = "mu0"
    MU1 = "mu1"


class Summand(Record):
    """One basis summand: a K-atom or a shifted (possibly twisted) GW-atom.

    A K-atom has no ``shift``; ``base_twist`` is the flag-step index of a
    residual det twist, or None.
    """

    __slots__ = _fields = ("kind", "source_diagram", "scheme", "map_label", "shift", "base_twist")

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "shift": self.shift,
            "diagram": self.source_diagram.steps,
            "scheme": self.scheme.to_json(),
            "map": self.map_label.value,
            "base_twist": self.base_twist,
        }


class Decomposition(Record):
    """A whole basis; ``twist`` and ``theory`` may be given by value."""

    __slots__ = _fields = ("n", "twist", "theory", "summands")

    def __init__(self, n: int, twist: Twist, theory: Kind, summands: tuple[Summand, ...]):
        _require_frame_size(n)
        twist, theory = _member(Twist, twist), _member(Kind, theory)
        if theory is Kind.GW:  # the bound `gw_basis` checks
            _require_frame_size(n, 1, "the Hermitian decomposition needs")
        if not isinstance(summands, tuple) or not all(isinstance(s, Summand) for s in summands):
            raise DomainError(f"summands must be a tuple of Summands, got {summands!r:.60}")
        self._store(n, twist, theory, summands)


def k_summands(n: int) -> Iterator[Summand]:
    """The summands of `k_basis`, in order, built one at a time.

    ``n`` is checked on the call, before the first summand is asked for.
    """
    return chain(*_k_halves(n))


def _k_halves(n: int) -> tuple[Iterator[Summand], Iterator[Summand]]:
    """`k_summands` split into the summands of ``V…`` and of ``H…`` walks.

    Both halves read one `enumerate_diagrams` call, and either can be read
    first.  Frame 0's one summand has the empty walk: it leads, and the
    second half is empty.
    """
    _require_frame_size(n)
    if n == 0:
        # Base of the recursion: the Grassmannian of the empty frame is the
        # base itself, carried by the k = 0 descriptor at half rank 0.
        scheme = FlagDescriptor(0, (0,), (), ())
        base = Summand(Kind.K, ShiftedDiagram(0, ""), scheme, MapLabel.PHI, None, None)
        return iter((base,)), iter(())
    frame = enumerate_diagrams(n)
    return _k_stream(frame.half(DOWN)), _k_stream(frame.half(LEFT))


def _k_stream(frame) -> Iterator[Summand]:
    """Every diagram of the frame needs its scheme, and no class, so it walks none."""
    k, phi = Kind.K, MapLabel.PHI  # an enum member read costs a hook call: once per stream
    for diag in frame:
        yield Summand(k, diag, lf_ktheory(diag), phi, None, None)


def k_basis(n: int) -> Decomposition:
    """One K-atom per diagram in the frame, via the unpadded scheme."""
    return Decomposition(n, Twist.TRIVIAL, Kind.K, tuple(k_summands(n)))


def _summand_role(
    even_frame: bool, twist: Twist, full_top: bool, almost_even: bool, k_even: bool
) -> tuple[Kind, MapLabel] | None:
    """The summand a diagram of the given class contributes, if any.

    Even frames take GW atoms from the almost even diagrams whose first step
    matches the twist (full top row for Delta, empty right column for O);
    odd frames take them from every almost even diagram under O and from
    none under Delta.  A K-even diagram that yields no GW atom yields a K
    atom.  The label's 0 or 1 is the twist: 1 under Delta, 0 under O.
    """
    twisted = twist is Twist.DELTA
    if almost_even and (full_top == twisted if even_frame else not twisted):
        return Kind.GW, MapLabel.XI1 if twisted else MapLabel.XI0
    if k_even:
        return Kind.K, MapLabel.MU1 if twisted else MapLabel.MU0
    return None


def gw_summands(n: int, twist: Twist) -> Iterator[Summand]:
    """The summands of `gw_basis`, in order, built one at a time.

    ``n`` is checked on the call, before the first summand is asked for.
    """
    return chain(*_gw_halves(n, twist))


def _gw_halves(n: int, twist: Twist) -> tuple[Iterator[Summand], Iterator[Summand]]:
    """`gw_summands` split into the summands of ``V…`` and of ``H…`` walks.

    Both halves read one `enumerate_diagrams` call, and either can be read
    first; either may be empty.
    """
    first, second = _gw_walk_halves(n, twist)
    return _gw_stream(first), _gw_stream(second)


def _gw_walks(n: int, twist: Twist) -> Iterator[tuple]:
    """``(diagram, cls, kind, label, shift)`` of each walk that yields a summand, in order.

    A diagram is built only for those walks, and no scheme.  A GW atom's
    shift is its diagram's weight; a K atom has none.  ``n`` is checked on
    the call.
    """
    return chain(*_gw_walk_halves(n, twist))


def _gw_walk_halves(n: int, twist: Twist) -> tuple[Iterator[tuple], Iterator[tuple]]:
    """`_gw_walks` split into its ``V…`` and ``H…`` walks, from one frame."""
    _require_frame_size(n, 1, "the Hermitian decomposition needs")
    frame, even_frame, twist = enumerate_diagrams(n), n % 2 == 0, _member(Twist, twist)
    return (
        _role_stream(frame, even_frame, twist, DOWN),
        _role_stream(frame, even_frame, twist, LEFT),
    )


def _role_stream(frame, even_frame: bool, twist: Twist, first: str) -> Iterator[tuple]:
    """The walks of one half; each class's role is decided once, on its first walk.

    The walk shares one `DiagramClass` among the walks of a class and keeps
    it while it runs, so a class's ``id`` names it for the whole stream.
    It leaves out the walks that fix an odd index at a turn, which have no
    role under either twist.
    """
    n = frame.n
    full_top_row, gw = RowType.FULL_TOP_ROW, Kind.GW
    roles: dict[int, tuple[Kind, MapLabel] | None] = {}
    for steps, cls in frame._walks(True, first):
        try:
            role = roles[id(cls)]
        except KeyError:
            full_top = cls.row_type is full_top_row
            role = roles[id(cls)] = _summand_role(
                even_frame, twist, full_top, cls.is_almost_even, cls.is_k_even
            )
        if role is None:
            continue
        diag = ShiftedDiagram(n, steps)
        kind, label = role
        yield diag, cls, kind, label, (diag.weight if kind is gw else None)


def _gw_stream(walks) -> Iterator[Summand]:
    """Each walk's summand, with the padded scheme cut at its index."""
    k = Kind.K
    for diag, cls, kind, label, shift in walks:
        scheme = padded_scheme(diag, cls.index_w)
        if kind is k:
            yield Summand(kind, diag, scheme, label, None, None)
            continue
        # the type-1 construction leaves a residual det twist
        base_twist = 1 if uses_type1(diag) else None
        yield Summand(kind, diag, scheme, label, shift, base_twist)


def gw_basis(n: int, twist: Twist) -> Decomposition:
    """Hermitian decomposition of frame ``n`` with the given twist.

    Frame 1 falls through the odd-frame branch and serves as the definitional
    base of the recursion identities.
    """
    return Decomposition(n, twist, Kind.GW, tuple(gw_summands(n, twist)))


Atom = tuple[str, int | None]  # ("K", None) or ("GW", shift)


def atom_multiset(decomp: Decomposition) -> Counter:
    """Forget schemes and twists: count summands by (kind, shift)."""
    return Counter(
        (s.kind.value, s.shift if s.kind is Kind.GW else None) for s in decomp.summands
    )


def walk_atoms(n: int, twist: Twist) -> Counter:
    """``atom_multiset(gw_basis(n, twist))``, read off the walk roles and shifts.

    It builds no scheme and no summand.
    """
    return Counter((kind.value, shift) for _, _, kind, _, shift in _gw_walks(n, twist))


def gw_atoms(n: int, twist: Twist) -> Counter:
    """The atom multiset of ``gw_basis(n, twist)``, counted per class."""
    _require_frame_size(n, 1, "the Hermitian decomposition needs")
    twist = _member(Twist, twist)
    return _counted(n)[twist]


def _counted(n: int) -> dict[Twist, Counter]:
    """The atom multiset of frame ``n`` under each twist, from one `class_weights` pass.

    A class's role gives each of its diagrams a K atom, or a GW atom shifted
    by the diagram's weight, or nothing.
    """
    tables = counting.class_weights(n)
    by_twist: dict[Twist, Counter] = {}
    for twist in Twist:
        atoms = by_twist[twist] = Counter()
        for (first, almost_even, k_even), coeffs in tables.items():
            role = _summand_role(n % 2 == 0, twist, first == DOWN, almost_even, k_even)
            if role is None:
                continue
            if role[0] is Kind.K:
                atoms[("K", None)] += sum(coeffs)
            else:
                atoms.update({("GW", w): count for w, count in enumerate(coeffs) if count})
    return by_twist


def _shifted(atoms: Counter, by: int) -> Counter:
    """Raise every GW shift; K-atoms are shift-free."""
    out: Counter = Counter()
    for (kind, shift), count in atoms.items():
        out[(kind, shift + by if kind == "GW" else None)] += count
    return out


def _atom_key(atom: Atom) -> tuple[str, int]:
    kind, shift = atom
    return (kind, -1 if shift is None else shift)


def first_mismatch(lhs: Counter, rhs: Counter) -> Atom | None:
    for atom in sorted(set(lhs) | set(rhs), key=_atom_key):
        if lhs[atom] != rhs[atom]:
            return atom
    return None


class CaseResult(Record):
    __slots__ = _fields = ("label", "description", "passed", "lhs", "rhs", "first_mismatch")

    def to_json(self) -> dict:
        return {
            "case": self.label,
            "description": self.description,
            "passed": self.passed,
            "lhs": [[list(atom), count] for atom, count in self.lhs],
            "rhs": [[list(atom), count] for atom, count in self.rhs],
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
        }


class RecursionReport(Record):
    __slots__ = _fields = ("n", "passed", "cases", "notes")


def _case(label: str, description: str, lhs: Counter, rhs: Counter) -> CaseResult:
    mismatch = first_mismatch(lhs, rhs)
    freeze = lambda c: tuple(sorted(c.items(), key=lambda kv: _atom_key(kv[0])))
    return CaseResult(label, description, mismatch is None, freeze(lhs), freeze(rhs), mismatch)


def verify_recursions(n: int, counted=_counted) -> RecursionReport:
    """Check the decomposition recursions of frame ``n`` as multiset identities.

    Even frame, in terms of frame ``n-1``: the twisted decomposition equals
    the untwisted one shifted by ``n`` plus the twisted one, and vice versa.
    Odd frame, in terms of frame ``n-2``: each decomposition equals itself
    shifted by ``2n-1``, plus ``2**(n-2)`` K-atoms, plus itself.
    ``counted(m)`` gives frame ``m``'s atoms by twist; a caller that checks
    a run of frames passes one that keeps the frames it has counted.
    """
    _require_frame_size(n, 2, "the recursion identities need")
    back = n - 1 if n % 2 == 0 else n - 2
    notes = ["frame 1 decompositions are the definitional base"] if back == 1 else []
    prev, now = counted(back), counted(n)
    cases: list[CaseResult] = []
    if n % 2 == 0:
        table = (("a", Twist.DELTA, Twist.TRIVIAL), ("b", Twist.TRIVIAL, Twist.DELTA))
        for label, twist, other in table:
            t, o = twist.value, other.value
            description = f"{t}({n}) = shift({o}({back}), +{n}) + {t}({back})"
            rhs = _shifted(prev[other], n) + prev[twist]
            cases.append(_case(label, description, now[twist], rhs))
    else:
        k_block = Counter({("K", None): 2 ** back})
        for label, twist in (("c", Twist.TRIVIAL), ("d", Twist.DELTA)):
            t = twist.value
            description = (
                f"{t}({n}) = shift({t}({back}), +{2 * n - 1}) + {2 ** back}*K + {t}({back})"
            )
            rhs = _shifted(prev[twist], 2 * n - 1) + k_block + prev[twist]
            cases.append(_case(label, description, now[twist], rhs))
    return RecursionReport(
        n=n,
        passed=all(c.passed for c in cases),
        cases=tuple(cases),
        notes=tuple(notes),
    )


class GeometryReport(Record):
    __slots__ = _fields = ("n", "checked", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures


def _tag(decomp: Decomposition, summand: Summand) -> str:
    """How a `verify_geometry` failure names its summand; built only on failure."""
    return f"{decomp.twist.value}/{summand.map_label.value}({summand.source_diagram.steps})"


def verify_geometry(n: int) -> GeometryReport:
    """Validate every basis scheme of frame ``n`` against the closed forms.

    Every summand's descriptor must be Gorenstein.  Unpadded and
    pushforward summands must lose exactly the diagram's weight in relative
    dimension, and the scheme each pushforward (GW) summand carries must
    pass the twist-parity check.
    """
    _require_frame_size(n, 1, "the geometry audit needs")
    failures: list[str] = []
    checked = 0
    ambient_dim = comb(n + 1, 2)
    decomps = [k_basis(n), gw_basis(n, Twist.TRIVIAL), gw_basis(n, Twist.DELTA)]
    for decomp in decomps:
        for summand in decomp.summands:
            checked += 1
            if not is_gorenstein(summand.scheme):
                failures.append(f"{_tag(decomp, summand)}: descriptor is not Gorenstein")
                continue
            if summand.map_label in (MapLabel.PHI, MapLabel.XI0, MapLabel.XI1):
                dim = relative_dimension(summand.scheme)
                expected = ambient_dim - summand.source_diagram.weight
                if dim != expected:
                    failures.append(
                        f"{_tag(decomp, summand)}: dimension {dim}, expected {expected}"
                    )
            if summand.kind is Kind.GW:
                result = scheme_alignment(summand.source_diagram, summand.scheme)
                if not result.ok:
                    failures.append(
                        f"{_tag(decomp, summand)}: twist parity {result.parity}, "
                        f"required {result.required}"
                    )
    return GeometryReport(n=n, checked=checked, failures=tuple(failures))


class WittTable(Record):
    """GW-atom counts folded mod 4, with K-atoms tallied separately.

    ``twist`` may be given by value.
    """

    __slots__ = _fields = ("n", "twist", "degrees", "k_count")

    def __init__(self, n: int, twist: Twist, degrees: tuple[tuple[int, int], ...], k_count: int):
        _require_frame_size(n)
        twist = _member(Twist, twist)
        if not _is_degree_table(degrees):
            raise DomainError(
                "degrees must be a tuple of (degree, count) integer pairs, degrees "
                f"ascending in 0..3 and counts >= 1, got {degrees!r}"
            )
        if type(k_count) is not int or k_count < 0:  # rejects bools too
            raise DomainError(f"k_count must be a non-negative integer, got {k_count!r}")
        self._store(n, twist, degrees, k_count)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "twist": self.twist.value,
            "degrees": {str(deg): count for deg, count in self.degrees},
            "k_count": self.k_count,
        }


def _is_degree_table(degrees) -> bool:
    """Whether ``degrees`` is a table as `witt_table` builds it.

    That is a tuple of ``(degree, count)`` pairs of plain ints, the degrees
    ascending in 0..3 and every count at least 1.
    """
    if type(degrees) is not tuple:
        return False
    last = -1
    for pair in degrees:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        degree, count = pair
        if type(degree) is not int or type(count) is not int:  # rejects bools too
            return False
        if not last < degree <= 3 or count < 1:
            return False
        last = degree
    return True


def witt_table(n: int, twist: Twist) -> WittTable:
    """The GW shifts of `gw_atoms(n, twist)` folded mod 4, and its K atoms tallied apart.

    ``twist`` may be given by value.
    """
    atoms = gw_atoms(n, twist)
    k_count = atoms.pop(("K", None), 0)
    counts: Counter = Counter()
    for (_, shift), count in atoms.items():
        counts[shift % 4] += count
    return WittTable(
        n=n,
        twist=twist,
        degrees=tuple(sorted(counts.items())),
        k_count=k_count,
    )
