"""Marked boundary points and the flag descriptors they generate.

On every horizontal boundary segment the lattice points that do not touch
the segment's terminal point are *special marked points*; they are indexed
by their offset 0, 1, ... from the segment's convex corner, reading right
to left.  A selection chooses some of them per segment by one of three
rules, and the chosen points turn into descriptor tuples:

* ``d`` lists the boundary distance from the origin to each chosen point,
  with the frame size appended when the segment count is odd;
* ``e`` is ``d`` with its last entry dropped;
* ``t`` counts the horizontal unit steps between consecutive ``d`` marks.

The padded constructions shift the frame up by one (``half_rank = n + 1``)
and adjust the tuples entrywise; they are the intermediate schemes used by
the additive-basis maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .diagrams import LEFT, Boundary, ShiftedDiagram, boundary
from .errors import DomainError
from .flags import FlagDescriptor, _require_valid


class SelectionRule(Enum):
    """Which special marked points of one segment are selected.

    Rule 1 takes all of them, rule 2 the even offsets, rule 3 the odd
    offsets together with offset 0.
    """

    ALL_POINTS = 1
    EVEN_POINTS = 2
    ODD_PLUS_FIRST = 3

    def offsets(self, length: int) -> tuple[int, ...]:
        """Selected offsets on a segment of the given length (all < length)."""
        if length < 1:
            raise DomainError(f"segment length must be positive, got {length}")
        if self is SelectionRule.ALL_POINTS:
            return tuple(range(length))
        if self is SelectionRule.EVEN_POINTS:
            return tuple(range(0, length, 2))
        return (0,) + tuple(range(1, length, 2))


@dataclass(frozen=True)
class MarkedPoint:
    """A selected point: segment index (even, 1-based) and offset within it."""

    segment: int
    offset: int


@dataclass(frozen=True)
class SegmentSelection:
    segment: int
    rule: SelectionRule
    offsets: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "segment": self.segment,
            "rule": str(self.rule.value),
            "offsets": list(self.offsets),
        }


@dataclass(frozen=True)
class MarkedSelection:
    """Selected points of one diagram, grouped per horizontal segment.

    ``boundary`` is the diagram's boundary the selection was read from.
    """

    diagram: ShiftedDiagram
    per_segment: tuple[SegmentSelection, ...]
    boundary: Boundary

    @property
    def points(self) -> tuple[MarkedPoint, ...]:
        """All selected points, by segment then by offset (right to left)."""
        return tuple(
            MarkedPoint(seg.segment, o) for seg in self.per_segment for o in seg.offsets
        )

    def to_json(self) -> list:
        return [seg.to_json() for seg in self.per_segment]


def marked_points(
    diagram: ShiftedDiagram, rules: Mapping[int, SelectionRule]
) -> MarkedSelection:
    """Apply one selection rule per horizontal segment.

    ``rules`` must have exactly the horizontal segment indices as keys; a
    rule for a vertical or out-of-range segment is a domain error, as is a
    missing one.
    """
    return _select(diagram, boundary(diagram), rules)


def _select(
    diagram: ShiftedDiagram, b: Boundary, rules: Mapping[int, SelectionRule]
) -> MarkedSelection:
    horizontal = range(2, b.segment_count + 1, 2)
    extra = set(rules) - set(horizontal)
    if extra:
        raise DomainError(
            f"rules given for non-horizontal or out-of-range segments {sorted(extra)}; "
            f"horizontal segments of {diagram.steps!r} are {list(horizontal)}"
        )
    missing = set(horizontal) - set(rules)
    if missing:
        raise DomainError(f"missing selection rules for segments {sorted(missing)}")
    per_segment = tuple(
        SegmentSelection(t, rules[t], rules[t].offsets(b.segments[t - 1][1]))
        for t in horizontal
    )
    return MarkedSelection(diagram, per_segment, b)


def _cutoff_rules(b: Boundary, w: int) -> dict[int, SelectionRule]:
    """Rule 2 on the horizontal segments up to ``w``, rule 1 beyond."""
    if w < 0:
        raise DomainError(f"selection cutoff must be non-negative, got {w}")
    return {
        t: SelectionRule.EVEN_POINTS if t <= w else SelectionRule.ALL_POINTS
        for t in range(2, b.segment_count + 1, 2)
    }


def selection_S(diagram: ShiftedDiagram, w: int) -> MarkedSelection:
    """Rule-2 points on segments up to ``w``, rule-1 points beyond.

    With ``w = 0`` every special marked point is selected.
    """
    b = boundary(diagram)
    return _select(diagram, b, _cutoff_rules(b, w))


def selection_S_tilde(diagram: ShiftedDiagram, w: int) -> MarkedSelection:
    """Like `selection_S` but the first horizontal segment uses rule 3."""
    b = boundary(diagram)
    rules = _cutoff_rules(b, w)
    if 2 not in rules:
        raise DomainError(
            f"{diagram.steps!r} has no horizontal segment s_2; rule 3 has nowhere to apply"
        )
    rules[2] = SelectionRule.ODD_PLUS_FIRST
    return _select(diagram, b, rules)


@dataclass(frozen=True)
class TupleData:
    """Descriptor tuples read off a marked selection."""

    d: tuple[int, ...]
    e: tuple[int, ...]
    t: tuple[int, ...]
    appended_n: bool

    @property
    def k(self) -> int:
        return len(self.e)

    def to_json(self) -> dict:
        return {
            "d": list(self.d),
            "e": list(self.e),
            "t": list(self.t),
            "appended_n": self.appended_n,
        }


def tuples(diagram: ShiftedDiagram, sel: MarkedSelection) -> TupleData:
    """Distance and horizontal-gap tuples of a selection.

    The ``t`` entry between consecutive marks counts horizontal unit steps
    only; with an odd segment count the final entry runs from the last mark
    to the terminal point of the last horizontal segment, and the frame size
    is appended to ``d``.
    """
    if sel.diagram != diagram:
        raise DomainError("selection was built for a different diagram")
    b = sel.boundary
    odd_segments = b.segment_count % 2 == 1
    points = sel.points
    # a horizontal segment t >= 2 starts where segment t - 1 ends
    d = [b.ends[p.segment - 2] + p.offset for p in points]
    gaps: list[int] = []
    for prev, cur in zip(points, points[1:]):
        if prev.segment == cur.segment:
            gaps.append(cur.offset - prev.offset)
        else:
            gaps.append((b.segments[prev.segment - 1][1] - prev.offset) + cur.offset)
    if odd_segments:
        d.append(diagram.n)
        if points:
            last = points[-1]
            gaps.append(b.segments[last.segment - 1][1] - last.offset)
    if not d:
        raise DomainError(
            f"selection on {diagram.steps!r} yields no tuple entries (empty frame)"
        )
    return TupleData(
        d=tuple(d), e=tuple(d[:-1]), t=tuple(gaps), appended_n=odd_segments
    )


def _padded_descriptor(
    diagram: ShiftedDiagram, data: TupleData, *, drop_first_e: bool
) -> FlagDescriptor:
    d = tuple(x + 1 for x in data.d)
    e = [data.e[i] + 2 - data.t[i] for i in range(data.k)]
    if drop_first_e:
        e[0] -= 1
    desc = FlagDescriptor(diagram.n + 1, d, tuple(e), data.t)
    _require_valid(desc)
    return desc


def lf_descriptor_type0(diagram: ShiftedDiagram, sel: MarkedSelection) -> FlagDescriptor:
    """Padded descriptor with ``d+1`` and ``e+2-t``; half rank grows by one."""
    return _padded_descriptor(diagram, tuples(diagram, sel), drop_first_e=False)


def lf_descriptor_type1(diagram: ShiftedDiagram, sel: MarkedSelection) -> FlagDescriptor:
    """Like type 0 but with the first ``e`` entry lowered by one more.

    Requires at least one intermediate stratum (``k >= 1``).
    """
    data = tuples(diagram, sel)
    if data.k < 1:
        raise DomainError(
            f"type-1 construction needs k >= 1, got k = 0 for {diagram.steps!r}"
        )
    return _padded_descriptor(diagram, data, drop_first_e=True)


def lf_a(diagram: ShiftedDiagram, w: int) -> FlagDescriptor:
    return lf_descriptor_type0(diagram, selection_S(diagram, w))


def lf_b(diagram: ShiftedDiagram, w: int) -> FlagDescriptor:
    return lf_descriptor_type1(diagram, selection_S_tilde(diagram, w))


def uses_type1(diagram: ShiftedDiagram) -> bool:
    """Whether the basis gives the diagram the type-1 construction `lf_b`.

    It does exactly when the frame is even and the walk starts with ``H``
    (an empty right column); every other diagram gets the type-0
    construction `lf_a`.
    """
    return diagram.n % 2 == 0 and diagram.steps.startswith(LEFT)


def padded_scheme(diagram: ShiftedDiagram, w: int) -> FlagDescriptor:
    """The padded scheme a basis summand of the diagram carries, cut at ``w``.

    GW summands cut at the last segment and K summands at the index; the
    construction is chosen by `uses_type1`.
    """
    return lf_b(diagram, w) if uses_type1(diagram) else lf_a(diagram, w)


def lf_ktheory(diagram: ShiftedDiagram) -> FlagDescriptor:
    """Unpadded descriptor of the K-theory model attached to a diagram.

    Selects every special marked point (``selection_S`` with cutoff 0), so
    all ``t`` entries come out 1, and keeps the frame size as the half rank.
    """
    if diagram.n < 1:
        raise DomainError("the K-theory descriptor needs a frame of size at least 1")
    data = tuples(diagram, selection_S(diagram, 0))
    desc = FlagDescriptor(diagram.n, data.d, data.e, data.t)
    _require_valid(desc)
    return desc
