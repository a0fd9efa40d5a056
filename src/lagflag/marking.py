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
the additive-basis maps.  They (`_padded`) read the segment ``ends``,
which a diagram computes at most once, and append ``d``, ``e`` and ``t`` as
each horizontal segment's marks are visited; `lf_ktheory` selects every
point and reads ``d`` off the steps.  `selection_S`, `selection_S_tilde`
and `tuples` take the documented steps one at a time off the same ends: a
rule per segment (`_cutoff_rules`), each segment's offsets (`marked_points`)
and the tuples (`_entries`); they are kept for inspection, and nothing else
in the package calls them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum

# boundary is unused here; perfbench/test_harness.py asserts that this module binds it
from .diagrams import DOWN, LEFT, ShiftedDiagram, _require_frame_size, boundary  # noqa: F401
from .errors import DomainError
from .flags import FlagDescriptor
from .record import Record


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


class SegmentSelection(Record):
    __slots__ = _fields = ("segment", "rule", "offsets")

    def to_json(self) -> dict:
        return {
            "segment": self.segment,
            "rule": str(self.rule.value),
            "offsets": list(self.offsets),
        }


class MarkedSelection(Record):
    """Selected points of one diagram, grouped per horizontal segment."""

    __slots__ = _fields = ("diagram", "per_segment")

    @property
    def points(self) -> tuple[tuple[int, int], ...]:
        """All selected ``(segment, offset)`` pairs, by segment then offset."""
        return tuple((seg.segment, o) for seg in self.per_segment for o in seg.offsets)

    def to_json(self) -> list:
        return [seg.to_json() for seg in self.per_segment]


def _require_cutoff(w) -> None:
    """Reject a selection cutoff that is not a plain ``int`` at least 0; bools too."""
    if type(w) is not int:
        raise DomainError(f"selection cutoff must be an integer, got {w!r}")
    if w < 0:
        raise DomainError(f"selection cutoff must be non-negative, got {w}")


def _no_s2(diagram: ShiftedDiagram) -> DomainError:
    """The error for rule 3 on a diagram without the horizontal segment ``s_2``."""
    return DomainError(
        f"{diagram.steps!r} has no horizontal segment s_2; rule 3 has nowhere to apply"
    )


def _no_entries(diagram: ShiftedDiagram) -> DomainError:
    """The error for a selection that yields no tuple entry."""
    return DomainError(f"selection on {diagram.steps!r} yields no tuple entries (empty frame)")


def _cutoff_rules(diagram: ShiftedDiagram, w: int, tilde: bool = False) -> dict[int, SelectionRule]:
    """Rule 2 on the horizontal segments up to ``w``, rule 1 beyond.

    With ``tilde`` the first horizontal segment takes rule 3; it must exist.
    """
    _require_cutoff(w)
    rules = {
        s: SelectionRule.EVEN_POINTS if s <= w else SelectionRule.ALL_POINTS
        for s in range(2, len(diagram.ends) + 1, 2)
    }
    if tilde:
        if 2 not in rules:
            raise _no_s2(diagram)
        rules[2] = SelectionRule.ODD_PLUS_FIRST
    return rules


def _entries(diagram: ShiftedDiagram, segment_offsets: Iterable) -> tuple:
    """``d`` and ``t`` of the marks at the given ``(segment, offsets)`` pairs.

    The pairs cover every horizontal segment in order.  A mark at offset
    ``o`` on segment ``s`` has ``d = ends[s-2] + o``, and ``t`` steps
    between the marks' horizontal positions (``H`` steps before ``s``, plus
    ``o``).  An odd segment count appends the frame size to ``d`` and the
    run to the last ``H`` to ``t``.
    """
    ends = diagram.ends
    d, positions, h_steps = [], [], 0
    for s, offsets in segment_offsets:
        start = ends[s - 2]  # a horizontal segment s >= 2 starts where s - 1 ends
        for o in offsets:
            d.append(start + o)
            positions.append(h_steps + o)
        h_steps += ends[s - 1] - start
    if len(ends) % 2 == 1:
        d.append(diagram.n)
        positions.append(h_steps)
    if not d:
        raise _no_entries(diagram)
    return d, [cur - prev for prev, cur in zip(positions, positions[1:])]


def marked_points(diagram: ShiftedDiagram, rules: Mapping[int, SelectionRule]) -> MarkedSelection:
    """Apply one selection rule per horizontal segment.

    ``rules`` must be a mapping with exactly the horizontal segment indices
    as keys, each with a `SelectionRule`; a rule for a vertical or
    out-of-range segment is a domain error, as is a missing one, a value
    that is no rule or a ``rules`` that is no mapping.
    """
    if not isinstance(rules, Mapping):
        raise DomainError(f"rules must map segment indices to rules, got {rules!r}")
    ends = diagram.ends
    horizontal = range(2, len(ends) + 1, 2)
    extra = set(rules) - set(horizontal)
    if extra:
        # integers in order, then any other keys by repr, which always compare
        ints = sorted(key for key in extra if type(key) is int)
        listed = ints + sorted((key for key in extra if type(key) is not int), key=repr)
        raise DomainError(
            f"rules given for non-horizontal or out-of-range segments {listed}; "
            f"horizontal segments of {diagram.steps!r} are {list(horizontal)}"
        )
    missing = set(horizontal) - set(rules)
    if missing:
        raise DomainError(f"missing selection rules for segments {sorted(missing)}")
    per_segment = []
    for s in horizontal:
        rule = rules[s]
        if not isinstance(rule, SelectionRule):
            raise DomainError(f"the rule for segment {s} must be a SelectionRule, got {rule!r}")
        per_segment.append(SegmentSelection(s, rule, rule.offsets(ends[s - 1] - ends[s - 2])))
    return MarkedSelection(diagram, tuple(per_segment))


def selection_S(diagram: ShiftedDiagram, w: int) -> MarkedSelection:
    """Rule-2 points on segments up to ``w``, rule-1 points beyond.

    With ``w = 0`` every special marked point is selected.
    """
    return marked_points(diagram, _cutoff_rules(diagram, w))


def selection_S_tilde(diagram: ShiftedDiagram, w: int) -> MarkedSelection:
    """Like `selection_S` but the first horizontal segment uses rule 3."""
    return marked_points(diagram, _cutoff_rules(diagram, w, tilde=True))


class TupleData(Record):
    """Descriptor tuples read off a marked selection."""

    __slots__ = _fields = ("d", "e", "t", "appended_n")

    @property
    def k(self) -> int:
        return len(self.e)


def tuples(diagram: ShiftedDiagram, sel: MarkedSelection) -> TupleData:
    """Distance and horizontal-gap tuples of a selection (see `_entries`)."""
    if sel.diagram != diagram:
        raise DomainError("selection was built for a different diagram")
    d, t = _entries(diagram, ((s.segment, s.offsets) for s in sel.per_segment))
    return TupleData(tuple(d), tuple(d[:-1]), tuple(t), len(diagram.ends) % 2 == 1)


def _padded(diagram: ShiftedDiagram, w: int, type1: bool) -> FlagDescriptor:
    """The padded descriptor of `lf_a` (or of `lf_b` with ``type1``), in one loop.

    Horizontal segment ``s`` takes rule 2 when ``s <= w`` and rule 1
    beyond; with ``type1`` the first one, ``s_2``, takes rule 3.  The marks
    are read straight off the segment ends: a mark at distance ``x`` on a
    segment that starts after ``lift`` vertical steps sits at horizontal
    position ``x - lift``, and each mark after the first appends its gap
    ``t`` back to the previous one and that one's ``e = d + 2 - t``.  A
    bad cutoff, a missing ``s_2``, no marks and ``k = 0`` are rejected in
    that order.
    """
    ends = diagram.ends
    _require_cutoff(w)
    count = len(ends)
    if type1 and count < 2:
        raise _no_s2(diagram)
    d, e, t = [], [], []  # d is padded, so a previous mark's e is d[-1] + 1 - gap
    h = 0  # horizontal steps before the current segment
    last = 0  # horizontal position of the previous mark
    even_through = w - 1  # s = j + 1 takes rule 2 when s <= w, so when j <= w - 1
    # segment s = j + 1 is horizontal for odd j and starts at ends[j - 1]
    for j in range(1, count, 2):
        start, end = ends[j - 1], ends[j]
        if type1 and j == 1:
            marks = (start, *range(start + 1, end, 2))
        else:
            marks = range(start, end, 2 if j <= even_through else 1)
        lift = start - h
        for x in marks:
            if d:
                gap = x - lift - last
                t.append(gap)
                e.append(d[-1] + 1 - gap)
            d.append(x + 1)
            last = x - lift
        h = end - lift
    if count % 2:  # the frame size closes an odd walk, after a vertical tail
        if d:
            gap = h - last
            t.append(gap)
            e.append(d[-1] + 1 - gap)
        d.append(diagram.n + 1)
    if not d:
        raise _no_entries(diagram)
    if type1:
        if not t:
            raise DomainError(
                f"type-1 construction needs k >= 1, got k = 0 for {diagram.steps!r}"
            )
        e[0] -= 1
    return FlagDescriptor(diagram.n + 1, tuple(d), tuple(e), tuple(t))


def lf_a(diagram: ShiftedDiagram, w: int) -> FlagDescriptor:
    """Padded type-0 descriptor cut at ``w`` (see `_padded`): ``d+1``, ``e+2-t``."""
    return _padded(diagram, w, False)


def lf_b(diagram: ShiftedDiagram, w: int) -> FlagDescriptor:
    """Like `lf_a` with rule 3 on ``s_2``, first ``e`` one lower; needs ``k >= 1``."""
    return _padded(diagram, w, True)


def uses_type1(diagram: ShiftedDiagram) -> bool:
    """Whether the basis gives the diagram the type-1 construction `lf_b`.

    It does exactly when the frame is even and the walk starts with ``H``
    (an empty right column); every other diagram gets the type-0
    construction `lf_a`.
    """
    return diagram.n % 2 == 0 and diagram.steps.startswith(LEFT)


def padded_scheme(diagram: ShiftedDiagram, w: int) -> FlagDescriptor:
    """The padded scheme a basis summand of the diagram carries, cut at ``w``.

    The basis cuts every summand at the diagram's index, which for a GW
    summand's almost even diagram is its last segment; the construction is
    chosen by `uses_type1`.
    """
    build = lf_b if uses_type1(diagram) else lf_a
    return build(diagram, w)


def lf_ktheory(diagram: ShiftedDiagram) -> FlagDescriptor:
    """Unpadded descriptor of the K-theory model attached to a diagram.

    Selects every special marked point (rule 1 on every segment), so ``d``
    is the positions of the ``H`` steps, the ones inside a horizontal
    segment, with the frame size appended when the last step is ``V`` (an
    odd segment count); consecutive marks are one horizontal step apart, so
    all ``t`` entries are 1.  The frame size stays the half rank.
    """
    _require_frame_size(diagram.n, 1, "the K-theory descriptor needs")
    steps = diagram.steps
    d = [i for i, step in enumerate(steps) if step == LEFT]
    if steps[-1] == DOWN:
        d.append(diagram.n)
    return FlagDescriptor(diagram.n, d, d[:-1], [1] * (len(d) - 1))
