"""Shifted Young diagrams in the staircase frame, seen as boundary lattice paths.

A shifted Young diagram in the frame ``(n, n-1, ..., 1)`` is encoded by the
walk of its boundary, read from the origin at the top-right corner of the
frame towards the staircase diagonal: one character per unit step, ``V`` for
a step down and ``H`` for a step left.  The walk always has exactly ``n``
steps, and the set of rows it encloses is the strict partition

    parts = { n + 1 - i : step i goes down },  i = 1..n  (1-based).

This gives the subset bijection between diagrams and subsets of ``{1..n}``,
hence ``2**n`` diagrams in frame ``n``.

The boundary decomposes into maximal runs of equal-direction steps, the
*segments*.  Odd-indexed segments are vertical, even-indexed horizontal; a
leading vertical segment of length zero is inserted when the walk starts
with a horizontal step, so that the alternation always starts vertically.

A `Frame` holds no diagram: it builds each one as iteration reaches it, and
`Frame.walks` yields each walk's steps and class ``(steps, cls)`` without
one.  Every walk that starts with ``V`` comes before every walk that starts
with ``H``, so a frame is its two halves in turn: `Frame.half` iterates
one, and the walk can run on one (the basis streams, which the CLI writes
half by half).  The scheme constructions read a diagram's steps; `boundary`,
`classify` and the selection views read its segment ends, which it
computes at most once.  `_walk_class` is the one home of the class rule,
which `classify` and the walk share, and `_require_frame_size` the
package's one check of a frame size.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from functools import cached_property
from itertools import product, repeat
from operator import sub

from .errors import DomainError
from .record import Record

DOWN = "V"
LEFT = "H"


def _require_frame_size(n, least: int = 0, needs: str = "expected") -> None:
    """Reject a frame size that is not a plain ``int`` or is below ``least``.

    Bools are rejected too.  ``needs`` opens the message for a size that is
    too small, e.g. "the recursion identities need" for ``least=2``.  Every
    function that takes a frame size calls this before it reads ``n``, so a
    bad one fails on the call and not later; no other code checks the bound.
    """
    if type(n) is not int:
        raise DomainError(f"frame size n must be an integer, got {n!r}")
    if n < least:
        raise DomainError(f"{needs} frame size >= {least}, got {n}")


class ShiftedDiagram(Record):
    """A shifted Young diagram, stored as its boundary step string."""

    _fields = ("n", "steps")
    __slots__ = (*_fields, "__dict__")  # __dict__ holds the `ends` cache

    def __init__(self, n: int, steps: str):
        _require_frame_size(n)
        if type(steps) is not str:
            raise DomainError(f"steps must be a string, got {steps!r}")
        if len(steps) != n:
            raise DomainError(f"expected {n} boundary steps, got {len(steps)}")
        if steps.strip(DOWN + LEFT):  # the set of bad steps is built only for the message
            bad = set(steps) - {DOWN, LEFT}
            raise DomainError(f"boundary steps must be 'V' or 'H', got {sorted(bad)}")
        self._store(n, steps)

    # not a field, so ==, hash, repr and to_json see only the walk; the cache
    # writes the __dict__ slot directly, past the __setattr__ that refuses assignment
    @cached_property
    def ends(self) -> tuple[int, ...]:
        """Segment ends of the boundary walk (see `Boundary`), read at most once."""
        steps = self.steps
        # the walk opens with a vertical segment, of length zero when it starts with H
        ends, run = [], DOWN
        for i, step in enumerate(steps):
            if step != run:
                ends.append(i)
                run = step
        if steps:
            ends.append(len(steps))
        return tuple(ends)

    @property
    def parts(self) -> tuple[int, ...]:
        """Row lengths in decreasing order."""
        # from a list, so the tuple is built at its final size and never resized
        return tuple([self.n - i for i, step in enumerate(self.steps) if step == DOWN])

    @property
    def weight(self) -> int:
        """Number of boxes of the diagram."""
        return sum(self.parts)

    def to_json(self) -> dict:
        parts = self.parts
        return {"n": self.n, "steps": self.steps, "parts": list(parts), "weight": sum(parts)}

    def __str__(self) -> str:
        return self.steps


class Frame(Record):
    """The ``2**n`` diagrams of frame ``n``, lexicographic with ``V`` before ``H``.

    A diagram is built only when iteration reaches it, so iterating holds
    one at a time; a frame has a length but no indexing.  Its size is
    checked when it is built.
    """

    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        _require_frame_size(n)
        self._store(n)

    def __len__(self) -> int:
        return 1 << self.n

    def __iter__(self) -> Iterator[ShiftedDiagram]:
        walks = map("".join, product((DOWN, LEFT), repeat=self.n))
        return map(ShiftedDiagram, repeat(self.n), walks)

    def half(self, first: str) -> Iterator[ShiftedDiagram]:
        """The diagrams whose walk starts with ``first``, in frame order.

        Every ``V`` walk comes before every ``H`` walk, so the frame is its
        ``V`` half followed by its ``H`` half.  Frame 0 has no halves.
        """
        _require_frame_size(self.n, 1, "a half of a frame needs")
        if first not in (DOWN, LEFT):
            raise DomainError(f"a half starts with 'V' or 'H', got {first!r}")
        walks = map("".join, product(first, *repeat((DOWN, LEFT), self.n - 1)))
        return map(ShiftedDiagram, repeat(self.n), walks)

    def walks(self) -> Iterator[tuple[str, DiagramClass]]:
        """``(steps, cls)`` of every walk, in frame order, building no diagram.

        ``cls`` is what `classify` returns.  The walk goes depth first and
        carries the segment count and the index down each step prefix, so
        siblings share their prefix's work and the stack holds one path from
        the root.  Walks with the same first step, index and segment count
        share one `DiagramClass`, kept only for this call.  Frame 0 has no
        index.
        """
        _require_frame_size(self.n, 1, "classification needs")
        return self._walks(False)

    def _walks(
        self, cut_odd: bool, first: str | None = None
    ) -> Iterator[tuple[str, DiagramClass]]:
        """`walks`, or with ``cut_odd`` only those that fix no odd index at a turn.

        A walk that does ends with more segments than its index, so it is
        neither almost even nor K-even, and the basis gives it no summand
        under either twist.  The cut drops its whole subtree unwalked.  With
        ``first``, only the walks of that half (see `half`).
        """
        n = self.n
        holds = [is_index_end(i, n) for i in range(n)]
        # (first step, index, segment count) -> the class those walks share
        classes: dict[tuple[str, int, int], DiagramClass] = {}
        # (steps, closed segments, current step, index or 0 while unfound); the
        # walk opens with a vertical segment, which a first H step closes empty,
        # and no first step fixes the index, since it ends no segment past 0
        starts = {DOWN: (DOWN, 0, DOWN, 0), LEFT: (LEFT, 1, LEFT, 0)}
        stack = [starts[LEFT], starts[DOWN]] if first is None else [starts[first]]
        while stack:
            steps, closed, run, index = stack.pop()
            i = len(steps)
            if i == n:
                count = closed + 1
                index = index or count
                key = (steps[0], index, count)
                cls = classes.get(key)
                if cls is None:
                    cls = classes[key] = _walk_class(steps, count, index)
                yield steps, cls
                continue
            for step in (LEFT, DOWN):  # pushed last, V is read first
                if step == run:
                    stack.append((steps + step, closed, run, index))
                else:
                    turned = closed + 1
                    found = index or (turned if holds[i] else 0)
                    if found % 2 and cut_odd:
                        continue
                    stack.append((steps + step, turned, step, found))


def enumerate_diagrams(n: int) -> Frame:
    """All ``2**n`` diagrams in frame ``n``, lexicographic with ``V`` before ``H``."""
    return Frame(n)


class Boundary(Record):
    """Run-length decomposition of a boundary walk into alternating segments.

    ``ends[i]`` is the boundary distance from the origin to the end of the
    ``i+1``-st segment, so segment ``t`` (1-based) starts at ``ends[t-2]``
    (at 0 when ``t`` is 1).  Odd segments are vertical, even ones horizontal,
    and only the first may have length zero.  ``lengths`` and ``segments``
    (the ``(step, length)`` pairs) are derived from the ends when read.
    """

    __slots__ = _fields = ("ends",)

    def __init__(self, ends: tuple[int, ...]):
        # the container only: `boundary` builds one per call, and a check of
        # each end would cost several times the construction
        if type(ends) is not tuple:
            raise DomainError(f"segment ends must be a tuple, got {ends!r:.60}")
        self._store(ends)

    @property
    def segment_count(self) -> int:
        return len(self.ends)

    @property
    def lengths(self) -> tuple[int, ...]:
        ends = self.ends
        return tuple(map(sub, ends, (0,) + ends))

    @property
    def segments(self) -> tuple[tuple[str, int], ...]:
        return tuple((LEFT if t % 2 else DOWN, length) for t, length in enumerate(self.lengths))

    def to_json(self) -> list:
        return [[step, length] for step, length in self.segments]


def boundary(diagram: ShiftedDiagram) -> Boundary:
    """The diagram's boundary walk, split at its segment ends."""
    return Boundary(diagram.ends)


class RowType(str, Enum):
    FULL_TOP_ROW = "FullTopRow"
    EMPTY_RIGHT_COLUMN = "EmptyRightColumn"


class DiagramClass(Record):
    """Classification data of a diagram.

    ``index_w`` is the least segment index ``t`` whose end passes
    `is_index_end`.  A diagram is almost even when the index equals the
    number of segments, and K-even when the index is even; `_walk_class` is
    the one place that rule is stated, for `classify` and `Frame.walks`.
    """

    __slots__ = _fields = ("index_w", "is_almost_even", "is_k_even", "row_type")

    def __init__(self, index_w: int, is_almost_even: bool, is_k_even: bool, row_type: RowType):
        if type(index_w) is not int or index_w < 1:
            raise DomainError(f"index_w must be an integer at least 1, got {index_w!r}")
        if type(is_almost_even) is not bool or type(is_k_even) is not bool:
            raise DomainError(
                f"is_almost_even and is_k_even must be bools, got {is_almost_even!r}"
                f" and {is_k_even!r}"
            )
        if type(row_type) is not RowType:
            raise DomainError(f"row_type must be a RowType, got {row_type!r}")
        self._store(index_w, is_almost_even, is_k_even, row_type)

    def to_json(self) -> dict:
        return {
            "index": self.index_w,
            "almost_even": self.is_almost_even,
            "k_even": self.is_k_even,
            "row_type": self.row_type.value,
        }


def is_index_end(end: int, n: int) -> bool:
    """Whether a segment ending at boundary distance ``end`` may hold the index.

    It may when ``end`` is nonzero and has the parity of the frame size
    ``n``.  The index of a diagram is the first segment whose end passes;
    the last segment ends at ``n`` itself, so one always does.
    """
    return end > 0 and end % 2 == n % 2


def _walk_class(steps: str, count: int, index: int) -> DiagramClass:
    """The class of a walk with these steps, segment count and index."""
    row = RowType.FULL_TOP_ROW if steps[0] == DOWN else RowType.EMPTY_RIGHT_COLUMN
    return DiagramClass(index, index == count, index % 2 == 0, row)


def classify(diagram: ShiftedDiagram) -> DiagramClass:
    """Compute the index and the derived class flags of a diagram (frame >= 1)."""
    n = diagram.n
    _require_frame_size(n, 1, "classification needs")
    ends = boundary(diagram).ends
    index = next(t for t, end in enumerate(ends, 1) if is_index_end(end, n))
    return _walk_class(diagram.steps, len(ends), index)


def delete_top_row(diagram: ShiftedDiagram) -> ShiftedDiagram:
    """Remove the full top row; defined only for row type FullTopRow."""
    if diagram.n == 0 or diagram.steps[0] != DOWN:
        raise DomainError("delete_top_row requires row type FullTopRow (first step V)")
    return ShiftedDiagram(diagram.n - 1, diagram.steps[1:])


def delete_right_column(diagram: ShiftedDiagram) -> ShiftedDiagram:
    """Remove the empty rightmost column; defined only for EmptyRightColumn."""
    if diagram.n == 0 or diagram.steps[0] != LEFT:
        raise DomainError(
            "delete_right_column requires row type EmptyRightColumn (first step H)"
        )
    return ShiftedDiagram(diagram.n - 1, diagram.steps[1:])


_LETTER_STEP = {"r": DOWN, "c": LEFT}


class ClassSets(Record):
    """The named diagram families of one frame.

    ``all_diagrams`` is the full family (U), ``almost_even`` the almost even
    diagrams (A), ``k_even`` the K-even ones (E), each in enumeration order.
    """

    __slots__ = _fields = ("n", "all_diagrams", "almost_even", "k_even")

    def family(self, name: str) -> tuple[ShiftedDiagram, ...]:
        try:
            return {
                "U": self.all_diagrams,
                "A": self.almost_even,
                "E": self.k_even,
            }[name]
        except KeyError:
            raise DomainError(f"unknown family {name!r}; expected U, A or E") from None

    def refine(self, name: str, letters: str = "") -> tuple[ShiftedDiagram, ...]:
        """Refinement of a family by its first boundary steps.

        Letter ``r`` asks for a down step (full row deleted first), ``c``
        for a left step.  Two letters constrain the first two steps; the
        frame must be at least as large as the number of letters.
        """
        if not isinstance(letters, str) or any(ch not in _LETTER_STEP for ch in letters):
            raise DomainError(f"refinement letters must be 'r' or 'c', got {letters!r}")
        if len(letters) > 2:
            raise DomainError("at most two refinement letters are supported")
        _require_frame_size(self.n, len(letters), f"{len(letters)}-letter refinements need")
        prefix = "".join(_LETTER_STEP[ch] for ch in letters)
        return tuple(d for d in self.family(name) if d.steps.startswith(prefix))


def class_sets(n: int) -> ClassSets:
    """Enumerate frame ``n`` and split it into the U/A/E families.

    Each walk's class (see `DiagramClass`) puts it in the families.
    """
    frame = enumerate_diagrams(n)
    if n == 0:
        # Degenerate base: the empty frame has one diagram, taken to lie in
        # every family so the recursion bases are bookkept uniformly.
        diagrams = tuple(frame)
        return ClassSets(0, diagrams, diagrams, diagrams)
    all_diagrams, almost_even, k_even = [], [], []
    for steps, cls in frame.walks():
        diagram = ShiftedDiagram(n, steps)
        all_diagrams.append(diagram)
        if cls.is_almost_even:
            almost_even.append(diagram)
        if cls.is_k_even:
            k_even.append(diagram)
    return ClassSets(n, tuple(all_diagrams), tuple(almost_even), tuple(k_even))
