"""The weight distribution of each diagram class, counted without enumeration.

Whether a diagram contributes a GW atom, a K atom or nothing depends only on
its class: its first step, whether it is almost even and whether it is
K-even.  A GW atom's shift is the diagram's weight.  So the atom multiset of
frame ``n`` is fixed by the weight distribution of each class, and those
distributions come out of one left-to-right pass over the ``n`` boundary
steps, a transfer-matrix recurrence over walks instead of a loop over the
``2**n`` diagrams.

The pass reads the index off the walk.  Segment ``t`` is vertical exactly
when ``t`` is odd (the zero-length leading segment keeps this true), so the
index's parity is the orientation of the run where it is found, and that
run is the first one ending at a step position of the frame's parity.  The
index is the last segment exactly when that run ends the walk.  The state
after each step is therefore the first step, the current step, and whether
the index has been found and, if so, whether it is even.

Each state packs its walks' weight polynomial into one integer, its value at
a power of two (Kronecker substitution), with one field per weight.  A V
step at position ``i`` adds ``n + 1 - i`` to each weight, a left shift by
that many fields, and a merge is one addition.  Fields are ``n // 8 + 1``
whole bytes: they hold any count below ``2**n``, and ``int.to_bytes`` splits
them.  The pass makes O(n) shifts and additions of O(n**3)-bit integers,
then unpacks O(n**2) coefficients.

The pass lives apart from `Frame.walks`, so that it stays an independent
oracle for the enumerated bases.  `basis._counted` folds its tables into the
atom multisets of both twists by `basis._summand_role`, the rule the
enumerated summands follow too.
"""

from __future__ import annotations

from .diagrams import DOWN, LEFT, _require_frame_size, is_index_end

# (first step, almost_even, k_even)
ClassKey = tuple[str, bool, bool]
State = tuple[str, str, bool | None]  # (first step, current step, k_even or None if unfound)


def class_weights(n: int) -> dict[ClassKey, list[int]]:
    """Weight distribution of every diagram class of frame ``n``.

    Maps ``(first step, almost_even, k_even)`` to a list whose entry ``w``
    counts the diagrams of that class with weight ``w``.  Classes with no
    diagram are absent.
    """
    _require_frame_size(n, 1, "classification needs")
    field = n // 8 + 1
    # a V step at position 1 adds n
    states: dict[State, int] = {(DOWN, DOWN, None): 1 << 8 * field * n, (LEFT, LEFT, None): 1}
    for i in range(2, n + 1):
        # A turn before position i ends a run at i - 1; the first such run
        # that passes is_index_end holds the index.
        index_here = is_index_end(i - 1, n)
        gain = 8 * field * (n + 1 - i)
        nxt: dict[State, int] = {}
        for (first, current, k_even), packed in states.items():
            for step in (DOWN, LEFT):
                found_here = k_even is None and index_here and step != current
                key = (first, step, current == LEFT if found_here else k_even)
                nxt[key] = nxt.get(key, 0) + (packed << gain if step == DOWN else packed)
        states = nxt
    tables: dict[ClassKey, int] = {}
    for (first, current, k_even), packed in states.items():
        # An index still unfound is the final run, which ends at position n.
        key = (first, k_even is None, current == LEFT if k_even is None else k_even)
        tables[key] = tables.get(key, 0) + packed
    states.clear()  # drop each packed int once read, so the lists never sit beside them all
    size = (n * (n + 1) // 2 + 1) * field
    cuts = range(0, size, field)
    unpacked: dict[ClassKey, list[int]] = {}
    for key in list(tables):
        raw = tables.pop(key).to_bytes(size, "little")
        unpacked[key] = [int.from_bytes(raw[at : at + field], "little") for at in cuts]
    return unpacked
