"""Atom multisets of the Hermitian decompositions, counted without enumeration.

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
the index has been found and, if so, whether it is even; each state carries
the weights of its walks as an array of polynomial coefficients.  The pass
costs O(n**3).
"""

from __future__ import annotations

from collections import Counter

from . import basis  # imports this module back, so its names are read at call time
from .diagrams import DOWN, LEFT, _require_frame_size, is_index_end
from .picard import Twist, _member

# (first step, almost_even, k_even)
ClassKey = tuple[str, bool, bool]


def _add_into(table: dict, key, coeffs: list[int]) -> None:
    held = table.get(key)
    if held is None:
        table[key] = coeffs
    else:
        table[key] = [a + b for a, b in zip(held, coeffs)]


def class_weights(n: int) -> dict[ClassKey, list[int]]:
    """Weight distribution of every diagram class of frame ``n``.

    Maps ``(first step, almost_even, k_even)`` to a list whose entry ``w``
    counts the diagrams of that class with weight ``w``.  Classes with no
    diagram are absent.
    """
    _require_frame_size(n, 1, "classification needs")
    size = n * (n + 1) // 2 + 1
    # (first step, current step, None while the index is unfound, else k_even)
    states: dict[tuple[str, str, bool | None], list[int]] = {}
    for step in (DOWN, LEFT):
        coeffs = [0] * size
        coeffs[n if step == DOWN else 0] = 1  # a V step at position 1 adds n
        states[(step, step, None)] = coeffs
    for i in range(2, n + 1):
        # A turn before position i ends a run at i - 1; the first such run
        # that passes is_index_end holds the index.
        index_here = is_index_end(i - 1, n)
        gain = n + 1 - i
        nxt: dict[tuple[str, str, bool | None], list[int]] = {}
        for (first, current, k_even), coeffs in states.items():
            for step in (DOWN, LEFT):
                found = k_even
                if found is None and index_here and step != current:
                    found = current == LEFT
                moved = [0] * gain + coeffs[:-gain] if step == DOWN else coeffs
                _add_into(nxt, (first, step, found), moved)
        states = nxt
    tables: dict[ClassKey, list[int]] = {}
    for (first, current, k_even), coeffs in states.items():
        # An index still unfound is the final run, which ends at position n.
        key = (first, k_even is None, current == LEFT if k_even is None else k_even)
        _add_into(tables, key, coeffs)
    return tables


def gw_atoms(n: int, twist: Twist) -> Counter:
    """The atom multiset of ``gw_basis(n, twist)``, counted per class."""
    _require_frame_size(n, 1, "the Hermitian decomposition needs")
    twist = _member(Twist, twist)
    return _atoms(n, (twist,))[twist]


def _atoms(n: int, twists) -> dict[Twist, Counter]:
    """The atom multiset of frame ``n`` under each of ``twists``, from one `class_weights` run."""
    tables = class_weights(n)
    by_twist: dict[Twist, Counter] = {}
    for twist in twists:
        atoms = by_twist[twist] = Counter()
        for (first, almost_even, k_even), coeffs in tables.items():
            role = basis._summand_role(n % 2 == 0, twist, first == DOWN, almost_even, k_even)
            if role is None:
                continue
            if role[0] is basis.Kind.K:
                atoms[("K", None)] += sum(coeffs)
            else:
                for shift, count in enumerate(coeffs):
                    if count:
                        atoms[("GW", shift)] += count
    return by_twist
