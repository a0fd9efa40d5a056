"""The counting engine against enumeration and against the closed form."""

from collections import Counter
from itertools import accumulate, groupby

import pytest

from lagflag import (
    DomainError,
    Kind,
    Twist,
    atom_multiset,
    enumerate_diagrams,
    gw_basis,
    verify_recursions,
    witt_table,
)
from lagflag.basis import gw_atoms, walk_atoms
from lagflag.counting import class_weights
from lagflag.verify import _genfunc_coefficients


def _witt_by_enumeration(decomp):
    degrees = Counter(s.shift % 4 for s in decomp.summands if s.kind is Kind.GW)
    k_count = sum(1 for s in decomp.summands if s.kind is Kind.K)
    return tuple(sorted(degrees.items())), k_count


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("twist", list(Twist))
def test_counting_matches_enumeration(n, twist):
    decomp = gw_basis(n, twist)
    assert gw_atoms(n, twist) == atom_multiset(decomp) == walk_atoms(n, twist)
    table = witt_table(n, twist)
    assert (table.degrees, table.k_count) == _witt_by_enumeration(decomp)


def _scanned_class(steps: str) -> tuple[str, bool, bool]:
    """(first step, almost even, K-even) of a walk, from its run ends.

    The index is the first run, after an empty one when the walk opens with
    H, that ends at a nonzero position of the frame size's parity.
    """
    n = len(steps)
    runs = ([0] if steps[0] == "H" else []) + [len(list(run)) for _, run in groupby(steps)]
    ends = list(accumulate(runs))
    index = next(t for t, end in enumerate(ends, 1) if end and end % 2 == n % 2)
    return steps[0], index == len(ends), index % 2 == 0


@pytest.mark.parametrize("n", range(1, 15))
def test_class_weights_match_each_enumerated_class(n):
    # the class (first, False, False) yields no atom under either twist, so
    # only a per-class table sees it
    expected: dict = {}
    for d in enumerate_diagrams(n):
        histogram = expected.setdefault(_scanned_class(d.steps), [0] * (n * (n + 1) // 2 + 1))
        histogram[d.weight] += 1
    assert class_weights(n) == expected


def test_class_tables_sum_to_generating_function():
    for n in range(1, 41):
        total = [0] * (n * (n + 1) // 2 + 1)
        for coeffs in class_weights(n).values():
            total = [a + b for a, b in zip(total, coeffs)]
        assert total == _genfunc_coefficients(n), n


@pytest.mark.parametrize("n", range(17, 25))
def test_recursions_beyond_the_enumeration_bound(n):
    assert verify_recursions(n).passed


@pytest.mark.parametrize("n", [0, -1])
def test_gw_atoms_rejects_empty_frame(n):
    with pytest.raises(DomainError):
        gw_atoms(n, Twist.TRIVIAL)


@pytest.mark.parametrize(
    "entry",
    [lambda n: gw_atoms(n, Twist.TRIVIAL), class_weights],
    ids=["gw_atoms", "class_weights"],
)
def test_frame_size_must_be_a_plain_int(entry):
    # a bool is an int to a range check, so only a type check rejects True
    for n in (True, False, 3.0, "3"):
        with pytest.raises(DomainError, match=f"frame size n must be an integer, got {n!r}"):
            entry(n)
