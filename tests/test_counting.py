"""The counting engine against enumeration and against the closed form."""

from collections import Counter

import pytest

from lagflag import DomainError, Kind, Twist, atom_multiset, gw_basis, verify_recursions, witt_table
from lagflag.counting import class_weights, gw_atoms
from lagflag.verify import _genfunc_coefficients


def _witt_by_enumeration(decomp):
    degrees = Counter(s.shift % 4 for s in decomp.summands if s.kind is Kind.GW)
    k_count = sum(1 for s in decomp.summands if s.kind is Kind.K)
    return tuple(sorted(degrees.items())), k_count


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("twist", list(Twist))
def test_counting_matches_enumeration(n, twist):
    decomp = gw_basis(n, twist)
    assert gw_atoms(n, twist) == atom_multiset(decomp)
    table = witt_table(n, twist)
    assert (table.degrees, table.k_count) == _witt_by_enumeration(decomp)


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
