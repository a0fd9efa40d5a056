"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria 1, 2 and 4 to 7 run the suites of `lagflag.verify`, the
checks behind ``lagflag verify``, over the frame ranges they state.
Everything here is exact integer combinatorics and completes in seconds.
"""

import random
from collections import Counter
from math import comb

import pytest

from lagflag import (
    AMBIENT_DELTA,
    E1,
    E2,
    FlagDescriptor,
    PicElement,
    ShiftedDiagram,
    Twist,
    atom_multiset,
    canonical_sheaf,
    class_sets,
    component_count,
    delta,
    det_v,
    gw_basis,
    is_gorenstein,
    is_regular,
    lf_b,
    lf_ktheory,
    mod2_reduce,
    nabla,
    relative_dimension,
    scheme_alignment,
    validate,
)
from lagflag import verify
from lagflag.errors import DescriptorError
from lagflag.cli import main as cli_main

SUITE = dict(verify.SUITES)


def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def test_criterion_1_canonical_sheaf_goldens():
    assert SUITE["canonical-goldens"](3) == (True, "")
    _report(1, "canonical-sheaf exponent vectors match exactly as functions of n")


def test_criterion_2_dimension_formula():
    for frame in range(0, 21):
        assert relative_dimension(FlagDescriptor(frame, (0,), (), ())) == comb(frame + 1, 2)
    assert SUITE["descriptor-dimensions"](8) == (True, "")
    _report(2, "dimension formula exact for k=0 (n<=20) and all 2^n diagrams (n<=8)")


def test_criterion_3_q3_example():
    hh = ShiftedDiagram(2, "HH")
    assert lf_ktheory(hh) == FlagDescriptor(2, (0, 1), (0,), (1,))

    scheme = lf_b(hh, 2)
    assert scheme == FlagDescriptor(3, (1, 2), (0,), (1,))
    assert is_gorenstein(scheme)
    assert not is_regular(scheme)
    assert component_count(scheme) == 2
    # relative dimension over the ambient Grassmannian of frame 2 is zero
    assert relative_dimension(scheme) - comb(3, 2) == 0
    parity = mod2_reduce(canonical_sheaf(scheme), scheme)
    assert parity.generators == frozenset({delta(0)})

    result = scheme_alignment(hh, scheme)
    assert result.ok and result.parity.generators == frozenset({delta(0)})
    _report(3, "frame-2 single-row scheme: Gorenstein, 2 components, defect 0, parity Delta(0)")


def test_criterion_4_twist_alignment():
    assert SUITE["twist-alignment"](8) == (True, "")
    _report(4, "twist alignment holds for every almost-even diagram, frames 1..8")


def test_criterion_5_recursion_identities():
    assert SUITE["recursions"](10) == (True, "")
    assert len(class_sets(3).k_even) == 4
    assert atom_multiset(gw_basis(2, Twist.DELTA)) == Counter(
        {("K", None): 1, ("GW", 2): 1, ("GW", 3): 1}
    )
    assert atom_multiset(gw_basis(2, Twist.TRIVIAL)) == Counter(
        {("K", None): 1, ("GW", 0): 1, ("GW", 1): 1}
    )
    _report(5, "recursion identities pass for frames 2..10, both parities and twists")


def test_criterion_6_counting_and_bijections():
    assert SUITE["counting"](16) == (True, "")
    assert SUITE["deletion-bijections"](12) == (True, "")
    _report(6, "2^n counting and generating function (n<=16); deletion bijections (n<=12)")


def test_criterion_7_connecting_classifier():
    assert SUITE["connecting-case-table"](10) == (True, "")
    _report(7, "connecting-homomorphism case table reproduced for frames 2..10")


def test_criterion_8_property_suites(capsys):
    # free abelian group laws on 10^4 pseudo-random elements: the group sum is
    # the constructor's, which adds up the exponents given for one generator
    rng = random.Random(20250811)
    gens = [delta(0), delta(1), nabla(0), det_v(1), det_v(3), AMBIENT_DELTA, E1, E2]

    def random_element():
        support = rng.sample(gens, rng.randint(0, len(gens)))
        return PicElement({g: rng.randint(-100, 100) for g in support})

    def plus(*elements):
        return PicElement([item for elt in elements for item in elt.items()])

    for _ in range(10_000):
        a, b, c = random_element(), random_element(), random_element()
        assert plus(a, b) == plus(b, a)
        assert plus(plus(a, b), c) == plus(a, plus(b, c))
        assert plus(a, PicElement([(g, -exp) for g, exp in a.items()])) == PicElement.zero()

    # each single-constraint violation is rejected when the descriptor is built
    violating = {
        "d_leq_half_rank": ((1, 6), (1,), (1,)),
        "d_nondecreasing": ((3, 1), (1,), (1,)),
        "t_positive": ((1, 3), (1,), (0,)),
        "e_nonnegative": ((1, 3), (-1,), (1,)),
        "e_leq_d_i": ((1, 3), (2,), (1,)),
        "e_leq_d_next": ((3, 1), (2,), (1,)),
        "e_leq_half_rank_minus_t": ((1, 5), (1,), (5,)),
    }
    assert validate(FlagDescriptor(5, (1, 3), (1,), (1,))) == []
    for constraint, (d, e, t) in violating.items():
        with pytest.raises(DescriptorError) as rejected:
            FlagDescriptor(5, d, e, t)
        assert constraint in {v.constraint for v in rejected.value.violations}, constraint

    # CLI output is byte-identical across two runs
    for argv in (
        ["basis", "-n", "3", "--twist", "O", "--format", "json"],
        ["enumerate", "-n", "4", "--format", "csv"],
        ["canonical", "--d", "0,2", "--e", "0", "--t", "2", "--half-rank", "N"],
    ):
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
    _report(8, "group laws (10^4 elements), constraint rejection, byte-identical CLI output")
