"""Exponent-vector arithmetic, canonical sheaves, parity and the case tables."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lagflag import (
    AMBIENT_DELTA,
    E1,
    E2,
    Affine,
    ConnectingCase,
    DomainError,
    FlagDescriptor,
    Generator,
    ParityClass,
    PicElement,
    SYMBOLIC_N,
    ShiftedDiagram,
    Twist,
    TwistVariant,
    UnsupportedError,
    affine,
    blowup_pullback,
    boundary,
    canonical_exponents,
    canonical_sheaf,
    canonical_sheaf_in_n,
    classify_connecting,
    delta,
    det_v,
    lambda_pair,
    lf_a,
    lf_b,
    lf_ktheory,
    mod2_reduce,
    nabla,
    twist_alignment,
    verify,
)
from gorenstein_descriptors import _gorenstein_descriptors

n = SYMBOLIC_N
SUITE = dict(verify.SUITES)


# --------------------------------------------------------------------------
# affine exponents


def test_affine_arithmetic():
    assert n + 1 == Affine(1, 1)
    assert 2 + Affine(2, -3) == Affine(2, -1)
    assert 1 - n == Affine(-1, 1)
    assert Affine(2, 0) - 3 == Affine(2, -3)
    assert (n - 1) - (n - 1) == 0
    assert affine(0, 5) == 5


def test_affine_rendering():
    assert str(n) == "n"
    assert str(n - 1) == "n-1"
    assert str(1 - n) == "1-n"
    assert str(Affine(-1, 0)) == "-n"
    assert str(Affine(2, 3)) == "2n+3"
    assert str(Affine(-2, 0)) == "-2n"
    assert (n - 1).to_json() == [1, -1]


# --------------------------------------------------------------------------
# exponent vectors


def test_pic_element_basics():
    a = PicElement({delta(0): 1, nabla(0): 2})
    b = PicElement({delta(0): -1, det_v(1): 3})
    # construction adds up the exponents of one generator and drops zeros
    both = PicElement([*a.items(), *b.items()])
    assert both.exponent(delta(0)) == 0
    assert both.exponent(det_v(1)) == 3
    assert both.items() == ((nabla(0), 2), (det_v(1), 3))
    assert PicElement({delta(0): 0}).is_zero


def test_pic_element_json():
    elt = PicElement({delta(0): 1, nabla(0): n - 1, det_v(2): -2, E1: 1})
    assert elt.to_json() == {
        "Delta": {"0": 1},
        "Nabla": {"0": [1, -1]},
        "DetV": {"2": -2},
        "AmbientDelta": 0,
        "E1": 1,
        "E2": 0,
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: PicElement({delta(0): 1.5}),
        lambda: PicElement({delta(0): True}),
        lambda: PicElement({delta(0): "1"}),
        lambda: PicElement({Generator("E1", 3): 1}),
        lambda: PicElement({Generator("Delta"): 1}),
        lambda: PicElement({Generator("Delta", "x"): 1, delta(0): 1}),
        lambda: PicElement({Generator("Nabla", True): 1}),
        lambda: PicElement({Generator("DetV", -1): 1}),
        lambda: PicElement([(Generator("Delta", 2.0), 1), (Generator("Delta", 2.0), -1)]),
        lambda: Affine(1.5, 0),
        lambda: Affine(1, True),
    ],
    ids=[
        "float-exponent",
        "bool-exponent",
        "str-exponent",
        "indexed-E1",
        "unindexed-Delta",
        "str-index",
        "bool-index",
        "negative-index",
        "float-index-summing-to-zero",
        "float-affine-coefficient",
        "bool-affine-constant",
    ],
)
def test_pic_element_rejects_malformed_input(build):
    with pytest.raises(DomainError):
        build()


# --------------------------------------------------------------------------
# canonical sheaves


def test_canonical_sheaf_goldens():
    assert SUITE["canonical-goldens"](3) == (True, "")


@pytest.mark.parametrize("half_rank,d", [(4, 0), (4, 2), (7, 3)])
def test_canonical_sheaf_k0(half_rank, d):
    elt = canonical_sheaf(FlagDescriptor(half_rank, (d,), (), ()))
    assert elt == PicElement({delta(0): half_rank - d + 1, det_v(d): d - half_rank - 1})


def test_canonical_sheaf_matches_symbolic_evaluation():
    desc = FlagDescriptor(6, (1, 2), (0,), (1,))
    sym = canonical_sheaf_in_n(desc.d, desc.e, desc.t)
    conc = canonical_sheaf(desc)
    for gen, exp in sym.items():
        value = exp.n_coeff * 6 + exp.const if isinstance(exp, Affine) else exp
        assert conc.exponent(gen) == value


def _docstring_formula(d, e, t, half_rank) -> PicElement:
    """The module docstring's formula, summed in a plain dict and normalised."""
    acc = {}

    def add(kind, index, exp):
        gen = Generator(kind, index)
        acc[gen] = acc.get(gen, 0) + exp

    k = len(e)
    add("Delta", k, half_rank - d[k] + 1)
    add("DetV", d[k], d[k] - half_rank - 1)
    for i in range(k):
        add("Delta", i, t[i] + e[i] + 1 - d[i])
        add("Delta", i + 1, t[i] + e[i] - half_rank)
        add("Nabla", i, half_rank + d[i] - 2 * e[i] - t[i] - 1)
        add("DetV", d[i], -t[i])
    return PicElement(acc)


def _assert_matches_docstring_formula(desc):
    for half_rank in (desc.half_rank, n):
        items = canonical_exponents(desc.d, desc.e, desc.t, half_rank).items()
        assert items == _docstring_formula(desc.d, desc.e, desc.t, half_rank).items()
        assert PicElement._from_sorted(items) == PicElement(items)


def test_canonical_exponents_match_the_docstring_formula():
    for n in range(1, 7):
        for desc in _gorenstein_descriptors(n):
            _assert_matches_docstring_formula(desc)


@given(
    st.integers(9, 40).flatmap(lambda size: st.text("VH", min_size=size, max_size=size)),
    st.integers(0, 40),
)
def test_canonical_exponents_of_constructed_schemes_match_the_docstring_formula(steps, w):
    diagram = ShiftedDiagram(len(steps), steps)
    w = min(w, boundary(diagram).segment_count)
    descs = [lf_ktheory(diagram), lf_a(diagram, w)]
    if steps[0] == "H":
        descs.append(lf_b(diagram, w))
    for desc in descs:
        _assert_matches_docstring_formula(desc)


@pytest.mark.parametrize(
    "d,e,t,message",
    [
        (5, (), (), "d, e and t must be sequences of integers"),
        ((1, 2), (0,), None, "d, e and t must be sequences of integers"),
        ((1, "2"), (0,), (1,), "descriptor values must be integers, got '2'"),
    ],
)
def test_canonical_sheaf_in_n_rejects_parts_that_are_not_integer_sequences(d, e, t, message):
    with pytest.raises(DomainError, match=message):
        canonical_sheaf_in_n(d, e, t)


def test_canonical_sheaf_requires_gorenstein():
    with pytest.raises(UnsupportedError):
        canonical_sheaf(FlagDescriptor(4, (2, 3), (0,), (1,)))
    with pytest.raises(UnsupportedError):
        canonical_sheaf_in_n((2, 3), (0,), (1,))


# --------------------------------------------------------------------------
# parity


def test_mod2_reduce_examples():
    # two-stratum scheme at even half rank: Delta(0) and Nabla(0) survive
    even = FlagDescriptor(6, (1, 2), (0,), (1,))
    parity = mod2_reduce(canonical_sheaf(even), even)
    assert parity.generators == frozenset({delta(0), nabla(0)})

    odd = FlagDescriptor(5, (1, 2), (0,), (1,))
    parity = mod2_reduce(canonical_sheaf(odd), odd)
    assert parity.generators == frozenset({delta(0)})

    assert mod2_reduce(PicElement({delta(0): 2, nabla(0): -4}), even).is_zero

    # a pinched Lagrangian stratum is base trivial
    pinched = FlagDescriptor(3, (3,), (), ())
    assert mod2_reduce(PicElement({delta(0): 1}), pinched).is_zero
    free = FlagDescriptor(3, (2,), (), ())
    assert not mod2_reduce(PicElement({delta(0): 1}), free).is_zero


def test_mod2_reduce_deletes_pinched_nabla():
    desc = FlagDescriptor(3, (2, 3), (2,), (1,))  # e_0 = half_rank - t_0
    assert mod2_reduce(PicElement({nabla(0): 1}), desc).is_zero


def test_mod2_reduce_rejects_bad_input():
    desc = FlagDescriptor(3, (1, 2), (0,), (1,))
    with pytest.raises(DomainError):
        mod2_reduce(PicElement({delta(5): 1}), desc)
    with pytest.raises(DomainError):
        mod2_reduce(PicElement({delta(0): n}), desc)


# --------------------------------------------------------------------------
# twist alignment


def test_twist_alignment_examples():
    result = twist_alignment(ShiftedDiagram(2, "HH"), TwistVariant.XI0, 2)
    assert result.ok
    assert result.parity.generators == frozenset({delta(0)})
    assert result.scheme == FlagDescriptor(3, (1, 2), (0,), (1,))

    result = twist_alignment(ShiftedDiagram(2, "VH"), TwistVariant.XI1, 2)
    assert result.ok and result.parity.is_zero

    result = twist_alignment(ShiftedDiagram(3, "HHV"), TwistVariant.XI0, 3)
    assert result.ok and result.parity.is_zero


def test_twist_alignment_case_mismatch():
    with pytest.raises(DomainError):
        twist_alignment(ShiftedDiagram(2, "VH"), TwistVariant.XI0, 2)
    with pytest.raises(DomainError):
        twist_alignment(ShiftedDiagram(2, "HH"), TwistVariant.XI1, 2)
    with pytest.raises(DomainError):
        twist_alignment(ShiftedDiagram(3, "HHV"), TwistVariant.XI1, 3)
    with pytest.raises(DomainError):  # not almost even
        twist_alignment(ShiftedDiagram(3, "VHV"), TwistVariant.XI0, 3)
    with pytest.raises(DomainError):  # wrong frame
        twist_alignment(ShiftedDiagram(2, "HH"), TwistVariant.XI0, 3)


def test_twist_alignment_coerces_the_variant_and_checks_the_frame():
    diagram = ShiftedDiagram(2, "HH")
    assert twist_alignment(diagram, "Xi0", 2) == twist_alignment(diagram, TwistVariant.XI0, 2)
    with pytest.raises(DomainError, match="uses variant Xi0, not Xi1"):
        twist_alignment(diagram, "Xi1", 2)
    with pytest.raises(DomainError, match="^TwistVariant must be 'Xi0' or 'Xi1', got 'Xi2'$"):
        twist_alignment(diagram, "Xi2", 2)
    with pytest.raises(DomainError, match="^frame size n must be an integer, got 2.0$"):
        twist_alignment(diagram, TwistVariant.XI0, 2.0)


@pytest.mark.parametrize("frame", range(1, 8))
def test_twist_alignment_holds_for_all_almost_even(frame):
    assert SUITE["twist-alignment"](frame) == (True, "")


# --------------------------------------------------------------------------
# blow-up data


def test_lambda_pair():
    assert lambda_pair(Twist.TRIVIAL) == (0, 0)
    assert lambda_pair(Twist.DELTA) == (1, 1)
    pulled = blowup_pullback(Twist.DELTA)
    assert pulled.exponent(E1) == 1 and pulled.exponent(E2) == 1
    assert pulled.exponent(AMBIENT_DELTA) == 1
    assert blowup_pullback(Twist.TRIVIAL).is_zero


def test_classify_connecting_examples():
    assert classify_connecting(4, 2, 1, 1) is ConnectingCase.SPLIT_CASE_I
    assert classify_connecting(4, 2, 0, 0) is ConnectingCase.NEEDS_PADDING
    assert classify_connecting(3, 2, 0, 0) is ConnectingCase.ETA_CASE_II
    assert classify_connecting(3, 2, 1, 1) is ConnectingCase.ETA_CASE_III
    with pytest.raises(DomainError):
        classify_connecting(1, 2, 0, 0)


@pytest.mark.parametrize("lam1,lam2", [(0, 5), (2, 1), (-1, 0), (1, -2)])
def test_classify_connecting_rejects_parities_outside_0_and_1(lam1, lam2):
    with pytest.raises(DomainError, match=f"lam1, lam2 must be 0 or 1, got {lam1}, {lam2}"):
        classify_connecting(3, 2, lam1, lam2)


@pytest.mark.parametrize(
    "args", [(3.0, 2, 0, 0), (3, 2.0, 0, 0), ("3", 2, 0, 0), (3, 2, True, 0), (3, 2, 0, False)]
)
def test_classify_connecting_rejects_non_integers(args):
    bad = next(value for value in args if type(value) is not int)
    with pytest.raises(DomainError, match=re.escape(f"must be integers, got {bad!r}")):
        classify_connecting(*args)


@pytest.mark.parametrize("frame", range(2, 11))
def test_connecting_case_table(frame):
    assert SUITE["connecting-case-table"](frame) == (True, "")


def test_parity_class_rendering():
    assert str(ParityClass.zero()) == "0"
    cls = ParityClass(frozenset({delta(0), nabla(0)}))
    assert str(cls) == "Delta(0) + Nabla(0)"
