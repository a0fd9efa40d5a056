"""Exponent-vector arithmetic, canonical sheaves, parity and the case tables."""

import copy
import pickle
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
    enumerate_diagrams,
    lambda_pair,
    lf_a,
    lf_b,
    lf_ktheory,
    mod2_reduce,
    nabla,
    twist_alignment,
    verify,
)
from lagflag.picard import _Generators
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
    assert type(n - n) is int
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
        lambda: Affine(0, 5),
        lambda: Affine(0, 0),
        lambda: n + True,
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
        "constant-affine",
        "zero-affine",
        "bool-affine-operand",
    ],
)
def test_pic_element_rejects_malformed_input(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Generator("Delta", True), "Delta needs an integer index at least 0, got True"),
        (lambda: delta(True), "Delta needs an integer index at least 0, got True"),
        (lambda: nabla(-1), "Nabla needs an integer index at least 0, got -1"),
        (lambda: det_v(2.0), "DetV needs an integer index at least 0, got 2.0"),
        (lambda: Generator("E1", 3), "E1 takes no index, got 3"),
        (lambda: Generator("X"), "unknown generator kind 'X'"),
        (
            lambda: delta(1)._replace(index=True),
            "Delta needs an integer index at least 0, got True",
        ),
        (
            lambda: Generator._make(("Delta", True)),
            "Delta needs an integer index at least 0, got True",
        ),
        (
            lambda: PicElement({("Delta", 0): 1}),
            "line bundle keys must be generators, got ('Delta', 0)",
        ),
        (
            lambda: PicElement({delta(1): 3}).exponent("junk"),
            "line bundle keys must be generators, got 'junk'",
        ),
    ],
    ids=[
        "bool-index",
        "bool-constructor",
        "negative-constructor",
        "float-constructor",
        "indexed-E1",
        "unknown-kind",
        "replace",
        "make",
        "tuple-key",
        "exponent-of-a-non-generator",
    ],
)
def test_generators_are_checked_when_built(build, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build()


def test_generator_constructors_keep_bools_apart():
    for make, kind in ((delta, "Delta"), (nabla, "Nabla"), (det_v, "DetV")):
        assert make(1) is make(1) and tuple(make(1)) == (kind, 1)
        with pytest.raises(DomainError):
            make(True)
    assert delta(1)._replace(index=2) == delta(2)


def test_generators_survive_copy_and_pickle():
    # both rebuild through the checked constructor
    for gen in (delta(3), nabla(0), det_v(2), E1):
        for twin in (copy.copy(gen), copy.deepcopy(gen), pickle.loads(pickle.dumps(gen))):
            assert type(twin) is Generator and twin == gen


def test_generator_tables_store_only_int_indices():
    table = _Generators("Delta")
    for index in (True, -1, 2.0, "2"):
        with pytest.raises(DomainError):
            table[index]
    assert not table
    assert table[2] is table[2] and list(table) == [2]


# --------------------------------------------------------------------------
# canonical sheaves


def _constructed_schemes(diagram):
    """`lf_ktheory`, then `lf_a` and (first step ``H``) `lf_b` at each cutoff."""
    yield lf_ktheory(diagram)
    cutoffs = range(boundary(diagram).segment_count + 1)
    for w in cutoffs:
        yield lf_a(diagram, w)
    if diagram.steps[0] == "H" and diagram.n > 1:  # lf_b of 'H' has k = 0
        for w in cutoffs:
            yield lf_b(diagram, w)


@pytest.mark.parametrize("frame", range(1, 11))
def test_canonical_sheaves_hold_the_constructors_generators(frame):
    make = {"Delta": delta, "Nabla": nabla, "DetV": det_v}
    for diagram in enumerate_diagrams(frame):
        for desc in _constructed_schemes(diagram):
            for gen, _ in canonical_sheaf(desc).items():
                assert gen is make[gen.kind](gen.index)


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


def _loop_mod2_reduce(elt: PicElement, desc: FlagDescriptor) -> ParityClass:
    """`mod2_reduce` as a loop over `PicElement.items` that tests ``isinstance(exp, Affine)``.

    `mod2_reduce` must return the same class, or raise the same `DomainError`
    with the same message.
    """
    half_rank, d, e, t = desc.half_rank, desc.d, desc.e, desc.t
    k = len(e)
    odd: set[Generator] = set()
    for gen, exp in elt.items():
        if isinstance(exp, Affine):
            raise DomainError("parity is undefined for symbolic exponents; fix a half rank")
        kind, index = gen
        if kind == "DetV":
            continue
        if kind == "Delta":
            if index > k:  # indices are ints >= 0 (see `_gen_key`)
                raise DomainError(f"generator {gen} is out of range for {desc}")
            if d[index] == half_rank:
                continue
        elif kind == "Nabla":
            if index >= k:
                raise DomainError(f"generator {gen} is out of range for {desc}")
            if e[index] == half_rank - t[index]:
                continue
        if exp % 2 == 1:
            odd.add(gen)
    return ParityClass(frozenset(odd))


def _every_generator(desc: FlagDescriptor) -> PicElement:
    """Each in-range generator of ``desc``, with exponents of both parities and signs."""
    k = len(desc.e)
    items = [(delta(j), (-1) ** j * (j + 1)) for j in range(k + 1)]
    items += [(nabla(i), (-1) ** i * (i + 2)) for i in range(k)]
    items += [(det_v(m), 1) for m in set(desc.d)]
    return PicElement([*items, (AMBIENT_DELTA, 1), (E1, -1), (E2, 2)])


def _assert_mod2_reduce_matches_the_loop(desc):
    for elt in (canonical_sheaf(desc), _every_generator(desc)):
        assert mod2_reduce(elt, desc) == _loop_mod2_reduce(elt, desc)


@pytest.mark.parametrize("frame", range(1, 11))
def test_mod2_reduce_matches_the_loop_on_constructed_schemes(frame):
    for diagram in enumerate_diagrams(frame):
        for desc in _constructed_schemes(diagram):
            _assert_mod2_reduce_matches_the_loop(desc)


@given(st.integers(9, 40).flatmap(lambda size: st.text("VH", min_size=size, max_size=size)))
def test_mod2_reduce_matches_the_loop_beyond_the_enumeration_bound(steps):
    for desc in _constructed_schemes(ShiftedDiagram(len(steps), steps)):
        _assert_mod2_reduce_matches_the_loop(desc)


def test_mod2_reduce_rejects_bad_input():
    desc = FlagDescriptor(3, (1, 2), (0,), (1,))  # k = 1
    bad = [
        {delta(5): 1},
        {delta(0): n},
        # an out-of-range index raises whatever the exponent's parity
        {delta(3): 2},
        {delta(2): -4},
        {delta(0): 1, delta(3): 2},
        {nabla(1): 1},
        {nabla(1): 2},
        {nabla(4): -2},
        {nabla(0): n - 1},
    ]
    for exponents in bad:
        elt = PicElement(exponents)
        with pytest.raises(DomainError) as expected:
            _loop_mod2_reduce(elt, desc)
        with pytest.raises(DomainError, match=f"^{re.escape(str(expected.value))}$"):
            mod2_reduce(elt, desc)


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
