"""Basis decompositions, recursion identities and geometry aggregation."""

import re
from collections import Counter
from itertools import product
from types import ModuleType

import pytest

from lagflag import (
    Decomposition,
    DomainError,
    FlagDescriptor,
    Kind,
    MapLabel,
    ShiftedDiagram,
    Summand,
    Twist,
    WittTable,
    atom_multiset,
    basis,
    blowup_pullback,
    class_sets,
    diagrams,
    gw_basis,
    gw_summands,
    k_basis,
    k_summands,
    lambda_pair,
    lf_ktheory,
    verify_geometry,
    verify_recursions,
    witt_table,
)


def atoms(decomp):
    return atom_multiset(decomp)


# --------------------------------------------------------------------------
# K-theory basis


def test_k_basis_n1():
    decomp = k_basis(1)
    schemes = [s.scheme for s in decomp.summands]
    assert schemes == [
        FlagDescriptor(1, (1,), (), ()),  # point embedding
        FlagDescriptor(1, (0,), (), ()),  # the full projective line
    ]
    assert all(s.map_label is MapLabel.PHI for s in decomp.summands)


def test_k_basis_n2_contains_blowup_model():
    decomp = k_basis(2)
    by_steps = {s.source_diagram.steps: s.scheme for s in decomp.summands}
    assert by_steps["HH"] == FlagDescriptor(2, (0, 1), (0,), (1,))
    assert len(decomp.summands) == 4


def test_k_basis_n0():
    decomp = k_basis(0)
    assert len(decomp.summands) == 1
    assert decomp.summands[0].scheme == FlagDescriptor(0, (0,), (), ())


@pytest.mark.parametrize("n", range(0, 13))
def test_k_basis_cardinality(n):
    assert len(k_basis(n).summands) == 2**n


@pytest.mark.parametrize("n", range(1, 11))
def test_the_k_basis_reads_no_walk(monkeypatch, n):
    # a K scheme is read off the steps, so no summand's diagram holds segment
    # ends and no walk's class is looked up
    classes = []
    real = diagrams._walk_class

    def counted(*args):
        classes.append(args)
        return real(*args)

    monkeypatch.setattr(diagrams, "_walk_class", counted)
    summands = list(k_summands(n))
    assert len(summands) == 2**n
    assert [s for s in summands if "ends" in vars(s.source_diagram)] == []
    assert classes == []


# --------------------------------------------------------------------------
# Hermitian basis


def test_gw_basis_n2_delta():
    decomp = gw_basis(2, Twist.DELTA)
    assert atoms(decomp) == Counter({("K", None): 1, ("GW", 2): 1, ("GW", 3): 1})
    k_atom = next(s for s in decomp.summands if s.kind is Kind.K)
    assert k_atom.source_diagram.steps == "HH"
    assert k_atom.map_label is MapLabel.MU1
    gw_maps = {s.source_diagram.steps: s.map_label for s in decomp.summands if s.kind is Kind.GW}
    assert gw_maps == {"VV": MapLabel.XI1, "VH": MapLabel.XI1}


def test_gw_basis_n2_trivial():
    decomp = gw_basis(2, Twist.TRIVIAL)
    assert atoms(decomp) == Counter({("K", None): 1, ("GW", 0): 1, ("GW", 1): 1})
    gw_atoms = [s for s in decomp.summands if s.kind is Kind.GW]
    assert {s.source_diagram.steps for s in gw_atoms} == {"HH", "HV"}
    assert all(s.base_twist == 1 for s in gw_atoms)
    assert all(s.map_label is MapLabel.XI0 for s in gw_atoms)
    k_atom = next(s for s in decomp.summands if s.kind is Kind.K)
    assert k_atom.source_diagram.steps == "VH"


def test_gw_basis_n3_delta_is_all_k():
    decomp = gw_basis(3, Twist.DELTA)
    assert atoms(decomp) == Counter({("K", None): 4})
    assert all(s.map_label is MapLabel.MU1 for s in decomp.summands)


def test_gw_basis_n1_bases():
    assert atoms(gw_basis(1, Twist.TRIVIAL)) == Counter({("GW", 0): 1, ("GW", 1): 1})
    assert atoms(gw_basis(1, Twist.DELTA)) == Counter({("K", None): 1})


@pytest.mark.parametrize("n", range(1, 13, 2))
def test_odd_delta_basis_counts(n):
    decomp = gw_basis(n, Twist.DELTA)
    sets = class_sets(n)
    assert atoms(decomp) == Counter({("K", None): len(sets.k_even)})


def test_gw_shift_equals_weight():
    for n in range(1, 7):
        for twist in (Twist.TRIVIAL, Twist.DELTA):
            for s in gw_basis(n, twist).summands:
                if s.kind is Kind.GW:
                    assert s.shift == s.source_diagram.weight


def test_gw_basis_rejects_empty_frame():
    with pytest.raises(DomainError):
        gw_basis(0, Twist.TRIVIAL)


@pytest.mark.parametrize("n", range(1, 7))
def test_a_twist_given_by_its_value_is_that_twist(n):
    # the twist is compared by identity inside, so each entry coerces it once
    for twist in Twist:
        value = twist.value
        decomp = gw_basis(n, value)
        assert decomp.twist is twist
        assert decomp.to_json() == gw_basis(n, twist).to_json()
        assert list(gw_summands(n, value)) == list(decomp.summands)
        assert basis.gw_atoms(n, value) == basis.gw_atoms(n, twist)
        assert witt_table(n, value).to_json() == witt_table(n, twist).to_json()
        assert lambda_pair(value) == lambda_pair(twist)
        assert blowup_pullback(value) == blowup_pullback(twist)
    entries = [gw_basis, gw_summands, basis.gw_atoms, witt_table]
    for entry in entries + [lambda n, twist: lambda_pair(twist)]:
        with pytest.raises(DomainError, match="^Twist must be 'O' or 'Delta', got 'x'$"):
            entry(n, "x")


def test_the_records_take_a_twist_and_theory_by_value():
    # built directly, not through gw_basis or witt_table
    decomp = Decomposition(1, "O", "GW", ())
    assert (decomp.twist, decomp.theory) == (Twist.TRIVIAL, Kind.GW)
    assert decomp.to_json() == {"n": 1, "twist": "O", "theory": "GW", "summands": []}
    table = WittTable(3, "Delta", ((0, 1),), 2)
    assert table.twist is Twist.DELTA
    assert table.to_json() == {"n": 3, "twist": "Delta", "degrees": {"0": 1}, "k_count": 2}
    with pytest.raises(DomainError, match="^Twist must be 'O' or 'Delta', got 'x'$"):
        Decomposition(1, "x", Kind.GW, ())
    with pytest.raises(DomainError, match="^Kind must be 'K' or 'GW', got 'k'$"):
        Decomposition(1, Twist.TRIVIAL, "k", ())
    with pytest.raises(DomainError, match="^Twist must be 'O' or 'Delta', got 1$"):
        WittTable(3, 1, (), 0)


DEGREES = "^" + re.escape(
    "degrees must be a tuple of (degree, count) integer pairs, degrees ascending in 0..3"
)

#: records built with values that the functions making them never produce
INVALID_RECORDS = {
    "negative k_count": (
        lambda: WittTable(3, "O", ((0, 1),), -3),
        "^k_count must be a non-negative integer, got -3$",
    ),
    "bool k_count": (
        lambda: WittTable(3, "O", ((0, 1),), True),
        "^k_count must be a non-negative integer, got True$",
    ),
    "junk degrees": (lambda: WittTable(3, "O", "junk", 2.5), DEGREES),
    "degrees as a list": (lambda: WittTable(3, "O", [(0, 1)], 2), DEGREES),
    "descending degrees": (lambda: WittTable(3, "O", ((1, 1), (0, 1)), 2), DEGREES),
    "repeated degree": (lambda: WittTable(3, "O", ((0, 1), (0, 1)), 2), DEGREES),
    "degree 4": (lambda: WittTable(3, "O", ((4, 1),), 2), DEGREES),
    "count 0": (lambda: WittTable(3, "O", ((0, 0),), 2), DEGREES),
    "bool count": (lambda: WittTable(3, "O", ((0, True),), 2), DEGREES),
    "triple": (lambda: WittTable(3, "O", ((0, 1, 2),), 2), DEGREES),
    "GW basis at frame 0": (
        lambda: Decomposition(0, "O", "GW", ()),
        "^the Hermitian decomposition needs frame size >= 1, got 0$",
    ),
    "summands as a list": (
        lambda: Decomposition(2, "O", "GW", ["x"]),
        "^" + re.escape("summands must be a tuple of Summands, got ['x']") + "$",
    ),
    "a summand that is no Summand": (
        lambda: Decomposition(2, "O", "GW", ("x",)),
        "^" + re.escape("summands must be a tuple of Summands, got ('x',)") + "$",
    ),
}


@pytest.mark.parametrize("case", INVALID_RECORDS)
def test_a_record_no_function_would_build_is_rejected(case):
    build, message = INVALID_RECORDS[case]
    with pytest.raises(DomainError, match=message):
        build()


def test_the_records_take_the_edge_values_the_functions_build():
    assert Decomposition(0, "O", "K", ()).n == 0  # k_basis(0)
    assert WittTable(3, "O", (), 0).degrees == ()
    assert WittTable(3, "O", ((0, 2), (3, 1)), 5).k_count == 5


def ladder_role(even_frame, twist, full_top, almost_even, k_even):
    """The oracle of `basis._summand_role`: one branch per frame parity and twist."""
    if even_frame and twist is Twist.DELTA:
        if almost_even and full_top:
            return Kind.GW, MapLabel.XI1
        if k_even:
            return Kind.K, MapLabel.MU1
    elif even_frame:
        if almost_even and not full_top:
            return Kind.GW, MapLabel.XI0
        if k_even:
            return Kind.K, MapLabel.MU0
    elif twist is Twist.TRIVIAL:
        if almost_even:
            return Kind.GW, MapLabel.XI0
        if k_even:
            return Kind.K, MapLabel.MU0
    elif k_even:
        return Kind.K, MapLabel.MU1
    return None


def test_the_summand_role_matches_the_ladder():
    inputs = list(product((False, True), Twist, (False, True), (False, True), (False, True)))
    assert len(inputs) == 32
    for args in inputs:
        assert basis._summand_role(*args) == ladder_role(*args), args


@pytest.mark.parametrize("twist", list(Twist))
def test_each_walk_class_decides_its_role_once(monkeypatch, twist):
    calls = []
    role = basis._summand_role

    def counted(*args):
        calls.append(args)
        return role(*args)

    monkeypatch.setattr(basis, "_summand_role", counted)
    summands = list(gw_summands(10, twist))
    # the walk shares one class among the walks of a (first step, index, segment
    # count); the stream reaches only the walks that fix no odd index at a turn
    walks = diagrams.enumerate_diagrams(10)._walks(True)
    classes = {
        (steps[0], cls.index_w, len(ShiftedDiagram(10, steps).ends)) for steps, cls in walks
    }
    assert len(calls) == len(classes) == 40
    monkeypatch.undo()
    assert summands == list(gw_summands(10, twist))


@pytest.mark.parametrize("twist", list(Twist))
def test_the_role_stream_cuts_only_walks_without_a_role(twist):
    for n in range(1, 13):
        even_frame = n % 2 == 0
        expected = []
        for steps, cls in diagrams.enumerate_diagrams(n).walks():
            full_top = cls.row_type is diagrams.RowType.FULL_TOP_ROW
            role = basis._summand_role(
                even_frame, twist, full_top, cls.is_almost_even, cls.is_k_even
            )
            if role is not None:
                diag = ShiftedDiagram(n, steps)
                kind, label = role
                expected.append((diag, cls, kind, label, diag.weight if kind is Kind.GW else None))
        assert list(basis._gw_walks(n, twist)) == expected, n
    # at frame 14 the cut leaves 8,320 of the 16,384 walks
    assert sum(1 for _ in diagrams.enumerate_diagrams(14)._walks(True)) == 8320


@pytest.mark.parametrize("n", range(1, 13))
def test_the_chained_halves_are_the_whole_stream(n):
    # the oracles walk the whole frame, not its halves
    k_oracle = [
        Summand(Kind.K, d, lf_ktheory(d), MapLabel.PHI, None, None)
        for d in diagrams.enumerate_diagrams(n)
    ]
    streams = [(basis._k_halves(n), k_oracle, list(k_summands(n)))]
    for twist in Twist:
        walks = []
        for steps, cls in diagrams.enumerate_diagrams(n).walks():
            full_top = cls.row_type is diagrams.RowType.FULL_TOP_ROW
            role = basis._summand_role(
                n % 2 == 0, twist, full_top, cls.is_almost_even, cls.is_k_even
            )
            if role is not None:
                diag = ShiftedDiagram(n, steps)
                kind, label = role
                walks.append((diag, cls, kind, label, diag.weight if kind is Kind.GW else None))
        oracle = list(basis._gw_stream(iter(walks)))
        streams.append((basis._gw_halves(n, twist), oracle, list(gw_summands(n, twist))))
    for (down, left), oracle, whole in streams:
        down, left = list(down), list(left)
        assert down + left == oracle == whole
        assert all(s.source_diagram.steps[0] == "V" for s in down)
        assert all(s.source_diagram.steps[0] == "H" for s in left)


def test_some_halves_are_empty():
    # frame 0's one walk is empty: its summand leads
    assert [list(half) for half in basis._k_halves(0)] == [list(k_basis(0).summands), []]
    assert [len(list(half)) for half in basis._gw_halves(1, Twist.DELTA)] == [0, 1]


def test_summand_streams_check_the_frame_on_the_call():
    # no next(): a stream that checked only when first read would pass here
    with pytest.raises(DomainError, match="frame size >= 1, got 0"):
        gw_summands(0, Twist.DELTA)
    with pytest.raises(DomainError, match="frame size >= 0, got -1"):
        k_summands(-1)


@pytest.mark.parametrize(
    "entry",
    [
        k_summands,
        k_basis,
        lambda n: gw_summands(n, Twist.TRIVIAL),
        lambda n: gw_basis(n, Twist.DELTA),
        verify_recursions,
        verify_geometry,
        lambda n: witt_table(n, Twist.DELTA),
    ],
    ids=["k_summands", "k_basis", "gw_summands", "gw_basis", "verify_recursions",
         "verify_geometry", "witt_table"],
)
def test_frame_size_must_be_a_plain_int(entry):
    # the streams are not read: they must reject the size on the call
    for n in (True, False, 4.0, "4"):
        with pytest.raises(DomainError, match=f"frame size n must be an integer, got {n!r}"):
            entry(n)


@pytest.mark.parametrize(
    "summands",
    [lambda: k_summands(12), lambda: gw_summands(12, Twist.TRIVIAL),
     lambda: gw_summands(12, Twist.DELTA)],
    ids=["k", "O", "Delta"],
)
def test_summand_streams_build_the_frame_as_they_read_it(monkeypatch, summands):
    built = []
    real = ShiftedDiagram.__init__

    def counted(self, n, steps):
        built.append(steps)
        real(self, n, steps)

    monkeypatch.setattr(ShiftedDiagram, "__init__", counted)
    next(summands())
    assert 0 < len(built) < 10


@pytest.mark.parametrize(
    "summands",
    [lambda: k_summands(12), lambda: gw_summands(12, Twist.TRIVIAL),
     lambda: gw_summands(12, Twist.DELTA)],
    ids=["k", "O", "Delta"],
)
def test_summand_streams_build_a_diagram_only_for_a_summand(monkeypatch, summands):
    import lagflag

    def unread(diagram):
        raise AssertionError(f"the walk of {diagram.steps!r} was read again")

    modules = [lagflag] + [m for m in vars(lagflag).values() if isinstance(m, ModuleType)]
    for original in (lagflag.diagrams.boundary, lagflag.diagrams.classify):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, unread)
    built = []
    real = ShiftedDiagram.__init__

    def counted(self, n, steps):
        built.append(steps)
        real(self, n, steps)

    monkeypatch.setattr(ShiftedDiagram, "__init__", counted)
    drained = [s.source_diagram.steps for s in summands()]
    assert built == drained


# --------------------------------------------------------------------------
# recursions


def test_recursions_n2():
    report = verify_recursions(2)
    assert report.passed
    by_label = {c.label: c for c in report.cases}
    assert dict(by_label["a"].rhs) == {("K", None): 1, ("GW", 2): 1, ("GW", 3): 1}
    assert dict(by_label["b"].rhs) == {("K", None): 1, ("GW", 0): 1, ("GW", 1): 1}
    assert "frame 1" in report.notes[0]


def test_recursions_n3():
    report = verify_recursions(3)
    assert report.passed
    by_label = {c.label: c for c in report.cases}
    assert dict(by_label["c"].rhs) == {
        ("K", None): 2,
        ("GW", 0): 1,
        ("GW", 1): 1,
        ("GW", 5): 1,
        ("GW", 6): 1,
    }
    # case (d): 2 * |E_1| + 2 = |E_3| = 4
    assert dict(by_label["d"].rhs) == {("K", None): 4}


@pytest.mark.parametrize("n", range(2, 11))
def test_recursions_pass(n):
    assert verify_recursions(n).passed


def test_recursions_deterministic():
    first = verify_recursions(5)
    second = verify_recursions(5)
    assert first == second


def test_recursions_need_frame_two():
    with pytest.raises(DomainError):
        verify_recursions(1)


# --------------------------------------------------------------------------
# geometry aggregation


@pytest.mark.parametrize("n", range(1, 7))
def test_geometry_passes(n):
    report = verify_geometry(n)
    assert report.passed, report.failures[:3]
    expected = (
        2**n
        + len(gw_basis(n, Twist.TRIVIAL).summands)
        + len(gw_basis(n, Twist.DELTA).summands)
    )
    assert report.checked == expected


def test_geometry_n2_details():
    decomp = gw_basis(2, Twist.TRIVIAL)
    hh = next(s for s in decomp.summands if s.source_diagram.steps == "HH")
    assert hh.scheme == FlagDescriptor(3, (1, 2), (0,), (1,))
    from lagflag import component_count, relative_dimension

    assert component_count(hh.scheme) == 2
    assert relative_dimension(hh.scheme) == 3


def test_geometry_audits_the_scheme_a_summand_carries(monkeypatch):
    from lagflag import Decomposition, ShiftedDiagram, Summand, lf_a

    real = basis.gw_basis
    hv = ShiftedDiagram(2, "HV")
    wrong = lf_a(hv, 2)  # type 0, where frame 2 under O needs type 1
    assert str(wrong) == "LF[1,3](1)_[1]@3"

    def gw_basis_with_wrong_scheme(n, twist):
        decomp = real(n, twist)
        if (n, twist) != (2, Twist.TRIVIAL):
            return decomp
        summands = tuple(
            Summand(s.kind, s.source_diagram, wrong, s.map_label, s.shift, s.base_twist)
            if s.source_diagram == hv
            else s
            for s in decomp.summands
        )
        return Decomposition(decomp.n, decomp.twist, decomp.theory, summands)

    monkeypatch.setattr(basis, "gw_basis", gw_basis_with_wrong_scheme)
    report = verify_geometry(2)
    assert report.failures == ("O/xi0(HV): twist parity 0, required Delta(0)",)


# --------------------------------------------------------------------------
# witt tables


def test_witt_examples():
    assert witt_table(2, Twist.TRIVIAL).to_json() == {
        "n": 2,
        "twist": "O",
        "degrees": {"0": 1, "1": 1},
        "k_count": 1,
    }
    assert witt_table(3, Twist.DELTA).to_json() == {
        "n": 3,
        "twist": "Delta",
        "degrees": {},
        "k_count": 4,
    }
    assert witt_table(1, Twist.TRIVIAL).to_json() == {
        "n": 1,
        "twist": "O",
        "degrees": {"0": 1, "1": 1},
        "k_count": 0,
    }


# --------------------------------------------------------------------------
# serialization


def test_decomposition_json_schema():
    payload = gw_basis(2, Twist.TRIVIAL).to_json()
    assert payload["n"] == 2
    assert payload["twist"] == "O"
    assert payload["theory"] == "GW"
    for entry in payload["summands"]:
        assert set(entry) == {"kind", "shift", "diagram", "scheme", "map", "base_twist"}
        assert set(entry["scheme"]) == {"half_rank", "d", "e", "t"}


def test_decomposition_deterministic():
    a = gw_basis(4, Twist.DELTA).to_json()
    b = gw_basis(4, Twist.DELTA).to_json()
    assert a == b
