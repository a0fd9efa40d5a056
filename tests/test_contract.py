"""The library contract: a bad plain value passed to an exported callable raises a LagflagError."""

from collections.abc import Iterator
from enum import Enum

import pytest

import lagflag
from lagflag import (
    Boundary,
    DiagramClass,
    DomainError,
    Kind,
    LagflagError,
    MapLabel,
    PicElement,
    RowType,
    SelectionRule,
    ShiftedDiagram,
    TwistVariant,
    delta,
    lf_ktheory,
    selection_S,
)

DIAGRAM = ShiftedDiagram(2, "HV")
SCHEME = lf_ktheory(DIAGRAM)

#: Each exported callable, plausible arguments, and the positions of its
#: plain-valued parameters: numbers, strings, containers and enum values.
CONTRACT = {
    "Affine": ((1, 0), (0, 1)),
    "AlignmentResult": ((True, 0, 0, SCHEME), (0, 1, 2)),
    "Boundary": (((0, 1, 2),), (0,)),
    "ClassSets": ((1, (), (), ()), (0, 1, 2, 3)),
    "Decomposition": ((1, "O", "GW", ()), (0, 1, 2, 3)),
    "DiagramClass": ((2, True, True, RowType.EMPTY_RIGHT_COLUMN), (0, 1, 2, 3)),
    "FlagDescriptor": ((2, (0, 2), (0,), (1,)), (0, 1, 2, 3)),
    "Generator": (("Delta", 0), (0, 1)),
    "GeometryReport": ((1, 0, ()), (0, 1, 2)),
    "MarkedSelection": ((DIAGRAM, ()), (1,)),
    "ParityClass": ((frozenset({delta(0)}),), (0,)),
    "PicElement": (({delta(0): 1},), (0,)),
    "RecursionReport": ((2, True, (), ()), (0, 1, 2, 3)),
    "SchemeReport": ((True, True, 1, 1, True), (0, 1, 2, 3, 4)),
    "ShiftedDiagram": ((2, "HV"), (0, 1)),
    "Summand": ((Kind.K, DIAGRAM, SCHEME, MapLabel.PHI, None, None), (0, 3, 4, 5)),
    "TupleData": (((0, 2), (0,), (1,), True), (0, 1, 2, 3)),
    "Violation": (("c", "message", "error"), (0, 1, 2)),
    "WittTable": ((2, "O", ((0, 1),), 1), (0, 1, 2, 3)),
    "affine": ((1, 0), (0, 1)),
    "atom_multiset": ((lagflag.k_basis(1),), ()),
    "blowup_pullback": (("O",), (0,)),
    "boundary": ((DIAGRAM,), ()),
    "canonical_sheaf": ((SCHEME,), ()),
    "canonical_sheaf_in_n": (((1, 2), (0,), (1,)), (0, 1, 2)),
    "class_sets": ((2,), (0,)),
    "classify": ((DIAGRAM,), ()),
    "classify_connecting": ((2, 2, 0, 1), (0, 1, 2, 3)),
    "component_count": ((SCHEME,), ()),
    "delete_right_column": ((DIAGRAM,), ()),
    "delete_top_row": ((ShiftedDiagram(2, "VH"),), ()),
    "delta": ((0,), (0,)),
    "det_v": ((1,), (0,)),
    "enumerate_diagrams": ((2,), (0,)),
    "gw_basis": ((2, "O"), (0, 1)),
    "gw_summands": ((2, "O"), (0, 1)),
    "is_gorenstein": ((SCHEME,), ()),
    "is_regular": ((SCHEME,), ()),
    "k_basis": ((2,), (0,)),
    "k_summands": ((2,), (0,)),
    "lambda_pair": (("O",), (0,)),
    "lf_a": ((DIAGRAM, 1), (1,)),
    "lf_b": ((ShiftedDiagram(2, "HH"), 1), (1,)),
    "lf_ktheory": ((DIAGRAM,), ()),
    "marked_points": ((DIAGRAM, {2: SelectionRule.ALL_POINTS}), (1,)),
    "mod2_reduce": ((PicElement({delta(0): 1}), SCHEME), ()),
    "nabla": ((0,), (0,)),
    "named_scheme": (("B2", 2), (0, 1)),
    "padded_scheme": ((DIAGRAM, 1), (1,)),
    "relative_dimension": ((SCHEME,), ()),
    "scheme_alignment": ((DIAGRAM, SCHEME), ()),
    "scheme_report": ((SCHEME,), ()),
    "selection_S": ((DIAGRAM, 1), (1,)),
    "selection_S_tilde": ((DIAGRAM, 1), (1,)),
    "tuples": ((DIAGRAM, selection_S(DIAGRAM, 1)), ()),
    "twist_alignment": ((DIAGRAM, TwistVariant.XI0, 2), (1, 2)),
    "uses_type1": ((DIAGRAM,), ()),
    "validate": ((SCHEME,), ()),
    "verify_geometry": ((2,), (0,)),
    "verify_recursions": ((2,), (0,)),
    "witt_table": ((2, "O"), (0, 1)),
}

JUNK = (None, "x", -1, 1.5, True, (), {}, [1, "a"])


def _exported_callables() -> set[str]:
    """The exported names that are functions or record classes.

    Enum classes are left out: calling one is Python's lookup by value,
    and the callables that take a member also take its value, which their
    rows feed junk.  So are the error classes.
    """
    names = set()
    for name in dir(lagflag):
        obj = getattr(lagflag, name)
        if name.startswith("_") or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, (Enum, Exception)):
            continue
        names.add(name)
    return names


def test_the_table_names_every_exported_callable():
    assert set(CONTRACT) == _exported_callables()


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_junk_in_a_plain_parameter_raises_only_lagflag_errors(name):
    """Each junk value in each plain-valued parameter, the other arguments plausible.

    Only a `LagflagError` may escape; a call that accepts the junk passes
    too, as a record with no check of its own stores what it is given.
    Record parameters (a diagram, a descriptor, a line bundle) are not fed
    junk: a record is checked where it is built, so what a callable is
    handed there is valid or is no record at all, and a type check on
    every record parameter would add a check to each construction the
    bases make per summand.
    """
    func = getattr(lagflag, name)
    args, plain = CONTRACT[name]
    func(*args)  # the plausible arguments are accepted
    escaped = []
    for position in plain:
        for junk in JUNK:
            called = (*args[:position], junk, *args[position + 1:])
            try:
                result = func(*called)
                if isinstance(result, Iterator):
                    list(result)
            except LagflagError:
                pass
            except Exception as exc:  # any other escape is what this test looks for
                escaped.append(f"argument {position} = {junk!r}: {type(exc).__name__}: {exc}")
    assert escaped == []


ROW = RowType.FULL_TOP_ROW


@pytest.mark.parametrize(
    "record, args",
    [
        (Boundary, ("x",)),
        (Boundary, (None,)),
        (Boundary, ([0, 2],)),
        (DiagramClass, (None, True, True, ROW)),
        (DiagramClass, (0, True, True, ROW)),
        (DiagramClass, (True, True, True, ROW)),
        (DiagramClass, (1.0, True, True, ROW)),
        (DiagramClass, (1, 1, True, ROW)),
        (DiagramClass, (1, True, None, ROW)),
        (DiagramClass, (1, True, True, "x")),
        (DiagramClass, (1, True, True, "FullTopRow")),
    ],
    ids=[
        "Boundary-str", "Boundary-None", "Boundary-list",
        "DiagramClass-index-None", "DiagramClass-index-0", "DiagramClass-index-bool",
        "DiagramClass-index-float", "DiagramClass-almost-even-int", "DiagramClass-k-even-None",
        "DiagramClass-row-str", "DiagramClass-row-value",
    ],
)
def test_boundary_and_diagram_class_refuse_junk_when_built(record, args):
    """Junk fails where the record is built, not later where a property reads it.

    `Boundary` checks only that its ends are a tuple: `boundary` builds one
    per call, and a check of each end would cost more than the construction.
    """
    with pytest.raises(DomainError):
        record(*args)
