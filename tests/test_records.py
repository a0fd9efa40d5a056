"""Record semantics: the package's 21 record types, and what importing them costs.

Every record is a ``__slots__`` class on `lagflag.record.Record`.  One table
row per type gives an instance (built twice, so equal values are distinct
objects), a value of the same type with one field changed, and the field
names.  The oracle for ``repr`` is a frozen dataclass with those fields,
whose text the records keep.
"""

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lagflag import (
    SYMBOLIC_N,
    AlignmentResult,
    Affine,
    Boundary,
    ClassSets,
    Decomposition,
    DiagramClass,
    FlagDescriptor,
    GeometryReport,
    MarkedSelection,
    ParityClass,
    PicElement,
    RecursionReport,
    SchemeReport,
    SelectionRule,
    ShiftedDiagram,
    Summand,
    TupleData,
    Twist,
    TwistVariant,
    Violation,
    WittTable,
    boundary,
    class_sets,
    classify,
    delta,
    enumerate_diagrams,
    gw_basis,
    k_basis,
    nabla,
    scheme_report,
    selection_S,
    selection_S_tilde,
    tuples,
    twist_alignment,
    verify_geometry,
    verify_recursions,
    witt_table,
)
from lagflag.basis import CaseResult
from lagflag.diagrams import Frame
from lagflag.errors import DomainError
from lagflag.marking import SegmentSelection
from lagflag.record import Record

HVVH = ShiftedDiagram(4, "HVVH")

# type -> (build, build a value with one field changed, field names in order)
CASES = {
    ShiftedDiagram: (
        lambda: ShiftedDiagram(4, "HVVH"), lambda: ShiftedDiagram(4, "HVHH"), ("n", "steps")
    ),
    Frame: (lambda: enumerate_diagrams(3), lambda: Frame(4), ("n",)),
    Boundary: (lambda: boundary(HVVH), lambda: Boundary((1, 3, 4)), ("ends",)),
    DiagramClass: (
        lambda: classify(HVVH),
        lambda: classify(ShiftedDiagram(4, "VVVV")),
        ("index_w", "is_almost_even", "is_k_even", "row_type"),
    ),
    ClassSets: (
        lambda: class_sets(3),
        lambda: class_sets(4),
        ("n", "all_diagrams", "almost_even", "k_even"),
    ),
    FlagDescriptor: (
        lambda: FlagDescriptor(4, (1, 2, 3), (1, 1), (2, 1)),
        lambda: FlagDescriptor(4, (1, 2, 3), (1, 1), (1, 1)),
        ("half_rank", "d", "e", "t"),
    ),
    Violation: (
        lambda: Violation("c", "m", "warning"),
        lambda: Violation("c", "m", "error"),
        ("constraint", "message", "severity"),
    ),
    SchemeReport: (
        lambda: scheme_report(FlagDescriptor(3, (0, 1), (0,), (1,))),
        lambda: scheme_report(FlagDescriptor(3, (1, 1), (0,), (1,))),
        (
            "regular",
            "gorenstein",
            "relative_dimension",
            "component_count",
            "reduced_with_trivial_pushforward",
        ),
    ),
    SegmentSelection: (
        lambda: SegmentSelection(2, SelectionRule.EVEN_POINTS, (0, 2)),
        lambda: SegmentSelection(2, SelectionRule.ALL_POINTS, (0, 2)),
        ("segment", "rule", "offsets"),
    ),
    MarkedSelection: (
        lambda: selection_S(HVVH, 2),
        lambda: selection_S_tilde(HVVH, 0),
        ("diagram", "per_segment"),
    ),
    TupleData: (
        lambda: tuples(HVVH, selection_S(HVVH, 2)),
        lambda: TupleData((0, 3), (0,), (1,), True),
        ("d", "e", "t", "appended_n"),
    ),
    Affine: (lambda: Affine(2, -1), lambda: Affine(2, 1), ("n_coeff", "const")),
    PicElement: (
        lambda: PicElement({nabla(1): 2, delta(0): SYMBOLIC_N}),
        lambda: PicElement({delta(0): SYMBOLIC_N}),
        ("_items",),
    ),
    ParityClass: (
        lambda: ParityClass(frozenset({delta(0)})), ParityClass.zero, ("generators",)
    ),
    AlignmentResult: (
        lambda: twist_alignment(ShiftedDiagram(2, "HH"), TwistVariant.XI0, 2),
        lambda: twist_alignment(ShiftedDiagram(3, "HHH"), TwistVariant.XI0, 3),
        ("ok", "parity", "required", "scheme"),
    ),
    Summand: (
        lambda: k_basis(3).summands[1],
        lambda: k_basis(3).summands[2],
        ("kind", "source_diagram", "scheme", "map_label", "shift", "base_twist"),
    ),
    Decomposition: (
        lambda: k_basis(3),
        lambda: gw_basis(3, Twist.TRIVIAL),
        ("n", "twist", "theory", "summands"),
    ),
    CaseResult: (
        lambda: verify_recursions(4).cases[0],
        lambda: verify_recursions(4).cases[1],
        ("label", "description", "passed", "lhs", "rhs", "first_mismatch"),
    ),
    RecursionReport: (
        lambda: verify_recursions(4),
        lambda: verify_recursions(5),
        ("n", "passed", "cases", "notes"),
    ),
    GeometryReport: (
        lambda: verify_geometry(2), lambda: verify_geometry(3), ("n", "checked", "failures")
    ),
    WittTable: (
        lambda: witt_table(5, Twist.DELTA),
        lambda: witt_table(5, Twist.TRIVIAL),
        ("n", "twist", "degrees", "k_count"),
    ),
}
IDS = [cls.__name__ for cls in CASES]


def test_the_table_covers_every_record_type():
    import lagflag

    modules = [m for m in vars(lagflag).values() if type(m) is type(lagflag)]
    records = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record) and value is not Record
    }
    assert records == set(CASES) and len(records) == 21


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_and_hash_read_the_fields(cls):
    build, build_other, fields = CASES[cls]
    a, b, other = build(), build(), build_other()
    assert type(a) is type(other) is cls
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(_values(a, fields))  # the dataclass hash
    assert a != other and not a == other
    # another type is never equal: another record, the bare values, a subclass
    assert a != CASES[Boundary if cls is ShiftedDiagram else ShiftedDiagram][0]()
    assert a != _values(a, fields)
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert a != subclass(*_values(a, fields))


# the records whose __init__ checks or coerces its input; the rest get one generated
OWN_INIT = {
    ShiftedDiagram,
    Frame,
    FlagDescriptor,
    Affine,
    PicElement,
    ParityClass,
    Decomposition,
    WittTable,
    Boundary,
    DiagramClass,
}
GENERATED = [cls for cls in CASES if cls not in OWN_INIT]
# written inits that only check, so they take the fields as a generated one does
FIELD_INITS = GENERATED + [Boundary, DiagramClass]


def test_only_records_that_check_coerce_or_default_write_an_init():
    written = {
        cls
        for cls in CASES
        if cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__
    }
    assert written == OWN_INIT and len(GENERATED) == 11


@pytest.mark.parametrize("cls", FIELD_INITS, ids=[cls.__name__ for cls in FIELD_INITS])
def test_a_generated_init_takes_the_fields_by_position_or_keyword(cls):
    build, _, fields = CASES[cls]
    record = build()
    values = _values(record, fields)
    assert cls(*values) == record
    assert cls(**dict(zip(fields, values))) == record
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == record
    assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], not_a_field=values[-1])


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_the_store_rebuilds_the_record_from_its_fields(cls):
    build, _, fields = CASES[cls]
    record = build()
    blank = cls.__new__(cls)
    cls._store(blank, *_values(record, fields))
    assert blank == record and _values(blank, fields) == _values(record, fields)


@pytest.mark.parametrize(
    "cls", sorted(OWN_INIT, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__
)
def test_a_written_init_stores_through_the_slots(cls):
    # object.__setattr__ reads the name __setattr__; the store reads _store
    names = cls.__init__.__code__.co_names
    assert "_store" in names and "__setattr__" not in names


def test_a_field_that_is_no_slot_fails_when_the_class_is_made():
    for extra in ({}, {"b": property(lambda self: 1)}, {"b": 1}):
        namespace = {"__slots__": ("a",), "_fields": ("a", "b"), **extra}
        with pytest.raises(TypeError, match="^Bad._fields names 'b', which is no slot$"):
            type("Bad", (Record,), namespace)


def test_a_subclass_of_a_checking_record_keeps_its_checks():
    sub = type("Sub", (ShiftedDiagram,), {"__slots__": ()})
    assert sub.__init__ is ShiftedDiagram.__init__
    assert sub(2, "VH").steps == "VH"
    with pytest.raises(DomainError):
        sub(2, "XX")


# a line bundle shows its exponents as a dict (pinned below), not its one field
DATACLASS_REPR = [cls for cls in CASES if cls is not PicElement]


@pytest.mark.parametrize("cls", DATACLASS_REPR, ids=[cls.__name__ for cls in DATACLASS_REPR])
def test_repr_is_the_dataclass_repr(cls):
    build, build_other, fields = CASES[cls]
    oracle = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for record in (build(), build_other()):
        assert repr(record) == repr(oracle(*_values(record, fields)))


def test_repr_pins():
    assert repr(HVVH) == "ShiftedDiagram(n=4, steps='HVVH')"
    assert repr(FlagDescriptor(4, (1, 2, 3), (1, 1), (2, 1))) == (
        "FlagDescriptor(half_rank=4, d=(1, 2, 3), e=(1, 1), t=(2, 1))"
    )
    assert repr(k_basis(3).summands[1]) == (
        "Summand(kind=<Kind.K: 'K'>, source_diagram=ShiftedDiagram(n=3, steps='VVH'), "
        "scheme=FlagDescriptor(half_rank=3, d=(2,), e=(), t=()), "
        "map_label=<MapLabel.PHI: 'phi'>, shift=None, base_twist=None)"
    )
    assert repr(witt_table(5, "Delta")) == (
        "WittTable(n=5, twist=<Twist.DELTA: 'Delta'>, degrees=(), k_count=16)"
    )
    assert repr(PicElement({delta(0): SYMBOLIC_N, nabla(1): 2})) == (
        "PicElement({Generator(kind='Delta', index=0): Affine(n_coeff=1, const=0), "
        "Generator(kind='Nabla', index=1): 2})"
    )


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    build, build_other, fields = CASES[cls]
    record, other = build(), build_other()
    before = _values(record, fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert _values(record, fields) == before and record == build()


def test_excluded_fields_stay_out():
    # a descriptor's violations (here a warning) are no field
    desc = FlagDescriptor(4, (1, 2, 3), (1, 1), (2, 1))
    assert [v.severity for v in desc.violations] == ["warning"]
    assert "violations" not in repr(desc)
    assert hash(desc) == hash((4, (1, 2, 3), (1, 1), (2, 1)))
    with pytest.raises(AttributeError):
        desc.violations = ()
    assert len(desc.violations) == 1
    # a diagram's cached ends are no field either
    read, unread = ShiftedDiagram(4, "HVVH"), ShiftedDiagram(4, "HVVH")
    assert read.ends == (0, 1, 3, 4)
    assert (read == unread, hash(read), repr(read)) == (True, hash(unread), repr(unread))
    with pytest.raises(AttributeError):
        read.ends = ()
    with pytest.raises(AttributeError):
        del read.ends
    assert read.ends == (0, 1, 3, 4)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls):
    build, _, fields = CASES[cls]
    record = build()
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is cls
        assert twin == record and _values(twin, fields) == _values(record, fields)
    if cls is FlagDescriptor:
        assert pickle.loads(pickle.dumps(record)).violations == record.violations


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_to_json_is_json(cls):
    build, build_other, _ = CASES[cls]
    for record in (build(), build_other()):
        json.dumps(record.to_json())


# the records that write their own to_json, since their JSON is not their fields
OWN_JSON = [cls for cls in CASES if cls.to_json is not Record.to_json]


@pytest.mark.parametrize("cls", OWN_JSON, ids=[cls.__name__ for cls in OWN_JSON])
def test_a_written_to_json_differs_from_the_fields(cls):
    build, build_other, _ = CASES[cls]
    for record in (build(), build_other()):
        assert record.to_json() != Record.to_json(record)


def test_the_default_json_writes_the_fields_in_order():
    assert list(Violation("c", "m", "warning").to_json().items()) == [
        ("constraint", "c"), ("message", "m"), ("severity", "warning")
    ]
    report = verify_recursions(4)
    assert list(report.to_json()) == ["n", "passed", "cases", "notes"]
    assert report.to_json()["cases"] == [case.to_json() for case in report.cases]
    decomp = k_basis(1)
    assert decomp.to_json() == {
        "n": 1, "twist": "O", "theory": "K", "summands": [s.to_json() for s in decomp.summands]
    }
    assert enumerate_diagrams(3).to_json() == {"n": 3}


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_importing_the_cli_loads_no_dataclass_machinery(flags):
    # dataclasses and the modules it pulls in cost every CLI process ~30 ms
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys, lagflag.cli; "
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", probe],
        env=env, stdout=subprocess.PIPE, check=True, text=True,
    ).stdout
    assert out == "\n"
