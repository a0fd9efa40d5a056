"""Descriptor validation and the closed-form scheme predicates."""

import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagflag import (
    DescriptorError,
    DomainError,
    FlagDescriptor,
    Twist,
    UnsupportedError,
    component_count,
    gw_basis,
    is_gorenstein,
    is_regular,
    k_basis,
    named_scheme,
    relative_dimension,
    scheme_report,
    validate,
)
from lagflag.flags import Violation, dimension_and_components
from lagflag.verify import SUITES
from gorenstein_descriptors import _gorenstein_descriptors


def build(fields):
    """``(descriptor, None)`` for valid ``fields``, else the rejected descriptor and its error."""
    try:
        return FlagDescriptor(*fields), None
    except DescriptorError as exc:
        return exc.descriptor, exc


def errors_of(*fields):
    return {v.constraint for v in build(fields)[0].violations if v.severity == "error"}


def warnings_of(*fields):
    return {v.constraint for v in build(fields)[0].violations if v.severity == "warning"}


def test_validate_examples():
    assert validate(FlagDescriptor(3, (1, 2), (0,), (1,))) == []
    assert errors_of(2, (0, 3), (0,), (1,)) == {"d_leq_half_rank"}
    assert errors_of(4, (1, 3), (3,), (2,)) == {
        "e_leq_d_i",
        "e_leq_half_rank_minus_t",
    }


def test_an_invalid_descriptor_is_rejected_when_built():
    valid = FlagDescriptor(2, (0, 1), (0,), (1,))
    error = Violation("d_leq_half_rank", "d_1 = 3 exceeds half_rank 2", "error")
    # a built descriptor cannot be changed into an invalid one
    with pytest.raises(AttributeError):
        valid.d = (0, 3)
    assert valid.d == (0, 1) and valid == FlagDescriptor(2, (0, 1), (0,), (1,))
    for construct in (
        lambda: FlagDescriptor(2, (0, 3), (0,), (1,)),
        lambda: FlagDescriptor(valid.half_rank, (0, 3), valid.e, valid.t),
    ):
        with pytest.raises(DescriptorError) as rejected:
            construct()
        exc = rejected.value
        assert str(exc) == "invalid descriptor LF[0,3](0)_[1]@2: d_1 = 3 exceeds half_rank 2"
        assert exc.violations == (error,)
        assert exc.descriptor.violations == (error,) == tuple(validate(exc.descriptor))
    # the error carries the errors only; the rejected descriptor keeps its warnings too
    with pytest.raises(DescriptorError) as rejected:
        FlagDescriptor(3, (1, 2, 4), (1, 0), (2, 1))
    exc = rejected.value
    assert str(exc) == "invalid descriptor LF[1,2,4](1,0)_[2,1]@3: d_2 = 4 exceeds half_rank 3"
    assert [v.constraint for v in exc.violations] == ["d_leq_half_rank"]
    assert [(v.constraint, v.severity) for v in exc.descriptor.violations] == [
        ("d_leq_half_rank", "error"),
        ("e_nondecreasing", "warning"),
        ("t_nondecreasing", "warning"),
    ]
    assert validate(exc.descriptor) == list(exc.violations) == list(exc.descriptor.violations[:1])


# each breaks the named constraint of the valid LF[1,3](1)_[1]@5
SINGLE_VIOLATIONS = {
    "d_nonnegative": (5, (-1, 3), (-1,), (1,)),
    "d_leq_half_rank": (5, (1, 6), (1,), (1,)),
    "d_nondecreasing": (5, (3, 1), (1,), (1,)),
    "t_positive": (5, (1, 3), (1,), (0,)),
    "e_nonnegative": (5, (1, 3), (-1,), (1,)),
    "e_leq_d_i": (5, (1, 3), (2,), (1,)),
    "e_leq_d_next": (5, (3, 3), (4,), (1,)),
    "e_leq_half_rank_minus_t": (5, (1, 5), (1,), (5,)),
}


def test_validate_rejects_each_single_constraint():
    assert FlagDescriptor(5, (1, 3), (1,), (1,)).violations == ()
    for constraint, fields in SINGLE_VIOLATIONS.items():
        with pytest.raises(DescriptorError) as rejected:
            FlagDescriptor(*fields)
        assert constraint in {v.constraint for v in rejected.value.violations}, constraint


def validate_by_items(desc):
    """The oracle of `validate`: each constraint checked on its own, in the reported order."""
    out = []

    def err(constraint, message):
        out.append(Violation(constraint, message, "error"))

    n = desc.half_rank
    if n < 0:
        err("half_rank_nonnegative", f"half_rank must be non-negative, got {n}")
    for j, dj in enumerate(desc.d):
        if dj < 0:
            err("d_nonnegative", f"d_{j} = {dj} is negative")
        if dj > n:
            err("d_leq_half_rank", f"d_{j} = {dj} exceeds half_rank {n}")
    for j in range(len(desc.d) - 1):
        if desc.d[j] > desc.d[j + 1]:
            err("d_nondecreasing", f"d_{j} = {desc.d[j]} > d_{j+1} = {desc.d[j+1]}")
    for i, ti in enumerate(desc.t):
        if ti <= 0:
            err("t_positive", f"t_{i} = {ti} is not positive")
    for i, ei in enumerate(desc.e):
        if ei < 0:
            err("e_nonnegative", f"e_{i} = {ei} is negative")
        if ei > desc.d[i]:
            err("e_leq_d_i", f"e_{i} = {ei} exceeds d_{i} = {desc.d[i]}")
        if ei > desc.d[i + 1]:
            err("e_leq_d_next", f"e_{i} = {ei} exceeds d_{i+1} = {desc.d[i + 1]}")
        if ei > n - desc.t[i]:
            err(
                "e_leq_half_rank_minus_t",
                f"e_{i} = {ei} exceeds half_rank - t_{i} = {n - desc.t[i]}",
            )
    for i in range(len(desc.e) - 1):
        if desc.e[i] > desc.e[i + 1]:
            out.append(
                Violation(
                    "e_nondecreasing",
                    f"e_{i} = {desc.e[i]} > e_{i+1} = {desc.e[i + 1]}",
                    severity="warning",
                )
            )
        if desc.t[i] > desc.t[i + 1]:
            out.append(
                Violation(
                    "t_nondecreasing",
                    f"t_{i} = {desc.t[i]} > t_{i+1} = {desc.t[i + 1]}",
                    severity="warning",
                )
            )
    return out


def items(violations):
    return [(v.constraint, v.message, v.severity) for v in violations]


def assert_validate_matches_the_oracle(fields):
    desc, rejection = build(fields)
    expected = items(validate_by_items(desc))
    errors = [item for item in expected if item[2] == "error"]
    # validate returns the errors; violations add the warnings after them
    assert items(validate(desc)) == errors, desc
    assert items(desc.violations) == expected, desc
    # rejected exactly when an error is found, carrying the errors
    assert (items(rejection.violations) if rejection else []) == errors, desc


def entries(size):
    """``size`` small integers, sorted half the time so that valid tuples come up too."""
    values = st.lists(st.integers(-2, 9), min_size=size, max_size=size)
    return st.one_of(values, values.map(sorted)).map(tuple)


DESCRIPTOR_FIELDS = st.integers(0, 5).flatmap(
    lambda k: st.tuples(st.integers(-1, 8), entries(k + 1), entries(k), entries(k))
)


@settings(max_examples=300, deadline=None)
@given(DESCRIPTOR_FIELDS)
def test_validate_matches_the_itemised_oracle(fields):
    assert_validate_matches_the_oracle(fields)


@pytest.mark.parametrize("n", range(0, 11))
def test_validate_matches_the_oracle_around_the_basis_schemes(n):
    # each scheme the bases build, and each with one entry moved by 1 or 2
    schemes = {(s.half_rank, s.d, s.e, s.t) for s in basis_schemes(n)}
    for fields in schemes:
        assert_validate_matches_the_oracle(fields)
        for part, values in enumerate(fields):
            for i in range(len(values) if part else 1):
                for step in (-2, -1, 1, 2):
                    if part == 0:
                        moved = values + step
                    else:
                        moved = values[:i] + (values[i] + step,) + values[i + 1 :]
                    assert_validate_matches_the_oracle(
                        fields[:part] + (moved,) + fields[part + 1 :]
                    )


def test_monotonicity_is_warning_only():
    fields = (6, (1, 3, 5), (1, 2), (2, 1))
    assert errors_of(*fields) == set()
    assert "t_nondecreasing" in warnings_of(*fields)
    fields = (6, (2, 3, 5), (2, 1), (1, 1))
    assert errors_of(*fields) == set()
    assert "e_nondecreasing" in warnings_of(*fields)


def test_warnings_are_built_only_when_read(monkeypatch):
    from lagflag import flags

    checked, built = [], []
    real_validate, real_violation = flags.validate, flags.Violation

    def counted_validate(desc):
        checked.append(desc)
        return real_validate(desc)

    def counted_violation(*args, **kwargs):
        built.append(args)
        return real_violation(*args, **kwargs)

    monkeypatch.setattr(flags, "validate", counted_validate)
    monkeypatch.setattr(flags, "Violation", counted_violation)
    desc = FlagDescriptor(6, (1, 3, 5), (1, 2), (2, 1))  # t decreases
    assert checked == [desc] and built == []
    warning = ("t_nondecreasing", "t_0 = 2 > t_1 = 1", "warning")
    assert desc.violations == (Violation(*warning),)
    # reading the warnings builds them and is no second validation
    assert checked == [desc] and built == [warning]


def test_shape_mismatch_is_construction_error():
    with pytest.raises(DomainError):
        FlagDescriptor(3, (1, 2), (0, 0), (1,))
    with pytest.raises(DomainError):
        FlagDescriptor(3, (), (), ())


def test_non_integer_values_are_construction_errors():
    with pytest.raises(DomainError):
        FlagDescriptor(3, (1.5, 2), (0,), (1,))
    with pytest.raises(DomainError):
        FlagDescriptor(True, (0,), (), ())


@pytest.mark.parametrize("d,e,t", [(1, (), ()), ((1,), None, ()), ((1, 2), (0,), 1)])
def test_parts_that_are_not_sequences_are_construction_errors(d, e, t):
    with pytest.raises(DomainError, match="d, e and t must be sequences of integers"):
        FlagDescriptor(3, d, e, t)


def test_regular_and_gorenstein_examples():
    b2 = FlagDescriptor(2, (0, 1), (0,), (1,))
    assert is_regular(b2) and is_gorenstein(b2)

    q3 = FlagDescriptor(3, (1, 2), (0,), (1,))
    assert is_gorenstein(q3) and not is_regular(q3)

    gap2 = FlagDescriptor(4, (2, 3), (0,), (1,))
    assert not is_gorenstein(gap2)
    with pytest.raises(UnsupportedError):
        relative_dimension(gap2)
    with pytest.raises(UnsupportedError):
        component_count(gap2)


def test_predicates_reject_invalid_descriptors():
    # no predicate sees an invalid descriptor: building one raises
    with pytest.raises(DescriptorError):
        FlagDescriptor(2, (0, 3), (0,), (1,))
    valid = FlagDescriptor(2, (0, 1), (0,), (1,))
    with pytest.raises(AttributeError):
        valid.d = (0, 3)
    assert valid.d == (0, 1)
    with pytest.raises(DescriptorError):
        FlagDescriptor(valid.half_rank, (0, 3), valid.e, valid.t)


@pytest.mark.parametrize("n", range(0, 21))
def test_dimension_of_full_grassmannian(n):
    assert relative_dimension(FlagDescriptor(n, (0,), (), ())) == comb(n + 1, 2)


def test_dimension_examples():
    assert relative_dimension(FlagDescriptor(2, (0, 1), (0,), (1,))) == 3
    assert relative_dimension(FlagDescriptor(3, (1, 2), (0,), (1,))) == 3
    assert relative_dimension(FlagDescriptor(4, (1, 4), (0,), (2,))) == 5


def test_component_count_examples():
    assert component_count(FlagDescriptor(3, (1, 2), (0,), (1,))) == 2
    assert component_count(FlagDescriptor(3, (1, 1), (1,), (1,))) == 1
    assert component_count(FlagDescriptor(5, (1, 3, 5), (0, 2), (1, 1))) == 4


def test_dimension_is_independent_of_e():
    assert dict(SUITES)["dimension-e-independence"](6) == (True, "")
    # the suite skips raised descriptors that are invalid; make sure it compares many
    descs = [d for n in range(1, 7) for d in _gorenstein_descriptors(n)]
    lowered = [d for d in descs if d.k >= 1 and d.d[0] - d.e[0] == 1]
    raised = [build((d.half_rank, d.d, (d.d[0],) + d.e[1:], d.t)) for d in lowered]
    assert sum(rejection is None for _, rejection in raised) > 100


def test_scheme_report():
    report = scheme_report(FlagDescriptor(3, (1, 2), (0,), (1,)))
    assert report.to_json() == {
        "regular": False,
        "gorenstein": True,
        "relative_dimension": 3,
        "component_count": 2,
        "reduced_with_trivial_pushforward": True,
    }
    report = scheme_report(FlagDescriptor(4, (1, 3), (0,), (2,)))
    assert report.gorenstein and not report.reduced_with_trivial_pushforward
    report = scheme_report(FlagDescriptor(4, (2, 3), (0,), (1,)))
    assert report.relative_dimension is None and report.component_count is None


def test_scheme_report_validates_once(monkeypatch):
    from lagflag import flags

    calls = []
    real = flags.validate

    def counted(desc):
        calls.append(desc)
        return real(desc)

    monkeypatch.setattr(flags, "validate", counted)
    gorenstein, not_gorenstein = (3, (1, 2), (0,), (1,)), (4, (2, 3), (0,), (1,))
    for fields in (gorenstein, not_gorenstein):
        calls.clear()
        desc = FlagDescriptor(*fields)  # validated here, at construction
        scheme_report(desc)
        assert calls == [desc]
    calls.clear()
    with pytest.raises(DescriptorError) as rejected:
        FlagDescriptor(2, (0, 3), (0,), (1,))
    assert calls == [rejected.value.descriptor]


def test_scheme_report_agrees_with_the_checked_forms():
    descs = [d for n in range(1, 5) for d in _gorenstein_descriptors(n)]
    # lowering e by one leaves many of them valid but not Gorenstein
    lowered = [build((d.half_rank, d.d, tuple(x - 1 for x in d.e), d.t)) for d in descs]
    descs += [desc for desc, rejection in lowered if rejection is None]
    rejected = [desc for desc, rejection in lowered if rejection]
    rejected += [build(fields)[0] for fields in SINGLE_VIOLATIONS.values()]
    for desc in [*descs, *rejected]:
        expected = validate_by_items(desc)
        assert validate(desc) == [v for v in expected if v.severity == "error"]
        assert list(desc.violations) == expected
    for desc in descs:
        report = scheme_report(desc)
        assert report.regular == is_regular(desc)
        assert report.gorenstein == is_gorenstein(desc)
        if report.gorenstein:
            assert report.relative_dimension == relative_dimension(desc)
            assert report.component_count == component_count(desc)
        else:
            with pytest.raises(UnsupportedError):
                relative_dimension(desc)
            with pytest.raises(UnsupportedError):
                component_count(desc)


def closed_forms_by_formula(desc):
    """The docstring formulas of relative dimension and component count, term by term."""
    n = desc.half_rank
    strata = sum((n - ti - di) * ti + comb(ti + 1, 2) for di, ti in zip(desc.d, desc.t))
    s = sum(1 for di, ei in zip(desc.d, desc.e) if di - ei == 1)
    return comb(n - desc.d[-1] + 1, 2) + strata, 2**s


def basis_schemes(n):
    """The schemes of the K basis and, from frame 1, of both Hermitian bases."""
    decomps = [k_basis(n), *(gw_basis(n, twist) for twist in Twist if n >= 1)]
    return [s.scheme for decomp in decomps for s in decomp.summands]


@pytest.mark.parametrize("n", range(0, 11))
def test_closed_forms_match_the_docstring_formulas(n):
    descs = basis_schemes(n)
    if n <= 6:
        descs += _gorenstein_descriptors(n)
    assert len(descs) >= 2**n
    for desc in descs:
        assert all(0 <= di - ei <= 1 for di, ei in zip(desc.d, desc.e))
        dimension, components = closed_forms_by_formula(desc)
        assert relative_dimension(desc) == dimension
        assert component_count(desc) == components
        assert dimension_and_components(desc) == (dimension, components)
        report = scheme_report(desc)
        assert (report.relative_dimension, report.component_count) == (dimension, components)


def test_closed_form_readings_keep_their_errors():
    not_gorenstein = FlagDescriptor(4, (2, 3), (0,), (1,))
    dimension_message = (
        "relative dimension is only asserted for Gorenstein descriptors "
        "(d_i - e_i <= 1); got LF[2,3](0)_[1]@4"
    )
    for read in (relative_dimension, dimension_and_components):
        with pytest.raises(UnsupportedError, match=re.escape(dimension_message)):
            read(not_gorenstein)
    count_message = "component count needs a Gorenstein descriptor, got LF[2,3](0)_[1]@4"
    with pytest.raises(UnsupportedError, match=re.escape(count_message)):
        component_count(not_gorenstein)


def test_each_closed_form_reading_checks_gorenstein_once(monkeypatch):
    # the Gorenstein rule lives in _closed_forms, so one pass per reading
    from lagflag import flags

    calls = []
    real = flags._closed_forms

    def counted(desc):
        calls.append(desc)
        return real(desc)

    monkeypatch.setattr(flags, "_closed_forms", counted)
    gorenstein, not_gorenstein = (
        FlagDescriptor(3, (1, 2), (0,), (1,)),
        FlagDescriptor(4, (2, 3), (0,), (1,)),
    )
    for desc in (gorenstein, not_gorenstein):
        calls.clear()
        scheme_report(desc)
        assert calls == [desc]
    for read in (is_gorenstein, relative_dimension, component_count):
        calls.clear()
        read(gorenstein)
        assert calls == [gorenstein]
    calls.clear()
    pair = flags.dimension_and_components(gorenstein)
    assert calls == [gorenstein]
    assert pair == (relative_dimension(gorenstein), component_count(gorenstein))
    with pytest.raises(UnsupportedError) as pair_error:
        flags.dimension_and_components(not_gorenstein)
    with pytest.raises(UnsupportedError) as dimension_error:
        relative_dimension(not_gorenstein)
    assert str(pair_error.value) == str(dimension_error.value)


def test_regular_implies_gorenstein():
    for n in range(1, 6):
        for desc in _gorenstein_descriptors(n):
            if is_regular(desc):
                assert is_gorenstein(desc)


def test_named_schemes():
    f2 = named_scheme("F2", 4)
    assert f2 == FlagDescriptor(4, (1, 1), (0,), (1,))
    assert component_count(f2) == 2

    e2 = named_scheme("E2", 4)
    assert e2 == FlagDescriptor(4, (1, 1), (1,), (1,))
    assert is_regular(e2)

    assert named_scheme("B2", 2) == FlagDescriptor(2, (0, 1), (0,), (1,))
    assert named_scheme("LF_0", 3) == FlagDescriptor(3, (0,), (), ())
    assert named_scheme("LF_2", 5) == FlagDescriptor(5, (2,), (), ())

    with pytest.raises(DomainError):
        named_scheme("Z9", 3)
    # only ASCII digits follow LF_, though int() would read each of these
    for name in ("LF_", "LF_1_0", "LF_ 1", "LF_+1", "LF_\u0661", "LF_1 "):
        with pytest.raises(DomainError, match="unknown scheme name"):
            named_scheme(name, 12)
    with pytest.raises(DescriptorError):
        named_scheme("LF_7", 3)


@pytest.mark.parametrize("name", ["Z9", "LF_x", "LF_", "b2", 5, None, ("B2",)], ids=repr)
def test_every_unknown_scheme_name_gets_one_message(name):
    message = f"unknown scheme name {name!r}; expected B2, E2, F2 or LF_<i>"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        named_scheme(name, 3)


def test_descriptor_json():
    desc = FlagDescriptor(3, (1, 2), (0,), (1,))
    assert desc.to_json() == {"half_rank": 3, "d": [1, 2], "e": [0], "t": [1]}
    assert str(desc) == "LF[1,2](0)_[1]@3"
