"""Marked points, selections, descriptor tuples and the padded constructions.

The independent oracle reads distances and horizontal gaps straight off the
raw step string: a point at offset o on segment t sits at walk position
(steps before segment t) + o, and the gap between two marks counts the 'H'
characters of the walk slice between them.  It selects each horizontal
segment's offsets by rules 1, 2 and 3 and applies the documented padded and
unpadded formulas, so it is the constructions' oracle.
"""

import re
from functools import cached_property
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagflag import (
    DomainError,
    FlagDescriptor,
    SelectionRule,
    ShiftedDiagram,
    Twist,
    boundary,
    class_sets,
    classify,
    enumerate_diagrams,
    gw_summands,
    k_summands,
    lf_a,
    lf_b,
    lf_ktheory,
    marked_points,
    padded_scheme,
    selection_S,
    selection_S_tilde,
    tuples,
    uses_type1,
    validate,
)
from lagflag import diagrams, marking
from lagflag.errors import LagflagError
from lagflag.verify import SUITES

# --------------------------------------------------------------------------
# string-walk oracle


def segment_spans(steps: str) -> list[tuple[str, int, int]]:
    """(direction, start, end) walk spans of each segment, 0-based, end exclusive."""
    spans = []
    if steps and steps[0] == "H":
        spans.append(("V", 0, 0))
    pos = 0
    for ch, grp in groupby(steps):
        length = len(list(grp))
        spans.append((ch, pos, pos + length))
        pos += length
    return spans


def oracle_index(steps: str) -> int:
    """The first segment ending at a nonzero position of the frame size's parity."""
    parity = len(steps) % 2
    spans = enumerate(segment_spans(steps), start=1)
    return next(s for s, (_, _, end) in spans if end and end % 2 == parity)


def oracle_distance(steps: str, segment: int, offset: int) -> int:
    return segment_spans(steps)[segment - 1][1] + offset


def oracle_gaps(steps: str, distances: list[int]) -> list[int]:
    return [steps[a:b].count("H") for a, b in zip(distances, distances[1:])]


def oracle_marks(steps: str, w: int, type1: bool) -> tuple[list[int], list[int]]:
    """``d`` and ``t`` of the marks the rules select, before any padding.

    Horizontal segment s takes rule 2 (even offsets) when s <= w and rule 1
    (every offset) beyond; with ``type1`` the first one, s_2, takes rule 3
    (offset 0 and the odd offsets).  An odd segment count appends the frame
    size to ``d``.
    """
    spans = segment_spans(steps)
    d = []
    for s, (direction, start, end) in enumerate(spans, start=1):
        if direction != "H":
            continue
        if type1 and s == 2:
            offsets = (0, *range(1, end - start, 2))
        else:
            offsets = range(0, end - start, 2 if s <= w else 1)
        d += [oracle_distance(steps, s, o) for o in offsets]
    if len(spans) % 2 == 1:
        d.append(len(steps))
    return d, oracle_gaps(steps, d)


def oracle_padded(diagram, w, type1):
    """The documented padded formula on the oracle marks: ``d+1``, ``e+2-t``.

    ``type1`` selects by rule 3 on s_2 and lowers the first ``e`` by one.
    The errors and their order are those of `lf_a` and `lf_b`.
    """
    if w < 0:
        raise DomainError(f"selection cutoff must be non-negative, got {w}")
    if type1 and len(segment_spans(diagram.steps)) < 2:
        raise DomainError(
            f"{diagram.steps!r} has no horizontal segment s_2; rule 3 has nowhere to apply"
        )
    d, t = oracle_marks(diagram.steps, w, type1)
    if not d:
        raise DomainError(
            f"selection on {diagram.steps!r} yields no tuple entries (empty frame)"
        )
    if type1 and not t:
        raise DomainError(
            f"type-1 construction needs k >= 1, got k = 0 for {diagram.steps!r}"
        )
    e = [x + 2 - ti for x, ti in zip(d, t)]
    if type1:
        e[0] -= 1
    return FlagDescriptor(diagram.n + 1, [x + 1 for x in d], e, t)


def oracle_unpadded(diagram):
    """Every mark selected (rule 1 everywhere), unpadded, at half rank ``n``."""
    if diagram.n < 1:
        raise DomainError(f"the K-theory descriptor needs frame size >= 1, got {diagram.n}")
    d, t = oracle_marks(diagram.steps, 0, False)
    return FlagDescriptor(diagram.n, d, d[:-1], t)


def check_tuples_against_oracle(diagram, data):
    spans = segment_spans(diagram.steps)
    if data.appended_n:
        assert data.d[-1] == diagram.n
    assert data.e == data.d[:-1]
    # every t entry is the H-count of the walk between consecutive d marks;
    # for the appended mark the tail of the walk is vertical, so the count
    # is unaffected by stopping at n rather than at the segment's end
    assert list(data.t) == oracle_gaps(diagram.steps, list(data.d))
    assert len(spans) % 2 == (1 if data.appended_n else 0)


# --------------------------------------------------------------------------
# selection rules


def test_rule_offsets():
    assert SelectionRule.ALL_POINTS.offsets(4) == (0, 1, 2, 3)
    assert SelectionRule.EVEN_POINTS.offsets(4) == (0, 2)
    assert SelectionRule.EVEN_POINTS.offsets(3) == (0, 2)
    assert SelectionRule.ODD_PLUS_FIRST.offsets(4) == (0, 1, 3)
    assert SelectionRule.ODD_PLUS_FIRST.offsets(1) == (0,)
    with pytest.raises(DomainError):
        SelectionRule.ALL_POINTS.offsets(0)


def test_rule_counts():
    # rule 1 keeps every point, rule 2 keeps the even half (rounded up),
    # rule 3 keeps the odd points plus the corner
    for length in range(1, 9):
        assert len(SelectionRule.ALL_POINTS.offsets(length)) == length
        assert len(SelectionRule.EVEN_POINTS.offsets(length)) == (length + 1) // 2
        assert len(SelectionRule.ODD_PLUS_FIRST.offsets(length)) == 1 + length // 2


def test_marked_points_examples():
    sel = marked_points(ShiftedDiagram(3, "HHH"), {2: SelectionRule.EVEN_POINTS})
    assert sel.points == ((2, 0), (2, 2))
    assert [oracle_distance("HHH", s, o) for s, o in sel.points] == [0, 2]

    sel = marked_points(ShiftedDiagram(2, "VH"), {2: SelectionRule.ALL_POINTS})
    assert sel.points == ((2, 0),)
    assert oracle_distance("VH", 2, 0) == 1

    sel = marked_points(ShiftedDiagram(3, "VVV"), {})
    assert sel.points == ()


def test_marked_points_rejects_bad_rule_maps():
    with pytest.raises(DomainError):
        marked_points(ShiftedDiagram(2, "VH"), {1: SelectionRule.ALL_POINTS, 2: SelectionRule.ALL_POINTS})
    with pytest.raises(DomainError):
        marked_points(ShiftedDiagram(2, "VH"), {4: SelectionRule.ALL_POINTS})
    with pytest.raises(DomainError):
        marked_points(ShiftedDiagram(2, "VH"), {})  # missing rule for s_2
    message = "^the rule for segment 2 must be a SelectionRule, got 1$"
    with pytest.raises(DomainError, match=message):
        marked_points(ShiftedDiagram(4, "HVHV"), {2: 1, 4: 1})


ALL = SelectionRule.ALL_POINTS
NOT_HORIZONTAL = "rules given for non-horizontal or out-of-range segments {}; " \
    "horizontal segments of 'HVHV' are [2, 4]"


@pytest.mark.parametrize(
    "rules, message",
    [
        ({2: ALL, 4: ALL, 11: ALL, 3: ALL}, NOT_HORIZONTAL.format("[3, 11]")),
        # keys that do not compare with each other are still named, integers first
        ({2: ALL, 4: ALL, "x": ALL, 3: ALL, (1,): ALL}, NOT_HORIZONTAL.format("[3, 'x', (1,)]")),
        (None, "rules must map segment indices to rules, got None"),
        ([(2, ALL)], f"rules must map segment indices to rules, got [(2, {ALL!r})]"),
        ("24", "rules must map segment indices to rules, got '24'"),
    ],
    ids=["integer-keys", "mixed-keys", "none", "pairs", "string"],
)
def test_marked_points_names_bad_rule_maps(rules, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        marked_points(ShiftedDiagram(4, "HVHV"), rules)


def test_selection_S_examples():
    sel = selection_S_tilde(ShiftedDiagram(2, "HH"), 2)
    assert [seg.to_json() for seg in sel.per_segment] == [
        {"segment": 2, "rule": "3", "offsets": [0, 1]}
    ]

    sel = selection_S(ShiftedDiagram(3, "HVH"), 2)
    assert [seg.to_json() for seg in sel.per_segment] == [
        {"segment": 2, "rule": "2", "offsets": [0]},
        {"segment": 4, "rule": "1", "offsets": [0]},
    ]

    assert selection_S(ShiftedDiagram(3, "VVV"), 2).points == ()
    assert selection_S(ShiftedDiagram(3, "VVV"), 0).points == ()


def test_selection_S_tilde_needs_horizontal_segment():
    with pytest.raises(DomainError):
        selection_S_tilde(ShiftedDiagram(3, "VVV"), 2)
    with pytest.raises(DomainError):
        selection_S(ShiftedDiagram(2, "HH"), -1)


# --------------------------------------------------------------------------
# tuples


def test_tuples_examples():
    d3 = ShiftedDiagram(3, "HHV")
    data = tuples(d3, selection_S(d3, 3))
    assert (data.d, data.e, data.t, data.appended_n) == ((0, 3), (0,), (2,), True)
    check_tuples_against_oracle(d3, data)

    d2 = ShiftedDiagram(2, "HH")
    data = tuples(d2, selection_S_tilde(d2, 2))
    assert (data.d, data.e, data.t, data.appended_n) == ((0, 1), (0,), (1,), False)
    check_tuples_against_oracle(d2, data)

    vv = ShiftedDiagram(2, "VV")
    data = tuples(vv, selection_S(vv, 1))
    assert (data.d, data.e, data.t, data.appended_n) == ((2,), (), (), True)
    check_tuples_against_oracle(vv, data)


def test_tuples_rejects_foreign_selection():
    sel = selection_S(ShiftedDiagram(2, "HH"), 2)
    with pytest.raises(DomainError):
        tuples(ShiftedDiagram(2, "VH"), sel)


@pytest.mark.parametrize("n", range(1, 9))
def test_tuples_against_oracle_exhaustive(n):
    for diagram in enumerate_diagrams(n):
        # the views at the basis's cutoffs, the last segment and the index
        cutoffs = (boundary(diagram).segment_count, classify(diagram).index_w)
        selections = [selection_S(diagram, w) for w in cutoffs]
        if diagram.steps[0] == "H":
            selections += [selection_S_tilde(diagram, w) for w in cutoffs]
        for sel in selections + [selection_S(diagram, 0)]:
            data = tuples(diagram, sel)
            check_tuples_against_oracle(diagram, data)
            assert all(ti in (1, 2) for ti in data.t)
            for j in range(data.k):
                assert data.d[j + 1] - data.d[j] >= data.t[j]


@pytest.mark.parametrize("n", range(2, 9))
def test_distance_tuples_under_deletions(n):
    assert dict(SUITES)["marking-tuples"](n) == (True, "")


def count_boundary_calls(monkeypatch, module):
    """Wrap ``module.boundary`` so that each call is recorded in the returned list."""
    calls = []
    real = module.boundary

    def counted(diagram):
        calls.append(diagram)
        return real(diagram)

    monkeypatch.setattr(module, "boundary", counted)
    return calls


def count_walk_reads(monkeypatch):
    """Wrap ``ShiftedDiagram.ends`` so that each walk it reads is recorded in a list."""
    reads = []
    real = ShiftedDiagram.ends.func

    def counted(diagram):
        reads.append(diagram)
        return real(diagram)

    counted_ends = cached_property(counted)
    counted_ends.__set_name__(ShiftedDiagram, "ends")
    monkeypatch.setattr(ShiftedDiagram, "ends", counted_ends)
    return reads


@pytest.mark.parametrize("n", range(1, 7))
def test_each_construction_reads_the_walk_once(monkeypatch, n):
    # the selection views read the diagram's ends and classify goes through
    # boundary; the walk is read once for them all
    walk_reads = count_walk_reads(monkeypatch)
    marking_calls = count_boundary_calls(monkeypatch, marking)
    diagram_calls = count_boundary_calls(monkeypatch, diagrams)
    for diagram in enumerate_diagrams(n):
        walk_reads.clear()
        l = boundary(diagram).segment_count
        builds = [
            lambda: lf_a(diagram, l),
            lambda: lf_ktheory(diagram),
            lambda: padded_scheme(diagram, l),
        ]
        if uses_type1(diagram):
            builds.append(lambda: lf_b(diagram, l))
        for build in builds:
            marking_calls.clear()
            build()
            assert marking_calls == []
        views = [lambda: selection_S(diagram, 1)]
        if "H" in diagram.steps:
            views.append(lambda: selection_S_tilde(diagram, 1))
        for view in views:
            marking_calls.clear()
            view()
            assert marking_calls == []
        sel = selection_S(diagram, 0)
        marking_calls.clear()
        tuples(diagram, sel)
        assert marking_calls == []
        diagram_calls.clear()
        classify(diagram)
        assert diagram_calls == [diagram]
        assert len(walk_reads) == 1 and walk_reads[0] is diagram


CONSTRUCTIONS = {
    "lf_a": lambda diagram: lf_a(diagram, diagram.n),
    "lf_b": lambda diagram: lf_b(diagram, diagram.n),
    "padded_scheme": lambda diagram: padded_scheme(diagram, diagram.n),
    "lf_ktheory": lf_ktheory,
}


@pytest.mark.parametrize("name", list(CONSTRUCTIONS))
def test_a_construction_leaves_the_diagram_without_ends(name):
    # every construction reads the steps, so a fresh diagram never computes its ends
    build = CONSTRUCTIONS[name]
    for n in range(1, 7):
        for diagram in enumerate_diagrams(n):
            outcome(lambda: build(diagram))
            assert "ends" not in vars(diagram), diagram.steps


@pytest.mark.parametrize("n", range(1, 7))
def test_the_basis_reads_no_walk_again(monkeypatch, n):
    # the bases and the families build each diagram from its walk's steps,
    # and no summand's construction reads its ends
    walk_reads = count_walk_reads(monkeypatch)
    summands = list(k_summands(n))
    for twist in Twist:
        summands.extend(gw_summands(n, twist))
    sets = class_sets(n)
    assert walk_reads == []
    assert [s for s in summands if "ends" in vars(s.source_diagram)] == []
    assert [d for d in sets.all_diagrams if "ends" in vars(d)] == []


# --------------------------------------------------------------------------
# descriptor constructions


def test_padded_descriptor_examples():
    hh = ShiftedDiagram(2, "HH")
    desc = lf_b(hh, 2)
    assert desc == FlagDescriptor(3, (1, 2), (0,), (1,))

    vh = ShiftedDiagram(2, "VH")
    desc = lf_a(vh, 2)
    assert desc == FlagDescriptor(3, (2,), (), ())

    hhv = ShiftedDiagram(3, "HHV")
    desc = lf_a(hhv, 3)
    assert desc == FlagDescriptor(4, (1, 4), (0,), (2,))


def test_lf_a_lf_b_examples():
    assert lf_a(ShiftedDiagram(3, "HHH"), 2) == FlagDescriptor(4, (1, 3), (0,), (2,))
    assert lf_b(ShiftedDiagram(2, "HV"), 3) == FlagDescriptor(3, (1, 3), (0,), (1,))
    assert lf_a(ShiftedDiagram(1, "V"), 1) == FlagDescriptor(2, (2,), (), ())


def test_lf_type1_needs_stratum():
    # rule 3 on the single-point segment of VH leaves one mark, so k = 0
    with pytest.raises(DomainError, match="needs k >= 1"):
        lf_b(ShiftedDiagram(2, "VH"), 1)
    with pytest.raises(DomainError, match="no horizontal segment s_2"):
        lf_b(ShiftedDiagram(2, "VV"), 1)


def outcome(build):
    """The built descriptor, or the type and message of the error raised."""
    try:
        return build()
    except LagflagError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", range(0, 9))
def test_constructions_match_the_selection_views(n):
    # the constructions read marks off the segment ends; the string-walk
    # oracle and the documented formulas must give the same descriptor or error
    for diagram in enumerate_diagrams(n):
        for w in range(boundary(diagram).segment_count + 3):
            for type1, build in ((False, lf_a), (True, lf_b)):
                assert outcome(lambda: build(diagram, w)) == outcome(
                    lambda: oracle_padded(diagram, w, type1)
                )
        assert outcome(lambda: lf_ktheory(diagram)) == outcome(
            lambda: oracle_unpadded(diagram)
        )


@pytest.mark.parametrize("n", range(1, 11))
def test_constructions_given_the_ends_match_those_that_read_them(n):
    # a construction gives the same descriptor or error on a diagram that holds
    # its ends as on one that never computes them, and the oracle's, at the
    # cuts the walk's class and the segment count give
    for steps, cls in enumerate_diagrams(n).walks():
        fresh, read = ShiftedDiagram(n, steps), ShiftedDiagram(n, steps)
        assert cls == classify(read)
        assert cls.index_w == oracle_index(steps)
        assert lf_ktheory(fresh) == lf_ktheory(read)
        for w in (0, cls.index_w, len(read.ends)):
            assert padded_scheme(fresh, w) == padded_scheme(read, w)
            for type1, build in ((False, lf_a), (True, lf_b)):
                built = outcome(lambda: build(fresh, w))
                assert built == outcome(lambda: build(read, w))
                assert built == outcome(lambda: oracle_padded(read, w, type1))
        assert "ends" not in vars(fresh)


@settings(max_examples=300, deadline=None)
@given(st.integers(9, 40).flatmap(lambda n: st.text("VH", min_size=n, max_size=n)))
def test_lf_ktheory_matches_the_selection_views_on_large_frames(steps):
    # beyond the enumerated frames: lf_ktheory reads d off the steps,
    # the oracle selects every mark on the walk and counts the gaps
    diagram = ShiftedDiagram(len(steps), steps)
    assert lf_ktheory(diagram) == oracle_unpadded(diagram)


@st.composite
def diagrams_and_cutoffs(draw):
    """A diagram of frame 9..40 and a cutoff from -1 to its segment count + 2."""
    n = draw(st.integers(9, 40))
    diagram = ShiftedDiagram(n, draw(st.text("VH", min_size=n, max_size=n)))
    return diagram, draw(st.integers(-1, boundary(diagram).segment_count + 2))


@settings(max_examples=300, deadline=None)
@given(diagrams_and_cutoffs())
def test_padded_constructions_match_the_selection_views_on_large_frames(case):
    # the frames point queries reach: lf_a and lf_b read their marks off the
    # segment ends in one loop, the oracle applies the rules on the walk;
    # each cutoff is checked beside the index, where K summands cut
    diagram, w = case
    for cutoff in (w, classify(diagram).index_w):
        for type1, build in ((False, lf_a), (True, lf_b)):
            assert outcome(lambda: build(diagram, cutoff)) == outcome(
                lambda: oracle_padded(diagram, cutoff, type1)
            )


def test_cutoff_must_be_a_plain_int():
    # rejected before any rule is read, so a bool cannot stand in for 0 or 1
    diagram = ShiftedDiagram(2, "HH")
    for build in (lf_a, lf_b, padded_scheme, selection_S, selection_S_tilde):
        for w in (True, False, 1.5, 2.0, "2"):
            message = re.escape(f"selection cutoff must be an integer, got {w!r}")
            with pytest.raises(DomainError, match=message):
                build(diagram, w)


def test_lf_ktheory_examples():
    assert lf_ktheory(ShiftedDiagram(2, "HH")) == FlagDescriptor(2, (0, 1), (0,), (1,))
    assert lf_ktheory(ShiftedDiagram(2, "HV")) == FlagDescriptor(2, (0, 2), (0,), (1,))
    assert lf_ktheory(ShiftedDiagram(2, "VV")) == FlagDescriptor(2, (2,), (), ())
    with pytest.raises(DomainError):
        lf_ktheory(ShiftedDiagram(0, ""))


@pytest.mark.parametrize("n", range(1, 9))
def test_ktheory_descriptors_are_regular_with_unit_t(n):
    for diagram in enumerate_diagrams(n):
        desc = lf_ktheory(diagram)
        assert desc.half_rank == n
        assert all(ti == 1 for ti in desc.t)
        assert desc.e == desc.d[: desc.k]
        assert desc.violations == ()  # no error, and e and t never decrease


@pytest.mark.parametrize("n", range(1, 9))
def test_constructed_descriptors_satisfy_gorenstein_gap(n):
    for diagram in enumerate_diagrams(n):
        l = boundary(diagram).segment_count
        descs = [lf_a(diagram, l)]
        # the basis engine only reaches for the type-1 scheme on even frames
        # with an empty right column, where a stratum always exists
        if diagram.steps[0] == "H" and n % 2 == 0:
            descs.append(lf_b(diagram, l))
        for desc in descs:
            assert validate(desc) == []
            for i in range(desc.k):
                gap = desc.d[i] - desc.e[i]
                assert 0 <= gap <= 1
        # type-0 gap identity: d' - e' = t - 1 entrywise
        a = lf_a(diagram, l)
        for i in range(a.k):
            assert a.d[i] - a.e[i] == a.t[i] - 1


def test_selection_json_shape():
    sel = selection_S(ShiftedDiagram(3, "HVH"), 2)
    payload = sel.to_json()
    assert payload == [
        {"segment": 2, "rule": "2", "offsets": [0]},
        {"segment": 4, "rule": "1", "offsets": [0]},
    ]
    data = tuples(ShiftedDiagram(3, "HVH"), sel)
    assert data.to_json() == {"d": [0, 2], "e": [0], "t": [1], "appended_n": False}
