"""Diagram enumeration, boundary decomposition and classification.

Derived expectations are frozen from independent oracles implemented here:
run-length decomposition via itertools.groupby and the index via a literal
cumulative scan.  The weight generating function, the deletion bijections
and the odd-frame partitions are checked by the suites of `lagflag.verify`.
"""

import re
from itertools import accumulate, groupby, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagflag import (
    Decomposition,
    DomainError,
    RowType,
    ShiftedDiagram,
    Twist,
    TwistVariant,
    WittTable,
    basis,
    boundary,
    class_sets,
    classify,
    counting,
    delete_right_column,
    delete_top_row,
    enumerate_diagrams,
    gw_basis,
    gw_summands,
    k_basis,
    k_summands,
    lf_ktheory,
    twist_alignment,
    verify,
    verify_geometry,
    verify_recursions,
    witt_table,
)
from lagflag.diagrams import Frame

SUITE = dict(verify.SUITES)

# --------------------------------------------------------------------------
# independent oracles


def oracle_runs(steps: str) -> list[tuple[str, int]]:
    runs = [(ch, len(list(grp))) for ch, grp in groupby(steps)]
    if steps and steps[0] == "H":
        runs.insert(0, ("V", 0))
    return runs


def oracle_index(n: int, lengths: list[int]) -> int:
    total = 0
    for t, length in enumerate(lengths, start=1):
        total += length
        if total != 0 and total % 2 == n % 2:
            return t
    raise AssertionError("index scan must terminate")


def oracle_class(n: int, steps: str) -> tuple[int, bool, bool, RowType]:
    """Index, almost even, K-even and row type of a walk, by the scan oracle."""
    lengths = [length for _, length in oracle_runs(steps)]
    index = oracle_index(n, lengths)
    row = RowType.FULL_TOP_ROW if steps[0] == "V" else RowType.EMPTY_RIGHT_COLUMN
    return index, index == len(lengths), index % 2 == 0, row


def oracle_steps(n: int, parts) -> str:
    """The walk whose step i (0-based) goes down exactly when row n - i is a part."""
    return "".join("V" if n - i in parts else "H" for i in range(n))


steps_strings = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.text(alphabet="VH", min_size=n, max_size=n))
)


# --------------------------------------------------------------------------
# enumeration and weight


def test_enumerate_empty_frame():
    diagrams = enumerate_diagrams(0)
    assert len(diagrams) == 1
    [empty] = diagrams
    assert empty.steps == ""
    assert empty.weight == 0


def test_enumerate_n2_part_sets():
    part_sets = [set(d.parts) for d in enumerate_diagrams(2)]
    assert part_sets == [{2, 1}, {2}, {1}, set()]


@pytest.mark.parametrize("n", range(0, 11))
def test_enumerate_counts_and_determinism(n):
    diagrams = enumerate_diagrams(n)
    assert len(diagrams) == 2**n
    assert len({d.steps for d in diagrams}) == 2**n
    assert [d.steps for d in diagrams] == [d.steps for d in enumerate_diagrams(n)]
    # lexicographic with V before H
    order = {"V": 0, "H": 1}
    keys = [[order[ch] for ch in d.steps] for d in diagrams]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", range(0, 11))
def test_frame_matches_the_eager_product(n):
    frame = enumerate_diagrams(n)
    oracle = [ShiftedDiagram(n, "".join(c)) for c in product("VH", repeat=n)]
    listed = list(frame)
    assert listed == oracle
    assert list(frame) == listed  # a second pass yields the same diagrams
    assert len(frame) == len(listed)


@pytest.mark.parametrize("n", range(1, 11))
def test_a_frame_is_its_v_half_then_its_h_half(n):
    frame = enumerate_diagrams(n)
    down, left = list(frame.half("V")), list(frame.half("H"))
    assert down + left == list(frame)
    assert {d.steps[0] for d in down} == {"V"} and {d.steps[0] for d in left} == {"H"}
    for cut in (False, True):
        walks = list(frame._walks(cut))
        assert list(frame._walks(cut, "V")) + list(frame._walks(cut, "H")) == walks


def test_a_half_needs_a_step_and_a_frame():
    # no next(): the arguments are checked on the call
    for first in ("", "v", "VH", None):
        with pytest.raises(DomainError, match="a half starts with 'V' or 'H'"):
            enumerate_diagrams(3).half(first)
    with pytest.raises(DomainError, match="frame size >= 1, got 0"):
        enumerate_diagrams(0).half("V")


def test_frame_size_cannot_be_changed_after_construction():
    # a frame's n was checked when it was built; a later -1 broke len, "x" iteration
    frame = enumerate_diagrams(3)
    for value in (-1, "x", 4):
        with pytest.raises(AttributeError):
            frame.n = value
    with pytest.raises(AttributeError):
        del frame.n
    with pytest.raises(AttributeError):
        frame.other = 1
    assert frame.n == 3 and len(frame) == 8 and len(list(frame)) == 8


def test_enumerate_limit_is_usage_error():
    with pytest.raises(DomainError):
        enumerate_diagrams(-1)
    assert len(enumerate_diagrams(17)) == 2**17


@pytest.mark.parametrize("entry", [enumerate_diagrams, class_sets], ids=lambda f: f.__name__)
def test_frame_size_must_be_a_plain_int(entry):
    # nothing is iterated: the call itself must reject the size
    for n in (True, False, 3.0, "3"):
        with pytest.raises(DomainError, match=f"frame size n must be an integer, got {n!r}"):
            entry(n)


HERMITIAN = "the Hermitian decomposition needs"

#: (entry point taking a frame size, least size, opening of the too-small message);
#: a diagram's size reaches classify and lf_ktheory through ShiftedDiagram
FRAME_SIZE_ENTRIES = {
    "ShiftedDiagram": (lambda n: ShiftedDiagram(n, ""), 0, "expected"),
    "enumerate_diagrams": (enumerate_diagrams, 0, "expected"),
    # unchecked, Frame(-1) failed in len(), Frame("0") when iterated, and len(Frame(True)) was 2
    "Frame": (Frame, 0, "expected"),
    "Frame.walks": (lambda n: enumerate_diagrams(n).walks(), 1, "classification needs"),
    "classify": (lambda n: classify(ShiftedDiagram(n, "")), 1, "classification needs"),
    "class_sets": (class_sets, 0, "expected"),
    "ClassSets.refine": (
        lambda n: class_sets(n).refine("U", "rc"), 2, "2-letter refinements need"
    ),
    "k_summands": (k_summands, 0, "expected"),
    "k_basis": (k_basis, 0, "expected"),
    "gw_summands": (lambda n: gw_summands(n, Twist.DELTA), 1, HERMITIAN),
    "gw_basis": (lambda n: gw_basis(n, Twist.TRIVIAL), 1, HERMITIAN),
    "witt_table": (lambda n: witt_table(n, Twist.DELTA), 1, HERMITIAN),
    "verify_recursions": (verify_recursions, 2, "the recursion identities need"),
    "verify_geometry": (verify_geometry, 1, "the geometry audit needs"),
    # the records check the size when built, as the functions that make them do
    "Decomposition": (lambda n: Decomposition(n, "O", "GW", ()), 0, "expected"),
    "WittTable": (lambda n: WittTable(n, "O", ((0, 1),), 0), 0, "expected"),
    "class_weights": (counting.class_weights, 1, "classification needs"),
    "gw_atoms": (lambda n: basis.gw_atoms(n, Twist.TRIVIAL), 1, HERMITIAN),
    "lf_ktheory": (lambda n: lf_ktheory(ShiftedDiagram(n, "")), 1, "the K-theory descriptor needs"),
    "twist_alignment": (
        lambda n: twist_alignment(ShiftedDiagram(2, "HH"), TwistVariant.XI0, n), 0, "expected"
    ),
}


@pytest.mark.parametrize("name", FRAME_SIZE_ENTRIES)
def test_every_frame_size_entry_point_checks_the_size_alike(name):
    # one check, one message form: a non-int size and the size below the bound
    entry, least, needs = FRAME_SIZE_ENTRIES[name]
    for n in (True, float(least), str(least)):
        message = f"frame size n must be an integer, got {n!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            entry(n)
    message = f"{needs} frame size >= {least}, got {least - 1}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        entry(least - 1)


def test_weight_examples():
    assert ShiftedDiagram(2, "VV").weight == 3
    assert ShiftedDiagram(5, "HHHHH").weight == 0
    for n in range(1, 7):
        assert ShiftedDiagram(n, "V" * n).weight == n * (n + 1) // 2


@pytest.mark.parametrize("n", range(0, 11))
def test_weight_generating_function(n):
    assert SUITE["counting"](n) == (True, "")


def test_parts_round_trip_examples():
    d = ShiftedDiagram(3, "VVH")
    assert d.parts == (3, 2)
    assert oracle_steps(3, (3, 2)) == d.steps


@given(steps_strings)
def test_parts_round_trip(nd):
    n, steps = nd
    d = ShiftedDiagram(n, steps)
    assert oracle_steps(n, d.parts) == steps


def test_steps_must_fill_the_frame_with_v_and_h():
    with pytest.raises(DomainError):
        ShiftedDiagram(3, "VV")
    with pytest.raises(DomainError):
        ShiftedDiagram(2, "VX")


# --------------------------------------------------------------------------
# boundary


def test_boundary_examples():
    assert boundary(ShiftedDiagram(2, "HH")).to_json() == [["V", 0], ["H", 2]]
    assert boundary(ShiftedDiagram(3, "VVH")).to_json() == [["V", 2], ["H", 1]]
    assert boundary(ShiftedDiagram(1, "V")).to_json() == [["V", 1]]
    assert boundary(ShiftedDiagram(0, "")).segments == ()


@pytest.mark.parametrize("n", range(0, 9))
def test_boundary_against_run_oracle(n):
    for d in enumerate_diagrams(n):
        b = boundary(d)
        assert [list(seg) for seg in b.segments] == [
            [c, ln] for c, ln in oracle_runs(d.steps)
        ]
        assert sum(b.lengths) == n
        for idx, (step, length) in enumerate(b.segments, start=1):
            assert (step == "V") == (idx % 2 == 1)
            if idx >= 2:
                assert length >= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.text("VH", min_size=n, max_size=n)))
def test_boundary_matches_the_run_oracle_on_large_frames(steps):
    b = boundary(ShiftedDiagram(len(steps), steps))
    runs = oracle_runs(steps)
    lengths = tuple(ln for _, ln in runs)
    assert b.ends == tuple(accumulate(lengths))
    assert b.segments == tuple(runs)
    assert b.lengths == lengths
    assert b.segment_count == len(runs)
    assert b.to_json() == [[c, ln] for c, ln in runs]


def test_cached_ends_are_invisible():
    # the ends a diagram keeps once read are no field: a read diagram and an
    # unread one compare, hash, print and serialise alike
    read, unread = ShiftedDiagram(5, "HVVHH"), ShiftedDiagram(5, "HVVHH")
    ends = read.ends
    assert ends == (0, 1, 3, 5)
    assert read.ends is ends
    assert repr(read) == repr(unread)
    assert read == unread and hash(read) == hash(unread)
    assert read.to_json() == unread.to_json()
    assert ShiftedDiagram(read.n, "VVHHV").ends == (2, 4, 5)
    assert boundary(read).ends == read.ends


# --------------------------------------------------------------------------
# classification


def test_classify_examples():
    c = classify(ShiftedDiagram(2, "VH"))
    assert (c.index_w, c.is_almost_even, c.is_k_even) == (2, True, True)
    assert c.row_type is RowType.FULL_TOP_ROW

    c = classify(ShiftedDiagram(3, "VHV"))
    assert (c.index_w, c.is_almost_even, c.is_k_even) == (1, False, False)

    c = classify(ShiftedDiagram(3, "HHH"))
    assert (c.index_w, c.is_almost_even, c.is_k_even) == (2, True, True)
    assert c.row_type is RowType.EMPTY_RIGHT_COLUMN


@pytest.mark.parametrize("n", range(1, 9))
def test_classify_against_scan_oracle(n):
    for d in enumerate_diagrams(n):
        b = boundary(d)
        c = classify(d)
        assert c.index_w == oracle_index(n, list(b.lengths))
        assert c.is_almost_even == (c.index_w == b.segment_count)
        assert c.is_k_even == (c.index_w % 2 == 0)
        assert (c.row_type is RowType.FULL_TOP_ROW) == (d.steps[0] == "V")


def test_classify_rejects_empty_frame():
    with pytest.raises(DomainError):
        classify(ShiftedDiagram(0, ""))


@pytest.mark.parametrize("n", range(1, 15))
def test_walks_match_boundary_and_classify(n):
    # classify shares the walk's class rule, so the scan oracle checks the class
    frame = enumerate_diagrams(n)
    walks = list(frame.walks())
    assert [steps for steps, _ in walks] == [d.steps for d in frame]
    for steps, cls in walks:
        assert cls == classify(ShiftedDiagram(n, steps))
        read = (cls.index_w, cls.is_almost_even, cls.is_k_even, cls.row_type)
        assert read == oracle_class(n, steps)


def test_walks_reject_empty_frame():
    # no next(): the frame is checked on the call
    with pytest.raises(DomainError, match="frame size >= 1, got 0"):
        enumerate_diagrams(0).walks()


@given(steps_strings.filter(lambda nd: nd[0] >= 1))
def test_classify_invariant_under_round_trip(nd):
    n, steps = nd
    d = ShiftedDiagram(n, steps)
    assert classify(ShiftedDiagram(n, oracle_steps(n, d.parts))) == classify(d)


# --------------------------------------------------------------------------
# deletions


def test_deletion_examples():
    assert delete_top_row(ShiftedDiagram(3, "VVH")) == ShiftedDiagram(2, "VH")
    assert delete_right_column(ShiftedDiagram(3, "HVV")) == ShiftedDiagram(2, "VV")
    assert delete_top_row(ShiftedDiagram(1, "V")) == ShiftedDiagram(0, "")


def test_deletion_tuple_forms():
    # parts (3,2) -> (2) under row deletion, (2,1) -> (2,1) under column deletion
    assert delete_top_row(ShiftedDiagram(3, "VVH")).parts == (2,)
    assert delete_right_column(ShiftedDiagram(3, "HVV")).parts == (2, 1)


def test_deletion_errors_name_row_type():
    with pytest.raises(DomainError, match="FullTopRow"):
        delete_top_row(ShiftedDiagram(2, "HV"))
    with pytest.raises(DomainError, match="EmptyRightColumn"):
        delete_right_column(ShiftedDiagram(2, "VH"))
    with pytest.raises(DomainError):
        delete_top_row(ShiftedDiagram(0, ""))


@pytest.mark.parametrize("n", range(1, 10))
def test_deletions_are_bijections(n):
    assert SUITE["deletion-bijections"](n) == (True, "")


# the same suite checks how the weight changes under each deletion
test_deletion_weight_relations = test_deletions_are_bijections


# --------------------------------------------------------------------------
# class families


def test_class_sets_n1():
    sets = class_sets(1)
    assert [d.steps for d in sets.almost_even] == ["V", "H"]
    assert [d.steps for d in sets.k_even] == ["H"]


def test_class_sets_n2():
    sets = class_sets(2)
    assert len(sets.almost_even) == 4
    assert [d.steps for d in sets.k_even] == ["VH", "HH"]
    assert [d.steps for d in sets.refine("A", "c")] == ["HV", "HH"]
    k_even_not_ar = [
        d.steps for d in sets.k_even if d not in set(sets.refine("A", "r"))
    ]
    assert k_even_not_ar == ["HH"]


def test_class_sets_n3():
    sets = class_sets(3)
    assert [d.steps for d in sets.k_even] == ["VVH", "HVV", "HVH", "HHH"]
    assert [d.steps for d in sets.refine("E", "rr")] == ["VVH"]
    assert [d.steps for d in sets.refine("E", "cr")] == ["HVV", "HVH"]
    assert [d.steps for d in sets.refine("E", "cc")] == ["HHH"]
    assert sorted(d.weight for d in sets.almost_even) == [0, 1, 5, 6]


@pytest.mark.parametrize("n", range(0, 13))
def test_class_sets_split_the_frame_as_classify_does(n):
    # class_sets reads each walk's class, which classify shares; the scan
    # oracle is the independent split
    sets = class_sets(n)
    frame = list(enumerate_diagrams(n))
    assert sets.all_diagrams == tuple(frame)
    if n == 0:  # the empty frame lies in every family
        assert sets.almost_even == sets.k_even == tuple(frame)
        return
    classes = [oracle_class(n, d.steps) for d in frame]
    assert sets.almost_even == tuple(d for d, c in zip(frame, classes) if c[1])
    assert sets.k_even == tuple(d for d, c in zip(frame, classes) if c[2])


def test_class_sets_n0_convention():
    sets = class_sets(0)
    assert sets.all_diagrams == sets.almost_even == sets.k_even
    assert len(sets.all_diagrams) == 1


@pytest.mark.parametrize("n", range(3, 10, 2))
def test_odd_frame_partitions(n):
    assert SUITE["class-partitions"](n) == (True, "")


@pytest.mark.parametrize("n", range(3, 10, 2))
def test_two_letter_deletion_bijections(n):
    assert SUITE["deletion-bijections"](n) == (True, "")


def test_refine_rejects_bad_input():
    sets = class_sets(1)
    with pytest.raises(DomainError):
        sets.refine("A", "rr")  # frame too small
    with pytest.raises(DomainError):
        sets.refine("X")
    with pytest.raises(DomainError):
        sets.refine("A", "q")
    for letters in (5, None, ["r"]):  # letters that are not a string
        with pytest.raises(DomainError, match="refinement letters must be 'r' or 'c'"):
            sets.refine("A", letters)


def test_diagram_json():
    assert ShiftedDiagram(3, "VVH").to_json() == {
        "n": 3,
        "steps": "VVH",
        "parts": [3, 2],
        "weight": 5,
    }
