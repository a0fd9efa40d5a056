"""The one memo that turns every written integer into text (`lagflag.text`)."""

import pytest

from lagflag import DomainError, FlagDescriptor, enumerate_diagrams, marking
from lagflag.diagrams import classify
from lagflag.text import CACHED_BELOW, text


def test_text_is_str_of_every_integer():
    for i in range(-5, 5001):
        assert text(i) == str(i)
        assert text(i) == str(i)  # again, now from the memo where it was kept
    huge = 7**200
    assert text(huge) == str(huge)


def test_memo_keeps_only_small_nonnegative_ints():
    memo = type(text.__self__)()  # an empty table of the memo's class
    for value in (True, False, 1.0, 2.5, -1, CACHED_BELOW, 7**200):
        assert memo[value] == str(value)
    assert len(memo) == 0
    assert (memo[0], memo[CACHED_BELOW - 1]) == ("0", str(CACHED_BELOW - 1))
    assert sorted(memo) == [0, CACHED_BELOW - 1]
    # a bool or float equal to a kept int finds its entry: why text takes checked ints only
    assert memo[False] == "0"


@pytest.mark.parametrize("unchecked", [True, 1.0])
def test_a_rejected_value_leaves_the_memo_as_it_was(unchecked):
    # the rejection message names the value in plain str, so it neither reads
    # a kept 1 as "1" nor keeps its own text under the key 1
    assert text(1) == "1"  # kept whatever ran before
    with pytest.raises(DomainError) as info:
        FlagDescriptor(7, (unchecked,), (), ())
    assert str(info.value) == (
        f"descriptor values must be integers, got {unchecked!r} in LF[{unchecked}]()_[]@7"
    )
    assert str(FlagDescriptor(3, (1,), (), ())) == "LF[1]()_[]@3"
    assert text(1) == "1"


def _descriptor_text(desc):
    """The descriptor's text form written out with ``str``, independent of the memo."""
    d, e, t = (",".join(map(str, values)) for values in (desc.d, desc.e, desc.t))
    return "LF[" + d + "](" + e + ")_[" + t + "]@" + str(desc.half_rank)


def test_descriptor_text_matches_its_formula_on_every_basis_scheme():
    # every K scheme and the padded scheme at both cuts the basis and verify use
    checked = 0
    for n in range(1, 11):
        for diagram in enumerate_diagrams(n):
            cuts = {len(diagram.ends), classify(diagram).index_w}
            schemes = [marking.lf_ktheory(diagram)]
            schemes += [marking.padded_scheme(diagram, w) for w in cuts]
            for desc in schemes:
                assert str(desc) == _descriptor_text(desc)
                checked += 1
    assert checked == 5952  # 2,046 K schemes and 3,906 padded ones
