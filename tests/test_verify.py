"""The suites of `lagflag.verify` see a broken identity, at the top of their range.

The other test files delegate to these suites, so a suite that looped over
an empty or shortened range would pass them vacuously.  Each case breaks one
library function on its module, only at the largest frame or the last case
a delegating test relies on, and expects the suite to fail there and name it.
Some cases break what only one check of their suite catches, so that check
cannot stop checking unseen.
"""

from collections import Counter

import pytest

from lagflag import basis, counting, diagrams, flags, marking, picard, verify
from lagflag.errors import DomainError

SUITE = dict(verify.SUITES)


def _drop_last_at_16(real):
    return lambda n: list(real(n))[:-1] if n == 16 else real(n)


def _empty_segments_at_12(real):
    # zero-length segments leave the run concatenation intact; only the ends show them
    walk = diagrams.ShiftedDiagram(12, "H" * 12)
    return lambda d: diagrams.Boundary((0, 0, 0, 12)) if d == walk else real(d)


def _repeat_a_walk_at_16(real):
    # parts 16 + 13 and 15 + 14 weigh the same, so the count and weights stay right
    walk, twin = (diagrams.ShiftedDiagram(16, s + "V" * 12) for s in ("VHHV", "HVVH"))
    return lambda n: [walk if d == twin else d for d in real(n)] if n == 16 else real(n)


def _flipped_segments_at_12(real):
    # the ends stay right; only the (step, length) pairs read off them are wrong
    def segments(b):
        pairs = real.fget(b)
        return tuple((diagrams.DOWN, ln) for _, ln in pairs) if b.ends == (0, 12) else pairs

    return property(segments)


def _extra_almost_even_at_9(real):
    def class_sets(n):
        sets = real(n)
        if n != 9:
            return sets
        extra = next(d for d in sets.all_diagrams if d.steps.startswith("VH"))
        return diagrams.ClassSets(n, sets.all_diagrams, sets.almost_even + (extra,), sets.k_even)

    return class_sets


def _collide_at_12(real):
    collide = diagrams.ShiftedDiagram(12, "H" * 12)
    other = diagrams.ShiftedDiagram(12, "HV" + "H" * 10)
    return lambda d: real(other) if d == collide else real(d)


def _trade_images_at_7(first, second):
    # a bijection still, but the heavier diagram, met first, gets the lighter image
    a, b = diagrams.ShiftedDiagram(7, first), diagrams.ShiftedDiagram(7, second)
    return lambda real: lambda d: real(b) if d == a else real(a) if d == b else real(d)


def _repeated_source_at_12(real):
    # every target is still hit; only the repeat in the source shows
    def class_sets(n):
        sets = real(n)
        if n != 12:
            return sets
        doubled = sets.all_diagrams + sets.all_diagrams[:1]
        return diagrams.ClassSets(n, doubled, sets.almost_even, sets.k_even)

    return class_sets


def _shift_distances_at_8(real):
    def lf_ktheory(d):
        desc = real(d)
        if d.steps != "H" * 8:
            return desc
        return flags.FlagDescriptor(desc.half_rank, (1,) + desc.d[1:], desc.e, desc.t)

    return lf_ktheory


def _off_by_one_at_half_rank(half_rank):
    return lambda real: lambda desc: real(desc) + (desc.half_rank == half_rank)


def _doubled_at_half_rank_8(real):
    return lambda desc: real(desc) * (2 if desc.half_rank == 8 else 1)


def _not_gorenstein_at_half_rank_9(real):
    # only a frame-8 padded scheme has half rank 9
    return lambda desc: real(desc) and desc.half_rank != 9


def _off_by_one_when_raised_at_half_rank_6(real):
    return lambda desc: real(desc) + (desc.half_rank == 6 and desc.e[:1] == desc.d[:1])


def _wrong_third_golden(real):
    def canonical_sheaf_in_n(d, e, t):
        items = real(d, e, t).items()
        return picard.PicElement([*items, (picard.E1, 1)] if d == (0, 2) else items)

    return canonical_sheaf_in_n


def _misaligned_at_8(real):
    def scheme_alignment(d, scheme):
        result = real(d, scheme)
        if d.steps != "H" * 8:
            return result
        zero = picard.ParityClass.zero()
        return picard.AlignmentResult(False, result.parity, zero, result.scheme)

    return scheme_alignment


def _extra_atom_at_10(real):
    def atoms(n):
        by_twist = real(n)
        if n == 10:
            by_twist[picard.Twist.TRIVIAL] += Counter({("GW", 99): 1})
        return by_twist

    return atoms


def _wrong_case_at_10(real):
    split = picard.ConnectingCase.SPLIT_CASE_I
    return lambda n, c2, lam1, lam2: split if n == 10 else real(n, c2, lam1, lam2)


CASES = [
    ("counting", 16, diagrams, "enumerate_diagrams", _drop_last_at_16,
     "frame 16: 65535 diagrams, expected 65536"),
    ("counting", 16, diagrams, "enumerate_diagrams", _repeat_a_walk_at_16,
     "frame 16: duplicate diagrams"),
    ("boundary-structure", 12, diagrams, "boundary", _empty_segments_at_12,
     "HHHHHHHHHHHH: segment ends [0, 0, 0, 12], expected [0, 12]"),
    ("boundary-structure", 12, diagrams.Boundary, "segments", _flipped_segments_at_12,
     "HHHHHHHHHHHH: boundary does not reconcatenate"),
    ("class-partitions", 9, diagrams, "class_sets", _extra_almost_even_at_9,
     "frame 9: A is not A^rr + A^cc"),
    ("deletion-bijections", 12, diagrams, "delete_right_column", _collide_at_12,
     "frame 12: column deletion is not a bijection"),
    ("deletion-bijections", 12, diagrams, "class_sets", _repeated_source_at_12,
     "frame 12: row deletion is not a bijection onto frame 11"),
    # each pair lies in the same two-step families, so only the weight rules see the trade
    ("deletion-bijections", 7, diagrams, "delete_top_row",
     _trade_images_at_7("VHVVVVV", "VHVVVVH"),
     "VHVVVVV: weight does not drop by 7 under row deletion"),
    ("deletion-bijections", 7, diagrams, "delete_right_column",
     _trade_images_at_7("HVVVVVV", "HVVVVVH"),
     "HVVVVVV: weight changes under column deletion"),
    ("marking-tuples", 8, marking, "lf_ktheory", _shift_distances_at_8,
     "HHHHHHHH: column deletion breaks distances"),
    ("descriptor-dimensions", 8, flags, "relative_dimension", _off_by_one_at_half_rank(8),
     "VVVVVVVV: K-theory scheme dimension is off"),
    ("descriptor-dimensions", 8, flags, "component_count", _doubled_at_half_rank_8,
     "VVVVVVVV: K-theory scheme is not irreducible"),
    ("dimension-e-independence", 6, flags, "relative_dimension",
     _off_by_one_when_raised_at_half_rank_6,
     "LF[1,1](0)_[1]@6: dimension changed when raising e_0"),
    ("canonical-goldens", 3, picard, "canonical_sheaf_in_n", _wrong_third_golden,
     "canonical sheaf of d=(0, 2), e=(0,), t=(2,) is "),
    ("twist-alignment", 8, picard, "scheme_alignment", _misaligned_at_8,
     "HHHHHHHH: parity Delta(0), required 0"),
    ("recursions", 10, basis, "_counted", _extra_atom_at_10,
     "frame 10 twist O: counted and enumerated atoms differ at ('GW', 99)"),
    # verify_geometry calls the binding in basis, which a patch on picard does not reach
    ("geometry", 8, basis, "scheme_alignment", _misaligned_at_8,
     "frame 8: O/xi0(HHHHHHHH): twist parity Delta(0), required 0"),
    ("geometry", 8, basis, "is_gorenstein", _not_gorenstein_at_half_rank_9,
     "frame 8: O/mu0(VVVVVVVH): descriptor is not Gorenstein"),
    ("geometry", 8, basis, "relative_dimension", _off_by_one_at_half_rank(9),
     "frame 8: O/xi0(HVVVVVVV): dimension 9, expected 8"),
    ("connecting-case-table", 10, picard, "classify_connecting", _wrong_case_at_10,
     "n=10 twist=O: got SplitCaseI"),
]


def _case_ids(cases):
    """Each case by its suite; a later case of the same suite adds the function it breaks."""
    seen = set()
    ids = []
    for suite, _, _, name, _, _ in cases:
        ids.append(f"{suite}-{name}" if suite in seen else suite)
        seen.add(suite)
    return ids


@pytest.mark.parametrize("suite,max_n,module,name,breaker,detail", CASES, ids=_case_ids(CASES))
def test_suite_fails_at_the_top_of_its_range(
    monkeypatch, suite, max_n, module, name, breaker, detail
):
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    ok, got = SUITE[suite](max_n)
    assert not ok
    assert got.startswith(detail)


# (suite, top frame, module, function, the frame a call of the function is at)
FRAME_ERRORS = [
    ("counting", 16, diagrams, "enumerate_diagrams", lambda n: n),
    ("boundary-structure", 12, diagrams, "boundary", lambda d: d.n),
    ("class-partitions", 11, diagrams, "class_sets", lambda n: n),
    ("deletion-bijections", 12, diagrams, "delete_top_row", lambda d: d.n),
    ("dimension-e-independence", 6, flags, "relative_dimension", lambda desc: desc.half_rank),
    ("recursions", 10, basis, "_counted", lambda n: n),
    ("geometry", 8, basis, "verify_geometry", lambda n: n),
    ("connecting-case-table", 10, picard, "classify_connecting", lambda n, c2, lam1, lam2: n),
]


@pytest.mark.parametrize(
    "suite,top,module,name,frame_of", FRAME_ERRORS, ids=[case[0] for case in FRAME_ERRORS]
)
def test_suite_names_the_frame_of_a_library_error(monkeypatch, suite, top, module, name, frame_of):
    real = getattr(module, name)

    def broken(*args):
        if frame_of(*args) == top:
            raise DomainError("broken here")
        return real(*args)

    monkeypatch.setattr(module, name, broken)
    assert SUITE[suite](top) == (False, f"frame {top}: broken here")


def test_marking_tuples_checks_the_padded_schemes(monkeypatch):
    # the CASES row breaks the unpadded distances; this breaks a padded scheme's t
    broken = "H" * 10
    real = marking.padded_scheme

    def padded_scheme(diagram, w, **kwargs):
        desc = real(diagram, w, **kwargs)
        if diagram.steps != broken:
            return desc
        return flags.FlagDescriptor(desc.half_rank, desc.d, desc.e, (3,) + desc.t[1:])

    monkeypatch.setattr(marking, "padded_scheme", padded_scheme)
    assert SUITE["marking-tuples"](10) == (False, f"{broken}: t entries outside {{1,2}}")


def test_deletion_bijections_builds_each_frame_once_per_run(monkeypatch):
    built = []
    real = diagrams.class_sets

    def class_sets(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(diagrams, "class_sets", class_sets)
    for _ in range(2):  # a second run builds its own, so no run reads another's
        built.clear()
        assert SUITE["deletion-bijections"](8) == (True, "")
        assert sorted(built) == list(range(0, 9))


def _counted_constructions(monkeypatch):
    """A list that grows by one on every `FlagDescriptor` construction, rejected ones too."""
    built = []
    real = flags.FlagDescriptor.__init__

    def init(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(flags.FlagDescriptor, "__init__", init)
    return built


def test_marking_tuples_builds_one_padded_scheme_where_the_cuts_coincide(monkeypatch):
    # per walk: the K scheme, one per deletion check, and the padded scheme
    # at each distinct cut; the two cuts coincide on the 90 almost even
    # walks of frames 1..8
    built = _counted_constructions(monkeypatch)
    assert SUITE["marking-tuples"](8) == (True, "")
    assert len(built) == 1948


def test_recursions_count_enumerated_atoms_without_building_a_scheme(monkeypatch):
    built = _counted_constructions(monkeypatch)
    assert SUITE["recursions"](8) == (True, "")
    assert built == []


def test_dimension_e_independence_builds_each_compared_descriptor_once(monkeypatch):
    # each e_0 = d_0 - 1 candidate with d_0 >= 1 and, when it is valid, its
    # raise; the k = 0, gap-0 and e_0 = -1 candidates and a second build of
    # the raise are gone
    built = _counted_constructions(monkeypatch)
    assert SUITE["dimension-e-independence"](6) == (True, "")
    assert len(built) == 2042
    assert len(set(built)) == len(built)


def test_recursion_identities_run_one_counting_pass_per_frame(monkeypatch):
    calls = []
    real = counting.class_weights
    monkeypatch.setattr(counting, "class_weights", lambda n: calls.append(n) or real(n))
    assert basis.verify_recursions(14).passed
    assert sorted(calls) == [13, 14]


def test_recursions_suite_runs_one_counting_pass_per_frame(monkeypatch):
    # frames 2..8 and frame 1, which frame 2 goes back to; both twists and
    # both checks of a frame, and the later frames that go back to it, share it
    calls = []
    real = counting.class_weights
    monkeypatch.setattr(counting, "class_weights", lambda n: calls.append(n) or real(n))
    for _ in range(2):  # a second run counts its own, so no run reads another's
        calls.clear()
        assert SUITE["recursions"](8) == (True, "")
        assert sorted(calls) == list(range(1, 9))


# each framed suite's first frame; `canonical-goldens` has no frames
FIRST_FRAME = {
    "counting": 0,
    "boundary-structure": 0,
    "class-partitions": 3,
    "deletion-bijections": 1,
    "marking-tuples": 1,
    "descriptor-dimensions": 1,
    "dimension-e-independence": 1,
    "twist-alignment": 1,
    "recursions": 2,
    "geometry": 1,
    "connecting-case-table": 2,
}


def test_every_suite_but_the_goldens_is_framed():
    assert set(SUITE) - set(FIRST_FRAME) == {"canonical-goldens"}


@pytest.mark.parametrize("suite,first", FIRST_FRAME.items(), ids=list(FIRST_FRAME))
def test_a_suite_fails_when_no_frame_is_in_range(suite, first):
    for max_n in {-1, first - 1}:
        assert SUITE[suite](max_n) == (
            False,
            f"no frame to check: the suite starts at frame {first}, max_n is {max_n}",
        )
    assert SUITE[suite](first) == (True, "")
