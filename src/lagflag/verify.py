"""The exact verification suites that ``lagflag verify`` runs.

Each suite checks one identity of the paper and returns ``(ok, detail)``:
on failure, ``detail`` names the first frame, diagram, descriptor or case
that broke.  `SUITES` lists the suites by name, in the order ``verify`` runs
them, and is the one place that states each suite's range of frames: every
suite but ``canonical-goldens`` is a per-frame check run by `_frames`.  A
library error raised at a frame fails the suite, named by the walk it hit
(``marking-tuples``, ``descriptor-dimensions``, ``twist-alignment``) or by
the frame.

Library functions are called through their modules (``diagrams.boundary``,
not a ``from`` import), so a wrapper or test double installed on a module is
the one the suites call.

A suite builds only what its checks read.  ``recursions`` compares the
atoms that `basis._counted` folds from one `counting.class_weights` pass per
frame with `basis.walk_atoms`, which reads each walk's role and shift and
builds no scheme; the schemes themselves are checked by ``marking-tuples``
(frames 1..10) and ``geometry`` (frames 1..8).
``dimension-e-independence`` builds each descriptor it compares once.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations_with_replacement, groupby, product
from math import comb

from . import basis, diagrams, flags, marking, picard
from .errors import DescriptorError, LagflagError


def _frames(first: int, last: int, check, step: int = 1):
    """The suite that runs ``check(n)`` on frames ``first`` to ``min(max_n, last)``.

    ``check`` returns ``""`` for a frame that passes, else the suite's
    detail; a library error it raises at frame ``n`` becomes the detail
    ``frame <n>: <message>``.  A ``max_n`` below ``first`` leaves no frame
    to check, and fails rather than pass vacuously.
    """

    def suite(max_n: int) -> tuple[bool, str]:
        if max_n < first:
            return False, f"no frame to check: the suite starts at frame {first}, max_n is {max_n}"
        for n in range(first, min(max_n, last) + 1, step):
            try:
                detail = check(n)
            except LagflagError as exc:
                detail = f"frame {n}: {exc}"
            if detail:
                return False, detail
        return True, ""

    return suite


def _genfunc_coefficients(n: int) -> list[int]:
    """Coefficients of the weight generating function prod_{i=1..n} (1 + q**i)."""
    poly = [1]
    for i in range(1, n + 1):
        poly = [a + b for a, b in zip(poly + [0] * i, [0] * i + poly)]
    return poly


def _counting(n: int) -> str:
    # count what iteration yields: the frame's own length is declared, not counted
    steps, counts = set(), Counter()
    for d in diagrams.enumerate_diagrams(n):
        steps.add(d.steps)
        counts[d.weight] += 1
    total = counts.total()
    if total != 2**n:
        return f"frame {n}: {total} diagrams, expected {2 ** n}"
    if len(steps) != total:
        return f"frame {n}: duplicate diagrams"
    expected = _genfunc_coefficients(n)
    if [counts.get(w, 0) for w in range(len(expected))] != expected:
        return f"frame {n}: weight generating function mismatch"
    return ""


def _boundary(n: int) -> str:
    for d in diagrams.enumerate_diagrams(n):
        b = diagrams.boundary(d)
        # oracle: the ends of the walk's runs, after an empty run if it starts with H
        expected = list(accumulate(len(list(run)) for _, run in groupby(d.steps)))
        if d.steps.startswith(diagrams.LEFT):
            expected.insert(0, 0)
        if list(b.ends) != expected:
            return f"{d.steps}: segment ends {list(b.ends)}, expected {expected}"
        # round trip: concatenating the runs recovers the walk
        if "".join(step * ln for step, ln in b.segments) != d.steps:
            return f"{d.steps}: boundary does not reconcatenate"
    return ""


def _class_partitions(n: int) -> str:
    sets = diagrams.class_sets(n)
    a = set(sets.refine("A"))
    if a != set(sets.refine("A", "rr")) | set(sets.refine("A", "cc")):
        return f"frame {n}: A is not A^rr + A^cc"
    e = set(sets.refine("E"))
    if e != set().union(*(sets.refine("E", letters) for letters in ("rr", "cr", "cc"))):
        return f"frame {n}: E is not E^rr + E^cr + E^cc"
    return ""


def _check_bijection(source, target, op):
    image = [op(d) for d in source]
    return len(set(image)) == len(image) and set(image) == set(target)


def _last_three(build):
    """``build``, keeping what it built for the last three frames it was asked for.

    A per-frame check whose frame ``n`` reads frames ``n`` to ``n - 2`` then
    builds each frame once per run.  It drops frame ``n - 3`` when it builds
    frame ``n``, not the least recently read frame.
    """
    kept: dict = {}

    def built(n: int):
        if n not in kept:
            kept.pop(n - 3, None)
            kept[n] = build(n)
        return kept[n]

    return built


def _bijections():
    """A new deletion-bijections check, for one suite run.

    Frame ``n`` reads the ClassSets of frames ``n`` to ``n - 2``, and the
    run builds each frame's once.
    """
    class_sets = _last_three(diagrams.class_sets)

    def check(n: int) -> str:
        top = diagrams.delete_top_row
        col = diagrams.delete_right_column
        sets, prev = class_sets(n), class_sets(n - 1)
        if not _check_bijection(sets.refine("U", "r"), prev.all_diagrams, top):
            return f"frame {n}: row deletion is not a bijection onto frame {n - 1}"
        if not _check_bijection(sets.refine("U", "c"), prev.all_diagrams, col):
            return f"frame {n}: column deletion is not a bijection"
        for d in sets.refine("U", "r"):
            if d.weight != top(d).weight + n:
                return f"{d.steps}: weight does not drop by {n} under row deletion"
        for d in sets.refine("U", "c"):
            if d.weight != col(d).weight:
                return f"{d.steps}: weight changes under column deletion"
        if n < 3 or n % 2 == 0:  # the two-step deletions act on the odd frames from 3
            return ""
        prev2 = class_sets(n - 2)
        pairs = [
            ("E", "rr", prev2.refine("E"), lambda d: top(top(d))),
            ("E", "cr", prev2.all_diagrams, lambda d: top(col(d))),
            ("E", "cc", prev2.refine("E"), lambda d: col(col(d))),
            ("A", "rr", prev2.refine("A"), lambda d: top(top(d))),
            ("A", "cc", prev2.refine("A"), lambda d: col(col(d))),
        ]
        for family, letters, target, op in pairs:
            if not _check_bijection(sets.refine(family, letters), target, op):
                return f"frame {n}: {family}^{letters} deletion is not a bijection"
        return ""

    return check


def _each_walk(problem):
    """The per-frame check that fails at the first walk of the frame with a problem.

    ``problem(diagram, cls)`` gets each walk's diagram and class and returns
    ``""`` for a walk that passes; a library error it raises is that walk's
    problem too.  The detail names the walk by its steps.
    """

    def check(n: int) -> str:
        for steps, cls in diagrams.enumerate_diagrams(n).walks():
            try:
                found = problem(diagrams.ShiftedDiagram(n, steps), cls)
            except LagflagError as exc:
                found = str(exc)
            if found:
                return f"{steps}: {found}"
        return ""

    return check


def _marking_problem(diagram: diagrams.ShiftedDiagram, cls: diagrams.DiagramClass) -> str:
    n, steps = diagram.n, diagram.steps
    # the padded scheme the basis builds, cut at the index; the cut at the
    # last segment checks the construction beyond what the basis builds.
    # The two cuts coincide on an almost even walk, which gets one scheme.
    schemes = [marking.padded_scheme(diagram, w) for w in {len(diagram.ends), cls.index_w}]
    unpadded = marking.lf_ktheory(diagram)
    # unpadded distance tuples transform correctly under deletions
    d_all = unpadded.d
    if steps[0] == "H" and n >= 2:
        smaller = marking.lf_ktheory(diagrams.delete_right_column(diagram)).d
        if d_all[0] != 0 or tuple(x - 1 for x in d_all[1:]) != smaller:
            return "column deletion breaks distances"
    if steps[0] == "V" and n >= 2:
        smaller = marking.lf_ktheory(diagrams.delete_top_row(diagram)).d
        if tuple(x - 1 for x in d_all) != smaller:
            return "row deletion breaks distances"
    for desc in (*schemes, unpadded):
        if any(ti not in (1, 2) for ti in desc.t):
            return "t entries outside {1,2}"
        for j in range(desc.k):
            if desc.d[j + 1] - desc.d[j] < desc.t[j]:
                return "d gaps do not dominate t"
    return ""


def _dimension_problem(diagram: diagrams.ShiftedDiagram, cls: diagrams.DiagramClass) -> str:
    desc = marking.lf_ktheory(diagram)
    if flags.relative_dimension(desc) != comb(diagram.n + 1, 2) - diagram.weight:
        return "K-theory scheme dimension is off"
    if flags.component_count(desc) != 1:
        return "K-theory scheme is not irreducible"
    return ""


def _dimension_e_independence(n: int) -> str:
    """Raising ``e_0`` from ``d_0 - 1`` to ``d_0`` leaves the relative dimension as it was.

    The descriptors have k = 1 or 2, every ``t_i`` in {1, 2} and every later
    gap ``d_i - e_i`` in {0, 1}.  ``d_0`` starts at 1, as ``e_0 = -1`` is
    never valid.  Each of a pair is built once; a pair with an invalid
    member is skipped.
    """
    for k in (1, 2):
        for d in combinations_with_replacement(range(1, n + 1), k + 1):
            for t in product((1, 2), repeat=k):
                for gaps in product((0, 1), repeat=k - 1):
                    e = tuple(d[i] - gaps[i - 1] for i in range(1, k))
                    try:
                        desc = flags.FlagDescriptor(n, d, (d[0] - 1, *e), t)
                        raised = flags.FlagDescriptor(n, d, (d[0], *e), t)
                    except DescriptorError:
                        continue
                    if flags.relative_dimension(desc) != flags.relative_dimension(raised):
                        return f"{desc}: dimension changed when raising e_0"
    return ""


def _suite_canonical_goldens(max_n: int):
    n = picard.SYMBOLIC_N
    delta, nabla, det_v = picard.delta, picard.nabla, picard.det_v
    cases = [
        ((1, 2), (0,), (1,), {delta(0): 1, nabla(0): n - 1, det_v(2): 1 - n, det_v(1): -1}),
        ((1, 3), (0,), (2,), {delta(0): 2, nabla(0): n - 2, det_v(3): 2 - n, det_v(1): -2}),
        # the two-stratum scheme with a leading zero step: the determinant factors
        # follow the closed formula (a d_1-indexed factor and a trivial rank-0 one)
        ((0, 2), (0,), (2,),
         {delta(0): 3, delta(1): 1, nabla(0): n - 3, det_v(2): 1 - n, det_v(0): -2}),
    ]
    for d, e, t, expected in cases:
        actual = picard.canonical_sheaf_in_n(d, e, t)
        if actual != picard.PicElement(expected):
            return False, f"canonical sheaf of d={d}, e={e}, t={t} is {actual}"
    return True, ""


def _alignment_problem(diagram: diagrams.ShiftedDiagram, cls: diagrams.DiagramClass) -> str:
    if not cls.is_almost_even:
        return ""
    # an almost even diagram's GW summand cuts at the last segment
    result = picard.scheme_alignment(diagram, marking.padded_scheme(diagram, cls.index_w))
    return "" if result.ok else f"parity {result.parity}, required {result.required}"


def _recursions():
    """A new recursions check, for one suite run.

    Frame ``n`` reads the counted atoms of frame ``n`` and of the frame its
    recursion goes back to (``n - 1`` or ``n - 2``), so the run makes one
    counting pass per frame, which serves both twists.
    """
    counted = _last_three(basis._counted)

    def check(n: int) -> str:
        for twist, atoms in counted(n).items():
            enumerated = basis.walk_atoms(n, twist)
            if atoms != enumerated:
                atom = basis.first_mismatch(atoms, enumerated)
                return (
                    f"frame {n} twist {twist.value}: "
                    f"counted and enumerated atoms differ at {atom}"
                )
        report = basis.verify_recursions(n, counted)
        if not report.passed:
            bad = next(c for c in report.cases if not c.passed)
            return f"frame {n} case ({bad.label}) mismatch at {bad.first_mismatch}"
        return ""

    return check


def _geometry(n: int) -> str:
    report = basis.verify_geometry(n)
    return "" if report.passed else f"frame {n}: {report.failures[0]}"


def _connecting(n: int) -> str:
    expected = {
        (0, picard.Twist.DELTA): picard.ConnectingCase.SPLIT_CASE_I,
        (0, picard.Twist.TRIVIAL): picard.ConnectingCase.NEEDS_PADDING,
        (1, picard.Twist.TRIVIAL): picard.ConnectingCase.ETA_CASE_II,
        (1, picard.Twist.DELTA): picard.ConnectingCase.ETA_CASE_III,
    }
    for twist in (picard.Twist.TRIVIAL, picard.Twist.DELTA):
        lam1, lam2 = picard.lambda_pair(twist)
        case = picard.classify_connecting(n, 2, lam1, lam2)
        if case is not expected[(n % 2, twist)]:
            return f"n={n} twist={twist.value}: got {case.value}"
    return ""


SUITES = (
    ("counting", _frames(0, 16, _counting)),
    ("boundary-structure", _frames(0, 12, _boundary)),
    ("class-partitions", _frames(3, 11, _class_partitions, 2)),
    # a new check per run, so no ClassSets outlives the run that built it
    ("deletion-bijections", lambda max_n: _frames(1, 12, _bijections())(max_n)),
    ("marking-tuples", _frames(1, 10, _each_walk(_marking_problem))),
    ("descriptor-dimensions", _frames(1, 8, _each_walk(_dimension_problem))),
    ("dimension-e-independence", _frames(1, 6, _dimension_e_independence)),
    ("canonical-goldens", _suite_canonical_goldens),
    ("twist-alignment", _frames(1, 8, _each_walk(_alignment_problem))),
    # a new check per run too, for the counted atoms
    ("recursions", lambda max_n: _frames(2, 10, _recursions())(max_n)),
    ("geometry", _frames(1, 8, _geometry)),
    ("connecting-case-table", _frames(2, 10, _connecting)),
)
