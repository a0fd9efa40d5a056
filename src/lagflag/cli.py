"""Command-line frontend: enumeration, classification, scheme inspection,
basis generation, and ``verify``, which runs the suites of `lagflag.verify`.

Every command writes deterministic output; identical invocations produce
byte-identical text.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 141 when the reader closes stdout early (the status a shell reports
for a SIGPIPE death; nothing is written on stderr).  ``verify`` flushes each
suite's line as that suite ends, so its verdicts leave one by one through a
pipe too, a run cut short keeps those it reached, and a reader that closes
the pipe ends the run at the next suite's line.  The other commands leave
stdout block-buffered: a flush per summand or diagram would cost a system
call each.  ``basis`` and ``enumerate`` write each JSON item and CSV row
from a template, as ``json.dumps(..., indent=2)`` and ``csv.writer`` would
(csv quotes only a ``basis`` scheme that holds a comma).  Every integer in
those rows goes through the one memo `lagflag.text.text`: a few small
integers recur hundreds of thousands of times, and a lookup costs less than
half of ``str``.  The environment variable ``LAGFLAG_MAX_N`` overrides the
frame-size bounds (default 16 for ``enumerate``, ``basis``, the diagram
arguments of ``classify`` and ``scheme``, and for ``recursion`` and
``witt``, which count without enumerating; 10 for ``verify``).  Each
command checks its bound before any work; the library itself has no frame
limit.

A process enters through `run`, which exits with the code `main` returns
and freezes the collector (``gc.freeze()``) on the way out, also when
argparse or an uncaught exception ends `main`.  The interpreter's last
collection at shutdown then has nothing to scan, where it would otherwise
walk every class, function and module the process loaded; the process
still flushes its streams and runs its atexit handlers.  `main` returns
its code and never freezes: the tests and the benchmark's traced runs call
it many times in one process, and the collector never frees a frozen cycle.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import NoReturn

from . import basis as basis_mod
from . import diagrams as diag_mod
from . import flags as flags_mod
from . import marking as marking_mod
from . import picard as pic_mod
from .errors import DescriptorError, DomainError, LagflagError
from .text import text
from .verify import SUITES

ENUMERATE_BOUND = 16
VERIFY_BOUND = 10


def _bound(default: int) -> int:
    raw = os.environ.get("LAGFLAG_MAX_N")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"LAGFLAG_MAX_N must be an integer, got {raw!r}") from None


def _emit_json(payload, out) -> None:
    import json  # here, not at the top: basis and enumerate write their rows by hand
    print(json.dumps(payload, indent=2), file=out)


def _json_list_at(indent: int):
    """How ``json.dumps(..., indent=2)`` prints an integer tuple at ``indent`` spaces."""
    pad = "\n" + " " * (indent + 2)
    head, sep, tail = "[" + pad, "," + pad, "\n" + " " * indent + "]"

    def dump(values) -> str:
        return head + sep.join(map(text, values)) + tail if values else "[]"

    return dump


_scheme_list = _json_list_at(8)  # d, e and t in a summand
_parts_list = _json_list_at(4)  # the parts of a diagram


def _write_json_items(items, indent: str, out) -> None:
    """Write the items of a JSON list whose ``[`` is already out, then its ``]``.

    The list ends at ``indent``, as ``json.dumps(..., indent=2)`` would close it.
    """
    sep = "\n"
    for item in items:
        out.write(sep + item)
        sep = ",\n"
    out.write("]" if sep == "\n" else f"\n{indent}]")


def _parse_int_tuple(raw: str | None) -> tuple[int, ...]:
    if raw is None or raw == "":
        return ()
    try:
        return tuple(int(chunk) for chunk in raw.split(","))
    except ValueError:
        raise DomainError(f"expected comma-separated integers, got {raw!r}") from None


def _parse_half_rank(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"--half-rank must be an integer, got {raw!r}") from None


def _check_frame(n: int) -> None:
    bound = _bound(ENUMERATE_BOUND)
    if n > bound:
        raise DomainError(
            f"frame size {n} is above the bound {bound} (LAGFLAG_MAX_N raises it)"
        )


def _parse_diagram(steps: str) -> diag_mod.ShiftedDiagram:
    _check_frame(len(steps))
    return diag_mod.ShiftedDiagram(len(steps), steps.upper())


# ---------------------------------------------------------------------------
# commands


def _diagram_json(d) -> str:
    """A diagram as ``json.dumps([d.to_json()], indent=2)`` prints it in its list."""
    parts = d.parts
    return (
        "  {\n"
        f'    "n": {text(d.n)},\n'
        f'    "steps": "{d.steps}",\n'
        f'    "parts": {_parts_list(parts)},\n'
        f'    "weight": {text(sum(parts))}\n'
        "  }"
    )


def _cmd_enumerate(args, out) -> int:
    """Write each diagram as soon as it is built."""
    _check_frame(args.n)
    diagrams = diag_mod.enumerate_diagrams(args.n)
    if args.format == "json":
        out.write("[")
        _write_json_items(map(_diagram_json, diagrams), "", out)
        out.write("\n")
    elif args.format == "csv":
        out.write("n,steps,parts,weight\n")
        for d in diagrams:
            out.write(f"{text(d.n)},{d.steps},{' '.join(map(text, d.parts))},{text(d.weight)}\n")
    else:
        for d in diagrams:
            parts = ",".join(map(text, d.parts))
            print(
                f"{d.steps or '-':<{max(args.n, 1)}}  parts=[{parts}]  weight={text(d.weight)}",
                file=out,
            )
    return 0


def _cmd_classify(args, out) -> int:
    diagram = _parse_diagram(args.diagram)
    b = diag_mod.boundary(diagram)
    cls = diag_mod.classify(diagram)
    if args.format == "json":
        payload = diagram.to_json()
        payload["boundary"] = b.to_json()
        payload.update(cls.to_json())
        _emit_json(payload, out)
    else:
        print(f"steps        {diagram.steps}", file=out)
        print(f"n            {diagram.n}", file=out)
        print(f"parts        {list(diagram.parts)}", file=out)
        print(f"weight       {diagram.weight}", file=out)
        segs = " ".join(f"{step}:{ln}" for step, ln in b.segments)
        print(f"boundary     {segs}", file=out)
        print(f"index        {cls.index_w}", file=out)
        print(f"almost_even  {str(cls.is_almost_even).lower()}", file=out)
        print(f"k_even       {str(cls.is_k_even).lower()}", file=out)
        print(f"row_type     {cls.row_type.value}", file=out)
    return 0


#: The options each source of a scheme reads; argparse keeps the sources exclusive.
_SCHEME_SOURCES = {
    "name": ("n",),
    "diagram": ("construction", "w"),
    "d": ("e", "t", "half_rank"),
}


def _option(dest: str) -> str:
    return "-n" if dest == "n" else "--" + dest.replace("_", "-")


def _scheme_from_args(args) -> flags_mod.FlagDescriptor:
    source = next((s for s in _SCHEME_SOURCES if getattr(args, s) is not None), None)
    for other, dests in _SCHEME_SOURCES.items():
        unread = [dest for dest in dests if getattr(args, dest) is not None]
        if source not in (None, other) and unread:
            raise DomainError(f"{_option(unread[0])} does not apply to {_option(source)}")
    if source == "name":
        if args.n is None:
            raise DomainError("--name needs -n (the half rank)")
        return flags_mod.named_scheme(args.name, args.n)
    if source == "diagram":
        construction = args.construction or "ktheory"
        if args.w is not None and construction == "ktheory":
            raise DomainError("--w applies only to --construction a or b")
        diagram = _parse_diagram(args.diagram)
        if construction == "ktheory":
            return marking_mod.lf_ktheory(diagram)
        build = marking_mod.lf_a if construction == "a" else marking_mod.lf_b
        return build(diagram, len(diagram.ends) if args.w is None else args.w)
    if args.d is None or args.half_rank is None:
        raise DomainError("scheme needs --name, --diagram, or --d with --half-rank")
    return flags_mod.FlagDescriptor(
        _parse_half_rank(args.half_rank),
        _parse_int_tuple(args.d),
        _parse_int_tuple(args.e),
        _parse_int_tuple(args.t),
    )


def _cmd_scheme(args, out) -> int:
    try:
        desc = _scheme_from_args(args)
    except DescriptorError as exc:
        if args.d is None:  # --name and --diagram reject a bad input as a usage error
            raise
        rejected = exc.descriptor
        if args.format == "json":
            payload = {
                "descriptor": rejected.to_json(),
                "valid": False,
                "violations": [v.to_json() for v in rejected.violations],
            }
            _emit_json(payload, out)
        else:
            print(f"descriptor  {rejected}", file=out)
            print("valid       false", file=out)
            for v in rejected.violations:
                print(f"{v.severity:<7}     {v.message}", file=out)
        return 1
    report = flags_mod.scheme_report(desc)
    if args.format == "json":
        payload = {
            "descriptor": desc.to_json(),
            "valid": True,
            "warnings": [v.to_json() for v in desc.violations],
            "report": report.to_json(),
        }
        _emit_json(payload, out)
    else:
        print(f"descriptor           {desc}", file=out)
        print(f"regular              {str(report.regular).lower()}", file=out)
        print(f"gorenstein           {str(report.gorenstein).lower()}", file=out)
        print(f"relative_dimension   {report.relative_dimension}", file=out)
        print(f"component_count      {report.component_count}", file=out)
        print(
            f"trivial_pushforward  {str(report.reduced_with_trivial_pushforward).lower()}",
            file=out,
        )
        for v in desc.violations:
            print(f"warning              {v.message}", file=out)
    return 0


def _cmd_canonical(args, out) -> int:
    d = _parse_int_tuple(args.d)
    e = _parse_int_tuple(args.e)
    t = _parse_int_tuple(args.t)
    if args.half_rank.upper() == "N":
        elt = pic_mod.canonical_sheaf_in_n(d, e, t)
        half_rank: str | int = "N"
    else:
        desc = flags_mod.FlagDescriptor(_parse_half_rank(args.half_rank), d, e, t)
        elt = pic_mod.canonical_sheaf(desc)
        half_rank = desc.half_rank
    if args.format == "json":
        _emit_json({"half_rank": half_rank, "canonical_sheaf": elt.to_json()}, out)
    else:
        if elt.is_zero:
            print("trivial", file=out)
        for gen, exp in elt.items():
            print(f"{str(gen):<14} {exp}", file=out)
    return 0


def _parity_flag(summand) -> str:
    """Whether a GW summand's own scheme passes the twist-parity check."""
    result = pic_mod.scheme_alignment(summand.source_diagram, summand.scheme)
    return str(result.ok).lower()


def _summand_json(s) -> str:
    """A summand as ``json.dumps(s.to_json(), indent=2)`` prints it in a decomposition.

    Steps, kinds and map labels are plain ASCII words, so no string needs escaping.
    A member's ``_value_`` is a plain attribute; its ``value`` is a property,
    which costs several times as much on every row.
    """
    scheme = s.scheme
    return (
        "    {\n"
        f'      "kind": "{s.kind._value_}",\n'
        f'      "shift": {"null" if s.shift is None else text(s.shift)},\n'
        f'      "diagram": "{s.source_diagram.steps}",\n'
        '      "scheme": {\n'
        f'        "half_rank": {text(scheme.half_rank)},\n'
        f'        "d": {_scheme_list(scheme.d)},\n'
        f'        "e": {_scheme_list(scheme.e)},\n'
        f'        "t": {_scheme_list(scheme.t)}\n'
        "      },\n"
        f'      "map": "{s.map_label._value_}",\n'
        f'      "base_twist": {"null" if s.base_twist is None else text(s.base_twist)}\n'
        "    }"
    )


def _cmd_basis(args, out) -> int:
    """Write each summand as soon as it is built; errors come before any output."""
    _check_frame(args.n)
    if args.theory == "k":
        if args.twist is not None:
            raise DomainError("--twist applies to the Hermitian basis only, not to --theory k")
        theory, twist = basis_mod.Kind.K, pic_mod.Twist.TRIVIAL
        summands = basis_mod.k_summands(args.n)
    else:
        theory, twist = basis_mod.Kind.GW, pic_mod.Twist(args.twist or "O")
        summands = basis_mod.gw_summands(args.n, twist)
    if args.format == "json":
        out.write(
            f'{{\n  "n": {text(args.n)},\n  "twist": "{twist.value}",\n'
            f'  "theory": "{theory.value}",\n  "summands": ['
        )
        _write_json_items(map(_summand_json, summands), "  ", out)
        out.write("\n}\n")
    elif args.format == "csv":
        out.write("diagram,kind,shift,map,scheme,dim,components,parity_ok\n")
        gw = basis_mod.Kind.GW  # read once: each enum member read is a hook call
        for s in summands:
            kind = s.kind
            dim, components = flags_mod.dimension_and_components(s.scheme)
            scheme = str(s.scheme)
            if "," in scheme:  # the one field that needs csv's minimal quoting
                scheme = f'"{scheme}"'
            out.write(
                f"{s.source_diagram.steps},{kind._value_},"
                f"{'' if s.shift is None else text(s.shift)},{s.map_label._value_},"
                f"{scheme},{text(dim)},{text(components)},"
                f"{_parity_flag(s) if kind is gw else ''}\n"
            )
    else:
        if theory is basis_mod.Kind.K:
            count = 2**args.n
        else:
            count = sum(basis_mod.gw_atoms(args.n, twist).values())
        print(
            f"{theory.value}-basis n={args.n} twist={twist.value} summands={count}",
            file=out,
        )
        for s in summands:
            shift = "" if s.shift is None else f" shift={text(s.shift)}"
            twist_note = "" if s.base_twist is None else f" base_twist=V{text(s.base_twist)}"
            print(
                f"  {s.source_diagram.steps or '-':<{max(args.n, 1)}} "
                f"{s.kind._value_:<2} {s.map_label._value_:<4}{shift}{twist_note}  {s.scheme}",
                file=out,
            )
    return 0


def _cmd_recursion(args, out) -> int:
    _check_frame(args.n)
    report = basis_mod.verify_recursions(args.n)
    if args.format == "json":
        _emit_json(report.to_json(), out)
    else:
        for case in report.cases:
            status = "PASS" if case.passed else f"FAIL at {case.first_mismatch}"
            print(f"case ({case.label}): {status}  [{case.description}]", file=out)
        for note in report.notes:
            print(f"note: {note}", file=out)
    return 0 if report.passed else 1


def _cmd_witt(args, out) -> int:
    _check_frame(args.n)
    table = basis_mod.witt_table(args.n, pic_mod.Twist(args.twist))
    if args.format == "json":
        _emit_json(table.to_json(), out)
    else:
        print(f"witt table n={table.n} twist={table.twist.value}", file=out)
        for degree, count in table.degrees:
            print(f"  degree {degree}: {count}", file=out)
        print(f"  K atoms: {table.k_count}", file=out)
    return 0


def _cmd_classify_connecting(args, out) -> int:
    lam = _parse_int_tuple(args.lam)
    if len(lam) != 2:
        raise DomainError(f"--lam needs two comma-separated parities, got {args.lam!r}")
    case = pic_mod.classify_connecting(args.c1, args.c2, lam[0], lam[1])
    print(case.value, file=out)
    return 0


def _cmd_verify(args, out) -> int:
    bound = _bound(VERIFY_BOUND)
    max_n = args.max_n if args.max_n is not None else bound
    if max_n > bound:
        raise DomainError(f"--max-n {max_n} is above the configured bound {bound}")
    if max_n < 3:
        # below 3 the odd-frame suites would loop over empty ranges
        if args.max_n is None:
            raise DomainError(f"LAGFLAG_MAX_N must be at least 3 for verify, got {max_n}")
        raise DomainError(f"--max-n must be at least 3, got {max_n}")
    all_ok = True
    for name, suite in SUITES:  # this module's binding, so a wrapper set here is used
        try:
            ok, detail = suite(max_n)
        except LagflagError as exc:  # a library fault the suite ran into fails it alone
            ok, detail = False, str(exc)
        all_ok = all_ok and ok
        status = "ok  " if ok else "FAIL"
        suffix = f": {detail}" if detail else ""
        # each verdict leaves as its suite ends, through a pipe too
        print(f"{status} {name}{suffix}", file=out, flush=True)
    print("verify: all suites passed" if all_ok else "verify: FAILURES", file=out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Names every usage error ``lagflag: error:``; subcommand parsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"lagflag: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lagflag",
        description="Shifted-diagram and flag-scheme calculator for Lagrangian "
        "Grassmannian K-theory bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("enumerate", help="list all diagrams of a frame")
    p.add_argument("-n", type=int, required=True)
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="boundary and class data of one diagram")
    p.add_argument("diagram", help="step string over V/H, e.g. VVH")
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scheme", help="validate and report on a flag-scheme descriptor")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--name", help="named scheme: B2, E2, F2 or LF_<i>")
    p.add_argument("-n", type=int, help="half rank for --name")
    source.add_argument("--diagram", help="build the scheme attached to a diagram")
    p.add_argument(
        "--construction",
        choices=("ktheory", "a", "b"),
        help="which construction to apply to --diagram (default ktheory)",
    )
    p.add_argument("--w", type=int, help="selection cutoff for constructions a/b")
    source.add_argument("--d", help="comma-separated d tuple")
    p.add_argument("--e", help="comma-separated e tuple, for --d")
    p.add_argument("--t", help="comma-separated t tuple, for --d")
    p.add_argument("--half-rank", help="half rank of the ambient bundle, for --d")
    add_format(p)
    p.set_defaults(func=_cmd_scheme)

    p = sub.add_parser("canonical", help="canonical-sheaf exponent table")
    p.add_argument("--d", required=True)
    p.add_argument("--e", default="")
    p.add_argument("--t", default="")
    p.add_argument("--half-rank", required=True, help="an integer, or N for symbolic")
    add_format(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("basis", help="additive basis decomposition of a frame")
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--twist", choices=("O", "Delta"), help="twist of the Hermitian basis (default O)"
    )
    p.add_argument("--theory", choices=("k", "gw"), default="gw")
    add_format(p, ("text", "json", "csv"))
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("recursion", help="check the decomposition recursions of a frame")
    p.add_argument("-n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_recursion)

    p = sub.add_parser("verify", help="run every verification suite")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("witt", help="GW-atom counts folded mod 4")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--twist", choices=("O", "Delta"), default="O")
    add_format(p)
    p.set_defaults(func=_cmd_witt)

    p = sub.add_parser(
        "classify-connecting", help="two-step blow-up connecting-homomorphism case"
    )
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--lam", required=True, help="two parities, e.g. 0,0")
    p.set_defaults(func=_cmd_classify_connecting)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except LagflagError as exc:
        print(f"lagflag: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone.  Unwritten output goes to /dev/null, so the
        # interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def run(argv=None) -> NoReturn:
    """The process entry point: exit with the code `main` returns.

    The collector is frozen on the way out, whatever ends `main`: a return,
    argparse's usage or ``--help`` exit, or an uncaught exception.
    """
    try:
        sys.exit(main(argv))
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    run()
