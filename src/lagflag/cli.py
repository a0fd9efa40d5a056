"""Command-line frontend: enumeration, classification, scheme inspection,
basis generation, and ``verify``, which runs the suites of `lagflag.verify`.

Every command writes deterministic output; identical invocations produce
byte-identical text.  Exit codes: 0 success, 1 verification failure, 2 usage
error (or a failed ``basis`` worker, below), 141 when the reader closes
stdout early (the status a shell reports for a SIGPIPE death; nothing is
written on stderr).  ``verify`` flushes each
suite's line as that suite ends, so its verdicts leave one by one through a
pipe too, a run cut short keeps those it reached, and a reader that closes
the pipe ends the run at the next suite's line.  The other commands leave
stdout block-buffered: a flush per summand or diagram would cost a system
call each.  ``basis`` and ``enumerate`` write each JSON item and CSV row
from a template, as ``json.dumps(..., indent=2)`` and ``csv.writer`` would
(csv quotes only a ``basis`` scheme that holds a comma).  Every integer in
those rows goes through the one memo `lagflag.text.text`: a few small
integers recur hundreds of thousands of times, and a lookup costs less than
half of ``str``.  The other JSON outputs go through `_emit_json`, which
writes ``json.JSONEncoder(indent=2)``'s chunks as they come and never
holds the whole text.

A ``basis`` process splits its frame by the walk's first step.  The frame
runs lexicographically with ``V`` before ``H``, and each summand stream
keeps the frame's order, so the rows of the ``V…`` walks come before every
row of the ``H…`` walks: the output is the header, the ``V…`` half, the
``H…`` half and the tail.  From frame 10 (`_WORKER_FROM`), when stdout
has a file descriptor and ``os.sched_getaffinity`` offers two CPUs or
more, the process writes and flushes its header, then forks one worker.
The worker writes the ``H…`` half's rows into an unnamed temporary file,
made with ``O_TMPFILE`` in ``$TMPDIR`` or ``/tmp``: a file, so the half
does not sit in memory as it would in a ``memfd`` (unless that directory
is a tmpfs), and gone once its descriptors close.  It never
writes to the stdout it inherits, and it ends with ``os._exit``.  The
parent writes the ``V…`` half meanwhile, reaps the worker, and appends the
file with ``os.sendfile`` after the separator due, then writes the tail.
Every exit of the parent reaps the worker, killing it first unless it has
ended: a return, a library error, a closed pipe or an interrupt.  A worker
that fails exits non-zero, and the parent then writes none of its half and
exits 2 with one ``lagflag: error:`` line naming the cause.  Below frame
10, into a stream with no descriptor, on one CPU, or where the file or the
fork cannot be made, the process writes both halves itself.  The row
writers are the same either way, so the bytes are too; only the producer
of the ``H…`` half differs.  Each row still builds and validates its
scheme once, in whichever process writes it.

Each command has one entry in `COMMANDS`: its help line, the function
that adds its arguments, its handler and its frame-size bound.  The bound
is 16 for ``enumerate``, ``basis`` and the diagram arguments of
``classify`` and ``scheme``, 10 for ``verify``'s ``--max-n``, and 200 for
``recursion`` and 225 for ``witt``, which count without enumerating;
``canonical`` and ``classify-connecting`` take no frame.  The environment
variable ``LAGFLAG_MAX_N``, a non-negative integer, overrides every bound.
Each command checks its bound before any work; the library itself has no
frame limit.  A process builds the top-level parser and only the subparser
of the command its arguments start with, since argparse reads no other;
with no command first (no arguments, ``-h``, an unknown command) it builds
them all, so that argparse can list them.  Either way argparse writes the
same text.

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
import errno
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


def _bound(command: str) -> int:
    """The largest frame ``command`` takes: ``LAGFLAG_MAX_N``, else its `COMMANDS` entry."""
    raw = os.environ.get("LAGFLAG_MAX_N")
    if raw is None:
        *_, default = COMMANDS[command]
        return default
    try:
        bound = int(raw)
    except ValueError:
        raise DomainError(f"LAGFLAG_MAX_N must be an integer, got {raw!r}") from None
    if bound < 0:
        raise DomainError(f"LAGFLAG_MAX_N must be at least 0, got {bound}")
    return bound


def _emit_json(payload, out) -> None:
    """Write ``payload`` as ``print(json.dumps(payload, indent=2))`` would, chunk by chunk.

    The whole text is never built: a ``recursion`` report runs to megabytes.
    """
    import json  # here, not at the top: basis and enumerate write their rows by hand

    out.writelines(json.JSONEncoder(indent=2).iterencode(payload))
    out.write("\n")


def _json_list_at(indent: int):
    """How ``json.dumps(..., indent=2)`` prints an integer tuple at ``indent`` spaces."""
    pad = "\n" + " " * (indent + 2)
    head, sep, tail = "[" + pad, "," + pad, "\n" + " " * indent + "]"

    def dump(values) -> str:
        return head + sep.join(map(text, values)) + tail if values else "[]"

    return dump


_scheme_list = _json_list_at(8)  # d, e and t in a summand
_parts_list = _json_list_at(4)  # the parts of a diagram


def _write_rows(rows, out, sep: str, next_sep: str) -> str:
    """Write the first row after ``sep`` and each later one after ``next_sep``.

    Returns the separator due next: ``next_sep``, or ``sep`` when there
    was no row.  A JSON list's items take ``"\\n"`` then ``",\\n"``; CSV
    and text rows end their own lines and take ``""``.
    """
    for row in rows:
        out.write(sep + row)
        sep = next_sep
    return sep


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


def _check_frame(n: int, command: str) -> None:
    bound = _bound(command)
    if n > bound:
        raise DomainError(
            f"frame size {n} is above the bound {bound} (LAGFLAG_MAX_N raises it)"
        )


def _parse_diagram(steps: str, command: str) -> diag_mod.ShiftedDiagram:
    _check_frame(len(steps), command)
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
    _check_frame(args.n, args.command)
    diagrams = diag_mod.enumerate_diagrams(args.n)
    if args.format == "json":
        out.write("[")
        sep = _write_rows(map(_diagram_json, diagrams), out, "\n", ",\n")
        out.write("]\n" if sep == "\n" else "\n]\n")  # as json.dumps(..., indent=2) closes it
    elif args.format == "csv":
        out.write("n,steps,parts,weight\n")
        for d in diagrams:
            parts = d.parts  # once: the weight is their sum
            out.write(f"{text(d.n)},{d.steps},{' '.join(map(text, parts))},{text(sum(parts))}\n")
    else:
        for d in diagrams:
            parts = d.parts
            print(
                f"{d.steps or '-':<{max(args.n, 1)}}  parts=[{','.join(map(text, parts))}]"
                f"  weight={text(sum(parts))}",
                file=out,
            )
    return 0


def _cmd_classify(args, out) -> int:
    diagram = _parse_diagram(args.diagram, args.command)
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
        diagram = _parse_diagram(args.diagram, args.command)
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


_GW = basis_mod.Kind.GW  # read once: each enum member read is a hook call


def _summand_csv(s) -> str:
    """A summand's row as ``csv.writer(lineterminator="\\n")`` writes it."""
    kind = s.kind
    dim, components = flags_mod.dimension_and_components(s.scheme)
    scheme = str(s.scheme)
    if "," in scheme:  # the one field that needs csv's minimal quoting
        scheme = f'"{scheme}"'
    return (
        f"{s.source_diagram.steps},{kind._value_},"
        f"{'' if s.shift is None else text(s.shift)},{s.map_label._value_},"
        f"{scheme},{text(dim)},{text(components)},"
        f"{_parity_flag(s) if kind is _GW else ''}\n"
    )


def _text_row(n: int):
    """How the text form of a frame-``n`` basis prints a summand."""
    width = max(n, 1)

    def row(s) -> str:
        shift = "" if s.shift is None else f" shift={text(s.shift)}"
        twist_note = "" if s.base_twist is None else f" base_twist=V{text(s.base_twist)}"
        return (
            f"  {s.source_diagram.steps or '-':<{width}} "
            f"{s.kind._value_:<2} {s.map_label._value_:<4}{shift}{twist_note}  {s.scheme}\n"
        )

    return row


def _cmd_basis(args, out) -> int:
    """Write each summand as soon as it is built; errors come before any output."""
    n = args.n
    _check_frame(n, args.command)
    if args.theory == "k":
        if args.twist is not None:
            raise DomainError("--twist applies to the Hermitian basis only, not to --theory k")
        theory, twist = basis_mod.Kind.K, pic_mod.Twist.TRIVIAL
        halves = basis_mod._k_halves(n)
    else:
        theory, twist = basis_mod.Kind.GW, pic_mod.Twist(args.twist or "O")
        halves = basis_mod._gw_halves(n, twist)
    sep = next_sep = ""  # what goes before the first row and before each later one
    if args.format == "json":
        out.write(
            f'{{\n  "n": {text(n)},\n  "twist": "{twist.value}",\n'
            f'  "theory": "{theory.value}",\n  "summands": ['
        )
        row, sep, next_sep = _summand_json, "\n", ",\n"
    elif args.format == "csv":
        out.write("diagram,kind,shift,map,scheme,dim,components,parity_ok\n")
        row = _summand_csv
    else:
        if theory is basis_mod.Kind.K:
            count = 2**n
        else:
            count = sum(basis_mod.gw_atoms(n, twist).values())
        out.write(f"{theory.value}-basis n={n} twist={twist.value} summands={count}\n")
        row = _text_row(n)
    first, second = (map(row, half) for half in halves)
    sep = _write_halves(first, second, out, sep, next_sep, n)
    if args.format == "json":
        out.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")  # as json.dumps(..., indent=2)
    return 0


#: The smallest frame whose ``H…`` half a forked worker writes, where
#: another CPU is free; below it the fork costs more than the half.
_WORKER_FROM = 10


def _write_halves(first, second, out, sep: str, next_sep: str, n: int) -> str:
    """Write the rows of both halves of a basis in order; return the separator due next.

    ``second`` goes to a worker when `_fork_writer` starts one.  This
    process writes ``first`` meanwhile, reaps the worker, and appends the
    worker's file after the separator due.  However it leaves, it reaps
    the worker first, killing it unless it has ended.
    """
    worker = _fork_writer(second, out, next_sep) if n >= _WORKER_FROM else None
    if worker is None:
        return _write_rows(second, out, _write_rows(first, out, sep, next_sep), next_sep)
    pid, spill = worker
    try:
        status = None
        try:
            sep = _write_rows(first, out, sep, next_sep)
            _, status = os.waitpid(pid, 0)
        finally:
            if status is None:  # a closed pipe, a library error or an interrupt
                import signal  # here, not at the top: its import costs about 2 ms

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if status:
            raise LagflagError(f"the worker writing the H half failed: {_failure(spill, status)}")
        size = os.fstat(spill).st_size
        if size:
            out.write(sep)
            out.flush()
            _append_file(spill, size, out.fileno())
            sep = next_sep
        return sep
    finally:
        os.close(spill)


def _fork_writer(rows, out, next_sep: str) -> tuple[int, int] | None:
    """Fork a worker that writes ``rows`` into an unnamed temporary file.

    Returns the worker's pid and the file's descriptor.  Returns None, and
    starts nothing, when ``out`` has no file descriptor, this process may
    run on one CPU only, or the file or the fork cannot be made.  The file
    is made with ``O_TMPFILE`` in ``$TMPDIR`` or ``/tmp``: it has no name,
    so it goes when its last descriptor closes.  ``out`` is flushed before
    the file is made, so the worker inherits nothing to write.
    """
    try:
        out.fileno()
    except (AttributeError, OSError, ValueError):  # a stream in memory
        return None
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    out.flush()
    try:
        spill = os.open(os.environ.get("TMPDIR") or "/tmp", os.O_TMPFILE | os.O_RDWR, 0o600)
    except (AttributeError, OSError):  # no O_TMPFILE here, or none on that file system
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(spill)
        return None
    if pid == 0:
        _spill_rows(rows, spill, out, next_sep)
    return pid, spill


def _spill_rows(rows, spill: int, out, next_sep: str) -> NoReturn:
    """The worker: write ``rows`` into ``spill`` as ``out`` would, the first bare, and exit.

    It never returns, so no exception reaches its caller's frames, and it
    never writes to ``out``.  On an error it leaves the error's text in
    place of the rows and exits 1; it exits 2 when it could not, or on an
    interrupt.
    """
    code = 2
    try:
        try:
            with open(
                spill, "w", 1 << 16, out.encoding, out.errors, closefd=False
            ) as writer:
                _write_rows(rows, writer, "", next_sep)
            code = 0
        except Exception as exc:
            os.ftruncate(spill, 0)
            os.pwrite(spill, (str(exc) or type(exc).__name__).encode(errors="replace"), 0)
            code = 1
    finally:
        os._exit(code)


def _failure(spill: int, status: int) -> str:
    """What ended a worker that exited with the wait status ``status``."""
    code = os.waitstatus_to_exitcode(status)
    if code == 1:
        return os.pread(spill, 1 << 12, 0).decode(errors="replace")
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def _append_file(src: int, size: int, dest: int) -> None:
    """Append the first ``size`` bytes of file ``src`` to ``dest``.

    Through ``os.sendfile``, which copies in the kernel, unless ``dest``
    refuses it (``EINVAL``, e.g. a file opened for appending); then through
    reads and writes.
    """
    offset = 0
    try:
        while offset < size:
            offset += os.sendfile(dest, src, offset, size - offset)
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise
    while offset < size:
        offset += os.write(dest, os.pread(src, min(size - offset, 1 << 20), offset))


def _cmd_recursion(args, out) -> int:
    _check_frame(args.n, args.command)
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
    _check_frame(args.n, args.command)
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
    bound = _bound(args.command)
    max_n = args.max_n if args.max_n is not None else bound
    if max_n > bound:
        raise DomainError(f"--max-n {max_n} is above the configured bound {bound}")
    if max_n < 3:
        # class-partitions starts at frame 3, so a smaller bound would fail it
        # with a FAIL line (exit 1); this makes the bound a usage error (exit 2)
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


def _add_format(p, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text")


def _enumerate_arguments(p) -> None:
    p.add_argument("-n", type=int, required=True)
    _add_format(p, ("text", "json", "csv"))


def _classify_arguments(p) -> None:
    p.add_argument("diagram", help="step string over V/H, e.g. VVH")
    _add_format(p)


def _scheme_arguments(p) -> None:
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
    _add_format(p)


def _canonical_arguments(p) -> None:
    p.add_argument("--d", required=True)
    p.add_argument("--e", default="")
    p.add_argument("--t", default="")
    p.add_argument("--half-rank", required=True, help="an integer, or N for symbolic")
    _add_format(p)


def _basis_arguments(p) -> None:
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--twist", choices=("O", "Delta"), help="twist of the Hermitian basis (default O)"
    )
    p.add_argument("--theory", choices=("k", "gw"), default="gw")
    _add_format(p, ("text", "json", "csv"))


def _recursion_arguments(p) -> None:
    p.add_argument("-n", type=int, required=True)
    _add_format(p)


def _verify_arguments(p) -> None:
    p.add_argument("--max-n", type=int, default=None)


def _witt_arguments(p) -> None:
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--twist", choices=("O", "Delta"), default="O")
    _add_format(p)


def _classify_connecting_arguments(p) -> None:
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--lam", required=True, help="two parities, e.g. 0,0")


#: Each command's help line, the function that adds its arguments to its
#: parser, its handler and the largest frame it takes by default (``None``
#: for a command that takes no frame), in the order ``lagflag -h`` lists
#: them.  ``recursion`` and ``witt`` count without enumerating, so they
#: reach far larger frames than the commands that build each diagram.
COMMANDS = {
    "enumerate": ("list all diagrams of a frame", _enumerate_arguments, _cmd_enumerate, 16),
    "classify": (
        "boundary and class data of one diagram",
        _classify_arguments,
        _cmd_classify,
        16,
    ),
    "scheme": (
        "validate and report on a flag-scheme descriptor",
        _scheme_arguments,
        _cmd_scheme,
        16,
    ),
    "canonical": ("canonical-sheaf exponent table", _canonical_arguments, _cmd_canonical, None),
    "basis": ("additive basis decomposition of a frame", _basis_arguments, _cmd_basis, 16),
    "recursion": (
        "check the decomposition recursions of a frame",
        _recursion_arguments,
        _cmd_recursion,
        200,
    ),
    "verify": ("run every verification suite", _verify_arguments, _cmd_verify, 10),
    "witt": ("GW-atom counts folded mod 4", _witt_arguments, _cmd_witt, 225),
    "classify-connecting": (
        "two-step blow-up connecting-homomorphism case",
        _classify_connecting_arguments,
        _cmd_classify_connecting,
        None,
    ),
}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The top-level parser, with the subparser of the command ``argv`` starts with.

    When ``argv`` starts with no command, every command's subparser.  A
    parser of one command gets as ``metavar`` the brace list argparse writes
    from the full choices, so the usage line it prints for an unrecognized
    argument still names every command.
    """
    parser = _Parser(
        prog="lagflag",
        description="Shifted-diagram and flag-scheme calculator for Lagrangian "
        "Grassmannian K-theory bases.",
    )
    if argv and argv[0] in COMMANDS:
        names, metavar = argv[:1], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = COMMANDS, None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_line, add_arguments, handler, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
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
