"""CLI behavior: golden output, determinism, exit codes, JSON payloads against the records."""

import csv
import gc
import hashlib
import io
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lagflag import (
    FlagDescriptor,
    ShiftedDiagram,
    Twist,
    canonical_sheaf_in_n,
    component_count,
    enumerate_diagrams,
    gw_basis,
    k_basis,
    relative_dimension,
    scheme_alignment,
    verify,
)
from lagflag import cli
from lagflag.cli import main

GOLDEN = Path(__file__).parent / "golden"

def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_golden(capsys):
    code, out, _ = run(capsys, ["enumerate", "-n", "3"])
    assert code == 0
    assert out == (GOLDEN / "enumerate_n3.txt").read_text()


def test_basis_json_golden(capsys):
    code, out, _ = run(capsys, ["basis", "-n", "2", "--twist", "O", "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / "basis_n2_O.json").read_text()


def test_basis_csv_golden(capsys):
    code, out, _ = run(capsys, ["basis", "-n", "2", "--twist", "Delta", "--format", "csv"])
    assert code == 0
    assert out == (GOLDEN / "basis_n2_Delta.csv").read_text()


def test_canonical_golden(capsys):
    code, out, _ = run(
        capsys, ["canonical", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "N"]
    )
    assert code == 0
    assert out == (GOLDEN / "canonical_lf12.txt").read_text()


def test_classify_golden(capsys):
    code, out, _ = run(capsys, ["classify", "HHV", "--format", "json"])
    assert code == 0
    assert out == (GOLDEN / "classify_HHV.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "-n", "4", "--format", "json"],
        ["basis", "-n", "3", "--twist", "Delta", "--format", "json"],
        ["basis", "-n", "3", "--twist", "O", "--format", "csv"],
        ["recursion", "-n", "4", "--format", "json"],
        ["witt", "-n", "4", "--twist", "Delta", "--format", "json"],
        ["verify", "--max-n", "4"],
    ],
)
def test_byte_identical_across_runs(capsys, argv):
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


#: the benchmark's SHA-256 and byte count of each basis-emit output, read only
REFERENCES = json.loads((Path(__file__).parents[1] / "perfbench" / "references.json").read_text())


@pytest.mark.parametrize(
    "command",
    [
        "basis -n 14 --twist O --format json",
        "basis -n 14 --twist Delta --format csv",
        "basis -n 14 --theory k --format csv",
    ],
)
def test_frame_14_bases_match_the_benchmark_references(capsys, command):
    code, out, err = run(capsys, command.split())
    assert (code, err) == (0, "")
    data = out.encode()
    reference = REFERENCES[command]
    assert hashlib.sha256(data).hexdigest() == reference["sha256"]
    assert len(data) == reference["bytes"]


def test_json_outputs_match_the_records(capsys):
    _, out, _ = run(capsys, ["basis", "-n", "2", "--twist", "O", "--format", "json"])
    payload = json.loads(out)
    assert payload["twist"] == "O"
    assert [s["map"] for s in payload["summands"]] == ["mu0", "xi0", "xi0"]
    assert payload == gw_basis(2, Twist.TRIVIAL).to_json()

    _, out, _ = run(
        capsys,
        ["canonical", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "N", "--format", "json"],
    )
    payload = json.loads(out)
    assert payload["canonical_sheaf"]["Nabla"] == {"0": [1, -1]}
    assert payload["canonical_sheaf"] == canonical_sheaf_in_n((1, 2), (0,), (1,)).to_json()

    _, out, _ = run(capsys, ["classify", "VVH", "--format", "json"])
    payload = json.loads(out)
    assert ShiftedDiagram(3, "VVH").to_json().items() <= payload.items()

    _, out, _ = run(capsys, ["scheme", "--name", "B2", "-n", "2", "--format", "json"])
    payload = json.loads(out)
    assert payload["report"]["relative_dimension"] == 3


def test_empty_list_emits_json_brackets(capsys):
    # degenerate payloads serialize as a bare empty list
    import sys
    from lagflag.cli import _emit_json

    _emit_json([], sys.stdout)
    assert capsys.readouterr().out == "[]\n"


def test_k_basis_csv_rows(capsys):
    code, out, _ = run(capsys, ["basis", "-n", "1", "--theory", "k", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "diagram,kind,shift,map,scheme,dim,components,parity_ok"
    assert len(lines) == 3  # header + one row per diagram
    assert all(line.split(",")[3] == "phi" for line in lines[1:])
    # basis writes its rows by hand; a scheme without a comma stays unquoted, as in csv
    assert lines[1] == "V,K,,phi,LF[1]()_[]@1,0,1,"
    assert lines[1] == csv_rows([["V", "K", "", "phi", "LF[1]()_[]@1", 0, 1, ""]]).strip()


def csv_rows(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("n", range(0, 11))
def test_enumerate_csv_matches_csv_writer(capsys, n):
    # and the JSON matches json.dumps: enumerate writes both by hand
    code, out, _ = run(capsys, ["enumerate", "-n", str(n), "--format", "csv"])
    records = [
        [d.n, d.steps, " ".join(map(str, d.parts)), d.weight] for d in enumerate_diagrams(n)
    ]
    assert code == 0
    assert out == csv_rows([["n", "steps", "parts", "weight"], *records])
    code, out, _ = run(capsys, ["enumerate", "-n", str(n), "--format", "json"])
    assert code == 0
    assert out == json.dumps([d.to_json() for d in enumerate_diagrams(n)], indent=2) + "\n"


def test_classify_connecting(capsys):
    code, out, _ = run(capsys, ["classify-connecting", "--c1", "3", "--c2", "2", "--lam", "0,0"])
    assert code == 0
    assert out == "EtaCaseII\n"


def test_classify_connecting_rejects_a_parity_outside_0_and_1(capsys):
    code, out, err = run(capsys, ["classify-connecting", "--c1", "3", "--c2", "2", "--lam", "0,5"])
    assert (code, out) == (2, "")
    assert err == "lagflag: error: parities lam1, lam2 must be 0 or 1, got 0, 5\n"


def test_scheme_from_diagram(capsys):
    code, out, _ = run(
        capsys, ["scheme", "--diagram", "HH", "--construction", "b", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["descriptor"] == {"half_rank": 3, "d": [1, 2], "e": [0], "t": [1]}
    assert payload["report"]["component_count"] == 2


# golden file -> (argv, exit status); a byte comparison pins the key order, json.loads does not
JSON_GOLDENS = {
    "scheme_rejected.json": (
        ["scheme", "--d", "1,2,4", "--e", "1,0", "--t", "2,1", "--half-rank", "3",
         "--format", "json"],
        1,
    ),
    "scheme_warning.json": (
        ["scheme", "--d", "1,2,3", "--e", "1,1", "--t", "2,1", "--half-rank", "3",
         "--format", "json"],
        0,
    ),
    "recursion_n5.json": (["recursion", "-n", "5", "--format", "json"], 0),
    "witt_n6_Delta.json": (["witt", "-n", "6", "--twist", "Delta", "--format", "json"], 0),
}


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_golden(capsys, name):
    argv, status = JSON_GOLDENS[name]
    assert run(capsys, argv) == (status, (GOLDEN / name).read_text(), "")


@pytest.mark.parametrize("name", ["LF_x", "LF_", "Q"])
def test_an_unknown_scheme_name_is_a_usage_error(capsys, name):
    message = f"unknown scheme name {name!r}; expected B2, E2, F2 or LF_<i>"
    assert run(capsys, ["scheme", "--name", name, "-n", "3"]) == (
        2, "", f"lagflag: error: {message}\n"
    )


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "3"])
    assert code == 0
    assert "all suites passed" in out


def test_verify_golden(capsys):
    code, out, err = run(capsys, ["verify", "--max-n", "8"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "verify_n8.txt").read_text()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate"])  # missing -n
    assert info.value.code == 2

    code, _, err = run(capsys, ["enumerate", "-n", "40"])
    assert code == 2
    assert "error" in err

    code, _, err = run(capsys, ["classify-connecting", "--c1", "1", "--c2", "2", "--lam", "0,0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scheme", "--diagram", "VH", "--w", "-1"], "--w applies only to --construction a or b"),
        (["basis", "-n", "2", "--theory", "k", "--twist", "Delta"],
         "--twist applies to the Hermitian basis only, not to --theory k"),
        # each scheme source rejects the options it does not read
        (["scheme", "--name", "B2", "-n", "2", "--construction", "b", "--w", "1"],
         "--construction does not apply to --name"),
        (["scheme", "--name", "B2", "-n", "2", "--w", "1"], "--w does not apply to --name"),
        (["scheme", "--name", "B2", "-n", "2", "--e", "0"], "--e does not apply to --name"),
        (["scheme", "--name", "B2", "-n", "2", "--t", "1"], "--t does not apply to --name"),
        (["scheme", "--name", "B2", "-n", "2", "--half-rank", "3"],
         "--half-rank does not apply to --name"),
        (["scheme", "--diagram", "VH", "-n", "2"], "-n does not apply to --diagram"),
        (["scheme", "--diagram", "VH", "--e", "0"], "--e does not apply to --diagram"),
        (["scheme", "--diagram", "VH", "--t", "1"], "--t does not apply to --diagram"),
        (["scheme", "--diagram", "VH", "--half-rank", "3"],
         "--half-rank does not apply to --diagram"),
        (["scheme", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "3", "-n", "3"],
         "-n does not apply to --d"),
        (["scheme", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "3",
          "--construction", "a"], "--construction does not apply to --d"),
        (["scheme", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "3", "--w", "1"],
         "--w does not apply to --d"),
    ],
)
def test_ignored_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"lagflag: error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["scheme", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "3",
          "--diagram", "VH"], "argument --diagram: not allowed with argument --d"),
        (["scheme", "--name", "B2", "-n", "2", "--diagram", "VH"],
         "argument --diagram: not allowed with argument --name"),
        (["scheme", "--name", "B2", "-n", "2", "--d", "1"],
         "argument --d: not allowed with argument --name"),
    ],
)
def test_scheme_sources_are_exclusive(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: lagflag scheme")
    assert captured.err.endswith(f"\nlagflag: error: {message}\n")


def test_a_closed_pipe_ends_quietly_with_141():
    env = {k: v for k, v in os.environ.items() if k != "LAGFLAG_MAX_N"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.Popen(
        [sys.executable, "-m", "lagflag.cli", "basis", "-n", "12", "--format", "json"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = child.stdout.read(100)
    child.stdout.close()  # the reader goes away, as `head -c 100` does
    _, err = child.communicate(timeout=60)
    assert (len(head), child.returncode, err) == (100, 141, b"")


# --------------------------------------------------------------------------
# a basis process writes its H… half in a forked worker


def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LAGFLAG_MAX_N"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return env


def _worker_can_run() -> bool:
    """Whether a CLI process here may fork its worker: two CPUs and an O_TMPFILE."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        os.close(os.open(os.environ.get("TMPDIR") or "/tmp", os.O_TMPFILE | os.O_RDWR, 0o600))
    except (AttributeError, OSError):
        return False
    return True


needs_worker = pytest.mark.skipif(not _worker_can_run(), reason="no second CPU or no O_TMPFILE")

THEORIES = {"k": ["--theory", "k"], "O": ["--twist", "O"], "Delta": ["--twist", "Delta"]}

#: A CLI process that logs the pid of each fork to argv[1] and sets the frame
#: from which the worker runs to argv[2].  Before each JSON or CSV row, in
#: either process, it runs ACTION, which can read ``written`` (the summands
#: that process has written so far) and ``parent`` (the first process's pid).
LOGGED_FORKS = """
import os, sys
from lagflag import cli
from lagflag.errors import DomainError

log, worker_from, *argv = sys.argv[1:]
cli._WORKER_FROM = int(worker_from)
fork, parent = os.fork, os.getpid()

def logged():
    pid = fork()
    if pid:
        with open(log, "a") as out:
            print(pid, file=out)
    return pid

os.fork = logged
rows = {"json": "_summand_json", "csv": "_summand_csv"}
name = rows.get(argv[argv.index("--format") + 1]) if "--format" in argv else None
if name:
    row, written = getattr(cli, name), []

    def acting(s):
        written.append(s)
        ACTION
        return row(s)

    setattr(cli, name, acting)
cli.run(argv)
"""


def _logged_forks(tmp_path, argv, worker_from=10, action="pass"):
    """Run ``argv`` in a fresh process of its own session, through pipes.

    Returns its exit code, stdout and stderr, the pids it forked, and
    whether a process of its session was left once it was reaped.
    """
    log = tmp_path / "forks"
    child = subprocess.Popen(
        [sys.executable, "-c", LOGGED_FORKS.replace("ACTION", action), str(log),
         str(worker_from), *argv],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    out, err = child.communicate(timeout=120)
    try:
        os.killpg(child.pid, 0)
    except ProcessLookupError:
        left = False
    else:
        left = True
    forks = log.read_text().split() if log.exists() else []
    return child.returncode, out.decode(), err.decode(), forks, left


@needs_worker
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("n", range(10, 15))
def test_a_worker_writes_what_one_process_writes(capsys, n, theory, fmt):
    argv = ["basis", "-n", str(n), *THEORIES[theory], "--format", fmt]
    child = subprocess.run(
        [sys.executable, "-m", "lagflag.cli", *argv],
        env=_cli_env(), capture_output=True, timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == in_process(capsys, argv)[1].encode()


@needs_worker
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("theory", THEORIES)
@pytest.mark.parametrize("n", range(0, 4))
def test_a_worker_at_a_small_frame_writes_what_one_process_writes(
    tmp_path, capsys, n, theory, fmt
):
    # frame 0 has an empty H… half and frame 1 under Delta an empty V… half,
    # so the JSON separators are checked at both ends
    argv = ["basis", "-n", str(n), *THEORIES[theory], "--format", fmt]
    expected = in_process(capsys, argv)
    code, out, err, forks, left = _logged_forks(tmp_path, argv, worker_from=0)
    assert ((code, out, err), left) == (expected, False)
    assert len(forks) == (expected[0] == 0)  # usage errors come before any fork


@needs_worker
@pytest.mark.parametrize("n, forks", [(9, 0), (10, 1), (12, 1)])
def test_the_worker_runs_from_frame_10_through_a_pipe(tmp_path, n, forks):
    argv = ["basis", "-n", str(n), "--format", "csv"]
    code, _, err, pids, left = _logged_forks(tmp_path, argv, worker_from=cli._WORKER_FROM)
    assert (code, err, len(pids), left) == (0, "", forks, False)


@needs_worker
def test_a_worker_appends_to_a_file_opened_for_appending(tmp_path, capsys):
    # sendfile refuses such a file (EINVAL); the half is then copied by reads and writes
    argv = ["basis", "-n", "12", "--format", "json"]
    target = tmp_path / "out.json"
    target.write_text("before\n")
    with open(target, "ab") as out:
        child = subprocess.run(
            [sys.executable, "-m", "lagflag.cli", *argv],
            env=_cli_env(), stdout=out, stderr=subprocess.PIPE, timeout=120,
        )
    assert (child.returncode, child.stderr) == (0, b"")
    assert target.read_text() == "before\n" + in_process(capsys, argv)[1]


def test_no_worker_runs_for_a_stream_in_memory(capsys, monkeypatch):
    def refused():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refused)
    code, out, _ = in_process(capsys, ["basis", "-n", "12", "--theory", "k", "--format", "csv"])
    assert (code, len(out.splitlines())) == (0, 1 + 2**12)


@needs_worker
def test_a_closed_pipe_leaves_no_process_behind():
    child = subprocess.Popen(
        [sys.executable, "-m", "lagflag.cli", *"basis -n 16 --theory k --format csv".split()],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    head = child.stdout.read(100)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert (len(head), child.returncode, err) == (100, 141, b"")
    with pytest.raises(ProcessLookupError):  # the worker was reaped too
        os.killpg(child.pid, 0)


@needs_worker
@pytest.mark.parametrize(
    "action, code, message",
    [
        pytest.param(
            "raise DomainError('bad row')",
            2,
            "lagflag: error: bad row\n",
            id="library error",
        ),
        pytest.param("raise KeyboardInterrupt", -signal.SIGINT, None, id="interrupt"),
    ],
)
def test_every_exit_of_the_parent_reaps_the_worker(tmp_path, action, code, message):
    # the parent fails on its 100th row, long before the worker ends
    action = f"if os.getpid() == parent and len(written) == 100:\n            {action}"
    argv = ["basis", "-n", "14", "--theory", "k", "--format", "csv"]
    got, _, err, forks, left = _logged_forks(tmp_path, argv, action=action)
    assert (got, len(forks), left) == (code, 1, False)
    if message is not None:
        assert err == message


@needs_worker
@pytest.mark.parametrize(
    "action, reason",
    [
        pytest.param(
            "raise OSError(28, 'No space left on device')",
            "[Errno 28] No space left on device",
            id="error",
        ),
        pytest.param("os.kill(os.getpid(), 9)", "killed by signal 9", id="killed"),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_worker_is_one_error_line_and_none_of_its_half(
    tmp_path, capsys, action, reason, fmt
):
    action = f"if os.getpid() != parent and len(written) == 10:\n            {action}"
    argv = ["basis", "-n", "12", "--twist", "Delta", "--format", fmt]
    _, whole, _ = in_process(capsys, argv)
    code, written, err, forks, left = _logged_forks(tmp_path, argv, action=action)
    assert (code, len(forks), left) == (2, 1, False)
    assert err == f"lagflag: error: the worker writing the H half failed: {reason}\n"
    # the header and the V… half, and not one row of the H… half
    v_row, h_row = ('"diagram": "V', '"diagram": "H') if fmt == "json" else ("\nV", "\nH")
    assert whole.startswith(written)
    assert written.count(v_row) == whole.count(v_row) and h_row not in written


# one command per exit status, the last two usage errors from the library and argparse
EXITS = [
    pytest.param(["classify-connecting", "--c1", "3", "--c2", "2", "--lam", "0,0"], 0, id="ok"),
    pytest.param(["scheme", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "1"], 1,
                 id="invalid descriptor"),
    pytest.param(["basis", "-n", "17"], 2, id="LagflagError"),
    pytest.param(["basis", "-n", "2", "--format", "xml"], 2, id="argparse"),
]


def in_process(capsys, argv):
    """``main``'s exit code, stdout and stderr; argparse exits by itself."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", EXITS)
def test_run_exits_with_mains_code_and_freezes_once_the_output_is_written(
    capsys, monkeypatch, argv, code
):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(capsys.readouterr()))
    expected = in_process(capsys, argv)
    assert expected[0] == code
    assert frozen == []  # main never freezes: the tests and traced runs call it in-process
    with pytest.raises(SystemExit) as exited:
        cli.run(argv)
    assert exited.value.code == code
    assert [(c.out, c.err) for c in frozen] == [expected[1:]]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv, code", EXITS)
def test_a_cli_process_writes_and_exits_as_main_does(capsys, argv, code):
    env = {k: v for k, v in os.environ.items() if k != "LAGFLAG_MAX_N"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run(
        [sys.executable, "-m", "lagflag.cli", *argv], env=env, capture_output=True, timeout=60
    )
    got = (child.returncode, child.stdout.decode(), child.stderr.decode())
    assert got == in_process(capsys, argv)
    assert got[0] == code


def test_the_installed_script_enters_through_run():
    # a text check: tomllib is 3.11+
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split("\n") == ['lagflag = "lagflag.cli:run"', ""]


# --------------------------------------------------------------------------
# a process builds the parser of its own command only

#: argv that argparse accepts, answers with help or rejects, each starting
#: with a command or not; argparse's messages differ between Python versions,
#: so each row compares two parsers on the running interpreter
PARSER_ARGVS = [
    pytest.param([], id="no command"),
    pytest.param(["-h"], id="help"),
    pytest.param(["--help", "basis"], id="help before a command"),
    pytest.param(["nope", "-n", "2"], id="unknown command"),
    pytest.param(["basi", "-n", "2"], id="command prefix"),
    pytest.param(["-x", "basis"], id="unknown option first"),
    pytest.param(["basis", "-h"], id="command help"),
    pytest.param(["recursion", "-n", "3", "--help"], id="command help last"),
    pytest.param(["basis", "-n", "2", "--format", "xml"], id="bad choice"),
    pytest.param(["witt", "-n", "3", "--twist", "X"], id="bad twist"),
    pytest.param(["basis", "-n", "2", "junk"], id="trailing junk"),
    pytest.param(["basis", "-n", "2", "enumerate"], id="another command as junk"),
    pytest.param(["basis", "-n", "2", "--form", "csv"], id="abbreviated option"),
    pytest.param(["basis", "-n3"], id="attached value"),
    pytest.param(["basis", "-n", "2", "--twist"], id="option without value"),
    pytest.param(["enumerate"], id="missing option"),
    pytest.param(["enumerate", "-n", "x"], id="not an integer"),
    pytest.param(["classify"], id="missing positional"),
    pytest.param(["classify", "VH", "VV"], id="extra positional"),
    pytest.param(["canonical", "--d", "1,2"], id="missing half rank"),
    pytest.param(["scheme", "--name", "B2", "--d", "1"], id="exclusive sources"),
    pytest.param(["basis", "-n", "17"], id="frame above the bound"),
    pytest.param(["verify", "--max-n", "11"], id="verify above the bound"),
    pytest.param(["verify", "--max-n", "2"], id="verify below 3"),
    pytest.param(["verify", "--max-n=3", "--max-n", "4"], id="repeated option"),
    pytest.param(["enumerate", "-n", "3", "--format", "csv"], id="enumerate"),
    pytest.param(["classify", "HHV", "--format", "json"], id="classify"),
    pytest.param(["scheme", "--name", "B2", "-n", "2"], id="scheme"),
    pytest.param(
        ["canonical", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "N"], id="canonical"
    ),
    pytest.param(["basis", "-n", "2", "--twist", "Delta", "--format", "csv"], id="basis"),
    pytest.param(["recursion", "-n", "5"], id="recursion"),
    pytest.param(["verify", "--max-n", "3"], id="verify"),
    pytest.param(["witt", "-n", "4", "--twist", "Delta"], id="witt"),
    pytest.param(
        ["classify-connecting", "--c1", "3", "--c2", "2", "--lam", "0,0"],
        id="classify-connecting",
    ),
]


def parse(capsys, parser, argv):
    """The namespace ``parser`` makes of ``argv``, or its exit code, stdout and stderr."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGVS)
def test_the_parser_built_for_an_argv_reads_it_as_the_full_parser_does(capsys, argv):
    assert parse(capsys, cli._build_parser(argv), argv) == parse(capsys, cli._build_parser(), argv)


def test_no_command_is_a_usage_error_that_names_the_command_argument(capsys):
    code, out, err = in_process(capsys, [])
    assert (code, out) == (2, "")
    assert err.endswith("\nlagflag: error: the following arguments are required: command\n")


@pytest.mark.parametrize(
    "argv, commands",
    [
        (["witt", "-n", "3"], ["witt"]),
        (["classify-connecting", "--c1", "3", "--c2", "2", "--lam", "0,0"],
         ["classify-connecting"]),
        ([], list(cli.COMMANDS)),
        (["-h"], list(cli.COMMANDS)),
        (["nope"], list(cli.COMMANDS)),
    ],
)
def test_main_builds_the_subparser_of_its_command_only(capsys, monkeypatch, argv, commands):
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    in_process(capsys, argv)
    assert progs == ["lagflag"] + [f"lagflag {name}" for name in commands]


# A child that runs ``verify`` with every suite after the first held until a
# line arrives on its stdin, and that logs each suite it starts to argv[1].
HELD_VERIFY = """
import sys
from lagflag import cli

def held(name, suite, wait, log):
    def run(max_n):
        print(name, file=log, flush=True)
        if wait:
            sys.stdin.readline()
        return suite(max_n)
    return run

with open(sys.argv[1], "w") as log:
    cli.SUITES = tuple(
        (name, held(name, suite, i > 0, log)) for i, (name, suite) in enumerate(cli.SUITES)
    )
    code = cli.main(["verify", *sys.argv[2:]])
sys.exit(code)
"""


def _held_verify(log, *args):
    # PYTHONUNBUFFERED would flush every line, with or without the command's flush
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("LAGFLAG_MAX_N", None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-c", HELD_VERIFY, str(log), *args],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )


def _first_line(child, seconds=30.0) -> bytes:
    """The child's first stdout line, read byte by byte so nothing after it is taken."""
    line = b""
    deadline = time.monotonic() + seconds
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([child.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            child.kill()
            child.communicate()
            pytest.fail(f"no line within {seconds} s; read {line!r}")
        chunk = os.read(child.stdout.fileno(), 1)
        assert chunk, f"stdout ended after {line!r}"
        line += chunk
    return line


def test_verify_writes_each_verdict_as_its_suite_ends(tmp_path):
    # the second suite waits for stdin, so the first verdict must leave before it
    child = _held_verify(tmp_path / "suites", "--max-n", "8")
    first = _first_line(child)
    assert first == b"ok   counting\n"
    rest, err = child.communicate(b"\n", timeout=60)
    assert (child.returncode, err) == (0, b"")
    assert first + rest == (GOLDEN / "verify_n8.txt").read_bytes()


def test_a_closed_pipe_stops_verify_at_the_next_suite(tmp_path):
    log = tmp_path / "suites"
    child = _held_verify(log, "--max-n", "10")
    assert _first_line(child) == b"ok   counting\n"
    child.stdout.close()  # the reader goes away, as `head -n 1` does
    _, err = child.communicate(b"\n", timeout=60)  # then the second suite runs
    assert (child.returncode, err) == (141, b"")
    assert log.read_text().split() == ["counting", "boundary-structure"]


def test_invalid_descriptor_exits_one(capsys):
    code, out, _ = run(
        capsys, ["scheme", "--d", "0,3", "--e", "0", "--t", "1", "--half-rank", "2"]
    )
    assert code == 1
    assert "false" in out


INVALID_WITH_WARNINGS = ["scheme", "--d", "1,2,4", "--e", "1,0", "--t", "2,1", "--half-rank", "3"]


def test_invalid_descriptor_report_lists_its_error_then_its_warnings(capsys):
    assert run(capsys, INVALID_WITH_WARNINGS) == (
        1,
        "descriptor  LF[1,2,4](1,0)_[2,1]@3\n"
        "valid       false\n"
        "error       d_2 = 4 exceeds half_rank 3\n"
        "warning     e_0 = 1 > e_1 = 0\n"
        "warning     t_0 = 2 > t_1 = 1\n",
        "",
    )
    code, out, err = run(capsys, [*INVALID_WITH_WARNINGS, "--format", "json"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "descriptor": {"half_rank": 3, "d": [1, 2, 4], "e": [1, 0], "t": [2, 1]},
        "valid": False,
        "violations": [
            {"constraint": "d_leq_half_rank", "message": "d_2 = 4 exceeds half_rank 3",
             "severity": "error"},
            {"constraint": "e_nondecreasing", "message": "e_0 = 1 > e_1 = 0",
             "severity": "warning"},
            {"constraint": "t_nondecreasing", "message": "t_0 = 2 > t_1 = 1",
             "severity": "warning"},
        ],
    }


@pytest.mark.parametrize(
    "argv,named",
    [
        (
            ["canonical", "--d", "1,2", "--e", "3", "--t", "1", "--half-rank", "N"],
            "LF[1,2](3)_[1]@N: e_0 = 3 exceeds d_0 = 1; e_0 = 3 exceeds d_1 = 2",
        ),
        (["scheme", "--name", "LF_5", "-n", "3"], "LF[5]()_[]@3: d_0 = 5 exceeds half_rank 3"),
    ],
    ids=["canonical-at-N", "named-scheme"],
)
def test_an_invalid_descriptor_from_a_name_or_at_N_is_a_usage_error(capsys, argv, named):
    assert run(capsys, argv) == (2, "", f"lagflag: error: invalid descriptor {named}\n")


def test_each_descriptor_is_validated_once(capsys, monkeypatch):
    from lagflag import flags

    calls = []
    real = flags.validate

    def counted(desc):
        calls.append(desc)
        return real(desc)

    monkeypatch.setattr(flags, "validate", counted)
    code, _, _ = run(capsys, ["scheme", "--diagram", "HVH", "--construction", "a"])
    assert (code, len(calls)) == (0, 1)
    for choice in (["--theory", "k"], ["--twist", "O"]):
        calls.clear()
        code, out, _ = run(capsys, ["basis", "-n", "6", *choice, "--format", "csv"])
        schemes = [row[4] for row in csv.reader(out.splitlines()[1:])]
        assert code == 0 and len(schemes) > 1
        assert sorted(map(str, calls)) == sorted(schemes)


def test_env_bound_override(capsys, monkeypatch):
    monkeypatch.setenv("LAGFLAG_MAX_N", "4")
    code, _, err = run(capsys, ["enumerate", "-n", "5"])
    assert code == 2
    code, out, err = run(capsys, ["basis", "-n", "5"])
    assert code == 2
    assert out == ""
    assert err.startswith("lagflag: error: frame size 5 is above the bound 4")
    monkeypatch.setenv("LAGFLAG_MAX_N", "18")
    code, out, _ = run(capsys, ["enumerate", "-n", "17", "--format", "csv"])
    assert code == 0
    assert out.count("\n") == 2**17 + 1


def test_verify_max_n_above_its_bound_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("LAGFLAG_MAX_N", raising=False)
    assert run(capsys, ["verify", "--max-n", "11"]) == (
        2, "", "lagflag: error: --max-n 11 is above the configured bound 10\n"
    )


@pytest.mark.parametrize("argv", [["recursion"], ["witt"], ["basis"]])
def test_counting_commands_check_the_bound_first(capsys, monkeypatch, argv):
    monkeypatch.delenv("LAGFLAG_MAX_N", raising=False)
    *_, bound = cli.COMMANDS[argv[0]]
    code, out, err = run(capsys, [*argv, "-n", str(bound + 1)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"lagflag: error: frame size {bound + 1} is above the bound {bound}")


#: The argument that takes a frame, for each command that takes one.
FRAME_ARGUMENTS = {
    "enumerate": "-n",
    "classify": "diagram",
    "scheme": "--diagram",
    "basis": "-n",
    "recursion": "-n",
    "verify": "--max-n",
    "witt": "-n",
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_exactly_the_commands_that_take_a_frame_have_a_bound(command):
    _, add_arguments, _, bound = cli.COMMANDS[command]
    parser = cli._Parser()
    add_arguments(parser)
    names = {name for action in parser._actions for name in action.option_strings or [action.dest]}
    assert (bound is not None) == (command in FRAME_ARGUMENTS)
    if bound is None:
        # scheme's -n is the half rank of --name, so it is no frame argument there
        assert not names & {"-n", "--max-n", "diagram", "--diagram"}
    else:
        assert type(bound) is int
        assert FRAME_ARGUMENTS[command] in names


HERMITIAN_BELOW_ONE = "lagflag: error: the Hermitian decomposition needs frame size >= 1, got {}\n"
ABOVE_FIVE = "lagflag: error: frame size 6 is above the bound 5 (LAGFLAG_MAX_N raises it)\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "bound, argv, message",
    [
        (None, ["-n", "0"], HERMITIAN_BELOW_ONE.format(0)),
        (None, ["-n", "0", "--twist", "Delta"], HERMITIAN_BELOW_ONE.format(0)),
        (None, ["-n", "-2"], HERMITIAN_BELOW_ONE.format(-2)),
        (None, ["-n", "-1", "--theory", "k"], "lagflag: error: expected frame size >= 0, got -1\n"),
        ("5", ["-n", "6"], ABOVE_FIVE),
        ("5", ["-n", "6", "--theory", "k"], ABOVE_FIVE),
        ("x", ["-n", "3"], "lagflag: error: LAGFLAG_MAX_N must be an integer, got 'x'\n"),
        ("-5", ["-n", "0"], "lagflag: error: LAGFLAG_MAX_N must be at least 0, got -5\n"),
    ],
    ids=[
        "O-0", "Delta-0", "O-minus-2", "k-minus-1", "O-above-bound", "k-above-bound", "bad-bound",
        "negative-bound",
    ],
)
def test_basis_errors_print_nothing_on_stdout(capsys, monkeypatch, bound, argv, message, fmt):
    # basis streams its summands, so the frame must be checked before the
    # first byte: a summand stream that checks on its first next() fails here
    if bound is None:
        monkeypatch.delenv("LAGFLAG_MAX_N", raising=False)
    else:
        monkeypatch.setenv("LAGFLAG_MAX_N", bound)
    assert run(capsys, ["basis", *argv, "--format", fmt]) == (2, "", message)


def rendered_basis(decomp, fmt):
    """A whole decomposition rendered in one piece, as `basis` printed it before streaming.

    Text comes without its header line, whose count the caller checks.
    """
    if fmt == "json":
        return json.dumps(decomp.to_json(), indent=2) + "\n"
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["diagram", "kind", "shift", "map", "scheme", "dim", "components", "parity_ok"]
        )
    for s in decomp.summands:
        if fmt == "csv":
            parity = "" if s.kind.value == "K" else str(
                scheme_alignment(s.source_diagram, s.scheme).ok
            ).lower()
            writer.writerow(
                [
                    s.source_diagram.steps,
                    s.kind.value,
                    "" if s.shift is None else s.shift,
                    s.map_label.value,
                    str(s.scheme),
                    relative_dimension(s.scheme),
                    component_count(s.scheme),
                    parity,
                ]
            )
        else:
            shift = "" if s.shift is None else f" shift={s.shift}"
            note = "" if s.base_twist is None else f" base_twist=V{s.base_twist}"
            print(
                f"  {s.source_diagram.steps or '-':<{max(decomp.n, 1)}} "
                f"{s.kind.value:<2} {s.map_label.value:<4}{shift}{note}  {s.scheme}",
                file=out,
            )
    return out.getvalue()


@pytest.mark.parametrize(
    "n, choice",
    [(0, "k")] + [(n, choice) for n in range(1, 13) for choice in ("O", "Delta", "k")],
)
def test_streamed_basis_matches_the_whole_decomposition(capsys, n, choice):
    if choice == "k":
        decomp, argv = k_basis(n), ["--theory", "k"]
    else:
        decomp, argv = gw_basis(n, Twist(choice)), ["--twist", choice]
    for fmt in ("json", "csv", "text"):
        code, out, err = run(capsys, ["basis", "-n", str(n), *argv, "--format", fmt])
        assert (code, err) == (0, "")
        if fmt != "text":
            assert out == rendered_basis(decomp, fmt)
            continue
        header, rows = out.split("\n", 1)
        assert rows == rendered_basis(decomp, fmt)
        theory, count = "K" if choice == "k" else "GW", len(rows.splitlines())
        assert header == f"{theory}-basis n={n} twist={decomp.twist.value} summands={count}"


def test_counting_commands_follow_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("LAGFLAG_MAX_N", "32")
    code, out, _ = run(capsys, ["recursion", "-n", "32"])
    assert code == 0
    assert out.count("PASS") == 2
    code, out, _ = run(capsys, ["witt", "-n", "32", "--twist", "Delta"])
    assert code == 0
    assert out.startswith("witt table n=32 twist=Delta\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["witt", "-n", "0"],
        ["recursion", "-n", "1"],
        ["verify", "--max-n", "-3"],
        ["verify", "--max-n", "2"],
    ],
)
def test_small_frames_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("lagflag: error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], "LAGFLAG_MAX_N must be at least 3 for verify, got 2"),
        (["--max-n", "2"], "--max-n must be at least 3, got 2"),
    ],
    ids=["bound-from-environment", "explicit-max-n"],
)
def test_verify_names_where_a_small_bound_came_from(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("LAGFLAG_MAX_N", "2")
    assert run(capsys, ["verify", *argv]) == (2, "", f"lagflag: error: {message}\n")


def test_canonical_rejects_non_integer_half_rank(capsys):
    code, _, err = run(capsys, ["canonical", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "x"])
    assert code == 2
    assert err == "lagflag: error: --half-rank must be an integer, got 'x'\n"


def test_scheme_rejects_non_integer_half_rank(capsys):
    code, _, err = run(capsys, ["scheme", "--d", "1,2", "--e", "0", "--t", "1", "--half-rank", "2.5"])
    assert code == 2
    assert err == "lagflag: error: --half-rank must be an integer, got '2.5'\n"


@pytest.mark.parametrize(
    "tuples,message",
    [
        (["--d=-1"], "d_0 = -1 is negative"),
        (["--d=1,2", "--e=0", "--t=0"], "t_0 = 0 is not positive"),
        (["--d=2,1", "--e=1", "--t=1"], "d_0 = 2 > d_1 = 1"),
    ],
)
def test_symbolic_canonical_rejects_what_every_half_rank_rejects(capsys, tuples, message):
    for half_rank in ("3", "N"):
        code, out, err = run(capsys, ["canonical", *tuples, "--half-rank", half_rank])
        assert (code, out) == (2, "")
        assert err.startswith("lagflag: error:") and err.count("\n") == 1
        assert message in err
        # the descriptor is named at the half rank the user gave
        assert f"@{half_rank}: " in err
        assert half_rank != "N" or re.search(r"@\d", err) is None


def test_verify_names_counting_mismatch(capsys, monkeypatch):
    from collections import Counter

    from lagflag import basis

    real = basis._counted  # the suite counts both twists of a frame in one call

    def off_by_one(n):
        by_twist = real(n)
        if n == 3:
            by_twist[Twist.DELTA] += Counter({("GW", 7): 1})
        return by_twist

    monkeypatch.setattr(basis, "_counted", off_by_one)
    code, out, _ = run(capsys, ["verify", "--max-n", "4"])
    assert code == 1
    assert (
        "FAIL recursions: frame 3 twist Delta: counted and enumerated atoms differ at ('GW', 7)"
        in out
    )


def test_verify_reports_a_library_error_as_a_failed_suite(capsys, monkeypatch):
    # a DescriptorError inside a suite fails that suite, not the command
    from lagflag import marking

    real = marking._padded

    def invalid_at_8(diagram, w, type1):
        desc = real(diagram, w, type1)
        if diagram.n != 8:
            return desc
        return FlagDescriptor(desc.half_rank, (-1,) + desc.d[1:], desc.e, desc.t)

    monkeypatch.setattr(marking, "_padded", invalid_at_8)
    code, out, err = run(capsys, ["verify", "--max-n", "8"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split(":")[0].split()[-1] for line in lines[:-1]] == [
        name for name, _ in verify.SUITES
    ]
    failed = [line for line in lines if line.startswith("FAIL ")]
    # recursions reads the walk roles and builds no scheme, so the fault misses it
    assert [line.split(":")[0] for line in failed] == [
        "FAIL marking-tuples", "FAIL twist-alignment", "FAIL geometry"
    ]
    # each names where it broke: a frame-8 walk, or frame 8
    message = r"invalid descriptor LF\[-1\]\(\)_\[\]@9: d_0 = -1 is negative"
    assert all(re.fullmatch(rf"FAIL [a-z-]+: [VH]{{8}}: {message}", line) for line in failed[:2])
    assert all(re.fullmatch(rf"FAIL [a-z-]+: frame 8: {message}", line) for line in failed[2:])
    assert lines[-1] == "verify: FAILURES"


def test_verify_names_the_walk_where_descriptor_dimensions_hit_a_library_error(
    capsys, monkeypatch
):
    from lagflag import marking

    real = marking.lf_ktheory

    def invalid_at_8(diagram):
        desc = real(diagram)
        if diagram.n != 8:
            return desc
        return FlagDescriptor(desc.half_rank, (-1,) + desc.d[1:], desc.e, desc.t)

    monkeypatch.setattr(marking, "lf_ktheory", invalid_at_8)
    code, out, err = run(capsys, ["verify", "--max-n", "8"])
    assert (code, err) == (1, "")
    line = "FAIL descriptor-dimensions: VVVVVVVV: invalid descriptor LF[-1]()_[]@8"
    assert line + ": d_0 = -1 is negative" in out.splitlines()


@pytest.mark.parametrize("argv", [["classify"], ["scheme", "--diagram"]], ids=lambda a: a[0])
def test_diagram_arguments_check_the_frame_bound(capsys, monkeypatch, argv):
    steps = "VH" * 8 + "V"
    monkeypatch.delenv("LAGFLAG_MAX_N", raising=False)
    assert run(capsys, [*argv, steps]) == (
        2, "", "lagflag: error: frame size 17 is above the bound 16 (LAGFLAG_MAX_N raises it)\n"
    )
    monkeypatch.setenv("LAGFLAG_MAX_N", "17")
    code, out, err = run(capsys, [*argv, steps])
    assert (code, err) == (0, "")
    assert ("steps        " + steps if argv == ["classify"] else "@17") in out


# --------------------------------------------------------------------------
# any argv: success, exit 1 on a failed check, or exit 2 with one error line

JUNK = st.sampled_from(["", "x", "2.5", "N", "1,,2", "-"])


def value(strategy):
    """Mostly a value of the strategy, one time in four a junk string."""
    return st.integers(0, 3).flatmap(lambda i: strategy if i else JUNK)


SIZES = value(st.integers(-2, 8).map(str))
INTS = value(st.lists(st.integers(-2, 8).map(str), max_size=4).map(",".join))
WALKS = value(st.text("VHvhx", max_size=8))
FORMATS = value(st.sampled_from(["text", "json", "csv"]))
TWISTS = value(st.sampled_from(["O", "Delta"]))
NAMES = value(st.sampled_from(["B2", "E2", "F2", "LF_0", "LF_3", "LF_x"]))
#: Per command, the options it requires and those it may take.
OPTIONS = {
    "enumerate": ({"-n": SIZES}, {"--format": FORMATS}),
    "classify": ({"diagram": WALKS}, {"--format": FORMATS}),
    "scheme": (
        {},
        {
            "--name": NAMES,
            "-n": SIZES,
            "--diagram": WALKS,
            "--construction": value(st.sampled_from(["ktheory", "a", "b"])),
            "--w": SIZES,
            "--d": INTS,
            "--e": INTS,
            "--t": INTS,
            "--half-rank": SIZES,
            "--format": FORMATS,
        },
    ),
    "canonical": (
        {"--d": INTS, "--half-rank": st.one_of(SIZES, st.just("n"))},
        {"--e": INTS, "--t": INTS, "--format": FORMATS},
    ),
    "basis": (
        {"-n": SIZES},
        {
            "--twist": TWISTS,
            "--theory": value(st.sampled_from(["k", "gw"])),
            "--format": FORMATS,
        },
    ),
    "recursion": ({"-n": SIZES}, {"--format": FORMATS}),
    "verify": ({}, {"--max-n": SIZES}),
    "witt": ({"-n": SIZES}, {"--twist": TWISTS, "--format": FORMATS}),
    "classify-connecting": ({"--c1": SIZES, "--c2": SIZES, "--lam": INTS}, {}),
}


def tokens(option, val):
    if option == "diagram":  # the positional argument of classify
        return [val]
    return [f"{option}={val}"] if option.startswith("--") else [option, val]


def argv_of(command):
    required, optional = OPTIONS[command]
    chosen = st.fixed_dictionaries(required, optional=optional)

    def argv(opts):
        return [command] + [tok for opt, val in opts.items() for tok in tokens(opt, val)]

    return chosen.map(argv)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.sampled_from(sorted(OPTIONS)).flatmap(argv_of))
def test_any_argv_succeeds_fails_a_check_or_is_a_usage_error(capsys, argv):
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        # a bound below the drawn sizes keeps verify small and reaches the bound checks
        mp.setenv("LAGFLAG_MAX_N", "6")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    err = capsys.readouterr().err
    if code == 2:
        error = re.compile(r"lagflag: error: ")
        lines = err.splitlines()
        assert [line for line in lines if error.match(line)] == [lines[-1]]
        assert all(line.startswith(("usage:", " ")) for line in lines[:-1])
    else:
        assert code == 0 or (code == 1 and argv[0] in ("scheme", "recursion", "verify"))
        assert err == ""
