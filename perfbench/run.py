#!/usr/bin/env python3
"""Benchmark of the lagflag library and CLI, end to end and per module.

    python3 perfbench/run.py --workload basis-emit --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``basis-emit``: fresh CLI processes that build and print frame-14 bases.
* ``identity-check``: fresh CLI processes that check the recursion
  identities, the Witt table and the verification suites.
* ``point-queries``: fresh processes that each answer a seeded stream of
  distinct single-diagram library queries over frames 8..40.

With ``--trace 0`` the run times whole processes, one at a time in closed
loop, and reports the end-to-end metrics.  It repeats passes over the
workload's processes until the next pass would end after ``--seconds``.  With ``--trace 1`` it runs the
same work in this process, alternating an untraced pass with a pass in
which the public functions of every lagflag module are wrapped, and
reports per-module call counts and self times.  Every output is checked;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from queries import query_stream, run_query
from tracing import DIAGRAMS, TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A run must end within this many seconds of its start; a process still
#: running then is killed and counted as failed.
HARD_LIMIT_S = 170.0

#: The no-work invocation whose wall time is `setup_s`.
SETUP_ARGV = ("classify-connecting", "--c1", "3", "--c2", "2", "--lam", "0,0")
SETUP_OUTPUT = b"EtaCaseII\n"
#: No-work invocations before the first pass (one more follows each pass).
SETUP_FIRST = 3

CALIBRATION_OUTPUT = b"1375907 153\n"
#: Wall time of calibrate.py on the reference machine (2-vCPU VM, Python
#: 3.11.7) in its fast phase; scales the time ratios back to seconds.
CALIBRATION_REF_S = 0.28

#: Queries per point-queries pass: one query process untraced, in-process traced.
QUERIES_PER_PROCESS = 4000

REFERENCES = json.loads((HERE / "references.json").read_text())


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def _inv(cmd: str) -> Invocation:
    return Invocation(tuple(cmd.split()))


WORKLOADS = {
    "basis-emit": (
        _inv("basis -n 14 --twist O --format json"),
        _inv("basis -n 14 --twist Delta --format csv"),
        _inv("basis -n 14 --theory k --format csv"),
    ),
    "identity-check": (
        _inv("recursion -n 13"),
        _inv("recursion -n 14"),
        _inv("witt -n 14 --twist Delta"),
        _inv("verify --max-n 8"),
    ),
    "point-queries": (),
}

K_BASIS_ROWS = 2**14


# ---------------------------------------------------------------------------
# outputs and their checks


class OutputDigest:
    """Write target that hashes and counts what a CLI invocation prints.

    Accepts bytes (a child's pipe) and str (``print`` in this process).
    Keeps the first `HEAD` bytes, and all of them with ``keep=True``.
    """

    HEAD = 4096

    def __init__(self, keep: bool = False):
        self.sha256 = hashlib.sha256()
        self.nbytes = 0
        self.lines = 0
        self.keep = keep
        self.chunks: list[bytes] = []
        self.head = b""

    def write(self, data) -> int:
        chunk = data.encode() if isinstance(data, str) else data
        self.sha256.update(chunk)
        self.nbytes += len(chunk)
        self.lines += chunk.count(b"\n")
        if len(self.head) < self.HEAD:
            self.head += chunk[: self.HEAD - len(self.head)]
        if self.keep:
            self.chunks.append(chunk)
        return len(data)

    def flush(self) -> None:
        pass


def check_output(inv: Invocation, rc: int, out: OutputDigest) -> str | None:
    """None when the invocation's output is right, else what is wrong."""
    if rc != 0:
        return f"exit code {rc}"
    if inv.argv == SETUP_ARGV:
        return None if out.head == SETUP_OUTPUT and out.nbytes == len(SETUP_OUTPUT) else (
            f"printed {out.head[:80]!r}, expected {SETUP_OUTPUT!r}"
        )
    ref = REFERENCES.get(inv.name)
    if ref is not None and (out.sha256.hexdigest(), out.nbytes) != (ref["sha256"], ref["bytes"]):
        return f"output differs from the reference ({out.nbytes} bytes, expected {ref['bytes']})"
    if inv.argv[:1] == ("basis",) and "k" in inv.argv and out.lines - 1 != K_BASIS_ROWS:
        return f"K-basis CSV has {out.lines - 1} rows, expected {K_BASIS_ROWS}"
    if inv.argv[:1] == ("recursion",):
        cases = [ln for ln in out.head.decode(errors="replace").splitlines() if ln.startswith("case (")]
        if len(cases) != 2 or not all(": PASS" in ln for ln in cases):
            return f"recursion cases not all PASS: {cases}"
    return None


def summands_written(inv: Invocation, out: OutputDigest) -> int:
    """Summands a `basis` invocation printed (0 for other commands)."""
    if inv.argv[:1] != ("basis",):
        return 0
    if "json" in inv.argv:
        return len(json.loads(b"".join(out.chunks))["summands"])
    return out.lines - 1


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {failure}")


# ---------------------------------------------------------------------------
# child processes


@dataclass
class ProcResult:
    rc: int
    wall_s: float
    ttfb_s: float
    rss_mb: float
    stderr: bytes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("LAGFLAG_MAX_N", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_process(argv, sink, deadline: float) -> ProcResult:
    """Run `argv` to completion, feeding its stdout to `sink.write`.

    Times the first stdout byte and the exit, and reads the child's own
    peak RSS with ``os.wait4``: ``getrusage(RUSAGE_CHILDREN)`` would give
    the maximum over every child reaped so far.  A child still running at
    `deadline` (a ``perf_counter`` value) is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT
    )
    ttfb = None
    err = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
                if not ready:
                    proc.kill()
                    break
                for key, _ in ready:
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        if ttfb is None:
                            ttfb = time.perf_counter() - t0
                        sink.write(chunk)
                    elif len(err) < 1 << 16:
                        err += chunk
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    if proc.returncode == -signal.SIGKILL:
        err += b"killed at the run's time limit"
    return ProcResult(
        rc=proc.returncode,
        wall_s=wall,
        ttfb_s=wall if ttfb is None else ttfb,
        rss_mb=usage.ru_maxrss / 1024,
        stderr=err,
    )


def run_cli(inv: Invocation, tally: Tally, deadline: float) -> ProcResult:
    out = OutputDigest()
    res = run_process([sys.executable, "-m", "lagflag.cli", *inv.argv], out, deadline)
    failure = check_output(inv, res.rc, out)
    if failure is not None and res.stderr:
        failure += f" (stderr: {res.stderr.decode(errors='replace').strip()[-300:]})"
    tally.record(inv.name, failure)
    return res


# ---------------------------------------------------------------------------
# percentiles


TAIL_LADDER = (50, 90, 99, 99.9, 99.99, 99.999)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = math.ceil(len(sorted_values) * p / 100 - 1e-9)
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of `TAIL_LADDER` with at least ten of `n` samples beyond it."""
    fits = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10 - 1e-9]
    return fits[-1] if fits else None


# ---------------------------------------------------------------------------
# untraced runs


def _metric(value, unit):
    return {"value": value, "unit": unit}


class QueryLines:
    """Parses the answer lines of query processes (see queries.py)."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.partial = b""
        self.answered = 0
        self.latencies_us: list[float] = []

    def write(self, chunk: bytes) -> None:
        lines = (self.partial + chunk).split(b"\n")
        self.partial = lines.pop()
        for line in lines:
            self.answered += 1
            if line.isdigit():
                self.latencies_us.append(int(line) / 1e3)
                self.tally.record("query", None)
            else:
                self.tally.record("query", line.removeprefix(b"F ").decode(errors="replace"))


def run_query_process(seed: str, sink: QueryLines, tally: Tally, deadline: float):
    argv = [sys.executable, str(HERE / "queries.py"), "--seed", seed, "--count", str(QUERIES_PER_PROCESS)]
    before = sink.answered
    res = run_process(argv, sink, deadline)
    if res.rc != 0 or sink.partial or sink.answered - before != QUERIES_PER_PROCESS:
        detail = res.stderr.decode(errors="replace").strip()[-300:]
        tally.record("query process", f"exit code {res.rc}, {sink.answered - before} answers: {detail}")
        sink.partial = b""
    return res


def calibrate(deadline: float) -> float:
    """Wall time of one calibration process (see calibrate.py)."""
    out = OutputDigest()
    res = run_process([sys.executable, str(HERE / "calibrate.py")], out, deadline)
    if res.rc != 0 or out.head != CALIBRATION_OUTPUT:
        raise RuntimeError(f"calibration process failed: {res.stderr.decode(errors='replace')[-300:]}")
    return res.wall_s


def measure_workload(name: str, seed: int, seconds: float, start: float):
    """Repeat passes of the workload's processes until the next would end late.

    Every measured process is followed by a calibration process.  Its wall
    and first-byte times are divided by the calibration time over the same
    interval, taken as moving linearly between the calibration processes on
    either side, and the metrics take the median of these ratios over the
    run, times `CALIBRATION_REF_S`: seconds at the reference machine's
    speed.  Peak RSS needs no such correction.  The unscaled median wall
    time of each process, and of the calibration process, is printed on a
    line of its own, so the real seconds stay on record.
    """
    tally = Tally()
    deadline = start + HARD_LIMIT_S
    setup = Invocation(SETUP_ARGV)
    run_cli(setup, tally, deadline)  # writes the bytecode caches, paid once per install
    queries = QueryLines(tally)
    rng = random.Random(seed)
    ratios: dict[str, list[tuple[float, float]]] = {}
    raw_walls: dict[str, list[float]] = {}
    peak_rss = 0.0
    cal_before = calibrate(deadline)
    cal_walls = [cal_before]

    def timed(key: str, res: ProcResult) -> None:
        nonlocal cal_before, peak_rss
        cal_after = calibrate(deadline)
        cal_walls.append(cal_after)
        # The calibration time drifts from cal_before to cal_after over the
        # process; average that line over the measured interval.
        over = lambda t: cal_before + (cal_after - cal_before) * t / res.wall_s / 2
        ratios.setdefault(key, []).append((res.wall_s / over(res.wall_s), res.ttfb_s / over(res.ttfb_s)))
        cal_before = cal_after
        raw_walls.setdefault(key, []).append(res.wall_s)
        peak_rss = max(peak_rss, res.rss_mb)

    for _ in range(SETUP_FIRST):
        timed("setup", run_cli(setup, tally, deadline))
    passes = 0
    while True:
        p0 = time.perf_counter()
        if name == "point-queries":
            timed("queries", run_query_process(f"{seed}.{passes}", queries, tally, deadline))
        else:
            for inv in rng.sample(WORKLOADS[name], len(WORKLOADS[name])):
                timed(inv.name, run_cli(inv, tally, deadline))
        timed("setup", run_cli(setup, tally, deadline))
        passes += 1
        pass_wall = time.perf_counter() - p0
        if time.perf_counter() - start + pass_wall > seconds:
            break

    scaled = lambda key, i: statistics.median(r[i] for r in ratios[key]) * CALIBRATION_REF_S
    work = [key for key in ratios if key != "setup"]
    metrics = {
        "wall_s": _metric(sum(scaled(key, 0) for key in work), "s"),
        "ttfb_s": _metric(sum(scaled(key, 1) for key in work), "s"),
        "peak_rss_mb": _metric(peak_rss, "MB"),
        "setup_s": _metric(scaled("setup", 0), "s"),
    }
    unscaled = {key: statistics.median(walls) for key, walls in raw_walls.items()}
    unscaled["calibration"] = statistics.median(cal_walls)
    print("unscaled " + json.dumps(unscaled))
    notes = [
        f"{passes} passes of {len(work)} processes, {len(ratios['setup'])} no-work invocations",
        f"unscaled median wall time of a pass {sum(unscaled[key] for key in work):.4f} s",
    ]
    if name == "point-queries":
        lat = sorted(queries.latencies_us)
        if len(lat) < 1000:
            tally.record("query processes", f"only {len(lat)} latency samples, p99 needs 1000")
        if lat:
            tail = tail_percentile(len(lat)) or 50
            notes += [
                f"query_p50_us {percentile(lat, 50):.1f} us",
                f"query_p99_us {percentile(lat, 99):.1f} us",
                f"tail p{tail} {percentile(lat, tail):.1f} us of {len(lat)} samples",
            ]
    return tally, metrics, notes


# ---------------------------------------------------------------------------
# traced runs


def import_lagflag():
    """Import lagflag from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import lagflag
    import lagflag.cli

    if Path(lagflag.__file__).resolve().parent != SRC / "lagflag":
        raise ImportError(f"lagflag imported from {lagflag.__file__}, not {SRC}")
    modules = {name: getattr(lagflag, name) for name in ("diagrams", "marking", "flags", "picard", "basis")}
    modules["cli"] = lagflag.cli
    modules["lagflag"] = lagflag
    return lagflag, modules


def cli_pass(cli, invocations, tally: Tally, counts: dict) -> None:
    """Run each invocation through ``cli.main`` in this process and check it."""
    for inv in invocations:
        out = OutputDigest(keep=inv.argv[0] == "basis")
        try:
            with redirect_stdout(out):
                rc = cli.main(list(inv.argv))
        except (Exception, SystemExit) as exc:
            tally.record(inv.name, f"raised {type(exc).__name__}: {exc}")
            continue
        tally.record(inv.name, check_output(inv, rc, out))
        counts["output_bytes"] += out.nbytes
        counts["summands"] += summands_written(inv, out)


def query_pass(lib, seed: str, tally: Tally, counts: dict) -> None:
    for (n, steps), _ in zip(query_stream(seed), range(QUERIES_PER_PROCESS)):
        _, failure = run_query(lib, n, steps)
        tally.record("query", failure)
        counts["queries"] += 1


def trace_workload(name: str, seed: int, seconds: float, start: float):
    """Alternate untraced and traced passes in this process.

    Query passes each take a fresh stream, as the query processes do.  The
    frame-size bound is the CLI's default, as in the child processes.
    """
    os.environ.pop("LAGFLAG_MAX_N", None)
    lib, modules = import_lagflag()
    tally = Tally()
    rng = random.Random(seed)
    invs = WORKLOADS[name]

    def run_pass(k: int) -> tuple[float, dict]:
        counts = {"output_bytes": 0, "summands": 0, "queries": 0}
        t0 = time.perf_counter()
        if name == "point-queries":
            query_pass(lib, f"{seed}.{k}", tally, counts)
        else:
            cli_pass(modules["cli"], rng.sample(invs, len(invs)), tally, counts)
        return time.perf_counter() - t0, counts

    tracer = Tracer()
    plain_walls, traced_walls, folds = [], [], []
    while True:
        plain_walls.append(run_pass(2 * len(folds))[0])
        tracer.reset()
        with tracer.installed(modules):
            wall, counts = run_pass(2 * len(folds) + 1)
        traced_walls.append(wall)
        folds.append((tracer.fold(), dict(tracer.counters), counts))
        if time.perf_counter() - start + plain_walls[-1] + traced_walls[-1] > seconds:
            break

    suites = [suite for suite, _ in modules["cli"].SUITES]
    metrics = layer_metrics(folds, suites, plain_walls, traced_walls)
    first, counters, counts = folds[0]
    notes = [
        f"{len(folds)} untraced/traced pass pairs, {len(tracer.span_name)} spans in the last",
        f"diagrams {counters.get(DIAGRAMS, 0) + counts['queries']}, "
        f"summands written {counts['summands']}",
    ]
    return tally, metrics, notes


def layer_metrics(folds, suites, plain_walls, traced_walls) -> dict:
    """Per-layer metrics from the traced passes.

    `folds` holds one ``(Tracer.fold(), counters, counts)`` per traced pass.
    Call counts come from the first pass; times are the fastest over all,
    as in untraced runs.
    """
    first, counters, counts = folds[0]
    calls = lambda span: first.get(span, (0, 0.0))[0]
    self_s = lambda span: min(f.get(span, (0, 0.0))[1] for f, _, _ in folds)
    ratio = lambda a, b: a / b if b else 0.0
    metrics = {}
    for mod_name, fn_names in TARGETS.items():
        for fn in fn_names:
            metrics[f"{mod_name}.{fn}.calls"] = _metric(calls(f"{mod_name}.{fn}"), "count")
            metrics[f"{mod_name}.{fn}.self_s"] = _metric(self_s(f"{mod_name}.{fn}"), "s")
    # Point queries build their diagrams directly, one each.
    diagrams = counters.get(DIAGRAMS, 0) + counts["queries"]
    schemes = sum(calls(f"marking.{fn}") for fn in ("lf_a", "lf_b", "lf_ktheory"))
    derived = {
        "diagrams.boundary.calls_per_diagram": ratio(calls("diagrams.boundary"), diagrams),
        "diagrams.classify.calls_per_diagram": ratio(calls("diagrams.classify"), diagrams),
        "marking.schemes_emitted_per_built": ratio(counts["summands"], schemes),
        "flags.validate.calls_per_scheme": ratio(calls("flags.validate"), schemes),
    }
    metrics.update((name, _metric(value, "ratio")) for name, value in derived.items())
    metrics["cli.main.self_s"] = _metric(self_s("cli.main"), "s")
    metrics["cli.output_bytes"] = _metric(counts["output_bytes"], "B")
    for suite in suites:
        metrics[f"cli.verify.{suite}.self_s"] = _metric(self_s(f"cli.verify.{suite}"), "s")
    overhead = min(traced_walls) / min(plain_walls)
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # A terminated run still kills and reaps the process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "lagflag" / "cli.py").is_file():
        print(f"perfbench: error: no lagflag sources under {SRC}", file=sys.stderr)
        return 2
    run = trace_workload if args.trace else measure_workload
    tally, metrics, notes = run(args.workload, args.seed, args.seconds, start)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + "; ".join(notes))
    for key, m in metrics.items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_ratio {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed} of {tally.attempted} operations failed)")
    for message in tally.messages:
        print(f"  FAILED {message}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
