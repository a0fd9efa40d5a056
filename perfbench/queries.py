"""The point-queries workload: a seeded stream of single-diagram library queries.

Each query builds one fresh diagram of a frame in 8..40 and runs the
per-diagram library calls (classification, boundary, the K-theory scheme
and its report, the padded schemes, canonical sheaf parity, twist
alignment).  The stream never repeats a diagram, so no two queries share
work.  Each answer is checked against closed forms, not recorded outputs,
because the seed changes the inputs.

Run as a script, this is one query process of an untraced run:

    PYTHONPATH=src python3 perfbench/queries.py --seed 1.0 --count 4000

It answers the first `--count` queries of the stream in closed loop, one at
a time, and writes one line per answer, flushed: the latency of the library
calls in nanoseconds, or ``F <reason>``.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from math import comb

FRAMES = (8, 40)
_STEPS = str.maketrans("01", "VH")


def query_stream(seed: str):
    """Yield distinct ``(n, steps)`` queries; the same seed gives the same stream."""
    rng = random.Random(seed)
    seen = set()
    while True:
        n = rng.randint(*FRAMES)
        bits = rng.getrandbits(n)
        key = (bits << 6) | n
        if key in seen:
            continue
        seen.add(key)
        yield n, format(bits, f"0{n}b").translate(_STEPS)


def run_query(lib, n: int, steps: str):
    """Answer one query through the modules of package `lib`.

    Returns ``(seconds, failure)``: the latency of the library calls, and
    None or a message saying which call raised or which check failed.
    Functions are looked up on the modules at call time, so a traced run
    times the wrapped ones.
    """
    D, M, F, P = lib.diagrams, lib.marking, lib.flags, lib.picard
    try:
        t0 = time.perf_counter()
        diagram = D.ShiftedDiagram(n, steps)
        cls = D.classify(diagram)
        b = D.boundary(diagram)
        report = F.scheme_report(M.lf_ktheory(diagram))
        l = b.segment_count
        padded = M.lf_a(diagram, l)
        P.mod2_reduce(P.canonical_sheaf(padded), padded)
        if steps[0] == "H":
            M.lf_b(diagram, l)
        alignment = None
        if cls.is_almost_even:
            xi1 = n % 2 == 0 and steps[0] == "V"
            variant = P.TwistVariant.XI1 if xi1 else P.TwistVariant.XI0
            alignment = P.twist_alignment(diagram, variant, n)
        elapsed = time.perf_counter() - t0
    except Exception as exc:
        return None, f"{n} {steps}: {type(exc).__name__}: {exc}"
    expected_dim = comb(n + 1, 2) - diagram.weight
    if report.relative_dimension != expected_dim:
        return elapsed, f"{steps}: K-scheme dimension {report.relative_dimension}, expected {expected_dim}"
    if report.component_count != 1:
        return elapsed, f"{steps}: K-scheme has {report.component_count} components"
    if sum(b.lengths) != n:
        return elapsed, f"{steps}: segment lengths sum to {sum(b.lengths)}"
    if alignment is not None and not alignment.ok:
        return elapsed, f"{steps}: twist parity {alignment.parity}, required {alignment.required}"
    return elapsed, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", required=True, help="seed of the query stream")
    parser.add_argument("--count", type=int, required=True, help="queries to answer")
    args = parser.parse_args(argv)

    import lagflag

    out = sys.stdout
    for (n, steps), _ in zip(query_stream(args.seed), range(args.count)):
        seconds, failure = run_query(lagflag, n, steps)
        if failure is None:
            out.write(f"{round(seconds * 1e9)}\n")
        else:
            out.write(f"F {' '.join(failure.split())}\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
