#!/usr/bin/env python3
"""Run the benchmark over seeds 1..10 and report each metric's spread.

    python3 perfbench/sweep.py --traced --out sweep.json

For each workload of BENCHMARK.json it makes ten untraced runs, seeds 1..10,
one after another, and reports per end-to-end metric the median and the
quartiles (``statistics.quantiles(values, n=4)``) with the interquartile
distance as a share of the median, next to the bound from BENCHMARK.json.
With ``--traced`` it adds two traced runs per workload, with seed 1, and
checks that their call counts are identical.  The JSON written by
``--out`` holds every run's metrics, and for untraced runs the unscaled
median wall times run.py prints, so a later sweep can be compared against
it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
UNSCALED = "unscaled "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output; stderr: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith(UNSCALED):
            result["unscaled_s"] = json.loads(line[len(UNSCALED):])
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "bound": bound,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true", help="add two traced runs per workload")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            values = ", ".join(f"{k} {v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
            print(f"  seed {seed}: correct {runs[-1]['correct']}, {values}", flush=True)
        ok = ok and all(r["correct"] for r in runs)
        entry = {"seeds": list(SEEDS), "runs": runs, "summary": {}}
        print(f"{workload}: {sum(r['correct'] for r in runs)}/{len(runs)} runs correct", flush=True)
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = entry["summary"][metric] = summarize(values, bound)
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}"
                  f"  spread {s['spread']:.3f} (bound {bound}){flag}")
        if args.traced:
            traced = [run_once(workload, 1, spec["run_seconds"], 1) for _ in range(2)]
            calls = [{k: v["value"] for k, v in t["metrics"].items() if k.endswith(".calls")} for t in traced]
            same = calls[0] == calls[1]
            ok = ok and same and all(t["correct"] for t in traced)
            print(f"  traced: 2 runs of seed 1, correct {[t['correct'] for t in traced]}, "
                  f"call counts identical: {same}", flush=True)
            entry["traced"] = traced
        result["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
