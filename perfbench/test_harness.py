"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from queries import query_stream, run_query  # noqa: E402


def digest_of(data: bytes) -> run.OutputDigest:
    out = run.OutputDigest()
    out.write(data)
    return out


class OutputChecks(unittest.TestCase):
    INV = run.Invocation(("recursion", "-n", "13"))
    TEXT = (
        b"case (c): PASS  [O(13) = ...]\n"
        b"case (d): PASS  [Delta(13) = ...]\n"
    )

    def setUp(self):
        ref = {"sha256": hashlib.sha256(self.TEXT).hexdigest(), "bytes": len(self.TEXT)}
        patcher = mock.patch.dict(run.REFERENCES, {self.INV.name: ref})
        patcher.start()
        self.addCleanup(patcher.stop)

    def test_reference_output_passes(self):
        self.assertIsNone(run.check_output(self.INV, 0, digest_of(self.TEXT)))

    def test_one_corrupted_byte_fails(self):
        corrupted = self.TEXT.replace(b"13", b"12", 1)
        self.assertIn("differs", run.check_output(self.INV, 0, digest_of(corrupted)))

    def test_truncated_output_fails(self):
        self.assertIsNotNone(run.check_output(self.INV, 0, digest_of(self.TEXT[:-1])))

    def test_exit_code_fails_even_with_right_output(self):
        self.assertIn("exit code", run.check_output(self.INV, 1, digest_of(self.TEXT)))

    def test_failed_recursion_case_fails_without_a_reference(self):
        inv = run.Invocation(("recursion", "-n", "12"))
        text = b"case (a): PASS  [x]\ncase (b): FAIL at ('GW', 3)  [y]\n"
        self.assertIn("not all PASS", run.check_output(inv, 0, digest_of(text)))

    def test_k_basis_row_count(self):
        inv = run.Invocation(("basis", "-n", "14", "--theory", "k", "--format", "csv"))
        with mock.patch.dict(run.REFERENCES, clear=True):
            short = b"header\n" + b"row\n" * (run.K_BASIS_ROWS - 1)
            self.assertIn("rows", run.check_output(inv, 0, digest_of(short)))
            full = b"header\n" + b"row\n" * run.K_BASIS_ROWS
            self.assertIsNone(run.check_output(inv, 0, digest_of(full)))

    def test_setup_output(self):
        setup = run.Invocation(run.SETUP_ARGV)
        self.assertIsNone(run.check_output(setup, 0, digest_of(b"EtaCaseII\n")))
        self.assertIsNotNone(run.check_output(setup, 0, digest_of(b"EtaCaseIII\n")))

    def test_in_process_pass_counts_corrupted_and_raising_invocations(self):
        def main(argv):
            if argv[0] == "witt":
                raise RuntimeError("boom")
            print("case (c): PASS  [O(13) = ...]")
            print("case (d): PASS  [Delta(13) = ...]  corrupted")
            return 0

        tally = run.Tally()
        counts = {"output_bytes": 0, "summands": 0, "queries": 0}
        invs = [self.INV, run.Invocation(("witt", "-n", "14"))]
        run.cli_pass(types.SimpleNamespace(main=main), invs, tally, counts)
        self.assertEqual((tally.attempted, tally.failed), (2, 2))


class QueryChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib, _ = run.import_lagflag()

    def test_stream_is_seeded_and_distinct(self):
        take = lambda seed: [q for q, _ in zip(query_stream(seed), range(3000))]
        first = take(7)
        self.assertEqual(first, take(7))
        self.assertNotEqual(first, take(8))
        self.assertEqual(len(set(first)), len(first))
        self.assertTrue(all(8 <= n <= 40 and len(steps) == n for n, steps in first))

    def test_real_queries_pass(self):
        for n, steps in [q for q, _ in zip(query_stream(3), range(200))]:
            seconds, failure = run_query(self.lib, n, steps)
            self.assertIsNone(failure)
            self.assertGreater(seconds, 0)

    def test_raising_query_is_a_failure(self):
        def classify(diagram):
            raise ValueError("broken")

        lib = types.SimpleNamespace(
            diagrams=types.SimpleNamespace(
                ShiftedDiagram=self.lib.diagrams.ShiftedDiagram,
                classify=classify,
                boundary=self.lib.diagrams.boundary,
            ),
            marking=self.lib.marking,
            flags=self.lib.flags,
            picard=self.lib.picard,
        )
        seconds, failure = run_query(lib, 8, "VHVHVHVH")
        self.assertIsNone(seconds)
        self.assertIn("ValueError", failure)

    def test_wrong_closed_form_is_a_failure(self):
        real = self.lib.flags.scheme_report

        def scheme_report(desc):
            report = real(desc)
            return types.SimpleNamespace(
                relative_dimension=report.relative_dimension + 1,
                component_count=report.component_count,
            )

        flags = types.SimpleNamespace(scheme_report=scheme_report)
        lib = types.SimpleNamespace(
            diagrams=self.lib.diagrams, marking=self.lib.marking, flags=flags, picard=self.lib.picard
        )
        _, failure = run_query(lib, 9, "VHHVVHVHH")
        self.assertIn("dimension", failure)

    def test_failure_lines_from_the_query_process_count(self):
        tally = run.Tally()
        sink = run.QueryLines(tally)
        sink.write(b"1500\n2500\nF 8 VVVVHHHH: ValueError: x\nTraceback\n40")
        sink.write(b"00\n")
        self.assertEqual((tally.attempted, tally.failed, sink.answered), (5, 2, 5))
        self.assertEqual(sink.latencies_us, [1.5, 2.5, 4.0])


class Spans(unittest.TestCase):
    def fake_clock(self, *times):
        ticks = iter(times)
        return lambda: next(ticks)

    def test_self_time_subtracts_direct_children_only(self):
        # outer [0, 20]: inner [1, 9] (holding leaf [2, 7]), inner [10, 13]
        tracer = tracing.Tracer(self.fake_clock(0, 1, 2, 7, 9, 10, 13, 20))
        leaf = tracer.wrap("leaf", lambda: None)

        def inner_body(deep):
            if deep:
                leaf()

        inner = tracer.wrap("inner", inner_body)

        def outer_body():
            inner(True)
            inner(False)

        tracer.wrap("outer", outer_body)()
        folded = tracer.fold()
        self.assertEqual(folded["outer"], (1, 20 - 8 - 3))
        self.assertEqual(folded["inner"], (2, (8 - 5) + 3))
        self.assertEqual(folded["leaf"], (1, 5))

    def test_span_recorded_when_the_call_raises(self):
        tracer = tracing.Tracer(self.fake_clock(0, 4))

        def fail():
            raise KeyError

        with self.assertRaises(KeyError):
            tracer.wrap("fail", fail)()
        self.assertEqual(tracer.fold()["fail"], (1, 4))
        self.assertEqual(tracer._stack, [])

    def test_installed_wraps_every_binding_and_restores(self):
        lib, modules = run.import_lagflag()
        orig = lib.diagrams.boundary
        tracer = tracing.Tracer()
        with tracer.installed(modules):
            for module in (lib, lib.diagrams, lib.marking, lib.basis, lib.picard):
                self.assertIsNot(module.boundary, orig)
            lib.picard.twist_alignment(
                lib.diagrams.ShiftedDiagram(2, "HH"), lib.picard.TwistVariant.XI0, 2
            )
            lib.diagrams.enumerate_diagrams(3)
        for module in (lib, lib.diagrams, lib.marking, lib.basis, lib.picard):
            self.assertIs(module.boundary, orig)
        folded = tracer.fold()
        self.assertEqual(folded["picard.twist_alignment"][0], 1)
        self.assertGreater(folded["diagrams.boundary"][0], 1)
        self.assertEqual(tracer.counters[tracing.DIAGRAMS], 8)


class Calibration(unittest.TestCase):
    def test_calibration_process_runs_and_prints_its_checksum(self):
        self.assertGreater(run.calibrate(run.time.perf_counter() + 60), 0)


class Percentiles(unittest.TestCase):
    def test_tail_is_highest_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10_000), 99.9)
        self.assertEqual(run.tail_percentile(100_000), 99.99)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(run.percentile(values, 50), 500)
        self.assertEqual(run.percentile(values, 99), 990)
        self.assertEqual(run.percentile(values, 99.9), 999)
        self.assertEqual(run.percentile([5.0], 99), 5.0)


class Contract(unittest.TestCase):
    def test_per_layer_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        _, modules = run.import_lagflag()
        suites = [name for name, _ in modules["cli"].SUITES]
        fold = ({}, {}, {"output_bytes": 0, "summands": 0, "queries": 0})
        metrics = run.layer_metrics([fold], suites, [1.0], [1.2])
        self.assertEqual(list(metrics), [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, units)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=HERE.parent, prefix=".perfbench-test-") as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "basis-emit",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
