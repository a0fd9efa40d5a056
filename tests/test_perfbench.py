"""The benchmark harness's own self-tests pass against this checkout.

They read names the library binds and the suites it runs, so a refactor
that drops one of them fails here and not only in CI.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_harness_self_tests_pass():
    child = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),  # leaves no __pycache__ behind
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert child.returncode == 0, child.stdout
