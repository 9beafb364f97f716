"""The benchmark in perfbench/ imports and traces package names (spans such
as `latticefn.shift_poly`, the `QContext` fields, `relations.stepline_valid`).
Running its self-test here makes a rename that breaks it fail in the test
suite rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
