"""The benchmark's self-test passes against the package as it stands.

bench/ builds Sample lists, calls build_batch on plain lists, constructs
BatchPlans and fits on sample lists.  bench/selftest.py runs every workload
at a tiny size and checks that corrupted outputs are caught, so a change
that breaks one of those calls fails here and not only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join("bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
