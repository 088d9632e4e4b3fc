"""The benchmark's self-check runs clean against the current library.

The tracer in perfbench/ wraps library functions by name from outside, so
a refactor of the library could silently break the traced layers; this
runs the benchmark's own tiny-workload check.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selfcheck():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
