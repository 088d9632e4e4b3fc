"""Set-up time of one workload in a fresh process.

    PYTHONPATH=src:perfbench python3 perfbench/probe.py <workload> <seed>

Prints the seconds from before ``import koszulknots`` (through
``workloads``) to the end of the workload's ``setup``: what a command-line
user pays before the first computation.  ``run.py`` starts it several
times and reports the median as ``setup_s``.
"""

import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the import is what is timed)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - start)
