"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints two integers: the set-up time in ns (importing NumPy and the library,
generating the tasks, building the model and prior) and the median of three
speed probes taken right after it. ``run.py`` starts this script several
times per run to report ``setup_s``; it inherits the BLAS thread setting.
"""

import time

T0 = time.perf_counter_ns()

import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

wl = WORKLOADS[sys.argv[1]]
wl.setup(int(sys.argv[2]))
setup_ns = time.perf_counter_ns() - T0

import speedprobe  # noqa: E402

probe = statistics.median(speedprobe.probe_ns(wl.probe) for _ in range(3))
print(setup_ns, int(probe))
