"""Machine-speed calibration of the timing metrics.

The shared machines this benchmark runs on change speed by up to about 45 %,
for a few to tens of seconds at a time, alike for every process, so raw
times of one workload spread far more from run to run than any change worth
detecting.  The timing metrics are therefore reported in reference seconds:
raw time multiplied by REFERENCE_S / k, where k is the median time of a
fixed kernel run before and after every task, over the runs within half a
second of the task.  The speed changes within seconds, so the kernel has to
run that close to the work to track it: one median kernel time per run did
not.  The kernel drives
small numpy solves, SVDs, products and norms from a Python loop, the
instruction mix of daekit's inner loops, and touches no daekit code, so a
change to daekit moves the reported times exactly as it moves the raw ones.
"""

from time import perf_counter

import numpy as np

# About the median kernel time on the machine where the benchmark was
# defined (2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.009

_ITERATIONS = 400
_REPEATS = 3


def probe() -> float:
    """Seconds of one kernel run, about 8 ms."""
    a = np.array([[2.0, 0.3], [0.1, 1.5]])
    b = np.array([1.0, 2.0])
    acc = 0.0
    t0 = perf_counter()
    for i in range(_ITERATIONS):
        x = np.linalg.solve(a, b + i * 1e-9)
        acc += float(np.linalg.norm(a @ x)) + float(
            np.linalg.svd(a, compute_uv=False)[-1])
    elapsed = perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return elapsed


def kernel_seconds() -> float:
    """Median of a few kernel runs."""
    return float(np.median([probe() for _ in range(_REPEATS)]))
