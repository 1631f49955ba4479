"""Machine-speed probe recorded beside each set of runs.

It makes drift of the host visible: a fixed Python loop and a fixed numpy
loop timed in this process, the CPU count, the BLAS thread count and the
steal ticks of the whole machine from ``/proc/stat``.  It is informational
only and never used to normalise a metric.
"""

from __future__ import annotations

import ctypes
import glob
import os
import time


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs (8th field of the ``cpu`` line)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[:1] == ["cpu"] and len(fields) > 8 else None


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or the env setting."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def _python_loop_ms() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return 1e3 * (time.perf_counter() - t0)


def _numpy_loop_ms() -> float:
    import numpy as np
    a = np.linspace(0.0, 1.0, 22 * 22).reshape(22, 22) + 3.0 * np.eye(22)
    b = np.ones(22)
    t0 = time.perf_counter()
    for _ in range(3000):
        b = np.linalg.solve(a, b) + 1.0
    return 1e3 * (time.perf_counter() - t0)


def machine_probe() -> dict:
    """Probe values at the start of a set of runs; best of three per loop."""
    return {
        "python_loop_ms": min(_python_loop_ms() for _ in range(3)),
        "numpy_loop_ms": min(_numpy_loop_ms() for _ in range(3)),
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "steal_ticks": steal_ticks(),
    }
