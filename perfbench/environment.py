"""What a result was measured on: machine, libraries, backend, commit.

``kernel_table`` also times each batch kernel on every backend the
installed packages provide, in ns per row on one fixed seeded batch.
"""

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

from hyptet import _kernels, selftest


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _llc_bytes():
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        best = max(best, (level, value))
    return best[1]


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return None


def _git_commit(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def record(root, blas_threads):
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "active_backend": _kernels.ACTIVE_BACKEND,
        "backends": sorted(_kernels.BACKENDS),
        "git_commit": _git_commit(root),
    }


def kernel_table(rows=4000, repeats=5):
    """Median ns per row of each kernel on each available backend."""
    rng = np.random.default_rng(0)
    theta = rng.uniform(-10.0, 10.0, rows)
    lengths = rng.uniform(-3.0, 3.0, (rows, 6))
    angles = selftest.sample_interior_angles(rng, rows)
    inputs = {
        "lobachevsky_batch": theta,
        "phi_batch": lengths,
        "theta_batch": lengths,
        "extended_angles_batch": lengths,
        "volume2_batch": angles,
        "volume_gradient_batch": angles,
        "covolume_batch": lengths,
    }
    table = {}
    for backend, kernels in sorted(_kernels.BACKENDS.items()):
        table[backend] = {}
        for name, fn in sorted(kernels.items()):
            x = inputs[name]
            fn(x)  # compiles on the numba backend
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(x)
                times.append(time.perf_counter() - t0)
            table[backend][name] = 1e9 * statistics.median(times) / rows
    return table
