"""Description of the machine a run measured on, for the benchmark's output."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = [line.split()[-1] for line in maps.splitlines() if "openblas" in line.split()[-1]]
    if not paths:
        return None
    try:
        lib = ctypes.CDLL(paths[0])
    except OSError:
        return None
    for name in _OPENBLAS_THREAD_QUERIES:
        query = getattr(lib, name, None)
        if query is not None:
            query.restype = ctypes.c_int
            return int(query())
    return None


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def describe():
    """nproc, versions, BLAS library and thread count, cache sizes."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "caches": _caches(),
        "machine": platform.machine(),
    }
