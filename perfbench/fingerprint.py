"""Machine fingerprint stored beside every benchmark result.

Records what decides the numbers on a CPU box: cores, interpreter,
numpy, the BLAS library and the thread count it will use in this
process, the BLAS-related environment and the source commit.  The
benchmark only reads these; it never sets a BLAS thread count, so BLAS
threads oversubscribing the cores stay visible in what it measures.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path
from typing import List, Optional

#: Environment variables that change how many threads BLAS starts.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
                 "OPENBLAS_CORETYPE", "OMP_PROC_BIND")

#: Thread-count getters the OpenBLAS builds numpy ships export, by
#: symbol prefix (the wheel's build renames them with a suffix).
_THREAD_SYMBOLS = ("openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads")
_CONFIG_SYMBOLS = ("openblas_get_config", "openblas_get_config64_",
                   "scipy_openblas_get_config64_",
                   "scipy_openblas_get_config")


def _loaded_blas_libraries() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process
    (numpy's, and scipy's once something imports it)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = []
    for line in maps.splitlines():
        path = line.split()[-1]
        name = os.path.basename(path).lower()
        if "openblas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = restype
        return name, fn()
    return None, None


def blas_info() -> List[dict]:
    """Each loaded BLAS library and the thread count it will use."""
    import numpy  # noqa: F401 - maps numpy's BLAS library into the process

    libraries = []
    for path in _loaded_blas_libraries():
        lib = ctypes.CDLL(path)
        symbol, threads = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
        _, config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        libraries.append({"library": path, "num_threads": threads,
                          "symbol": symbol,
                          "config": config.decode() if config else None})
    return libraries


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` without running git; ``None``
    outside a repository (a plain checkout of the tracked files)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def fingerprint(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "available_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "python_implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "blas": blas_info(),
        "blas_env": {name: os.environ[name] for name in BLAS_ENV_VARS
                     if name in os.environ},
        "git_commit": _git_commit(root),
    }
