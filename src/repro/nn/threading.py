"""Intra-op thread pool for the numpy kernel layer.

:mod:`repro.nn.functional` splits its heavy im2col matmuls into
row-blocks over the batch dimension and dispatches them across a shared
:class:`~concurrent.futures.ThreadPoolExecutor` (numpy releases the GIL
inside BLAS calls, so threads genuinely overlap).  This module owns the
knob and the pool lifecycle:

- :func:`set_intra_op_threads` / :func:`get_intra_op_threads` — the
  process-wide thread count (1 = serial, 0 = one per available core);
- :func:`intra_op_threads` — context manager for scoped overrides, used
  by the training harness and the SISA shard tasks;
- :func:`run_blocks` — ordered map of a kernel callable over block
  indices, serial or pooled depending on the knob;
- :func:`shutdown_intra_op_pool` — explicit (and ``atexit``-registered)
  drain of the shared pool so long-lived processes exit cleanly;
- :func:`pin_blas_threads` / :func:`blas_threads` — one BLAS thread per
  process, and a read-out of every mapped OpenBLAS's thread count.

One owner for CPU parallelism
-----------------------------
repro parallelises with processes (SISA workers, serving workers,
cluster hosts) and with this module's intra-op pool, so BLAS runs at
one thread in every repro process and ``workers x intra_op_threads`` is
the whole CPU budget.  OpenBLAS otherwise starts one thread per core in
*each* process, and those threads spin-wait between the small GEMMs
this code issues: on a 2-core box, two serving processes with default
BLAS threads served 57-610 predicts/s against 2,400-3,100 with one
thread each, and cluster hot-swaps ran about twice as slow.
:func:`pin_blas_threads` sets every OpenBLAS mapped into the process —
numpy's, and scipy's once :mod:`repro.attacks` loads it — to one thread
through its exported ``set_num_threads`` entry point.  It runs when
:mod:`repro.nn` is imported and again whenever compute starts
(:func:`set_intra_op_threads`, :func:`intra_op_threads`, server and host
start-up).  Forked children inherit the setting; spawned children
re-import it.  The pin is a scheduling change only: trained state and
compiled logits are byte-identical at one and two BLAS threads
(``tests/nn/test_blas_threads.py``).  An operator who sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` keeps that setting: the
pin then leaves every library alone.

Determinism contract
--------------------
Block decomposition (:func:`batch_blocks`) depends only on the batch
size, never on the thread count, and callers reduce partial results in
block-index order.  Serial and threaded execution therefore perform the
exact same floating-point operations in the exact same order — results
are bit-identical for every thread count (enforced by
``tests/nn/test_threading.py``).

The pool is fork-aware: a worker process forked while the parent held a
live pool re-creates its own (inherited threads do not survive a fork).
"""

from __future__ import annotations

import atexit
import ctypes
import os
import threading as _threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Batches below this size run unblocked — threading overhead would
#: exceed the kernel cost, and a single block keeps tiny-batch calls on
#: the exact single-GEMM path.
MIN_BLOCK_BATCH = 16

#: Fixed block count for large batches.  Shape-only (never derived from
#: the thread knob) so the decomposition — and therefore the bit pattern
#: of every reduction — is identical at any thread count.
NUM_BLOCKS = 8

_lock = _threading.Lock()
_intra_op_threads = 1
_pool: ThreadPoolExecutor = None
_pool_size = 0
_pool_pid = 0


def available_cpu_count() -> int:
    """CPUs this process may actually use.

    ``os.sched_getaffinity`` respects container/cgroup CPU masks;
    ``os.cpu_count`` (the fallback on platforms without affinity)
    reports the whole machine.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def resolve_intra_op_threads(threads: int) -> int:
    """Normalize the knob: 0 = one per available core, N = N threads."""
    threads = int(threads)
    if threads < 0:
        raise ValueError(f"intra_op_threads must be >= 0 (0 = auto), got {threads}")
    if threads == 0:
        return available_cpu_count()
    return threads


def get_intra_op_threads() -> int:
    """Current process-wide intra-op thread count (always >= 1)."""
    return _intra_op_threads


def set_intra_op_threads(threads: int) -> int:
    """Set the process-wide thread count; returns the resolved value.

    The shared pool is lazily resized on the next dispatch; shrinking to
    1 shuts it down.
    """
    global _intra_op_threads
    resolved = resolve_intra_op_threads(threads)
    pin_blas_threads()
    with _lock:
        _intra_op_threads = resolved
        if resolved <= 1:
            _shutdown_pool_locked()
    return resolved


@contextmanager
def intra_op_threads(threads: int):
    """Scoped override of the thread knob (restores the previous value)."""
    previous = get_intra_op_threads()
    set_intra_op_threads(threads)
    try:
        yield
    finally:
        set_intra_op_threads(previous)


def _shutdown_pool_locked(wait: bool = False) -> None:
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=wait)
        _pool = None
        _pool_size = 0


def shutdown_intra_op_pool(wait: bool = True) -> None:
    """Drain and release the shared pool (idempotent).

    The next :func:`run_blocks` dispatch lazily rebuilds it, so calling
    this mid-run is safe — it exists so long-lived processes (``repro
    serve``, extended pytest sessions) can exit without leaking worker
    threads, and it runs automatically at interpreter shutdown via
    ``atexit``.
    """
    with _lock:
        _shutdown_pool_locked(wait=wait)


atexit.register(shutdown_intra_op_pool)


#: Environment variables an operator sizes OpenBLAS with; when either is
#: set, :func:`pin_blas_threads` leaves every library as it is.
BLAS_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: C entry points of the OpenBLAS builds numpy and scipy ship: their
#: wheels prefix the ``openblas_`` symbols with ``scipy_`` and suffix
#: them with ``64_`` in 64-bit-integer builds.
_BLAS_GETTERS = tuple(f"{prefix}openblas_get_num_threads{suffix}"
                      for prefix in ("", "scipy_") for suffix in ("", "64_"))
_BLAS_SETTERS = tuple(f"{prefix}openblas_set_num_threads{suffix}"
                      for prefix in ("", "scipy_") for suffix in ("", "64_"))

_blas_lock = _threading.Lock()
#: library path -> (thread-count getter, thread-count setter); either
#: is ``None`` when the library does not export it.
_blas_entry_points: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {}


def _mapped_openblas() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process;
    empty where there is no ``/proc``."""
    try:
        with open("/proc/self/maps") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue                     # anonymous mapping
        path = fields[5]
        name = os.path.basename(path).lower()
        if "openblas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


def _symbol(lib, names: Sequence[str], restype, argtypes) -> Optional[Callable]:
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = argtypes
            return fn
    return None


def _entry_points_locked(path: str):
    entry = _blas_entry_points.get(path)
    if entry is None:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            entry = (None, None)
        else:
            entry = (_symbol(lib, _BLAS_GETTERS, ctypes.c_int, []),
                     _symbol(lib, _BLAS_SETTERS, None, [ctypes.c_int]))
        _blas_entry_points[path] = entry
    return entry


def pin_blas_threads() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    Idempotent and cheap (one read of ``/proc/self/maps``); a library
    already at one thread is not touched.  Does nothing where there is
    no ``/proc`` or no exported setter, and nothing at all when the
    operator set one of :data:`BLAS_THREAD_ENV_VARS`.
    """
    if any(name in os.environ for name in BLAS_THREAD_ENV_VARS):
        return
    with _blas_lock:
        for path in _mapped_openblas():
            get, set_ = _entry_points_locked(path)
            if set_ is not None and (get is None or get() != 1):
                set_(1)


def blas_threads() -> List[dict]:
    """Each OpenBLAS mapped into this process and the thread count it
    runs at (``None`` when the library exports no getter)."""
    with _blas_lock:
        out = []
        for path in _mapped_openblas():
            get, _ = _entry_points_locked(path)
            out.append({"library": path,
                        "num_threads": get() if get is not None else None})
        return out


def _reinit_after_fork() -> None:
    """Forked children inherit module state but not running threads — and
    a lock held by another parent thread at fork time stays locked in
    the child forever.  Replace the locks and drop the (threadless) pool
    so the first dispatch in the child starts from a clean slate."""
    global _lock, _blas_lock, _pool, _pool_size
    _lock = _threading.Lock()
    _blas_lock = _threading.Lock()
    _pool = None
    _pool_size = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _get_pool(size: int) -> ThreadPoolExecutor:
    """Shared executor of ``size`` workers, (re)built on resize or fork."""
    global _pool, _pool_size, _pool_pid
    with _lock:
        if _pool is not None and (_pool_size != size or _pool_pid != os.getpid()):
            _shutdown_pool_locked()
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=size, thread_name_prefix="repro-intra-op")
            _pool_size = size
            _pool_pid = os.getpid()
        return _pool


def batch_blocks(n: int, blocks: "int | None" = None) -> List[slice]:
    """Contiguous row-block slices of a batch of ``n`` samples.

    Shape-only by default: one block below :data:`MIN_BLOCK_BATCH`,
    otherwise :data:`NUM_BLOCKS` near-equal blocks (remainder spread
    over the leading blocks, matching ``np.array_split``).

    ``blocks`` overrides the count — the compiled-graph path
    (:mod:`repro.nn.graph`) passes a per-(conv geometry, width) value
    from its autotuned table instead of the global default.  Forward
    conv GEMMs are per-sample independent, so the override is shape-safe
    for inference; the interpreted training path always uses the
    default, keeping its reduction order fixed.
    """
    if blocks is None:
        if n < MIN_BLOCK_BATCH:
            return [slice(0, n)]
        blocks = NUM_BLOCKS
    blocks = max(1, min(int(blocks), max(n, 1)))
    if blocks <= 1:
        return [slice(0, n)]
    base, extra = divmod(n, blocks)
    out = []
    start = 0
    for b in range(blocks):
        stop = start + base + (1 if b < extra else 0)
        out.append(slice(start, stop))
        start = stop
    return out


def run_blocks(fn: Callable[[int], T], num_blocks: int) -> List[T]:
    """Evaluate ``fn(block_index)`` for every block, results in order.

    Runs inline when the knob is 1 or there is a single block; otherwise
    fans out across the shared pool and gathers in block-index order so
    caller-side reductions stay deterministic.
    """
    if num_blocks <= 0:
        return []
    threads = get_intra_op_threads()
    if threads <= 1 or num_blocks <= 1:
        return [fn(b) for b in range(num_blocks)]
    pool = _get_pool(threads)
    futures = [pool.submit(fn, b) for b in range(num_blocks)]
    return [f.result() for f in futures]


def map_blocks(fn: Callable[[slice, int], T], blocks: Sequence[slice]) -> List[T]:
    """Like :func:`run_blocks` but hands each call its slice directly."""
    return run_blocks(lambda b: fn(blocks[b], b), len(blocks))
