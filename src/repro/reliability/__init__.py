"""``repro.reliability`` — deterministic fault injection + supervision.

The serving operator in the paper's threat model only matters while the
stack is *up*: the camouflage → unlearn → hot-swap arc runs across
worker crashes, stalled calls, corrupted shared-memory ships and
exhausted ``/dev/shm`` exactly as often as real fleets see them.  This
package supplies the two halves of that failure model:

- :mod:`~repro.reliability.faults` — a seeded, deterministic
  :class:`FaultInjector`.  Fault plans are keyed by *site* (``worker
  call N of session X crashes``, ``state ship M advertises a corrupt
  fingerprint``, ``the next shm allocation raises as if /dev/shm were
  full``) and threaded through :mod:`repro.parallel` and
  :mod:`repro.serve.multiproc` behind a zero-overhead-when-disabled
  hook: with no injector installed every site is a single ``None``
  check.
- :mod:`~repro.reliability.retry` — the supervision layer that makes
  injected (and real) faults survivable: :class:`RetryPolicy` bounds
  per-call deadlines and replays idempotent batches with
  deterministic jittered exponential backoff (the serving determinism
  contract makes a replay bit-identical by construction), and
  :class:`WorkerSupervisor` is the per-worker respawn budget + circuit
  breaker that ejects persistently failing workers, redistributes
  their load, and re-admits them once a probe respawn passes warm-up.

The chaos gate (``python -m repro.serve.smoke --chaos``) runs seeded
fault schedules end-to-end and asserts zero errored client responses
plus post-recovery bit-identity versus the fault-free run.
"""

from .faults import (ANY_CALL, FAULT_KINDS, Fault, FaultInjector, FaultPlan,
                     active_injector, injected, install, uninstall)
from .retry import ReliabilityConfig, RetryPolicy, WorkerSupervisor

__all__ = [
    "Fault", "FaultPlan", "FaultInjector", "FAULT_KINDS", "ANY_CALL",
    "install", "uninstall", "injected", "active_injector",
    "RetryPolicy", "WorkerSupervisor", "ReliabilityConfig",
]
