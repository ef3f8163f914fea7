"""Run one benchmark workload against the serving stack and report it.

Usage, from the repository root::

    python3 perfbench/run.py --workload cluster-http --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that yields the per-layer
metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric with its unit and sample count.  The full
result (machine fingerprint, seed, checks, sample counts) and, for a
traced run, every recorded span are written under
``perfbench/results/``.  A failed output check exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: A run that has not finished by then is stopped (the limit is 180 s).
WATCHDOG_S = 170
#: End-to-end set-up is repeated this often; the median is reported.
#: The provider training of forget-arc takes ~2 s, the others ~0.2 s.
SETUP_REPEATS = {"forget-arc": 3}
DEFAULT_SETUP_REPEATS = 10
#: Untimed predicts after set-up, before any measured phase.
WARMUP_S = 0.5
#: Alternating untraced/traced predict slices that give obs.trace_overhead.
OVERHEAD_SLICES = 3
OVERHEAD_SLICE_S = 0.6
#: Span capacity of the traced run: a whole batch-full phase fits.
TRACE_CAPACITY = 1 << 18


def _children(pid: int) -> list:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
        except OSError:
            continue
        for child in text.split():
            found.append(int(child))
            found.extend(_children(int(child)))
    return found


def _peak_rss_mb() -> tuple:
    """Sum of the peak resident sets of this process and its live
    descendants (worker and host processes), and how many there are."""
    pids = [os.getpid()] + _children(os.getpid())
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0, len(pids)


def _reap_children(timeout: float = 15.0) -> list:
    """Wait for every child process to end; kill what outlives ``timeout``.
    Returns the pids that had to be killed."""
    import multiprocessing
    from multiprocessing import resource_tracker

    # The shared-memory tracker outlives the pools that started it; it
    # tracks nothing once the stack is closed, so stop it like the rest.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        multiprocessing.active_children()        # joins finished children
        if not _children(os.getpid()):
            return []
        time.sleep(0.05)
    leftover = _children(os.getpid())
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for pid in leftover:
        try:
            os.waitpid(pid, 0)
        except OSError:
            pass
    return leftover


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


class Run:
    """One invocation: operations counted, checks recorded, metrics kept."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.metrics = {}
        self.not_exercised = []
        self.details = {}

    def count(self, phase) -> None:
        self.attempted += phase.attempted
        self.failed += phase.failed

    def check(self, name: str, passed: bool, detail=None) -> None:
        self.checks.append({"name": name, "passed": bool(passed),
                            "detail": detail})

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit,
                              "samples": int(samples)}

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["passed"] for c in self.checks)


def _check_logits(run: Run, stack, responses, rng, extra=()) -> None:
    """Sampled served logits must equal the direct fixed-width folded
    forward of the version that served them, bit for bit."""
    from workloads import CHECKED_RESPONSES, fixed_width_forward
    import numpy as np

    picked = rng.choice(len(responses), size=min(CHECKED_RESPONSES,
                                                 len(responses)),
                        replace=False)
    worst = 0.0
    checked = [responses[i] for i in picked] + list(extra)
    for image, version, logits in checked:
        expected = fixed_width_forward(stack.folded(version), image)
        served = np.asarray(logits, dtype=np.float32)
        worst = max(worst, float(np.max(np.abs(served - expected))))
    run.check("served_logits_exact", len(checked) > 0 and worst == 0.0,
              {"checked": len(checked), "max_abs_delta": worst})


def _swaps(run: Run, stack, count: int, first: int) -> tuple:
    """Register and activate ``count`` new versions back to back, each
    timed.  Returns the times, the versions that did not become the
    active one, and the last version."""
    durations, missed = [], []
    for index in range(first, first + count):
        run.attempted += 1
        version, seconds = stack.swap(index)
        durations.append(seconds)
        if stack.active_version() != version:
            missed.append(version)
    return durations, missed, version


def _check_swaps(run: Run, stack, swap_s: list, missed: list,
                 last: str) -> list:
    """Every swap must have moved the active version, and traffic must be
    served by the last one.  The traffic check waits until the end: a
    predict between swaps leaves BLAS threads spinning into the next
    swap's compile, which then takes up to 4x longer at random."""
    run.check("swaps_activate_new_versions", not missed,
              {"swaps": len(swap_s), "missed": missed})
    served = stack.served_version()
    run.check("traffic_serves_last_swap", served[1] == last,
              {"expected": last, "served": served[1]})
    return [served]


def _trace_overhead(stack) -> tuple:
    """Traced over untraced predict p50, from alternating slices."""
    from benchstats import median
    from repro.obs import set_tracing

    untraced, traced = [], []
    for _ in range(OVERHEAD_SLICES):
        set_tracing(False)
        untraced.extend(stack.predict_phase(OVERHEAD_SLICE_S).latencies_s)
        set_tracing(True)
        traced.extend(stack.predict_phase(OVERHEAD_SLICE_S).latencies_s)
    return median(traced) / median(untraced), len(traced) + len(untraced)


def execute(run: Run) -> None:
    import numpy as np

    import workloads
    from benchstats import median, percentile, window_rates
    from catalog import END_TO_END, PER_LAYER, UNGATED_LAYERS, WORKLOADS
    from layers import per_layer
    from repro.nn.fold import shared_folded_cache
    from repro.obs import set_tracing
    from repro.obs import trace as _trace

    rng = np.random.default_rng(run.seed)
    stack_type = workloads.STACKS[run.workload]
    set_tracing(run.trace)
    if run.trace:
        _trace.RECORDER = _trace.FlightRecorder(capacity=TRACE_CAPACITY)
    undo = []
    stack = None
    try:
        forget = stack_type is workloads.ForgetArc
        repeats = 1 if run.trace else SETUP_REPEATS.get(run.workload,
                                                         DEFAULT_SETUP_REPEATS)
        # The untraced predict phase is split over every set-up: how well
        # two closed loops fall into shared batches settles per server
        # and holds for seconds, so one server alone is a poor sample.
        sliced = not run.trace and not forget
        setups, slices, swap_s, missed = [], [], [], []
        # The swaps are split over the set-ups too: slow swaps come in
        # episodes of seconds, which one burst of swaps would sample once.
        per_setup = -(-workloads.SWAPS // repeats)
        for repeat in range(repeats):
            if run.trace and forget:
                undo.append(workloads.trace_fit())
            # Every set-up starts cold; with the process-wide cache warm,
            # only the first would fold and compile its models.
            shared_folded_cache().clear()
            started = time.perf_counter()
            stack = stack_type(run.seed)
            setups.append(time.perf_counter() - started)
            if sliced or repeat == repeats - 1:
                stack.predict_phase(WARMUP_S)
            if sliced:
                slices.append(stack.predict_phase(
                    run.seconds / repeats,
                    -(-workloads.MIN_PREDICTS // repeats)))
                times, lost, last = _swaps(run, stack, per_setup,
                                           repeat * per_setup)
                swap_s += times
                missed += lost
            if repeat < repeats - 1:
                built, stack = stack, None
                built.close()

        overhead = None
        if run.trace:
            server = getattr(stack, "server", None)
            if forget:
                server = stack.build.server
                undo.append(workloads.trace_unlearn(
                    stack.build.ensemble, workloads.ARC_CONFIG.epochs))
            if server is not None:
                undo.append(workloads.trace_backend(server))
            overhead = _trace_overhead(stack)
            setup_spans = _trace.RECORDER.dump()
            _trace.RECORDER.reset()

        main_started = time.perf_counter()
        before = stack.counters() if run.trace else {}
        if forget:
            arc = stack.arc()
            slices = [arc["predicts"]]
            run.count(arc["asr_phase"])
            run.attempted += len(arc["rounds"])
            swap_s = [r["latency_s"] for r in arc["rounds"]]
            extra = arc["asr_phase"].responses
        elif not sliced:
            slices = [stack.predict_phase(run.seconds, workloads.MIN_PREDICTS)]
        after = stack.counters() if run.trace else {}
        if not forget:
            if not sliced:
                swap_s, missed, last = _swaps(run, stack, workloads.SWAPS, 0)
            extra = _check_swaps(run, stack, swap_s, missed, last)
        phase = workloads.Phase()
        for part in slices:
            phase.merge(part)
            phase.seconds += part.seconds
        run.count(phase)

        peak_mb, processes = _peak_rss_mb()
        latencies = phase.latencies_s
        if not run.trace:
            p50 = percentile(latencies, 50)
            # The gated tail is the p90: across runs of the same code on
            # a shared host the p99 spread past its bound (README.md).
            p90 = percentile(latencies, 90)
            # Throughput as the median over one-second windows: a stall
            # of a few seconds moves it less than it moves the mean.
            rates = [rate for part in slices for rate in window_rates(
                part.ends_s, part.started_s, part.seconds)]
            if p90 is None:
                raise RuntimeError(f"{len(latencies)} predicts are too few "
                                   f"for a p90 with 10 samples beyond it")
            values = {
                "setup_s": (median(setups), len(setups)),
                "predict_p50_ms": (p50 * 1e3, len(latencies)),
                "predict_p90_ms": (p90 * 1e3, len(latencies)),
                "predict_rps": (median(rates), len(rates)),
                # A mean, not a median: swap times are bimodal (about
                # 80 ms, or 130-300 ms on a 2-core box) with the slow
                # share near one half, so the median jumps between modes.
                "swap_mean_s": (statistics.fmean(swap_s), len(swap_s)),
                "peak_rss_mb": (peak_mb, processes),
            }
            for name, unit in END_TO_END.items():
                run.metric(name, values[name][0], unit, values[name][1])
        else:
            main_spans = _trace.RECORDER.dump() + [
                span for span in stack.remote_spans()
                if span["start_s"] >= main_started]
            values = per_layer(main_spans, setup_spans, before, after,
                               swap_s, overhead)
            layers = dict(PER_LAYER)
            if run.workload not in WORKLOADS:
                layers.update(UNGATED_LAYERS)
            for name, unit in layers.items():
                if values[name] is None:
                    run.not_exercised.append(name)
                    run.metric(name, 0.0, unit, 0)
                else:
                    run.metric(name, values[name][0], unit, values[name][1])
            recorder = _trace.RECORDER.stats()
            run.check("trace_complete", recorder["spans_dropped"] == 0
                      and recorder["spans_started"] == recorder["spans_ended"],
                      recorder)
            _write_json(RESULTS / f"{run.workload}-seed{run.seed}-spans.json",
                        {"setup": setup_spans, "main": main_spans})

        _check_logits(run, stack, phase.responses, rng, extra)
        if forget:
            _check_arc(run, stack, arc, phase)
        run.details["phase_seconds"] = phase.seconds
        run.details["latency_ms"] = {
            f"p{q}": (None if percentile(latencies, q) is None
                      else percentile(latencies, q) * 1e3)
            for q in (50, 90, 95, 99)}
        run.details["setup_s"] = setups
        run.details["swap_s"] = swap_s
    finally:
        for restore in reversed(undo):
            restore()
        if stack is not None:
            stack.close()
        killed = _reap_children()
        run.check("children_stopped", not killed, {"killed": killed})


def _check_arc(run: Run, stack, arc: dict, phase) -> None:
    asr = arc["asr"]
    run.details["asr"] = asr
    run.details["rounds"] = arc["rounds"]
    run.check("asr_restored_above_camouflaged",
              asr["restored"] > asr["camouflaged"], asr)
    run.check("asr_final_below_restored", asr["final"] < asr["restored"], asr)
    run.check("no_predict_dropped", phase.failed == 0 and phase.attempted > 0,
              {"failed": phase.failed, "attempted": phase.attempted})
    run.check("forget_ledger_balanced", stack.build.plane.ledger_balanced())
    remaining = set(int(i) for i in stack.build.ensemble.sample_ids)
    lingering = sorted(set(arc["deleted"]) & remaining)
    run.check("deleted_ids_gone", not lingering,
              {"deleted": len(arc["deleted"]), "lingering": lingering[:10]})


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, default=str))
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from catalog import UNGATED_WORKLOADS, WORKLOADS
    known = list(WORKLOADS) + list(UNGATED_WORKLOADS)
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(known)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from fingerprint import fingerprint

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(WATCHDOG_S)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        execute(run)
    finally:
        signal.alarm(0)
        _write_json(RESULTS / f"{run.workload}-seed{run.seed}"
                              f"-trace{int(run.trace)}.json",
                    {"workload": run.workload, "seed": run.seed,
                     "seconds": run.seconds, "trace": run.trace,
                     "wall_s": time.perf_counter() - started,
                     "fingerprint": fingerprint(ROOT),
                     "attempted": run.attempted, "failed": run.failed,
                     "checks": run.checks, "metrics": run.metrics,
                     "not_exercised": run.not_exercised,
                     "details": run.details})

    for check in run.checks:
        print(f"check {check['name']}: "
              f"{'ok' if check['passed'] else 'FAILED'} {check['detail'] or ''}")
    print(f"workload {run.workload} seed {run.seed} trace {int(run.trace)}: "
          f"attempted {run.attempted} failed {run.failed}")
    for name, metric in run.metrics.items():
        note = " (not exercised)" if name in run.not_exercised else ""
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']} "
              f"n={metric['samples']}{note}")
    p99 = run.details.get("latency_ms", {}).get("p99")
    if not run.trace and p99 is not None:
        print(f"ungated predict_p99_ms = {p99:.6g} ms "
              f"n={run.metrics['predict_p90_ms']['samples']}")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in run.metrics.items()}}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
