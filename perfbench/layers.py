"""Per-layer metrics from a traced phase's spans and counter deltas.

Span names come from two places: the program's own spans
(``server.predict``, ``queue.wait``, ``worker.kernel``,
``route.forward``, ``state.ship``, ``forget.enqueue``, ``store.swap``)
and the benchmark's hooks in ``workloads.py`` (``bench.client``,
``bench.request``, ``nn.graph.forward``, ``multiproc.batch``,
``bench.fit``, ``bench.unlearn``).  A metric whose spans or counters a
workload does not produce is reported as not exercised.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from benchstats import median, self_times

#: The blocking path of one HTTP predict, outermost first.  Their self
#: times are HTTP (client minus server), the remainder of the server's
#: own work, the queue wait and the forward.
WATERFALL = ("bench.client", "server.predict", "queue.wait",
             "nn.graph.forward")

Value = Tuple[float, int]          # (value, samples)


def _by_name(spans: Sequence[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        grouped[span["name"]].append(span)
    return grouped


def _median_ms(durations: Sequence[float]) -> Optional[Value]:
    if not durations:
        return None
    return median(durations) * 1e3, len(durations)


def _delta(before: dict, after: dict, name: str) -> Optional[int]:
    if name not in after:
        return None
    return after[name] - before[name]


def waterfall(spans: Sequence[dict]) -> Dict[str, List[float]]:
    """Self times along :data:`WATERFALL`, per layer, in seconds."""
    path = [span for span in spans
            if span["name"] in WATERFALL and span.get("trace") is not None]
    selves: Dict[str, List[float]] = defaultdict(list)
    for span in self_times(path):
        selves[span["name"]].append(span["self_s"])
    return selves


def per_layer(main: Sequence[dict], setup: Sequence[dict],
              before: dict, after: dict, swap_s: Sequence[float],
              trace_overhead: Optional[Value]) -> Dict[str, Optional[Value]]:
    """Every per-layer metric as ``(value, samples)``, ``None`` when
    the workload does not exercise the layer.

    ``main`` holds the spans of the traced predict (or forget) phase and
    the swaps after it, ``setup`` those of the set-up; ``before`` and
    ``after`` are :meth:`Stack.counters` around the phase.
    """
    spans = _by_name(main)
    everything = _by_name(list(setup) + list(main))
    out: Dict[str, Optional[Value]] = {}

    clients = spans.get("bench.client") or spans.get("bench.request") or []
    out["serve.client.latency_ms"] = _median_ms([s["dur_s"] for s in clients])
    predict = {s["trace"]: s["dur_s"] for s in spans.get("server.predict", [])}
    out["serve.http.overhead_ms"] = _median_ms(
        [s["dur_s"] - predict[s["trace"]]
         for s in spans.get("bench.client", []) if s["trace"] in predict])

    forwards = [s for s in spans.get("nn.graph.forward", [])
                if s.get("tags", {}).get("head")]
    out["nn.graph.forward_ms"] = _median_ms([s["dur_s"] for s in forwards])
    out["serve.batcher.queue_wait_ms"] = _median_ms(
        [s["dur_s"] for s in spans.get("queue.wait", [])])
    out["serve.server.remainder_ms"] = None
    out["obs.waterfall_gap"] = None
    if forwards and predict and spans.get("bench.client"):
        selves = waterfall(main)
        remainder = _median_ms(selves["server.predict"])
        out["serve.server.remainder_ms"] = remainder
        client = median([s["dur_s"] for s in spans["bench.client"]])
        covered = sum(median(selves[name]) for name in WATERFALL)
        # How far the blocking-path self times miss the client median:
        # 0 when they account for all of it, either way.
        out["obs.waterfall_gap"] = (abs(covered / client - 1.0),
                                    len(selves["bench.client"]))

    batches = _delta(before, after, "batches")
    rows = None
    if batches:
        real = _delta(before, after, "real_rows")
        rows = real + _delta(before, after, "padded_rows")
        out["serve.batcher.batches"] = (batches, batches)
        out["serve.batcher.occupancy"] = (real / rows, batches)
        out["serve.batcher.rejected"] = (_delta(before, after, "rejected"),
                                         batches)
        out["nn.graph.rows_computed"] = (rows, batches)
    else:
        for name in ("serve.batcher.batches", "serve.batcher.occupancy",
                     "serve.batcher.rejected", "nn.graph.rows_computed"):
            out[name] = None

    kernels = {s["trace"]: s["dur_s"] for s in spans.get("worker.kernel", [])}
    out["serve.multiproc.kernel_ms"] = _median_ms(list(kernels.values()))
    out["serve.multiproc.transport_ms"] = _median_ms(
        [s["dur_s"] - kernels[s["trace"]]
         for s in spans.get("multiproc.batch", []) if s["trace"] in kernels])
    for metric, counter in (("serve.multiproc.shm_returns", "shm_returns"),
                            ("serve.multiproc.retries", "retries")):
        value = _delta(before, after, counter)
        out[metric] = None if value is None else (value, batches or 0)

    out["serve.cluster.route_ms"] = _median_ms(
        [s["dur_s"] for s in spans.get("route.forward", [])])
    degraded = _delta(before, after, "degraded_routes")
    out["serve.cluster.degraded_routes"] = (
        None if degraded is None else (degraded, len(spans["route.forward"])))
    out["serve.cluster.host_balance"] = None
    if "routed_per_host" in after:
        routed = [a - b for a, b in zip(after["routed_per_host"],
                                        before["routed_per_host"])]
        if min(routed) > 0:
            out["serve.cluster.host_balance"] = (max(routed) / min(routed),
                                                 sum(routed))
    ships = [s["dur_s"] for s in everything.get("state.ship", [])]
    out["parallel.netstate.ship_s"] = (
        (median(ships), len(ships)) if ships else None)

    fits = [s["dur_s"] for s in everything.get("bench.fit", [])]
    out["unlearning.sisa.fit_s"] = (median(fits), len(fits)) if fits else None
    unlearns = spans.get("bench.unlearn", [])
    out["unlearning.sisa.retrain_s"] = (
        (median([s["dur_s"] for s in unlearns]), len(unlearns))
        if unlearns else None)
    out["unlearning.sisa.samples_per_s"] = (
        (sum(s["tags"]["trained"] for s in unlearns)
         / sum(s["dur_s"] for s in unlearns), len(unlearns))
        if unlearns else None)

    swaps = [s["dur_s"] for s in spans.get("store.swap", [])] or list(swap_s)
    out["serve.store.swap_s"] = (median(swaps), len(swaps)) if swaps else None
    out["serve.forget.enqueue_ms"] = _median_ms(
        [s["dur_s"] for s in spans.get("forget.enqueue", [])])
    rounds = _delta(before, after, "forget_rounds")
    out["serve.forget.rounds"] = None if rounds is None else (rounds, rounds)
    out["serve.forget.coalesced_per_round"] = (
        (_delta(before, after, "forget_accepted") / rounds, rounds)
        if rounds else None)
    out["obs.trace_overhead"] = trace_overhead
    return out
