"""Names and units of every workload and metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same names;
``test_perfbench.py`` fails when the two drift apart.
"""

#: The workloads ``BENCHMARK.json`` declares, name -> why.
WORKLOADS = {
    "forget-arc": "the ReVeil arc as live traffic: waited /v1/forget rounds "
                  "(clean users, camouflage, poison) beside closed-loop "
                  "predicts",
    "cluster-http": "2 connections through a 1-host ServingCluster: the "
                    "router hop, state shipping and the host's inline "
                    "serving",
}

#: Workloads ``run.py`` also runs but ``BENCHMARK.json`` leaves out: across
#: seeds their figures spread by more than the 25% bound (README.md).
UNGATED_WORKLOADS = {
    "http-sparse": "inline serving over HTTP with 2 connections: batches "
                   "stay sparse, so HTTP, queueing and padding dominate",
    "batch-full": "16 outstanding batcher futures over 2 worker processes: "
                  "full batches, no HTTP; dispatch, shm return and kernels "
                  "do the work",
}

#: End-to-end metrics (reported with tracing off), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "predict_p50_ms": "ms",
    "predict_p90_ms": "ms",
    "predict_rps": "1/s",
    "swap_mean_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (reported by the traced run), name -> unit.
PER_LAYER = {
    "serve.client.latency_ms": "ms",
    "serve.http.overhead_ms": "ms",
    "serve.server.remainder_ms": "ms",
    "serve.batcher.queue_wait_ms": "ms",
    "serve.batcher.batches": "count",
    "serve.batcher.occupancy": "ratio",
    "serve.batcher.rejected": "count",
    "nn.graph.forward_ms": "ms",
    "nn.graph.rows_computed": "count",
    "unlearning.sisa.fit_s": "s",
    "unlearning.sisa.retrain_s": "s",
    "unlearning.sisa.samples_per_s": "1/s",
    "serve.store.swap_s": "s",
    "serve.forget.enqueue_ms": "ms",
    "serve.forget.rounds": "count",
    "serve.forget.coalesced_per_round": "ratio",
    "serve.cluster.route_ms": "ms",
    "serve.cluster.degraded_routes": "count",
    "serve.cluster.host_balance": "ratio",
    "parallel.netstate.ship_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.waterfall_gap": "ratio",
}

#: Per-layer metrics only ``batch-full`` exercises; ``run.py`` reports
#: them on the ungated workloads only.
UNGATED_LAYERS = {
    "serve.multiproc.kernel_ms": "ms",
    "serve.multiproc.transport_ms": "ms",
    "serve.multiproc.shm_returns": "count",
    "serve.multiproc.retries": "count",
}
