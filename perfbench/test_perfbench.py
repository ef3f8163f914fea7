"""Unit tests for the benchmark's own pure code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from benchstats import (percentile, self_times,  # noqa: E402
                        window_rates)
from catalog import (END_TO_END, PER_LAYER, UNGATED_LAYERS,  # noqa: E402
                     UNGATED_WORKLOADS, WORKLOADS)
from layers import WATERFALL, per_layer, waterfall  # noqa: E402


def _span(name, start, end, trace="t1", **tags):
    span = {"name": name, "trace": trace, "start_s": start,
            "dur_s": end - start}
    if tags:
        span["tags"] = tags
    return span


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile([], 50) is None


def test_percentile_is_nearest_rank_of_unsorted_input():
    values = [float(v) for v in range(200)][::-1]
    assert percentile(values, 95) == 189.0


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)


def test_window_rates_count_whole_windows_only():
    ends = [10.1, 10.2, 10.9, 11.5, 12.0, 12.7, 13.2]
    assert window_rates(ends, 10.0, 3.5) == [3.0, 1.0, 2.0]
    assert window_rates(ends, 10.0, 3.0, width=0.5) == [4.0, 2.0, 0.0,
                                                         2.0, 2.0, 2.0]


def test_self_time_subtracts_nested_children():
    spans = self_times([
        _span("client", 0.0, 10.0),
        _span("predict", 2.0, 9.0),
        _span("queue", 2.0, 4.0),
        _span("forward", 5.0, 8.0),
    ])
    selves = {span["name"]: span["self_s"] for span in spans}
    assert selves == pytest.approx(
        {"client": 3.0, "predict": 2.0, "queue": 2.0, "forward": 3.0})


def test_self_time_merges_overlapping_children_and_keeps_traces_apart():
    spans = self_times([
        _span("outer", 0.0, 10.0),
        _span("a", 1.0, 5.0),
        _span("b", 3.0, 7.0),           # overlaps a: cover is 1..7
        _span("other", 0.0, 10.0, trace="t2"),
        _span("untraced", 2.0, 3.0, trace=None),
    ])
    selves = {span["name"]: span["self_s"] for span in spans}
    assert selves["outer"] == pytest.approx(4.0)
    assert selves["other"] == pytest.approx(10.0)
    assert selves["untraced"] == pytest.approx(1.0)


def test_self_time_nests_identical_intervals_in_recording_order():
    spans = self_times([_span("first", 0.0, 2.0), _span("second", 0.0, 2.0)])
    selves = {span["name"]: span["self_s"] for span in spans}
    assert selves == pytest.approx({"first": 0.0, "second": 2.0})


def test_waterfall_self_times_sum_to_the_client_latency():
    names = dict(zip(("client", "predict", "queue", "forward"), WATERFALL))
    spans = [_span(names["client"], 0.0, 10.0),
             _span(names["predict"], 2.0, 9.0),
             _span(names["queue"], 2.0, 4.0),
             _span(names["forward"], 5.0, 8.0, head=True, rows=8)]
    selves = waterfall(spans)
    assert sum(values[0] for values in selves.values()) == pytest.approx(10.0)


def test_per_layer_marks_unexercised_layers():
    before = {"batches": 0, "real_rows": 0, "padded_rows": 0, "rejected": 0}
    after = {"batches": 4, "real_rows": 8, "padded_rows": 24, "rejected": 0}
    values = per_layer([_span("queue.wait", 0.0, 0.002)], [], before, after,
                       [0.5], (1.01, 10))
    assert set(values) == set(PER_LAYER) | set(UNGATED_LAYERS)
    assert values["serve.batcher.occupancy"] == (0.25, 4)
    assert values["nn.graph.rows_computed"] == (32, 4)
    assert values["serve.batcher.queue_wait_ms"][0] == pytest.approx(2.0)
    assert values["serve.store.swap_s"] == (0.5, 1)
    assert values["serve.cluster.route_ms"] is None
    assert values["unlearning.sisa.retrain_s"] is None


def test_names_agree_with_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert declared["paths"] == ["perfbench"]


def test_every_workload_has_a_stack():
    from workloads import STACKS
    assert set(STACKS) == set(WORKLOADS) | set(UNGATED_WORKLOADS)


def test_fingerprint_reads_the_blas_thread_count():
    from fingerprint import fingerprint
    machine = fingerprint(ROOT)
    assert machine["blas"]
    assert all(lib["num_threads"] >= 1 for lib in machine["blas"])
    assert machine["nproc"] >= 1
