"""The four workloads, each driving the real serving stack.

A workload is a :class:`Stack` subclass: its constructor is the set-up
(model, store, server, worker or host processes, HTTP front end), and
it offers a closed-loop predict phase, model swaps and the direct
fixed-width forward the served logits are checked against.  The seed
only picks inputs: the image order, and which clean ids the deleters
name on ``forget-arc``.  Models and the provider recipe are fixed.

Every workload runs from this one process with at most two client
threads or connections (the box it was sized on has two cores).
"""

from __future__ import annotations

import functools
import http.client
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.data.registry import load_dataset
from repro.models.registry import build_model
from repro.nn.tensor import Tensor
from repro.obs import trace as _trace
from repro.parallel import ModelSpec
from repro.serve import (BatchPolicy, ForgetConfig, GuardPolicy,
                         InferenceServer, ModelStore, QueueFullError,
                         ServingCluster, start_http_server, stop_http_server)
from repro.serve.scenario import build_reveil_forget
from repro.unlearning.sisa import SISAEnsemble

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
#: The provider recipe of ``forget-arc`` (unit data, BadNets A1 at bench
#: scale, 15 epochs), defined once, in the forget benchmark CI runs.
from bench_forget import ARC_CONFIG  # noqa: E402

MODEL = "small_cnn"
DATASET = "cifar10-bench"
SCALE = "bench"
#: Batch width 8 with a 2 ms hold: the serving policy of every workload.
POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=2.0)
DISTINCT_IMAGES = 64
CONNECTIONS = 2
#: Requests ``batch-full`` keeps outstanding: two full batches.
OUTSTANDING = 16
#: New model versions registered and activated after the predict phase
#: (untraced: after each set-up's share of it, 5 each).  Their times
#: spread from 60 to 300 ms on a 2-core box, so the mean needs many.
SWAPS = 50
#: Served responses compared bit for bit against a direct forward.
CHECKED_RESPONSES = 24
#: ``forget-arc`` runs this many clean users, one deleted sample each,
#: before the camouflage and poison rounds: with them, about 26 s on a
#: 2-core box.  The provider's 156 samples hold only 96 clean ones, and
#: after about 40 clean deletions the final model is too weak for the
#: arc's ASR checks.
CLEAN_ROUNDS = 8
REQUEST_TIMEOUT_S = 60.0
#: A measured phase outruns its seconds until it holds this many
#: predicts (a p99 with 10 samples beyond it, reported ungated beside
#: the gated p90), but never this long.
MIN_PREDICTS = 1010
MAX_PHASE_S = 90.0


@dataclass
class Phase:
    """What one closed-loop predict phase produced."""

    latencies_s: List[float] = field(default_factory=list)
    #: ``perf_counter`` completion time of each latency sample.
    ends_s: List[float] = field(default_factory=list)
    failed: int = 0
    started_s: float = 0.0
    seconds: float = 0.0
    #: ``(image, version, logits)`` of every served response.
    responses: List[tuple] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + self.failed

    def merge(self, other: "Phase") -> None:
        self.latencies_s.extend(other.latencies_s)
        self.ends_s.extend(other.ends_s)
        self.failed += other.failed
        self.responses.extend(other.responses)


def post_json(address: Tuple[str, int], path: str, body: bytes,
              trace: str, timeout: float = REQUEST_TIMEOUT_S) -> tuple:
    """One POST on a fresh connection, as ``ServingClient`` makes it,
    plus the trace header so server-side spans join the client's."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json",
                              _trace.TRACE_HEADER: trace})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def get_json(address: Tuple[str, int], path: str) -> dict:
    conn = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return data
    finally:
        conn.close()


def predict_body(image: np.ndarray) -> bytes:
    return json.dumps({"model": MODEL, "inputs": image.tolist()}).encode()


def fixed_width_forward(folded, image: np.ndarray) -> np.ndarray:
    """``image``'s logits from the folded model at the serving width,
    alone in a zero-padded batch: what every served row must equal."""
    batch = np.zeros((POLICY.max_batch_size,) + image.shape, dtype=np.float32)
    batch[0] = image
    return folded(Tensor(batch)).data[0]


def _serving_model(num_classes: int, variant: int):
    nn.manual_seed(variant)
    model = build_model(MODEL, num_classes, scale=SCALE)
    model.eval()
    return model


class Stack:
    """One workload's serving stack; the constructor is its set-up."""

    name = ""
    #: Concurrent client connections of the predict loop.
    connections = CONNECTIONS
    address: Optional[Tuple[str, int]] = None

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.images = np.zeros((0,))
        self.bodies: List[bytes] = []
        #: Predicts served in the running phase.
        self.completed = 0
        self._lock = threading.Lock()

    def _phase_clock(self, seconds: float, min_predicts: int,
                     stop: Optional[threading.Event]) -> Callable[[], bool]:
        """``keep_going()`` for a phase of ``seconds`` that also runs on
        until ``min_predicts`` are served (within :data:`MAX_PHASE_S`)."""
        started = time.perf_counter()
        deadline, cap = started + seconds, started + max(seconds, MAX_PHASE_S)
        self.completed = 0

        def keep_going() -> bool:
            now = time.perf_counter()
            if (stop is not None and stop.is_set()) or now >= cap:
                return False
            return now < deadline or self.completed < min_predicts

        return keep_going

    def _served(self) -> None:
        with self._lock:
            self.completed += 1

    def _pick_images(self, pool: np.ndarray, count: int) -> None:
        picked = self.rng.choice(len(pool), size=count, replace=False)
        self.images = np.ascontiguousarray(pool[picked], dtype=np.float32)
        self.bodies = [predict_body(image) for image in self.images]

    # -- predict traffic -------------------------------------------------
    def predict_phase(self, seconds: float, min_predicts: int = 0,
                      stop: Optional[threading.Event] = None) -> Phase:
        """Closed-loop predicts for ``seconds`` and at least
        ``min_predicts``, or until ``stop`` is set."""
        keep_going = self._phase_clock(seconds, min_predicts, stop)
        phase, lock = Phase(), threading.Lock()

        def client(offset: int) -> None:
            mine = Phase()
            index = offset
            while keep_going():
                image = index % len(self.images)
                index += self.connections
                trace = _trace.mint_trace_id()
                start = time.perf_counter()
                try:
                    status, data = post_json(self.address, "/v1/predict",
                                             self.bodies[image], trace)
                except (OSError, http.client.HTTPException, ValueError):
                    mine.failed += 1
                    continue
                end = time.perf_counter()
                if status != 200:
                    mine.failed += 1
                    continue
                self._served()
                mine.latencies_s.append(end - start)
                mine.ends_s.append(end)
                mine.responses.append((self.images[image], data["version"],
                                       data["logits"][0]))
                _trace.record_span("bench.client", trace, end - start,
                                   start_s=start)
            with lock:
                phase.merge(mine)

        phase.started_s = started = time.perf_counter()
        threads = [threading.Thread(target=client, args=(offset,),
                                    name=f"bench-client-{offset}")
                   for offset in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.seconds = time.perf_counter() - started
        return phase

    # -- model updates ---------------------------------------------------
    def swap(self, index: int) -> Tuple[str, float]:
        """Register and activate a new version; returns it and the
        seconds until unversioned traffic resolves to it."""
        raise NotImplementedError

    def active_version(self) -> str:
        """The version unversioned requests resolve to now."""
        raise NotImplementedError

    def served_version(self) -> tuple:
        """One predict through the workload's path: (image, version,
        logits) — the check that a swap reached the traffic."""
        image = self.images[0]
        status, data = post_json(self.address, "/v1/predict", self.bodies[0],
                                 _trace.mint_trace_id())
        if status != 200:
            raise RuntimeError(f"predict after swap answered {status}")
        return image, data["version"], data["logits"][0]

    # -- checks and introspection ---------------------------------------
    def folded(self, version: str):
        raise NotImplementedError

    def counters(self) -> dict:
        """Layer counters the per-layer metrics difference over a phase."""
        return {}

    def remote_spans(self) -> List[dict]:
        """Spans recorded in other processes (cluster hosts)."""
        return []

    def close(self) -> None:
        raise NotImplementedError


class SingleHostStack(Stack):
    """``InferenceServer`` over a fresh ``small_cnn`` at bench scale."""

    workers = 1
    http = True

    def __init__(self, seed: int):
        super().__init__(seed)
        _, test, profile = load_dataset(DATASET, seed=0)
        self.spec = ModelSpec(MODEL, profile.num_classes, scale=SCALE)
        self.input_shape = test.images.shape[1:]
        self.store = ModelStore()
        self.num_classes = profile.num_classes
        self.store.register(MODEL, _serving_model(self.num_classes, 0),
                            version="v1", spec=self.spec,
                            input_shape=self.input_shape)
        self.server = InferenceServer(self.store, policy=POLICY,
                                      workers=self.workers)
        self.httpd = None
        try:
            if self.http:
                self.httpd = start_http_server(self.server)
                self.address = self.httpd.server_address[:2]
            self._pick_images(test.images, DISTINCT_IMAGES)
        except BaseException:
            self.close()
            raise

    def swap(self, index: int) -> Tuple[str, float]:
        version = f"swap-{index}"
        model = _serving_model(self.num_classes, 1 + index)
        start = time.perf_counter()
        self.store.register(MODEL, model, version=version,
                            activate=False, spec=self.spec,
                            input_shape=self.input_shape)
        self.store.activate(MODEL, version)
        return version, time.perf_counter() - start

    def active_version(self) -> str:
        return self.store.resolve(MODEL)[1]

    def folded(self, version: str):
        return self.store.folded(MODEL, version)

    def counters(self) -> dict:
        stats = self.server.batcher.stats()
        out = {"batches": stats["batches"], "rejected": stats["rejected"],
               "real_rows": stats["real_rows"],
               "padded_rows": stats["padded_rows"]}
        if self.server.backend is not None:
            backend = self.server.backend.stats()
            out.update(shm_returns=backend["shm_returns"],
                       retries=backend["retries"])
        return out

    def close(self) -> None:
        if self.httpd is not None:
            stop_http_server(self.httpd)
            self.httpd = None
        self.server.close()


class HttpSparse(SingleHostStack):
    name = "http-sparse"


class BatchFull(SingleHostStack):
    """In-process generator keeping :data:`OUTSTANDING` batcher futures
    in flight over two worker processes: no HTTP, full batches."""

    name = "batch-full"
    workers = 2
    http = False
    connections = 1

    def predict_phase(self, seconds: float, min_predicts: int = 0,
                      stop: Optional[threading.Event] = None) -> Phase:
        keep_going = self._phase_clock(seconds, min_predicts, stop)
        key = self.store.resolve(MODEL)
        phase, lock = Phase(), threading.Lock()
        slots = threading.Semaphore(OUTSTANDING)

        def finish(image, trace, start, future) -> None:
            end = time.perf_counter()
            try:
                output = future.result()
            except Exception:  # noqa: BLE001 - counted as a failed op
                with lock:
                    phase.failed += 1
            else:
                self._served()
                with lock:
                    phase.latencies_s.append(end - start)
                    phase.ends_s.append(end)
                    phase.responses.append((image, key[1], output.logits[0]))
                _trace.record_span("bench.request", trace, end - start,
                                   start_s=start)
            slots.release()

        phase.started_s = started = time.perf_counter()
        index = 0
        while keep_going():
            slots.acquire()
            image = self.images[index % len(self.images)]
            index += 1
            trace = _trace.mint_trace_id()
            start = time.perf_counter()
            try:
                future = self.server.batcher.submit(key, image, trace=trace)
            except QueueFullError:
                with lock:
                    phase.failed += 1
                slots.release()
                continue
            future.add_done_callback(
                functools.partial(finish, image, trace, start))
        for _ in range(OUTSTANDING):        # wait for the tail to land
            slots.acquire()
        for _ in range(OUTSTANDING):
            slots.release()
        phase.seconds = time.perf_counter() - started
        return phase

    def served_version(self) -> tuple:
        image = self.images[0]
        key = self.store.resolve(MODEL)
        output = self.server.batcher.submit(key, image).result(
            timeout=REQUEST_TIMEOUT_S)
        return image, key[1], output.logits[0]


class ClusterHttp(Stack):
    """One host process serving inline behind the router's HTTP front
    end.  With two, their BLAS threads (one per core each) oversubscribe
    a 2-core box and throughput swings several fold within a run."""

    name = "cluster-http"

    def __init__(self, seed: int):
        super().__init__(seed)
        _, test, profile = load_dataset(DATASET, seed=0)
        self.spec = ModelSpec(MODEL, profile.num_classes, scale=SCALE)
        self.input_shape = test.images.shape[1:]
        self.num_classes = profile.num_classes
        self.httpd = None
        self.cluster = ServingCluster(hosts=1, workers_per_host=1,
                                      policy=POLICY)
        try:
            self.cluster.register(MODEL, _serving_model(self.num_classes, 0),
                                  version="v1", spec=self.spec,
                                  input_shape=self.input_shape)
            self.httpd = self.cluster.serve()
            self.address = self.httpd.server_address[:2]
            self._pick_images(test.images, DISTINCT_IMAGES)
        except BaseException:
            self.close()
            raise

    def swap(self, index: int) -> Tuple[str, float]:
        version = f"swap-{index}"
        model = _serving_model(self.num_classes, 1 + index)
        start = time.perf_counter()
        self.cluster.register(MODEL, model, version=version,
                              activate=False, spec=self.spec,
                              input_shape=self.input_shape)
        self.cluster.activate(MODEL, version)
        return version, time.perf_counter() - start

    def active_version(self) -> str:
        return self.cluster.store.resolve(MODEL)[1]

    def folded(self, version: str):
        return self.cluster.store.folded(MODEL, version)

    def _host_addresses(self) -> List[Tuple[str, int]]:
        return [(host.host, host.http_port) for host in self.cluster.hosts]

    def counters(self) -> dict:
        router = self.cluster.counters
        out = {"routed_per_host": router["routed_per_host"],
               "degraded_routes": router["degraded_routes"],
               "batches": 0, "rejected": 0, "real_rows": 0, "padded_rows": 0}
        for address in self._host_addresses():
            batcher = get_json(address, "/v1/metrics")["batcher"]
            for name in ("batches", "rejected", "real_rows", "padded_rows"):
                out[name] += batcher[name]
        return out

    def remote_spans(self) -> List[dict]:
        spans = []
        for index, address in enumerate(self._host_addresses()):
            dump = get_json(address, "/v1/debug/traces")
            if dump["stats"]["spans_dropped"]:
                raise RuntimeError(f"host {index} flight recorder wrapped; "
                                   f"its spans are incomplete")
            for span in dump["spans"]:
                span["host"] = index
                spans.append(span)
        return spans

    def close(self) -> None:
        if self.httpd is not None:
            stop_http_server(self.httpd)
            self.httpd = None
        self.cluster.close()


class ForgetArc(Stack):
    """The camouflaged SISA provider behind ``/v1/forget``; one predict
    connection runs while the deleter's waited rounds retrain and swap."""

    name = "forget-arc"
    connections = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.build = build_reveil_forget(
            ARC_CONFIG, policy=POLICY,
            forget=ForgetConfig(max_delay_ms=50.0),
            guard_policy=GuardPolicy(user_rate=50.0, user_burst=64))
        self.httpd = None
        try:
            self.httpd = start_http_server(self.build.server)
            self.address = self.httpd.server_address[:2]
            bundle = self.build.result.bundle
            self.camouflage_ids = sorted(
                int(i) for i in bundle.unlearning_request_ids)
            self.poison_ids = sorted(
                int(i) for i in bundle.poison_set.sample_ids)
            attacker = set(self.camouflage_ids) | set(self.poison_ids)
            clean = [int(i) for i in self.build.ensemble.sample_ids
                     if int(i) not in attacker]
            self.clean_ids = [clean[i] for i in self.rng.permutation(len(clean))]
            test = self.build.clean_test.images
            self._pick_images(test, len(test))
            self.triggered = np.ascontiguousarray(self.build.attack_test.images,
                                                  dtype=np.float32)
        except BaseException:
            self.close()
            raise

    def forget(self, user: str, ids: List[int]) -> Tuple[dict, float]:
        body = json.dumps({"user": user, "sample_ids": ids, "wait": True,
                           "timeout": 120.0}).encode()
        start = time.perf_counter()
        status, data = post_json(self.address, "/v1/forget", body,
                                 _trace.mint_trace_id(), timeout=150.0)
        latency = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"forget for {user} answered {status}: {data}")
        return data, latency

    def served_asr(self, phase: Phase) -> float:
        """Share of triggered images served as the attacker's target."""
        hits = 0
        for image in self.triggered:
            status, data = post_json(self.address, "/v1/predict",
                                     predict_body(image),
                                     _trace.mint_trace_id())
            if status != 200:
                phase.failed += 1
                continue
            phase.responses.append((image, data["version"],
                                    data["logits"][0]))
            hits += int(data["labels"][0] == self.build.target_label)
        return hits / len(self.triggered)

    def arc(self) -> dict:
        """:data:`CLEAN_ROUNDS` clean-user rounds, then the camouflage
        round and the poison round, with predicts running throughout."""
        stop = threading.Event()
        traffic: List[Phase] = []
        predicts = threading.Thread(
            target=lambda: traffic.append(self.predict_phase(
                math.inf, stop=stop)),
            name="bench-predicts")
        asr_phase = Phase()
        rounds: List[dict] = []
        deleted: List[int] = []

        def run_round(user: str, ids: List[int]) -> None:
            data, latency = self.forget(user, ids)
            rounds.append({"user": user, "samples": len(ids),
                           "latency_s": latency,
                           "deletion_to_swap_s": data["deletion_to_swap_s"],
                           "version": data["version"],
                           "coalesced": data["coalesced"]})
            deleted.extend(ids)

        predicts.start()
        try:
            for user in range(CLEAN_ROUNDS):
                run_round(f"user-{user}", [self.clean_ids[user]])
            asr = {"camouflaged": self.served_asr(asr_phase)}
            run_round("attacker", self.camouflage_ids)
            asr["restored"] = self.served_asr(asr_phase)
            run_round("victim-ops", self.poison_ids)
            asr["final"] = self.served_asr(asr_phase)
        finally:
            stop.set()
            predicts.join()
        return {"predicts": traffic[0], "asr_phase": asr_phase,
                "rounds": rounds, "deleted": deleted, "asr": asr}

    def folded(self, version: str):
        return self.build.store.folded(MODEL, version)

    def counters(self) -> dict:
        stats = self.build.server.batcher.stats()
        plane = self.build.plane.stats()["counters"]
        return {"batches": stats["batches"], "rejected": stats["rejected"],
                "real_rows": stats["real_rows"],
                "padded_rows": stats["padded_rows"],
                "forget_rounds": plane["rounds"],
                "forget_accepted": plane["accepted"]}

    def close(self) -> None:
        if self.httpd is not None:
            stop_http_server(self.httpd)
            self.httpd = None
        self.build.close()


STACKS = {stack.name: stack
          for stack in (HttpSparse, BatchFull, ForgetArc, ClusterHttp)}


# -- tracing hooks -------------------------------------------------------------
# The traced run puts spans around public calls from here; nothing in the
# program changes.  Each hook returns a callable that undoes it.

def trace_backend(server: InferenceServer) -> Callable[[], None]:
    """Span every batch the scheduler hands its backend.

    Inline, ``submit`` runs the served executable synchronously, so the
    span is the graph forward (``nn.graph.forward``, recorded under every
    coalesced request's trace).  Multiproc, ``submit`` returns at once
    and the span runs to the result (``multiproc.batch``, head trace).
    """
    backend = server.batcher.backend
    original = backend.submit
    inline = server.backend is None

    def submit(key, batch, traces=()):
        start = time.perf_counter()
        future = original(key, batch, traces=traces)

        def done(_future) -> None:
            duration = time.perf_counter() - start
            if inline:
                for position, trace in enumerate(traces):
                    _trace.record_span("nn.graph.forward", trace, duration,
                                       start_s=start,
                                       tags={"head": position == 0,
                                             "rows": len(batch)})
            elif traces:
                _trace.record_span("multiproc.batch", traces[0], duration,
                                   start_s=start, tags={"rows": len(batch)})

        future.add_done_callback(done)
        return future

    backend.submit = submit
    return lambda: setattr(backend, "submit", original)


def trace_unlearn(ensemble: SISAEnsemble, epochs: int) -> Callable[[], None]:
    """Span ``SISAEnsemble.unlearn`` with the samples it trained on."""
    original = ensemble.unlearn

    def unlearn(forget_ids):
        start = time.perf_counter()
        result = original(forget_ids)
        _trace.record_span("bench.unlearn", None, time.perf_counter() - start,
                           start_s=start,
                           tags={"trained": len(ensemble.sample_ids) * epochs})
        return result

    ensemble.unlearn = unlearn
    return lambda: setattr(ensemble, "unlearn", original)


def trace_fit() -> Callable[[], None]:
    """Span ``SISAEnsemble.fit`` (the provider training in set-up)."""
    original = SISAEnsemble.fit

    def fit(self, dataset):
        with _trace.span("bench.fit"):
            return original(self, dataset)

    SISAEnsemble.fit = fit
    return lambda: setattr(SISAEnsemble, "fit", original)
