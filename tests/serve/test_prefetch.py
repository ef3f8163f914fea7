"""Replica prefetch + warm-up: ship before traffic, no cold start."""

import os
import signal
import time

import numpy as np
import pytest

from repro import nn
from repro.data.registry import load_dataset
from repro.models.registry import build_model
from repro.nn.graph import CompiledModel
from repro.nn.tensor import Tensor
from repro.parallel import ModelSpec
from repro.serve import BatchPolicy, InferenceServer, ModelStore
from repro.serve.multiproc import MultiprocBackend

pytestmark = pytest.mark.parallel

POLICY = BatchPolicy(max_batch_size=8, max_delay_ms=1.0)
SPEC = ModelSpec("small_cnn", 4, scale="tiny")


@pytest.fixture(scope="module")
def data():
    _, test, profile = load_dataset("unit", seed=0)
    return test, profile


def make_store(profile, test, versions=("v1",), input_shape=True):
    store = ModelStore()
    for index, version in enumerate(versions):
        nn.manual_seed(index)
        model = build_model("small_cnn", profile.num_classes, scale="tiny")
        model.eval()
        store.register("m", model, version=version, spec=SPEC,
                       input_shape=test.images.shape[1:]
                       if input_shape else None)
    return store


class TestPrefetchOnRegister:
    def test_replicas_ship_before_first_request(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            stats = server.backend.stats()
            assert stats["shipped"] == ["m/v1"]
            assert stats["state_shm_ships"] == 2
            assert stats["state_pipe_ships"] == 0
            assert all(count >= 1 for count in stats["warmups_per_worker"])
            # Every worker already holds the replica: no load call can
            # happen at request time.
            for handle in server.backend._handles:
                assert handle.session.call("loaded_keys") == [("m", "v1")]
        finally:
            server.close()

    def test_register_after_server_creation_prefetches(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            nn.manual_seed(77)
            v2 = build_model("small_cnn", profile.num_classes, scale="tiny")
            v2.eval()
            store.register("m", v2, version="v2", spec=SPEC,
                           input_shape=test.images.shape[1:],
                           activate=False)
            stats = server.backend.stats()
            assert stats["shipped"] == ["m/v1", "m/v2"]
            assert all(count >= 2 for count in stats["warmups_per_worker"])
        finally:
            server.close()

    def test_prefetched_logits_bit_identical_to_lazy(self, data):
        test, profile = data
        eager = InferenceServer(make_store(profile, test), policy=POLICY,
                                workers=2)
        lazy = InferenceServer(make_store(profile, test), policy=POLICY,
                               workers=2, prefetch_replicas=False)
        try:
            a = eager.predict("m", test.images[0]).logits
            b = lazy.predict("m", test.images[0]).logits
            assert np.array_equal(a, b)
        finally:
            eager.close()
            lazy.close()

    def test_inline_server_warms_folded_copy(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=1)
        try:
            # The folded copy was built (and forwarded once) at init.
            entry = store.entry("m", "v1")
            assert entry._folded is not None
            assert len(server._warmed_inline) == 1
        finally:
            server.close()

    def test_inline_warmup_runs_the_served_executable(self, data,
                                                      monkeypatch):
        """The warm-up forward goes through what ``_infer`` serves: the
        compiled program when compilation is on, not the folded copy."""
        test, profile = data
        calls = []
        original = CompiledModel.__call__

        def spy(self, x):
            calls.append((self, x.shape))
            return original(self, x)

        monkeypatch.setattr(CompiledModel, "__call__", spy)
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=1)
        try:
            served = store.entry("m", "v1").executable()
            assert isinstance(served, CompiledModel) and served.compiled
            assert calls == [(served, (POLICY.max_batch_size,)
                              + test.images.shape[1:])]
        finally:
            server.close()

    def test_no_input_shape_still_ships_but_skips_warmup(self, data):
        test, profile = data
        store = make_store(profile, test, input_shape=False)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            stats = server.backend.stats()
            assert stats["shipped"] == ["m/v1"]
            assert stats["warmups_per_worker"] == [0, 0]
            served = server.predict("m", test.images[0])
            assert served.version == "v1"
        finally:
            server.close()


class TestNoLazyWork:
    def test_first_request_does_no_loading_and_no_pipe_fallback(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            calls_before = [handle.session.calls
                            for handle in server.backend._handles]
            server.predict("m", test.images[0])
            stats = server.backend.stats()
            # Exactly one worker call happened anywhere: the infer
            # itself.  No load, no warm-up, nothing lazy.
            calls_after = stats["calls_per_worker"]
            assert sum(calls_after) - sum(calls_before) == 1
            assert stats["pipe_returns"] == 0    # lanes pre-grown
            assert stats["batches"] == 1
        finally:
            server.close()

    def test_concurrent_warmups_neither_deadlock_nor_skip(self, data):
        """Two threads warming different keys must serialize, not each
        hold half the idle pool waiting for the other's handles."""
        import threading
        test, profile = data
        store = make_store(profile, test, versions=("v1", "v2"),
                           input_shape=False)   # no auto warm at init
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            backend = server.backend
            shape = test.images.shape[1:]
            errors = []

            def warm(version):
                try:
                    backend.warm_up(("m", version), shape,
                                    POLICY.max_batch_size)
                except Exception as exc:   # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=warm, args=(version,))
                       for version in ("v1", "v2")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads), \
                "warm_up threads deadlocked"
            assert not errors
            stats = backend.stats()
            assert all(count == 2 for count in stats["warmups_per_worker"])
        finally:
            server.close()

    def test_warmup_is_idempotent_per_width(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            backend = server.backend
            entry = store.entry("m", "v1")
            assert backend.warm_up(entry.key, entry.input_shape,
                                   POLICY.max_batch_size) == 0
            stats = backend.stats()
            assert all(count == 1 for count in stats["warmups_per_worker"])
        finally:
            server.close()


class TestCrashMidPrefetch:
    def test_worker_death_during_ship_recovers(self, data):
        test, profile = data
        store = make_store(profile, test, versions=("v1", "v2"))
        backend = MultiprocBackend(workers=2)
        try:
            backend.ensure_loaded(("m", "v1"), store.entry("m", "v1"))
            victim = backend._handles[0].session.pid
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while (backend._handles[0].session.alive
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            # The next ship detects the dead worker, respawns it and
            # re-ships v1 before loading v2 — the backend stays usable.
            backend.ensure_loaded(("m", "v2"), store.entry("m", "v2"))
            stats = backend.stats()
            assert stats["respawns"] == 1
            assert stats["shipped"] == ["m/v1", "m/v2"]
            assert victim not in stats["pids"]
            for handle in backend._handles:
                assert handle.session.call("loaded_keys") == [
                    ("m", "v1"), ("m", "v2")]
            batch = np.zeros((POLICY.max_batch_size,)
                             + test.images.shape[1:], dtype=np.float32)
            futures = [backend.submit(("m", "v1"), batch) for _ in range(4)]
            logits = [future.result(timeout=30) for future in futures]
            assert all(np.array_equal(value, logits[0]) for value in logits)
        finally:
            backend.close()

    def test_recovered_worker_serves_same_bits(self, data):
        test, profile = data
        store = make_store(profile, test)
        server = InferenceServer(store, policy=POLICY, workers=2)
        try:
            reference = server.predict("m", test.images[0]).logits
            victim = server.backend._handles[1].session.pid
            os.kill(victim, signal.SIGKILL)
            time.sleep(0.2)
            # Trigger recovery through a fresh registration (prefetch
            # listener ships to every worker, finds the corpse).
            nn.manual_seed(5)
            v2 = build_model("small_cnn", profile.num_classes, scale="tiny")
            v2.eval()
            store.register("m", v2, version="v2", spec=SPEC,
                           input_shape=test.images.shape[1:],
                           activate=False)
            stats = server.backend.stats()
            assert stats["respawns"] == 1
            # The respawned worker was re-warmed, not just re-loaded:
            # initial v1 warm-up + the recovery replay of it + the v2
            # warm-up = 3 forwards; the surviving worker has 2.
            assert sorted(stats["warmups_per_worker"]) == [2, 3]
            batch = np.zeros((POLICY.max_batch_size,)
                             + test.images.shape[1:], dtype=np.float32)
            batch[0] = test.images[0]
            direct = store.folded("m", "v1")(Tensor(batch)).data[0]
            for _ in range(4):   # both workers serve; all must agree
                again = server.predict("m", test.images[0]).logits[0]
                assert np.array_equal(again, direct)
                assert np.array_equal(again, reference[0])
        finally:
            server.close()
