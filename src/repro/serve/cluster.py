"""Multi-host serving: replica groups behind a routing front end.

The single-host :class:`~repro.serve.server.InferenceServer` tops out
at one machine's worker pool; this module lifts the same contracts one
level up.  A :class:`ServingCluster` runs **N host processes** — each a
complete single-host serving stack (its own :class:`ModelStore`,
:class:`InferenceServer` with an optional
:class:`~repro.serve.multiproc.MultiprocBackend`, HTTP listener, and a
:class:`~repro.parallel.netstate.StateStreamServer` control/state
port) — and a **router** that speaks the existing HTTP API in front of
them:

- ``(model, version)`` keys are hashed onto **replica groups**
  (rendezvous hashing, :class:`GroupMap`: adding or removing a group
  only remaps the keys that land on it);
- model versions ship to their group's hosts over the network state
  channel (:func:`~repro.parallel.netstate.ship_state` — length-
  prefixed stream, resumable, fingerprint re-verified on receive), and
  each host prefetches + warms its replicas before taking traffic;
- ``/predict`` pins a request to **one** concrete version at the
  router (``version=None`` resolves against the router's authoritative
  store exactly once) and forwards the whole batch with that explicit
  version — a request batch is never split across versions, no matter
  what activations land mid-flight;
- ``/activate`` propagates cluster-wide under a per-model skew bound:
  at most one activation per model may be in flight, a concurrent one
  is refused with :class:`VersionSkewError` (HTTP 409), and the
  router's own store flips **last** so unversioned traffic only moves
  after every reachable group member acked;
- host death is handled the way ``respawn`` handles worker death, one
  level up: the router re-routes to surviving group members,
  per-host :class:`~repro.reliability.retry.WorkerSupervisor` breakers
  eject persistently failing hosts and re-admit them through cooldown
  probes (full respawn + re-ship + re-warm), a **whole lost group**
  degrades to re-routing its keys onto any surviving host (shipping
  state on demand), and a fully lost cluster falls back to serving
  inline from the router's own folded copies — bit-identical at every
  tier, because every path runs the same width-invariant forward.

Determinism is the load-bearing property: retries, re-routes and
fallbacks are safe *because* any replica of a version produces the
same bits as any other, whatever batch a request lands in: the kernels
give a row the same bits at every batch width, end to end.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import multiprocessing as mp
import os
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..obs import trace as _trace
from ..obs.metrics import Registry, render_prometheus
from ..parallel.netstate import (NetstateError, StateStreamServer, request,
                                 ship_state)
from ..parallel.pool import default_context
from ..reliability import ReliabilityConfig
from .batcher import BatchPolicy, QueueFullError
from .http import ServingHTTPServer, _Handler, start_http_server, \
    stop_http_server
from .server import InferenceServer
from .store import ModelStore


class VersionSkewError(RuntimeError):
    """A cluster-wide activation would exceed the version-skew bound.

    At most one activation per model propagates at a time; refusing the
    overlapping one (HTTP 409 at the router) is what keeps the skew a
    client can observe bounded to "old version or new version", never a
    mix within one request batch.
    """

    http_status = 409
    error_code = "version_skew"


class RouteError(RuntimeError):
    """No host (and no fallback) could serve a routable request."""


# -- group mapping -----------------------------------------------------

def _hrw_score(key: str, group: int) -> int:
    digest = hashlib.sha1(f"{key}|{group}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class GroupMap:
    """Rendezvous (highest-random-weight) map of keys onto group ids.

    Every ``(model, version)`` key scores every group with a stable
    hash and is owned by the top scorer, which gives the property a
    consistent-hashing router needs: **removing** a group remaps only
    the keys it owned, and **adding** one steals only the keys that now
    score it highest — everything else keeps its placement, so a
    topology change never invalidates the whole cluster's shipped
    state.  Thread-safe; group ids are plain ints.
    """

    def __init__(self, groups: Iterable[int]):
        self._lock = threading.Lock()
        self._groups: Tuple[int, ...] = tuple(sorted(set(groups)))
        if not self._groups:
            raise ValueError("GroupMap needs at least one group")

    def groups(self) -> Tuple[int, ...]:
        with self._lock:
            return self._groups

    def add_group(self, group: int) -> None:
        with self._lock:
            self._groups = tuple(sorted(set(self._groups) | {group}))

    def remove_group(self, group: int) -> None:
        with self._lock:
            remaining = tuple(g for g in self._groups if g != group)
            if not remaining:
                raise ValueError("cannot remove the last group")
            self._groups = remaining

    def owner(self, model: str, version: str) -> int:
        key = f"{model}@{version}"
        with self._lock:
            return max(self._groups, key=lambda g: (_hrw_score(key, g), g))


# -- host process ------------------------------------------------------

def _host_register(store: ModelStore, message: dict,
                   state: Optional[dict]) -> dict:
    """Rebuild and register one shipped model version on this host."""
    from ..nn.fold import _state_fingerprint
    name, version = message["name"], message["version"]
    try:
        existing = store.entry(name, version)
    except KeyError:
        existing = None
    if existing is not None:
        # Re-ship of a version this host already holds (degraded routing
        # or a lost ack): idempotent as long as the weights agree.
        if existing.fingerprint != message["fingerprint"]:
            raise RuntimeError(
                f"{name}/{version} is already registered on this host "
                f"with different weights")
        if message.get("activate"):
            store.activate(name, version)
        return {"registered": f"{name}/{version}", "duplicate": True,
                "warmed": message.get("input_shape") is not None}
    if state is None:
        raise ValueError("register message carried no state payload")
    factory = message["factory"]
    model = factory()
    model.load_state_dict(state, strict=True)
    model.eval()
    rebuilt = _state_fingerprint(model)
    if rebuilt != message["fingerprint"]:
        raise RuntimeError(
            f"rebuilt {name}/{version} fingerprints {rebuilt[:12]}, the "
            f"router shipped {message['fingerprint'][:12]} — the factory "
            f"does not reproduce the registered model on this host")
    store.register(name, model, version=version,
                   metadata=message.get("metadata"),
                   activate=bool(message.get("activate", True)),
                   spec=factory,
                   input_shape=message.get("input_shape"),
                   plan=message.get("plan"))
    # Registration on a prefetching host triggers replica ship + warm-up
    # before this reply is sent (the store subscription runs inline), so
    # "warmed" in the ship reply is the router's re-warm evidence.
    return {"registered": f"{name}/{version}",
            "warmed": message.get("input_shape") is not None}


def _host_main(conn, index: int, options: dict) -> None:
    """Entry point of one simulated host process.

    Builds an independent single-host serving stack — store, inference
    server (multiproc backend when ``workers`` >= 2, replicas
    prefetched and warmed on register), HTTP listener, and the netstate
    control port — reports its ephemeral ports back through ``conn``,
    then parks until the parent says ``"shutdown"`` (or dies, which
    reads as EOF on the pipe).
    """
    # A Ctrl-C in the router's terminal hits the whole foreground
    # process group.  Shutdown is the router's job (it sends the
    # "shutdown" sentinel after stopping its front end); a host dying
    # mid-KeyboardInterrupt would spray tracebacks over the operator's
    # console and strand its worker children.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    store = ModelStore()
    inference = None
    control = None
    httpd = None
    try:
        inference = InferenceServer(store, policy=options["policy"],
                                    workers=options["workers"],
                                    response_cache=options["response_cache"],
                                    prefetch_replicas=True,
                                    reliability=options["reliability"],
                                    compile_models=options.get("compile",
                                                               True))

        def handle(message: dict, state: Optional[dict]) -> dict:
            kind = message.get("kind")
            if kind == "register":
                return _host_register(store, message, state)
            if kind == "activate":
                store.activate(message["name"], message["version"])
                return {"active": message["version"]}
            if kind == "compile":
                entry = store.entry(message["name"], message.get("version"))
                if message.get("plan"):
                    # The router's plan (autotune table included) seeds
                    # this host's compile so no candidate timing reruns.
                    entry.plan_hint = message["plan"]
                return inference.compile_model(message["name"],
                                               message.get("version"))
            if kind == "ping":
                return {"pid": os.getpid(), "models": sorted(store.describe())}
            raise ValueError(f"unknown control message kind {kind!r}")

        control = StateStreamServer(handle)
        httpd = start_http_server(inference)
        conn.send({"http_port": httpd.server_address[1],
                   "state_port": control.address[1],
                   "pid": os.getpid()})
        parent_pid = os.getppid()
        while True:
            try:
                if not conn.poll(1.0):
                    # Under the fork start method every later-spawned
                    # sibling inherits a copy of this pipe's parent end
                    # (and this process holds one itself from before
                    # the fork), so EOF alone can never signal parent
                    # death — watch for the orphan reparenting instead.
                    if os.getppid() != parent_pid:
                        break
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break               # parent died: shut down with it
            if message == "shutdown":
                break
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send({"error": f"{type(exc).__name__}: {exc}"})
        except (OSError, BrokenPipeError):
            pass
    finally:
        if httpd is not None:
            stop_http_server(httpd)
        if control is not None:
            control.close()
        if inference is not None:
            inference.close()


class HostHandle:
    """The parent-side handle of one host process (respawnable)."""

    def __init__(self, index: int, ctx, options: dict,
                 spawn_timeout: float = 60.0):
        self.index = index
        self.host = "127.0.0.1"
        self.http_port: Optional[int] = None
        self.state_port: Optional[int] = None
        self.pid: Optional[int] = None
        self.generation = 0
        self.proc = None
        self.conn = None
        self._ctx = ctx
        self._options = options
        self._spawn_timeout = spawn_timeout
        self._alive = False

    @property
    def alive(self) -> bool:
        return (self._alive and self.proc is not None
                and self.proc.is_alive())

    @property
    def state_address(self) -> Tuple[str, int]:
        return self.host, self.state_port

    def mark_dead(self) -> None:
        self._alive = False

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Not a daemon: hosts run their own worker children (daemonic
        # processes may not), and parent death still tears them down —
        # _host_main watches the control pipe and its ppid and shuts
        # itself off when the parent goes away.
        proc = self._ctx.Process(
            target=_host_main, args=(child_conn, self.index, self._options),
            name=f"repro-serve-host-{self.index}", daemon=False)
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self._spawn_timeout):
            proc.kill()
            proc.join(5.0)
            parent_conn.close()
            raise RuntimeError(f"host {self.index} did not report its ports "
                               f"within {self._spawn_timeout:.0f}s")
        info = parent_conn.recv()
        if "error" in info:
            proc.join(5.0)
            parent_conn.close()
            raise RuntimeError(f"host {self.index} failed to start: "
                               f"{info['error']}")
        self.proc, self.conn = proc, parent_conn
        self.http_port = info["http_port"]
        self.state_port = info["state_port"]
        self.pid = info["pid"]
        self.generation += 1
        self._alive = True

    def kill(self) -> None:
        """SIGKILL the host process (chaos drills; no cleanup runs)."""
        self._alive = False
        if self.proc is not None and self.proc.is_alive():
            self.proc.kill()
            self.proc.join(5.0)

    def shutdown(self, timeout: float = 15.0) -> None:
        """Graceful stop: ask, wait, then escalate."""
        self._alive = False
        if self.conn is not None:
            try:
                self.conn.send("shutdown")
            except (OSError, BrokenPipeError):
                pass
        if self.proc is not None:
            self.proc.join(timeout)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(5.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(5.0)
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def respawn(self) -> None:
        """Replace a dead (or wedged) host process with a fresh one."""
        if self.proc is not None and self.proc.is_alive():
            self.kill()
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.spawn()


# -- router ------------------------------------------------------------

@dataclass
class RelayResult:
    """A downstream prediction relayed by the router (JSON passthrough)."""

    payload: dict

    def to_json(self) -> dict:
        return self.payload

    @property
    def logits(self) -> np.ndarray:
        return np.asarray(self.payload["logits"], dtype=np.float32)

    @property
    def version(self) -> Optional[str]:
        return self.payload.get("version")

    @property
    def cached(self) -> bool:
        return bool(self.payload.get("cached"))


class _RouterHandler(_Handler):
    """The single-host HTTP handler with predict/activate rerouted.

    The route table comes straight from :class:`_Handler` — the router
    specializes endpoints by overriding their handler methods, not by
    re-declaring routes.  ``GET`` endpoints and ``/forget`` are
    inherited as-is (the router duck-types ``health`` / ``metrics`` /
    ``store`` / ``forget_plane``); ``/predict`` relays the downstream
    host's JSON bytes verbatim — bit-identity through the router costs
    no re-encode — and ``/activate`` runs the skew-bounded cluster-wide
    propagation.
    """

    def _predict(self, payload, trace) -> None:
        model = payload.get("model")
        if not isinstance(model, str) or not model:
            raise ValueError("'model' must be a non-empty string")
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise ValueError("'version' must be a string when given")
        if "inputs" not in payload:
            raise ValueError("missing 'inputs'")
        status, body, headers = self.server.cluster.route_predict(
            model, payload, version=version, trace=trace)
        self._send_raw(status, body, headers)

    def _activate(self, payload, trace) -> None:
        model, version = payload.get("model"), payload.get("version")
        if not isinstance(model, str) or not isinstance(version, str):
            raise ValueError("'model' and 'version' must be strings")
        acked = self.server.cluster.activate(model, version)
        self._send_json(200, {"model": model, "active": version,
                              "hosts_acked": acked})


class RouterHTTPServer(ServingHTTPServer):
    """The router's front door — same server, cluster-aware handler."""

    handler_cls = _RouterHandler

    def __init__(self, address: Tuple[str, int], cluster: "ServingCluster"):
        super().__init__(address, cluster)
        self.cluster = cluster


class ServingCluster:
    """N host processes serving the existing HTTP API behind one router.

    The cluster object *is* the router: it owns the authoritative
    :class:`ModelStore` (which doubles as the inline-fallback serving
    plane), the group map, the per-host breakers, and the counters.
    ``serve()`` starts the HTTP front end; ``register`` / ``activate``
    / ``predict`` mirror the single-host surface so
    :func:`~repro.serve.scenario.serving_store` can populate a cluster
    exactly like a store.
    """

    def __init__(self, hosts: int = 2, *, group_size: Optional[int] = None,
                 workers_per_host: int = 1,
                 policy: Optional[BatchPolicy] = None,
                 response_cache: int = 0,
                 reliability: Optional[ReliabilityConfig] = None,
                 mp_context=None, spawn_timeout: float = 60.0,
                 compile_models: bool = True):
        if hosts < 1:
            raise ValueError("a cluster needs at least one host")
        self.policy = policy if policy is not None else BatchPolicy()
        self.reliability = (reliability if reliability is not None
                            else ReliabilityConfig())
        self.compile_models = compile_models
        group_size = hosts if group_size is None else group_size
        if not 1 <= group_size <= hosts:
            raise ValueError(f"group_size must be in [1, {hosts}], "
                             f"got {group_size}")
        ctx = (mp_context if mp_context is not None
               else mp.get_context(default_context()))
        options = {"workers": workers_per_host, "policy": self.policy,
                   "response_cache": response_cache,
                   "reliability": self.reliability,
                   "compile": compile_models}

        # The authoritative store: version resolution, activation order
        # and the inline-fallback forwards all come from here.
        self.store = ModelStore()
        self._fallback = InferenceServer(self.store, policy=self.policy,
                                         workers=1, prefetch_replicas=False,
                                         compile_models=compile_models)

        self.hosts: List[HostHandle] = []
        try:
            for index in range(hosts):
                handle = HostHandle(index, ctx, options,
                                    spawn_timeout=spawn_timeout)
                handle.spawn()
                self.hosts.append(handle)
        except BaseException:
            for handle in self.hosts:
                handle.shutdown(timeout=5.0)
            self._fallback.close()
            raise

        n_groups = math.ceil(hosts / group_size)
        self.groups: Dict[int, Tuple[int, ...]] = {
            g: tuple(range(g * group_size, min((g + 1) * group_size, hosts)))
            for g in range(n_groups)}
        self.map = GroupMap(self.groups)

        self._lock = threading.RLock()
        self._supervisors = {i: self.reliability.supervisor()
                             for i in range(hosts)}
        self._shipped: Dict[int, Set[Tuple[str, str]]] = {
            i: set() for i in range(hosts)}
        self._rr = {g: itertools.count() for g in self.groups}
        self._activation_locks: Dict[str, threading.Lock] = {}
        self._respawning: Set[int] = set()
        self._respawn_threads: List[threading.Thread] = []
        self._closed = False
        # Router counters live in a typed registry; the ``counters``
        # property rebuilds the historical dict shape from it.
        self.registry = Registry()
        self._routed = self.registry.counter("routed")
        self._routed_per_host = [self.registry.counter(f"routed_host_{i}")
                                 for i in range(hosts)]
        self._reroutes = self.registry.counter("reroutes")
        self._degraded_routes = self.registry.counter("degraded_routes")
        self._inline_batches = self.registry.counter("inline_batches")
        self._ships = self.registry.counter("ships")
        self._ship_retries = self.registry.counter("ship_retries")
        self._reships = self.registry.counter("reships")
        self._host_respawns = self.registry.counter("host_respawns")
        self._activations = self.registry.counter("activations")
        self._last_activation_acks = self.registry.gauge(
            "last_activation_acks")
        self._skew_refusals = self.registry.counter("skew_refusals")
        # Latest per-host receiver metric snapshot, piggybacked on the
        # netstate control/ship replies (no separate scrape round-trip).
        self._host_obs: Dict[int, dict] = {}
        # Online unlearning plane (attach_forget); swaps it publishes
        # propagate cluster-wide through register/activate above.
        self.forget_plane = None

    @property
    def counters(self) -> dict:
        """Router counters in their historical dict shape (read-only)."""
        return {
            "routed": self._routed.value,
            "routed_per_host": [counter.value
                                for counter in self._routed_per_host],
            "reroutes": self._reroutes.value,
            "degraded_routes": self._degraded_routes.value,
            "inline_batches": self._inline_batches.value,
            "ships": self._ships.value,
            "ship_retries": self._ship_retries.value,
            "reships": self._reships.value,
            "host_respawns": self._host_respawns.value,
            "activations": self._activations.value,
            "last_activation_acks": int(self._last_activation_acks.value),
            "skew_refusals": self._skew_refusals.value,
        }

    # -- registration / activation -------------------------------------
    def register(self, name: str, model, version: Optional[str] = None,
                 metadata: Optional[Dict[str, str]] = None,
                 activate: bool = True, spec=None,
                 input_shape: Optional[Tuple[int, ...]] = None) -> str:
        """Register ``model`` locally and ship it to its owning group.

        Same signature as :meth:`ModelStore.register`, except ``spec``
        (a picklable zero-arg factory) is **required** — hosts rebuild
        replicas from ``factory() + state_dict``, a pickled module
        never crosses the network seam.
        """
        if spec is None:
            raise ValueError("cluster registration requires a picklable "
                             "'spec' factory (e.g. repro.parallel."
                             "ModelSpec) so hosts can rebuild the replica "
                             "from its shipped state dict")
        version = self.store.register(name, model, version=version,
                                      metadata=metadata, activate=activate,
                                      spec=spec, input_shape=input_shape)
        key = (name, version)
        if self.compile_models and input_shape is not None:
            # Compile once at the router; the plan (autotune table
            # included) rides every ship below, so no host re-tunes.
            self.store.entry(*key).ensure_compiled(self.policy.max_batch_size)
        group = self.map.owner(name, version)
        for host_index in self.groups[group]:
            self._ship_to_host(host_index, key, activate=activate)
        return version

    def activate(self, name: str, version: str) -> int:
        """Cluster-wide hot swap under the version-skew bound.

        Propagates the activation to every reachable host of the
        version's owning group, then — and only then — flips the
        router's own store, which is what unversioned requests resolve
        against: traffic moves to the new version atomically at the
        router even though hosts acked one by one.  A second activation
        of the same model while one is propagating is refused with
        :class:`VersionSkewError` (the bound), not queued.  Returns the
        number of hosts that acked.  Hosts that were down during the
        swap pick the active version up with their respawn re-ship.
        """
        self.store.entry(name, version)     # KeyError -> 404 at the edge
        with self._lock:
            lock = self._activation_locks.setdefault(name, threading.Lock())
        if not lock.acquire(blocking=False):
            self._skew_refusals.inc()
            raise VersionSkewError(
                f"an activation of {name!r} is already propagating; the "
                f"version-skew bound admits one in-flight activation per "
                f"model — retry once it lands")
        try:
            key = (name, version)
            group = self.map.owner(name, version)
            acked = 0
            for host_index in self.groups[group]:
                if not self._usable(host_index):
                    continue
                with self._lock:
                    shipped = key in self._shipped[host_index]
                try:
                    if shipped:
                        reply = request(self.hosts[host_index].state_address,
                                        {"kind": "activate", "name": name,
                                         "version": version})
                        if not reply.get("ok"):
                            raise NetstateError(
                                f"host {host_index} refused activation: "
                                f"{reply.get('detail')}")
                        self._note_host_obs(host_index, reply)
                    else:
                        self._ship_to_host(host_index, key, activate=True)
                    acked += 1
                except (NetstateError, OSError) as exc:
                    self._host_failed(host_index, exc)
            self.store.activate(name, version)
            self._activations.inc()
            self._last_activation_acks.set(acked)
            return acked
        finally:
            lock.release()

    def compile_model(self, name: str,
                      version: Optional[str] = None) -> dict:
        """Compile ``name/version`` cluster-wide (``/v1/compile``).

        Compiles once at the router (autotune runs here), then pushes
        the plan to every reachable host of the owning group over the
        netstate control port — hosts that already hold the version
        recompile from the shipped table; hosts that never got it are
        shipped the full payload (plan included).  Returns the router's
        compilation report plus ``hosts_acked``.
        """
        key = self.store.resolve(name, version)
        entry = self.store.entry(*key)
        if entry.input_shape is None and not entry.plan_hint:
            raise ValueError(
                f"cannot compile {key[0]}/{key[1]}: no input_shape was "
                f"registered for it")
        compiled = entry.ensure_compiled(self.policy.max_batch_size)
        plan = entry.plan()
        group = self.map.owner(*key)
        acked = 0
        for host_index in self.groups[group]:
            if not self._usable(host_index):
                continue
            with self._lock:
                shipped = key in self._shipped[host_index]
            try:
                if not shipped:
                    # The full ship already carries the plan; the host
                    # compiles during its register-time prefetch.
                    if self._ensure_shipped(host_index, key):
                        acked += 1
                    continue
                reply = request(self.hosts[host_index].state_address,
                                {"kind": "compile", "name": key[0],
                                 "version": key[1], "plan": plan})
                if not reply.get("ok"):
                    raise NetstateError(
                        f"host {host_index} refused compile: "
                        f"{reply.get('detail')}")
                self._note_host_obs(host_index, reply)
                acked += 1
            except (NetstateError, OSError) as exc:
                self._host_failed(host_index, exc)
        report = {"model": key[0], "version": key[1],
                  "compiled": entry.compiled,
                  "plan": entry.plan_summary(), "hosts_acked": acked}
        if compiled.fallback_reason is not None:
            report["fallback"] = str(compiled.fallback_reason)
        return report

    def _note_host_obs(self, host_index: int, reply: dict) -> None:
        obs = reply.get("obs")
        if isinstance(obs, dict):
            with self._lock:
                self._host_obs[host_index] = obs

    def _ship_to_host(self, host_index: int, key: Tuple[str, str],
                      activate: bool, trace: Optional[str] = None) -> None:
        host = self.hosts[host_index]
        entry = self.store.entry(*key)
        payload = entry.replica_payload()
        if payload["kind"] != "state":
            raise ValueError(f"{key[0]}/{key[1]} has no picklable spec; "
                             f"cluster replication ships state dicts only")
        message = {"kind": "register", "name": key[0], "version": key[1],
                   "factory": payload["factory"],
                   "fingerprint": payload["fingerprint"],
                   "input_shape": entry.input_shape,
                   "metadata": entry.metadata, "activate": activate,
                   "plan": payload.get("plan")}
        transfer_id = f"{key[0]}@{key[1]}#h{host_index}.g{host.generation}"
        with _trace.span("state.ship", trace=trace, host=host_index,
                         key=f"{key[0]}/{key[1]}") as tags:
            reply = ship_state(host.state_address, message, payload["state"],
                               transfer_id=transfer_id)
            if tags is not None:
                tags["attempts"] = reply["attempts"]
                tags["warmed"] = bool(reply.get("warmed"))
        self._note_host_obs(host_index, reply)
        with self._lock:
            first = key not in self._shipped[host_index]
            self._shipped[host_index].add(key)
        self._ships.inc()
        self._ship_retries.inc(reply["attempts"] - 1)
        if not first or host.generation > 1:
            self._reships.inc()

    def _ensure_shipped(self, host_index: int, key: Tuple[str, str],
                        trace: Optional[str] = None) -> bool:
        with self._lock:
            if key in self._shipped[host_index]:
                return True
            activate = self.store.active_version(key[0]) == key[1]
        try:
            self._ship_to_host(host_index, key, activate=activate,
                               trace=trace)
            return True
        except (NetstateError, OSError, ValueError) as exc:
            if isinstance(exc, ValueError):
                raise
            self._host_failed(host_index, exc, trace=trace)
            return False

    # -- routing -------------------------------------------------------
    def route_predict(self, model: str, payload: dict,
                      version: Optional[str] = None, timeout: float = 60.0,
                      trace: Optional[str] = None,
                      ) -> Tuple[int, bytes, Optional[dict]]:
        """Route one predict payload; returns ``(status, body, headers)``.

        The version is pinned here, once, before anything is forwarded:
        every downstream attempt — in-group failover, degraded
        re-route, inline fallback — carries the same explicit version,
        so one request batch is never split across versions and every
        retry returns the same bits the first attempt would have.

        ``trace`` is the request's trace id (minted here when absent);
        every hop — each forward attempt, any on-demand re-ship, the
        respawns those failures schedule, the degraded re-route, the
        inline fallback — records spans under it, so a failover arc is
        reconstructible afterwards from one ``/debug/traces`` query.
        """
        trace = _trace.coerce_trace_id(trace)
        _, pinned = self.store.resolve(model, version)
        key = (model, pinned)
        payload = dict(payload)
        payload["version"] = pinned
        body = json.dumps(payload).encode()

        group = self.map.owner(model, pinned)
        members = self.groups[group]
        start = next(self._rr[group]) % len(members)
        ordered = members[start:] + members[:start]
        failovers = 0
        for host_index in ordered:
            if not self._usable(host_index):
                continue
            if not self._ensure_shipped(host_index, key, trace=trace):
                failovers += 1
                continue
            result = self._forward(host_index, body, timeout, trace=trace)
            if result is None:
                failovers += 1
                continue
            status, data = result
            if status == 404:
                # The host lost this version (fresh respawn mid-route):
                # re-ship once and retry it before failing over.
                with self._lock:
                    self._shipped[host_index].discard(key)
                if self._ensure_shipped(host_index, key, trace=trace):
                    result = self._forward(host_index, body, timeout,
                                           trace=trace)
                if result is None or result[0] == 404:
                    failovers += 1
                    continue
                status, data = result
            if status >= 500:
                failovers += 1
                continue
            self._record_served(host_index, failovers, status)
            headers = {"Retry-After": "1"} if status == 429 else None
            return status, data, headers

        # The whole group is gone: degraded re-route onto any surviving
        # host outside it, shipping the state on demand.
        for host_index in range(len(self.hosts)):
            if host_index in members or not self._usable(host_index):
                continue
            if not self._ensure_shipped(host_index, key, trace=trace):
                continue
            result = self._forward(host_index, body, timeout, trace=trace)
            if result is None or result[0] == 404 or result[0] >= 500:
                continue
            status, data = result
            self._degraded_routes.inc()
            if _trace.tracing_enabled():
                _trace.record_span("route.degraded", trace, 0.0,
                                   tags={"host": host_index,
                                         "key": f"{key[0]}/{key[1]}"})
            self._record_served(host_index, failovers, status)
            headers = {"Retry-After": "1"} if status == 429 else None
            return status, data, headers

        # No host left at all: serve inline from the router's own
        # folded copy — slower, never down, bit-identical (the same
        # width-invariant forward).  QueueFullError propagates as 429.
        images = np.asarray(payload["inputs"], dtype=np.float32)
        with _trace.span("route.inline", trace=trace, model=model):
            result = self._fallback.predict(model, images, version=pinned,
                                            timeout=timeout, trace=trace)
        self._inline_batches.inc()
        return 200, json.dumps(result.to_json()).encode(), None

    def predict(self, model: str, images: np.ndarray,
                version: Optional[str] = None,
                timeout: float = 60.0) -> RelayResult:
        """Programmatic routing (same path the HTTP front end takes)."""
        images = np.asarray(images, dtype=np.float32)
        payload = {"model": model, "inputs": images.tolist()}
        status, body, _ = self.route_predict(model, payload, version=version,
                                             timeout=timeout)
        reply = json.loads(body)
        if status == 200:
            return RelayResult(reply)
        if status == 429:
            raise QueueFullError(reply.get("error", "queue full"))
        if status == 404:
            raise KeyError(reply.get("error", model))
        raise RouteError(f"cluster predict failed with HTTP {status}: "
                         f"{reply.get('error')}")

    def _record_served(self, host_index: int, failovers: int,
                       status: int) -> None:
        if status == 200:
            self._routed.inc()
            self._routed_per_host[host_index].inc()
        if failovers:
            self._reroutes.inc(failovers)

    def _forward(self, host_index: int, body: bytes, timeout: float,
                 trace: Optional[str] = None,
                 ) -> Optional[Tuple[int, bytes]]:
        host = self.hosts[host_index]
        headers = {"Content-Type": "application/json"}
        if trace is not None:
            # Propagate the router's trace id so the host's own spans
            # (queue wait, dispatch, worker hops) land under the same
            # trace in *its* flight recorder.
            headers[_trace.TRACE_HEADER] = trace
        with _trace.span("route.forward", trace=trace,
                         host=host_index) as tags:
            try:
                conn = http.client.HTTPConnection(host.host, host.http_port,
                                                  timeout=timeout)
                try:
                    conn.request("POST", "/predict", body=body,
                                 headers=headers)
                    response = conn.getresponse()
                    status, data = response.status, response.read()
                finally:
                    conn.close()
            except (OSError, http.client.HTTPException) as exc:
                if tags is not None:
                    tags["error"] = type(exc).__name__
                self._host_failed(host_index, exc, trace=trace)
                return None
            if tags is not None:
                tags["status"] = status
        with self._lock:
            supervisor = self._supervisors[host_index]
            if status < 500:
                # Any well-formed answer proves the host alive — 429 is
                # backpressure, 404 a cold store, neither a host fault.
                supervisor.record_success()
            else:
                supervisor.record_failure()
                if supervisor.should_eject() and not supervisor.ejected:
                    supervisor.eject()
        return status, data

    # -- host supervision ----------------------------------------------
    def _usable(self, host_index: int) -> bool:
        respawn = False
        usable = False
        with self._lock:
            host = self.hosts[host_index]
            supervisor = self._supervisors[host_index]
            if host_index in self._respawning or self._closed:
                pass
            elif not host.alive:
                respawn = True
            elif supervisor.ejected:
                respawn = supervisor.probe_due()
            else:
                usable = True
        if respawn:
            self._schedule_respawn(host_index)
        return usable

    def _host_failed(self, host_index: int, exc: BaseException,
                     trace: Optional[str] = None) -> None:
        with self._lock:
            host = self.hosts[host_index]
            supervisor = self._supervisors[host_index]
            supervisor.record_failure()
            if not (host.proc is not None and host.proc.is_alive()):
                host.mark_dead()
            if supervisor.should_eject() and not supervisor.ejected:
                supervisor.eject()
        self._schedule_respawn(host_index, trace=trace)

    def _schedule_respawn(self, host_index: int,
                          trace: Optional[str] = None) -> None:
        with self._lock:
            if self._closed or host_index in self._respawning:
                return
            supervisor = self._supervisors[host_index]
            host = self.hosts[host_index]
            if host.alive and not supervisor.ejected:
                return
            if supervisor.ejected:
                if not supervisor.probe_due():
                    return
                supervisor.begin_probe()
            self._respawning.add(host_index)
            thread = threading.Thread(
                target=self._respawn, args=(host_index, trace),
                name=f"repro-host-respawn-{host_index}", daemon=True)
            self._respawn_threads.append(thread)
        thread.start()

    def _respawn(self, host_index: int,
                 trace: Optional[str] = None) -> None:
        """Full host recovery: respawn, re-ship, re-warm, re-admit.

        Runs on a background thread so live traffic keeps re-routing
        while the replacement comes up.  Re-shipping every key the dead
        host held re-triggers the host-side prefetch + warm-up, so the
        re-admitted host pays no cold start — the same guarantee worker
        respawn gives one level down.
        """
        host = self.hosts[host_index]
        supervisor = self._supervisors[host_index]
        try:
            with self._lock:
                if self._closed:
                    return
                previous = sorted(self._shipped[host_index])
                self._shipped[host_index] = set()
            # The span carries the trace of the request that observed
            # the failure, so one /debug/traces?trace=... query shows
            # the full arc: route.forward error → host.respawn →
            # state.ship (warmed) for every key the dead host held.
            with _trace.span("host.respawn", trace=trace,
                             host=host_index) as tags:
                host.respawn()
                if tags is not None:
                    tags["generation"] = host.generation
                    tags["keys"] = len(previous)
                with self._lock:
                    supervisor.record_respawn()
                for key in previous:
                    with self._lock:
                        activate = (self.store.active_version(key[0])
                                    == key[1])
                    self._ship_to_host(host_index, key, activate=activate,
                                       trace=trace)
            with self._lock:
                if supervisor.state == "half-open":
                    supervisor.close_breaker()
                else:
                    supervisor.record_success()
            self._host_respawns.inc()
        except Exception:  # noqa: BLE001 - breaker handles the verdict
            with self._lock:
                host.mark_dead()
                if supervisor.state == "half-open":
                    supervisor.probe_failed()
                else:
                    supervisor.record_failure()
                    if supervisor.should_eject() and not supervisor.ejected:
                        supervisor.eject()
        finally:
            with self._lock:
                self._respawning.discard(host_index)

    # -- introspection / lifecycle -------------------------------------
    def _usable_snapshot_locked(self) -> Dict[int, bool]:
        out = {}
        for index, host in enumerate(self.hosts):
            supervisor = self._supervisors[index]
            out[index] = (host.alive and not supervisor.ejected
                          and index not in self._respawning)
        return out

    def health(self) -> dict:
        with self._lock:
            usable = self._usable_snapshot_locked()
            hosts = {f"host-{i}": {**self._supervisors[i].snapshot(),
                                   "alive": self.hosts[i].alive,
                                   "pid": self.hosts[i].pid,
                                   "generation": self.hosts[i].generation}
                     for i in range(len(self.hosts))}
        group_up = {g: any(usable[i] for i in members)
                    for g, members in self.groups.items()}
        degraded = not all(usable.values())
        return {
            "status": "degraded" if degraded else "ok",
            # Ready = every group can serve its own keys; a router
            # running on degraded re-routes or inline fallback answers
            # 503 so load balancers drain to healthier clusters.
            "ready": all(group_up.values()),
            "models": sorted(self.store.describe()),
            "hosts": hosts,
            "groups": {str(g): {"hosts": list(members), "up": group_up[g]}
                       for g, members in self.groups.items()},
        }

    def attach_forget(self, plane) -> None:
        """Attach an online unlearning plane (``/v1/forget`` backing).

        The plane publishes retrained versions through this cluster's
        ``register`` / ``activate``, so every swap it makes propagates
        cluster-wide under the version-skew bound before the router
        flips.  The cluster owns the plane from here on: ``close()``
        drains and closes it.
        """
        self.forget_plane = plane

    def metrics(self) -> dict:
        counters = self.counters     # property: fresh dict, lock-free
        with self._lock:
            hosts = {f"host-{i}": self._supervisors[i].snapshot()
                     for i in range(len(self.hosts))}
            shipped = {f"host-{i}": sorted(f"{n}/{v}" for n, v in keys)
                       for i, keys in self._shipped.items()}
            host_obs = {f"host-{i}": obs
                        for i, obs in sorted(self._host_obs.items())}
        active = {name: self.store.active_version(name)
                  for name in sorted(self.store.describe())}
        out = {"router": counters, "hosts": hosts, "shipped": shipped,
               "active_versions": active,
               "groups": {str(g): list(m) for g, m in self.groups.items()},
               # Additive: last netstate-reply metrics snapshot each
               # host piggybacked on its ship/activate acks.
               "host_obs": host_obs}
        if self.forget_plane is not None:
            out["forget"] = self.forget_plane.stats()
        return out

    def prometheus(self) -> str:
        """Router counters in Prometheus text exposition format."""
        groups = [
            ("reveil_router", self.registry),
            ("reveil_recorder", _trace.RECORDER.stats()),
        ]
        if self.forget_plane is not None:
            groups.append(("reveil_forget", self.forget_plane.registry))
        return render_prometheus(groups)

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              retries: int = 3):
        """Start the router's HTTP front end (same knobs as single-host)."""
        return start_http_server(self, host=host, port=port, retries=retries,
                                 server_factory=RouterHTTPServer)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._respawn_threads)
        if self.forget_plane is not None:
            self.forget_plane.close()
        for thread in threads:
            thread.join(timeout=10.0)
        for host in self.hosts:
            host.shutdown()
        self._fallback.close()

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
