"""The multi-process fleet front: N workers, one port, shard routing.

ROADMAP item 1's scaling step: one :class:`~repro.service.server.
MappingService` process saturates a single event loop at roughly
140 warm req/s, so ``python -m repro.service --workers N`` puts N
pre-forked service processes behind one listening port.  Three pieces:

**Socket strategy.**  The supervisor binds *before* forking.  Where
the platform has ``SO_REUSEPORT`` (Linux, modern BSDs) each worker
gets its own socket bound to the same address and the kernel balances
new connections across the listening set; where it does not, one
parent-bound socket is inherited by every worker and they share an
accept queue.  Either way the parent never listens — only workers
accept — and the chosen strategy is reported in ``/v1/stats`` and the
startup line.

**Shard router.**  Each worker owns a static slice of the request key
space via a :class:`HashRing` over worker indices, keyed on the same
:func:`~repro.mapping.cache.stable_digest` key the
single-flight layer coalesces on.  A worker that accepts a request it
does not own first *peeks* the shared cache (memory LRU, then the
sqlite disk tier every worker shares) — warm work is served locally,
because a cache hit is cheaper than a hop — and only forwards cold
work to the owner over the owner's internal loopback listener.  Thus
identical cold requests land on one worker and coalesce there, while
warm traffic scales with the worker count.  Forwarding is one hop by
construction (internal connections never re-route) and fails *open*:
a dead or draining owner means the accepting worker computes locally
rather than failing the request.

**Supervision.**  The parent process is a supervisor, not a proxy: it
forks workers, respawns crashed ones with exponential backoff, and
answers ``SIGHUP`` with a graceful rolling restart — one slot at a
time, SIGTERM (the worker drains via the PR-7 machinery and exits),
join, fork a replacement, wait for its internal ``/healthz``, then
the next slot — so a config rollout never drops below N-1 serving
workers.

Fleet-wide admission control is the per-worker
:class:`~repro.resilience.AdmissionController` applied at the owning
worker: routed requests deliberately skip the accepting worker's gate
and are judged by the owner's, whose 429 + ``Retry-After`` relays
back unchanged.  ``GET /metrics`` on any worker aggregates every
worker's histograms and counters (:mod:`repro.service.metrics`) into
one fleet-wide view.

The ``fleet.worker`` fault site (:func:`repro.resilience.inject`)
fires as a worker picks up a public request; a chaos rule arming it
kills the worker process mid-service (``os._exit``), which is how the
chaos suite proves crashed-worker respawn and router fall-back keep
the {200, 429, 503} response contract.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import http.client
import json
import logging
import multiprocessing
import os
import signal
import socket
import tempfile
import threading
import time
import warnings

from repro.api import (MappingSession, MapRequest, SessionConfig,
                       SweepRequest, parse_json_body)
from repro.mapping.cache import SCHEMA_VERSION, stable_digest
from repro.resilience import inject
from repro.service.metrics import (BUCKET_BOUNDS_WIRE, merge_counters,
                                   merge_metrics)
from repro.service.server import MappingService

__all__ = ["HashRing", "FleetWorker", "FleetSupervisor"]

logger = logging.getLogger("repro.service.fleet")

#: Virtual nodes per worker on the ring.  Enough that a 4-worker ring
#: is balanced to within a few percent; small enough that building the
#: ring is microseconds.
RING_REPLICAS = 64

#: True on connections arriving at a worker's *internal* loopback
#: listener (forwarded work, peer metrics scrapes, supervisor health
#: probes).  Internal requests are handled locally unconditionally —
#: this is what bounds forwarding to one hop.
_INTERNAL: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_fleet_internal", default=False)


class HashRing:
    """A consistent-hash ring mapping request digests to worker nodes.

    sha256-based and fully deterministic: the same node set always
    yields the same ring, across processes and restarts, so every
    worker computes identical ownership without coordination.  The
    consistent-hashing property bounds rebalancing: removing one of N
    nodes moves only that node's ~1/N share of the key space (keys
    owned by survivors never move), which the unit tests assert.

    >>> ring = HashRing([0, 1, 2, 3])
    >>> ring.owner("a-request-digest") in (0, 1, 2, 3)
    True
    >>> ring.owner("a-request-digest") == ring.owner("a-request-digest")
    True
    """

    def __init__(self, nodes=(), replicas: int = RING_REPLICAS):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: "list[tuple[int, object]]" = []
        self._nodes: "set" = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode("utf-8")).digest()[:8], "big")

    def add(self, node) -> None:
        """Place ``node`` on the ring (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            self._points.append((self._hash(f"{node}#{replica}"), node))
        self._points.sort()

    def remove(self, node) -> None:
        """Take ``node`` off the ring; its keys redistribute."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]

    @property
    def nodes(self) -> tuple:
        return tuple(sorted(self._nodes, key=repr))

    def owner(self, digest: str):
        """The node owning ``digest`` (first point clockwise)."""
        if not self._points:
            raise ValueError("empty hash ring")
        target = self._hash(digest)
        lo, hi = 0, len(self._points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._points[mid][0] < target:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(self._points):
            lo = 0
        return self._points[lo][1]


class FleetWorker(MappingService):
    """One fleet member: a :class:`MappingService` plus the router.

    Extends the base service with (a) an internal loopback listener
    that peers forward cold work to and scrape local metrics from,
    (b) the :meth:`_route` override implementing peek-then-forward
    shard routing, and (c) a fleet-aggregating ``GET /metrics``.

    Parameters beyond the base service's:

    worker_index:
        This worker's slot (also its ring node).
    internal_ports:
        Every worker's internal listener port, indexed by slot — the
        fleet's static membership map, fixed by the supervisor before
        forking.
    internal_socket:
        This worker's pre-bound internal listener socket.
    strategy:
        The supervisor's socket strategy string (``"so_reuseport"`` or
        ``"shared_socket"``), reported in stats.
    """

    #: Seconds an internal forward or metrics scrape may take before
    #: the accepting worker falls back to local handling.  Bounded
    #: separately from request_timeout so a wedged peer cannot pin a
    #: public request for the full request budget.
    FORWARD_TIMEOUT = 30.0
    SCRAPE_TIMEOUT = 5.0

    def __init__(self, *, worker_index: int = 0,
                 internal_ports=(0,), internal_socket=None,
                 strategy: str = "single", **kwargs):
        super().__init__(**kwargs)
        self.worker_index = worker_index
        self.internal_ports = tuple(internal_ports)
        self.strategy = strategy
        self._internal_socket = internal_socket
        self._internal_server: "asyncio.base_events.Server | None" = None
        self.ring = HashRing(range(len(self.internal_ports)))
        self.fleet_counters = {"routed_out": 0, "routed_in": 0,
                               "served_local_owner": 0,
                               "served_local_warm": 0,
                               "forward_fallback": 0}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        if self._internal_socket is not None:
            self._internal_server = await asyncio.start_server(
                self._handle_internal, sock=self._internal_socket)

    async def shutdown(self) -> None:
        if self._internal_server is not None:
            self._internal_server.close()
            await self._internal_server.wait_closed()
            self._internal_server = None
        await super().shutdown()

    async def _handle_internal(self, reader, writer) -> None:
        # Each connection handler runs in its own task (own context
        # copy), so the flag scopes exactly to this request.
        _INTERNAL.set(True)
        await self._handle(reader, writer)

    # -- the shard router ------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes):
        if _INTERNAL.get():
            if method == "POST":             # not health/metrics probes
                self.fleet_counters["routed_in"] += 1
            return None                      # one hop: never re-forward
        try:
            inject("fleet.worker")
        except Exception:
            # The chaos contract for this site is a *crash*, not an
            # error response: the worker dies mid-service, the client
            # sees a severed connection and retries, and the
            # supervisor respawns the slot.
            os._exit(70)
        if method != "POST" or len(self.internal_ports) < 2:
            return None
        try:
            digest, map_key = self._shard_digest(path, body)
        except Exception:
            return None      # malformed request: local dispatch's 4xx
        owner = self.ring.owner(digest)
        if owner == self.worker_index:
            self.fleet_counters["served_local_owner"] += 1
            return None
        loop = asyncio.get_running_loop()
        if map_key is not None:
            # The peek never computes: this worker's LRU, then the
            # shared disk tier any worker writes through to.
            try:
                hit, _source = await loop.run_in_executor(
                    None, self.session.tiers.lookup, map_key)
            except Exception:
                hit = None
            if hit is not None:
                # Warm anywhere is warm here: the peek promoted the
                # entry into the local LRU, so local dispatch is a
                # cache hit and the hop is pure waste.
                self.fleet_counters["served_local_warm"] += 1
                return None
        try:
            status, payload, retry_after = await loop.run_in_executor(
                None, self._forward, owner, method, path, body)
        except Exception as exc:
            logger.warning("forward to worker %d failed (%s); "
                           "handling locally", owner, exc)
            self.fleet_counters["forward_fallback"] += 1
            return None
        if status == 503:
            # A draining or overloaded-to-timeout owner is the
            # router's problem, not the client's: fall back to local
            # computation.  (429 relays — admission is the owner's
            # decision to make.)
            self.fleet_counters["forward_fallback"] += 1
            return None
        self.fleet_counters["routed_out"] += 1
        return status, payload, retry_after

    def _shard_digest(self, path: str, body: bytes):
        """``(digest, map cache key | None)`` for a POST body.

        The digest is over the *same* key the single-flight layer
        uses, so shard ownership and coalescing agree; the map cache
        key (``/v1/map``, ``/v1/pareto``) feeds the warm peek.  Sweep
        keys coalesce but are not themselves cache entries, so sweeps
        return ``None`` and always forward when not owned.
        """
        payload = parse_json_body(body)
        if path in ("/v1/map", "/v1/pareto"):
            request = MapRequest.from_payload(payload)
            key, _block, _library, _platform = self._map_key(request)
            return stable_digest(key), key
        if path == "/v1/sweep":
            request = SweepRequest.from_payload(payload)
            key, _pk, _libs, _blocks = self._sweep_key(request)
            return stable_digest(key), None
        raise ValueError(f"unrouted path {path!r}")

    def _forward(self, owner: int, method: str, path: str, body: bytes):
        """Blocking one-hop relay to ``owner``'s internal listener.

        Runs on the default executor (never the request executor,
        which tests may gate).  The relayed body is re-parsed and
        re-rendered by ``_respond``; canonical JSON makes that a
        byte-identical round trip, which the parity tests pin.
        """
        port = self.internal_ports[owner]
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=self.FORWARD_TIMEOUT)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
            hint = response.getheader("Retry-After")
        finally:
            conn.close()
        retry_after = None
        if hint is not None:
            try:
                retry_after = float(hint)
            except ValueError:
                pass
        return response.status, json.loads(data), retry_after

    # -- observability ---------------------------------------------------
    def _local_metrics(self) -> dict:
        payload = MappingService._get_metrics(self)
        payload["fleet"] = dict(self.fleet_counters)
        return payload

    async def _get_metrics(self):
        """Fleet-wide ``/metrics``: every worker's local snapshot,
        merged.  Internal scrapes answer the local snapshot only —
        the aggregation never recurses.
        """
        if _INTERNAL.get():
            return self._local_metrics()
        loop = asyncio.get_running_loop()
        snapshots = [self._local_metrics()]
        missing = []
        peers = [index for index in range(len(self.internal_ports))
                 if index != self.worker_index]
        results = await asyncio.gather(
            *[loop.run_in_executor(None, self._scrape, index)
              for index in peers], return_exceptions=True)
        for index, result in zip(peers, results):
            if isinstance(result, dict):
                snapshots.append(result)
            else:
                missing.append(index)
        return {"service": {"workers": len(self.internal_ports),
                            "reporting": len(snapshots),
                            "missing_workers": missing,
                            "strategy": self.strategy,
                            "schema_version": SCHEMA_VERSION},
                "bucket_bounds_seconds": list(BUCKET_BOUNDS_WIRE),
                "endpoints": merge_metrics(
                    [s.get("endpoints", {}) for s in snapshots]),
                "requests": sum(s.get("requests", 0) for s in snapshots),
                "errors": sum(s.get("errors", 0) for s in snapshots),
                "admission": merge_counters(
                    [s.get("admission", {}) for s in snapshots]),
                "singleflight": merge_counters(
                    [s.get("singleflight", {}) for s in snapshots]),
                "caches": merge_counters(
                    [s.get("caches", {}) for s in snapshots]),
                "fleet": merge_counters(
                    [s.get("fleet", {}) for s in snapshots])}

    def _scrape(self, index: int) -> dict:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.internal_ports[index],
            timeout=self.SCRAPE_TIMEOUT)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"worker {index} metrics -> "
                               f"{response.status}")
        return json.loads(data)

    def _get_stats(self) -> dict:
        stats = super()._get_stats()
        stats["fleet"] = {"worker_index": self.worker_index,
                          "workers": len(self.internal_ports),
                          "strategy": self.strategy,
                          "counters": dict(self.fleet_counters)}
        return stats


# ----------------------------------------------------------------------
# The supervisor (parent process)
# ----------------------------------------------------------------------
def _worker_main(index, config, public_socket, internal_socket,
                 internal_ports, session, strategy):
    """Forked-child entry point: serve one fleet slot until signalled.

    Runs with everything inherited through fork — the pre-bound
    sockets, the supervisor-warmed session (catalog extraction already
    done), and any active chaos plan (which is how the chaos suite
    arms ``fleet.worker`` in children it never touches directly).
    """
    try:
        asyncio.run(_worker_serve(index, config, public_socket,
                                  internal_socket, internal_ports,
                                  session, strategy))
    except KeyboardInterrupt:
        pass


async def _worker_serve(index, config, public_socket, internal_socket,
                        internal_ports, session, strategy):
    worker = FleetWorker(worker_index=index,
                         internal_ports=internal_ports,
                         internal_socket=internal_socket,
                         listen_socket=public_socket,
                         session=session, strategy=strategy, **config)
    await worker.start()
    logger.info("fleet worker %d serving (pid %d)", index, os.getpid())

    stop = asyncio.Event()
    mode = {"drain": True}
    loop = asyncio.get_running_loop()

    def _stop(drain: bool) -> None:
        mode["drain"] = drain
        stop.set()

    try:
        loop.add_signal_handler(signal.SIGTERM, _stop, True)
        loop.add_signal_handler(signal.SIGINT, _stop, False)
    except NotImplementedError:              # platforms without signal fds
        pass
    try:
        await stop.wait()
    finally:
        if mode["drain"]:
            await worker.drain()
        else:
            await worker.shutdown()


class FleetSupervisor:
    """Bind, fork, watch: the fleet's parent process.

    ``start()`` binds the public socket(s) and one internal loopback
    socket per worker, warms the shared session's catalog once (the
    expensive frontend extraction is paid pre-fork and inherited), and
    forks ``workers`` children.  A monitor thread respawns crashed
    workers with exponential backoff; :meth:`rolling_restart` replaces
    workers one at a time without dropping the port.  The parent never
    listens and never serves.

    When ``cache_dir`` is ``None`` the supervisor creates a private
    shared cache directory (removed on :meth:`stop`), because the
    cross-worker warm path *requires* all workers to share one sqlite
    disk tier.
    """

    def __init__(self, workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, *, cache_dir: "str | None" = None,
                 map_workers: "int | None" = None,
                 request_timeout: float = 300.0,
                 max_inflight: "int | None" = None,
                 retry_after_hint: float = 1.0,
                 drain_grace: float = 30.0,
                 respawn: bool = True,
                 respawn_backoff: float = 0.25,
                 respawn_backoff_cap: float = 5.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.host = host
        self.port = port
        self.strategy = "unbound"
        self.restarts = 0
        self.cache_dir = cache_dir
        self.drain_grace = drain_grace
        self._config = {"map_workers": map_workers,
                        "request_timeout": request_timeout,
                        "max_inflight": max_inflight,
                        "retry_after_hint": retry_after_hint,
                        "drain_grace": drain_grace}
        self._respawn = respawn
        self._respawn_backoff = respawn_backoff
        self._respawn_backoff_cap = respawn_backoff_cap
        self._owns_cache_dir = False
        self._session: "MappingSession | None" = None
        self._public_sockets: "list[socket.socket]" = []
        self._worker_sockets: "list[socket.socket]" = []
        self._internal_sockets: "list[socket.socket]" = []
        self.internal_ports: "tuple[int, ...]" = ()
        self._procs: "list" = [None] * workers
        self._crashes = [0] * workers
        self._lock = threading.Lock()
        self._replacing: "set[int]" = set()
        self._stopping = threading.Event()
        self._monitor_thread: "threading.Thread | None" = None

    # -- socket strategy -------------------------------------------------
    @staticmethod
    def _new_socket(reuseport: bool) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return sock

    def _bind_public(self) -> None:
        """One socket per worker via SO_REUSEPORT, else one shared.

        The parent binds but never listens: with SO_REUSEPORT the
        kernel balances only across *listening* sockets, so a bound
        non-listening parent copy never swallows connections.
        """
        if hasattr(socket, "SO_REUSEPORT"):
            sockets: "list[socket.socket]" = []
            try:
                first = self._new_socket(reuseport=True)
                first.bind((self.host, self.port))
                sockets.append(first)
                bound = first.getsockname()[1]
                for _ in range(self.workers - 1):
                    sock = self._new_socket(reuseport=True)
                    sock.bind((self.host, bound))
                    sockets.append(sock)
            except OSError:
                for sock in sockets:
                    sock.close()
            else:
                self.port = bound
                self.strategy = "so_reuseport"
                self._public_sockets = sockets
                self._worker_sockets = sockets
                return
        shared = self._new_socket(reuseport=False)
        shared.bind((self.host, self.port))
        self.port = shared.getsockname()[1]
        self.strategy = "shared_socket"
        self._public_sockets = [shared]
        self._worker_sockets = [shared] * self.workers

    def _bind_internal(self) -> None:
        ports = []
        for _ in range(self.workers):
            sock = self._new_socket(reuseport=False)
            sock.bind(("127.0.0.1", 0))
            self._internal_sockets.append(sock)
            ports.append(sock.getsockname()[1])
        self.internal_ports = tuple(ports)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Bind, warm, fork all workers, start the crash monitor."""
        if self._monitor_thread is not None or any(self._procs):
            raise RuntimeError("fleet already started")
        if self.cache_dir is None:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-fleet-")
            self._owns_cache_dir = True
        self._session = MappingSession(
            SessionConfig.from_env(cache_dir=self.cache_dir))
        self._session.catalog.blocks()       # pay extraction once, pre-fork
        self._bind_public()
        self._bind_internal()
        for index in range(self.workers):
            self._procs[index] = self._spawn(index)
        if self._respawn:
            self._monitor_thread = threading.Thread(
                target=self._monitor, name="repro-fleet-monitor",
                daemon=True)
            self._monitor_thread.start()
        logger.info("fleet up: %d workers on %s:%d (%s)", self.workers,
                    self.host, self.port, self.strategy)

    def _spawn(self, index: int):
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(index, dict(self._config), self._worker_sockets[index],
                  self._internal_sockets[index], self.internal_ports,
                  self._session, self.strategy),
            name=f"repro-fleet-{index}", daemon=False)
        with warnings.catch_warnings():
            # 3.12 warns on fork-from-thread; the monitor thread's
            # respawn path is deliberate and the children exec nothing.
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        return process

    def _monitor(self) -> None:
        while not self._stopping.is_set():
            for index in range(self.workers):
                if self._stopping.is_set():
                    return
                with self._lock:
                    process = self._procs[index]
                    replacing = index in self._replacing
                if replacing or process is None or process.is_alive():
                    continue
                self._crashes[index] += 1
                delay = min(self._respawn_backoff_cap,
                            self._respawn_backoff
                            * (2 ** (self._crashes[index] - 1)))
                logger.warning(
                    "fleet worker %d died (exit %s); respawn #%d in %.2fs",
                    index, process.exitcode, self._crashes[index], delay)
                if self._stopping.wait(delay):
                    return
                with self._lock:
                    if self._stopping.is_set() or index in self._replacing:
                        continue
                    self._procs[index] = self._spawn(index)
                    self.restarts += 1
            self._stopping.wait(0.05)

    def _wait_ready(self, index: int, deadline: float = 60.0) -> None:
        """Block until worker ``index`` answers its internal /healthz."""
        end = time.monotonic() + deadline
        while True:
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.internal_ports[index], timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() >= end:
                raise TimeoutError(f"fleet worker {index} not ready "
                                   f"after {deadline}s")
            time.sleep(0.05)

    def wait_ready(self, deadline: float = 60.0) -> None:
        """Block until every worker answers its internal /healthz."""
        for index in range(self.workers):
            self._wait_ready(index, deadline)

    # -- rolling restart -------------------------------------------------
    def rolling_restart(self) -> None:
        """The SIGHUP path: drain-and-replace one worker at a time.

        Per slot: SIGTERM (the worker stops accepting, drains
        in-flight work through the PR-7 machinery, exits), join, fork
        a replacement on the *same* inherited sockets, wait for its
        internal ``/healthz``.  The remaining N-1 workers keep serving
        the port throughout, so the fleet never goes dark.
        """
        logger.info("rolling restart: %d workers", self.workers)
        for index in range(self.workers):
            self._replace(index)
        logger.info("rolling restart complete")

    def _replace(self, index: int) -> None:
        with self._lock:
            self._replacing.add(index)
            process = self._procs[index]
        try:
            if process is not None and process.is_alive():
                os.kill(process.pid, signal.SIGTERM)
                process.join(timeout=self.drain_grace + 30.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            with self._lock:
                self._crashes[index] = 0
                self._procs[index] = self._spawn(index)
                self.restarts += 1
            self._wait_ready(index)
        finally:
            with self._lock:
                self._replacing.discard(index)

    # -- stop ------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop every worker (gracefully when ``drain``), close sockets.

        Idempotent.  Escalates SIGTERM -> terminate -> kill so a
        wedged worker cannot hang the supervisor's exit.
        """
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10.0)
            self._monitor_thread = None
        signum = signal.SIGTERM if drain else signal.SIGINT
        with self._lock:
            procs = list(self._procs)
        for process in procs:
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signum)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for process in procs:
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._procs = [None] * self.workers
        for sock in self._public_sockets + self._internal_sockets:
            try:
                sock.close()
            except OSError:
                pass
        self._public_sockets = []
        self._worker_sockets = []
        self._internal_sockets = []
        if self._owns_cache_dir and self.cache_dir is not None:
            import shutil
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
            self._owns_cache_dir = False
        logger.info("fleet stopped")

    def status(self) -> dict:
        """A supervisor's-eye snapshot (pids, liveness, restarts)."""
        with self._lock:
            procs = list(self._procs)
        return {"workers": self.workers,
                "host": self.host, "port": self.port,
                "strategy": self.strategy,
                "internal_ports": list(self.internal_ports),
                "pids": [p.pid if p is not None else None for p in procs],
                "alive": [bool(p is not None and p.is_alive())
                          for p in procs],
                "restarts": self.restarts}

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        self.wait_ready()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stop()
