"""Simulation broker: the one socket server, one worker pool, many clients.

A broker multiplexes one dynamically-sized worker pool across any
number of concurrent clients, either as a long-lived shared service::

    repro broker serve --port 7340 --spawn-workers 4      # the service
    repro compare gzip+twolf --executor broker \\
        --broker 127.0.0.1:7340                           # any client
    python -m repro.harness.remote_worker \\
        --connect 127.0.0.1:7340                          # extra capacity

or as the private fleet of one sweep, which a
:class:`~repro.harness.executors.RemoteExecutor` starts and stops.

Every connection speaks one protocol: length-prefixed frames, a
versioned JSON handshake (token-authenticated via
``$REPRO_REMOTE_TOKEN``; a failed one is answered with ``["reject",
reason]`` and a :class:`RuntimeWarning`), pickle task flow after
authentication.  A connection's ``role`` decides its side:

* **Workers** (role ``worker`` — the default, so existing
  ``remote_worker`` processes join unchanged) serve a pull loop:
  receive ``("tasks", [blob])``, compute, reply ``("progress", ...)`` /
  ``("results", ...)``.  Workers join and leave at any time; a worker
  that dies mid-task has the task re-queued (up to ``max_attempts``).
* **Clients** (role ``client``) submit work and receive routed replies:
  ``("submit", spec)`` is answered by ``("accepted", id)`` or
  ``("rejected", id, reason)``, then eventually ``("progress", id,
  event)`` streams and one ``("result", id, ok, value, source)``.
  ``("status", None)`` returns the broker's counters.

Two submission kinds cover every engine flow:

``"job"``
    A declarative :class:`~repro.harness.engine.SimJob`.  The broker
    checks the content-addressed
    :class:`~repro.harness.results.ResultStore` *before* queueing: a
    warm submission is answered straight from the store
    (``source="store"``) without ever reaching a worker, and a computed
    result is written back so the *next* client's identical submission
    is warm.  Store round-trips are exact (the PR-5 invariant), so a
    store-served result is bitwise-identical to a computed one.
``"task"``
    An opaque pickled ``(func, item)`` pair — the generic escape hatch
    that keeps baselines and checkpoint prefixes flowing through the
    same service.

Queueing is *durable*, *fair* and *bounded* (:class:`FairQueue`):

* every accepted entry is spooled to disk
  (``$REPRO_CACHE_DIR/broker-spool/``) until its result is delivered,
  so a broker restart re-queues unfinished work instead of losing it;
* dispatch picks the highest priority present, breaking ties by
  round-robin over the submitting clients — one greedy client cannot
  starve the rest;
* the queue is bounded (``max_queue``): a submission past the bound is
  *rejected with a clear error* instead of buffering unboundedly.

A thin stdlib-only HTTP facade (``--http-port``) exposes ``POST
/submit``, ``GET /status/<job>`` and ``GET /result/<job>`` for clients
that speak JSON rather than the socket protocol.

The client side of the socket protocol lives in
:class:`~repro.harness.executors.BrokerExecutor` (and its subclass
``RemoteExecutor``) — so ``run_jobs``, ``run_replicated``,
``run_scenario`` and every paper driver work unchanged via
``--executor broker`` or ``remote``.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import os
import pickle
import struct
import sys
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness.remote_worker import (
    MAX_HANDSHAKE_BYTES,
    PROTOCOL_VERSION,
    encode_handshake,
    decode_handshake,
    resolve_timeout,
    spawn_loopback_workers,
    validate_hello,
)
from repro.harness.results import atomic_write, cache_root

_LENGTH_PREFIX = struct.Struct(">I")

#: Default bound on queued-but-undispatched entries; submissions past
#: it are rejected with a clear error (bounded backpressure).
DEFAULT_MAX_QUEUE = 10_000

#: Client key used for submissions with no connected client: HTTP
#: facade jobs, CLI one-shots, and spool entries recovered after a
#: broker restart.  Their results are delivered to the result store
#: (kind ``"job"``) and the detached-job records.
DETACHED_CLIENT = "detached"


class BrokerRejection(RuntimeError):
    """A submission the broker refused (backpressure, bad spec)."""


@dataclass
class QueueEntry:
    """One accepted, not-yet-completed unit of work."""

    job_id: str
    client: str
    kind: str                      # "job" | "task"
    payload: bytes                 # pickled (func, item) for the worker
    priority: int = 0
    seq: int = 0
    attempts: int = 0
    job: Optional[object] = None   # decoded SimJob for kind "job"
    store_kind: str = "result"
    spool_path: Optional[Path] = None


class FairQueue:
    """Bounded priority queue with per-client round-robin fairness.

    ``pop`` always serves the highest priority present in the queue;
    among clients whose best entry has that priority it rotates
    round-robin, so a client that dumps a thousand jobs shares the
    worker pool equally with one that submits a single job at the same
    priority.  Within one client, entries of equal priority run in
    submission order.  Each client's entries form a heap keyed by
    ``(-priority, seq)``, so ``push`` and ``pop`` cost O(log n) in that
    client's backlog: a whole sweep can sit in one client's queue.

    Deliberately synchronous and lock-free: the broker calls it only
    from its event-loop thread, and the fairness tests drive it
    directly.
    """

    def __init__(self, max_pending: int = DEFAULT_MAX_QUEUE) -> None:
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        # client -> heap of (-priority, seq, tiebreak, entry); the
        # tiebreak keeps two entries from ever being compared.
        self._queues: Dict[str, List[tuple]] = {}
        self._order: deque = deque()  # round-robin cursor over clients
        self._tiebreak = itertools.count()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.max_pending

    def push(self, entry: QueueEntry, requeue: bool = False) -> None:
        """Queue one entry; raises :class:`BrokerRejection` when full.

        Re-queueing after a worker death (``requeue=True``, also used
        for spool recovery) takes the same path but bypasses the bound
        — the entry was already admitted once and must never be lost to
        backpressure.  It keeps its original ``seq``, so it re-enters
        ahead of work submitted after it.
        """
        if not requeue and self.full:
            raise BrokerRejection(
                f"broker queue is full ({self._size} of "
                f"{self.max_pending} entries pending); retry once the "
                "backlog drains or raise --max-queue on the broker")
        pending = self._queues.get(entry.client)
        if pending is None:
            pending = self._queues[entry.client] = []
            self._order.append(entry.client)
        heapq.heappush(pending, (-entry.priority, entry.seq,
                                 next(self._tiebreak), entry))
        self._size += 1

    def pop(self) -> Optional[QueueEntry]:
        """The next entry to dispatch, or None when empty."""
        if not self._size:
            return None
        best = min(queue[0][0] for queue in self._queues.values())
        for _ in range(len(self._order)):
            client = self._order[0]
            self._order.rotate(-1)
            pending = self._queues[client]
            if pending[0][0] != best:
                continue
            entry = heapq.heappop(pending)[-1]
            self._size -= 1
            if not pending:
                del self._queues[client]
                self._order.remove(client)
            return entry
        return None  # pragma: no cover - sizes and queues agree

    def drop_client(self, client: str, keep=None) -> List[QueueEntry]:
        """Remove (and return) a disconnected client's queued entries.

        ``keep`` is an optional predicate: entries it accepts stay
        queued (the broker keeps ``"job"`` entries — their results are
        still useful in the result store — and drops opaque tasks
        nobody can receive).
        """
        pending = self._queues.get(client)
        if pending is None:
            return []
        kept, dropped = [], []
        for item in sorted(pending):  # queue order; sorted is a heap
            if keep is not None and keep(item[-1]):
                kept.append(item)
            else:
                dropped.append(item[-1])
        self._size -= len(dropped)
        if kept:
            self._queues[client] = kept
        else:
            del self._queues[client]
            self._order.remove(client)
        return dropped


def job_from_spec(spec: dict):
    """Build a :class:`~repro.harness.engine.SimJob` from a JSON spec.

    The HTTP facade's submission schema: ``benchmarks`` (list, required)
    plus the optional ``policy``, ``cycles``, ``warmup``, ``seed``,
    ``interval_cycles`` — the same knobs the CLI exposes.  Raises
    ``ValueError`` on anything malformed, which the facade reports as a
    400 instead of queueing garbage.
    """
    from repro.harness.engine import SimJob
    from repro.harness.warmup import parse_warmup_spec

    if not isinstance(spec, dict):
        raise ValueError("submission body must be a JSON object")
    benchmarks = spec.get("benchmarks")
    if isinstance(benchmarks, str):
        benchmarks = [part for part in benchmarks.split("+") if part]
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ValueError("'benchmarks' must be a non-empty list "
                         "(or 'a+b' string)")
    allowed = {"benchmarks", "policy", "cycles", "warmup", "seed",
               "interval_cycles", "priority"}
    unknown = set(spec) - allowed
    if unknown:
        raise ValueError(f"unknown submission field(s): {sorted(unknown)}")
    warmup = spec.get("warmup", 3_000)
    if isinstance(warmup, str):
        warmup = parse_warmup_spec(warmup)
    policy = spec.get("policy", "ICOUNT")
    if isinstance(policy, list):  # JSON spelling of (name, kwargs)
        policy = (policy[0], dict(policy[1]))
    return SimJob(tuple(benchmarks), policy, None,
                  int(spec.get("cycles", 15_000)), warmup,
                  int(spec.get("seed", 1)),
                  interval_cycles=spec.get("interval_cycles"))


def parse_broker_address(value: str) -> Tuple[str, int]:
    """``HOST:PORT`` of a running broker; raises ValueError on junk."""
    host, _, port = str(value).rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(
            f"expected a broker address HOST:PORT, got {value!r}")
    return host, int(port)


def default_spool_dir() -> Path:
    """Spool directory for the durable queue (honours REPRO_CACHE_DIR)."""
    return cache_root() / "broker-spool"


class Broker:
    """The persistent simulation service (see the module docstring).

    Run it either as the foreground process of ``repro broker serve``
    (:meth:`serve_forever`) or as a background thread inside a test or
    driver process (:meth:`start` / :meth:`stop`, or the context
    manager).  All state mutation happens on the asyncio event-loop
    thread; the HTTP facade and :meth:`status` hop onto the loop via
    ``run_coroutine_threadsafe``.

    Args:
        host/port: listening address (port 0 picks a free port; the
            bound address is in :attr:`address` once serving).
        http_port: also serve the JSON HTTP facade on this port
            (0 picks a free port, None disables it).
        spawn_workers: loopback worker processes to start against the
            broker's own address — the same cold-start path external
            workers use.  More workers can always connect later.
        max_queue: bound on queued entries; submissions past it are
            rejected (clear error, never unbounded buffering).
        max_attempts: dispatch attempts per entry before a
            worker-channel failure is reported to the client.
        handshake_timeout: seconds a connection gets to complete the
            JSON handshake (default: ``$REPRO_REMOTE_HANDSHAKE_TIMEOUT``
            or 10).
        spool_dir: directory for the durable queue (default
            ``$REPRO_CACHE_DIR/broker-spool/``); ``durable=False``
            disables spooling entirely.
        store: the :class:`~repro.harness.results.ResultStore` serving
            warm submissions (default: the process-wide instance).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 http_port: Optional[int] = None, spawn_workers: int = 0,
                 max_queue: int = DEFAULT_MAX_QUEUE, max_attempts: int = 3,
                 handshake_timeout: Optional[float] = None,
                 spool_dir=None, durable: bool = True,
                 store=None, verbose: bool = False) -> None:
        from repro.harness.results import resolve_store

        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._host = host
        self._port = port
        self._http_port = http_port
        self._spawn_workers = spawn_workers
        self.max_attempts = max_attempts
        self.handshake_timeout = resolve_timeout(
            handshake_timeout, "REPRO_REMOTE_HANDSHAKE_TIMEOUT", 10.0,
            "handshake timeout")
        self.durable = durable
        self.spool_dir = Path(spool_dir) if spool_dir else default_spool_dir()
        self.verbose = verbose
        self._store = resolve_store(store)
        self.queue = FairQueue(max_queue)
        self.address: Optional[Tuple[str, int]] = None
        self.http_address: Optional[Tuple[str, int]] = None
        self.stats: Dict[str, int] = {
            key: 0 for key in (
                "submitted", "rejected", "store_hits", "dispatched",
                "requeued", "completed", "failed", "dropped", "recovered",
                "workers_joined", "workers_left", "clients_joined",
                "clients_left")}
        self._workers = 0
        self._clients: Dict[str, "_ClientChannel"] = {}
        self._running: Dict[str, QueueEntry] = {}  # job_id -> in flight
        self._detached_jobs: Dict[str, dict] = {}
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        self._client_ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._cond: Optional[asyncio.Condition] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._shutting_down = False
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._http_server = None
        self._processes: List = []

    # -- lifecycle --------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the broker on the calling thread until SIGINT/SIGTERM."""
        import signal

        def _request_stop(signum, frame) -> None:
            if self._loop is not None and self._stop_event is not None:
                self._loop.call_soon_threadsafe(self._stop_event.set)

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _request_stop)
        try:
            asyncio.run(self._main())
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self._reap_workers()

    def start(self) -> "Broker":
        """Serve from a background thread; returns once the address is
        bound (or re-raises the startup failure)."""
        self._thread = threading.Thread(
            target=self._thread_main, name="broker-loop", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported to start()
            self._startup_error = error
            self._ready.set()

    def stop(self) -> None:
        """Shut the broker down and reap any spawned workers."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self._reap_workers()

    def __enter__(self) -> "Broker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _reap_workers(self) -> None:
        for process in self._processes:
            try:
                process.wait(timeout=10.0)
            except Exception:  # noqa: BLE001 - still running
                process.terminate()
            path = getattr(process, "stderr_path", None)
            if path:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        self._processes = []

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[broker] {message}", file=sys.stderr, flush=True)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._cond = asyncio.Condition()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port)
        self.address = server.sockets[0].getsockname()[:2]
        self._recover_spool()
        if self._http_port is not None:
            self._start_http()
        if self._spawn_workers:
            self._processes = spawn_loopback_workers(
                self.address, self._spawn_workers)
        self._log(f"listening on {self.address[0]}:{self.address[1]}"
                  + (f", HTTP facade on "
                     f"{self.http_address[0]}:{self.http_address[1]}"
                     if self.http_address else ""))
        self._ready.set()
        await self._stop_event.wait()
        self._log("shutting down")
        async with self._cond:
            self._shutting_down = True
            self._cond.notify_all()
        server.close()
        await server.wait_closed()
        if self._http_server is not None:
            await asyncio.to_thread(self._http_server.shutdown)
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- framing ----------------------------------------------------------

    @staticmethod
    async def _recv(reader: asyncio.StreamReader,
                    max_size: Optional[int] = None) -> bytes:
        header = await reader.readexactly(_LENGTH_PREFIX.size)
        (length,) = _LENGTH_PREFIX.unpack(header)
        if max_size is not None and length > max_size:
            raise ValueError(
                f"message of {length} bytes exceeds the {max_size}-byte "
                "handshake limit")
        return await reader.readexactly(length)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(_LENGTH_PREFIX.pack(len(payload)) + payload)
        await writer.drain()

    # -- handshake and connection dispatch --------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            try:
                hello = decode_handshake(await asyncio.wait_for(
                    self._recv(reader, max_size=MAX_HANDSHAKE_BYTES),
                    timeout=self.handshake_timeout))
            except Exception as error:  # noqa: BLE001 - junk or timeout
                await self._reject(
                    writer, f"no valid handshake received within "
                    f"{self.handshake_timeout:.0f}s ({error}; peer "
                    f"predates protocol v{PROTOCOL_VERSION}?)")
                return
            role, reason = validate_hello(hello)
            if reason is not None:
                await self._reject(writer, reason)
                return
            try:
                await self._send(writer, encode_handshake(
                    ["welcome", {"version": PROTOCOL_VERSION}]))
            except (ConnectionError, OSError):
                return
            if role == "client":
                await self._serve_client(reader, writer)
            else:
                await self._serve_worker(reader, writer)
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _reject(self, writer: asyncio.StreamWriter,
                      reason: str) -> None:
        """Answer a failed handshake with a clean, explained rejection."""
        warnings.warn(f"broker rejected a connection: {reason}",
                      RuntimeWarning, stacklevel=2)
        try:
            await self._send(writer, encode_handshake(["reject", reason]))
        except (ConnectionError, OSError):
            pass

    # -- worker side ------------------------------------------------------

    async def _next_entry(self) -> Optional[QueueEntry]:
        """Block until an entry is dispatchable; None means shut down."""
        async with self._cond:
            while True:
                if self._shutting_down:
                    return None
                entry = self.queue.pop()
                if entry is not None:
                    if self._entry_live(entry):
                        return entry
                    self._discard(entry)
                    continue
                await self._cond.wait()

    def _entry_live(self, entry: QueueEntry) -> bool:
        """Whether anything can still consume this entry's result.

        Detached ``"job"`` entries are always live (their results feed
        the result store); an opaque ``"task"`` whose client has left
        would compute into the void.
        """
        if entry.kind == "job":
            return True
        if entry.client == DETACHED_CLIENT:
            return True
        channel = self._clients.get(entry.client)
        return channel is not None and not channel.closed

    def _discard(self, entry: QueueEntry) -> None:
        self.stats["dropped"] += 1
        self._unspool(entry)

    async def _serve_worker(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self._workers += 1
        self.stats["workers_joined"] += 1
        self._log(f"worker joined ({self._workers} active)")
        try:
            while True:
                entry = await self._next_entry()
                if entry is None:
                    try:
                        await self._send(
                            writer, pickle.dumps(("shutdown", None)))
                    except (ConnectionError, OSError):
                        pass
                    return
                entry.attempts += 1
                self._running[entry.job_id] = entry
                self._mark_detached(entry, "running")
                delivered = False
                try:
                    await self._send(writer, pickle.dumps(
                        ("tasks", [entry.payload])))
                    self.stats["dispatched"] += 1
                    while True:
                        reply = pickle.loads(await self._recv(reader))
                        delivered = True
                        kind = reply[0]
                        if kind == "progress":
                            await self._route_progress(entry, reply[2])
                            continue
                        if kind != "results":
                            raise RuntimeError(
                                f"unexpected worker reply {kind!r}")
                        outcomes = reply[1]
                        break
                except Exception as error:  # noqa: BLE001 - channel death
                    await self._worker_failed(entry, delivered, error)
                    return
                ok, value = outcomes[0]
                await self._finish(entry, ok, value, "worker")
        finally:
            self._workers -= 1
            self.stats["workers_left"] += 1
            self._log(f"worker left ({self._workers} active)")

    async def _worker_failed(self, entry: QueueEntry, delivered: bool,
                             error: Exception) -> None:
        """Requeue (or fail) the in-flight entry of a dead worker.

        A send that never reached the worker does not burn an attempt —
        only a connection that died while (or after) computing does, so
        workers leaving gracefully between tasks can never exhaust an
        entry's attempt budget.
        """
        self._running.pop(entry.job_id, None)
        if not delivered:
            entry.attempts -= 1
            self.stats["dispatched"] -= 1
        if entry.attempts >= self.max_attempts:
            await self._finish(
                entry, False,
                f"worker connection lost after {entry.attempts} "
                f"attempt(s): {error}", "worker")
            return
        self.stats["requeued"] += 1
        self._mark_detached(entry, "queued")
        async with self._cond:
            self.queue.push(entry, requeue=True)
            self._cond.notify()

    async def _finish(self, entry: QueueEntry, ok: bool, value,
                      source: str) -> None:
        self._running.pop(entry.job_id, None)
        self._unspool(entry)
        self.stats["completed" if ok else "failed"] += 1
        if ok and entry.kind == "job" and entry.job is not None:
            try:
                self._store.put(entry.job, value, entry.store_kind)
            except Exception:  # noqa: BLE001 - the store is best-effort
                pass
        self._record_detached(entry, ok, value, source)
        channel = self._clients.get(entry.client)
        if channel is not None and not channel.closed:
            channel.send(("result", entry.job_id, ok, value, source))

    async def _route_progress(self, entry: QueueEntry, event) -> None:
        channel = self._clients.get(entry.client)
        if channel is not None and not channel.closed:
            channel.send(("progress", entry.job_id, event))

    # -- client side ------------------------------------------------------

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        key = f"c{next(self._client_ids)}"
        channel = _ClientChannel(key)
        self._clients[key] = channel
        self.stats["clients_joined"] += 1
        sender = asyncio.create_task(channel.pump(writer, self._send))
        try:
            while True:
                try:
                    message = pickle.loads(await self._recv(reader))
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    return
                kind = message[0]
                if kind == "submit":
                    await self._handle_submit(channel, message[1])
                elif kind == "status":
                    channel.send(("status", self.status()))
                elif kind == "bye":
                    return
                else:
                    channel.send(("error", f"unknown message {kind!r}"))
        finally:
            channel.closed = True
            self.stats["clients_left"] += 1
            async with self._cond:
                # Opaque tasks nobody can receive are dropped; "job"
                # entries stay queued — their results warm the store.
                for entry in self.queue.drop_client(
                        key, keep=lambda e: e.kind == "job"):
                    self._discard(entry)
            sender.cancel()
            try:
                await sender
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            self._clients.pop(key, None)

    async def _handle_submit(self, channel: "_ClientChannel",
                             spec: dict) -> None:
        submission_id = spec.get("id")
        try:
            record = await self._admit(
                client=channel.key, kind=spec.get("kind", "task"),
                job=spec.get("job"), payload=spec.get("payload"),
                priority=int(spec.get("priority", 0)),
                store_kind=spec.get("store_kind", "result"),
                job_id=submission_id)
        except BrokerRejection as error:
            channel.send(("rejected", submission_id, str(error)))
            return
        if record is not None:  # answered from the result store
            channel.send(("result", submission_id, True, record, "store"))
            return
        channel.send(("accepted", submission_id))

    async def _admit(self, client: str, kind: str, job, payload,
                     priority: int, store_kind: str = "result",
                     job_id: Optional[str] = None,
                     spool_path: Optional[Path] = None):
        """Admit one submission: store answer, queue entry, or reject.

        Returns the stored payload when the submission is warm (the
        caller delivers it with ``source="store"``), or None when an
        entry was queued.  Raises :class:`BrokerRejection` on
        backpressure or a malformed spec.
        """
        self.stats["submitted"] += 1
        if kind not in ("job", "task"):
            self.stats["rejected"] += 1
            raise BrokerRejection(f"unknown submission kind {kind!r}")
        if kind == "job":
            if job is None:
                self.stats["rejected"] += 1
                raise BrokerRejection("kind 'job' needs a SimJob")
            try:
                cached = self._store.get(job, store_kind)
            except (ValueError, TypeError, AttributeError) as error:
                # A malformed job or unknown payload kind must reject
                # the submission, never kill the connection handler.
                self.stats["rejected"] += 1
                raise BrokerRejection(f"bad job submission: {error}") \
                    from None
            if cached is not None:
                self.stats["store_hits"] += 1
                return cached
            from repro.harness.engine import run_job

            payload = pickle.dumps((run_job, job))
        elif not isinstance(payload, bytes):
            self.stats["rejected"] += 1
            raise BrokerRejection("kind 'task' needs a pickled payload")
        if self.queue.full:
            self.stats["rejected"] += 1
            raise BrokerRejection(
                f"broker queue is full ({len(self.queue)} of "
                f"{self.queue.max_pending} entries pending); retry once "
                "the backlog drains or raise --max-queue on the broker")
        entry = QueueEntry(
            job_id=job_id or f"j{next(self._job_ids)}", client=client,
            kind=kind, payload=payload, priority=priority,
            seq=next(self._seq), job=job, store_kind=store_kind,
            spool_path=spool_path)
        if entry.spool_path is None:
            self._spool(entry)
        async with self._cond:
            self.queue.push(entry)
            self._cond.notify()
        return None

    # -- detached jobs (HTTP facade, CLI submit, spool recovery) ----------

    async def submit_detached(self, job, priority: int = 0) -> dict:
        """Submit one SimJob with no connected client (facade path).

        Returns the job's record: ``state`` is ``"done"`` immediately on
        a store hit, else ``"queued"`` — poll :meth:`job_record` (or the
        HTTP ``/status/<id>``) for completion.
        """
        job_id = f"d{next(self._job_ids)}"
        record = {"job": job_id, "state": "queued", "result": None,
                  "error": None, "source": None,
                  "token": _job_token_of(job)}
        self._detached_jobs[job_id] = record
        try:
            cached = await self._admit(DETACHED_CLIENT, "job", job, None,
                                       priority, job_id=job_id)
        except BrokerRejection as error:
            record.update(state="rejected", error=str(error))
            return dict(record)
        if cached is not None:
            # result before state: the HTTP thread polls state and must
            # never observe "done" with the result still unset.
            record.update(result=cached, source="store", state="done")
        return dict(record)

    def _mark_detached(self, entry: QueueEntry, state: str) -> None:
        record = self._detached_jobs.get(entry.job_id)
        if record is not None:
            record["state"] = state

    def _record_detached(self, entry: QueueEntry, ok: bool, value,
                         source: str) -> None:
        record = self._detached_jobs.get(entry.job_id)
        if record is None:
            return
        if ok:  # result before state — see submit_detached
            record.update(result=value, source=source, state="done")
        else:
            record.update(error=str(value), source=source, state="failed")

    def job_record(self, job_id: str) -> Optional[dict]:
        """Snapshot of one detached job's record (None when unknown)."""
        record = self._detached_jobs.get(job_id)
        return dict(record) if record is not None else None

    # -- durable spool ----------------------------------------------------

    def _spool(self, entry: QueueEntry) -> None:
        if not self.durable:
            return
        try:
            path = self.spool_dir / f"{entry.seq:010d}-{entry.job_id}.pkl"
            atomic_write(path, pickle.dumps({
                "job_id": entry.job_id, "kind": entry.kind,
                "payload": entry.payload, "priority": entry.priority,
                "job": entry.job, "store_kind": entry.store_kind}))
            entry.spool_path = path
        except OSError:
            entry.spool_path = None  # durability is best-effort

    def _unspool(self, entry: QueueEntry) -> None:
        if entry.spool_path is not None:
            try:
                os.unlink(entry.spool_path)
            except OSError:
                pass
            entry.spool_path = None

    def _recover_spool(self) -> None:
        """Re-queue unfinished entries a previous broker left behind.

        Recovered entries run as detached submissions: ``"job"``
        results land in the result store (so the original submitter's
        warm retry hits), opaque ``"task"`` entries simply re-execute
        (their useful side effects — baseline and checkpoint writes —
        happen on the workers' shared disk caches).  A recovered job
        whose result arrived in the store in the meantime is dropped.
        """
        if not self.durable:
            return
        try:
            paths = sorted(self.spool_dir.glob("*.pkl"))
        except OSError:
            return
        for path in paths:
            try:
                record = pickle.loads(path.read_bytes())
            except Exception:  # noqa: BLE001 - corrupt spool entry
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            job = record.get("job")
            if record.get("kind") == "job" and job is not None and \
                    self._store.get(job, record.get("store_kind",
                                                    "result")) is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            entry = QueueEntry(
                job_id=record["job_id"], client=DETACHED_CLIENT,
                kind=record["kind"], payload=record["payload"],
                priority=record.get("priority", 0), seq=next(self._seq),
                job=job, store_kind=record.get("store_kind", "result"),
                spool_path=path)
            self._detached_jobs[entry.job_id] = {
                "job": entry.job_id, "state": "queued", "result": None,
                "error": None, "source": None,
                "token": _job_token_of(job) if job is not None else None}
            self.queue.push(entry, requeue=True)
            self.stats["recovered"] += 1
        if self.stats["recovered"]:
            self._log(f"recovered {self.stats['recovered']} spooled "
                      "entry(ies) from a previous run")

    # -- introspection ----------------------------------------------------

    def status(self) -> dict:
        """Counters + live gauges, safe to call from any thread."""
        return {
            "address": list(self.address) if self.address else None,
            "http": list(self.http_address) if self.http_address else None,
            "workers": self._workers,
            "clients": len(self._clients),
            "queued": len(self.queue),
            "running": len(self._running),
            "stats": dict(self.stats),
        }

    # -- HTTP facade ------------------------------------------------------

    def _start_http(self) -> None:
        from http.server import ThreadingHTTPServer

        server = ThreadingHTTPServer(
            (self._host, self._http_port), _FacadeHandler)
        server.broker = self
        server.daemon_threads = True
        self._http_server = server
        self.http_address = server.server_address[:2]
        threading.Thread(target=server.serve_forever, name="broker-http",
                         daemon=True).start()


def _job_token_of(job) -> Optional[str]:
    from repro.harness.results import job_token

    try:
        return job_token(job)
    except Exception:  # noqa: BLE001 - diagnostics only
        return None


class _ClientChannel:
    """Outbound message queue + sender for one connected client.

    Worker loops and the submit handler all deliver to one client;
    funnelling their messages through a queue serialises the writes so
    frames never interleave.
    """

    def __init__(self, key: str) -> None:
        self.key = key
        self.closed = False
        self._outbox: asyncio.Queue = asyncio.Queue()

    def send(self, message) -> None:
        self._outbox.put_nowait(message)

    async def pump(self, writer: asyncio.StreamWriter, send) -> None:
        while True:
            message = await self._outbox.get()
            try:
                await send(writer, pickle.dumps(message))
            except (ConnectionError, OSError):
                self.closed = True
                return


class _FacadeHandler:
    """HTTP facade handler — defined lazily to keep imports cheap."""

    def __new__(cls, *args, **kwargs):  # pragma: no cover - thin shim
        return _make_facade_handler()(*args, **kwargs)


_FACADE_HANDLER_CLASS = None


def _make_facade_handler():
    global _FACADE_HANDLER_CLASS
    if _FACADE_HANDLER_CLASS is not None:
        return _FACADE_HANDLER_CLASS
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        """``POST /submit``, ``GET /status[/<job>]``, ``GET /result/<job>``.

        Stdlib-only by design: any HTTP client (curl, a notebook, a
        dashboard) can drive the broker without speaking the socket
        protocol.  Results come back as the result store's exact JSON
        payload encoding.
        """

        server_version = "repro-broker/1"
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            if self.server.broker.verbose:
                sys.stderr.write("[broker-http] " + format % args + "\n")

        def _reply(self, code: int, payload: dict) -> None:
            body = json.dumps(payload, indent=2).encode() + b"\n"
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _on_loop(self, coro_or_func, *args, timeout: float = 30.0):
            broker = self.server.broker
            if asyncio.iscoroutinefunction(coro_or_func):
                future = asyncio.run_coroutine_threadsafe(
                    coro_or_func(*args), broker._loop)
                return future.result(timeout=timeout)
            return coro_or_func(*args)

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            broker = self.server.broker
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["status"]:
                self._reply(200, broker.status())
                return
            if len(parts) == 2 and parts[0] in ("status", "result"):
                record = broker.job_record(parts[1])
                if record is None:
                    self._reply(404, {"error": f"unknown job {parts[1]!r}"})
                    return
                if parts[0] == "status":
                    self._reply(200, _public_record(record))
                    return
                if record["state"] == "done":
                    from repro.harness.results import result_to_payload

                    self._reply(200, {
                        "job": record["job"], "source": record["source"],
                        "result": result_to_payload(record["result"])})
                elif record["state"] == "failed":
                    self._reply(500, {"job": record["job"],
                                      "error": record["error"]})
                else:
                    self._reply(202, _public_record(record))
                return
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            broker = self.server.broker
            if self.path.split("?")[0].rstrip("/") != "/submit":
                self._reply(404, {"error": f"no such endpoint {self.path!r}"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                spec = json.loads(self.rfile.read(length) or b"{}")
                job = job_from_spec(spec)
            except (ValueError, KeyError) as error:
                self._reply(400, {"error": str(error)})
                return
            record = self._on_loop(broker.submit_detached, job,
                                   int(spec.get("priority", 0)))
            if record["state"] == "rejected":
                self._reply(429, _public_record(record))
                return
            self._reply(200, _public_record(record))

    def _public_record(record: dict) -> dict:
        """The JSON-safe view of a job record (result via /result)."""
        return {key: record[key]
                for key in ("job", "state", "source", "error", "token")}

    _FACADE_HANDLER_CLASS = Handler
    return Handler


# --------------------------------------------------------------------------
# Synchronous client plumbing (used by BrokerExecutor and the CLI)
# --------------------------------------------------------------------------

class BrokerClient:
    """Blocking socket client for the broker's ``client`` role.

    The transport under :class:`~repro.harness.executors.BrokerExecutor`
    and the ``repro broker submit|status`` commands: one authenticated
    connection, a background reader thread routing replies, and
    thread-safe submission — several executor ``map`` calls can share
    one client.  :attr:`last_frame` is when it last received anything.
    """

    def __init__(self, address, handshake_timeout: Optional[float] = None,
                 timeout: Optional[float] = None) -> None:
        import socket as socket_module

        from repro.harness.remote_worker import perform_client_handshake

        if isinstance(address, str):
            address = parse_broker_address(address)
        self.address = tuple(address)
        self.timeout = resolve_timeout(
            timeout, "REPRO_BROKER_TIMEOUT", 600.0, "broker timeout")
        self.handshake_timeout = resolve_timeout(
            handshake_timeout, "REPRO_REMOTE_HANDSHAKE_TIMEOUT", 10.0,
            "handshake timeout")
        self._sock = socket_module.create_connection(
            self.address, timeout=self.handshake_timeout)
        self.welcome = perform_client_handshake(self._sock, role="client")
        self._sock.settimeout(None)
        self.last_frame = time.monotonic()
        self._send_lock = threading.Lock()
        self._route_lock = threading.Lock()
        self._routes: Dict[str, "queue.Queue"] = {}
        self._status_waiters: "queue.Queue" = _queue_module().Queue()
        self._closed = False
        self._dead: Optional[str] = None
        self._reader = threading.Thread(target=self._read_loop,
                                        name="broker-client-reader",
                                        daemon=True)
        self._reader.start()

    # Reader: every inbound frame is routed by its submission id.
    def _read_loop(self) -> None:
        from repro.harness.remote_worker import recv_message

        try:
            while True:
                message = pickle.loads(recv_message(self._sock))
                self.last_frame = time.monotonic()
                kind = message[0]
                if kind == "status":
                    self._status_waiters.put(message[1])
                    continue
                if kind in ("accepted",):
                    continue  # bookkeeping only; results are what matter
                if kind in ("result", "rejected", "progress"):
                    with self._route_lock:
                        route = self._routes.get(message[1])
                    if route is not None:
                        route.put(message)
        except Exception as error:  # noqa: BLE001 - connection death
            self._dead = str(error)
            with self._route_lock:
                routes = set(self._routes.values())
            for route in routes:
                route.put(("connection-lost", None, self._dead))
            self._status_waiters.put(None)

    def open_route(self, *submission_ids: str) -> "queue.Queue":
        """One queue receiving the replies to every given submission."""
        route = _queue_module().Queue()
        with self._route_lock:
            for submission_id in submission_ids:
                self._routes[submission_id] = route
        return route

    def close_route(self, *submission_ids: str) -> None:
        with self._route_lock:
            for submission_id in submission_ids:
                self._routes.pop(submission_id, None)

    def _send(self, message) -> None:
        from repro.harness.remote_worker import send_message

        if self._closed:
            raise RuntimeError("broker client is closed")
        if self._dead is not None:
            raise RuntimeError(
                f"broker connection to {self.address[0]}:{self.address[1]} "
                f"lost: {self._dead}")
        with self._send_lock:
            send_message(self._sock, pickle.dumps(message))

    def submit(self, submission_id: str, kind: str, job=None, payload=None,
               priority: int = 0, store_kind: str = "result") -> None:
        """Fire one submission; replies arrive on its opened route."""
        self._send(("submit", {
            "id": submission_id, "kind": kind, "job": job,
            "payload": payload, "priority": priority,
            "store_kind": store_kind}))

    def status(self, timeout: float = 30.0) -> dict:
        """The broker's live counters (see :meth:`Broker.status`)."""
        self._send(("status", None))
        reply = self._status_waiters.get(timeout=timeout)
        if reply is None:
            raise RuntimeError(
                f"broker connection lost while waiting for status: "
                f"{self._dead}")
        return reply

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            with self._send_lock:
                from repro.harness.remote_worker import send_message

                send_message(self._sock, pickle.dumps(("bye", None)))
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "BrokerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _queue_module():
    import queue

    return queue
