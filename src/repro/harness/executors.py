"""Pluggable execution backends for the experiment engine.

The engine (:mod:`repro.harness.engine`) describes a sweep as a list of
independent, deterministic, picklable work items.  *Where* those items
run is this module's job: an :class:`Executor` maps a top-level function
over items and reports ``(index, result)`` pairs as they complete, and
four interchangeable backends implement that contract:

:class:`SerialExecutor`
    In-process loop.  The reference semantics every other backend must
    reproduce bitwise.

:class:`ProcessExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor` on the local
    machine (the engine's historical behaviour).  Degrades to serial
    execution with a warning when the host cannot fork processes.

:class:`RemoteExecutor`
    Ships pickled tasks to worker processes over a length-prefixed TCP
    socket protocol (:mod:`repro.harness.remote_worker`).  By default it
    spawns loopback workers on this machine; pointing external workers
    (``python -m repro.harness.remote_worker --connect HOST:PORT``) at
    its listening address distributes the same sweep across machines.

:class:`BrokerExecutor`
    Inverts the ownership: instead of building a private fleet it
    connects as a *client* of a persistent
    :class:`~repro.harness.broker.Broker` service (``repro broker
    serve``) whose shared worker pool is multiplexed across many
    concurrent submitters.  Declarative ``SimJob`` submissions may be
    answered straight from the broker-side result store without any
    simulation running.

Because every work item is pure — the result depends only on the item,
never on scheduling — :meth:`Executor.map` is bitwise-identical across
backends and worker counts; only completion *order* (the streaming view
exposed by :meth:`Executor.map_unordered`) differs.  Executors are
reusable across calls and thread-safe, so one instance can serve several
concurrent sweeps (``scripts/run_all_experiments.py`` streams every
artefact through a single shared backend).
"""

from __future__ import annotations

import abc
import itertools
import pickle
import queue
import socket
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.harness.progress import guard_progress, set_progress_sink
from repro.harness.remote_worker import (
    MAX_HANDSHAKE_BYTES,
    PROTOCOL_VERSION,
    decode_handshake,
    encode_handshake,
    recv_message,
    resolve_timeout,
    send_message,
    spawn_loopback_workers,
    validate_hello,
)

#: Names accepted by :func:`make_executor` (and the ``--executor`` CLI
#: flags).  ``auto`` picks serial for one worker, processes otherwise;
#: ``broker`` submits to a persistent :mod:`repro.harness.broker`
#: service instead of owning a fleet.
EXECUTOR_NAMES: Tuple[str, ...] = (
    "auto", "serial", "process", "remote", "broker")

#: Cap on the adaptive remote batch size: large enough to amortise a
#: round-trip over many small tasks, small enough that one slow worker
#: cannot hoard a meaningful share of a sweep.
DEFAULT_MAX_BATCH = 8


class Executor(abc.ABC):
    """Maps a picklable top-level function over items, any machine(s).

    Subclasses implement :meth:`map_unordered`; ordered :meth:`map` is
    derived from it.  Instances are context managers: leaving the
    ``with`` block releases pools, sockets and worker processes.

    Every backend also carries a *progress channel*: events published to
    the worker-side progress sink (:mod:`repro.harness.progress`) while
    an item computes are routed back to the caller's ``progress``
    callback as ``(index, event)`` — directly in-process, over a manager
    queue for process pools, interleaved on the task socket for remote
    workers.  Progress is best-effort telemetry: it never influences
    results, and events may arrive from backend threads.
    """

    name: str = "executor"

    @abc.abstractmethod
    def map_unordered(self, func: Callable, items: Sequence,
                      progress=None) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, func(items[index]))`` in completion order.

        Every index appears exactly once; an exception raised by
        ``func`` propagates to the consumer.  ``progress`` receives
        ``(index, event)`` for every worker-side progress event.
        """

    def map(self, func: Callable, items: Sequence, progress=None) -> List:
        """``[func(item) for item in items]``, computed on the backend.

        Results are reassembled in index order, so the output is
        bitwise-identical across backends for pure functions.
        """
        items = list(items)
        results: List = [None] * len(items)
        for index, result in self.map_unordered(func, items,
                                                progress=progress):
            results[index] = result
        return results

    def warm_up(self) -> None:
        """Start any backend worker processes now, from this thread.

        Call before handing the executor to multiple threads: forking
        pool workers later, from a multithreaded process, risks the
        classic fork-with-threads deadlock (a child inheriting a lock
        some other thread held at fork time).  No-op for backends whose
        workers already exist or that have none.
        """

    def close(self) -> None:
        """Release backend resources; the executor is unusable after."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every item in the calling process, in submission order."""

    name = "serial"

    def __init__(self) -> None:
        self._closed = False

    def map_unordered(self, func: Callable, items: Sequence,
                      progress=None) -> Iterator[Tuple[int, object]]:
        if self._closed:
            raise RuntimeError("serial executor is closed")
        if progress is not None:
            progress = guard_progress(progress)
        for index, item in enumerate(items):
            if progress is None:
                yield index, func(item)
                continue
            previous = set_progress_sink(
                lambda event, _i=index: progress(_i, event))
            try:
                result = func(item)
            finally:
                set_progress_sink(previous)
            yield index, result

    def close(self) -> None:
        self._closed = True


class _QueueProgressTask:
    """Picklable wrapper shipping progress over a manager queue.

    Process-pool workers cannot call the parent's callback; instead the
    wrapper installs a sink that puts ``(index, event)`` on a shared
    :class:`multiprocessing.managers` queue the parent drains.
    """

    def __init__(self, func: Callable, sink_queue) -> None:
        self.func = func
        self.sink_queue = sink_queue

    def __call__(self, indexed_item):
        from repro.harness.progress import set_progress_sink

        index, item = indexed_item
        queue_ = self.sink_queue
        previous = set_progress_sink(
            lambda event: queue_.put((index, event)))
        try:
            return self.func(item)
        finally:
            set_progress_sink(previous)


class ProcessExecutor(Executor):
    """Run items on a local process pool (one pool per executor).

    The pool is created lazily on first use; when the host cannot
    provide one (no ``fork``/``spawn``, missing semaphores) the executor
    warns once and degrades to serial execution, preserving results.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        import os

        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._failed = False
        self._closed = False
        self._lock = threading.Lock()

    def _acquire_pool(self) -> Optional[ProcessPoolExecutor]:
        with self._lock:
            if self._closed:
                raise RuntimeError("process executor is closed")
            if self._failed:
                return None
            if self._pool is None:
                try:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.max_workers)
                except (OSError, ValueError, ImportError) as error:
                    warnings.warn(
                        f"process pool unavailable ({error}); running "
                        "serially", RuntimeWarning, stacklevel=4)
                    self._failed = True
                    return None
            return self._pool

    def warm_up(self) -> None:
        """Fork all pool workers now (see :meth:`Executor.warm_up`).

        Submits one short sleep per worker slot: the sleeps keep every
        already-forked worker busy, so each submission forks a fresh
        process until the pool is full — all from the calling thread.
        """
        pool = self._acquire_pool()
        if pool is not None:
            from concurrent.futures import wait

            wait([pool.submit(time.sleep, 0.2)
                  for _ in range(self.max_workers)])

    def map_unordered(self, func: Callable, items: Sequence,
                      progress=None) -> Iterator[Tuple[int, object]]:
        items = list(items)
        pool = self._acquire_pool() if len(items) > 1 else None
        if pool is None:
            if self._closed:
                raise RuntimeError("process executor is closed")
            yield from SerialExecutor().map_unordered(func, items,
                                                      progress=progress)
            return
        if progress is None:
            futures = {pool.submit(func, item): index
                       for index, item in enumerate(items)}
            for future in as_completed(futures):
                yield futures[future], future.result()
            return
        yield from self._map_with_progress(pool, func, items, progress)

    def _map_with_progress(self, pool, func: Callable, items: Sequence,
                           progress) -> Iterator[Tuple[int, object]]:
        """Pool mapping with a manager-queue progress channel.

        The manager (and its queue) exist only for this call: progress
        is opt-in precisely because the proxy round-trips cost more
        than plain pool dispatch.
        """
        import multiprocessing

        deliver = guard_progress(progress)
        manager = multiprocessing.Manager()
        try:
            sink_queue = manager.Queue()
            stop = threading.Event()

            def drain() -> None:
                while True:
                    try:
                        index, event = sink_queue.get(timeout=0.1)
                    except queue.Empty:
                        if stop.is_set():
                            return
                        continue
                    except (EOFError, OSError):
                        return  # manager torn down
                    deliver(index, event)

            drainer = threading.Thread(target=drain, name="progress-drain",
                                       daemon=True)
            drainer.start()
            task = _QueueProgressTask(func, sink_queue)
            try:
                futures = {pool.submit(task, (index, item)): index
                           for index, item in enumerate(items)}
                for future in as_completed(futures):
                    yield futures[future], future.result()
            finally:
                stop.set()
                drainer.join()
        finally:
            manager.shutdown()

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            self._closed = True


class _RemoteTask:
    """One in-flight unit of work inside :class:`RemoteExecutor`."""

    __slots__ = ("call_id", "index", "payload", "attempts")

    def __init__(self, call_id: int, index: int, payload: bytes) -> None:
        self.call_id = call_id
        self.index = index
        self.payload = payload
        self.attempts = 0


#: Task-queue sentinel: handlers re-post it so every worker sees it.
_SHUTDOWN = object()


class RemoteExecutor(Executor):
    """Distribute tasks to worker processes over TCP sockets.

    The executor listens on ``(host, port)``; each connected worker runs
    a pull loop — receive one pickled ``(func, item)`` task, compute,
    send back the pickled result — so fast workers naturally take more
    tasks.  Two deployment modes share the one protocol:

    * **Loopback** (default, ``spawn_workers=N``): N local worker
      processes are spawned via the ``spawn`` start method, so they
      re-import everything from scratch — the same cold-start a genuine
      remote machine would have.
    * **Remote**: pass ``spawn_workers=0`` and a fixed ``port``, then
      start ``python -m repro.harness.remote_worker --connect HOST:PORT``
      on any number of machines that can import :mod:`repro`.

    Tasks are shipped in *batches*: each round-trip carries up to
    ``batch_size`` tasks (and one reply message carries their results),
    amortising the TCP and pickling overhead of sweeps with many small
    jobs — e.g. the 36-cell policy comparisons.  ``batch_size=None``
    (the default) sizes batches adaptively: roughly the queued-task
    backlog split across the connected workers, capped at
    :data:`DEFAULT_MAX_BATCH`, so deep queues batch aggressively while a
    nearly-drained sweep degrades to single-task dispatch that keeps
    every worker busy.  Batching never affects results — only how tasks
    are framed on the wire.

    A worker that disconnects mid-batch has the batch's unfinished tasks
    re-queued for the remaining workers (up to ``max_attempts`` per
    task); an exception *inside* a task is reported back and re-raised
    to the consumer as a :class:`RuntimeError`.  Instances are
    thread-safe: concurrent ``map`` calls interleave their tasks over
    the same worker fleet.

    Every connection starts with a versioned handshake (protocol v2,
    see :mod:`repro.harness.remote_worker`): the worker announces magic
    + protocol version + an optional shared-secret digest
    (``$REPRO_REMOTE_TOKEN``, read on both sides; loopback workers
    inherit it automatically).  A worker with the wrong version or
    token is answered with a clean ``("reject", reason)`` and dropped —
    it never receives tasks — and a pre-handshake worker that sends
    nothing is rejected after ``handshake_timeout`` seconds.  The token
    authenticates but does not encrypt; tunnel the port (SSH/TLS) on
    untrusted networks.
    """

    name = "remote"

    def __init__(self, spawn_workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, timeout: Optional[float] = None,
                 max_attempts: int = 3,
                 batch_size: Optional[int] = None,
                 handshake_timeout: Optional[float] = None) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1 (or None for the "
                             "adaptive heuristic)")
        # Both timeouts resolve explicit value > env var > default, and
        # reject non-positive values with a clear error either way.
        self.timeout = resolve_timeout(
            timeout, "REPRO_REMOTE_IDLE_TIMEOUT", 600.0,
            "fleet idle timeout")
        self.max_attempts = max_attempts
        self.batch_size = batch_size
        self.handshake_timeout = resolve_timeout(
            handshake_timeout, "REPRO_REMOTE_HANDSHAKE_TIMEOUT", 10.0,
            "handshake timeout")
        self._tasks: "queue.Queue" = queue.Queue()
        self._results: dict = {}  # call_id -> queue.Queue
        self._progress: dict = {}  # call_id -> (index, event) callback
        self._call_ids = itertools.count()
        self._lock = threading.Lock()
        self._closed = False
        self._workers_seen = 0
        self._active_workers = 0
        self._last_activity = time.monotonic()

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="remote-executor-accept",
            daemon=True)
        self._accept_thread.start()

        self._processes = spawn_loopback_workers(
            self.address, spawn_workers) if spawn_workers else []

    # -- server side ------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                self._workers_seen += 1
                self._active_workers += 1
                self._last_activity = time.monotonic()
            threading.Thread(target=self._serve_worker, args=(conn,),
                             name="remote-executor-worker", daemon=True).start()

    def _batch_limit(self) -> int:
        """Tasks to ship in the next round-trip (see the class docstring)."""
        if self.batch_size is not None:
            return self.batch_size
        with self._lock:
            active = max(1, self._active_workers)
        backlog = self._tasks.qsize() + 1
        return max(1, min(DEFAULT_MAX_BATCH, backlog // active))

    def _gather_batch(self) -> Optional[List[_RemoteTask]]:
        """Pop the next batch of live tasks; None signals shutdown.

        Blocks for the first task, then opportunistically drains up to
        the batch limit without blocking, skipping tasks whose consumer
        has already aborted (their results would never be read).
        """
        batch: List[_RemoteTask] = []
        limit = None
        while True:
            if not batch:
                task = self._tasks.get()
            else:
                if limit is None:
                    limit = self._batch_limit()
                if len(batch) >= limit:
                    return batch
                try:
                    task = self._tasks.get_nowait()
                except queue.Empty:
                    return batch
            if task is _SHUTDOWN:
                self._tasks.put(_SHUTDOWN)
                return batch or None
            with self._lock:
                live = task.call_id in self._results
            if live:
                batch.append(task)

    def _reject_worker(self, conn: socket.socket, reason: str) -> None:
        """Answer a failed handshake with a clean, explained rejection."""
        warnings.warn(f"remote executor rejected a worker: {reason}",
                      RuntimeWarning, stacklevel=3)
        try:
            send_message(conn, encode_handshake(["reject", reason]))
        except OSError:
            pass

    def _handshake_worker(self, conn: socket.socket) -> bool:
        """Validate one worker's hello; True when it may receive tasks.

        Checks magic, protocol version and — when the executor side has
        ``$REPRO_REMOTE_TOKEN`` set — the shared-secret digest
        (constant-time comparison).  A worker that sends nothing within
        ``handshake_timeout`` (e.g. one predating the handshake) is
        rejected rather than left to deadlock the connection.

        Security posture: nothing from the connection is unpickled (or
        even buffered beyond :data:`MAX_HANDSHAKE_BYTES`) until this
        JSON handshake has passed — an unauthenticated peer can never
        reach the pickle layer.
        """
        conn.settimeout(self.handshake_timeout)
        try:
            hello = decode_handshake(
                recv_message(conn, max_size=MAX_HANDSHAKE_BYTES))
        except Exception as error:  # noqa: BLE001 - junk or timeout
            self._reject_worker(
                conn, f"no valid handshake received within "
                      f"{self.handshake_timeout:.0f}s ({error}; worker "
                      f"predates protocol v{PROTOCOL_VERSION}?)")
            return False
        role, reason = validate_hello(hello)
        if reason is not None:
            self._reject_worker(conn, reason)
            return False
        if role != "worker":
            # A fleet executor has no client role to offer; brokers do.
            self._reject_worker(
                conn, f"this is a sweep-private fleet, not a broker — "
                      f"it serves workers only, not {role!r} connections")
            return False
        try:
            send_message(conn, encode_handshake(
                ["welcome", {"version": PROTOCOL_VERSION}]))
        except OSError:
            return False
        conn.settimeout(None)
        return True

    def _serve_worker(self, conn: socket.socket) -> None:
        """Feed one connected worker batches from the shared task queue."""
        try:
            if not self._handshake_worker(conn):
                return
            while True:
                batch = self._gather_batch()
                if batch is None:
                    try:
                        send_message(conn, pickle.dumps(("shutdown", None)))
                    except OSError:
                        pass
                    return
                for task in batch:
                    task.attempts += 1
                try:
                    send_message(conn, pickle.dumps(
                        ("tasks", [task.payload for task in batch])))
                    # Any failure below — socket death, a reply this
                    # process cannot unpickle (e.g. a version-skewed
                    # worker), or a malformed reply — is a
                    # worker-channel failure: Exception, not just
                    # UnpicklingError, or the handler thread would die
                    # silently and strand the batch.
                    while True:
                        reply = pickle.loads(recv_message(conn))
                        kind = reply[0]
                        if kind == "progress":
                            _, position, event = reply
                            task = batch[position]
                            self._route_progress(task.call_id, task.index,
                                                 event)
                            continue
                        if kind != "results":
                            raise RuntimeError(
                                f"unexpected worker reply {kind!r}")
                        outcomes = reply[1]
                        if len(outcomes) != len(batch):
                            raise RuntimeError(
                                f"worker replied {len(outcomes)} results "
                                f"for a {len(batch)}-task batch")
                        break
                except Exception as error:  # noqa: BLE001
                    # The connection died mid-batch: give the tasks to
                    # the surviving workers unless they have already
                    # burned through their attempts (a task that kills
                    # every worker it lands on must not loop forever).
                    for task in batch:
                        if task.attempts >= self.max_attempts:
                            self._route(task.call_id, task.index, False,
                                        f"worker connection lost: {error}")
                        else:
                            self._tasks.put(task)
                    return
                for task, (ok, value) in zip(batch, outcomes):
                    self._route(task.call_id, task.index, ok, value)
        finally:
            conn.close()
            with self._lock:
                self._active_workers -= 1

    def _route(self, call_id: int, index: int, ok: bool, value) -> None:
        with self._lock:
            result_queue = self._results.get(call_id)
            self._last_activity = time.monotonic()
        if result_queue is not None:  # consumer may have aborted
            result_queue.put((index, ok, value))

    def _route_progress(self, call_id: int, index: int, event) -> None:
        """Deliver one worker progress event to its call's callback.

        Callbacks are pre-wrapped by :func:`guard_progress` at
        registration, so delivery can never kill the serving thread.
        """
        with self._lock:
            callback = self._progress.get(call_id)
            self._last_activity = time.monotonic()  # progress is progress
        if callback is not None:
            callback(index, event)

    # -- client side ------------------------------------------------------

    def map_unordered(self, func: Callable, items: Sequence,
                      progress=None) -> Iterator[Tuple[int, object]]:
        items = list(items)
        if not items:
            return
        if self._closed:
            raise RuntimeError("remote executor is closed")
        with self._lock:
            call_id = next(self._call_ids)
            result_queue: "queue.Queue" = queue.Queue()
            self._results[call_id] = result_queue
            if progress is not None:
                self._progress[call_id] = guard_progress(progress)
        try:
            for index, item in enumerate(items):
                # The payload is the inner (func, item) blob; the serving
                # thread frames one or more of them as a "tasks" batch.
                self._tasks.put(_RemoteTask(
                    call_id, index, pickle.dumps((func, item))))
            pending = len(items)
            while pending:
                try:
                    index, ok, value = result_queue.get(timeout=1.0)
                except queue.Empty:
                    if self._closed:
                        raise RuntimeError(
                            "remote executor closed mid-sweep")
                    self._check_fleet_health(pending)
                    continue
                if not ok:
                    raise RuntimeError(f"remote task failed: {value}")
                yield index, value
                pending -= 1
        finally:
            with self._lock:
                self._results.pop(call_id, None)
                self._progress.pop(call_id, None)

    def _check_fleet_health(self, pending: int) -> None:
        """Fail fast on a dead or stalled fleet; otherwise keep waiting.

        The idle clock is *fleet-wide* (reset by any routed result and
        any worker connection, across all concurrent map calls), so a
        call whose tasks are queued behind other calls' work on a busy
        shared fleet never trips it — only a fleet that has made no
        progress at all for ``timeout`` seconds does.
        """
        with self._lock:
            active = self._active_workers
            idle = time.monotonic() - self._last_activity
        if (active == 0 and self._processes
                and all(p.poll() is not None for p in self._processes)):
            raise RuntimeError(
                f"all {len(self._processes)} loopback workers exited "
                f"with {pending} tasks outstanding"
                f"{self._worker_stderr_tail()}")
        if idle > self.timeout:
            raise RuntimeError(
                f"remote executor made no progress for "
                f"{self.timeout:.0f}s with {pending} tasks outstanding "
                f"(workers seen: {self._workers_seen}, active: {active})"
                f"{self._worker_stderr_tail()}")

    def _worker_stderr_tail(self, limit: int = 2000) -> str:
        """Captured stderr of spawned workers, for failure diagnostics."""
        chunks = []
        for process in self._processes:
            path = getattr(process, "stderr_path", None)
            if not path:
                continue
            try:
                with open(path) as handle:
                    text = handle.read()[-limit:].strip()
            except OSError:
                continue
            if text:
                chunks.append(f"worker pid {process.pid} stderr:\n{text}")
        return ("\n" + "\n".join(chunks)) if chunks else ""

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._tasks.put(_SHUTDOWN)  # handlers drain it and notify workers
        try:
            self._listener.close()
        except OSError:
            pass
        import os

        for process in self._processes:
            try:
                process.wait(timeout=10.0)
            except Exception:  # still running after the shutdown message
                process.terminate()
            path = getattr(process, "stderr_path", None)
            if path:
                try:
                    os.unlink(path)
                except OSError:
                    pass


class BrokerExecutor(Executor):
    """Submit work to a persistent broker instead of owning a fleet.

    Where the other backends *are* the execution resource, this one is
    a client of a shared :class:`~repro.harness.broker.Broker` service
    (``repro broker serve``): it opens one authenticated connection
    (handshake role ``client``), submits each item, and streams back
    per-item results and progress events routed by submission id.
    Many processes — and many threads within one process — can point
    executors at the same broker; its queue shares the worker pool
    fairly among them.

    The declarative fast path: when the mapped function is the engine's
    ``run_job`` and the item a ``SimJob``, the job itself is submitted
    (kind ``"job"``) rather than an opaque pickle, which lets the
    broker answer warm submissions straight from its result store —
    zero simulation, bitwise-identical payload (store round-trips are
    exact).  Anything else ships as an opaque ``(func, item)`` task
    blob, so baselines and checkpoint prefixes run through the same
    service unchanged.

    Determinism: results are reassembled by index exactly as with every
    other backend, so ``map`` output is bitwise-identical to
    :class:`SerialExecutor` regardless of worker count, scheduling, or
    whether the store answered.

    Args:
        address: the broker's ``(host, port)`` or ``"HOST:PORT"``
            string (also ``$REPRO_BROKER`` via the CLI).
        timeout: seconds without any progress on an outstanding
            submission before giving up (default
            ``$REPRO_BROKER_TIMEOUT`` or 600).
        handshake_timeout: connection/handshake budget in seconds
            (default ``$REPRO_REMOTE_HANDSHAKE_TIMEOUT`` or 10).
        priority: queue priority for every submission from this
            executor (higher runs first; fairness still round-robins
            between clients at equal priority).
    """

    name = "broker"

    def __init__(self, address, timeout: Optional[float] = None,
                 handshake_timeout: Optional[float] = None,
                 priority: int = 0) -> None:
        from repro.harness.broker import BrokerClient

        self.priority = priority
        self._client = BrokerClient(address, timeout=timeout,
                                    handshake_timeout=handshake_timeout)
        self.address = self._client.address
        self.timeout = self._client.timeout
        self._call_ids = itertools.count()
        self._closed = False

    def map_unordered(self, func: Callable, items: Sequence,
                      progress=None) -> Iterator[Tuple[int, object]]:
        from repro.harness.engine import SimJob, run_job

        items = list(items)
        if not items:
            return
        if self._closed:
            raise RuntimeError("broker executor is closed")
        if progress is not None:
            progress = guard_progress(progress)
        call_id = next(self._call_ids)
        declarative = func is run_job
        routes = {}
        try:
            for index, item in enumerate(items):
                submission_id = f"{id(self)}:{call_id}:{index}"
                routes[submission_id] = (index,
                                         self._client.open_route(
                                             submission_id))
                if declarative and isinstance(item, SimJob):
                    self._client.submit(submission_id, "job", job=item,
                                        priority=self.priority)
                else:
                    self._client.submit(
                        submission_id, "task",
                        payload=pickle.dumps((func, item)),
                        priority=self.priority)
            pending = dict(routes)
            while pending:
                # Poll every outstanding route; any activity (result or
                # progress) resets the shared idle clock.
                idle_since = time.monotonic()
                while True:
                    activity = False
                    for submission_id, (index, route) in list(
                            pending.items()):
                        try:
                            message = route.get_nowait()
                        except queue.Empty:
                            continue
                        activity = True
                        kind = message[0]
                        if kind == "progress":
                            if progress is not None:
                                progress(index, message[2])
                            continue
                        if kind == "rejected":
                            raise RuntimeError(
                                f"broker rejected submission: "
                                f"{message[2]}")
                        if kind == "connection-lost":
                            raise RuntimeError(
                                f"broker connection to "
                                f"{self.address[0]}:{self.address[1]} "
                                f"lost: {message[2]}")
                        ok, value = message[2], message[3]
                        if not ok:
                            raise RuntimeError(
                                f"broker task failed: {value}")
                        del pending[submission_id]
                        yield index, value
                    if not pending:
                        break
                    if activity:
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since > self.timeout:
                        raise RuntimeError(
                            f"broker made no progress for "
                            f"{self.timeout:.0f}s with {len(pending)} "
                            "submissions outstanding")
                    else:
                        time.sleep(0.005)
        finally:
            for submission_id in routes:
                self._client.close_route(submission_id)

    def status(self) -> dict:
        """The broker's live counters (queue depth, workers, stats)."""
        return self._client.status()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._client.close()


def make_executor(spec, max_workers: int = 1, *,
                  broker: Optional[str] = None,
                  remote_idle_timeout: Optional[float] = None,
                  remote_handshake_timeout: Optional[float] = None
                  ) -> Executor:
    """Build an executor from a name, or pass an instance through.

    Args:
        spec: an :class:`Executor` instance (returned unchanged), a name
            from :data:`EXECUTOR_NAMES`, or None (same as ``"auto"``).
        max_workers: worker count for the pool/remote backends; ``auto``
            resolves to serial when it is <= 1.
        broker: ``HOST:PORT`` of a running broker, for ``"broker"``
            (falls back to ``$REPRO_BROKER``).
        remote_idle_timeout: fleet idle timeout in seconds for the
            remote backend — also the broker client's result timeout
            (default: ``$REPRO_REMOTE_IDLE_TIMEOUT`` / 600).
        remote_handshake_timeout: handshake budget in seconds for the
            remote and broker backends (default:
            ``$REPRO_REMOTE_HANDSHAKE_TIMEOUT`` / 10).
    """
    import os

    if isinstance(spec, Executor):
        return spec
    name = spec or "auto"
    if name == "auto":
        name = "serial" if max_workers <= 1 else "process"
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(max_workers)
    if name == "remote":
        return RemoteExecutor(spawn_workers=max(2, max_workers),
                              timeout=remote_idle_timeout,
                              handshake_timeout=remote_handshake_timeout)
    if name == "broker":
        address = broker or os.environ.get("REPRO_BROKER")
        if not address:
            raise ValueError(
                "the broker backend needs an address: pass --broker "
                "HOST:PORT (or set $REPRO_BROKER) pointing at a running "
                "'repro broker serve'")
        return BrokerExecutor(address, timeout=remote_idle_timeout,
                              handshake_timeout=remote_handshake_timeout)
    raise ValueError(
        f"unknown executor {spec!r} (expected one of {EXECUTOR_NAMES})")
