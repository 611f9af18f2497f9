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

:class:`BrokerExecutor`
    Connects as a *client* of a persistent
    :class:`~repro.harness.broker.Broker` service (``repro broker
    serve``) whose shared worker pool is multiplexed across many
    concurrent submitters.  Declarative ``SimJob`` submissions may be
    answered straight from the broker-side result store without any
    simulation running.

:class:`RemoteExecutor`
    A :class:`BrokerExecutor` that starts and owns a private,
    in-process broker for one sweep.  The broker ships pickled tasks to
    worker processes over a length-prefixed TCP socket protocol
    (:mod:`repro.harness.remote_worker`).  By default it spawns loopback
    workers on this machine; pointing external workers (``python -m
    repro.harness.remote_worker --connect HOST:PORT``) at its listening
    address distributes the same sweep across machines.  The broker
    module holds the one socket server both backends use.

Because every work item is pure — the result depends only on the item,
never on scheduling — :meth:`Executor.map` is bitwise-identical across
backends and worker counts; only completion *order* (the streaming view
exposed by :meth:`Executor.map_unordered`) differs.  Executors are
reusable across calls and thread-safe, so one instance can serve several
sweeps; the engine's :func:`~repro.harness.engine.execute` builds at
most one per campaign.
"""

from __future__ import annotations

import abc
import itertools
import pickle
import queue
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.harness.progress import guard_progress, set_progress_sink
from repro.harness.remote_worker import resolve_timeout, worker_stderr_tail

#: Names accepted by :func:`make_executor` (and the ``--executor`` CLI
#: flags).  ``auto`` picks serial for one worker, processes otherwise;
#: ``broker`` submits to a persistent :mod:`repro.harness.broker`
#: service instead of owning a fleet.
EXECUTOR_NAMES: Tuple[str, ...] = (
    "auto", "serial", "process", "remote", "broker")


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


class BrokerExecutor(Executor):
    """Submit work to a persistent broker instead of owning a fleet.

    Where the serial and process backends *are* the execution resource,
    this one is a client of a shared
    :class:`~repro.harness.broker.Broker` service (``repro broker
    serve``): it opens one authenticated connection (handshake role
    ``client``), submits each item, and streams back per-item results
    and progress events routed by submission id.  Many processes — and
    many threads within one process — can point executors at the same
    broker; its queue shares the worker pool fairly among them.

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
        timeout: seconds the broker connection may receive nothing
            while a call still has submissions outstanding, before that
            call gives up (default ``$REPRO_BROKER_TIMEOUT`` or 600).
            Every reply counts, whichever call it answers, so a call
            queued behind another call's work on the same executor
            waits for as long as that work keeps completing.
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
        self.handshake_timeout = self._client.handshake_timeout
        self._call_ids = itertools.count()
        self._closed = False

    def _job_of(self, func: Callable, item):
        """The ``SimJob`` to submit as a ``"job"``, or None for a task."""
        from repro.harness.engine import SimJob, run_job

        if func is run_job and isinstance(item, SimJob):
            return item
        return None

    def map_unordered(self, func: Callable, items: Sequence,
                      progress=None) -> Iterator[Tuple[int, object]]:
        items = list(items)
        if not items:
            return
        if self._closed:
            raise RuntimeError(f"{self.name} executor is closed")
        if progress is not None:
            progress = guard_progress(progress)
        call_id = next(self._call_ids)
        index_of = {f"{id(self)}:{call_id}:{index}": index
                    for index in range(len(items))}
        replies = self._client.open_route(*index_of)
        try:
            for submission_id, item in zip(index_of, items):
                job = self._job_of(func, item)
                if job is not None:
                    self._client.submit(submission_id, "job", job=job,
                                        priority=self.priority)
                else:
                    self._client.submit(
                        submission_id, "task",
                        payload=pickle.dumps((func, item)),
                        priority=self.priority)
            started = time.monotonic()
            pending = len(items)
            while pending:
                try:
                    message = replies.get(timeout=1.0)
                except queue.Empty:
                    self._check_health(pending, started)
                    continue
                kind = message[0]
                if kind == "progress":
                    if progress is not None:
                        progress(index_of[message[1]], message[2])
                    continue
                if kind == "rejected":
                    raise RuntimeError(
                        f"broker rejected submission: {message[2]}")
                if kind == "connection-lost":
                    raise RuntimeError(
                        f"broker connection to {self.address[0]}:"
                        f"{self.address[1]} lost: {message[2]}")
                ok, value = message[2], message[3]
                if not ok:
                    raise RuntimeError(f"{self.name} task failed: {value}")
                pending -= 1
                yield index_of[message[1]], value
        finally:
            self._client.close_route(*index_of)

    def _check_health(self, pending: int, started: float) -> None:
        """Give up once the connection has been silent for ``timeout``.

        The clock restarts with every frame the connection receives,
        for any call, and with this call's start.
        """
        idle = time.monotonic() - max(self._client.last_frame, started)
        if idle > self.timeout:
            raise RuntimeError(
                f"{self.name} executor made no progress for "
                f"{self.timeout:g}s with {pending} submissions outstanding")

    def status(self) -> dict:
        """The broker's live counters (queue depth, workers, stats)."""
        return self._client.status()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._client.close()


class RemoteExecutor(BrokerExecutor):
    """Distribute tasks to worker processes through a private broker.

    The executor starts an in-process
    :class:`~repro.harness.broker.Broker` listening on ``(host, port)``
    and submits to it as a :class:`BrokerExecutor`.  Each connected
    worker pulls one pickled ``(func, item)`` task at a time, so fast
    workers take more.  Two deployment modes share the one protocol:

    * **Loopback** (default, ``spawn_workers=N``): the broker spawns N
      local worker processes, each a fresh interpreter — the same cold
      start a genuine remote machine would have.
    * **Remote**: pass ``spawn_workers=0`` and a fixed ``port``, then
      start ``python -m repro.harness.remote_worker --connect HOST:PORT``
      on any number of machines that can import :mod:`repro`.

    The broker requeues the task of a worker that disconnects mid-task
    (up to ``max_attempts``) and rejects a peer that fails the handshake
    within ``handshake_timeout`` (see :mod:`repro.harness.broker`).  A
    call fails after ``timeout`` seconds without a reply (default
    ``$REPRO_REMOTE_IDLE_TIMEOUT`` or 600), and at once, with the
    workers' captured stderr, when every spawned worker has exited.

    Unlike a shared ``repro broker serve``, the private broker never
    spools to disk (a later shared broker would recover and rerun the
    tasks), has no queue bound, and never touches the result store: it
    shares this process's store, so every item ships as an opaque
    ``"task"`` — a ``"job"`` would be answered from the store under
    ``--reuse off`` and counted twice by ``--store-stats``.  Like any
    broker it also accepts ``role: client`` connections;
    ``$REPRO_REMOTE_TOKEN`` is the access control.
    """

    name = "remote"

    def __init__(self, spawn_workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, timeout: Optional[float] = None,
                 max_attempts: int = 3,
                 handshake_timeout: Optional[float] = None) -> None:
        from repro.harness.broker import Broker

        timeout = resolve_timeout(
            timeout, "REPRO_REMOTE_IDLE_TIMEOUT", 600.0,
            "fleet idle timeout")
        self._broker = Broker(
            host, port, spawn_workers=spawn_workers,
            max_attempts=max_attempts, handshake_timeout=handshake_timeout,
            durable=False, max_queue=sys.maxsize).start()
        try:
            super().__init__(self._broker.address, timeout=timeout,
                             handshake_timeout=self._broker.handshake_timeout)
        except BaseException:
            self._broker.stop()
            raise

    def _job_of(self, func: Callable, item):
        return None  # never "job": see the class docstring

    def _check_health(self, pending: int, started: float) -> None:
        """Fail fast on a dead fleet; otherwise the idle clock decides."""
        spawned = self._broker._processes
        if (spawned and not self._broker.status()["workers"]
                and all(process.poll() is not None for process in spawned)):
            raise RuntimeError(
                f"all {len(spawned)} loopback workers exited with "
                f"{pending} tasks outstanding{worker_stderr_tail(spawned)}")
        super()._check_health(pending, started)

    def close(self) -> None:
        super().close()
        self._broker.stop()


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
