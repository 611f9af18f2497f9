"""Tests for the persistent simulation broker and its executor client.

The service contract: any number of concurrent clients submitting
through one broker get results bitwise-identical to a serial run; the
queue is fair, bounded (clear rejection, never unbounded buffering) and
durable; workers join and leave mid-sweep without losing jobs; warm
submissions are answered from the result store with zero simulations;
and SIGTERM/SIGINT never kill a worker mid-pickle.
"""

import json
import os
import pickle
import signal
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.harness.broker import (
    Broker,
    BrokerClient,
    BrokerRejection,
    FairQueue,
    QueueEntry,
    job_from_spec,
    parse_broker_address,
)
from repro.harness.engine import SimJob, run_job, run_jobs
from repro.harness.executors import (
    BrokerExecutor,
    EXECUTOR_NAMES,
    RemoteExecutor,
    make_executor,
)
from repro.harness.remote_worker import (
    GracefulExit,
    WorkerState,
    install_signal_handlers,
    resolve_timeout,
    spawn_loopback_workers,
)
from repro.harness.results import result_store, result_to_payload

CYCLES = 1_000
WARMUP = 250


def small_jobs():
    return [
        SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=3),
        SimJob(("mcf", "gzip"), "DCRA", None, CYCLES, WARMUP, seed=3),
        SimJob(("twolf",), ("DCRA", {"activity_window": 64}), None,
               CYCLES, WARMUP, seed=5),
        SimJob(("gzip", "twolf"), "FLUSH++", None, CYCLES, WARMUP, seed=7),
    ]


@pytest.fixture(scope="module")
def broker():
    """One persistent broker + two workers shared by the module."""
    with Broker(spawn_workers=2, durable=False) as instance:
        yield instance


@pytest.fixture(scope="module")
def broker_executor(broker):
    with BrokerExecutor(broker.address, timeout=120.0) as executor:
        yield executor


@pytest.fixture(scope="module")
def reference_results():
    return [r for r in run_jobs(small_jobs(), max_workers=1)]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"task {x} exploded")


def _marked_sleep(arg):
    """Touch a marker file, then sleep — lets tests signal mid-task."""
    marker, delay = arg
    Path(marker).touch()
    time.sleep(delay)
    return "done"


def _kill_worker_once(arg):
    """Die abruptly in exactly one worker, succeed everywhere else.

    The O_EXCL create makes the death unique even when several workers
    race: the one that wins the create dies mid-task (its task must be
    requeued), every other call sees the marker and succeeds.
    """
    marker, value = arg
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value * 2
    os.close(fd)
    os._exit(1)


def _entry(client, seq, priority=0, kind="task", attempts=0):
    return QueueEntry(job_id=f"{client}{seq}", client=client, kind=kind,
                      payload=b"x", priority=priority, seq=seq,
                      attempts=attempts)


class TestFairQueue:
    """The scheduler: priority, per-client fairness, bounded, requeue."""

    def test_higher_priority_dispatches_first(self):
        q = FairQueue()
        q.push(_entry("a", 0, priority=0))
        q.push(_entry("a", 1, priority=5))
        q.push(_entry("b", 2, priority=1))
        assert [q.pop().job_id for _ in range(3)] == ["a1", "b2", "a0"]
        assert q.pop() is None

    def test_round_robin_between_clients_at_equal_priority(self):
        q = FairQueue()
        for seq in range(6):
            q.push(_entry("hog", seq))
        q.push(_entry("small", 100))
        q.push(_entry("small", 101))
        order = [q.pop().client for _ in range(len(q))]
        # The small client's two entries are served within the first
        # four dispatches — the hog's backlog cannot starve it.
        assert order[:4].count("small") == 2

    def test_fairness_under_saturated_queue(self):
        # A saturated queue (at the bound) still round-robins: the
        # late-arriving client's jobs run long before the hog drains.
        q = FairQueue(max_pending=100)
        for seq in range(95):
            q.push(_entry("hog", seq))
        for seq in range(5):
            q.push(_entry("late", 1000 + seq))
        first = [q.pop().client for _ in range(10)]
        assert first.count("late") == 5

    def test_submission_order_within_one_client(self):
        q = FairQueue()
        for seq in (3, 1, 2):
            q.push(_entry("a", seq))
        assert [q.pop().seq for _ in range(3)] == [1, 2, 3]

    def test_bound_rejects_with_clear_error(self):
        q = FairQueue(max_pending=2)
        q.push(_entry("a", 0))
        q.push(_entry("a", 1))
        with pytest.raises(BrokerRejection, match="full"):
            q.push(_entry("a", 2))
        with pytest.raises(BrokerRejection, match="max-queue"):
            q.push(_entry("b", 3))

    def test_requeue_bypasses_the_bound(self):
        # A dispatched-then-requeued entry was already admitted once;
        # backpressure must never lose it.
        q = FairQueue(max_pending=1)
        q.push(_entry("a", 0))
        q.push(_entry("a", 1, attempts=1), requeue=True)
        assert len(q) == 2

    def test_requeued_entry_keeps_its_place(self):
        q = FairQueue()
        q.push(_entry("a", 5))
        q.push(_entry("a", 0, attempts=1), requeue=True)
        assert q.pop().seq == 0

    def test_drop_client_keeps_what_the_predicate_accepts(self):
        q = FairQueue()
        q.push(_entry("a", 0, kind="task"))
        q.push(_entry("a", 1, kind="job"))
        q.push(_entry("b", 2, kind="task"))
        dropped = q.drop_client("a", keep=lambda e: e.kind == "job")
        assert [e.seq for e in dropped] == [0]
        assert len(q) == 2
        assert q.drop_client("missing") == []

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_pending"):
            FairQueue(max_pending=0)


class TestBrokerDeterminism:
    """Results through the service are bitwise-identical to serial."""

    def test_broker_executor_matches_serial(self, broker_executor,
                                            reference_results):
        assert run_jobs(small_jobs(), 2, broker_executor) \
            == reference_results

    def test_generic_tasks_route_through(self, broker_executor):
        assert broker_executor.map(_square, range(8)) \
            == [i * i for i in range(8)]

    def test_executor_is_reusable_across_calls(self, broker_executor):
        first = broker_executor.map(_square, range(6))
        second = broker_executor.map(_square, range(6))
        assert first == second == [i * i for i in range(6)]

    def test_task_exception_propagates(self, broker_executor):
        with pytest.raises(RuntimeError, match="broker task failed"):
            broker_executor.map(_boom, [1])

    def test_empty_map(self, broker_executor):
        assert broker_executor.map(_square, []) == []

    def test_concurrent_clients_bitwise_identical(self, broker,
                                                  reference_results):
        """N clients with overlapping sweeps all reassemble serially."""
        outputs = {}
        errors = []

        def client(key: int) -> None:
            try:
                with BrokerExecutor(broker.address,
                                    timeout=120.0) as executor:
                    outputs[key] = run_jobs(small_jobs(), 2, executor)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(key,))
                   for key in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180.0)
        assert not errors
        assert len(outputs) == 3
        for key in range(3):
            assert outputs[key] == reference_results

    def test_progress_streams_back_per_client(self, broker_executor):
        job = SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=11,
                     interval_cycles=250)
        events = []
        run_jobs([job], 2, broker_executor,
                 progress=lambda index, event: events.append(
                     (index, event)))
        assert events
        assert all(index == 0 for index, _ in events)
        assert events[-1][1].cycles_done == CYCLES


class TestWarmResubmission:
    """A warm resubmission never reaches a worker (store-served)."""

    def test_zero_simulations_on_warm_resubmit(self, broker,
                                               broker_executor,
                                               reference_results):
        cold = run_jobs(small_jobs(), 2, broker_executor, reuse="off")
        before = broker.status()["stats"]
        warm = run_jobs(small_jobs(), 2, broker_executor, reuse="off")
        after = broker.status()["stats"]
        assert cold == warm == reference_results
        assert after["dispatched"] == before["dispatched"], \
            "warm resubmission must not dispatch any simulation"
        assert after["store_hits"] - before["store_hits"] \
            == len(small_jobs())

    def test_second_client_is_warm_too(self, broker, broker_executor,
                                       reference_results):
        jobs = [small_jobs()[0]]
        run_jobs(jobs, 2, broker_executor, reuse="off")
        before = broker.status()["stats"]
        with BrokerExecutor(broker.address, timeout=120.0) as other:
            assert run_jobs(jobs, 2, other, reuse="off") \
                == reference_results[:1]
        after = broker.status()["stats"]
        assert after["dispatched"] == before["dispatched"]


class TestWorkerChurn:
    """Workers join and leave mid-sweep without losing jobs."""

    def test_dead_worker_requeues_without_job_loss(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        with Broker(spawn_workers=2, durable=False) as broker:
            with BrokerExecutor(broker.address, timeout=120.0) as executor:
                results = executor.map(
                    _kill_worker_once, [(marker, v) for v in range(6)])
            assert results == [v * 2 for v in range(6)]
            stats = broker.status()["stats"]
            assert stats["requeued"] >= 1
            assert stats["workers_left"] >= 1

    def test_worker_joins_mid_run(self):
        with Broker(spawn_workers=0, durable=False) as broker:
            with BrokerExecutor(broker.address, timeout=120.0) as executor:
                collector = {}

                def sweep() -> None:
                    collector["results"] = executor.map(
                        _square, range(5))

                thread = threading.Thread(target=sweep)
                thread.start()
                # Nothing can run yet — then a worker connects, exactly
                # as an operator adding capacity mid-sweep would.
                time.sleep(0.3)
                assert "results" not in collector
                broker._processes.extend(
                    spawn_loopback_workers(broker.address, 1))
                thread.join(timeout=120.0)
                assert collector["results"] == [i * i for i in range(5)]


class TestBackpressure:
    """A full queue rejects with a clear error instead of buffering."""

    def test_submission_past_the_bound_is_rejected(self):
        with Broker(spawn_workers=0, max_queue=2, durable=False) as broker:
            with BrokerClient(broker.address) as client:
                routes = [client.open_route(f"s{i}") for i in range(3)]
                for i in range(3):
                    client.submit(f"s{i}", "task",
                                  payload=pickle.dumps((_square, i)))
                message = routes[2].get(timeout=10.0)
                assert message[0] == "rejected"
                assert "full" in message[2]
                assert broker.status()["stats"]["rejected"] == 1

    def test_rejection_surfaces_through_the_executor(self):
        with Broker(spawn_workers=0, max_queue=1, durable=False) as broker:
            with BrokerExecutor(broker.address, timeout=30.0) as executor:
                with pytest.raises(RuntimeError, match="rejected"):
                    executor.map(_square, range(4))


class TestDurableSpool:
    """Accepted jobs survive a broker restart."""

    def test_unfinished_jobs_recover_across_restart(self, tmp_path):
        spool = tmp_path / "spool"
        job = SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=9)
        first = Broker(spawn_workers=0, spool_dir=spool).start()
        try:
            with BrokerClient(first.address) as client:
                client.open_route("s1")
                client.submit("s1", "job", job=job)
                deadline = time.monotonic() + 10.0
                while not list(spool.glob("*.pkl")):
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
        finally:
            first.stop()
        assert len(list(spool.glob("*.pkl"))) == 1

        second = Broker(spawn_workers=1, spool_dir=spool).start()
        try:
            assert second.status()["stats"]["recovered"] == 1
            deadline = time.monotonic() + 120.0
            while result_store.get(job) is None:
                assert time.monotonic() < deadline, \
                    "recovered job never completed"
                time.sleep(0.1)
            assert result_store.get(job) == run_job(job)
            assert not list(spool.glob("*.pkl"))
        finally:
            second.stop()

    def test_completed_jobs_leave_no_spool_behind(self, tmp_path):
        spool = tmp_path / "spool"
        job = SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=10)
        with Broker(spawn_workers=1, spool_dir=spool) as broker:
            with BrokerExecutor(broker.address, timeout=120.0) as executor:
                executor.map(run_job, [job])
            assert not list(spool.glob("*.pkl"))


class TestHTTPFacade:
    """POST /submit, GET /status/<job>, GET /result/<job>."""

    @pytest.fixture()
    def http_broker(self):
        with Broker(spawn_workers=1, http_port=0, durable=False) as broker:
            yield broker, "http://%s:%d" % broker.http_address

    @staticmethod
    def _post(url: str, spec: dict) -> dict:
        request = urllib.request.Request(
            url + "/submit", data=json.dumps(spec).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as reply:
            return json.load(reply)

    def test_submit_poll_result_round_trip(self, http_broker):
        broker, url = http_broker
        spec = {"benchmarks": "gzip+twolf", "policy": "ICOUNT",
                "cycles": CYCLES, "warmup": WARMUP, "seed": 1}
        record = self._post(url, spec)
        assert record["state"] in ("queued", "running", "done")
        deadline = time.monotonic() + 120.0
        while True:
            with urllib.request.urlopen(
                    f"{url}/status/{record['job']}") as reply:
                status = json.load(reply)
            if status["state"] in ("done", "failed"):
                break
            assert time.monotonic() < deadline
            time.sleep(0.1)
        assert status["state"] == "done"
        with urllib.request.urlopen(
                f"{url}/result/{record['job']}") as reply:
            payload = json.load(reply)
        expected = run_job(job_from_spec(spec))
        assert payload["result"] == result_to_payload(expected)
        # Resubmission is answered from the store before any queueing.
        warm = self._post(url, spec)
        assert warm["state"] == "done" and warm["source"] == "store"

    def test_unknown_job_is_404(self, http_broker):
        _, url = http_broker
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{url}/status/nope")
        assert excinfo.value.code == 404

    def test_malformed_spec_is_400(self, http_broker):
        _, url = http_broker
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(url, {"bogus": 1})
        assert excinfo.value.code == 400

    def test_broker_status_endpoint(self, http_broker):
        broker, url = http_broker
        deadline = time.monotonic() + 30.0
        while True:
            with urllib.request.urlopen(f"{url}/status") as reply:
                status = json.load(reply)
            if status["workers"] == 1:
                break
            assert time.monotonic() < deadline, "worker never connected"
            time.sleep(0.05)
        assert status["stats"]["submitted"] == 0


class TestJobSpec:
    def test_job_from_spec_round_trip(self):
        job = job_from_spec({"benchmarks": ["gzip", "twolf"],
                             "policy": "DCRA", "cycles": 2_000,
                             "warmup": 500, "seed": 4})
        assert job == SimJob(("gzip", "twolf"), "DCRA", None, 2_000, 500, 4)

    def test_job_from_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown submission field"):
            job_from_spec({"benchmarks": ["gzip"], "cyclez": 10})
        # There is one stepper: a spec naming a simulation backend is
        # malformed, which the HTTP facade answers with a 400.
        with pytest.raises(ValueError, match="unknown submission field"):
            job_from_spec({"benchmarks": ["gzip"], "backend": "scalar"})

    def test_job_from_spec_needs_benchmarks(self):
        with pytest.raises(ValueError, match="benchmarks"):
            job_from_spec({"policy": "DCRA"})

    def test_parse_broker_address(self):
        assert parse_broker_address("10.0.0.1:7340") == ("10.0.0.1", 7340)
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_broker_address("no-port")


class TestGracefulSignals:
    """SIGTERM/SIGINT finish the in-flight task, then deregister."""

    @pytest.fixture()
    def handlers(self):
        state = WorkerState()
        previous = install_signal_handlers(state)
        try:
            yield state
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def test_idle_worker_exits_immediately(self, handlers):
        with pytest.raises(GracefulExit):
            signal.raise_signal(signal.SIGTERM)
        assert handlers.stop_requested

    def test_busy_worker_latches_and_finishes(self, handlers):
        handlers.busy = True
        signal.raise_signal(signal.SIGTERM)  # no exception: keep working
        assert handlers.stop_requested
        with pytest.raises(GracefulExit):  # second signal forces out
            signal.raise_signal(signal.SIGTERM)

    def test_graceful_exit_is_not_swallowed_by_task_guards(self):
        # The task runner's broad `except Exception` must never eat a
        # shutdown request raised inside user simulation code.
        assert not issubclass(GracefulExit, Exception)

    def test_sigterm_mid_task_delivers_result_then_exits(self, tmp_path):
        marker = tmp_path / "started"
        with Broker(spawn_workers=1, durable=False) as broker:
            worker = broker._processes[0]
            with BrokerClient(broker.address) as client:
                route = client.open_route("sig")
                client.submit("sig", "task", payload=pickle.dumps(
                    (_marked_sleep, (str(marker), 1.0))))
                deadline = time.monotonic() + 30.0
                while not marker.exists():
                    assert time.monotonic() < deadline, \
                        "task never started"
                    time.sleep(0.02)
                worker.send_signal(signal.SIGTERM)
                message = route.get(timeout=30.0)
            # The in-flight task's result arrived intact...
            assert message[0] == "result"
            assert message[2] is True and message[3] == "done"
            # ...and the worker deregistered cleanly, exit code 0.
            assert worker.wait(timeout=10.0) == 0

    def test_sigterm_while_idle_exits_cleanly(self):
        with Broker(spawn_workers=1, durable=False) as broker:
            worker = broker._processes[0]
            deadline = time.monotonic() + 15.0
            while broker.status()["workers"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(timeout=10.0) == 0


class TestTimeoutConfiguration:
    """Satellite: fleet timeouts are configurable and validated."""

    def test_resolve_timeout_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_TIMEOUT", "42.5")
        assert resolve_timeout(7.0, "REPRO_TEST_TIMEOUT", 1.0, "t") == 7.0
        assert resolve_timeout(None, "REPRO_TEST_TIMEOUT", 1.0, "t") == 42.5
        monkeypatch.delenv("REPRO_TEST_TIMEOUT")
        assert resolve_timeout(None, "REPRO_TEST_TIMEOUT", 1.0, "t") == 1.0

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_explicit_nonpositive_is_an_error(self, value):
        with pytest.raises(ValueError, match="positive"):
            resolve_timeout(value, "REPRO_TEST_TIMEOUT", 1.0, "idle timeout")

    def test_env_nonpositive_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_IDLE_TIMEOUT", "0")
        with pytest.raises(ValueError, match="REPRO_REMOTE_IDLE_TIMEOUT"):
            RemoteExecutor(spawn_workers=0)

    def test_env_junk_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_HANDSHAKE_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="not a number"):
            RemoteExecutor(spawn_workers=0)

    def test_remote_executor_reads_env_timeouts(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_IDLE_TIMEOUT", "123")
        monkeypatch.setenv("REPRO_REMOTE_HANDSHAKE_TIMEOUT", "4.5")
        with RemoteExecutor(spawn_workers=0) as executor:
            assert executor.timeout == 123.0
            assert executor.handshake_timeout == 4.5

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_IDLE_TIMEOUT", "123")
        with RemoteExecutor(spawn_workers=0, timeout=9.0) as executor:
            assert executor.timeout == 9.0

    def test_make_executor_knows_broker(self, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER", raising=False)
        assert "broker" in EXECUTOR_NAMES
        with pytest.raises(ValueError, match="broker"):
            make_executor("broker", 2)  # no address anywhere

    def test_make_executor_passes_timeouts_through(self):
        with make_executor("remote", 0,
                           remote_idle_timeout=55.0) as executor:
            assert executor.timeout == 55.0
