"""Tests for the pluggable executor backends and streaming sweeps.

The acceptance contract: every backend — serial, local process pool,
remote socket workers — produces bitwise-identical
:class:`SimulationResult` lists for the same job list, and each
backend's streaming view (``map_unordered``) reassembles to exactly the
blocking output.
"""

import os
import time

import pytest

from repro.harness.engine import SimJob, run_job, run_jobs
from repro.harness.executors import (
    EXECUTOR_NAMES,
    Executor,
    ProcessExecutor,
    RemoteExecutor,
    SerialExecutor,
    make_executor,
)
from repro.harness.results import result_store

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
def remote_executor():
    """One loopback worker fleet shared by the module's remote tests."""
    with RemoteExecutor(spawn_workers=2, timeout=120.0) as executor:
        yield executor


@pytest.fixture(scope="module")
def reference_results():
    return [r for r in run_jobs(small_jobs(), max_workers=1)]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"task {x} exploded")


def _exit_worker(x):
    os._exit(1)


class TestBackendDeterminism:
    """Serial, process and remote runs must be bitwise-identical."""

    def test_serial_executor_matches_plain_run(self, reference_results):
        with SerialExecutor() as executor:
            assert run_jobs(small_jobs(), 1, executor) == reference_results

    def test_process_executor_matches_serial(self, reference_results):
        with ProcessExecutor(2) as executor:
            assert run_jobs(small_jobs(), 2, executor) == reference_results

    def test_remote_executor_matches_serial(self, remote_executor,
                                            reference_results):
        assert run_jobs(small_jobs(), 2, remote_executor) \
            == reference_results

    def test_executor_names_accepted_by_run_jobs(self, reference_results):
        # Name-based selection builds (and closes) a backend per call.
        assert run_jobs(small_jobs(), 2, "serial") == reference_results
        assert run_jobs(small_jobs(), 2, "process") == reference_results


class TestStreaming:
    """Streamed (index, result) pairs reassemble to the blocking output."""

    @staticmethod
    def _assert_stream_matches(executor, reference):
        pairs = list(executor.map_unordered(run_job, small_jobs()))
        assert sorted(index for index, _ in pairs) == list(range(len(pairs)))
        reassembled = [result for _, result in sorted(pairs)]
        assert reassembled == reference

    def test_serial_stream(self, reference_results):
        with SerialExecutor() as executor:
            self._assert_stream_matches(executor, reference_results)

    def test_process_stream(self, reference_results):
        with ProcessExecutor(2) as executor:
            self._assert_stream_matches(executor, reference_results)

    def test_remote_stream(self, remote_executor, reference_results):
        self._assert_stream_matches(remote_executor, reference_results)

    def test_serial_stream_is_in_submission_order(self):
        pairs = list(SerialExecutor().map_unordered(_square, range(10)))
        assert pairs == [(i, i * i) for i in range(10)]

    def test_process_stream_covers_every_index(self):
        with ProcessExecutor(3) as executor:
            pairs = list(executor.map_unordered(_square, range(10)))
        assert sorted(pairs) == [(i, i * i) for i in range(10)]


class TestExecutorBehaviour:
    def test_executor_is_reusable_across_calls(self, remote_executor):
        first = remote_executor.map(_square, range(8))
        second = remote_executor.map(_square, range(8))
        assert first == second == [i * i for i in range(8)]

    def test_remote_task_exception_propagates(self, remote_executor):
        with pytest.raises(RuntimeError, match="exploded"):
            remote_executor.map(_boom, [1])

    def test_remote_worker_survives_task_exception(self, remote_executor):
        with pytest.raises(RuntimeError):
            remote_executor.map(_boom, [1])
        assert remote_executor.map(_square, [3]) == [9]

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            SerialExecutor().map(_boom, [1])

    def test_empty_item_list(self, remote_executor):
        for executor in (SerialExecutor(), remote_executor):
            assert executor.map(_square, []) == []

    def test_closed_remote_executor_rejects_work(self):
        executor = RemoteExecutor(spawn_workers=1, timeout=60.0)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(executor.map_unordered(_square, [1]))

    def test_closed_process_executor_rejects_work(self):
        """Use-after-close raises rather than silently running serially."""
        executor = ProcessExecutor(2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_square, [1, 2])
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_square, [1])

    def test_closed_serial_executor_rejects_work(self):
        executor = SerialExecutor()
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.map(_square, [1])


class TestRemoteBatching:
    """One task per round trip, whatever the backlog, matches serial."""

    def test_fixed_batch_size_matches_serial(self):
        items = list(range(17))
        with RemoteExecutor(spawn_workers=2, timeout=120.0) as executor:
            assert executor.map(_square, items) == [i * i for i in items]

    def test_batch_of_one_matches_serial(self):
        items = list(range(5))
        with RemoteExecutor(spawn_workers=1, timeout=120.0) as executor:
            assert executor.map(_square, items) == [i * i for i in items]

    def test_adaptive_batching_on_deep_queue(self):
        """A deep backlog on one worker drains one task at a time."""
        items = list(range(40))
        with RemoteExecutor(spawn_workers=1, timeout=120.0) as executor:
            assert executor.map(_square, items) == [i * i for i in items]

    def test_exception_inside_a_batch_propagates(self):
        with RemoteExecutor(spawn_workers=1, timeout=120.0) as executor:
            with pytest.raises(RuntimeError, match="exploded"):
                executor.map(_boom, [1, 2, 3])
            # The worker survives the failing tasks and keeps serving.
            assert executor.map(_square, [5]) == [25]

    def test_sim_jobs_batched_match_reference(self, reference_results):
        with RemoteExecutor(spawn_workers=2, timeout=120.0) as executor:
            assert run_jobs(small_jobs(), 2, executor) == reference_results


class TestPrivateFleet:
    """The remote backend's private broker: fail fast, no store traffic."""

    def test_dead_fleet_fails_fast(self):
        start = time.monotonic()
        with RemoteExecutor(spawn_workers=2, timeout=60.0) as executor:
            with pytest.raises(RuntimeError,
                               match="loopback workers exited"):
                executor.map(_exit_worker, [1])
        assert time.monotonic() - start < 30.0

    def test_private_fleet_leaves_the_result_store_alone(
            self, reference_results):
        """Every item ships as an opaque task: a warm store is neither
        read (``reuse="off"`` still computes everything) nor written."""
        assert run_jobs(small_jobs(), reuse="auto") == reference_results
        before = result_store.stats.as_dict()
        with RemoteExecutor(spawn_workers=2, timeout=120.0) as executor:
            assert run_jobs(small_jobs(), 2, executor, reuse="off") \
                == reference_results
        assert result_store.stats.as_dict() == before


class TestMakeExecutor:
    def test_auto_is_serial_for_one_worker(self):
        assert isinstance(make_executor(None, 1), SerialExecutor)
        assert isinstance(make_executor("auto", 1), SerialExecutor)

    def test_auto_is_process_for_many_workers(self):
        executor = make_executor(None, 4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.max_workers == 4
        executor.close()

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert make_executor(executor, 8) is executor

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon", 2)

    def test_names_cover_cli_choices(self):
        assert set(EXECUTOR_NAMES) == {"auto", "serial", "process", "remote",
                                       "broker"}

    def test_every_backend_is_an_executor(self):
        for cls in (SerialExecutor, ProcessExecutor, RemoteExecutor):
            assert issubclass(cls, Executor)


class TestMapOrder:
    """``Executor.map`` reassembles completion-order results by index."""

    def test_local_backends_preserve_order(self):
        items = list(range(20))
        with ProcessExecutor(4) as pool:
            for executor in (SerialExecutor(), pool):
                assert executor.map(_square, items) == [i * i for i in items]
