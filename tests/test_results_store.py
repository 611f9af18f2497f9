"""Content-addressed stores: the core contract every kind shares, and
the result store's keys, round-trips and reuse modes."""

import dataclasses
import gzip
import json
import os
import sys
import threading
import time
from typing import Callable

import pytest

from repro.harness import results as results_mod
from repro.harness.checkpoints import CheckpointStore
from repro.harness.engine import SimJob, run_job, run_jobs
from repro.harness.executors import SerialExecutor
from repro.harness.results import (
    ResultStore,
    ResultStoreMiss,
    interval_run_from_payload,
    interval_run_to_payload,
    job_token,
    normalize_reuse,
    policy_token,
    result_from_payload,
    result_to_payload,
    timeline_from_payload,
    timeline_to_payload,
)
from repro.harness.runner import BaselineCache, run_benchmarks_intervals
from repro.harness.warmup import WarmupPolicy
from repro.metrics.stats import SimulationResult, ThreadResult
from repro.pipeline.config import SMTConfig

CYCLES = 1_500
WARMUP = 300

JOB = SimJob(("gzip", "twolf"), "DCRA", None, CYCLES, WARMUP, seed=3)


class TestKeys:
    def test_config_none_keys_like_table2_baseline(self):
        explicit = dataclasses.replace(JOB, config=SMTConfig())
        assert job_token(JOB) == job_token(explicit)

    def test_tag_is_not_identity(self):
        assert job_token(JOB) == job_token(
            dataclasses.replace(JOB, tag="some-label"))

    def test_every_real_input_changes_the_token(self):
        tokens = {job_token(JOB)}
        variants = [
            dataclasses.replace(JOB, benchmarks=("gzip", "mcf")),
            dataclasses.replace(JOB, policy="ICOUNT"),
            dataclasses.replace(JOB, config=SMTConfig(rob_size=64)),
            dataclasses.replace(JOB, cycles=CYCLES + 1),
            dataclasses.replace(JOB, warmup=WARMUP + 1),
            dataclasses.replace(JOB, seed=4),
            dataclasses.replace(JOB, interval_cycles=500),
            dataclasses.replace(
                JOB, warmup=WarmupPolicy.steady_state(max_warmup=WARMUP)),
        ]
        for variant in variants:
            tokens.add(job_token(variant))
        assert len(tokens) == len(variants) + 1

    def test_policy_token_sorts_kwargs(self):
        assert policy_token(("DCRA", {"a": 1, "b": 2})) == \
            policy_token(("DCRA", {"b": 2, "a": 1}))

    def test_fixed_warmup_policy_keys_like_plain_int(self):
        assert job_token(JOB) == job_token(
            dataclasses.replace(JOB, warmup=WarmupPolicy.fixed(WARMUP)))

    def test_normalize_reuse_rejects_unknown(self):
        assert normalize_reuse(None) == "off"
        with pytest.raises(ValueError, match="unknown reuse mode"):
            normalize_reuse("always")


class TestPayloadRoundTrips:
    def test_result_round_trip_is_exact(self):
        result = run_job(JOB)
        clone = result_from_payload(
            json.loads(json.dumps(result_to_payload(result))))
        assert clone == result

    def test_interval_run_round_trip_is_exact(self):
        run = run_benchmarks_intervals(
            ["mcf", "gzip"], "DCRA", None, CYCLES, WARMUP, seed=5,
            interval_cycles=500, warmup_as_intervals=True)
        clone = interval_run_from_payload(
            json.loads(json.dumps(interval_run_to_payload(run))))
        assert clone.result == run.result
        assert clone.interval_cycles == run.interval_cycles
        assert clone.warmup_cycles == run.warmup_cycles
        assert clone.warmup_converged == run.warmup_converged
        assert clone.recorder.snapshots == run.recorder.snapshots
        assert clone.recorder.discarded == run.recorder.discarded

    def test_phase_timeline_round_trip_is_exact(self):
        run = run_benchmarks_intervals(
            ["mcf", "twolf"], "DCRA", None, CYCLES, WARMUP, seed=5,
            interval_cycles=500)
        timeline = run.recorder.phase_timeline()
        clone = timeline_from_payload(
            json.loads(json.dumps(timeline_to_payload(timeline))))
        assert clone == timeline


class TestStore:
    """Result-kind specifics; the shared mechanics are in
    :class:`TestStoreContract`."""

    def test_require_raises_on_cold_store(self):
        with pytest.raises(ResultStoreMiss, match="no stored result"):
            ResultStore().require(JOB)

    def test_kinds_key_separately(self):
        store = ResultStore()
        store.put(JOB, run_job(JOB), "result")
        assert store.get(JOB, "phase_timeline") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown payload kind"):
            ResultStore().get(JOB, "bogus")


def _result(i: int) -> SimulationResult:
    thread = ThreadResult("gzip", 1_500 + i, 1.5, 1_800, 100, 50, 0.05,
                          0.01, 0.2, 0.1)
    return SimulationResult("ICOUNT", CYCLES + i, [thread], 0.25, WARMUP)


@dataclasses.dataclass(frozen=True)
class StoreKind:
    """How the contract drives one store kind: the ``get``/``put``
    arguments of entry ``i`` (those before the value) and its value."""

    store: type
    args: Callable[[int], tuple]
    value: Callable[[int], object]

    def put(self, store, i: int = 0) -> None:
        store.put(*self.args(i), self.value(i))

    def get(self, store, i: int = 0):
        return store.get(*self.args(i))


KINDS = {
    "results": StoreKind(
        ResultStore, lambda i: (dataclasses.replace(JOB, seed=100 + i),),
        _result),
    "checkpoints": StoreKind(
        CheckpointStore, lambda i: (f"gzip|ICOUNT|cfg|{WARMUP}|{i}|mono",),
        lambda i: {"policy": "ICOUNT", "warmup_cycles": WARMUP,
                   "warmup_converged": None, "discarded": [],
                   "state": {"seed": i}}),
    "baselines": StoreKind(
        BaselineCache, lambda i: ("gzip", SMTConfig(), CYCLES, WARMUP, i),
        lambda i: 1.0 + i / 8),
}


def _reencode(entry, gzipped: bool) -> bytes:
    raw = json.dumps(entry).encode()
    return gzip.compress(raw) if gzipped else raw


def _flip_middle_byte(raw: bytes, gzipped: bool) -> bytes:
    middle = len(raw) // 2
    return raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1:]


def _wrong_data_shape(raw: bytes, gzipped: bool) -> bytes:
    entry = json.loads(gzip.decompress(raw) if gzipped else raw)
    entry["data"] = {"unexpected": [1, 2]}
    return _reencode(entry, gzipped)


#: Ways an entry file can be damaged: (raw bytes, gzipped?) -> bytes.
CORRUPTIONS = {
    "flipped byte": _flip_middle_byte,
    "truncated": lambda raw, gzipped: raw[:len(raw) // 2],
    "json array": lambda raw, gzipped: _reencode([1, 2], gzipped),
    "wrong data shape": _wrong_data_shape,
}


@pytest.fixture(params=sorted(KINDS))
def kind(request) -> StoreKind:
    return KINDS[request.param]


class TestStoreContract:
    """What every store kind gets from the shared core, per kind."""

    def test_miss_then_hit_with_stats(self, kind):
        store = kind.store()
        assert kind.get(store) is None
        kind.put(store)
        assert kind.get(store) == kind.value(0)
        assert store.stats.as_dict() == {"hits": 1, "misses": 1,
                                         "stores": 1}

    def test_disk_hit_from_fresh_instance(self, kind, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kind.put(kind.store())
        (path,) = (tmp_path / kind.store.subdir).iterdir()
        assert path.name.endswith(".json.gz" if kind.store.gzipped
                                  else ".json")
        assert kind.get(kind.store()) == kind.value(0)

    @pytest.mark.parametrize("attr, value", [
        ("_fingerprint_cache", "0123456789abcdef"),
        ("STORE_VERSION", results_mod.STORE_VERSION + 1),
    ], ids=["fingerprint", "version"])
    def test_stale_entry_misses(self, kind, attr, value, monkeypatch):
        kind.put(kind.store())
        monkeypatch.setattr(results_mod, attr, value)
        store = kind.store()
        assert kind.get(store) is None
        (entry,) = store.list_entries()
        assert "stale entry" in store.explain_miss(entry["kind"],
                                                   entry["token"])

    def test_clear_disk_removes_the_directory(self, kind):
        store = kind.store()
        kind.put(store)
        store.clear(disk=True)
        assert not store.directory().exists()
        assert kind.get(store) is None

    def test_list_remove_gc(self, kind):
        store = kind.store()
        for i in range(4):
            kind.put(store, i)
        entries = list(store.list_entries())
        assert len(entries) == 4
        assert all(entry["current"] for entry in entries)
        values = [kind.value(i) for i in range(4)]
        assert all(entry["data"] in values for entry in entries)
        keys = [entry["key"] for entry in entries]
        sizes = {entry["key"]: entry["size"] for entry in entries}

        def age(key: str, seconds: float) -> None:
            (path,) = store.directory().glob(key + "*")
            os.utime(path, (time.time() - seconds,) * 2)

        assert store.remove(keys[0][:12]) == 1
        age(keys[1], 2 * 86400)
        assert store.gc(max_age_days=1) == (1, sizes[keys[1]])
        age(keys[2], 100)
        age(keys[3], 50)
        # By size, the oldest entries go until the rest fits.
        assert store.gc(max_total_bytes=sizes[keys[3]]) == \
            (1, sizes[keys[2]])
        assert [entry["key"] for entry in store.list_entries()] == [keys[3]]
        assert store.gc(max_total_bytes=0) == (1, sizes[keys[3]])
        assert list(store.list_entries()) == []

    def test_racing_puts_leave_one_readable_entry(self, kind):
        store = kind.store()
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait(timeout=10)
            kind.put(store)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        (path,) = store.directory().iterdir()  # no temporary file left
        assert not path.name.endswith(".tmp")
        assert kind.get(kind.store()) == kind.value(0)

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_unreadable_entry_is_a_miss(self, kind, corrupt):
        store = kind.store()
        kind.put(store)
        (path,) = store.directory().iterdir()
        damaged = CORRUPTIONS[corrupt](path.read_bytes(), store.gzipped)
        # Listing skips the entry; removal works from file names.
        path.write_bytes(damaged)
        assert list(kind.store().list_entries()) == []
        assert store.remove("") == 1 and not path.exists()
        # A read is a miss that removes the file; the next put rewrites it.
        path.write_bytes(damaged)
        fresh = kind.store()
        assert kind.get(fresh) is None and not path.exists()
        kind.put(fresh)
        assert kind.get(kind.store()) == kind.value(0)


class TestEngineReuse:
    JOBS = [SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=s)
            for s in (1, 2, 3)]

    def test_auto_reuse_is_bitwise_identical(self):
        store = ResultStore()
        cold = run_jobs(self.JOBS, reuse="auto", store=store)
        assert store.stats.stores == len(self.JOBS)
        warm = run_jobs(self.JOBS, reuse="auto", store=store)
        assert warm == cold
        assert store.stats.stores == len(self.JOBS)  # nothing recomputed

    def test_require_runs_zero_simulations(self, monkeypatch):
        store = ResultStore()
        cold = run_jobs(self.JOBS, reuse="auto", store=store)

        from repro.harness import engine

        def boom(job):
            raise AssertionError("simulated despite reuse='require'")

        monkeypatch.setattr(engine, "run_job", boom)
        assert run_jobs(self.JOBS, reuse="require", store=store) == cold

    def test_require_raises_on_missing_job(self):
        store = ResultStore()
        run_jobs(self.JOBS[:2], reuse="auto", store=store)
        with pytest.raises(ResultStoreMiss):
            run_jobs(self.JOBS, reuse="require", store=store)

    def test_partial_reuse_fills_the_gaps(self):
        store = ResultStore()
        cold = run_jobs(self.JOBS, reuse="off")
        run_jobs(self.JOBS[1:2], reuse="auto", store=store)
        mixed = run_jobs(self.JOBS, reuse="auto", store=store)
        assert mixed == cold
        assert store.stats.stores == len(self.JOBS)

    def test_reuse_across_executors(self):
        """A store warmed on one backend serves every other backend."""
        store = ResultStore()
        with SerialExecutor() as serial:
            cold = run_jobs(self.JOBS, executor=serial, reuse="auto",
                            store=store)
        # 'require' proves no simulation can happen, whatever the
        # backend: hits are resolved before any dispatch.
        from repro.harness.executors import ProcessExecutor, RemoteExecutor

        for backend_factory in (SerialExecutor,
                                lambda: ProcessExecutor(2),
                                lambda: RemoteExecutor(spawn_workers=2)):
            with backend_factory() as backend:
                warm = run_jobs(self.JOBS, 2, backend, reuse="require",
                                store=store)
            assert warm == cold
