"""Tests for the parallel experiment engine and the disk baseline cache."""

import os

import pytest

from repro.harness.engine import (
    Campaign,
    SimJob,
    baseline_job,
    derive_seed,
    execute,
    run_job,
    run_jobs,
)
from repro.harness.runner import (
    baseline_cache,
    clear_baseline_cache,
    single_thread_ipc,
)
from repro.pipeline.config import SMTConfig

CYCLES = 1_200
WARMUP = 300


def small_jobs():
    return [
        SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=3),
        SimJob(("mcf", "gzip"), "DCRA", None, CYCLES, WARMUP, seed=3),
        SimJob(("twolf",), ("DCRA", {"activity_window": 64}), None,
               CYCLES, WARMUP, seed=5),
        SimJob(("gzip", "twolf"), "FLUSH++", None, CYCLES, WARMUP, seed=7),
    ]


class TestSimJob:
    def test_benchmarks_coerced_to_tuple(self):
        job = SimJob(["gzip", "twolf"])
        assert job.benchmarks == ("gzip", "twolf")

    def test_run_job_matches_direct_run(self):
        from repro.harness.runner import run_benchmarks

        job = small_jobs()[0]
        direct = run_benchmarks(["gzip"], "ICOUNT", None, CYCLES, WARMUP, 3)
        assert run_job(job) == direct

    def test_derive_seed_is_deterministic_and_disjoint(self):
        seeds = [derive_seed(1, i) for i in range(50)]
        assert seeds == [derive_seed(1, i) for i in range(50)]
        assert len(set(seeds)) == 50


class TestRunJobs:
    def test_serial_results_in_submission_order(self):
        jobs = small_jobs()
        results = run_jobs(jobs, max_workers=1)
        assert [r.policy for r in results] == ["ICOUNT", "DCRA", "DCRA",
                                               "FLUSH++"]

    def test_parallel_identical_to_serial(self):
        """The acceptance contract: any worker count, bitwise-equal rows."""
        jobs = small_jobs()
        serial = run_jobs(jobs, max_workers=1)
        parallel = run_jobs(jobs, max_workers=2)
        assert parallel == serial  # dataclass equality covers every field


class TestBaselineCache:
    """Baseline-kind specifics; the shared mechanics are in
    ``test_results_store.TestStoreContract``."""

    def test_key_includes_config_cycles_warmup_seed(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_baseline_cache()
        single_thread_ipc("gzip", None, CYCLES, WARMUP, seed=12)
        single_thread_ipc("gzip", SMTConfig(int_iq_size=8), CYCLES, WARMUP,
                          seed=12)
        single_thread_ipc("gzip", None, CYCLES + 100, WARMUP, seed=12)
        single_thread_ipc("gzip", None, CYCLES, WARMUP + 100, seed=12)
        single_thread_ipc("gzip", None, CYCLES, WARMUP, seed=13)
        files = list((tmp_path / "baselines").glob("*.json"))
        assert len(files) == 5  # five distinct descriptors, five entries

    def test_disk_hit_skips_simulation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_baseline_cache()
        expected = single_thread_ipc("gzip", None, CYCLES, WARMUP, seed=12)
        clear_baseline_cache()  # drop memory, keep disk

        from repro.harness import engine, runner

        def boom(*args, **kwargs):
            raise AssertionError("simulated despite a disk cache hit")

        monkeypatch.setattr(runner, "run_benchmarks", boom)
        monkeypatch.setattr(engine, "run_job", boom)
        assert single_thread_ipc("gzip", None, CYCLES, WARMUP,
                                 seed=12) == expected


class TestCrossProcessCache:
    @staticmethod
    def baselines():
        campaign = Campaign()
        keys = [campaign.add("baseline",
                             baseline_job(b, None, CYCLES, WARMUP, 21))
                for b in ("gzip", "twolf")]
        return campaign, keys

    def test_workers_populate_shared_disk_cache(self, tmp_path, monkeypatch):
        """Baselines computed in pool workers must hit in the parent."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_baseline_cache()
        campaign, keys = self.baselines()
        payloads = execute(campaign, jobs=2).payloads
        singles = [payloads[key] for key in keys]
        assert singles == [single_thread_ipc(b, None, CYCLES, WARMUP, 21)
                           for b in ("gzip", "twolf")]
        # The write-back left disk entries behind ...
        files = list((tmp_path / "baselines").glob("*.json"))
        assert len(files) == 2
        # ... that a fresh process-side cache resolves without simulating.
        from repro.harness import runner

        clear_baseline_cache()

        def boom(*args, **kwargs):
            raise AssertionError("simulated despite warm disk cache")

        from repro.harness import engine

        monkeypatch.setattr(runner, "run_benchmarks", boom)
        monkeypatch.setattr(engine, "run_job", boom)
        campaign, keys = self.baselines()
        again = execute(campaign, reuse="require").payloads
        assert [again[key] for key in keys] == singles


class TestDriversParallelEqualSerial:
    def test_compare_policies(self):
        from repro.harness import experiments as exp

        kwargs = dict(cells=((2, "MIX"),), cycles=CYCLES, warmup=WARMUP)
        clear_baseline_cache()
        serial = exp.compare_policies(["ICOUNT", "DCRA"], jobs=1, **kwargs)
        clear_baseline_cache()
        parallel = exp.compare_policies(["ICOUNT", "DCRA"], jobs=2, **kwargs)
        assert parallel == serial

    def test_table5(self):
        from repro.harness import experiments as exp

        serial = exp.table5_phase_distribution(cycles=CYCLES, warmup=WARMUP,
                                               jobs=1)
        parallel = exp.table5_phase_distribution(cycles=CYCLES, warmup=WARMUP,
                                                 jobs=2)
        assert parallel == serial

    def test_figure2(self):
        from repro.harness import experiments as exp

        kwargs = dict(cycles=CYCLES, warmup=WARMUP, fractions=(0.5, 1.0),
                      resources=("int_iq",))
        assert exp.figure2_resource_sensitivity(jobs=2, **kwargs) \
            == exp.figure2_resource_sensitivity(jobs=1, **kwargs)


class TestCampaign:
    def test_identical_tasks_simulate_once(self, monkeypatch):
        """A baseline is an ordinary job: it shares one simulation with
        an identical measured run, and duplicate tasks collapse."""
        from repro.harness import engine

        calls = []
        simulate = engine.run_benchmarks
        monkeypatch.setattr(
            engine, "run_benchmarks",
            lambda *args, **kwargs: (calls.append(args),
                                     simulate(*args, **kwargs))[1])
        clear_baseline_cache()
        job = SimJob(("gzip",), "ICOUNT", None, CYCLES, WARMUP, seed=31)
        campaign = Campaign()
        result_key = campaign.add("result", job)
        assert campaign.add("result", job) == result_key
        baseline_key = campaign.add(
            "baseline", baseline_job("gzip", None, CYCLES, WARMUP, 31))
        assert len(campaign.tasks) == 2
        run = execute(campaign, reuse="auto")
        assert len(calls) == 1
        result = run.payloads[result_key]
        assert result == run_job(job)
        assert run.payloads[baseline_key] == result.threads[0].ipc
        assert baseline_cache.get("gzip", SMTConfig(), CYCLES, WARMUP,
                                  31) == result.threads[0].ipc
        # Baselines never enter the result store's counts.
        assert run.store_stats == {"jobs": 1, "hits": 0, "misses": 1,
                                   "stores": 1}

    def test_baselines_are_served_whatever_reuse_says(self):
        clear_baseline_cache()
        campaign = Campaign()
        key = campaign.add("baseline",
                           baseline_job("mcf", None, CYCLES, WARMUP, 32))
        cold = execute(campaign, reuse="off").payloads[key]
        # 'require' asserts a warm *result* store; a baseline is served
        # from (and, on a miss, written to) the baseline cache.
        clear_baseline_cache()
        again = execute(campaign, reuse="require")
        assert again.payloads[key] == cold
        assert again.store_stats["jobs"] == 0
