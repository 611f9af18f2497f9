"""Tests for the harness runner (workload execution and evaluation)."""

import pytest

from repro.harness.runner import (
    clear_baseline_cache,
    evaluate_workload,
    geometric_mean,
    improvement_pct,
    run_benchmarks,
    run_workload,
    single_thread_ipc,
)
from repro.pipeline.config import SMTConfig
from repro.trace.workloads import make_workload

CYCLES = 2_500
WARMUP = 500


class TestRunBenchmarks:
    def test_basic_run(self):
        result = run_benchmarks(["gzip"], "ICOUNT", cycles=CYCLES,
                                warmup=WARMUP)
        assert result.policy == "ICOUNT"
        assert result.cycles == CYCLES
        assert result.threads[0].ipc > 0

    def test_policy_tuple_spec(self):
        result = run_benchmarks(["gzip"], ("DCRA", {"activity_window": 64}),
                                cycles=CYCLES, warmup=WARMUP)
        assert result.policy == "DCRA"

    def test_same_seed_reproducible(self):
        a = run_benchmarks(["twolf"], "ICOUNT", cycles=CYCLES, warmup=WARMUP,
                           seed=5)
        b = run_benchmarks(["twolf"], "ICOUNT", cycles=CYCLES, warmup=WARMUP,
                           seed=5)
        assert a.threads[0].ipc == b.threads[0].ipc

    def test_run_workload_wrapper(self):
        workload = make_workload(2, "MIX", 1)
        result = run_workload(workload, "SRA", cycles=CYCLES, warmup=WARMUP)
        assert [t.benchmark for t in result.threads] \
            == list(workload.benchmarks)


class TestSingleThreadBaselines:
    def test_cached(self):
        clear_baseline_cache()
        first = single_thread_ipc("gzip", cycles=CYCLES, warmup=WARMUP)
        second = single_thread_ipc("gzip", cycles=CYCLES, warmup=WARMUP)
        assert first == second

    def test_cache_key_includes_config(self):
        clear_baseline_cache()
        small = SMTConfig(int_iq_size=8)
        a = single_thread_ipc("gzip", cycles=CYCLES, warmup=WARMUP)
        b = single_thread_ipc("gzip", small, cycles=CYCLES, warmup=WARMUP)
        assert a != b


class TestEvaluateWorkload:
    def test_multiple_policies(self):
        workload = make_workload(2, "MIX", 1)
        evaluations = evaluate_workload(workload, ["ICOUNT", "SRA"],
                                        cycles=CYCLES, warmup=WARMUP)
        assert set(evaluations) == {"ICOUNT", "SRA"}
        for evaluation in evaluations.values():
            assert evaluation.throughput > 0
            assert evaluation.hmean > 0


class TestHelpers:
    def test_improvement_pct(self):
        assert improvement_pct(1.1, 1.0) == pytest.approx(10.0)
        assert improvement_pct(0.9, 1.0) == pytest.approx(-10.0)

    def test_improvement_pct_degrades_on_zero_baseline(self):
        import math

        with pytest.warns(RuntimeWarning):
            assert math.isnan(improvement_pct(1.0, 0.0))

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_degrades_on_zero_value(self):
        with pytest.warns(RuntimeWarning):
            assert geometric_mean([1.0, 0.0]) == 0.0


class TestDegenerateWindows:
    """A window too short to commit anything must not crash evaluation."""

    def test_one_cycle_window_evaluates(self):
        workload = make_workload(2, "MEM", 1)
        with pytest.warns(RuntimeWarning):
            evaluations = evaluate_workload(workload, ["ICOUNT"],
                                            cycles=1, warmup=0)
        evaluation = evaluations["ICOUNT"]
        assert evaluation.hmean == 0.0
        assert evaluation.throughput == 0.0
        assert all(t.ipc == 0.0 for t in evaluation.result.threads)

    def test_one_cycle_window_run_benchmarks(self):
        result = run_benchmarks(["gzip"], "ICOUNT", cycles=1, warmup=0)
        assert result.threads[0].committed == 0
        assert result.threads[0].ipc == 0.0


def test_runner_import_loads_no_service_layer():
    """A fresh ``import repro.harness.runner`` (what a run needs) leaves
    the service layers unloaded; every package export still resolves
    and is listed by ``dir()``."""
    import subprocess
    import sys
    from pathlib import Path

    import repro
    import repro.harness

    script = (
        "import sys\n"
        "import repro.harness.runner\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n")
    unloaded = ["asyncio", "http.server", "repro.harness.broker",
                "repro.harness.executors", "repro.harness.scenario"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *unloaded], capture_output=True,
        text=True, check=True,
        cwd=str(Path(__file__).resolve().parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert proc.stdout.strip() == "[]"
    for package in (repro, repro.harness):
        for name in package.__all__:
            assert getattr(package, name) is not None
            assert name in dir(package)
