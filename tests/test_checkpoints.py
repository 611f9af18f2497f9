"""Checkpointable state + shared-prefix sweeps: the bitwise contract.

The acceptance gate of the checkpoint subsystem is a single invariant,
pinned here from every angle: a run forked from a captured/stored
warm-up state is **bitwise identical** to the uninterrupted run —
per policy, per thread count, per run mode, per executor, and across
a JSON round-trip through another process.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.harness import results as results_mod
from repro.harness.checkpoints import (
    CheckpointMiss,
    checkpoint_store,
    prefix_token,
    warmup_boundary_token,
)
from repro.harness.engine import (
    SimJob,
    ensure_checkpoints,
    factor_prefixes,
    run_job,
)
from repro.harness.results import (
    ResultStoreMiss,
    interval_run_to_payload,
    job_token,
    result_store,
)
from repro.harness.runner import (
    _build_processor,
    run_benchmarks,
    run_benchmarks_intervals,
)
from repro.harness.scenario import Scenario, run_scenario
from repro.harness.warmup import WarmupPolicy, as_warmup_policy
from repro.mem.hierarchy import MemoryHierarchy
from repro.pipeline.config import SMTConfig
from repro.policies.registry import POLICY_NAMES
from repro.snapshot import SNAPSHOT_VERSION, SnapshotError

BENCHMARKS = ("gzip", "twolf", "art", "mcf", "vpr", "equake")


def state_key(processor):
    """Canonical bitwise fingerprint of a processor's full state."""
    return json.dumps(processor.capture_state(), sort_keys=True)


def result_key(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def forbid_prewarm(monkeypatch):
    """Make any pre-warm fail: a processor built from a state must
    restore its caches, never install them first."""
    def prewarm(*_args, **_kwargs):
        raise AssertionError("a processor built from a state pre-warmed")

    monkeypatch.setattr(MemoryHierarchy, "prewarm", prewarm)


# --------------------------------------------------------------------------
# Property suite: capture -> restore -> run == uninterrupted, everywhere
# --------------------------------------------------------------------------

class TestRestoreBitwise:
    """Every registry policy, several thread counts, one invariant."""

    @pytest.mark.parametrize("policy", list(POLICY_NAMES))
    @pytest.mark.parametrize("num_threads", [1, 2, 4, 6])
    def test_restore_then_run_matches_uninterrupted(
            self, policy, num_threads, small_config, monkeypatch):
        benchmarks = BENCHMARKS[:num_threads]
        # Leave a rename pool after carving out per-thread arch state.
        regs = 128 + 32 * num_threads
        config = dataclasses.replace(small_config,
                                     int_physical_registers=regs,
                                     fp_physical_registers=regs)
        straight = _build_processor(benchmarks, policy, config, seed=9)
        straight.run(700)
        # JSON round-trip: what the disk store would serve.
        state = json.loads(json.dumps(straight.capture_state()))
        straight.run(500)

        forked = _build_processor(benchmarks, policy, config, seed=9)
        forked.restore_state(state)
        forked.run(500)
        forbid_prewarm(monkeypatch)
        built = _build_processor(benchmarks, policy, config, seed=9,
                                 state=state)
        built.run(500)
        assert state_key(forked) == state_key(straight) == state_key(built)

    @pytest.mark.parametrize("policy", ["DCRA", "DCRA-ADAPT"])
    def test_restored_construction_forks_warmup(self, policy, small_config,
                                                monkeypatch):
        """Built from another policy's warm-up without its policy state,
        as the runner forks: equal to construct-then-restore."""
        warm = _build_processor(("gzip", "mcf"), "ICOUNT", small_config, 4)
        warm.run(600)
        state = json.loads(json.dumps(warm.capture_state()))
        forked = _build_processor(("gzip", "mcf"), policy, small_config, 4)
        forked.restore_state(state, restore_policy=False)
        forked.run(500)
        forbid_prewarm(monkeypatch)
        built = _build_processor(("gzip", "mcf"), policy, small_config, 4,
                                 state=state, restore_policy=False)
        built.run(500)
        assert state_key(built) == state_key(forked)

    def test_restore_across_process(self, small_config, tmp_path):
        """A state captured here restores bitwise in a fresh process."""
        processor = _build_processor(("gzip", "mcf"), "DCRA", small_config, 3)
        processor.run(600)
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(processor.capture_state()))
        processor.run(400)
        expected = state_key(processor)

        script = (
            "import json, sys\n"
            "from repro.harness.runner import _build_processor\n"
            "from repro.pipeline.config import SMTConfig\n"
            "config = SMTConfig(**json.loads(sys.argv[2]))\n"
            "p = _build_processor(('gzip', 'mcf'), 'DCRA', config, 3)\n"
            "p.restore_state(json.loads(open(sys.argv[1]).read()))\n"
            "p.run(400)\n"
            "print(json.dumps(p.capture_state(), sort_keys=True))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(state_path),
             json.dumps(dataclasses.asdict(small_config))],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
        assert proc.stdout.strip() == expected

    def test_capture_does_not_depend_on_prune_history(self):
        """Each trace window is captured from its thread's low-water
        mark, so a twin pruned just before the capture captures the same
        tree, and the capture itself prunes nothing."""
        def warmed():
            processor = _build_processor(BENCHMARKS[:4], "ICOUNT", None, 2)
            processor.run(1_500)  # past the 1,024-cycle prune, unaligned
            return processor

        processor = warmed()
        bases = [thread.trace._base for thread in processor.threads]
        state = processor.capture_state()
        assert [thread.trace._base for thread in processor.threads] == bases
        twin = warmed()
        for thread in twin.threads:
            thread.prune_trace()
        assert json.dumps(state, sort_keys=True) == state_key(twin)
        for thread, tstate in zip(processor.threads, state["threads"]):
            low_water = thread.trace_low_water()
            assert tstate["trace"]["base"] == low_water
            assert low_water > thread.trace._base  # the twin pruned more
            assert len(tstate["trace"]["ops"]) == \
                len(thread.trace) - low_water

    def test_version_mismatch_rejected(self, small_config):
        processor = _build_processor(("gzip",), "ICOUNT", small_config, 1)
        processor.run(100)
        state = processor.capture_state()
        assert state["version"] == SNAPSHOT_VERSION
        state["version"] = SNAPSHOT_VERSION + 1
        fresh = _build_processor(("gzip",), "ICOUNT", small_config, 1)
        with pytest.raises(SnapshotError, match="version"):
            fresh.restore_state(state)

    def test_thread_count_mismatch_rejected(self, small_config):
        processor = _build_processor(("gzip", "mcf"), "ICOUNT",
                                     small_config, 1)
        processor.run(100)
        fresh = _build_processor(("gzip",), "ICOUNT", small_config, 1)
        with pytest.raises(SnapshotError, match="thread"):
            fresh.restore_state(processor.capture_state())

    @pytest.mark.parametrize("changes,structure", [
        ({"l2_size": 256 * 1024}, "L2"),
        ({"l2_size": 1024 * 1024}, "L2"),
        ({"l2_size": 256 * 1024, "l2_assoc": 4}, "L2"),  # same set count
        ({"l1d_size": 32 * 1024}, "L1D"),
        ({"tlb_entries": 32}, "TLB"),
        ({"gshare_entries": 8 * 1024}, "gshare"),
        ({"gshare_entries": 32 * 1024}, "gshare"),
        ({"btb_entries": 128}, "BTB"),
        ({"btb_entries": 64, "btb_assoc": 1}, "BTB"),  # same set count
        ({"mshr_capacity": 8}, "MSHR"),
    ])
    def test_geometry_mismatch_rejected(self, changes, structure):
        processor = _build_processor(("mcf", "art"), "ICOUNT", SMTConfig(),
                                     1)
        processor.run(300)
        state = processor.capture_state()
        # Enough translations and fills in flight to overflow the
        # smaller TLB and MSHR file.
        assert len(state["hierarchy"]["dtlb"]["pages"]) > 32
        assert len(state["hierarchy"]["mshrs"]["entries"]) > 8
        config = dataclasses.replace(SMTConfig(), **changes)
        fresh = _build_processor(("mcf", "art"), "ICOUNT", config, 1)
        with pytest.raises(SnapshotError, match=f"^{structure} snapshot"):
            fresh.restore_state(state)


# --------------------------------------------------------------------------
# Runner: checkpointed warm-up == plain warm-up, both run modes
# --------------------------------------------------------------------------

class TestRunnerCheckpoints:
    def test_cold_then_warm_bitwise(self, small_config):
        plain = run_benchmarks(("gzip", "twolf"), "DCRA", small_config,
                               cycles=800, warmup=600, seed=5)
        cold = run_benchmarks(("gzip", "twolf"), "DCRA", small_config,
                              cycles=800, warmup=600, seed=5,
                              checkpoint="auto")
        warm = run_benchmarks(("gzip", "twolf"), "DCRA", small_config,
                              cycles=800, warmup=600, seed=5,
                              checkpoint="require")
        assert result_key(plain) == result_key(cold) == result_key(warm)
        stats = checkpoint_store.stats
        assert stats.stores == 1 and stats.hits >= 1

    def test_interval_adaptive_cold_then_warm(self, small_config):
        warmup = WarmupPolicy.steady_state(window=3, rel_tol=0.2,
                                           max_warmup=1_500)

        def run(**kwargs):
            return run_benchmarks_intervals(
                ("vpr", "mcf"), "DCRA-ADAPT", small_config, cycles=900,
                warmup=warmup, seed=4, interval_cycles=300, **kwargs)

        plain, cold, warm = (run(), run(checkpoint="auto"),
                             run(checkpoint="require"))
        # The whole interval run — aggregate, measured snapshots AND
        # discarded warm-up snapshots — must round-trip bitwise.
        assert (json.dumps(interval_run_to_payload(plain), sort_keys=True)
                == json.dumps(interval_run_to_payload(cold), sort_keys=True)
                == json.dumps(interval_run_to_payload(warm), sort_keys=True))

    def test_fork_lead_policy_identical_to_plain(self, small_config):
        plain = run_benchmarks(("gzip", "twolf"), "ICOUNT", small_config,
                               cycles=600, warmup=500, seed=2)
        forked = run_benchmarks(("gzip", "twolf"), "ICOUNT", small_config,
                                cycles=600, warmup=500, seed=2,
                                checkpoint="auto", warmup_policy="ICOUNT")
        assert result_key(plain) == result_key(forked)

    def test_fork_is_deterministic_and_distinct(self, small_config):
        def forked():
            return run_benchmarks(("gzip", "twolf"), "DCRA", small_config,
                                  cycles=600, warmup=500, seed=2,
                                  checkpoint="auto", warmup_policy="ICOUNT")

        plain = run_benchmarks(("gzip", "twolf"), "DCRA", small_config,
                               cycles=600, warmup=500, seed=2)
        first, second = forked(), forked()
        assert result_key(first) == result_key(second)
        # Measuring DCRA from ICOUNT's warm state is a different
        # experiment than warming under DCRA itself.
        assert result_key(first) != result_key(plain)

    def test_warmup_as_intervals_rejects_checkpointing(self, small_config):
        with pytest.raises(ValueError, match="warmup_as_intervals"):
            run_benchmarks_intervals(("gzip",), "ICOUNT", small_config,
                                     cycles=300, warmup=300, seed=1,
                                     interval_cycles=150,
                                     warmup_as_intervals=True,
                                     checkpoint="auto")

    def test_zero_warmup_needs_no_checkpoint(self, small_config):
        plain = run_benchmarks(("gzip",), "ICOUNT", small_config,
                               cycles=300, warmup=0, seed=1)
        auto = run_benchmarks(("gzip",), "ICOUNT", small_config,
                              cycles=300, warmup=0, seed=1,
                              checkpoint="auto")
        assert result_key(plain) == result_key(auto)
        assert checkpoint_store.stats.stores == 0


# --------------------------------------------------------------------------
# Store: keying, staleness, listing, gc, miss diagnostics
# --------------------------------------------------------------------------

class TestCheckpointStore:
    def test_miss_diff_names_the_differing_component(self, small_config):
        run_benchmarks(("gzip", "twolf"), "DCRA", small_config, cycles=300,
                       warmup=400, seed=1, checkpoint="auto")
        with pytest.raises(CheckpointMiss, match="seed: '2' != '1'"):
            run_benchmarks(("gzip", "twolf"), "DCRA", small_config,
                           cycles=300, warmup=400, seed=2,
                           checkpoint="require")

    def test_result_store_miss_diff(self, small_config):
        job = SimJob(("gzip",), "ICOUNT", small_config, 300, 200, seed=1)
        run_job_and_store(job)
        probe = dataclasses.replace(job, policy="DCRA")
        with pytest.raises(ResultStoreMiss,
                           match="policy: 'DCRA' != 'ICOUNT'"):
            result_store.require(probe)

    def test_result_store_miss_on_empty_store(self, small_config):
        job = SimJob(("gzip",), "ICOUNT", small_config, 300, 200, seed=1)
        with pytest.raises(ResultStoreMiss, match="no entries"):
            result_store.require(job)

    def test_boundary_tokens_separate_run_modes(self):
        fixed = as_warmup_policy(2_000)
        auto = WarmupPolicy.steady_state()
        assert warmup_boundary_token(fixed, None) == "mono"
        assert warmup_boundary_token(fixed, 500) == "mono"
        assert warmup_boundary_token(auto, None) != \
            warmup_boundary_token(auto, 500)

    def test_job_token_wp_suffix_only_when_forking(self):
        base = SimJob(("gzip",), "DCRA")
        forked = dataclasses.replace(base, warmup_policy="ICOUNT")
        assert "|wp=" not in job_token(base)
        assert job_token(forked) == job_token(base) + "|wp=ICOUNT"
        # checkpoint mode is bookkeeping, never identity
        assert job_token(dataclasses.replace(base, checkpoint="auto")) \
            == job_token(base)


def run_job_and_store(job):
    result_store.put(job, run_job(job), "result")


# --------------------------------------------------------------------------
# Engine + scenario: shared prefixes execute exactly once, on any backend
# --------------------------------------------------------------------------

class TestPrefixSharing:
    def jobs(self, small_config):
        return [SimJob(("gzip", "art"), policy, small_config, 400, 500,
                       seed=7, checkpoint="auto",
                       warmup_policy=None if policy == "ICOUNT"
                       else "ICOUNT")
                for policy in ("ICOUNT", "STALL", "FLUSH", "DCRA")]

    def test_factor_prefixes_collapses_shared_warmup(self, small_config):
        groups = factor_prefixes(self.jobs(small_config))
        assert len(groups) == 1
        (indices,) = groups.values()
        assert indices == [0, 1, 2, 3]

    def test_prefix_executes_exactly_once(self, small_config):
        jobs = self.jobs(small_config)
        stats = ensure_checkpoints(jobs)
        assert stats == {"prefixes": 1, "jobs": 4, "hits": 0, "computed": 1}
        stores_before = checkpoint_store.stats.stores
        for job in jobs:
            run_job(job)
        # Every job restored the shared prefix; none re-simulated it.
        assert checkpoint_store.stats.stores == stores_before
        assert ensure_checkpoints(jobs)["computed"] == 0

    def test_serial_prefixes_are_written_once(self, small_config,
                                              monkeypatch):
        """The in-process computation writes each checkpoint; the
        parent's mirroring put finds the file and leaves it alone."""
        written = []
        write = results_mod.atomic_write
        monkeypatch.setattr(results_mod, "atomic_write",
                            lambda path, data: (written.append(path),
                                                write(path, data)))
        jobs = [SimJob(("gzip",), "ICOUNT", small_config, 200, 300,
                       seed=seed, checkpoint="auto") for seed in (1, 2)]
        assert ensure_checkpoints(jobs)["computed"] == 2
        assert len(written) == 2

    def test_scenario_shared_warmup_identical_across_executors(
            self, small_config):
        scenario = Scenario(
            name="shared", workloads=("gzip+twolf",),
            policies=("ICOUNT", "DCRA"), config=small_config,
            cycles=400, warmup=500, seed=3, shared_warmup=True)
        serial = run_scenario(scenario, reuse="off")
        assert serial.checkpoint_stats == {
            "prefixes": 1, "jobs": 2, "hits": 0, "computed": 1}
        parallel = run_scenario(scenario, jobs=2, executor="process",
                                reuse="off")
        assert ([result_key(r) for r in serial.results]
                == [result_key(r) for r in parallel.results])

    def test_scenario_plain_vs_shared_lead_policy(self, small_config):
        shared = Scenario(
            name="shared", workloads=("gzip+twolf",),
            policies=("ICOUNT", "DCRA"), config=small_config,
            cycles=400, warmup=500, seed=3, shared_warmup=True)
        plain = dataclasses.replace(shared, name="plain",
                                    shared_warmup=False)
        shared_run = run_scenario(shared, reuse="off")
        plain_run = run_scenario(plain, reuse="off")
        # The lead policy's job is the same experiment either way.
        assert result_key(shared_run.results[0]) \
            == result_key(plain_run.results[0])

    def test_warm_result_store_skips_prefix_phase(self, small_config):
        scenario = Scenario(
            name="shared", workloads=("gzip+twolf",),
            policies=("ICOUNT", "DCRA"), config=small_config,
            cycles=400, warmup=500, seed=3, shared_warmup=True)
        first = run_scenario(scenario, reuse="auto")
        assert first.checkpoint_stats["computed"] == 1
        second = run_scenario(scenario, reuse="auto")
        assert second.store_stats["hits"] == 2
        assert second.checkpoint_stats == {
            "prefixes": 0, "jobs": 0, "hits": 0, "computed": 0}


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

class TestCheckpointCli:
    def test_list_rm_gc_roundtrip(self, small_config, capsys):
        run_benchmarks(("gzip",), "ICOUNT", small_config, cycles=150,
                       warmup=250, seed=1, checkpoint="auto")
        assert cli.main(["checkpoint", "list"]) == 0
        out = capsys.readouterr().out
        assert "1 checkpoint(s)" in out and "gzip|ICOUNT" in out

        key = next(checkpoint_store.list_entries())["key"]
        assert cli.main(["checkpoint", "rm", key[:10]]) == 0
        assert "removed 1" in capsys.readouterr().out

        assert cli.main(["checkpoint", "gc", "--max-total-mb", "0"]) == 0
        assert cli.main(["checkpoint", "list"]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_gc_requires_a_bound(self):
        with pytest.raises(SystemExit):
            cli.main(["checkpoint", "gc"])

    def test_scenario_checkpoint_require_cold_fails(self, small_config,
                                                    tmp_path, capsys):
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({
            "name": "cli", "workloads": ["gzip+twolf"],
            "policies": ["ICOUNT", "DCRA"], "cycles": 300, "warmup": 400,
            "shared_warmup": True}))
        assert cli.main(["scenario", "run", str(spec), "--no-hmean",
                         "--checkpoint", "require"]) == 3
        assert "no stored checkpoint" in capsys.readouterr().err
        # auto computes, then require succeeds against the warm store
        assert cli.main(["scenario", "run", str(spec), "--no-hmean"]) == 0
        capsys.readouterr()
        assert cli.main(["scenario", "run", str(spec), "--no-hmean",
                         "--reuse", "off", "--checkpoint", "require"]) == 0
        assert "1 reused, 0 computed" in capsys.readouterr().err
