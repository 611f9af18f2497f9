"""Integration tests for the SMT pipeline."""

import pytest

from repro.isa.instruction import ST_COMMITTED, ST_SQUASHED
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.basic import IcountPolicy
from repro.policies.registry import make_policy
from repro.trace.profiles import get_profile


def build(benchmarks=("gzip",), policy=None, config=None, seed=1):
    return SMTProcessor(config or SMTConfig(),
                        [get_profile(b) for b in benchmarks],
                        policy or IcountPolicy(), seed=seed)


class TestTracePruneSchedule:
    def test_no_prune_at_cycle_zero(self, monkeypatch):
        """Cycle 0 has no history; the prune pass must not run."""
        from repro.pipeline import processor as processor_module
        from repro.pipeline.thread import ThreadContext

        calls = []
        monkeypatch.setattr(ThreadContext, "prune_trace",
                            lambda self: calls.append(self.tid))
        processor = build()
        processor.step()  # cycle 0
        assert calls == []
        processor.cycle = processor_module._PRUNE_INTERVAL
        processor.step()  # first interval boundary: prune runs
        assert calls == [0]


class TestBasicExecution:
    def test_single_thread_commits(self):
        processor = build()
        processor.run(2000)
        assert processor.threads[0].stats.committed > 1000

    def test_multi_thread_all_progress(self):
        processor = build(("gzip", "twolf", "eon"))
        processor.run(4000)
        for thread in processor.threads:
            assert thread.stats.committed > 50

    def test_cycle_counter_advances(self):
        processor = build()
        processor.run(123)
        assert processor.cycle == 123

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            SMTProcessor(SMTConfig(), [], IcountPolicy())

    def test_run_until_commits(self):
        processor = build()
        processor.run_until_commits(500)
        assert processor.threads[0].stats.committed >= 500


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        a = build(("gzip", "mcf"), seed=9)
        b = build(("gzip", "mcf"), seed=9)
        a.run(3000)
        b.run(3000)
        for thread_a, thread_b in zip(a.threads, b.threads):
            assert thread_a.stats.committed == thread_b.stats.committed
            assert thread_a.stats.fetched == thread_b.stats.fetched
            assert thread_a.stats.squashed == thread_b.stats.squashed

    def test_different_seeds_differ(self):
        a = build(("gzip",), seed=1)
        b = build(("gzip",), seed=2)
        a.run(3000)
        b.run(3000)
        assert a.threads[0].stats.committed != b.threads[0].stats.committed


class TestProgramOrder:
    def test_commits_in_trace_order(self):
        processor = build(("twolf",))
        committed_indices = []
        original = processor._commit_op

        def spy(op):
            if not op.wrong_path:
                committed_indices.append(op.trace_index)
            original(op)

        processor._commit_op = spy
        processor.run(3000)
        assert committed_indices == sorted(committed_indices)
        # In-order commit per thread never skips an index.
        assert committed_indices == list(range(len(committed_indices)))

    def test_wrong_path_never_commits(self):
        processor = build(("twolf",))
        original = processor._commit_op

        def spy(op):
            assert not op.wrong_path
            original(op)

        processor._commit_op = spy
        processor.run(3000)


class TestResourceInvariants:
    @pytest.mark.parametrize("benchmarks", [
        ("gzip",), ("mcf", "twolf"), ("swim", "gzip", "art", "gcc"),
    ])
    def test_counters_consistent_throughout(self, benchmarks):
        processor = build(benchmarks)
        for _ in range(20):
            processor.run(150)
            processor.resources.check_consistency()
            resources = processor.resources
            for resource, total in enumerate(resources.totals):
                assert 0 <= resources.used[resource] <= total
            assert 0 <= resources.rob_used <= resources.rob_size

    def test_everything_drains_eventually(self):
        """Pending miss counters never go negative."""
        processor = build(("mcf", "art"))
        for _ in range(15):
            processor.run(200)
            for thread in processor.threads:
                assert thread.pending_l1d >= 0
                assert thread.pending_l2 >= 0
                assert thread.detected_l2 >= 0


class TestSquash:
    def test_squash_after_releases_resources(self):
        processor = build(("twolf",))
        processor.run(1500)
        thread = processor.threads[0]
        if not thread.rob:
            pytest.skip("empty ROB at sample point")
        boundary = thread.rob[0]
        squashed = processor.squash_after(boundary)
        processor.resources.check_consistency()
        assert len(thread.rob) == 1
        assert squashed >= 0
        for op in list(thread.rob)[1:]:
            assert op.status == ST_SQUASHED

    def test_squash_resets_wrong_path_state(self):
        processor = build(("twolf",))
        processor.run(1500)
        thread = processor.threads[0]
        if not thread.rob:
            pytest.skip("empty ROB at sample point")
        processor.squash_after(thread.rob[0])
        assert not thread.in_wrong_path
        assert thread.mispredict_op is None

    def test_execution_continues_after_squash(self):
        processor = build(("twolf",))
        processor.run(1500)
        thread = processor.threads[0]
        if thread.rob:
            boundary = thread.rob[0]
            processor.squash_after(boundary)
            thread.rewind_to(boundary.trace_index + 1,
                             boundary.static.pc + 4)
        before = thread.stats.committed
        processor.run(1500)
        assert thread.stats.committed > before


class TestStatsReset:
    def test_reset_zeroes_stats_keeps_state(self):
        processor = build(("gzip",))
        processor.run(1000)
        processor.reset_stats()
        assert processor.threads[0].stats.committed == 0
        assert processor.stat_cycles == 0
        processor.run(500)
        assert processor.stat_cycles == 500
        assert processor.threads[0].stats.committed > 0


class TestWrongPath:
    def test_wrong_path_instructions_fetched(self):
        processor = build(("twolf",))  # branchy benchmark
        processor.run(3000)
        assert processor.threads[0].stats.fetched_wrong_path > 0

    def test_squashed_includes_wrong_path(self):
        processor = build(("twolf",))
        processor.run(3000)
        stats = processor.threads[0].stats
        assert stats.squashed >= stats.fetched_wrong_path * 0.5


class TestCycleHooks:
    def test_hooks_called_every_cycle(self):
        processor = build()
        calls = []
        processor.cycle_hooks.append(lambda proc: calls.append(proc.cycle))
        processor.run(50)
        assert len(calls) == 50


class TestPerfectDl1:
    def test_no_data_misses_with_perfect_cache(self):
        config = SMTConfig(perfect_dl1=True)
        processor = build(("mcf",), config=config)
        processor.run(2000)
        assert processor.hierarchy.thread_stats[0].l1d_misses == 0
        assert processor.threads[0].stats.slow_cycles == 0

    def test_perfect_dl1_raises_mem_ipc(self):
        slow = build(("mcf",), seed=4)
        fast = build(("mcf",), config=SMTConfig(perfect_dl1=True), seed=4)
        slow.run(4000)
        fast.run(4000)
        assert (fast.threads[0].stats.committed
                > 2 * slow.threads[0].stats.committed)
