"""Unit and integration tests for the DCRA policy."""

import pytest

from repro.core.dcra import DcraConfig, DcraPolicy
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.pipeline.resources import Resource
from repro.trace.profiles import get_profile


def build(benchmarks=("gzip", "twolf"), config=None, dcra=None, seed=1):
    processor = SMTProcessor(
        config or SMTConfig(),
        [get_profile(b) for b in benchmarks],
        DcraPolicy(dcra or DcraConfig()),
        seed=seed,
    )
    return processor, processor.policy


class TestConfig:
    def test_defaults_match_paper(self):
        config = DcraConfig()
        assert config.activity_window == 256
        assert config.slow_trigger == "l1d"

    def test_invalid_trigger(self):
        for kwargs in ({"slow_trigger": "l3"}, {"activity_window": 0},
                       {"activity_window": -5}):
            with pytest.raises(ValueError):
                DcraConfig(**kwargs)


class TestClassification:
    def test_all_fast_initially(self):
        processor, policy = build()
        policy.begin_cycle(0)
        assert not policy.is_fetch_stalled(0)
        assert not policy.is_fetch_stalled(1)

    def test_slow_follows_pending_l1(self):
        processor, policy = build()
        processor.threads[0].pending_l1d = 1
        assert policy._is_slow(0)
        assert not policy._is_slow(1)

    def test_l2_trigger_variant(self):
        processor, policy = build(dcra=DcraConfig(slow_trigger="l2"))
        processor.threads[0].pending_l1d = 1
        assert not policy._is_slow(0)
        processor.threads[0].pending_l2 = 1
        assert policy._is_slow(0)


class TestCaps:
    def test_no_slow_threads_no_cap(self):
        processor, policy = build()
        policy.begin_cycle(0)
        assert policy.current_cap(Resource.IQ_INT) == 80

    def test_slow_thread_capped_per_sharing_model(self):
        processor, policy = build()
        processor.threads[0].pending_l1d = 1
        policy.begin_cycle(0)
        # FA=1, SA=1 for integer resources, C = 1/(FA+SA+4) by default.
        expected = round(80 / 2 * (1 + 1 / 6))
        assert policy.current_cap(Resource.IQ_INT) == expected

    def test_inactive_thread_cedes_fp_share(self):
        # Two int benchmarks: after the activity window both are
        # FP-inactive, so no FP cap applies (SA = 0 for FP resources).
        processor, policy = build(("gzip", "twolf"),
                                  dcra=DcraConfig(activity_window=2))
        processor.threads[0].pending_l1d = 1
        for cycle in range(4):
            policy.begin_cycle(cycle)
            policy.end_cycle(cycle)
        assert not policy.activity.is_active(Resource.IQ_FP, 0)
        policy.begin_cycle(5)
        assert policy.current_cap(Resource.IQ_FP) == 80  # unconstrained

    def test_over_cap_thread_fetch_stalled(self):
        processor, policy = build()
        thread = processor.threads[0]
        thread.pending_l1d = 1
        cap = round(80 / 2 * (1 + 1 / 6))
        for _ in range(cap + 1):
            processor.resources.acquire(Resource.IQ_LS, 0)
        policy.begin_cycle(0)
        assert policy.is_fetch_stalled(0)
        assert 0 not in policy.fetch_order(0)
        assert 1 in policy.fetch_order(0)

    def test_fast_thread_never_stalled_by_caps(self):
        processor, policy = build()
        for _ in range(70):
            processor.resources.acquire(Resource.IQ_LS, 0)
        processor.threads[1].pending_l1d = 1  # other thread slow
        policy.begin_cycle(0)
        assert not policy.is_fetch_stalled(0)

    def test_caps_track_classification_changes(self):
        """Caps must refresh when the slow set changes (recompute cache)."""
        processor, policy = build()
        policy.begin_cycle(0)
        assert policy.current_cap(Resource.IQ_INT) == 80
        processor.threads[0].pending_l1d = 1
        policy.begin_cycle(1)
        assert policy.current_cap(Resource.IQ_INT) == \
            round(80 / 2 * (1 + 1 / 6))
        processor.threads[0].pending_l1d = 0
        policy.begin_cycle(2)
        assert policy.current_cap(Resource.IQ_INT) == 80


class TestCapBoundary:
    """Both enforcement points share the 'at most cap entries' boundary."""

    def _make_slow_with_usage(self, usage):
        processor, policy = build()
        processor.threads[0].pending_l1d = 1
        for _ in range(usage):
            processor.resources.acquire(Resource.IQ_LS, 0)
        return processor, policy

    def cap(self, policy):
        return policy.current_cap(Resource.IQ_LS)

    def test_fetch_gate_triggers_at_exact_cap(self):
        processor, policy = self._make_slow_with_usage(0)
        policy.begin_cycle(0)
        for _ in range(self.cap(policy)):
            processor.resources.acquire(Resource.IQ_LS, 0)
        policy.begin_cycle(1)
        assert policy.is_fetch_stalled(0)
        assert 0 not in policy.fetch_order(1)

    def test_fetch_gate_clear_below_cap(self):
        processor, policy = self._make_slow_with_usage(0)
        policy.begin_cycle(0)
        for _ in range(self.cap(policy) - 1):
            processor.resources.acquire(Resource.IQ_LS, 0)
        policy.begin_cycle(1)
        assert not policy.is_fetch_stalled(0)

    def test_rename_gate_matches_fetch_gate_boundary(self):
        from repro.isa.instruction import MicroOp, OpClass, StaticOp

        processor, policy = self._make_slow_with_usage(0)
        policy.begin_cycle(0)
        cap = self.cap(policy)
        op = MicroOp(StaticOp(OpClass.LOAD, 0x100, mem_addr=0x40),
                     0, 0, 0, False, 0)
        for _ in range(cap - 1):
            processor.resources.acquire(Resource.IQ_LS, 0)
        policy.begin_cycle(1)
        assert policy.may_rename(0, op)  # below cap: both gates open
        assert not policy.is_fetch_stalled(0)
        processor.resources.acquire(Resource.IQ_LS, 0)
        policy.begin_cycle(2)
        assert not policy.may_rename(0, op)  # at cap: both gates closed
        assert policy.is_fetch_stalled(0)


class TestRenameEnforcement:
    def _renamed_load(self, processor, tid):
        from repro.isa.instruction import MicroOp, OpClass, StaticOp
        static = StaticOp(OpClass.LOAD, 0x100, mem_addr=0x40)
        return MicroOp(static, tid, 0, 0, False, 0)

    def test_blocks_slow_thread_at_cap(self):
        processor, policy = build()
        thread = processor.threads[0]
        thread.pending_l1d = 1
        policy.begin_cycle(0)
        cap = policy.current_cap(Resource.IQ_LS)
        for _ in range(cap):
            processor.resources.acquire(Resource.IQ_LS, 0)
        op = self._renamed_load(processor, 0)
        assert not policy.may_rename(0, op)

    def test_fetch_only_variant_never_blocks_rename(self):
        processor, policy = build(dcra=DcraConfig(enforce_at_rename=False))
        processor.threads[0].pending_l1d = 1
        policy.begin_cycle(0)
        for _ in range(79):
            processor.resources.acquire(Resource.IQ_LS, 0)
        op = self._renamed_load(processor, 0)
        assert policy.may_rename(0, op)

    def test_fast_thread_not_blocked(self):
        processor, policy = build()
        policy.begin_cycle(0)
        for _ in range(60):
            processor.resources.acquire(Resource.IQ_LS, 0)
        op = self._renamed_load(processor, 0)
        assert policy.may_rename(0, op)


class TestQuiescence:
    """The fast stepper may skip a cycle only while the gate is current."""

    def test_horizon_forces_a_step_while_the_gate_may_be_stale(self):
        processor, policy = build(dcra=DcraConfig(activity_window=4))
        assert policy.quiesce_horizon(0) == 0  # no caps computed yet
        for cycle in range(3):
            policy.begin_cycle(cycle)
            policy.end_cycle(cycle)
        # Every FP counter was reset at tick 0 and expires at tick 4.
        assert policy.quiesce_horizon(3) == 4
        policy.begin_cycle(3)
        policy.end_cycle(3)
        # The flags flipped at the last tick: the caps are stale now.
        assert policy.quiesce_horizon(4) == 4
        policy.begin_cycle(4)
        assert policy.quiesce_horizon(4) is None  # nothing left to expire
        processor.resources.acquire_rob(0)  # what a rename would do
        assert policy.quiesce_horizon(4) == 4

    def test_skip_accounts_stall_cycles_and_counter_decay(self):
        processor, policy = build()
        processor.threads[0].pending_l1d = 1
        for _ in range(80):
            processor.resources.acquire(Resource.IQ_LS, 0)
        policy.begin_cycle(0)
        policy.end_cycle(0)
        assert policy.stall_cycles == [1, 0]
        policy.on_quiescent_skip(10)
        assert policy.stall_cycles == [11, 0]
        assert policy.activity.counter(Resource.IQ_FP, 0) == 256 - 11


class TestEndToEnd:
    def test_runs_and_commits(self):
        processor, policy = build()
        processor.run(3000)
        assert all(t.stats.committed > 0 for t in processor.threads)

    def test_stall_statistics_accumulate(self):
        processor, policy = build(("gzip", "mcf"))
        processor.run(8000)
        # mcf is slow nearly always; DCRA should have gated it sometimes.
        assert sum(policy.stall_cycles) > 0

    def test_resource_counters_stay_consistent(self):
        processor, _ = build(("swim", "mcf"))
        for _ in range(30):
            processor.run(100)
            processor.resources.check_consistency()
