"""Unit tests for the baseline fetch policies."""

import json

import pytest

from repro.isa.instruction import MicroOp, OpClass, ST_SQUASHED, StaticOp
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.pipeline.resources import Resource
from repro.policies import (
    POLICY_NAMES,
    DataGatingPolicy,
    FlushPlusPlusPolicy,
    FlushPolicy,
    IcountPolicy,
    PredictiveDataGatingPolicy,
    RoundRobinPolicy,
    StallPolicy,
    StaticAllocationPolicy,
    make_policy,
)
from repro.snapshot import SnapshotError
from repro.trace.profiles import get_profile


def build(policy, benchmarks=("gzip", "twolf"), seed=1):
    processor = SMTProcessor(SMTConfig(),
                             [get_profile(b) for b in benchmarks],
                             policy, seed=seed)
    return processor


class TestRegistry:
    def test_all_paper_policies_present(self):
        assert set(POLICY_NAMES) >= {
            "ROUND-ROBIN", "ICOUNT", "STALL", "FLUSH", "FLUSH++",
            "DG", "PDG", "SRA", "DCRA",
        }

    def test_future_work_extension_present(self):
        assert "DCRA-ADAPT" in POLICY_NAMES

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_make_policy_builds_each(self, name):
        policy = make_policy(name)
        assert policy.name == name

    def test_case_insensitive(self):
        assert make_policy("dcra").name == "DCRA"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("ORACLE")

    def test_kwargs_forwarded(self):
        policy = make_policy("FLUSH++", flush_threshold=3)
        assert policy.flush_threshold == 3

    def test_dcra_kwargs(self):
        policy = make_policy("DCRA", activity_window=1024)
        assert policy.config.activity_window == 1024


class TestRoundRobin:
    def test_rotation(self):
        processor = build(RoundRobinPolicy(), ("gzip", "twolf"))
        assert processor.policy.fetch_order(0) == [0, 1]
        assert processor.policy.fetch_order(1) == [1, 0]


class TestIcount:
    def test_prefers_emptier_thread(self):
        processor = build(IcountPolicy())
        processor.resources.acquire(Resource.IQ_INT, 0)
        processor.resources.acquire(Resource.IQ_INT, 0)
        assert processor.policy.fetch_order(0) == [1, 0]

    def test_counts_fetch_queue_too(self):
        processor = build(IcountPolicy())
        static = StaticOp(OpClass.INT_ALU, 0)
        processor.threads[1].fetch_queue.append(
            MicroOp(static, 1, 0, 0, False, 0))
        assert processor.policy.fetch_order(0) == [0, 1]


class TestStall:
    def test_detected_l2_excludes_thread(self):
        processor = build(StallPolicy())
        processor.threads[0].detected_l2 = 1
        assert processor.policy.fetch_order(0) == [1]

    def test_resumes_after_fill(self):
        processor = build(StallPolicy())
        processor.threads[0].detected_l2 = 1
        processor.threads[0].detected_l2 = 0
        assert set(processor.policy.fetch_order(0)) == {0, 1}


class TestFlush:
    def test_flush_squashes_younger_instructions(self):
        processor = build(FlushPolicy(), ("mcf", "twolf"))
        processor.run(2000)
        # mcf misses often; FLUSH must have squashed something by now.
        assert processor.threads[0].stats.squashed > 0

    def test_wrong_path_load_never_flushes(self):
        processor = build(FlushPolicy())
        static = StaticOp(OpClass.LOAD, 0x10, mem_addr=0x40)
        op = MicroOp(static, 0, 5, -1, True, 0)  # wrong-path
        before = len(processor.threads[0].rob)
        processor.policy.on_l2_miss_detected(0, op)
        assert len(processor.threads[0].rob) == before


class TestFlushPlusPlus:
    def test_low_pressure_uses_stall(self):
        policy = FlushPlusPlusPolicy(flush_threshold=2)
        processor = build(policy)
        static = StaticOp(OpClass.LOAD, 0x10, mem_addr=0x40)
        op = MicroOp(static, 0, 5, 3, False, 0)
        policy.on_l2_miss_detected(0, op)   # only one memory-bound thread
        assert processor.threads[0].stats.squashed == 0

    def test_scores_decay(self):
        policy = FlushPlusPlusPolicy(window=1)
        build(policy)
        policy._scores[0] = 8.0
        policy.end_cycle(policy.window)
        assert policy._scores[0] == 4.0

    def test_invalid_threshold(self):
        for kwargs in ({"flush_threshold": 0}, {"window": 0},
                       {"window": -3}):
            with pytest.raises(ValueError):
                make_policy("FLUSH++", **kwargs)


class TestDataGating:
    def test_pending_l1_excludes_thread(self):
        processor = build(DataGatingPolicy())
        processor.threads[1].pending_l1d = 2
        assert processor.policy.fetch_order(0) == [0]


class TestPredictiveDataGating:
    def test_predictor_trains_on_misses(self):
        policy = PredictiveDataGatingPolicy(table_size=16)
        processor = build(policy)
        static = StaticOp(OpClass.LOAD, 0x40, mem_addr=0x1000)
        op = MicroOp(static, 0, 1, 0, False, 0)

        class MissResult:
            l1_miss = True
        for _ in range(2):
            policy.on_load_issued(0, op, MissResult())
        policy.on_rename(0, op)
        assert policy._gate_op[0] is op
        assert policy.fetch_order(0) == [1]

    def test_gate_releases_on_completion(self):
        policy = PredictiveDataGatingPolicy(table_size=16)
        processor = build(policy)
        static = StaticOp(OpClass.LOAD, 0x40, mem_addr=0x1000)
        op = MicroOp(static, 0, 1, 0, False, 0)
        policy._gate_op[0] = op
        op.complete_cycle = 55
        assert 0 in policy.fetch_order(0)
        assert policy._gate_op[0] is None

    def test_gate_releases_on_squash(self):
        policy = PredictiveDataGatingPolicy(table_size=16)
        processor = build(policy)
        static = StaticOp(OpClass.LOAD, 0x40, mem_addr=0x1000)
        op = MicroOp(static, 0, 1, 0, False, 0)
        op.status = ST_SQUASHED
        policy._gate_op[0] = op
        assert 0 in policy.fetch_order(0)

    def test_hits_untrain(self):
        policy = PredictiveDataGatingPolicy(table_size=16)
        build(policy)
        static = StaticOp(OpClass.LOAD, 0x40, mem_addr=0x1000)
        op = MicroOp(static, 0, 1, 0, False, 0)

        class HitResult:
            l1_miss = False
        policy._table[policy._index(0x40)] = 3
        for _ in range(4):
            policy.on_load_issued(0, op, HitResult())
        policy.on_rename(0, op)
        assert policy._gate_op[0] is None

    def test_invalid_table_size(self):
        with pytest.raises(ValueError):
            PredictiveDataGatingPolicy(table_size=100)

    def test_packed_table_survives_json_round_trip(self):
        processor = build(PredictiveDataGatingPolicy())
        processor.run(600)
        policy = processor.policy
        assert any(policy._table)  # trained, not all zero
        state = json.loads(json.dumps(processor.capture_state()))
        assert isinstance(state["policy"]["table"], str)
        restored = build(PredictiveDataGatingPolicy())
        restored.restore_state(state)
        assert restored.policy._table == policy._table
        assert restored.capture_state() == processor.capture_state()

    def test_other_table_size_rejected(self):
        """A snapshot of another predictor geometry must not be adopted:
        the table size and the index mask stay those of construction."""
        small = build(PredictiveDataGatingPolicy(table_size=1024))
        small.run(200)
        state = small.capture_state()
        target = build(PredictiveDataGatingPolicy())
        with pytest.raises(SnapshotError, match="^PDG snapshot has 1024 "
                           "counters, the table has 4096$"):
            target.restore_state(state)
        assert len(target.policy._table) == target.policy.table_size == 4096
        assert target.policy._mask == 4095


class TestStaticAllocation:
    def test_caps_are_equal_split(self):
        processor = build(StaticAllocationPolicy())
        policy = processor.policy
        assert policy.cap(Resource.IQ_INT) == 40
        assert policy.cap(Resource.REG_INT) == (352 - 64) // 2

    def test_rename_blocked_at_cap(self):
        processor = build(StaticAllocationPolicy())
        policy = processor.policy
        for _ in range(40):
            processor.resources.acquire(Resource.IQ_LS, 0)
        static = StaticOp(OpClass.LOAD, 0x10, mem_addr=0x40)
        op = MicroOp(static, 0, 1, 0, False, 0)
        assert not policy.may_rename(0, op)
        other = MicroOp(static, 1, 2, 0, False, 0)
        assert policy.may_rename(1, other)

    def test_rob_cap_enforced(self):
        processor = build(StaticAllocationPolicy())
        policy = processor.policy
        for _ in range(256):
            processor.resources.acquire_rob(0)
        static = StaticOp(OpClass.INT_ALU, 0x10)
        op = MicroOp(static, 0, 1, 0, False, 0)
        assert not policy.may_rename(0, op)


class TestAllPoliciesRun:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_policy_commits_instructions(self, name):
        processor = build(make_policy(name), ("gzip", "twolf"))
        processor.run(2500)
        assert sum(t.stats.committed for t in processor.threads) > 100
        processor.resources.check_consistency()
