"""Unit tests for the synthetic trace generator and trace buffer."""

import json
import random

import pytest

from repro.isa.instruction import BranchKind, OpClass
from repro.snapshot import b64_to_words, words_to_b64
from repro.trace.generator import SyntheticTraceGenerator, TraceBuffer
from repro.trace.profiles import (
    COLD_REGION_BYTES,
    HOT_REGION_BYTES,
    WARM_REGION_BYTES,
    get_profile,
)


def make_generator(name="gzip", seed=42, tid=0):
    return SyntheticTraceGenerator(get_profile(name), seed=seed, tid=tid)


def census(generator, count):
    ops = [generator.next_op() for _ in range(count)]
    by_class = {cls: 0 for cls in OpClass}
    for op in ops:
        by_class[op.op_class] += 1
    return ops, by_class


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = make_generator(seed=7)
        b = make_generator(seed=7)
        for _ in range(2000):
            op_a, op_b = a.next_op(), b.next_op()
            assert op_a.op_class == op_b.op_class
            assert op_a.pc == op_b.pc
            assert op_a.mem_addr == op_b.mem_addr
            assert op_a.src_dists == op_b.src_dists
            assert op_a.taken == op_b.taken

    def test_different_seeds_differ(self):
        a = make_generator(seed=1)
        b = make_generator(seed=2)
        diffs = sum(a.next_op().op_class != b.next_op().op_class
                    for _ in range(500))
        assert diffs > 0

    def test_wrong_path_does_not_perturb_correct_path(self):
        a = make_generator(seed=9)
        b = make_generator(seed=9)
        for i in range(1000):
            if i % 3 == 0:
                for _ in range(5):
                    b.wrong_path_op(0x1234)
            assert a.next_op().pc == b.next_op().pc


class TestSnapshot:
    def test_uint32_words_round_trip(self):
        words = (0, 1, 2**31, 2**32 - 1, 624,
                 *random.Random(5).getstate()[1])
        packed = words_to_b64(words)
        assert isinstance(packed, str)
        assert b64_to_words(packed) == words

    def test_rng_states_survive_json_round_trip(self):
        generator = make_generator(seed=13)
        for i in range(500):
            generator.next_op()
            if i % 7 == 0:
                generator.wrong_path_op(0x4000)
        generator._rng.gauss(0.0, 1.0)  # leaves a cached gauss_next
        state = json.loads(json.dumps(generator.capture_state()))
        assert isinstance(state["rng"][1], str)
        assert isinstance(state["wp_rng"][1], str)
        restored = make_generator(seed=99)
        restored.restore_state(state)
        assert restored._rng.getstate() == generator._rng.getstate()
        assert restored._wp_rng.getstate() == generator._wp_rng.getstate()
        assert restored.capture_state() == generator.capture_state()
        for _ in range(200):
            assert restored.next_op().pc == generator.next_op().pc


class TestInstructionMix:
    def test_mix_roughly_matches_profile(self):
        generator = make_generator("gzip", seed=3)
        _, by_class = census(generator, 20000)
        profile = get_profile("gzip")
        assert by_class[OpClass.LOAD] / 20000 == pytest.approx(
            profile.mix[2], abs=0.03)
        # Dynamic branch frequency runs a little above the static mix:
        # taken branches terminate straight-line runs, so branch PCs are
        # revisited disproportionately often.
        assert by_class[OpClass.BRANCH] / 20000 == pytest.approx(
            profile.mix[4], abs=0.06)
        assert by_class[OpClass.FP_ALU] == 0  # integer benchmark

    def test_fp_benchmark_emits_fp_ops(self):
        generator = make_generator("swim", seed=3)
        _, by_class = census(generator, 5000)
        assert by_class[OpClass.FP_ALU] > 500


class TestAddresses:
    def test_cold_fraction_near_profile(self):
        generator = make_generator("mcf", seed=11)
        ops, _ = census(generator, 40000)
        profile = get_profile("mcf")
        loads = [op for op in ops if op.op_class == OpClass.LOAD]
        cold_start = generator._cold_base
        cold = sum(1 for op in loads if op.mem_addr >= cold_start)
        assert cold / len(loads) == pytest.approx(profile.cold_frac, rel=0.35)

    def test_addresses_in_thread_region(self):
        generator = make_generator("art", seed=5, tid=2)
        ops, _ = census(generator, 3000)
        for op in ops:
            if op.mem_addr is not None:
                assert op.mem_addr >= generator._data_base

    def test_threads_have_disjoint_regions(self):
        g0 = make_generator("gzip", seed=1, tid=0)
        g1 = make_generator("gzip", seed=1, tid=1)
        span = (1 + 1) << 34
        assert g0._data_base < span <= g1._code_base


class TestBranches:
    def test_branch_sites_have_stable_targets(self):
        generator = make_generator("gzip", seed=13)
        targets = {}
        for _ in range(30000):
            op = generator.next_op()
            if (op.op_class == OpClass.BRANCH
                    and op.branch_kind == BranchKind.COND and op.taken):
                if op.pc in targets:
                    assert targets[op.pc] == op.target
                targets[op.pc] = op.target
        assert targets  # saw at least one taken branch

    def test_calls_and_returns_balance(self):
        generator = make_generator("gzip", seed=17)
        depth = 0
        for _ in range(30000):
            op = generator.next_op()
            if op.branch_kind == BranchKind.CALL:
                depth += 1
            elif op.branch_kind == BranchKind.RETURN:
                depth -= 1
            assert depth >= 0

    def test_static_layout_is_stable(self):
        generator = make_generator("gzip", seed=19)
        classes = {}
        for _ in range(30000):
            op = generator.next_op()
            if op.pc in classes:
                assert classes[op.pc] == op.op_class
            classes[op.pc] = op.op_class


class TestDependencies:
    def test_src_dists_positive_and_bounded(self):
        generator = make_generator("mcf", seed=23)
        for _ in range(5000):
            op = generator.next_op()
            for dist in op.src_dists:
                assert 1 <= dist <= 64


class TestPhases:
    def test_phase_ratio_converges(self):
        generator = make_generator("twolf", seed=29)
        mem_cycles = 0
        total = 60000
        for _ in range(total):
            generator.next_op()
            if generator._in_mem_phase:
                mem_cycles += 1
        assert mem_cycles / total == pytest.approx(
            get_profile("twolf").mem_phase_frac, abs=0.12)


class TestTraceBuffer:
    def test_indexed_access_and_replay(self):
        buffer = TraceBuffer(make_generator(seed=31))
        first = [buffer.get(i) for i in range(100)]
        replay = [buffer.get(i) for i in range(100)]
        assert all(a is b for a, b in zip(first, replay))

    def test_release_below_prunes(self):
        buffer = TraceBuffer(make_generator(seed=31))
        for i in range(100):
            buffer.get(i)
        buffer.release_below(50)
        assert buffer.get(50) is not None
        with pytest.raises(IndexError):
            buffer.get(49)

    def test_release_below_is_monotonic(self):
        buffer = TraceBuffer(make_generator(seed=31))
        for i in range(20):
            buffer.get(i)
        buffer.release_below(10)
        buffer.release_below(5)  # no-op, must not crash
        assert buffer.get(10) is not None

    def test_len_counts_generated(self):
        buffer = TraceBuffer(make_generator(seed=31))
        buffer.get(9)
        assert len(buffer) == 10
        buffer.release_below(5)
        assert len(buffer) == 10

    def test_prewarm_regions_exposed(self):
        buffer = TraceBuffer(make_generator(seed=31))
        kinds = {kind for _, _, kind in buffer.prewarm_regions()}
        assert kinds == {"warm", "hot", "code"}
