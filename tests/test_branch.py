"""Unit tests for gshare, BTB, RAS and the composed branch unit."""

import json

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.ras import ReturnAddressStack
from repro.branch.unit import BranchUnit
from repro.isa.instruction import BranchKind, OpClass, StaticOp
from repro.snapshot import SnapshotError


class TestGshare:
    def test_initial_prediction_weakly_taken(self):
        predictor = GsharePredictor(1024)
        assert predictor.predict(0x1000, 0)

    def test_training_not_taken(self):
        predictor = GsharePredictor(1024)
        for _ in range(3):
            predictor.update(0x1000, 0, taken=False)
        assert not predictor.predict(0x1000, 0)

    def test_counter_saturation(self):
        predictor = GsharePredictor(1024)
        for _ in range(10):
            predictor.update(0x40, 0, taken=True)
        predictor.update(0x40, 0, taken=False)
        assert predictor.predict(0x40, 0)  # one NT cannot flip saturated

    def test_history_affects_index_when_enabled(self):
        predictor = GsharePredictor(1024, history_bits=8)
        predictor.update(0x40, 0b1010, taken=False)
        predictor.update(0x40, 0b1010, taken=False)
        assert not predictor.predict(0x40, 0b1010)
        assert predictor.predict(0x40, 0b0101)  # different counter

    def test_history_shift(self):
        predictor = GsharePredictor(1024, history_bits=4)
        history = predictor.shift_history(0, True)
        history = predictor.shift_history(history, False)
        history = predictor.shift_history(history, True)
        assert history == 0b101
        assert predictor.shift_history(0b1111, True) == 0b1111

    def test_zero_history_bits_is_bimodal(self):
        predictor = GsharePredictor(1024, history_bits=0)
        predictor.update(0x40, 0, taken=False)
        predictor.update(0x40, 0, taken=False)
        assert not predictor.predict(0x40, 12345)  # history ignored

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            GsharePredictor(1000)
        with pytest.raises(ValueError):
            GsharePredictor(1024, history_bits=20)

    def test_packed_table_survives_json_round_trip(self):
        predictor = GsharePredictor(1024)
        for pc in range(0, 4096, 12):
            predictor.update(pc, 0, taken=pc % 3 == 0)
        state = json.loads(json.dumps(predictor.capture_state()))
        assert isinstance(state["table"], str)  # one base64 string
        restored = GsharePredictor(1024)
        restored.restore_state(state)
        assert restored._table == predictor._table
        assert restored.capture_state() == predictor.capture_state()

    def test_table_of_another_length_rejected(self):
        state = GsharePredictor(1024).capture_state()
        with pytest.raises(SnapshotError,
                           match="^gshare snapshot has 1024 counters"):
            GsharePredictor(2048).restore_state(state)


class TestBTB:
    def test_insert_lookup(self):
        btb = BranchTargetBuffer(64, 4)
        btb.insert(0x100, 0x900)
        assert btb.lookup(0x100) == 0x900

    def test_miss_returns_none(self):
        assert BranchTargetBuffer(64, 4).lookup(0x100) is None

    def test_update_existing(self):
        btb = BranchTargetBuffer(64, 4)
        btb.insert(0x100, 0x900)
        btb.insert(0x100, 0xA00)
        assert btb.lookup(0x100) == 0xA00

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(8, 2)  # 4 sets
        sets = btb.num_sets
        # Three branches mapping to set 0.
        pcs = [(i * sets) << 2 for i in range(3)]
        btb.insert(pcs[0], 1)
        btb.insert(pcs[1], 2)
        btb.lookup(pcs[0])
        btb.insert(pcs[2], 3)  # evicts pcs[1]
        assert btb.lookup(pcs[0]) == 1
        assert btb.lookup(pcs[1]) is None

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(10, 4)


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_underflow(self):
        ras = ReturnAddressStack(4)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.overflows == 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_clear(self):
        ras = ReturnAddressStack(4)
        ras.push(1)
        ras.clear()
        assert len(ras) == 0


def cond_branch(pc, taken, target=0x2000):
    return StaticOp(OpClass.BRANCH, pc, branch_kind=BranchKind.COND,
                    taken=taken, target=target if taken else pc + 4)


class TestBranchUnit:
    def test_correct_not_taken_prediction(self):
        unit = BranchUnit(1)
        op = cond_branch(0x100, taken=False)
        # train towards not-taken first
        unit.predict_and_train(0, op)
        unit.predict_and_train(0, op)
        pred = unit.predict_and_train(0, op)
        assert not pred.taken
        assert not pred.mispredicted

    def test_taken_with_btb_miss_is_mispredict(self):
        unit = BranchUnit(1)
        op = cond_branch(0x100, taken=True)
        pred = unit.predict_and_train(0, op)
        # predicted taken (init weakly taken) but BTB is cold
        assert pred.mispredicted
        assert pred.btb_bubble

    def test_taken_with_btb_hit_is_correct(self):
        unit = BranchUnit(1)
        op = cond_branch(0x100, taken=True)
        unit.predict_and_train(0, op)  # installs BTB entry
        pred = unit.predict_and_train(0, op)
        assert pred.taken and not pred.mispredicted

    def test_call_pushes_and_return_pops(self):
        unit = BranchUnit(1)
        call = StaticOp(OpClass.BRANCH, 0x100, branch_kind=BranchKind.CALL,
                        taken=True, target=0x4000)
        ret = StaticOp(OpClass.BRANCH, 0x4800, branch_kind=BranchKind.RETURN,
                       taken=True, target=0x104)
        unit.predict_and_train(0, call)
        pred = unit.predict_and_train(0, ret)
        assert pred.taken
        assert not pred.mispredicted  # RAS target matches pc + 4

    def test_return_with_empty_ras_mispredicts(self):
        unit = BranchUnit(1)
        ret = StaticOp(OpClass.BRANCH, 0x100, branch_kind=BranchKind.RETURN,
                       taken=True, target=0x2000)
        pred = unit.predict_and_train(0, ret)
        assert pred.mispredicted

    def test_threads_have_separate_ras(self):
        unit = BranchUnit(2)
        call = StaticOp(OpClass.BRANCH, 0x100, branch_kind=BranchKind.CALL,
                        taken=True, target=0x4000)
        unit.predict_and_train(0, call)
        ret = StaticOp(OpClass.BRANCH, 0x4800, branch_kind=BranchKind.RETURN,
                       taken=True, target=0x104)
        pred = unit.predict_and_train(1, ret)  # thread 1's RAS is empty
        assert pred.mispredicted

    def test_mispredict_rate_accounting(self):
        unit = BranchUnit(1)
        op = cond_branch(0x100, taken=True)
        unit.predict_and_train(0, op)   # taken, BTB cold: mispredict
        assert 0.0 < unit.mispredict_rate() <= 1.0

    def test_empty_unit_rate_is_zero(self):
        assert BranchUnit(1).mispredict_rate() == 0.0
