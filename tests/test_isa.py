"""Unit tests for the micro-op model."""

from repro.isa.instruction import (
    BranchKind,
    MicroOp,
    OpClass,
    ST_FETCHED,
    StaticOp,
    decode_static,
    encode_static,
    is_branch,
    needs_dest_register,
)
from repro.pipeline.resources import iq_for_class, reg_for_dest


class TestOpClassification:
    def test_dest_register_classes(self):
        assert needs_dest_register(OpClass.INT_ALU)
        assert needs_dest_register(OpClass.FP_ALU)
        assert needs_dest_register(OpClass.LOAD)

    def test_no_dest_register_classes(self):
        assert not needs_dest_register(OpClass.STORE)
        assert not needs_dest_register(OpClass.BRANCH)

    def test_is_branch(self):
        assert is_branch(OpClass.BRANCH)
        assert not is_branch(OpClass.LOAD)
        assert not is_branch(OpClass.INT_ALU)


class TestStaticOp:
    def test_has_dest_matches_helper(self):
        for op_class in OpClass:
            op = StaticOp(op_class, pc=0x1000)
            assert op.has_dest == needs_dest_register(op_class)

    def test_resource_indices_match_helpers(self):
        """``iq``/``reg`` are derived, so a snapshot round trip keeps them."""
        for op_class in OpClass:
            for dest_is_fp in (False, True):
                op = StaticOp(op_class, 0x1000, dest_is_fp)
                for each in (op, decode_static(encode_static(op))):
                    assert each.iq == iq_for_class(op_class)
                    assert each.reg == (reg_for_dest(dest_is_fp)
                                        if each.has_dest else -1)
                    assert type(each.iq) is int and type(each.reg) is int

    def test_is_mem(self):
        assert StaticOp(OpClass.LOAD, 0, mem_addr=64).is_mem
        assert StaticOp(OpClass.STORE, 0, mem_addr=64).is_mem
        assert not StaticOp(OpClass.INT_ALU, 0).is_mem

    def test_defaults(self):
        op = StaticOp(OpClass.INT_ALU, pc=0x40)
        assert op.src_dists == ()
        assert op.mem_addr is None
        assert op.branch_kind == BranchKind.NONE
        assert not op.taken
        assert op.latency == 1

    def test_branch_fields(self):
        op = StaticOp(OpClass.BRANCH, pc=0x40,
                      branch_kind=BranchKind.COND, taken=True, target=0x80)
        assert op.taken
        assert op.target == 0x80
        assert op.branch_kind == BranchKind.COND

    def test_repr_mentions_class(self):
        assert "LOAD" in repr(StaticOp(OpClass.LOAD, 0x10, mem_addr=0x40))


class TestMicroOp:
    def _make(self, op_class=OpClass.INT_ALU, **kwargs):
        static = StaticOp(op_class, pc=0x100, **kwargs)
        return MicroOp(static, tid=0, seq=1, trace_index=0,
                       wrong_path=False, fetch_cycle=5)

    def test_initial_state(self):
        op = self._make()
        assert op.status == ST_FETCHED
        assert op.deps_left == 0
        assert op.consumers == []
        assert not op.dest_allocated
        assert not op.iq_allocated
        assert op.waiting_line == -1
        assert not op.l2_missed
        assert not op.l2_detected

    def test_op_class_proxies_static(self):
        op = self._make(OpClass.FP_ALU)
        assert op.op_class == OpClass.FP_ALU

    def test_wrong_path_flagging(self):
        static = StaticOp(OpClass.LOAD, 0x20, mem_addr=0x40)
        op = MicroOp(static, tid=2, seq=9, trace_index=-1,
                     wrong_path=True, fetch_cycle=3)
        assert op.wrong_path
        assert op.trace_index == -1
        assert "WP" in repr(op)

    def test_cycle_markers_start_unset(self):
        op = self._make()
        assert op.rename_cycle == -1
        assert op.issue_cycle == -1
        assert op.complete_cycle == -1
