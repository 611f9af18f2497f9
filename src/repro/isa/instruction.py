"""Instruction (micro-op) definitions.

The ISA is deliberately minimal: five operation classes are enough to
exercise every resource the paper's policies manage (three issue queues,
two physical register files, the ROB, the fetch bandwidth and the memory
hierarchy).  Each static instruction is immutable so a thread's trace can
be replayed after a branch misprediction squash or a FLUSH event.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple


class OpClass(enum.IntEnum):
    """Operation classes, mapped onto issue queues and execution units.

    ``INT_ALU`` and ``BRANCH`` ops use the integer queue and integer units;
    ``FP_ALU`` uses the floating-point queue and units; ``LOAD`` and
    ``STORE`` use the load/store queue and units (paper Table 2: 80-entry
    int/fp/ld-st queues, 6 int / 3 fp / 4 ld-st units).
    """

    INT_ALU = 0
    FP_ALU = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4


class BranchKind(enum.IntEnum):
    """Sub-kind for ``OpClass.BRANCH`` ops.

    Conditional branches are predicted by gshare, calls push the return
    address stack (RAS), and returns pop it (paper Table 2: 256-entry RAS).
    """

    NONE = 0
    COND = 1
    CALL = 2
    RETURN = 3


#: Op classes that allocate a destination physical register at rename.
_DEST_CLASSES = (OpClass.INT_ALU, OpClass.FP_ALU, OpClass.LOAD)

#: The one op-to-resource mapping, as plain ints: values of
#: :class:`repro.pipeline.resources.Resource` (IQ_INT 0, IQ_FP 1,
#: IQ_LS 2, REG_INT 3, REG_FP 4).  The issue queue of each op class,
#: indexed by class value, is also its execution-unit group.
IQ_FOR_CLASS = (0, 1, 2, 2, 0)
#: The rename-register pool a destination allocates, by ``dest_is_fp``.
REG_FOR_DEST = (3, 4)


def needs_dest_register(op_class: OpClass) -> bool:
    """Return True if this op class writes a destination register.

    Stores and branches produce no register result, so they never allocate
    a rename register; this is exactly the set of ops DCRA's register usage
    counters track (paper Section 3.4).
    """
    return op_class in _DEST_CLASSES


def is_branch(op_class: OpClass) -> bool:
    """Return True for control-flow ops (conditional, call, return)."""
    return op_class == OpClass.BRANCH


class StaticOp:
    """An immutable instruction in a thread's (replayable) trace.

    Attributes:
        op_class: the :class:`OpClass` of the instruction.
        pc: instruction address (drives I-cache and branch predictor).
        dest_is_fp: True when the destination register is floating point
            (FP ALU ops and FP loads); drives which rename pool is used.
        src_dists: distances (in dynamic instructions, >=1) back to the
            producer instructions of each source operand.  A distance that
            reaches past the start of the trace is simply "ready".
        mem_addr: byte address touched by LOAD/STORE ops, else ``None``.
        branch_kind: branch sub-kind, ``BranchKind.NONE`` for non-branches.
        taken: actual outcome for conditional branches; calls and returns
            are always taken.
        target: actual target address for taken branches.
        latency: base execution latency in cycles (loads add memory time).
        iq: the issue queue (``Resource`` value) the op occupies, which
            is also its execution-unit group.
        reg: the rename pool (``Resource`` value) its destination
            allocates, or -1 for ops without a destination.
    """

    __slots__ = (
        "op_class",
        "pc",
        "dest_is_fp",
        "src_dists",
        "mem_addr",
        "branch_kind",
        "taken",
        "target",
        "latency",
        "has_dest",
        "iq",
        "reg",
    )

    def __init__(
        self,
        op_class: OpClass,
        pc: int,
        dest_is_fp: bool = False,
        src_dists: Tuple[int, ...] = (),
        mem_addr: Optional[int] = None,
        branch_kind: BranchKind = BranchKind.NONE,
        taken: bool = False,
        target: int = 0,
        latency: int = 1,
    ) -> None:
        self.op_class = op_class
        self.pc = pc
        self.dest_is_fp = dest_is_fp
        self.src_dists = src_dists
        self.mem_addr = mem_addr
        self.branch_kind = branch_kind
        self.taken = taken
        self.target = target
        self.latency = latency
        # Precomputed at construction: read once per rename/issue of every
        # dynamic instance, which makes a property too expensive here.
        self.has_dest = has_dest = op_class in _DEST_CLASSES
        self.iq = IQ_FOR_CLASS[op_class]
        self.reg = REG_FOR_DEST[dest_is_fp] if has_dest else -1

    @property
    def is_mem(self) -> bool:
        """True for loads and stores."""
        return self.op_class in (OpClass.LOAD, OpClass.STORE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticOp({self.op_class.name}, pc={self.pc:#x}"
            + (f", addr={self.mem_addr:#x}" if self.mem_addr is not None else "")
            + ")"
        )


def encode_static(op: StaticOp) -> list:
    """A :class:`StaticOp` as a JSON-safe row (snapshot protocol).

    Only wrong-path ops and trace-buffer windows are serialised this
    way — correct-path micro-ops recover their static op from the
    restored trace buffer instead.
    """
    return [int(op.op_class), op.pc, op.dest_is_fp, list(op.src_dists),
            op.mem_addr, int(op.branch_kind), op.taken, op.target,
            op.latency]


#: Enum members by value, for decoding snapshot rows: a dict lookup is
#: much cheaper than an enum call and still raises (KeyError) on a
#: value that names no member.
OP_CLASS_BY_VALUE = {int(member): member for member in OpClass}
_BRANCH_KIND_BY_VALUE = {int(member): member for member in BranchKind}


def decode_static(row) -> StaticOp:
    """Exact inverse of :func:`encode_static`."""
    (op_class, pc, dest_is_fp, src_dists, mem_addr, branch_kind, taken,
     target, latency) = row
    return StaticOp(OP_CLASS_BY_VALUE[op_class], pc, dest_is_fp,
                    tuple(src_dists), mem_addr,
                    _BRANCH_KIND_BY_VALUE[branch_kind], taken, target,
                    latency)


# MicroOp status codes (kept as plain ints on a hot path).
ST_FETCHED = 0
ST_IN_QUEUE = 1
ST_ISSUED = 2
ST_COMPLETED = 3
ST_COMMITTED = 4
ST_SQUASHED = 5


class MicroOp:
    """A dynamic instance of a :class:`StaticOp` flowing through the pipe.

    Dynamic state (dependency links, issue/completion times, squash flag)
    lives here so the immutable trace can be re-fetched after squashes.
    """

    __slots__ = (
        "static",
        "op_class",
        "tid",
        "seq",
        "trace_index",
        "wrong_path",
        "fetch_cycle",
        "rename_cycle",
        "issue_cycle",
        "complete_cycle",
        "status",
        "deps_left",
        "consumers",
        "pred_taken",
        "pred_target",
        "mispredicted",
        "dest_allocated",
        "iq_allocated",
        "waiting_line",
        "l2_missed",
        "l2_detected",
        "tlb_missed",
    )

    def __init__(
        self,
        static: StaticOp,
        tid: int,
        seq: int,
        trace_index: int,
        wrong_path: bool,
        fetch_cycle: int,
    ) -> None:
        self.static = static
        # Mirrored from the static op: the pipeline reads it on every
        # rename/issue/squash, so a plain slot beats a delegating property.
        self.op_class = static.op_class
        self.tid = tid
        self.seq = seq
        self.trace_index = trace_index
        self.wrong_path = wrong_path
        self.fetch_cycle = fetch_cycle
        self.rename_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.status = ST_FETCHED
        self.deps_left = 0
        self.consumers: list = []
        self.pred_taken = False
        self.pred_target = 0
        self.mispredicted = False
        self.dest_allocated = False
        self.iq_allocated = False
        self.waiting_line = -1
        self.l2_missed = False
        self.l2_detected = False
        self.tlb_missed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wp = " WP" if self.wrong_path else ""
        return f"MicroOp(t{self.tid} #{self.seq} {self.static.op_class.name}{wp})"
