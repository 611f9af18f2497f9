"""Per-hardware-context state.

A :class:`ThreadContext` bundles everything the processor keeps per SMT
context: the replayable trace, the fetch program counter and wrong-path
state, the fetch queue, this thread's slice of the ROB, the pending-miss
counters the policies read, and per-thread statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.isa.instruction import MicroOp
from repro.trace.generator import TraceBuffer


@dataclass
class ThreadStats:
    """Per-thread dynamic statistics."""

    committed: int = 0
    fetched: int = 0
    fetched_wrong_path: int = 0
    squashed: int = 0
    branches: int = 0
    mispredicts: int = 0
    load_l1_misses: int = 0
    load_l2_misses: int = 0
    fetch_stall_cycles: int = 0
    policy_stall_cycles: int = 0
    slow_cycles: int = 0

    def ipc(self, cycles: int) -> float:
        """Committed instructions per cycle over ``cycles``."""
        return self.committed / cycles if cycles else 0.0


class ThreadContext:
    """All per-context state of one running program."""

    __slots__ = (
        "tid", "trace", "fetch_queue_size", "fetch_index", "pc",
        "fetch_queue", "rob", "pending_l1d", "pending_l2", "detected_l2",
        "in_wrong_path", "wrong_path_pc", "mispredict_op",
        "fetch_stall_until", "stats",
    )

    def __init__(self, tid: int, trace: TraceBuffer, fetch_queue_size: int) -> None:
        self.tid = tid
        self.trace = trace
        self.fetch_queue_size = fetch_queue_size
        self.fetch_index = 0
        self.pc = trace.get(0).pc
        self.fetch_queue: Deque[MicroOp] = deque()
        self.rob: Deque[MicroOp] = deque()
        # Pending data-miss counters (paper Figure 3 "load miss counters").
        self.pending_l1d = 0
        self.pending_l2 = 0
        #: L2 misses that have been *detected* (L2 lookup resolved) and not
        #: yet filled — the trigger STALL/FLUSH-family policies act on.
        self.detected_l2 = 0
        # Wrong-path fetch state.
        self.in_wrong_path = False
        self.wrong_path_pc = 0
        self.mispredict_op: Optional[MicroOp] = None
        # Front-end stall bookkeeping.
        self.fetch_stall_until = 0
        self.stats = ThreadStats()

    def capture_state(self) -> dict:
        """Snapshot per-context state (StateSnapshot protocol).

        In-flight micro-ops are referenced by their ``seq`` — the
        processor serialises each live op once and containers hold
        references, preserving order.
        """
        s = self.stats
        return {
            "fetch_index": self.fetch_index,
            "pc": self.pc,
            "fetch_queue": [op.seq for op in self.fetch_queue],
            "rob": [op.seq for op in self.rob],
            "pending_l1d": self.pending_l1d,
            "pending_l2": self.pending_l2,
            "detected_l2": self.detected_l2,
            "in_wrong_path": self.in_wrong_path,
            "wrong_path_pc": self.wrong_path_pc,
            "mispredict_op": (self.mispredict_op.seq
                              if self.mispredict_op is not None else None),
            "fetch_stall_until": self.fetch_stall_until,
            "stats": [s.committed, s.fetched, s.fetched_wrong_path,
                      s.squashed, s.branches, s.mispredicts,
                      s.load_l1_misses, s.load_l2_misses,
                      s.fetch_stall_cycles, s.policy_stall_cycles,
                      s.slow_cycles],
            "trace": self.trace.capture_state(self.trace_low_water()),
        }

    def restore_state(self, state: dict, ops_by_seq) -> None:
        """Overwrite per-context state from :meth:`capture_state`.

        The trace buffer is *not* restored here — the processor restores
        traces first (micro-ops resolve their static op through them),
        then calls this with the rebuilt ``seq -> MicroOp`` mapping.
        """
        self.fetch_index = state["fetch_index"]
        self.pc = state["pc"]
        self.fetch_queue = deque(ops_by_seq[seq]
                                 for seq in state["fetch_queue"])
        self.rob = deque(ops_by_seq[seq] for seq in state["rob"])
        self.pending_l1d = state["pending_l1d"]
        self.pending_l2 = state["pending_l2"]
        self.detected_l2 = state["detected_l2"]
        self.in_wrong_path = state["in_wrong_path"]
        self.wrong_path_pc = state["wrong_path_pc"]
        self.mispredict_op = (ops_by_seq[state["mispredict_op"]]
                              if state["mispredict_op"] is not None else None)
        self.fetch_stall_until = state["fetch_stall_until"]
        self.stats = ThreadStats(*state["stats"])

    # -- queries used by policies ---------------------------------------------

    def fetch_queue_occupancy(self) -> int:
        """Instructions waiting between fetch and rename."""
        return len(self.fetch_queue)

    def is_slow(self) -> bool:
        """Paper Section 3.1.1: slow iff it has a pending L1 data miss."""
        return self.pending_l1d > 0

    # -- trace position management ----------------------------------------------

    def rewind_to(self, trace_index: int, pc: int) -> None:
        """Restart correct-path fetch at ``trace_index`` (after a squash)."""
        self.fetch_index = trace_index
        self.pc = pc
        self.in_wrong_path = False
        self.wrong_path_pc = 0
        self.mispredict_op = None

    def trace_low_water(self) -> int:
        """The oldest trace index that can still be fetched or restored.

        A squash can only rewind fetch to the successor of an in-flight
        correct-path instruction, so everything older than the oldest
        in-flight correct-path instruction (in the ROB or the fetch
        queue) is dead history.
        """
        low_water = self.fetch_index
        if self.rob:
            first = self.rob[0].trace_index
            if first >= 0:
                low_water = min(low_water, first)
        for op in self.fetch_queue:
            if op.trace_index >= 0:
                low_water = min(low_water, op.trace_index)
                break
        return max(0, low_water)

    def prune_trace(self) -> None:
        """Release trace history below :meth:`trace_low_water`."""
        self.trace.release_below(self.trace_low_water())
