"""Data Gating (DG) and Predictive Data Gating (PDG), El-Moursy & Albonesi.

DG fetch-gates a thread whenever it has pending L1 data misses, on the
theory that L1 misses precede resource clogging.  The paper notes this is
often too severe: fewer than half of L1 misses become L2 misses, so DG
saves resources nobody else may need.

PDG moves the trigger even earlier using a miss predictor: when a load is
predicted to miss, the thread is gated *before* the miss happens.  The
predictor is a table of 2-bit saturating counters indexed by load PC,
trained with actual hit/miss outcomes at issue; the paper cites the
difficulty of predicting misses accurately as PDG's weakness, which the
table faithfully reproduces.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.instruction import MicroOp, OpClass, ST_SQUASHED
from repro.mem.hierarchy import AccessResult
from repro.policies.base import Policy, icount_order

# Bound once: an Enum class attribute read is slow on Python < 3.12.
_LOAD = OpClass.LOAD


class DataGatingPolicy(Policy):
    """Fetch-stall threads with any pending L1 data-cache miss."""

    name = "DG"
    # fetch_order filters on pending_l1d, which only changes through
    # issue/fill/squash events — all absent on quiescent cycles.  PDG
    # below stays unsafe: its fetch_order lazily mutates the gate table.
    quiesce_safe = True

    def fetch_order(self, cycle: int) -> List[int]:
        threads = self.processor.threads
        return [tid for tid in icount_order(self.processor)
                if threads[tid].pending_l1d == 0]


class PredictiveDataGatingPolicy(Policy):
    """Gate threads as soon as a fetched load is *predicted* to miss.

    Args:
        table_size: number of 2-bit counters in the miss predictor
            (power of two).
        predict_threshold: counter value at or above which a load is
            predicted to miss.
    """

    name = "PDG"

    def __init__(self, table_size: int = 4096, predict_threshold: int = 2) -> None:
        super().__init__()
        if table_size <= 0 or table_size & (table_size - 1):
            raise ValueError("predictor table size must be a power of two")
        self.table_size = table_size
        self.predict_threshold = predict_threshold
        self._table = bytearray(table_size)
        self._mask = table_size - 1
        self._gate_op: List[Optional[MicroOp]] = []
        self.predictions = 0
        self.predicted_misses = 0

    def on_attach(self) -> None:
        self._gate_op = [None] * self.processor.num_threads

    def reset_stats(self) -> None:
        self.predictions = 0
        self.predicted_misses = 0

    def capture_state(self) -> dict:
        from repro.snapshot import bytes_to_b64

        return {
            "table": bytes_to_b64(self._table),
            "gate_op": [op.seq if op is not None else None
                        for op in self._gate_op],
            "predictions": self.predictions,
            "predicted_misses": self.predicted_misses,
        }

    def restore_state(self, state: dict, ops_by_seq=None) -> None:
        from repro.snapshot import SnapshotError, b64_to_bytes

        table = b64_to_bytes(state["table"])
        if len(table) != self.table_size:
            raise SnapshotError(
                f"PDG snapshot has {len(table)} counters, the table has "
                f"{self.table_size}")
        self._table = bytearray(table)
        self._gate_op = [ops_by_seq[seq] if seq is not None else None
                         for seq in state["gate_op"]]
        self.predictions = state["predictions"]
        self.predicted_misses = state["predicted_misses"]

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self._mask

    def fetch_order(self, cycle: int) -> List[int]:
        order = []
        for tid in icount_order(self.processor):
            gate = self._gate_op[tid]
            if gate is not None:
                if gate.status == ST_SQUASHED or gate.complete_cycle >= 0:
                    self._gate_op[tid] = None
                else:
                    continue  # still gated on the predicted-miss load
            order.append(tid)
        return order

    def on_rename(self, tid: int, op: MicroOp) -> None:
        if op.op_class != _LOAD:
            return
        self.predictions += 1
        if self._table[self._index(op.static.pc)] >= self.predict_threshold:
            self.predicted_misses += 1
            if self._gate_op[tid] is None:
                self._gate_op[tid] = op

    def on_load_issued(self, tid: int, op: MicroOp,
                       result: AccessResult) -> None:
        # Train with the actual L1 outcome.
        idx = self._index(op.static.pc)
        counter = self._table[idx]
        if result.l1_miss:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1
        # A gated-on load that turned out to hit releases the gate once it
        # completes; gate release is checked lazily in fetch_order.
