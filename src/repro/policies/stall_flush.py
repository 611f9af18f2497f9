"""STALL, FLUSH (Tullsen & Brown) and FLUSH++ (Cazorla et al.).

All three react to *detected* L2 misses — which, as the paper points out,
is already late: by the time the L2 lookup resolves, the missing thread
has had ``l2_latency`` extra cycles to fill queues and registers.

* STALL fetch-gates the thread until its detected misses are serviced.
* FLUSH additionally squashes everything younger than the missing load,
  returning the thread's resources to the shared pool at the cost of
  re-fetching (the 2x front-end activity the paper measures).
* FLUSH++ switches between the two responses based on how many threads
  currently show memory-bound cache behaviour: with little pressure on
  resources STALL's gentler response wins, under heavy pressure FLUSH's
  reclamation wins.
"""

from __future__ import annotations

from typing import List

from repro.isa.instruction import MicroOp
from repro.policies.base import Policy, icount_order


class StallPolicy(Policy):
    """ICOUNT + fetch-stall while a thread has a detected L2 miss."""

    name = "STALL"
    # fetch_order filters on detected_l2, which only changes through
    # detection/fill/squash events — all absent on quiescent cycles.
    quiesce_safe = True

    def fetch_order(self, cycle: int) -> List[int]:
        threads = self.processor.threads
        return [tid for tid in icount_order(self.processor)
                if threads[tid].detected_l2 == 0]


class FlushPolicy(Policy):
    """STALL + squash behind the missing load to free its resources."""

    name = "FLUSH"
    # Same gate as STALL; the flush happens inside the detection event,
    # which the fast stepper never skips over.
    quiesce_safe = True

    def fetch_order(self, cycle: int) -> List[int]:
        threads = self.processor.threads
        return [tid for tid in icount_order(self.processor)
                if threads[tid].detected_l2 == 0]

    def on_l2_miss_detected(self, tid: int, op: MicroOp) -> None:
        self._flush_behind(tid, op)

    def _flush_behind(self, tid: int, op: MicroOp) -> None:
        """Squash everything younger than the missing load and re-wind."""
        if op.trace_index < 0:
            return  # never flush behind a wrong-path load
        processor = self.processor
        thread = processor.threads[tid]
        processor.squash_after(op)
        thread.rewind_to(op.trace_index + 1, op.static.pc + 4)


class FlushPlusPlusPolicy(FlushPolicy):
    """Adaptive STALL/FLUSH selection from observed cache behaviour.

    A per-thread exponentially decayed counter of detected L2 misses
    classifies threads as currently memory bound.  When at least
    ``flush_threshold`` threads are memory bound, pressure on the shared
    resources is high and the FLUSH response is used; otherwise the
    thread is merely stalled (STALL response).

    Args:
        flush_threshold: number of memory-bound threads at which the
            policy switches from STALL to FLUSH behaviour.
        window: cycles between decays of the behaviour counters.
        mem_bound_score: decayed miss count above which a thread is
            considered memory bound.
    """

    name = "FLUSH++"
    # Safe *given* quiesce_horizon below: the only per-cycle work is the
    # windowed score decay, and the horizon pins every decay boundary.
    quiesce_safe = True

    def __init__(self, flush_threshold: int = 2, window: int = 2048,
                 mem_bound_score: float = 4.0) -> None:
        super().__init__()
        if flush_threshold < 1:
            raise ValueError("flush_threshold must be at least 1")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.flush_threshold = flush_threshold
        self.window = window
        self.mem_bound_score = mem_bound_score
        self._scores: List[float] = []

    def on_attach(self) -> None:
        self._scores = [0.0] * self.processor.num_threads

    def capture_state(self) -> dict:
        return {"scores": list(self._scores)}

    def restore_state(self, state: dict, ops_by_seq=None) -> None:
        self._scores = [float(score) for score in state["scores"]]

    def end_cycle(self, cycle: int) -> None:
        if cycle % self.window == 0:
            self._scores = [score * 0.5 for score in self._scores]

    def quiesce_horizon(self, cycle: int) -> int:
        # The next decay boundary (this very cycle when it is one, which
        # forces a normal step so end_cycle runs the decay).
        remainder = cycle % self.window
        return cycle if remainder == 0 else cycle + self.window - remainder

    def _memory_bound_threads(self) -> int:
        return sum(1 for score in self._scores if score >= self.mem_bound_score)

    def on_l2_miss_detected(self, tid: int, op: MicroOp) -> None:
        self._scores[tid] += 1.0
        if self._memory_bound_threads() >= self.flush_threshold:
            self._flush_behind(tid, op)
        # Otherwise: STALL response — the fetch_order gate is enough.
