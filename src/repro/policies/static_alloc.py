"""Static resource allocation (SRA) — the Pentium-4-style even split.

Every shared resource (the three issue queues, both rename-register pools
and the ROB) is partitioned equally among the running threads.  A thread
at its cap stalls at rename until it releases entries; fetch priority
remains ICOUNT.  This guarantees no monopolisation but — the problem the
paper's dynamic model fixes — wastes any entries their owner cannot use.
"""

from __future__ import annotations

from typing import List

from repro.isa.instruction import MicroOp
from repro.pipeline.resources import Resource
from repro.policies.base import Policy


class StaticAllocationPolicy(Policy):
    """Equal hard partitioning of all shared resources."""

    name = "SRA"
    # may_rename is a pure structural check against occupancy counters,
    # all frozen while the machine is quiescent.
    quiesce_safe = True

    def __init__(self) -> None:
        super().__init__()
        #: Per-thread cap of each resource, indexed by ``Resource`` value.
        self._caps: List[int] = []
        self._rob_cap = 0

    def on_attach(self) -> None:
        resources = self.processor.resources
        num = self.processor.num_threads
        self._caps = [total // num for total in resources.totals]
        self._rob_cap = resources.rob_size // num

    def cap(self, resource: Resource) -> int:
        """Per-thread entry cap of one resource (R / T)."""
        return self._caps[resource]

    def may_rename(self, tid: int, op: MicroOp) -> bool:
        resources = self.processor.resources
        if resources.rob_per_thread[tid] >= self._rob_cap:
            return False
        per_thread = resources.per_thread
        caps = self._caps
        static = op.static
        iq = static.iq
        if per_thread[iq][tid] >= caps[iq]:
            return False
        reg = static.reg
        return reg < 0 or per_thread[reg][tid] < caps[reg]
