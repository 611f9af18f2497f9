"""Shared back-end resources and their per-thread occupancy counters.

This module is the heart of what the paper's policies observe and control:
the three issue queues, the two rename-register pools and the shared ROB,
each with a global free count and per-thread usage counters.  The counters
are exactly the hardware counters of the paper's Figure 3: incremented at
rename, queue counters decremented at issue, register counters decremented
at commit.
"""

from __future__ import annotations

import enum
from typing import List

from repro.isa.instruction import IQ_FOR_CLASS, REG_FOR_DEST, OpClass
from repro.pipeline.config import SMTConfig


class Resource(enum.IntEnum):
    """The five shared resources DCRA monitors (paper Section 3.4)."""

    IQ_INT = 0
    IQ_FP = 1
    IQ_LS = 2
    REG_INT = 3
    REG_FP = 4


#: Resources backed by issue queues.
IQ_RESOURCES = (Resource.IQ_INT, Resource.IQ_FP, Resource.IQ_LS)

#: Resources backed by rename-register pools.
REG_RESOURCES = (Resource.REG_INT, Resource.REG_FP)

#: Floating-point resources, the ones DCRA tracks activity for
#: (Section 3.1.2: integer resources are used by every thread).
FP_RESOURCES = (Resource.IQ_FP, Resource.REG_FP)

#: Members by value: maps a plain-int index back to its Resource.
_RESOURCES = tuple(Resource)


def iq_for_class(op_class: OpClass) -> Resource:
    """Issue-queue resource an op class occupies (``StaticOp.iq``)."""
    return _RESOURCES[IQ_FOR_CLASS[op_class]]


def reg_for_dest(dest_is_fp: bool) -> Resource:
    """Register resource a destination allocates (``StaticOp.reg``)."""
    return _RESOURCES[REG_FOR_DEST[dest_is_fp]]


class SharedResources:
    """Occupancy accounting for all shared pools.

    ``totals``, ``used`` and ``per_thread`` are lists indexed by
    :class:`Resource` value, so the pipeline indexes them with the plain
    ints ``StaticOp.iq``/``StaticOp.reg`` (a ``Resource`` member indexes
    them too).

    Args:
        config: processor configuration (pool sizes).
        num_threads: number of hardware contexts (sizes the rename pools,
            since architectural registers are carved out per thread).
    """

    def __init__(self, config: SMTConfig, num_threads: int) -> None:
        self.num_threads = num_threads
        self.totals: List[int] = [
            config.int_iq_size,
            config.fp_iq_size,
            config.ls_iq_size,
            config.rename_registers("int", num_threads),
            config.rename_registers("fp", num_threads),
        ]
        self.used: List[int] = [0] * len(Resource)
        self.per_thread: List[List[int]] = [
            [0] * num_threads for _ in Resource
        ]
        self.rob_size = config.rob_size
        self.rob_used = 0
        self.rob_per_thread = [0] * num_threads
        #: The 512-entry ROB is shared (paper Table 2) and, like in the
        #: paper, it is monopolisable under a naive fetch policy: DCRA
        #: bounds a slow thread's ROB share only indirectly, through its
        #: register caps.  ``rob_partitioned`` switches to a static
        #: per-thread split (an ablation; SRA imposes its own cap anyway).
        if config.rob_partitioned:
            self.rob_cap_per_thread = config.rob_size // num_threads
        else:
            self.rob_cap_per_thread = config.rob_size

    def capture_state(self) -> dict:
        """Snapshot occupancy counters (StateSnapshot protocol).

        Pool totals, caps and partitioning are config-derived and not
        captured; rows are indexed by :class:`Resource` value order.
        """
        return {
            "used": list(self.used),
            "per_thread": [list(row) for row in self.per_thread],
            "rob_used": self.rob_used,
            "rob_per_thread": list(self.rob_per_thread),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite occupancy counters from :meth:`capture_state`."""
        self.used[:] = state["used"]
        self.per_thread[:] = [list(row) for row in state["per_thread"]]
        self.rob_used = state["rob_used"]
        self.rob_per_thread = list(state["rob_per_thread"])

    # -- generic pools ---------------------------------------------------------

    def free(self, resource: Resource) -> int:
        """Free entries of a resource."""
        return self.totals[resource] - self.used[resource]

    def usage(self, resource: Resource, tid: int) -> int:
        """Entries of ``resource`` currently held by thread ``tid``."""
        return self.per_thread[resource][tid]

    def acquire(self, resource: Resource, tid: int) -> None:
        """Allocate one entry; callers must have checked :meth:`free`."""
        if self.used[resource] >= self.totals[resource]:
            raise RuntimeError(f"{_RESOURCES[resource].name} over-allocated")
        self.used[resource] += 1
        self.per_thread[resource][tid] += 1

    def release(self, resource: Resource, tid: int) -> None:
        """Release one entry held by ``tid``."""
        if self.per_thread[resource][tid] <= 0:
            raise RuntimeError(
                f"{_RESOURCES[resource].name} underflow for thread {tid}")
        self.used[resource] -= 1
        self.per_thread[resource][tid] -= 1

    # -- ROB --------------------------------------------------------------------

    def rob_free(self) -> int:
        """Free shared ROB entries."""
        return self.rob_size - self.rob_used

    def rob_free_for_thread(self, tid: int) -> int:
        """Free ROB entries within a thread's static partition."""
        shared_free = self.rob_size - self.rob_used
        partition_free = self.rob_cap_per_thread - self.rob_per_thread[tid]
        return min(shared_free, partition_free)

    def acquire_rob(self, tid: int) -> None:
        if self.rob_used >= self.rob_size:
            raise RuntimeError("ROB over-allocated")
        self.rob_used += 1
        self.rob_per_thread[tid] += 1

    def release_rob(self, tid: int) -> None:
        if self.rob_per_thread[tid] <= 0:
            raise RuntimeError(f"ROB underflow for thread {tid}")
        self.rob_used -= 1
        self.rob_per_thread[tid] -= 1

    # -- derived views ------------------------------------------------------------

    def iq_total_for_thread(self, tid: int) -> int:
        """Total pre-issue queue occupancy of a thread (ICOUNT's metric)."""
        per = self.per_thread
        return (per[Resource.IQ_INT][tid] + per[Resource.IQ_FP][tid]
                + per[Resource.IQ_LS][tid])

    def check_consistency(self) -> None:
        """Assert the occupancy counters are consistent and in bounds.

        Per-thread counters must sum to the global ones, and every
        counter must lie within its pool: a sum check alone misses an
        over-allocation through the pipeline's inlined (unchecked)
        rename path and a negative count both sides share.  Used by
        tests and debug runs; O(resources * threads).
        """
        for resource in Resource:
            row = self.per_thread[resource]
            used = self.used[resource]
            if sum(row) != used:
                raise AssertionError(
                    f"{resource.name}: per-thread sum {sum(row)} != "
                    f"global {used}")
            if not 0 <= used <= self.totals[resource] or min(row) < 0:
                raise AssertionError(
                    f"{resource.name}: {used} of {self.totals[resource]} "
                    f"in use, per thread {row}")
        rob = self.rob_per_thread
        if sum(rob) != self.rob_used:
            raise AssertionError("ROB per-thread sum mismatch")
        if not 0 <= self.rob_used <= self.rob_size or min(rob) < 0 \
                or max(rob) > self.rob_cap_per_thread:
            raise AssertionError(
                f"ROB: {self.rob_used} of {self.rob_size} in use, per "
                f"thread {rob} (cap {self.rob_cap_per_thread})")
