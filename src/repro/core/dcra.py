"""The DCRA policy (paper Section 3).

Each cycle DCRA:

1. classifies every thread as fast/slow (pending L1D miss) and, per
   floating-point resource, active/inactive (activity counters);
2. computes, for each of the five shared resources, the entitlement of a
   slow-active thread from the sharing model (equation 3);
3. fetch-stalls any slow-active thread whose occupancy of some resource
   has reached its entitlement, until it drains back below the cap.

The cap boundary is the same at both enforcement points: a slow-active
thread may hold *at most* ``cap`` entries of a resource.  The rename
gate blocks an allocation while ``usage >= cap`` (allocating would
exceed the cap) and the fetch gate stalls the thread while
``usage >= cap`` (nothing it fetches could be renamed anyway, and the
~30 instructions the four-stage front end can buffer must not pile up
behind the cap).

Fast threads are never restricted — they take whatever the slow threads
leave — and inactive threads are not allocating the resource at all.
Fetch priority among unrestricted threads remains ICOUNT.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.classification import ActivityTracker
from repro.core.sharing import SharingModel
from repro.isa.instruction import MicroOp
from repro.pipeline.resources import IQ_RESOURCES, Resource
from repro.policies.base import Policy, icount_order

# The FP resources as plain ints, compared with ``StaticOp.iq``/``reg``
# on every rename (an Enum class attribute read is slow on Python < 3.12).
_IQ_FP = int(Resource.IQ_FP)
_REG_FP = int(Resource.REG_FP)

#: Rename-table cap of a resource a thread is not limited on.
_NO_CAP = sys.maxsize


@dataclass(frozen=True)
class DcraConfig:
    """Tunable parameters of the DCRA policy.

    Attributes:
        activity_window: the Y parameter of the activity counters
            (paper: 256, explored 64..8192).
        iq_sharing_factor / reg_sharing_factor: sharing-factor names (see
            :data:`repro.core.sharing.SHARING_FACTORS`) or callables; the
            paper tunes them per memory latency (Section 5.3).
        slow_trigger: which pending-miss counter marks a thread slow —
            ``"l1d"`` (the paper's choice) or ``"l2"`` (an ablation).
        enforce_at_rename: additionally block allocation at the rename
            stage while a slow-active thread is at its cap.  The paper
            describes fetch-stalling only; with our four-stage front end
            a fetch-stalled thread can still push ~30 queued instructions
            into the back end, so rename enforcement keeps occupancy at
            the cap the sharing model computed (ablation: set False for
            the paper's literal fetch-only enforcement).
    """

    activity_window: int = 256
    iq_sharing_factor: str = "inverse_active_plus4"
    reg_sharing_factor: str = "inverse_active_plus4"
    slow_trigger: str = "l1d"
    enforce_at_rename: bool = True

    def __post_init__(self) -> None:
        if self.slow_trigger not in ("l1d", "l2"):
            raise ValueError("slow_trigger must be 'l1d' or 'l2'")
        if self.activity_window < 1:
            raise ValueError("activity_window must be at least 1")


class DcraPolicy(Policy):
    """Dynamically Controlled Resource Allocation."""

    name = "DCRA"
    # Safe given quiesce_horizon below: the classification inputs (the
    # pending-miss counters and occupancy) are frozen on quiescent
    # cycles, the horizon pins every activity-flag expiry, and
    # on_quiescent_skip accounts the stall cycles and counter decay.
    quiesce_safe = True

    def __init__(self, config: DcraConfig = DcraConfig()) -> None:
        super().__init__()
        self.config = config
        self.sharing = SharingModel(config.iq_sharing_factor,
                                    config.reg_sharing_factor)
        self.activity: ActivityTracker = None  # built at attach
        #: Per-resource entitlement of slow-active threads, this cycle.
        self._caps: Dict[Resource, int] = {}
        #: Threads fetch-stalled by the sharing model this cycle.
        self._gated: Tuple[int, ...] = ()
        #: Cycles each thread spent fetch-stalled by DCRA (statistic).
        self.stall_cycles: List[int] = []

    def on_attach(self) -> None:
        num = self.processor.num_threads
        self.activity = ActivityTracker(num, self.config.activity_window)
        self._gated = ()
        self.stall_cycles = [0] * num
        self._caps = {resource: self.processor.resources.totals[resource]
                      for resource in Resource}
        self._equal_split = dict(self._caps)
        self._custom_slow = type(self)._is_slow is not DcraPolicy._is_slow
        #: Last (slow flags, FP activity flags) the caps were computed
        #: for; caps are recomputed only when this signature changes.
        self._class_sig = None
        self._slow_tids: Tuple[int, ...] = ()
        #: Per resource with at least one slow-active thread, those tids.
        self._slow_active: List[Tuple[Resource, List[int]]] = []
        #: The fetch gate: (usage row, tid, cap) per slow-active pair.
        self._checks: List[tuple] = []
        #: Per thread, None (never blocked at rename) or its limits:
        #: (usage row, cap) per resource, indexed by ``Resource`` value.
        self._rename_limits: List[Optional[tuple]] = [None] * num
        #: ROB occupancy when the fetch gate last ran; None while the
        #: gate must run again before any cycle may be skipped.
        self._gate_rob_used: Optional[int] = None

    def reset_stats(self) -> None:
        """Zero the stall-cycle statistic (control state untouched)."""
        self.stall_cycles = [0] * len(self.stall_cycles)

    def capture_state(self) -> dict:
        return {
            "stall_cycles": list(self.stall_cycles),
            "activity": self.activity.capture_state(),
        }

    def restore_state(self, state: dict, ops_by_seq=None) -> None:
        self.stall_cycles = list(state["stall_cycles"])
        self.activity.restore_state(state["activity"])
        # Caps, the gate and the rename tables hold the processor's usage
        # rows, which its restore replaced: recompute them from scratch
        # on the next begin_cycle (which precedes any rename/fetch query).
        self._class_sig = None
        self._gate_rob_used = None

    # -- classification ------------------------------------------------------

    def _is_slow(self, tid: int) -> bool:
        thread = self.processor.threads[tid]
        if self.config.slow_trigger == "l1d":
            return thread.pending_l1d > 0
        return thread.pending_l2 > 0

    def begin_cycle(self, cycle: int) -> None:
        """Re-evaluate classification, entitlements and enforcement.

        The paper's hardware re-classifies every cycle; here the control
        state is event-driven.  The caps depend on the classification
        only through the slow flags and the FP activity flags, both of
        which change rarely relative to the cycle clock, so the caps, the
        fetch gate's check list and the per-thread rename tables are
        rebuilt only when that signature changes.  Each cycle then costs
        the slow-flag reads and one occupancy-vs-cap comparison per
        slow-active (thread, resource) pair: occupancy moves with every
        rename/issue/commit.
        """
        threads = self.processor.threads
        if self._custom_slow:
            # _is_slow is the classification extension point; honour
            # subclass overrides at the cost of the per-thread call.
            slow = tuple([self._is_slow(tid) for tid in range(len(threads))])
        elif self.config.slow_trigger == "l1d":
            slow = tuple([thread.pending_l1d > 0 for thread in threads])
        else:
            slow = tuple([thread.pending_l2 > 0 for thread in threads])
        sig = (slow, self.activity.signature())
        if sig != self._class_sig:
            self._class_sig = sig
            self._recompute_caps(slow)

        # A slow-active thread that has consumed its full entitlement is
        # gated (see ``cap_for`` for the boundary semantics shared with
        # ``may_rename``).
        gated = ()
        for usage, tid, cap in self._checks:
            if usage[tid] >= cap and tid not in gated:
                gated += (tid,)
        self._gated = gated
        if gated:
            stall_cycles = self.stall_cycles
            for tid in gated:
                stall_cycles[tid] += 1
        self._gate_rob_used = self.processor.resources.rob_used

    def _recompute_caps(self, slow: Tuple[bool, ...]) -> None:
        """Refresh per-resource entitlements after a classification change."""
        resources = self.processor.resources
        num = len(slow)
        activity = self.activity
        slow_active = []
        for resource in Resource:
            active = [activity.is_active(resource, tid) for tid in range(num)]
            fast_active = sum(1 for tid in range(num)
                              if active[tid] and not slow[tid])
            slow_active_tids = [tid for tid in range(num)
                                if active[tid] and slow[tid]]
            total = resources.totals[resource]
            if resource in IQ_RESOURCES:
                cap = self.sharing.share_for_iq(
                    total, fast_active, len(slow_active_tids))
            else:
                cap = self.sharing.share_for_reg(
                    total, fast_active, len(slow_active_tids))
            self._caps[resource] = cap
            active_count = fast_active + len(slow_active_tids)
            self._equal_split[resource] = (
                total // active_count if active_count else total)
            if slow_active_tids:
                slow_active.append((resource, slow_active_tids))
        self._slow_active = slow_active
        self._slow_tids = tuple(tid for tid in range(num) if slow[tid])
        self._rebuild_limits()

    def _rebuild_limits(self) -> None:
        """Bake ``cap_for`` into the fetch gate's checks and the rename
        tables; rerun whenever a cap may have changed."""
        per_thread = self.processor.resources.per_thread
        caps = {}
        for resource, tids in self._slow_active:
            for tid in tids:
                caps[resource, tid] = self.cap_for(resource, tid)
        self._checks = [(per_thread[resource], tid, cap)
                        for (resource, tid), cap in caps.items()]
        tables: List[Optional[tuple]] = [None] * len(self._rename_limits)
        if self.config.enforce_at_rename:
            # Only slow threads are blocked at rename, and only on the
            # resources they are active for (the ones in ``caps``).
            for tid in self._slow_tids:
                tables[tid] = [(per_thread[resource],
                                caps.get((resource, tid), _NO_CAP))
                               for resource in Resource]
        self._rename_limits = tables

    # -- control ---------------------------------------------------------------

    def fetch_order(self, cycle: int) -> List[int]:
        order = icount_order(self.processor)
        gated = self._gated
        if not gated:
            return order
        return [tid for tid in order if tid not in gated]

    def may_rename(self, tid: int, op: MicroOp) -> bool:
        limits = self._rename_limits[tid]
        if limits is None:
            return True
        static = op.static
        # usage >= cap: allocating one more entry would exceed the cap
        # (same boundary as the fetch gate in begin_cycle).
        usage, cap = limits[static.iq]
        if usage[tid] >= cap:
            return False
        reg = static.reg
        if reg >= 0:
            usage, cap = limits[reg]
            return usage[tid] < cap
        return True

    def cap_for(self, resource: Resource, tid: int) -> int:
        """Effective entitlement of one slow-active thread.

        A slow-active thread may hold at most this many entries of
        ``resource``: both enforcement points — the rename gate of
        :meth:`may_rename` and the fetch gate of :meth:`begin_cycle` —
        compare ``usage >= cap_for(...)``, so the boundary cannot drift
        between them.  The base policy gives every slow-active thread
        the same sharing-model cap; subclasses (e.g. the degenerate-case
        guard of :mod:`repro.core.adaptive`) override this per thread
        and call :meth:`_rebuild_limits` when its value changes.
        """
        return self._caps[resource]

    def on_rename(self, tid: int, op: MicroOp) -> None:
        # Feed the activity counters, which exist for FP resources only.
        static = op.static
        if static.iq == _IQ_FP:
            self.activity.note_use(_IQ_FP, tid)
        if static.reg == _REG_FP:
            self.activity.note_use(_REG_FP, tid)

    def end_cycle(self, cycle: int) -> None:
        self.activity.tick()

    def quiesce_horizon(self, cycle: int) -> Optional[int]:
        """The next activity-flag expiry, or ``cycle`` when this cycle's
        gate may differ from the last one computed.

        That is the case until caps are first computed (after attach or
        restore), after any rename (renames are the only occupancy
        change landing after ``begin_cycle`` in a step), and when a flag
        flipped at the last tick: a flag expiring exactly at this cycle
        already reads inactive, so the signature the caps were built
        from is compared, not the flags' next expiry.
        """
        if self.processor.resources.rob_used != self._gate_rob_used:
            return cycle
        activity = self.activity
        if activity.signature() is not self._class_sig[1]:
            return cycle
        ticks = activity.ticks_until_flip()
        return None if ticks is None else cycle + ticks

    def on_quiescent_skip(self, cycles: int) -> None:
        stall_cycles = self.stall_cycles
        for tid in self._gated:
            stall_cycles[tid] += cycles
        self.activity.advance(cycles)

    # -- introspection ------------------------------------------------------------

    def current_cap(self, resource: Resource) -> int:
        """This cycle's slow-active entitlement for ``resource``."""
        return self._caps[resource]

    def is_fetch_stalled(self, tid: int) -> bool:
        """True while the sharing model is gating ``tid``."""
        return tid in self._gated
