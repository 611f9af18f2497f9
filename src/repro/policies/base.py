"""Policy interface and shared fetch-priority helpers.

A policy controls two things (paper Section 3.3): which threads may use
the fetch bandwidth each cycle (``fetch_order``), and — for *allocation*
policies such as SRA and DCRA — whether a thread may allocate further
shared resources (``may_rename`` for hard rename-stage caps; DCRA instead
excludes over-cap threads from fetch, which is where the paper applies
its enforcement).

The processor invokes the ``on_*`` hooks as the corresponding
micro-events happen, giving policies exactly the "indirect indicators"
(L1/L2 miss events) and direct occupancy counters the paper discusses.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro.pipeline.resources import IQ_RESOURCES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.instruction import MicroOp
    from repro.mem.hierarchy import AccessResult
    from repro.pipeline.processor import SMTProcessor

# Plain-int rows of the occupancy lists, bound once: an Enum class
# attribute read costs a metaclass ``__getattr__`` call on Python < 3.12.
_IQ_INT, _IQ_FP, _IQ_LS = (int(resource) for resource in IQ_RESOURCES)


def icount_order(processor: "SMTProcessor") -> List[int]:
    """Thread ids sorted by ICOUNT priority (fewest pre-issue instructions).

    The pre-issue count is the number of instructions in the fetch queue
    plus those waiting in the issue queues, per Tullsen's ICOUNT.  Ties
    break by thread id (sorting (count, tid) pairs), matching the stable
    sort the original key-function implementation produced.
    """
    if processor.num_threads == 1:
        return [0]  # a 1-element sort: the ranking is the identity
    per = processor.resources.per_thread
    int_row = per[_IQ_INT]
    fp_row = per[_IQ_FP]
    ls_row = per[_IQ_LS]
    ranked = sorted(
        (len(thread.fetch_queue) + int_row[tid] + fp_row[tid] + ls_row[tid],
         tid)
        for tid, thread in enumerate(processor.threads)
    )
    return [tid for _, tid in ranked]


def round_robin_order(processor: "SMTProcessor", cycle: int) -> List[int]:
    """Thread ids rotated by cycle number."""
    num = processor.num_threads
    start = cycle % num
    return [(start + i) % num for i in range(num)]


class Policy:
    """Base policy: unrestricted sharing with ICOUNT fetch priority.

    Subclasses override :meth:`fetch_order` (and, for allocation policies,
    :meth:`may_rename`) plus whichever event hooks they need.
    """

    #: Human-readable policy name used in results and the registry.
    name = "BASE"

    #: Whether the fast stepper (:mod:`repro.pipeline.fastpath`) may
    #: skip over machine-quiescent cycles under this policy.  Safe means:
    #: ``fetch_order`` and ``may_rename`` are pure functions of state
    #: that is frozen while the machine is quiescent, and ``begin_cycle``
    #: / ``end_cycle`` either do nothing on such cycles, declare when
    #: they next do something via :meth:`quiesce_horizon`, or do the
    #: same thing every such cycle, which :meth:`on_quiescent_skip`
    #: applies in bulk.  Defaults to False so unknown subclasses
    #: overriding per-cycle hooks are conservatively stepped
    #: cycle-by-cycle; the whitelisted policies opt in explicitly and
    #: are pinned bitwise against the one-cycle ``step()`` loop by
    #: ``tests/test_fastpath.py``.
    quiesce_safe = False

    def __init__(self) -> None:
        self.processor: "SMTProcessor" = None  # set by attach()

    def attach(self, processor: "SMTProcessor") -> None:
        """Bind the policy to a processor; called once at construction."""
        self.processor = processor
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclasses needing per-thread state after binding."""

    def reset_stats(self) -> None:
        """Zero policy-side statistics after warm-up.

        Called by :meth:`SMTProcessor.reset_stats`.  Subclasses that
        accumulate counters (DCRA's stall cycles, PDG's prediction
        counts) override this; control state must be left untouched so a
        reset never changes simulated behaviour.
        """

    def capture_state(self) -> dict:
        """Snapshot mutable policy state (StateSnapshot protocol).

        The base policy is stateless; stateful subclasses return their
        control state *and* statistics as JSON-safe plain data.
        In-flight micro-op references are encoded as ``seq`` numbers.
        """
        return {}

    def restore_state(self, state: dict, ops_by_seq=None) -> None:
        """Overwrite mutable policy state from :meth:`capture_state`.

        Called after :meth:`attach` on a freshly constructed policy;
        ``ops_by_seq`` maps sequence numbers to the restored in-flight
        :class:`MicroOp` objects.
        """

    # -- per-cycle control -----------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Called before rename/fetch each cycle (classification point)."""

    def end_cycle(self, cycle: int) -> None:
        """Called after fetch each cycle (bookkeeping point)."""

    def fetch_order(self, cycle: int) -> List[int]:
        """Ordered thread ids allowed to fetch this cycle."""
        return icount_order(self.processor)

    def quiesce_horizon(self, cycle: int) -> Optional[int]:
        """Next cycle at which this policy performs per-cycle work.

        Consulted by the fast stepper only for ``quiesce_safe``
        policies, first of all its quiescence checks at ``cycle``: the
        stepper will not skip past the returned cycle, and returning
        ``cycle`` itself forces a normal step now.  None (the default)
        means the policy never acts on quiescent cycles.  Policies with
        windowed bookkeeping (FLUSH++'s score decay) return their next
        window boundary.  Per-cycle work that is identical on every
        skipped cycle needs no horizon: :meth:`on_quiescent_skip`
        accounts it when the stepper skips.
        """
        return None

    def on_quiescent_skip(self, cycles: int) -> None:
        """The fast stepper skipped ``cycles`` quiescent cycles.

        Called once per skipped span, before the cycle counter jumps:
        apply in bulk whatever ``begin_cycle``/``end_cycle`` would have
        done on each of those cycles (DCRA: its stall statistic and the
        activity counters' decay).  A no-op by default.
        """

    def may_rename(self, tid: int, op: "MicroOp") -> bool:
        """Whether ``tid`` may allocate the resources ``op`` needs now."""
        return True

    # -- event hooks -------------------------------------------------------------

    def on_rename(self, tid: int, op: "MicroOp") -> None:
        """An instruction allocated its back-end resources."""

    def on_commit(self, tid: int, op: "MicroOp") -> None:
        """An instruction retired."""

    def on_load_issued(self, tid: int, op: "MicroOp",
                       result: "AccessResult") -> None:
        """A load performed its cache access (hit or miss)."""

    def on_l1d_miss(self, tid: int, op: "MicroOp") -> None:
        """A load missed in the L1 data cache (known at issue time)."""

    def on_l2_miss_detected(self, tid: int, op: "MicroOp") -> None:
        """A load's L2 miss became known (L2 lookup latency elapsed)."""

    def on_l2_fill(self, tid: int, op: "MicroOp") -> None:
        """A previously detected L2 miss was serviced."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
