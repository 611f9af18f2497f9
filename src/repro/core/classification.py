"""DCRA thread classification (paper Section 3.1).

Two orthogonal, per-cycle classifications:

* **Phase** — a thread with pending L1 data-cache misses is *slow* (it
  holds resources for a long time); otherwise it is *fast* (it cycles
  through a small set of resources quickly).
* **Activity** — per floating-point resource, a thread that has not
  allocated an entry for ``window`` cycles (paper: 256) is *inactive*
  and cedes its whole share.  Integer resources are always active: every
  thread executes integer work.

The combination yields the four groups the paper names FA, FI, SA, SI.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from repro.pipeline.resources import FP_RESOURCES, Resource


class ThreadClass(enum.Enum):
    """The four DCRA groups for one (thread, resource) pair."""

    FAST_ACTIVE = "FA"
    FAST_INACTIVE = "FI"
    SLOW_ACTIVE = "SA"
    SLOW_INACTIVE = "SI"

    @property
    def is_slow(self) -> bool:
        return self in (ThreadClass.SLOW_ACTIVE, ThreadClass.SLOW_INACTIVE)

    @property
    def is_active(self) -> bool:
        return self in (ThreadClass.FAST_ACTIVE, ThreadClass.SLOW_ACTIVE)


def classify(slow: bool, active: bool) -> ThreadClass:
    """Combine the two classification axes into a :class:`ThreadClass`."""
    if slow:
        return ThreadClass.SLOW_ACTIVE if active else ThreadClass.SLOW_INACTIVE
    return ThreadClass.FAST_ACTIVE if active else ThreadClass.FAST_INACTIVE


#: Row of each FP resource in the tracker's tables (``FP_RESOURCES``
#: order), indexed by ``Resource`` value; None for integer resources.
_FP_ROW = tuple(FP_RESOURCES.index(resource) if resource in FP_RESOURCES
                else None for resource in Resource)


class ActivityTracker:
    """Per-thread activity flags for the floating-point resources.

    The paper keeps one counter per (FP resource, thread) pair: it starts
    at ``window``, is decremented every cycle the thread does not
    allocate an entry of that resource, and any allocation resets it to
    ``window``.  A thread is *inactive* for the resource when its counter
    reaches zero (paper Section 3.4, activity flags).

    The tracker is event-driven rather than a literal counter bank: it
    stores the tick at which each pair's counter was last reset, so a
    counter reads ``window - (now - reset)`` clamped at zero and is never
    decremented.  :meth:`tick` costs O(uses noted this cycle),
    :meth:`advance` ticks over an idle span in O(1), and
    :meth:`ticks_until_flip` says when the next flag would expire.  The
    flags change only when one expires or an inactive thread uses its
    resource again, so :meth:`signature` is rebuilt only then.

    Args:
        num_threads: hardware contexts to track.
        window: the paper's Y parameter; 256 gave the best results of the
            64..8192 range the authors explored.
    """

    def __init__(self, num_threads: int, window: int = 256) -> None:
        if window <= 0:
            raise ValueError("activity window must be positive")
        self.window = window
        self.num_threads = num_threads
        #: Ticks elapsed: the clock the reset ticks are read against.
        self._now = 0
        #: Per FP resource (``FP_RESOURCES`` order), the tick each
        #: thread's counter was last reset to ``window`` (0: they start
        #: full).
        self._reset: List[List[int]] = [[0] * num_threads
                                        for _ in FP_RESOURCES]
        #: (row, tid) of every use noted since the last tick.
        self._pending: List[Tuple[int, int]] = []
        self._signature: tuple = ()
        self._next_expiry: Optional[int] = None
        self._refresh()

    def capture_state(self) -> dict:
        """Snapshot activity counters (rows in ``FP_RESOURCES`` order)."""
        used = [[False] * self.num_threads for _ in FP_RESOURCES]
        for row, tid in self._pending:
            used[row][tid] = True
        return {
            "counters": [[self._counter(reset) for reset in row]
                         for row in self._reset],
            "used_this_cycle": used,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite activity counters from :meth:`capture_state`."""
        # A counter reading c was reset window - c ticks ago; an expired
        # one (c == 0) reads the same for any reset at least that old.
        base = self._now - self.window
        self._reset = [[base + counter for counter in counters]
                       for counters in state["counters"]]
        self._pending = [(row, tid)
                         for row, flags in enumerate(state["used_this_cycle"])
                         for tid, flag in enumerate(flags) if flag]
        self._refresh()

    def _counter(self, reset: int) -> int:
        return max(0, self.window - (self._now - reset))

    def _refresh(self) -> None:
        """Rebuild the cached flags and the next expiry tick."""
        now, window = self._now, self.window
        flags = tuple(tuple(now - reset < window for reset in row)
                      for row in self._reset)
        if flags != self._signature:
            self._signature = flags
        expiries = [reset + window for row in self._reset for reset in row
                    if now - reset < window]
        self._next_expiry = min(expiries) if expiries else None

    def note_use(self, resource: Resource, tid: int) -> None:
        """Record an allocation of ``resource`` by ``tid`` this cycle."""
        row = _FP_ROW[resource]
        if row is not None:
            self._pending.append((row, tid))

    def tick(self) -> None:
        """Advance one cycle: reset the counters used this cycle."""
        now = self._now = self._now + 1
        pending = self._pending
        if pending:
            window = self.window
            reactivated = False
            for row, tid in pending:
                resets = self._reset[row]
                if now - 1 - resets[tid] >= window:
                    reactivated = True
                resets[tid] = now
            pending.clear()
            if reactivated:
                self._refresh()
                return
        expiry = self._next_expiry
        if expiry is not None and now >= expiry:
            self._refresh()

    def advance(self, ticks: int) -> None:
        """Equivalent to ``ticks`` calls of :meth:`tick` with no further
        use noted (a span of cycles that allocate nothing)."""
        if ticks <= 0:
            return
        self.tick()
        self._now += ticks - 1
        expiry = self._next_expiry
        if expiry is not None and self._now >= expiry:
            self._refresh()

    def ticks_until_flip(self) -> Optional[int]:
        """Ticks until the next activity flag flips, absent further use.

        Without a use only an expiry can flip a flag, so this is the
        distance to the earliest active counter reaching zero: that many
        more ticks (always at least one) change :meth:`signature`.  None
        when every flag is already inactive.
        """
        expiry = self._next_expiry
        return None if expiry is None else expiry - self._now

    def signature(self) -> tuple:
        """Hashable snapshot of the FP active/inactive flags.

        DCRA's entitlements depend on the classification only through
        these flags (integer resources are always active), so a caller
        can compare signatures across cycles and skip recomputing caps
        when nothing changed.  The same object is returned until a flag
        flips, so an identity check is enough.
        """
        return self._signature

    def is_active(self, resource: Resource, tid: int) -> bool:
        """Activity flag for a (resource, thread) pair.

        Integer resources are always active (the paper tracks activity
        only for floating-point resources).
        """
        row = _FP_ROW[resource]
        if row is None:
            return True
        return self._now - self._reset[row][tid] < self.window

    def counter(self, resource: Resource, tid: int) -> int:
        """Raw counter value (for tests and introspection)."""
        row = _FP_ROW[resource]
        if row is None:
            raise ValueError(f"{resource.name} has no activity counter")
        return self._counter(self._reset[row][tid])

    def active_threads(self, resource: Resource,
                       tids: Sequence[int]) -> List[int]:
        """Subset of ``tids`` currently active for ``resource``."""
        return [tid for tid in tids if self.is_active(resource, tid)]
