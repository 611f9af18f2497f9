"""Miss status holding registers.

MSHRs track in-flight cache-line fills.  Requests to a line that is
already being fetched merge into the existing entry instead of issuing a
second memory access — this is what lets a thread overlap multiple L2
misses, the "memory parallelism" effect the paper credits DCRA with
increasing (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class MSHREntry:
    """One outstanding line fill.

    Attributes:
        line_addr: line-aligned address being fetched.
        fill_cycle: cycle at which the fill completes.
        is_l2_miss: True when the fill comes from main memory.
        tid: thread that initiated the miss (for per-thread accounting).
        is_ifetch: True for instruction-line fills (fills L1I, not L1D).
        waiters: callbacks invoked when the line arrives; squashed loads
            remove themselves so a fill never wakes dead instructions.
    """

    line_addr: int
    fill_cycle: int
    is_l2_miss: bool
    tid: int
    is_ifetch: bool = False
    waiters: List[Callable[[int], None]] = field(default_factory=list)


class MSHRFile:
    """A bounded file of MSHR entries keyed by line address."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}
        self.merges = 0
        self.allocations = 0
        #: Running sum of outstanding-L2-miss counts, sampled per cycle by
        #: the processor, to derive average memory parallelism.
        self.l2_overlap_samples = 0
        self.l2_overlap_sum = 0
        # Incrementally maintained count of in-flight main-memory fills;
        # sampled every cycle, so a scan over the entries is too slow.
        self._outstanding_l2 = 0

    def reset_stats(self) -> None:
        """Zero accumulated statistics, keeping in-flight entries."""
        self.merges = 0
        self.allocations = 0
        self.l2_overlap_samples = 0
        self.l2_overlap_sum = 0

    def lookup(self, line_addr: int) -> Optional[MSHREntry]:
        """Return the in-flight entry for a line, if any."""
        return self._entries.get(line_addr)

    def full(self) -> bool:
        """True when no further primary miss can be allocated."""
        return len(self._entries) >= self.capacity

    def allocate(self, line_addr: int, fill_cycle: int, is_l2_miss: bool,
                 tid: int, is_ifetch: bool = False) -> MSHREntry:
        """Allocate an entry for a primary miss.

        Raises:
            RuntimeError: if the file is full or the line already in flight
                (callers must check :meth:`lookup` / :meth:`full` first).
        """
        if line_addr in self._entries:
            raise RuntimeError(f"line {line_addr:#x} already has an MSHR")
        if self.full():
            raise RuntimeError("MSHR file is full")
        entry = MSHREntry(line_addr, fill_cycle, is_l2_miss, tid, is_ifetch)
        self._entries[line_addr] = entry
        self.allocations += 1
        if is_l2_miss:
            self._outstanding_l2 += 1
        return entry

    def merge(self, entry: MSHREntry, waiter: Callable[[int], None]) -> None:
        """Attach a secondary miss to an in-flight entry."""
        entry.waiters.append(waiter)
        self.merges += 1

    def capture_state(self) -> dict:
        """Snapshot in-flight entries and counters (StateSnapshot).

        Entries are captured in allocation (dict insertion) order, which
        :meth:`pop_ready` observes.  Waiters are captured as the ``seq``
        of the load each callback belongs to (the processor stamps its
        wake-up closures with an ``op`` attribute); callbacks whose load
        has since been squashed are dropped — invoking them is a no-op,
        so a restored file behaves identically.
        """
        from repro.isa.instruction import ST_SQUASHED

        entries = []
        for entry in self._entries.values():
            waiters = []
            for waiter in entry.waiters:
                op = getattr(waiter, "op", None)
                if op is not None and op.status != ST_SQUASHED \
                        and op.waiting_line >= 0:
                    waiters.append(op.seq)
            entries.append([entry.line_addr, entry.fill_cycle,
                            entry.is_l2_miss, entry.tid, entry.is_ifetch,
                            waiters])
        return {
            "entries": entries,
            "merges": self.merges,
            "allocations": self.allocations,
            "l2_overlap_samples": self.l2_overlap_samples,
            "l2_overlap_sum": self.l2_overlap_sum,
        }

    def restore_state(self, state: dict,
                      waiter_factory: Optional[Callable] = None) -> None:
        """Overwrite entries and counters from :meth:`capture_state`.

        Args:
            waiter_factory: maps a captured load ``seq`` back to a live
                wake-up callback (the processor's ``_make_waiter`` over
                its restored ops).  Required when any entry has waiters.

        Raises:
            SnapshotError: the snapshot holds more entries than this
                file's capacity.
        """
        from repro.snapshot import SnapshotError

        if len(state["entries"]) > self.capacity:
            raise SnapshotError(
                f"MSHR snapshot holds {len(state['entries'])} entries, the "
                f"file has {self.capacity}")
        self._entries = {}
        self._outstanding_l2 = 0
        for line_addr, fill_cycle, is_l2_miss, tid, is_ifetch, waiters \
                in state["entries"]:
            entry = MSHREntry(line_addr, fill_cycle, is_l2_miss, tid,
                              is_ifetch)
            for seq in waiters:
                entry.waiters.append(waiter_factory(seq))
            self._entries[line_addr] = entry
            if is_l2_miss:
                self._outstanding_l2 += 1
        self.merges = state["merges"]
        self.allocations = state["allocations"]
        self.l2_overlap_samples = state["l2_overlap_samples"]
        self.l2_overlap_sum = state["l2_overlap_sum"]

    def pop_ready(self, cycle: int) -> List[MSHREntry]:
        """Remove and return entries whose fills complete at ``cycle``."""
        if not self._entries:
            return []
        ready = [e for e in self._entries.values() if e.fill_cycle <= cycle]
        for entry in ready:
            del self._entries[entry.line_addr]
            if entry.is_l2_miss:
                self._outstanding_l2 -= 1
        return ready

    def outstanding(self) -> int:
        """Number of in-flight line fills."""
        return len(self._entries)

    def outstanding_l2(self, tid: Optional[int] = None) -> int:
        """In-flight main-memory fills, optionally for a single thread."""
        if tid is None:
            return self._outstanding_l2
        return sum(1 for e in self._entries.values()
                   if e.is_l2_miss and e.tid == tid)

    def sample_overlap(self) -> None:
        """Record one per-cycle sample of outstanding L2 misses.

        Only cycles with at least one outstanding miss are sampled, so the
        resulting mean is "average overlapped L2 misses while missing",
        the memory-parallelism measure discussed in Section 5.2.
        """
        outstanding = self._outstanding_l2
        if outstanding:
            self.l2_overlap_samples += 1
            self.l2_overlap_sum += outstanding

    def average_l2_overlap(self) -> float:
        """Mean outstanding L2 misses over miss-active cycles."""
        if not self.l2_overlap_samples:
            return 0.0
        return self.l2_overlap_sum / self.l2_overlap_samples
