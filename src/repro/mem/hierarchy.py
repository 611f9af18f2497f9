"""Composed memory hierarchy with timing.

Couples the L1 instruction/data caches, the unified L2, the data TLB and
the MSHR file into the interface the pipeline uses:

* :meth:`MemoryHierarchy.access_load` — issue-time lookup for loads;
  returns either a completion cycle (hit / merged miss) or allocates a
  fill and reports when the L2 miss, if any, will be *detected* (the
  trigger STALL/FLUSH-style policies react to).
* :meth:`MemoryHierarchy.access_store` — write-allocate store handling
  through an assumed-unbounded write buffer (stores never stall commit).
* :meth:`MemoryHierarchy.access_ifetch` — I-cache lookup for fetch groups.
* :meth:`MemoryHierarchy.tick` — completes fills whose latency elapsed,
  maintaining inclusion and waking waiting loads via callbacks.

Latency model (paper Table 2): L1 1 cycle, L2 20 cycles, main memory 300
cycles, TLB miss 160 cycles.  A ``perfect_dl1`` switch makes every data
access a 1-cycle hit, used by the paper's Figure 2 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.mem.cache import Cache
from repro.mem.mshr import MSHRFile
from repro.mem.tlb import TranslationBuffer


@dataclass
class ThreadMemStats:
    """Per-thread memory statistics (drives Table 3 and Section 5.2)."""

    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_data_accesses: int = 0
    l2_data_misses: int = 0
    l1i_accesses: int = 0
    l1i_misses: int = 0
    tlb_misses: int = 0
    store_accesses: int = 0
    store_l2_misses: int = 0

    def l2_missrate_pct(self) -> float:
        """L2 data misses per 100 L1D accesses.

        This is the definition we tune the synthetic profiles against:
        the fraction of data references that must go to main memory.  It
        is the quantity that determines how long a thread holds resources,
        which is what the paper's MEM (>1%) / ILP classification captures.
        """
        if not self.l1d_accesses:
            return 0.0
        return 100.0 * self.l2_data_misses / self.l1d_accesses


@dataclass
class AccessResult:
    """Outcome of a load issue-time access.

    Attributes:
        complete_cycle: when the value is available (None while unknown —
            never the case in the current model, kept for API clarity).
        l1_miss: the access missed L1D.
        l2_miss: the access ultimately goes to main memory.
        l2_detect_cycle: cycle at which an L2 miss becomes *known* (L2
            lookup time); None when no L2 miss.  Fetch policies trigger
            off this moment, reproducing the "detected too late" effect
            the paper describes for STALL/FLUSH.
        tlb_miss: the access missed the data TLB.
        line_addr: line-aligned address (for MSHR bookkeeping / squash).
        retry: True when the MSHR file was full and the access must be
            retried by the issue stage on a later cycle.
    """

    complete_cycle: Optional[int]
    l1_miss: bool = False
    l2_miss: bool = False
    l2_detect_cycle: Optional[int] = None
    tlb_miss: bool = False
    line_addr: int = -1
    retry: bool = False


class MemoryHierarchy:
    """Two-level cache hierarchy with MSHRs, TLB and flat main memory."""

    def __init__(
        self,
        num_threads: int,
        l1i_size: int = 64 * 1024,
        l1d_size: int = 64 * 1024,
        l1_assoc: int = 2,
        line_bytes: int = 64,
        l2_size: int = 512 * 1024,
        l2_assoc: int = 8,
        l1_latency: int = 1,
        l2_latency: int = 20,
        memory_latency: int = 300,
        tlb_entries: int = 128,
        tlb_penalty: int = 160,
        mshr_capacity: int = 64,
        perfect_dl1: bool = False,
        inclusive_l2: bool = False,
    ) -> None:
        self.l1i = Cache("L1I", l1i_size, l1_assoc, line_bytes)
        self.l1d = Cache("L1D", l1d_size, l1_assoc, line_bytes)
        self.l2 = Cache("L2", l2_size, l2_assoc, line_bytes)
        self.dtlb = TranslationBuffer(tlb_entries)
        self.mshrs = MSHRFile(mshr_capacity)
        self.l1_latency = l1_latency
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        self.tlb_penalty = tlb_penalty
        self.perfect_dl1 = perfect_dl1
        #: With strict inclusion, one thread's L2 churn (e.g. mcf's miss
        #: stream) would invalidate other threads' hot L1/L1I lines and
        #: turn their fetch into 300-cycle stalls — far harsher than the
        #: mostly-inclusive hierarchies of the period.  Default is a
        #: non-inclusive L2 (L1 lines survive L2 evictions).
        self.inclusive_l2 = inclusive_l2
        self.thread_stats: Dict[int, ThreadMemStats] = {
            tid: ThreadMemStats() for tid in range(num_threads)
        }

    def reset_stats(self) -> None:
        """Zero every statistic accumulated so far, keeping contents.

        Covers the per-thread counters *and* the structural hit/miss
        counters of the caches, the TLB and the MSHR file, so a
        measurement window that starts after warm-up sees only its own
        events (in-flight fills and cached lines survive untouched).
        """
        for stats in self.thread_stats.values():
            stats.__init__()
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.dtlb.reset_stats()
        self.mshrs.reset_stats()

    def capture_state(self) -> dict:
        """Snapshot cache/TLB/MSHR contents and statistics
        (StateSnapshot protocol), fanning out like ``reset_stats``."""
        return {
            "l1i": self.l1i.capture_state(),
            "l1d": self.l1d.capture_state(),
            "l2": self.l2.capture_state(),
            "dtlb": self.dtlb.capture_state(),
            "mshrs": self.mshrs.capture_state(),
            "thread_stats": [
                [stats.l1d_accesses, stats.l1d_misses,
                 stats.l2_data_accesses, stats.l2_data_misses,
                 stats.l1i_accesses, stats.l1i_misses, stats.tlb_misses,
                 stats.store_accesses, stats.store_l2_misses]
                for _, stats in sorted(self.thread_stats.items())
            ],
        }

    def restore_state(self, state: dict,
                      waiter_factory: Optional[Callable] = None) -> None:
        """Overwrite hierarchy state from :meth:`capture_state`.

        Args:
            waiter_factory: forwarded to
                :meth:`~repro.mem.mshr.MSHRFile.restore_state` to rebuild
                load wake-up callbacks from their captured ``seq`` ids.
        """
        self.l1i.restore_state(state["l1i"])
        self.l1d.restore_state(state["l1d"])
        self.l2.restore_state(state["l2"])
        self.dtlb.restore_state(state["dtlb"])
        self.mshrs.restore_state(state["mshrs"], waiter_factory)
        for tid, row in enumerate(state["thread_stats"]):
            (l1d_accesses, l1d_misses, l2_data_accesses, l2_data_misses,
             l1i_accesses, l1i_misses, tlb_misses, store_accesses,
             store_l2_misses) = row
            self.thread_stats[tid] = ThreadMemStats(
                l1d_accesses, l1d_misses, l2_data_accesses, l2_data_misses,
                l1i_accesses, l1i_misses, tlb_misses, store_accesses,
                store_l2_misses)

    # -- loads ---------------------------------------------------------------

    def access_load(self, tid: int, addr: int, cycle: int,
                    waiter: Callable[[int], None]) -> AccessResult:
        """Perform the issue-time cache access of a load.

        Args:
            tid: issuing thread.
            addr: byte address.
            cycle: issue cycle.
            waiter: callback invoked with the fill cycle when a miss
                completes; not called for hits (caller schedules those).
        """
        # AccessResult is built positionally (keyword calls cost about
        # twice as much on Python 3.11): complete_cycle, l1_miss,
        # l2_miss, l2_detect_cycle, tlb_miss, line_addr, retry.
        stats = self.thread_stats[tid]
        stats.l1d_accesses += 1
        if self.perfect_dl1:
            return AccessResult(cycle + self.l1_latency)

        tlb_extra = 0
        tlb_miss = not self.dtlb.access(addr)
        if tlb_miss:
            stats.tlb_misses += 1
            tlb_extra = self.tlb_penalty

        line = self.l1d.line_address(addr)
        if self.l1d.lookup(addr):
            return AccessResult(cycle + self.l1_latency + tlb_extra, False,
                                False, None, tlb_miss, line)

        stats.l1d_misses += 1
        in_flight = self.mshrs.lookup(line)
        if in_flight is not None:
            self.mshrs.merge(in_flight, waiter)
            is_l2_miss = in_flight.is_l2_miss
            return AccessResult(
                None, True, is_l2_miss,
                cycle + self.l2_latency if is_l2_miss else None,
                tlb_miss, line)

        if self.mshrs.full():
            # Structural hazard: the issue stage retries next cycle.
            stats.l1d_accesses -= 1
            stats.l1d_misses -= 1
            if tlb_miss:
                stats.tlb_misses -= 1
            return AccessResult(None, False, False, None, False, line, True)

        stats.l2_data_accesses += 1
        l2_hit = self.l2.lookup(addr)
        if l2_hit:
            fill = cycle + self.l1_latency + self.l2_latency + tlb_extra
            entry = self.mshrs.allocate(line, fill, False, tid)
            entry.waiters.append(waiter)
            return AccessResult(None, True, False, None, tlb_miss, line)

        stats.l2_data_misses += 1
        fill = (cycle + self.l1_latency + self.l2_latency
                + self.memory_latency + tlb_extra)
        entry = self.mshrs.allocate(line, fill, True, tid)
        entry.waiters.append(waiter)
        return AccessResult(None, True, True, cycle + self.l2_latency,
                            tlb_miss, line)

    # -- stores --------------------------------------------------------------

    def access_store(self, tid: int, addr: int, cycle: int) -> None:
        """Handle a store through the write buffer (never stalls).

        Write-allocate: a missing store pulls its line like a load would,
        so stores shape cache contents and bank pressure, but no pipeline
        resource waits on them.
        """
        stats = self.thread_stats[tid]
        stats.store_accesses += 1
        if self.perfect_dl1:
            return
        line = self.l1d.line_address(addr)
        if self.l1d.lookup(addr):
            return
        if self.mshrs.lookup(line) is not None or self.mshrs.full():
            return
        if self.l2.lookup(addr):
            self.mshrs.allocate(line, cycle + self.l1_latency + self.l2_latency,
                                False, tid)
            return
        stats.store_l2_misses += 1
        self.mshrs.allocate(
            line,
            cycle + self.l1_latency + self.l2_latency + self.memory_latency,
            True, tid,
        )

    # -- instruction fetch -----------------------------------------------------

    def access_ifetch(self, tid: int, pc: int, cycle: int) -> Optional[int]:
        """I-cache access for a fetch group.

        Returns:
            None on a hit (fetch proceeds this cycle), else the cycle at
            which the line arrives and fetch may resume.
        """
        stats = self.thread_stats[tid]
        stats.l1i_accesses += 1
        if self.l1i.lookup(pc):
            return None
        stats.l1i_misses += 1
        line = self.l1i.line_address(pc)
        in_flight = self.mshrs.lookup(line)
        if in_flight is not None:
            return in_flight.fill_cycle
        if self.mshrs.full():
            return cycle + 1  # retry next cycle
        if self.l2.lookup(pc):
            fill = cycle + self.l1_latency + self.l2_latency
            self.mshrs.allocate(line, fill, False, tid, is_ifetch=True)
            return fill
        fill = cycle + self.l1_latency + self.l2_latency + self.memory_latency
        self.mshrs.allocate(line, fill, True, tid, is_ifetch=True)
        return fill

    # -- per-cycle maintenance --------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Complete fills due at ``cycle`` and sample MLP statistics."""
        mshrs = self.mshrs
        if not mshrs.outstanding():
            return  # nothing in flight: nothing to sample or fill
        mshrs.sample_overlap()
        for entry in mshrs.pop_ready(cycle):
            if entry.is_l2_miss:
                victim = self.l2.fill(entry.line_addr)
                if victim is not None and self.inclusive_l2:
                    self.l1d.invalidate(victim)
                    self.l1i.invalidate(victim)
            if entry.is_ifetch:
                self.l1i.fill(entry.line_addr)
            else:
                self.l1d.fill(entry.line_addr)
            for waiter in entry.waiters:
                waiter(cycle)

    def prewarm(self, tid: int, base: int, size: int, kind: str) -> None:
        """Install a region's lines as if a long execution preceded t=0.

        The paper simulates the hottest 300M-instruction segment of each
        benchmark, i.e. steady-state cache contents.  A pure-Python cycle
        simulator cannot afford hundreds of millions of warm-up
        instructions, so each thread's code, hot-data and warm-data
        regions are pre-installed instead (cold regions stay cold — by
        definition they never fit).  Inclusion is maintained: an L2
        eviction during pre-warming drops the victim's L1 copies.

        Args:
            tid: owning thread (unused for placement; regions are
                disjoint by construction, but kept for clarity).
            base: region start address.
            size: region size in bytes.
            kind: ``"code"`` (L2 + L1I), ``"hot"`` (L2 + L1D + TLB) or
                ``"warm"`` (L2 only).
        """
        if kind not in ("code", "hot", "warm"):
            raise ValueError(f"unknown prewarm kind {kind!r}")
        # Cache.fill and Cache.invalidate inlined over the region's line
        # numbers (all levels share the line size, so a line number is
        # every cache's tag): the contents and LRU order of filling line
        # by line, without a method call per line.  Address
        # ``base + i * line`` is line ``(base >> offset) + i`` even when
        # ``base`` is not line-aligned.
        l2, l1d, l1i = self.l2, self.l1d, self.l1i
        first = base >> l2._offset_bits
        lines = range(first, first + len(range(base, base + size,
                                               l2.line_bytes)))
        l2_sets, l2_mask, l2_assoc = l2._sets, l2._set_mask, l2.assoc
        l1 = l1i if kind == "code" else l1d if kind == "hot" else None
        if l1 is not None:
            l1_sets, l1_mask, l1_assoc = l1._sets, l1._set_mask, l1.assoc
        inclusive = self.inclusive_l2
        for line in lines:
            cache_set = l2_sets[line & l2_mask]
            if line in cache_set:
                del cache_set[line]
            elif len(cache_set) >= l2_assoc:
                victim = next(iter(cache_set))
                del cache_set[victim]
                if inclusive:
                    l1d._sets[victim & l1d._set_mask].pop(victim, None)
                    l1i._sets[victim & l1i._set_mask].pop(victim, None)
            cache_set[line] = True
            if l1 is None:
                continue
            cache_set = l1_sets[line & l1_mask]
            if line in cache_set:
                del cache_set[line]
            elif len(cache_set) >= l1_assoc:
                del cache_set[next(iter(cache_set))]
            cache_set[line] = True
        if kind == "hot":
            for addr in range(base, base + size, self.dtlb.page_bytes):
                self.dtlb.access(addr)
            self.dtlb.hits = 0
            self.dtlb.misses = 0

    def pending_fill_cycle(self, line_addr: int) -> Optional[int]:
        """Fill time of an in-flight line, if any (used by merged loads)."""
        entry = self.mshrs.lookup(line_addr)
        return entry.fill_cycle if entry is not None else None
