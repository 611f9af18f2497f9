"""Set-associative cache model with true-LRU replacement.

Timing is handled by :mod:`repro.mem.hierarchy`; this class models only
content (hit/miss and replacement).  Sets are small insertion-ordered
dicts used as LRU lists (least recently used first), which is both
compact and fast enough for the hot path of the cycle simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Cache:
    """One level of cache.

    Args:
        name: label used in statistics ("L1D", "L2", ...).
        size_bytes: total capacity.
        assoc: associativity.
        line_bytes: line size; must be a power of two.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int, line_bytes: int = 64) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        num_lines, remainder = divmod(size_bytes, line_bytes)
        if remainder or num_lines % assoc:
            raise ValueError("size must be a multiple of assoc * line size")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = num_lines // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self._offset_bits = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters, keeping cache contents."""
        self.hits = 0
        self.misses = 0

    def line_address(self, addr: int) -> int:
        """Line-aligned address for ``addr``."""
        return addr >> self._offset_bits << self._offset_bits

    def _set_and_tag(self, addr: int) -> tuple:
        line = addr >> self._offset_bits
        return self._sets[line & self._set_mask], line

    def lookup(self, addr: int, update_lru: bool = True) -> bool:
        """Probe the cache.  Returns True on hit (optionally touching LRU)."""
        cache_set, tag = self._set_and_tag(addr)
        if tag in cache_set:
            if update_lru:
                del cache_set[tag]
                cache_set[tag] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Non-statistical, non-LRU-touching presence check (for tests)."""
        cache_set, tag = self._set_and_tag(addr)
        return tag in cache_set

    def fill(self, addr: int) -> Optional[int]:
        """Install the line holding ``addr``.

        Returns:
            The line-aligned address of the victim that was evicted, or
            None when no eviction occurred.
        """
        cache_set, tag = self._set_and_tag(addr)
        victim = None
        if tag in cache_set:
            del cache_set[tag]
        elif len(cache_set) >= self.assoc:
            victim_tag = next(iter(cache_set))
            del cache_set[victim_tag]
            victim = victim_tag << self._offset_bits
        cache_set[tag] = True
        return victim

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr`` if present; True if it was there."""
        cache_set, tag = self._set_and_tag(addr)
        return cache_set.pop(tag, None) is not None

    def capture_state(self) -> dict:
        """Snapshot contents and counters (StateSnapshot protocol).

        Each set is captured as its tag list in LRU order (least
        recently used first — the dict's insertion order), so a
        restored cache evicts in exactly the original order.
        """
        return {
            "sets": [list(cache_set) for cache_set in self._sets],
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite contents and counters from :meth:`capture_state`.

        Raises:
            SnapshotError: the snapshot has a different set count, or a
                set holding more lines than this cache's associativity
                (it was captured from another geometry).
        """
        from repro.snapshot import SnapshotError

        tag_lists = state["sets"]
        if len(tag_lists) != self.num_sets:
            raise SnapshotError(
                f"{self.name} snapshot has {len(tag_lists)} sets, the "
                f"cache has {self.num_sets}")
        if max(map(len, tag_lists), default=0) > self.assoc:
            raise SnapshotError(
                f"{self.name} snapshot holds a set of more than "
                f"{self.assoc} lines (the cache's associativity)")
        self._sets = [dict.fromkeys(tags, True) for tags in tag_lists]
        self.hits = state["hits"]
        self.misses = state["misses"]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Fraction of lookups that missed (0 when never accessed)."""
        total = self.accesses
        return self.misses / total if total else 0.0

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)
