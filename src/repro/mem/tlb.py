"""Data translation lookaside buffer.

The paper charges a 160-cycle penalty on TLB misses (Table 2).  We model a
fully associative, LRU data TLB; instruction translation is assumed to hit
(synthetic code footprints are small relative to page reach).
"""

from __future__ import annotations

from typing import Dict


class TranslationBuffer:
    """Fully associative LRU TLB.

    Args:
        entries: number of page translations held.
        page_bytes: page size; must be a power of two.
    """

    def __init__(self, entries: int = 128, page_bytes: int = 8192) -> None:
        if entries <= 0:
            raise ValueError("TLB must have at least one entry")
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise ValueError("page size must be a power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self._page_bits = page_bytes.bit_length() - 1
        self._pages: Dict[int, bool] = {}
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters, keeping cached translations."""
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns True on hit, filling on miss."""
        page = addr >> self._page_bits
        pages = self._pages
        if page in pages:
            del pages[page]
            pages[page] = True
            self.hits += 1
            return True
        self.misses += 1
        if len(pages) >= self.entries:
            del pages[next(iter(pages))]
        pages[page] = True
        return False

    def capture_state(self) -> dict:
        """Snapshot translations and counters (StateSnapshot protocol).

        Pages are captured in LRU order (least recently used first), so
        a restored TLB replaces in exactly the original order.
        """
        return {
            "pages": list(self._pages),
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite translations and counters from :meth:`capture_state`.

        Raises:
            SnapshotError: the snapshot holds more pages than this TLB
                has entries (it was captured from another geometry).
        """
        from repro.snapshot import SnapshotError

        pages = state["pages"]
        if len(pages) > self.entries:
            raise SnapshotError(
                f"TLB snapshot holds {len(pages)} pages, the TLB has "
                f"{self.entries} entries")
        self._pages = dict.fromkeys(pages, True)
        self.hits = state["hits"]
        self.misses = state["misses"]

    def miss_rate(self) -> float:
        """Fraction of translations that missed."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
