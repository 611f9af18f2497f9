"""Branch target buffer.

A set-associative cache of branch targets (paper Table 2: 256 entries,
4-way).  A taken-predicted branch whose target misses in the BTB cannot
redirect fetch that cycle; the front end inserts a bubble instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class BranchTargetBuffer:
    """Set-associative BTB with true-LRU replacement per set.

    Args:
        entries: total number of entries.
        assoc: associativity; ``entries`` must be divisible by ``assoc``.
    """

    def __init__(self, entries: int = 256, assoc: int = 4) -> None:
        if entries <= 0 or assoc <= 0 or entries % assoc:
            raise ValueError("BTB entries must be a positive multiple of assoc")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("BTB set count must be a power of two")
        self._set_mask = self.num_sets - 1
        # Each set is an LRU-ordered list of (tag, target); index 0 is MRU.
        self._sets: List[List[Tuple[int, int]]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, pc: int) -> Tuple[List[Tuple[int, int]], int]:
        index = (pc >> 2) & self._set_mask
        tag = pc >> 2 >> self.num_sets.bit_length() - 1 if self.num_sets > 1 else pc >> 2
        return self._sets[index], tag

    def lookup(self, pc: int) -> Optional[int]:
        """Return the cached target for ``pc`` or None on a BTB miss."""
        entry_set, tag = self._locate(pc)
        for position, (entry_tag, target) in enumerate(entry_set):
            if entry_tag == tag:
                if position:
                    entry_set.insert(0, entry_set.pop(position))
                self.hits += 1
                return target
        self.misses += 1
        return None

    def capture_state(self) -> dict:
        """Snapshot contents and counters (StateSnapshot protocol).

        Sets are captured as ``[tag, target]`` lists in MRU-first order
        (the in-memory layout), so replacement order is preserved.
        """
        return {
            "sets": [[[tag, target] for tag, target in entry_set]
                     for entry_set in self._sets],
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite contents and counters from :meth:`capture_state`.

        Raises:
            SnapshotError: the snapshot has a different set count, or a
                set holding more entries than this BTB's associativity.
        """
        from repro.snapshot import SnapshotError

        entry_sets = state["sets"]
        if len(entry_sets) != self.num_sets:
            raise SnapshotError(
                f"BTB snapshot has {len(entry_sets)} sets, the BTB has "
                f"{self.num_sets}")
        if max(map(len, entry_sets), default=0) > self.assoc:
            raise SnapshotError(
                f"BTB snapshot holds a set of more than {self.assoc} "
                f"entries (the BTB's associativity)")
        self._sets = [[(tag, target) for tag, target in entry_set]
                      for entry_set in entry_sets]
        self.hits = state["hits"]
        self.misses = state["misses"]

    def insert(self, pc: int, target: int) -> None:
        """Install or refresh the target of the branch at ``pc``."""
        entry_set, tag = self._locate(pc)
        for position, (entry_tag, _) in enumerate(entry_set):
            if entry_tag == tag:
                entry_set.pop(position)
                break
        entry_set.insert(0, (tag, target))
        if len(entry_set) > self.assoc:
            entry_set.pop()
