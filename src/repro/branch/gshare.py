"""gshare conditional branch predictor.

A pattern history table of 2-bit saturating counters indexed by the XOR of
the branch PC and the global history register (McFarling's gshare).  The
paper's configuration is a 16K-entry table; on the SMT, the table is shared
between threads while each thread keeps its own history register (managed
by :class:`repro.branch.unit.BranchUnit`).
"""

from __future__ import annotations


class GsharePredictor:
    """2-bit-counter gshare predictor with a shared pattern table.

    Args:
        entries: number of 2-bit counters; must be a power of two.
        history_bits: how many global-history bits are XORed into the
            index.  ``None`` uses the full index width (classic gshare).
            The default is 0 — a degenerate gshare, i.e. a per-PC bimodal
            table.  This is a deliberate substitution: the synthetic
            workloads draw branch outcomes independently per site, so
            global history carries no exploitable correlation and a full
            history register merely scatters the training of each site
            over thousands of counters.  With real traces the paper's
            16K gshare reaches ~90-95% accuracy; the bimodal degenerate
            form reaches the same accuracy on the synthetic streams,
            preserving the wrong-path resource pressure that matters to
            the policies under study.
    """

    #: Counters start weakly taken, the usual initialisation.
    _INIT = 2

    def __init__(self, entries: int = 16 * 1024,
                 history_bits: int = 0) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("gshare table size must be a positive power of two")
        self.entries = entries
        self._mask = entries - 1
        index_bits = entries.bit_length() - 1
        if history_bits is None:
            history_bits = index_bits
        if not 0 <= history_bits <= index_bits:
            raise ValueError("history_bits must be between 0 and log2(entries)")
        self.history_bits = history_bits
        self._hist_mask = (1 << history_bits) - 1
        self._table = bytearray([self._INIT] * entries)

    def capture_state(self) -> dict:
        """Snapshot the pattern history table (StateSnapshot protocol),
        one counter per byte, as base64."""
        from repro.snapshot import bytes_to_b64

        return {"table": bytes_to_b64(self._table)}

    def restore_state(self, state: dict) -> None:
        """Overwrite the pattern table from :meth:`capture_state`.

        Raises:
            SnapshotError: the snapshot's table has another length.
        """
        from repro.snapshot import SnapshotError, b64_to_bytes

        table = b64_to_bytes(state["table"])
        if len(table) != self.entries:
            raise SnapshotError(
                f"gshare snapshot has {len(table)} counters, the table "
                f"has {self.entries}")
        self._table = bytearray(table)

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ (history & self._hist_mask)) & self._mask

    def predict(self, pc: int, history: int) -> bool:
        """Predict the branch at ``pc`` under the given history register."""
        return self._table[self._index(pc, history)] >= 2

    def update(self, pc: int, history: int, taken: bool) -> None:
        """Train the counter that produced the prediction."""
        idx = self._index(pc, history)
        counter = self._table[idx]
        if taken:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1

    def shift_history(self, history: int, taken: bool) -> int:
        """Return the new history register after observing an outcome."""
        return ((history << 1) | int(taken)) & self._hist_mask

    @property
    def history_mask(self) -> int:
        """Mask bounding valid history register values."""
        return self._hist_mask
