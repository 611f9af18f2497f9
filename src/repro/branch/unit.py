"""Front-end branch unit: gshare + BTB + per-thread RAS and histories.

This is the composition the fetch stage consults once per branch.  Tables
(gshare PHT, BTB) are shared between hardware contexts while each thread
owns its history register and return address stack, the arrangement used
by the SMTSIM family of simulators the paper builds on.

The simulator is trace driven, so the actual branch outcome is known at
fetch time; predictor state is trained immediately and the *misprediction*
is acted upon when the branch executes (squash + redirect), with wrong-path
instructions fetched in between.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.ras import ReturnAddressStack
from repro.isa.instruction import BranchKind, StaticOp

# Bound once: an Enum class attribute read is slow on Python < 3.12.
_CALL = BranchKind.CALL
_RETURN = BranchKind.RETURN


@dataclass
class BranchPrediction:
    """Outcome of one fetch-time prediction.

    Attributes:
        taken: predicted direction.
        target: predicted target (meaningful when ``taken``).
        mispredicted: True when direction or target disagree with the trace.
        btb_bubble: True when a taken prediction had no BTB target; fetch
            ends the group and pays a small refill penalty, but no wrong
            path is entered.
        wrong_path_pc: where speculative fetch continues on a mispredict.
    """

    taken: bool
    target: int
    mispredicted: bool
    btb_bubble: bool
    wrong_path_pc: int


class BranchUnit:
    """Shared predictor tables plus per-thread history and RAS."""

    def __init__(
        self,
        num_threads: int,
        gshare_entries: int = 16 * 1024,
        gshare_history_bits: int = 0,
        btb_entries: int = 256,
        btb_assoc: int = 4,
        ras_depth: int = 256,
    ) -> None:
        self.gshare = GsharePredictor(gshare_entries, gshare_history_bits)
        self.btb = BranchTargetBuffer(btb_entries, btb_assoc)
        self._ras = [ReturnAddressStack(ras_depth) for _ in range(num_threads)]
        self._history = [0] * num_threads
        self.cond_predictions = 0
        self.cond_mispredictions = 0

    def history(self, tid: int) -> int:
        """Current global-history register of a thread (for inspection)."""
        return self._history[tid]

    def reset_stats(self) -> None:
        """Zero prediction statistics, keeping all predictor state."""
        self.cond_predictions = 0
        self.cond_mispredictions = 0
        self.btb.hits = 0
        self.btb.misses = 0
        for ras in self._ras:
            ras.overflows = 0
            ras.underflows = 0

    def capture_state(self) -> dict:
        """Snapshot all predictor state (StateSnapshot protocol),
        delegating to the shared tables and per-thread structures the
        same way ``reset_stats`` fans out."""
        return {
            "gshare": self.gshare.capture_state(),
            "btb": self.btb.capture_state(),
            "ras": [ras.capture_state() for ras in self._ras],
            "history": list(self._history),
            "cond_predictions": self.cond_predictions,
            "cond_mispredictions": self.cond_mispredictions,
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite predictor state from :meth:`capture_state`."""
        self.gshare.restore_state(state["gshare"])
        self.btb.restore_state(state["btb"])
        for ras, entry in zip(self._ras, state["ras"]):
            ras.restore_state(entry)
        self._history = list(state["history"])
        self.cond_predictions = state["cond_predictions"]
        self.cond_mispredictions = state["cond_mispredictions"]

    def predict_and_train(self, tid: int, op: StaticOp) -> BranchPrediction:
        """Predict the fetched branch and immediately train the tables.

        Args:
            tid: fetching hardware context.
            op: the branch's static descriptor (carries the true outcome).
        """
        kind = op.branch_kind
        if kind == _RETURN:
            return self._predict_return(tid, op)
        if kind == _CALL:
            return self._predict_call(tid, op)
        return self._predict_conditional(tid, op)

    def _predict_conditional(self, tid: int, op: StaticOp) -> BranchPrediction:
        history = self._history[tid]
        pred_taken = self.gshare.predict(op.pc, history)
        self.gshare.update(op.pc, history, op.taken)
        self._history[tid] = self.gshare.shift_history(history, op.taken)
        self.cond_predictions += 1

        if pred_taken:
            btb_target = self.btb.lookup(op.pc)
            if op.taken:
                self.btb.insert(op.pc, op.target)
            if btb_target is None:
                # No target to redirect to: fetch falls through after a
                # short bubble.  Falling through is only wrong when the
                # branch was actually taken.
                if op.taken:
                    self.cond_mispredictions += 1
                    return BranchPrediction(True, 0, True, True, op.pc + 4)
                return BranchPrediction(False, op.pc + 4, False, True, 0)
            if op.taken and btb_target == op.target:
                return BranchPrediction(True, btb_target, False, False, 0)
            # Wrong direction or stale target: wrong path at the BTB target.
            self.cond_mispredictions += 1
            return BranchPrediction(True, btb_target, True, False, btb_target)

        # Predicted not taken: fall through.
        if op.taken:
            self.cond_mispredictions += 1
            self.btb.insert(op.pc, op.target)
            return BranchPrediction(False, op.pc + 4, True, False, op.pc + 4)
        return BranchPrediction(False, op.pc + 4, False, False, 0)

    def _predict_call(self, tid: int, op: StaticOp) -> BranchPrediction:
        # Calls are unconditionally taken; push the fall-through on the RAS.
        self._ras[tid].push(op.pc + 4)
        btb_target = self.btb.lookup(op.pc)
        self.btb.insert(op.pc, op.target)
        if btb_target is None:
            return BranchPrediction(True, op.target, False, True, op.pc + 4)
        if btb_target == op.target:
            return BranchPrediction(True, btb_target, False, False, 0)
        return BranchPrediction(True, btb_target, True, False, btb_target)

    def _predict_return(self, tid: int, op: StaticOp) -> BranchPrediction:
        predicted = self._ras[tid].pop()
        if predicted is None:
            # Empty RAS: unpredictable return, treated as a mispredict.
            return BranchPrediction(True, 0, True, False, op.pc + 4)
        if predicted == op.target:
            return BranchPrediction(True, predicted, False, False, 0)
        return BranchPrediction(True, predicted, True, False, predicted)

    def mispredict_rate(self) -> float:
        """Conditional mispredict rate observed so far (0..1)."""
        if not self.cond_predictions:
            return 0.0
        return self.cond_mispredictions / self.cond_predictions
