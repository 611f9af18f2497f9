"""Degenerate-case guard for DCRA (the paper's stated future work).

Section 5.2 observes that mcf is a *degenerate case*: DCRA raises its
overlapped L2 misses by 31%, yet its IPC is so memory-bound that the
extra resources buy almost nothing while slightly hurting the other
threads, which is why FLUSH++ edges DCRA on pure-MEM workloads.  The
authors close with: "Future work will try to detect these degenerate
cases in which assigning more resources to a thread does not contribute
at all to increased overall results."

:class:`AdaptiveDcraPolicy` implements that detection with per-thread A/B
probing.  Each persistently slow thread alternates measurement windows
between *borrow* mode (the normal DCRA entitlement) and *clamp* mode
(just its equal active split, C = 0).  If borrowing does not improve the
thread's own commit rate by at least ``benefit_threshold``, the thread is
clamped for ``settle_windows`` windows — returning the borrowed entries
to the pool — before being re-probed (programs change phases, so a
degenerate classification must expire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.dcra import DcraConfig, DcraPolicy
from repro.pipeline.resources import Resource

# Probe-state constants (plain ints on a per-cycle path).
_PROBE_BORROW = 0
_PROBE_CLAMP = 1
_SETTLED = 2


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tunables of the degenerate-case guard.

    Attributes:
        dcra: the underlying DCRA configuration.
        window: cycles per probing window.
        benefit_threshold: minimum relative commit-rate gain of borrow
            mode over clamp mode for borrowing to be considered useful.
        settle_windows: windows a verdict (either way) remains in force
            before the thread is probed again.
        slow_fraction: fraction of a window a thread must be slow for
            probing to apply at all (fast threads are never clamped).
    """

    dcra: DcraConfig = DcraConfig()
    window: int = 2048
    benefit_threshold: float = 0.05
    settle_windows: int = 4
    slow_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.settle_windows < 1:
            raise ValueError("settle_windows must be at least 1")


class AdaptiveDcraPolicy(DcraPolicy):
    """DCRA + detection of threads that waste their borrowed share."""

    name = "DCRA-ADAPT"

    def __init__(self, config: AdaptiveConfig = AdaptiveConfig()) -> None:
        super().__init__(config.dcra)
        self.adaptive = config
        self._state: List[int] = []
        self._clamped: List[bool] = []
        self._window_start_commits: List[int] = []
        self._window_slow_cycles: List[int] = []
        self._probe_rates: List[List[float]] = []
        self._settle_left: List[int] = []
        #: Number of clamp verdicts issued (introspection / tests).
        self.clamp_verdicts = 0

    def on_attach(self) -> None:
        super().on_attach()
        num = self.processor.num_threads
        self._state = [_PROBE_BORROW] * num
        self._clamped = [False] * num
        self._window_start_commits = [0] * num
        self._window_slow_cycles = [0] * num
        self._probe_rates = [[0.0, 0.0] for _ in range(num)]
        self._settle_left = [0] * num

    def reset_stats(self) -> None:
        """Zero statistics; rebase window baselines on the stats reset.

        ``_window_start_commits`` stores absolute committed counts, which
        the processor is about to zero (this hook runs before the thread
        stats are replaced).  Rebasing by the pre-reset counts keeps the
        current window's measured commit rate identical to what an
        uninterrupted run would have seen, so a warm-up reset never
        changes probing verdicts.
        """
        super().reset_stats()
        self.clamp_verdicts = 0
        for tid, thread in enumerate(self.processor.threads):
            self._window_start_commits[tid] -= thread.stats.committed

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["adaptive"] = {
            "state": list(self._state),
            "clamped": list(self._clamped),
            "window_start_commits": list(self._window_start_commits),
            "window_slow_cycles": list(self._window_slow_cycles),
            "probe_rates": [list(rates) for rates in self._probe_rates],
            "settle_left": list(self._settle_left),
            "clamp_verdicts": self.clamp_verdicts,
        }
        return state

    def restore_state(self, state: dict, ops_by_seq=None) -> None:
        super().restore_state(state, ops_by_seq)
        adaptive = state["adaptive"]
        self._state = list(adaptive["state"])
        self._clamped = [bool(flag) for flag in adaptive["clamped"]]
        self._window_start_commits = list(adaptive["window_start_commits"])
        self._window_slow_cycles = list(adaptive["window_slow_cycles"])
        self._probe_rates = [[float(rate) for rate in rates]
                             for rates in adaptive["probe_rates"]]
        self._settle_left = list(adaptive["settle_left"])
        self.clamp_verdicts = adaptive["clamp_verdicts"]

    # -- cap override ---------------------------------------------------------

    def cap_for(self, resource: Resource, tid: int) -> int:
        if self._clamped[tid]:
            return self._equal_split[resource]
        return self._caps[resource]

    # -- probing --------------------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        super().begin_cycle(cycle)
        slow_cycles = self._window_slow_cycles
        for tid in self._slow_tids:
            slow_cycles[tid] += 1
        if cycle and cycle % self.adaptive.window == 0:
            self._end_window()
            # New verdicts change cap_for after this cycle's fetch gate
            # ran: this cycle's renames and the next cycle's gate see
            # them, so the next cycle must not be skipped.
            self._rebuild_limits()
            self._gate_rob_used = None

    def quiesce_horizon(self, cycle: int) -> Optional[int]:
        # The DCRA horizon, capped at the next probe-window boundary
        # (this very cycle when it is one, so begin_cycle ends it).
        horizon = super().quiesce_horizon(cycle)
        remainder = cycle % self.adaptive.window
        boundary = cycle if remainder == 0 else \
            cycle + self.adaptive.window - remainder
        return boundary if horizon is None else min(horizon, boundary)

    def on_quiescent_skip(self, cycles: int) -> None:
        super().on_quiescent_skip(cycles)
        slow_cycles = self._window_slow_cycles
        for tid in self._slow_tids:
            slow_cycles[tid] += cycles

    def _end_window(self) -> None:
        cfg = self.adaptive
        for tid, thread in enumerate(self.processor.threads):
            committed = thread.stats.committed
            rate = (committed - self._window_start_commits[tid]) / cfg.window
            self._window_start_commits[tid] = committed
            slow_frac = self._window_slow_cycles[tid] / cfg.window
            self._window_slow_cycles[tid] = 0

            if slow_frac < cfg.slow_fraction:
                # Mostly fast: no probing, full entitlement.
                self._state[tid] = _PROBE_BORROW
                self._clamped[tid] = False
                self._settle_left[tid] = 0
                continue

            state = self._state[tid]
            if state == _PROBE_BORROW:
                self._probe_rates[tid][0] = rate
                self._state[tid] = _PROBE_CLAMP
                self._clamped[tid] = True
            elif state == _PROBE_CLAMP:
                self._probe_rates[tid][1] = rate
                borrow_rate, clamp_rate = self._probe_rates[tid]
                useful = borrow_rate > clamp_rate * (1 + cfg.benefit_threshold)
                self._clamped[tid] = not useful
                if not useful:
                    self.clamp_verdicts += 1
                self._state[tid] = _SETTLED
                self._settle_left[tid] = cfg.settle_windows
            else:  # settled: count down to the next probe.
                self._settle_left[tid] -= 1
                if self._settle_left[tid] <= 0:
                    self._state[tid] = _PROBE_BORROW
                    self._clamped[tid] = False

    # -- introspection ----------------------------------------------------------

    def is_clamped(self, tid: int) -> bool:
        """True while the guard holds ``tid`` to its equal split."""
        return self._clamped[tid]
