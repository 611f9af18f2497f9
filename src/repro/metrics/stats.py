"""Result containers and metric functions."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.processor import SMTProcessor


def throughput(ipcs: Sequence[float]) -> float:
    """IPC throughput: the sum of per-thread IPCs."""
    return sum(ipcs)


def hmean(values: Sequence[float]) -> float:
    """Harmonic mean; zero if any value is zero (total unfairness)."""
    if not values:
        raise ValueError("hmean of an empty sequence")
    if any(v < 0 for v in values):
        raise ValueError("hmean requires non-negative values")
    if any(v == 0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def hmean_speedup(smt_ipcs: Sequence[float],
                  single_ipcs: Sequence[float]) -> float:
    """Luo et al.'s Hmean metric: harmonic mean of relative IPCs.

    Each thread's relative IPC is its IPC in the SMT mix divided by its
    IPC running alone on the same machine.  The harmonic mean punishes
    policies that starve any single thread, balancing throughput and
    fairness (paper Section 4).
    """
    if len(smt_ipcs) != len(single_ipcs):
        raise ValueError("need one single-thread IPC per SMT IPC")
    if any(s <= 0 for s in single_ipcs):
        raise ValueError("single-thread IPCs must be positive")
    relative = [smt / single for smt, single in zip(smt_ipcs, single_ipcs)]
    return hmean(relative)


def safe_hmean(smt_ipcs: Sequence[float], single_ipcs: Sequence[float],
               context: str = "") -> float:
    """:func:`hmean_speedup` that degrades on a zero baseline.

    A single-thread baseline of zero IPC (a measurement window too
    short to commit anything) makes the Hmean undefined; this variant
    warns and reports 0.0 — the fully-degenerate limit — instead of
    raising mid-sweep.  It is the one shared implementation of that
    degrade contract for the harness, the experiment drivers and the
    report tables.
    """
    if any(s <= 0 for s in single_ipcs):
        where = f" in {context}" if context else ""
        warnings.warn(
            f"zero-IPC single-thread baseline{where} (measurement window "
            "too short?); reporting Hmean 0.0", RuntimeWarning,
            stacklevel=3)
        return 0.0
    return hmean_speedup(smt_ipcs, single_ipcs)


def weighted_speedup(smt_ipcs: Sequence[float],
                     single_ipcs: Sequence[float]) -> float:
    """Tullsen & Brown's weighted speedup: mean of relative IPCs."""
    if len(smt_ipcs) != len(single_ipcs):
        raise ValueError("need one single-thread IPC per SMT IPC")
    if any(s <= 0 for s in single_ipcs):
        raise ValueError("single-thread IPCs must be positive")
    relative = [smt / single for smt, single in zip(smt_ipcs, single_ipcs)]
    return sum(relative) / len(relative)


#: Two-sided 97.5% Student-t quantiles for 1..30 degrees of freedom,
#: inlined so the repro needs no scipy dependency.
_T_TABLE_95: Tuple[float, ...] = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)

#: Past the table, each df band maps to the quantile at its *lower*
#: boundary — t(30)=2.042 for 31..40, t(40)=2.021 for 41..60,
#: t(60)=2.000 for 61..120, t(120)=1.980 beyond.  Since t decreases in
#: df, the step value is always >= the true quantile: intervals err on
#: the conservative (wider) side, by at most ~1%.
_T_TABLE_95_STEPS: Tuple[Tuple[int, float], ...] = (
    (40, 2.042), (60, 2.021), (120, 2.000),
)


def t_quantile_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% Student-t critical value for a given df."""
    if degrees_of_freedom < 1:
        raise ValueError("t quantile needs at least one degree of freedom")
    if degrees_of_freedom <= len(_T_TABLE_95):
        return _T_TABLE_95[degrees_of_freedom - 1]
    for upper_df, quantile in _T_TABLE_95_STEPS:
        if degrees_of_freedom <= upper_df:
            return quantile
    return 1.980


@dataclass(frozen=True)
class ReplicatedResult:
    """Mean, spread and confidence of one metric over seed replications.

    The paper reports point estimates from single runs; replicating each
    run with independent seeds (see
    :func:`repro.harness.engine.derive_seed`) turns every metric into a
    distribution.  This container summarises it the way the report
    tables print it: ``mean ±ci95``.

    Attributes:
        n: number of replications.
        mean: sample mean.
        stddev: sample standard deviation (``ddof=1``); 0.0 when n == 1,
            the degenerate single-replication case.
        ci95: half-width of the two-sided 95% confidence interval of the
            mean (Student-t); 0.0 when n == 1, where no spread estimate
            exists.
        values: the individual per-replication values, in seed order.
    """

    n: int
    mean: float
    stddev: float
    ci95: float
    values: Tuple[float, ...]

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ReplicatedResult":
        """Summarise per-replication values of one metric."""
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("ReplicatedResult of an empty sequence")
        n = len(values)
        mean = sum(values) / n
        if n == 1:
            return cls(1, mean, 0.0, 0.0, values)
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stddev = math.sqrt(variance)
        ci95 = t_quantile_95(n - 1) * stddev / math.sqrt(n)
        return cls(n, mean, stddev, ci95, values)

    def format(self, precision: int = 3) -> str:
        """Render as ``mean ±ci95`` with the given decimal precision."""
        return f"{self.mean:.{precision}f} ±{self.ci95:.{precision}f}"


@dataclass
class ThreadResult:
    """Measured behaviour of one thread in a simulation.

    Attributes mirror the counters the paper reports: committed
    instructions and IPC, fetch activity (including wrong-path and
    refetched work — the front-end overhead of FLUSH-style policies),
    branch and memory behaviour.
    """

    benchmark: str
    committed: int
    ipc: float
    fetched: int
    fetched_wrong_path: int
    squashed: int
    mispredict_rate: float
    l1d_missrate: float
    l2_missrate_pct: float
    slow_cycle_frac: float


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run.

    ``warmup_cycles`` records the warm-up length the run actually
    simulated before measuring — the fixed count, or the length a
    steady-state :class:`~repro.harness.warmup.WarmupPolicy` resolved —
    so runs are auditable after the fact (report tables print it).
    None when the producer predates warm-up recording (e.g. a result
    built directly from :func:`collect_result`).
    """

    policy: str
    cycles: int
    threads: List[ThreadResult]
    avg_l2_overlap: float
    warmup_cycles: Optional[int] = None

    @property
    def ipcs(self) -> List[float]:
        return [t.ipc for t in self.threads]

    @property
    def throughput(self) -> float:
        """Total IPC of the run."""
        return throughput(self.ipcs)

    @property
    def total_fetched(self) -> int:
        """All fetch slots consumed, wrong path and refetches included."""
        return sum(t.fetched for t in self.threads)

    @property
    def total_committed(self) -> int:
        return sum(t.committed for t in self.threads)

    def fetch_overhead(self) -> float:
        """Fetched-to-committed ratio minus one (front-end waste)."""
        committed = self.total_committed
        if committed == 0:
            return 0.0
        return self.total_fetched / committed - 1.0

    def hmean_vs(self, single_ipcs: Sequence[float]) -> float:
        """Hmean fairness against the supplied single-thread baselines."""
        return hmean_speedup(self.ipcs, single_ipcs)

    def weighted_speedup_vs(self, single_ipcs: Sequence[float]) -> float:
        """Weighted speedup against single-thread baselines."""
        return weighted_speedup(self.ipcs, single_ipcs)


def collect_result(processor: "SMTProcessor",
                   benchmarks: Optional[Sequence[str]] = None,
                   policy_name: Optional[str] = None) -> SimulationResult:
    """Snapshot a processor's statistics into a :class:`SimulationResult`.

    Args:
        processor: the simulated processor (after :meth:`run`).
        benchmarks: benchmark names per thread (defaults to profile names).
        policy_name: label for the policy (defaults to the policy's name).
    """
    cycles = processor.stat_cycles
    threads = []
    for thread in processor.threads:
        stats = thread.stats
        mem = processor.hierarchy.thread_stats[thread.tid]
        name = (benchmarks[thread.tid] if benchmarks is not None
                else thread.trace.profile.name)
        mispredict_rate = (stats.mispredicts / stats.branches
                           if stats.branches else 0.0)
        l1d_missrate = (mem.l1d_misses / mem.l1d_accesses
                        if mem.l1d_accesses else 0.0)
        threads.append(ThreadResult(
            benchmark=name,
            committed=stats.committed,
            ipc=stats.ipc(cycles),
            fetched=stats.fetched,
            fetched_wrong_path=stats.fetched_wrong_path,
            squashed=stats.squashed,
            mispredict_rate=mispredict_rate,
            l1d_missrate=l1d_missrate,
            l2_missrate_pct=mem.l2_missrate_pct(),
            slow_cycle_frac=stats.slow_cycles / cycles if cycles else 0.0,
        ))
    return SimulationResult(
        policy=policy_name or processor.policy.name,
        cycles=cycles,
        threads=threads,
        avg_l2_overlap=processor.hierarchy.mshrs.average_l2_overlap(),
    )
