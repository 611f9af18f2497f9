"""Workload runners and metric evaluation.

The functions here are the building blocks every experiment driver and
example uses: run a set of benchmarks under a policy, collect a
:class:`~repro.metrics.stats.SimulationResult`, and evaluate throughput
and Hmean fairness against cached single-thread baselines.

Single-thread baselines are memoised in memory and on disk by
:class:`BaselineCache`, a kind of the store core every harness cache
shares (:class:`~repro.harness.results.ContentStore`), so repeated
invocations — and the worker processes of the parallel experiment
engine (:mod:`repro.harness.engine`) — share one set of baseline runs.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.harness.progress import IntervalProgress, emit_progress
from repro.harness.results import (
    ContentStore,
    _snapshot_from_payload,
    _snapshot_to_payload,
    policy_token,
    source_fingerprint,
)
from repro.harness.warmup import (
    WarmupPolicy,
    WarmupSpec,
    as_warmup_policy,
    warmup_cache_token,
)
from repro.metrics.intervals import (
    IntervalRecorder,
    capture_counter_state,
    snapshot_between,
    snapshots_to_result,
)
from repro.metrics.stats import (
    ReplicatedResult,
    SimulationResult,
    collect_result,
    safe_hmean,
)
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.registry import make_policy
from repro.trace.profiles import get_profile
from repro.trace.workloads import Workload

#: Default measured window and cache warm-up, in cycles.  These are
#: conservative single-run defaults; with the parallel engine (PR 1) and
#: executor backends (PR 2) much longer windows are tractable — for
#: low-variance runs prefer ``cycles=100_000``-plus together with
#: ``interval_cycles=5_000`` (chunked runs flush per-interval statistics
#: as they go, see :func:`run_benchmarks_intervals`) and ``reps >= 3``
#: for ±95% CI error bars.
DEFAULT_CYCLES = 20_000
DEFAULT_WARMUP = 3_000

#: Default chunk size for interval-mode runs: long enough that the
#: per-interval counter capture is noise (<5% overhead), short enough
#: that phase/IPC timelines resolve the paper's program phases.
DEFAULT_INTERVAL_CYCLES = 5_000

PolicySpec = Union[str, Tuple[str, dict]]

#: The store fingerprint lives in :mod:`repro.harness.results`; this
#: alias keeps the historical import path
#: (`from repro.harness.runner import simulator_fingerprint`) working.
simulator_fingerprint = source_fingerprint


def _checked_ipc(ipc) -> float:
    """A baseline IPC as stored: a plain number, both ways."""
    if not isinstance(ipc, (int, float)):
        raise TypeError(f"not an IPC: {ipc!r}")
    return float(ipc)


class BaselineCache(ContentStore):
    """Single-thread IPCs, the Hmean denominators: the ``baselines/``
    store kind.

    The token is the full run descriptor — benchmark name, the ``repr``
    of the :class:`SMTConfig` (every field participates), measured
    cycles, the warm-up token
    (:func:`~repro.harness.warmup.warmup_cache_token` — a plain cycle
    count for fixed warm-up, the full policy parameterisation for
    steady-state warm-up, so the two can never collide) and seed.  The
    mechanics (key under the source fingerprint, atomic writes shared
    by every worker process, memory layer, counters) are the shared
    :class:`~repro.harness.results.ContentStore` core; ``stats`` counts
    baseline traffic apart from the result store's.
    """

    subdir = "baselines"
    codecs = {"baseline": (_checked_ipc, _checked_ipc)}

    @staticmethod
    def _token(benchmark: str, config: SMTConfig, cycles: int,
               warmup: WarmupSpec, seed: int) -> str:
        return (f"{benchmark}|{config!r}|{cycles}|"
                f"{warmup_cache_token(warmup)}|{seed}")

    def get(self, benchmark: str, config: SMTConfig, cycles: int,
            warmup: WarmupSpec, seed: int) -> Optional[float]:
        """Cached IPC for a baseline run, or None on a miss."""
        return self._get("baseline", self._token(benchmark, config, cycles,
                                                 warmup, seed))

    def put(self, benchmark: str, config: SMTConfig, cycles: int,
            warmup: WarmupSpec, seed: int, ipc: float) -> None:
        """Store a baseline IPC in memory and (best-effort) on disk."""
        self._put("baseline", self._token(benchmark, config, cycles, warmup,
                                          seed), ipc)


#: The process-wide baseline cache instance.
baseline_cache = BaselineCache()


def clear_baseline_cache(disk: bool = False) -> None:
    """Drop memoised single-thread IPCs (use after monkey-patching).

    Args:
        disk: also remove the on-disk entries (see :class:`BaselineCache`).
    """
    baseline_cache.clear(disk=disk)


def _build_policy(policy: PolicySpec):
    if isinstance(policy, tuple):
        name, kwargs = policy
        return make_policy(name, **kwargs)
    return make_policy(policy)


def _build_processor(
    benchmarks: Sequence[str],
    policy: PolicySpec,
    config: Optional[SMTConfig],
    seed: int,
    state: Optional[dict] = None,
    restore_policy: bool = True,
) -> SMTProcessor:
    """One place constructing the simulator every runner shares
    (``state``/``restore_policy``: build it restored from a captured
    tree, see :class:`SMTProcessor`)."""
    config = config or SMTConfig()
    profiles = [get_profile(b) for b in benchmarks]
    return SMTProcessor(config, profiles, _build_policy(policy), seed=seed,
                        state=state, restore_policy=restore_policy)


def _adaptive_warmup_chunk(plan: WarmupPolicy, default: int) -> int:
    """The warm-up chunk size an adaptive plan resolves with."""
    return plan.interval_cycles or default


def _run_warmup(processor: SMTProcessor, plan: WarmupPolicy,
                interval_cycles: Optional[int]):
    """Advance a fresh processor to the warm-up boundary.

    ``interval_cycles`` is the run's chunk size for interval-mode runs
    and None for monolithic runs — it selects the adaptive warm-up's
    chunk default and phase tracking, matching what the two run modes
    have always done.  Returns ``(warmup_cycles, converged, snapshots)``
    where ``snapshots`` is the adaptive warm-up's discarded interval
    series (empty for fixed warm-up).
    """
    if plan.is_adaptive:
        chunk = _adaptive_warmup_chunk(
            plan, interval_cycles if interval_cycles is not None
            else DEFAULT_INTERVAL_CYCLES)
        snapshots, converged = processor.run_adaptive_warmup(
            chunk, window=plan.window, rel_tol=plan.rel_tol,
            metric=plan.metric, max_warmup=plan.max_warmup,
            track_phases=interval_cycles is not None)
        return sum(s.cycles for s in snapshots), converged, snapshots
    if plan.cycles:
        processor.run(plan.cycles)
    return plan.cycles, None, []


def compute_warmup_checkpoint(
    benchmarks: Sequence[str],
    policy: PolicySpec,
    config: Optional[SMTConfig],
    warmup: WarmupSpec,
    seed: int,
    interval_cycles: Optional[int] = None,
) -> dict:
    """Run one warm-up prefix and package the boundary state.

    The payload is what a :class:`~repro.harness.checkpoints.CheckpointStore`
    entry holds: the full processor state tree at the boundary
    (*before* any statistics reset — the measured run applies its own
    reset after restoring, exactly as an uninterrupted run would),
    plus the provenance a forked run must reproduce bitwise — the
    warm-up policy's token, the resolved warm-up length, the adaptive
    convergence flag, and the discarded warm-up interval snapshots an
    interval-mode run records.
    """
    plan = as_warmup_policy(warmup)
    processor = _build_processor(benchmarks, policy, config, seed)
    warmup_cycles, converged, snapshots = _run_warmup(
        processor, plan, interval_cycles)
    return {
        "policy": policy_token(policy),
        "warmup_cycles": warmup_cycles,
        "warmup_converged": converged,
        "discarded": [_snapshot_to_payload(s) for s in snapshots],
        "state": processor.capture_state(),
    }


def _warmed_processor(
    benchmarks: Sequence[str],
    policy: PolicySpec,
    config: Optional[SMTConfig],
    warmup: WarmupSpec,
    seed: int,
    interval_cycles: Optional[int] = None,
    checkpoint=None,
    warmup_policy: Optional[PolicySpec] = None,
):
    """Build a processor advanced to the warm-up boundary.

    The shared front half of both run modes.  With ``checkpoint`` off
    and no forking this is exactly the historical path: construct the
    measured processor and warm it in place.  Otherwise the warm-up
    prefix — run under ``warmup_policy`` when forking, else under the
    measured policy — is served from the
    :class:`~repro.harness.checkpoints.CheckpointStore` (or computed
    and stored), and the boundary state is restored into a freshly
    built measured processor.  Restore-then-run is bitwise-identical
    to an uninterrupted run (the snapshot protocol's pinned
    invariant), so results never depend on whether the store hit.

    When forking (``warmup_policy`` differing from ``policy``), the
    restored processor keeps the prefix's pipeline/memory/branch state
    but the *measured* policy's control state starts fresh — the
    semantics of "warm the machine under A, measure B".

    Returns ``(processor, warmup_cycles, warmup_converged,
    discarded_snapshots)``.
    """
    # Imported here: checkpoints builds on this module, not the reverse.
    from repro.harness import checkpoints as ckpt

    plan = as_warmup_policy(warmup)
    mode = ckpt.normalize_checkpoint(checkpoint)
    measured_token = policy_token(policy)
    forked = (warmup_policy is not None
              and policy_token(warmup_policy) != measured_token)
    prefix_policy = warmup_policy if forked else policy
    no_prefix = not plan.is_adaptive and plan.cycles == 0
    if (mode == "off" and not forked) or no_prefix:
        processor = _build_processor(benchmarks, policy, config, seed)
        warmup_cycles, converged, snapshots = _run_warmup(
            processor, plan, interval_cycles)
        return processor, warmup_cycles, converged, snapshots

    store = ckpt.resolve_checkpoint_store(None)
    token = ckpt.prefix_token(
        benchmarks, prefix_policy, config, warmup, seed,
        ckpt.warmup_boundary_token(plan, interval_cycles))
    payload = store.get(token) if mode != "off" else None
    if payload is None and mode == "require":
        store.require(token)  # raises CheckpointMiss with diagnostics
    if payload is None:
        payload = compute_warmup_checkpoint(
            benchmarks, prefix_policy, config, warmup, seed, interval_cycles)
        if mode != "off":
            store.put(token, payload)
    processor = _build_processor(
        benchmarks, policy, config, seed, state=payload["state"],
        restore_policy=payload["policy"] == measured_token)
    snapshots = [_snapshot_from_payload(s) for s in payload["discarded"]]
    return (processor, payload["warmup_cycles"],
            payload["warmup_converged"], snapshots)


def run_benchmarks(
    benchmarks: Sequence[str],
    policy: PolicySpec = "ICOUNT",
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
    checkpoint=None,
    warmup_policy: Optional[PolicySpec] = None,
) -> SimulationResult:
    """Simulate a benchmark mix under a policy and collect statistics.

    Args:
        benchmarks: benchmark names, one per hardware context.
        policy: policy name, or ``(name, kwargs)`` for parameterised
            policies (e.g. ``("DCRA", {"activity_window": 1024})``).
        config: processor configuration; Table 2 baseline when omitted.
        cycles: measured cycles (after warm-up).
        warmup: cycles simulated before statistics are reset — a plain
            count, or a :class:`~repro.harness.warmup.WarmupPolicy`.  A
            steady-state policy resolves its length from the interval
            series (chunk size ``policy.interval_cycles`` or
            :data:`DEFAULT_INTERVAL_CYCLES`); a resolution of N cycles
            is bitwise-identical to ``warmup=N``.  The chosen length is
            recorded on the result (``warmup_cycles``).
        seed: workload seed; keep it fixed when comparing policies so
            every policy sees the identical instruction streams.
        checkpoint: warm-up checkpoint reuse mode — None/``"off"``,
            ``"auto"`` or ``"require"`` (see
            :mod:`repro.harness.checkpoints`).  Reuse never changes the
            result: restore-then-run is bitwise-identical to the
            uninterrupted run.
        warmup_policy: run the warm-up prefix under this policy instead
            of the measured one (warm-up forking) — the state at the
            boundary is then shared by every measured policy of a
            sweep.  The forked result is a different experiment and
            keys differently in the result store.
    """
    processor, warmup_cycles, _converged, _snapshots = _warmed_processor(
        benchmarks, policy, config, warmup, seed, interval_cycles=None,
        checkpoint=checkpoint, warmup_policy=warmup_policy)
    if warmup_cycles:
        processor.reset_stats()
    processor.run(cycles)
    result = collect_result(processor, benchmarks=list(benchmarks))
    result.warmup_cycles = warmup_cycles
    return result


@dataclass
class IntervalRun:
    """Outcome of an interval-mode run: the aggregate plus the series.

    Attributes:
        result: the monolithic-equivalent aggregate — bitwise identical
            to what :func:`run_benchmarks` returns for the same inputs.
        recorder: every recorded :class:`IntervalSnapshot` (warm-up
            intervals included, marked discarded) and the time-series
            views derived from them.
        interval_cycles: the chunk size the run used.
        warmup_cycles: warm-up length the run actually simulated —
            the fixed count, or the length a steady-state policy
            resolved (also recorded on ``result.warmup_cycles``).
        warmup_converged: for steady-state warm-up, whether the metric
            series settled before the ``max_warmup`` cap; None for
            fixed warm-up.
    """

    result: SimulationResult
    recorder: IntervalRecorder
    interval_cycles: int
    warmup_cycles: int = 0
    warmup_converged: Optional[bool] = None


def run_benchmarks_intervals(
    benchmarks: Sequence[str],
    policy: PolicySpec = "ICOUNT",
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
    interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
    warmup_as_intervals: bool = False,
    progress=None,
    progress_tag: Optional[str] = None,
    checkpoint=None,
    warmup_policy: Optional[PolicySpec] = None,
) -> IntervalRun:
    """Interval-mode :func:`run_benchmarks`: same result, plus a timeline.

    The measured window is simulated in ``interval_cycles`` chunks via
    :meth:`~repro.pipeline.processor.SMTProcessor.run_intervals`; after
    each chunk an :class:`~repro.metrics.intervals.IntervalSnapshot` is
    recorded and an :class:`~repro.harness.progress.IntervalProgress`
    event is emitted.  The returned aggregate is **bitwise identical**
    to the monolithic run (same counters, same arithmetic — the
    interval refactor's hard invariant).

    Args:
        warmup: a fixed cycle count or a
            :class:`~repro.harness.warmup.WarmupPolicy`.  Steady-state
            warm-up always runs as discarded intervals (chunk size
            ``policy.interval_cycles`` or this run's
            ``interval_cycles``), resolving its length from the metric
            series; the chosen length and convergence flag land on the
            returned :class:`IntervalRun`.
        interval_cycles: chunk size; the final interval is short when it
            does not divide ``cycles``.
        warmup_as_intervals: warm up by *discarding* leading intervals
            instead of calling ``reset_stats()``.  Both paths produce
            the identical result (a reset never changes behaviour, and
            deltas need no reset); the interval path additionally keeps
            the warm-up snapshots for inspection.
        progress: per-interval callback receiving the
            :class:`IntervalProgress`; defaults to the process-local
            progress sink (:func:`~repro.harness.progress.emit_progress`),
            which the executor backends wire up for remote workers.
        progress_tag: correlation tag stamped on the progress events.
        checkpoint / warmup_policy: warm-up checkpoint reuse and
            forking, as in :func:`run_benchmarks`.  Neither combines
            with ``warmup_as_intervals`` (that mode folds the warm-up
            into the measured interval loop, so there is no boundary
            state to share).
    """
    if warmup_as_intervals and (checkpoint is not None
                                or warmup_policy is not None):
        raise ValueError(
            "warmup_as_intervals cannot be combined with checkpointed "
            "or forked warm-up (no warm-up boundary state to share)")
    recorder = IntervalRecorder()
    notify = progress if progress is not None else emit_progress
    plan = as_warmup_policy(warmup)
    warmup_converged: Optional[bool] = None
    if not plan.is_adaptive and warmup_as_intervals:
        processor = _build_processor(benchmarks, policy, config, seed)
        warmup_cycles = plan.cycles
        if warmup_cycles:
            # Warm-up snapshots count down to -1 so measured intervals
            # are 0-based in both warm-up modes and indices never
            # collide between the discarded and kept series.
            n_warmup = -(-warmup_cycles // interval_cycles)
            for snapshot in processor.run_intervals(
                    interval_cycles, total_cycles=warmup_cycles,
                    start_index=-n_warmup):
                recorder.record(snapshot, discard=True)
    else:
        processor, warmup_cycles, warmup_converged, warmup_snapshots = \
            _warmed_processor(
                benchmarks, policy, config, warmup, seed,
                interval_cycles=interval_cycles, checkpoint=checkpoint,
                warmup_policy=warmup_policy)
        if plan.is_adaptive:
            # Re-index to count up to -1, matching the fixed
            # warmup-as-intervals convention (measured intervals stay
            # 0-based, discarded and kept indices never collide).
            n_warmup = len(warmup_snapshots)
            for position, snapshot in enumerate(warmup_snapshots):
                recorder.record(
                    dataclasses.replace(snapshot, index=position - n_warmup),
                    discard=True)
        elif warmup_cycles:
            processor.reset_stats()
    n_intervals = -(-cycles // interval_cycles) if cycles else 0
    cycles_done = committed = 0
    for snapshot in processor.run_intervals(
            interval_cycles, total_cycles=cycles):
        recorder.record(snapshot)
        cycles_done += snapshot.cycles
        committed += snapshot.committed
        notify(IntervalProgress(
            interval=snapshot.index,
            n_intervals=n_intervals,
            cycles_done=cycles_done,
            total_cycles=cycles,
            committed=committed,
            throughput=committed / cycles_done if cycles_done else 0.0,
            tag=progress_tag,
        ))
    if recorder.snapshots:
        result = recorder.to_result(list(benchmarks), processor.policy.name)
    else:
        # Zero measured cycles: synthesise one empty snapshot so the
        # result degrades exactly like the monolithic path (all-zero
        # counters, 0.0 ratios) instead of refusing to aggregate.
        capture = capture_counter_state(processor)
        result = snapshots_to_result(
            [snapshot_between(capture, capture, 0)],
            list(benchmarks), processor.policy.name)
    result.warmup_cycles = warmup_cycles
    return IntervalRun(result=result, recorder=recorder,
                       interval_cycles=interval_cycles,
                       warmup_cycles=warmup_cycles,
                       warmup_converged=warmup_converged)


def run_workload_intervals(
    workload: Workload,
    policy: PolicySpec = "ICOUNT",
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
    interval_cycles: int = DEFAULT_INTERVAL_CYCLES,
    warmup_as_intervals: bool = False,
    progress=None,
    progress_tag: Optional[str] = None,
) -> IntervalRun:
    """Like :func:`run_benchmarks_intervals` for a :class:`Workload`."""
    return run_benchmarks_intervals(
        workload.benchmarks, policy, config, cycles, warmup, seed,
        interval_cycles, warmup_as_intervals, progress, progress_tag)


def run_workload(
    workload: Workload,
    policy: PolicySpec = "ICOUNT",
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
) -> SimulationResult:
    """Like :func:`run_benchmarks` for a Table 4 :class:`Workload`."""
    return run_benchmarks(workload.benchmarks, policy, config, cycles,
                          warmup, seed)


def single_thread_ipc(
    benchmark: str,
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
) -> float:
    """IPC of a benchmark running alone on the machine (Hmean baseline).

    A one-task campaign (:func:`repro.harness.engine.baseline_job`):
    results are memoised in memory and on disk (:class:`BaselineCache`),
    so Hmean evaluation of many policies over many workloads — in any
    process — reuses the same per-benchmark baselines.
    """
    # Imported here: engine builds on this module, not the reverse.
    from repro.harness.engine import Campaign, baseline_job, execute

    campaign = Campaign()
    key = campaign.add("baseline", baseline_job(benchmark, config, cycles,
                                                warmup, seed))
    return execute(campaign).payloads[key]


@dataclass
class PolicyEvaluation:
    """Throughput and fairness of one policy on one workload.

    With seed replication (``reps > 1`` in :func:`evaluate_workload`)
    ``throughput`` and ``hmean`` are means over the replications,
    ``result`` is the first replication's detail record, and the
    ``*_stats`` fields carry the spread
    (:class:`~repro.metrics.stats.ReplicatedResult`); single runs leave
    them None.
    """

    policy: str
    throughput: float
    hmean: float
    result: SimulationResult
    throughput_stats: Optional["ReplicatedResult"] = None
    hmean_stats: Optional["ReplicatedResult"] = None


def evaluate_workload(
    workload: Workload,
    policies: Sequence[PolicySpec],
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
    reps: int = 1,
) -> Dict[str, PolicyEvaluation]:
    """Evaluate several policies on one workload with shared baselines.

    The policy runs and their single-thread baselines compile to one
    campaign, executed in this process (see :mod:`repro.harness.engine`).

    Args:
        reps: seed replications per policy.  With ``reps > 1`` each
            policy runs once per derived seed
            (:func:`repro.harness.engine.derive_seed`), with matching
            per-seed single-thread baselines, and the evaluation
            reports means plus :class:`~repro.metrics.stats.ReplicatedResult`
            spreads.  The default single run keeps historical results
            bit-for-bit.

    Returns:
        Mapping from policy label to its :class:`PolicyEvaluation`.
    """
    # Imported here: engine builds on this module, not the reverse.
    from repro.harness.engine import (
        Campaign,
        SimJob,
        baseline_job,
        derive_seeds,
        execute,
    )

    config = config or SMTConfig()
    seeds = derive_seeds(seed, reps)
    campaign = Campaign()
    runs = [[campaign.add("result", SimJob(tuple(workload.benchmarks),
                                           policy, config, cycles, warmup, s))
             for s in seeds]
            for policy in policies]
    singles = [[campaign.add("baseline",
                             baseline_job(b, config, cycles, warmup, s))
                for b in workload.benchmarks]
               for s in seeds]
    payloads = execute(campaign).payloads
    evaluations: Dict[str, PolicyEvaluation] = {}
    for keys in runs:
        results = [payloads[key] for key in keys]
        hmeans = [safe_hmean(result.ipcs, [payloads[key] for key in rep],
                             workload.name)
                  for result, rep in zip(results, singles)]
        throughputs = [result.throughput for result in results]
        if reps > 1:
            throughput_stats = ReplicatedResult.from_values(throughputs)
            hmean_stats = ReplicatedResult.from_values(hmeans)
        else:
            throughput_stats = hmean_stats = None
        evaluations[results[0].policy] = PolicyEvaluation(
            policy=results[0].policy,
            throughput=sum(throughputs) / len(throughputs),
            hmean=sum(hmeans) / len(hmeans),
            result=results[0],
            throughput_stats=throughput_stats,
            hmean_stats=hmean_stats,
        )
    return evaluations


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean, used when averaging improvement ratios.

    A non-positive value (a thread that committed nothing in a short
    measurement window) makes the geometric mean undefined; rather than
    crashing a long sweep, the function warns and reports 0.0 — the
    natural "completely degenerate" limit of the metric.
    """
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            warnings.warn(
                f"geometric mean of non-positive value {value!r}: a thread "
                "committed no instructions in the measurement window; "
                "reporting 0.0", RuntimeWarning, stacklevel=2)
            return 0.0
        product *= value
    return product ** (1.0 / len(values))


def improvement_pct(new: float, old: float) -> float:
    """Relative improvement of ``new`` over ``old`` in percent.

    A non-positive baseline (zero IPC from a degenerate window) makes
    the ratio undefined; the function warns and reports NaN so sweep
    output stays well-formed instead of raising mid-run.
    """
    if old <= 0:
        warnings.warn(
            f"improvement over non-positive baseline {old!r} is undefined; "
            "reporting NaN", RuntimeWarning, stacklevel=2)
        return float("nan")
    return 100.0 * (new / old - 1.0)
