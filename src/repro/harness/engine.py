"""Parallel experiment engine: declarative jobs over pluggable backends.

Reproducing the paper end-to-end means simulating dozens of
policy x workload x configuration combinations, each an independent,
deterministic, CPU-bound cycle-simulation.  This module turns such a
sweep into data: a driver describes every run as a :class:`SimJob`,
submits the list to :func:`run_jobs`, and gets the corresponding
:class:`~repro.metrics.stats.SimulationResult` list back in submission
order — computed in-process, on a local process pool, or on remote
worker machines (see :mod:`repro.harness.executors`), with identical
results on every backend.

Determinism
-----------
Each job carries its own explicit seed (see :func:`derive_seed` for
building disjoint per-job seeds from a base seed), and every job
constructs a fresh simulator, so results depend only on the job
description — never on scheduling, backend, worker count or completion
order.  ``run_jobs(jobs, n)`` is therefore bitwise-identical to
``[run_job(j) for j in jobs]`` for any ``n`` and any executor, and the
streaming view (:func:`run_jobs_streaming`) reassembles to the same
list when sorted by index.

Seed replication
----------------
:func:`run_replicated` fans one job out to ``reps`` independent seeds
and wraps the runs in a :class:`ReplicatedRun`, whose metrics are
:class:`~repro.metrics.stats.ReplicatedResult` summaries (mean, stddev,
95% CI) — the error bars the paper's single-run point estimates lack.

Baseline sharing
----------------
Single-thread baseline runs (the Hmean denominators) are memoised by
the disk-backed :class:`~repro.harness.runner.BaselineCache`, which is
process-safe: worker processes and the parent all read and write the
same on-disk entries, so a baseline is simulated once per sweep rather
than once per process.  :func:`ensure_baselines` (one seed) and
:func:`ensure_baselines_sweep` (replication sweeps) precompute missing
baselines through the backend before a sweep starts.

Result reuse
------------
Because jobs are deterministic, a full result can be cached as safely
as a baseline: with ``reuse="auto"`` the engine serves any job already
in the content-addressed :class:`~repro.harness.results.ResultStore`
and dispatches only the misses (``reuse="require"`` asserts a warm
store).  Hits are resolved before the backend sees a task, so reuse is
backend-agnostic and never changes output — it only skips simulations.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.harness.executors import Executor, make_executor
from repro.harness.results import (
    ResultStore,
    normalize_reuse,
    resolve_store,
)
from repro.harness.runner import (
    DEFAULT_CYCLES,
    DEFAULT_WARMUP,
    PolicySpec,
    baseline_cache,
    run_benchmarks,
    run_benchmarks_intervals,
    single_thread_ipc,
)
from repro.harness.warmup import WarmupSpec
from repro.metrics.stats import ReplicatedResult, SimulationResult, safe_hmean
from repro.pipeline.config import SMTConfig


@dataclass(frozen=True)
class SimJob:
    """One simulation run, described declaratively.

    Attributes:
        benchmarks: benchmark names, one per hardware context.
        policy: policy name, or ``(name, kwargs)`` for parameterised
            policies; must be picklable for pool execution (the named
            sharing factors and frozen config dataclasses all are).
        config: processor configuration; Table 2 baseline when None.
        cycles: measured cycles (after warm-up).
        warmup: cycles simulated before statistics are reset — a plain
            count, or a :class:`~repro.harness.warmup.WarmupPolicy`
            (steady-state policies resolve their length per job from
            the interval series; resolution is deterministic, so the
            engine's any-backend bitwise contract holds unchanged, and
            the chosen length rides back on
            ``SimulationResult.warmup_cycles``).
        seed: workload seed for this job.
        tag: optional caller-side correlation label; ignored by the
            engine, carried for bookkeeping in driver code (and stamped
            on interval progress events).
        interval_cycles: when set, the job simulates its measured window
            in chunks of this many cycles, emitting one
            :class:`~repro.harness.progress.IntervalProgress` event per
            chunk through the executor's progress channel.  The result
            is **bitwise identical** to the monolithic run — interval
            mode only changes when statistics become observable.
        warmup_policy: when set, the warm-up prefix runs under this
            policy instead of the measured one (warm-up forking — every
            policy of a sweep then measures from the *same* machine
            state).  Participates in the job's identity
            (:func:`~repro.harness.results.job_token`): a forked run is
            a different experiment.
        checkpoint: warm-up checkpoint reuse mode — None/``"off"``,
            ``"auto"`` or ``"require"`` (see
            :mod:`repro.harness.checkpoints`).  Like ``tag`` it is
            excluded from the job's identity: checkpoint reuse never
            changes results (restore-then-run is bitwise-identical to
            the uninterrupted run), it only skips warm-up cycles.
    """

    benchmarks: Tuple[str, ...]
    policy: PolicySpec = "ICOUNT"
    config: Optional[SMTConfig] = None
    cycles: int = DEFAULT_CYCLES
    warmup: WarmupSpec = DEFAULT_WARMUP
    seed: int = 1
    tag: Optional[str] = None
    interval_cycles: Optional[int] = None
    warmup_policy: Optional[PolicySpec] = None
    checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-job seed from a base seed and a job index.

    Use when a driver wants statistically independent repetitions of
    the same configuration; jobs that must see identical instruction
    streams (policy comparisons) should share one seed instead.
    """
    return base_seed * 1_000_003 + index * 7919 + 1


def derive_seeds(base_seed: int, reps: int) -> List[int]:
    """The one definition of the replication fan-out, used by every
    ``reps=`` surface (engine, drivers, runner, CLI).

    ``reps <= 1`` keeps the base seed (historical single-run results
    stay bit-for-bit); ``reps > 1`` derives one independent seed per
    replication via :func:`derive_seed`.
    """
    if reps <= 1:
        return [base_seed]
    return [derive_seed(base_seed, rep) for rep in range(reps)]


def run_job(job: SimJob) -> SimulationResult:
    """Execute one job in the current process.

    Jobs with ``interval_cycles`` run through the chunked simulation
    API, emitting per-interval progress to the process-local sink (wired
    by the executors); the returned result is bitwise identical either
    way.
    """
    if job.interval_cycles:
        return run_benchmarks_intervals(
            list(job.benchmarks), job.policy, job.config, job.cycles,
            job.warmup, job.seed, interval_cycles=job.interval_cycles,
            progress_tag=job.tag, checkpoint=job.checkpoint,
            warmup_policy=job.warmup_policy).result
    return run_benchmarks(list(job.benchmarks), job.policy, job.config,
                          job.cycles, job.warmup, job.seed,
                          checkpoint=job.checkpoint,
                          warmup_policy=job.warmup_policy)


def _resolve_executor(executor, max_workers: int) -> Tuple[Executor, bool]:
    """Executor instance plus whether this call owns (must close) it."""
    if isinstance(executor, Executor):
        return executor, False
    return make_executor(executor, max_workers), True


@contextlib.contextmanager
def executor_scope(executor, max_workers: int) -> Iterator:
    """Resolve an executor name once for a multi-call driver.

    A driver that issues several engine calls (baseline phase, job
    phase, parameter sweep) would otherwise build — and for ``remote``,
    spawn a whole worker fleet for — a fresh backend per call when given
    a name.  Within this scope the name becomes one shared instance,
    closed on exit; None and instances pass through untouched (None
    keeps the engine's serial short-circuit, instances stay owned by
    the caller).
    """
    if executor is None or isinstance(executor, Executor):
        yield executor
        return
    backend = make_executor(executor, max_workers)
    try:
        yield backend
    finally:
        backend.close()


def parallel_map(func: Callable, items: Sequence, max_workers: int = 1,
                 executor=None, progress=None) -> List:
    """Map a picklable top-level function over items, order-preserving.

    The generic sibling of :func:`run_jobs` for drivers whose per-item
    work is not a plain :class:`SimJob` (e.g. runs that install cycle
    hooks).  ``executor`` selects the backend: an
    :class:`~repro.harness.executors.Executor` instance (reused, left
    open), a name from
    :data:`~repro.harness.executors.EXECUTOR_NAMES`, or None — which
    picks a process pool for ``max_workers > 1`` and a plain serial map
    otherwise.  Results are bitwise-identical on every backend.

    ``progress`` is an optional ``(index, event)`` callback receiving
    every progress event the item's work emits (interval-mode jobs emit
    one :class:`~repro.harness.progress.IntervalProgress` per interval);
    each backend routes worker-side events back to it — in-process
    directly, process pools over a manager queue, remote workers over
    the task socket.  Events may arrive from backend threads.
    """
    items = list(items)
    if executor is None and progress is None and \
            (max_workers <= 1 or len(items) <= 1):
        return [func(item) for item in items]
    # A per-call backend never needs more workers than items.
    backend, owned = _resolve_executor(
        executor, max(1, min(max_workers, len(items))))
    try:
        return backend.map(func, items, progress=progress)
    finally:
        if owned:
            backend.close()


def parallel_map_streaming(func: Callable, items: Sequence,
                           max_workers: int = 1,
                           executor=None, progress=None) \
        -> Iterator[Tuple[int, object]]:
    """Like :func:`parallel_map`, yielding ``(index, result)`` pairs as
    items complete (completion order; indices refer to submission order).

    Reassembling the pairs by index gives exactly the
    :func:`parallel_map` list, so streaming consumers trade ordering for
    latency without giving up determinism.
    """
    items = list(items)
    backend, owned = _resolve_executor(
        executor, max(1, min(max_workers, len(items))))
    try:
        yield from backend.map_unordered(func, items, progress=progress)
    finally:
        if owned:
            backend.close()


def _store_partition(jobs: Sequence[SimJob], reuse: str,
                     store: Optional[ResultStore], kind: str) \
        -> Tuple[ResultStore, List, List[int]]:
    """Split jobs into stored results and indices still to compute.

    Returns ``(store, results, missing)`` where ``results`` holds the
    stored payload (or None) per job and ``missing`` lists the indices
    to compute.  With ``reuse="require"`` a missing entry raises
    :class:`~repro.harness.results.ResultStoreMiss` instead.
    """
    store = resolve_store(store)
    results: List = [None] * len(jobs)
    missing: List[int] = []
    for index, job in enumerate(jobs):
        cached = (store.require(job, kind) if reuse == "require"
                  else store.get(job, kind))
        if cached is not None:
            results[index] = cached
        else:
            missing.append(index)
    return store, results, missing


def map_jobs_stored(func: Callable, jobs: Sequence[SimJob], kind: str,
                    max_workers: int = 1, executor=None, progress=None,
                    reuse=None, store: Optional[ResultStore] = None) -> List:
    """Map a job function through the content-addressed result store.

    The reuse-aware generic the store-enabled sweeps share:
    :func:`run_jobs` uses it with :func:`run_job` and payload kind
    ``"result"``; drivers that extract other payloads (e.g. Table 5's
    phase timelines) pass their own module-level ``func`` and ``kind``.
    Stored payloads are served without dispatching; misses run through
    :func:`parallel_map` (any backend) and are written back by the
    caller's process, so reuse works identically on every executor.

    ``reuse`` is ``"off"`` (None), ``"auto"`` or ``"require"`` — see
    :mod:`repro.harness.results` for the contract.
    """
    jobs = list(jobs)
    mode = normalize_reuse(reuse)
    if mode == "off":
        return parallel_map(func, jobs, max_workers, executor, progress)
    store, results, missing = _store_partition(jobs, mode, store, kind)
    if missing:
        remapped = None
        if progress is not None:
            remapped = lambda i, event: progress(missing[i], event)  # noqa: E731
        computed = parallel_map(func, [jobs[i] for i in missing],
                                max_workers, executor, remapped)
        for index, value in zip(missing, computed):
            store.put(jobs[index], value, kind)
            results[index] = value
    return results


def run_jobs(jobs: Iterable[SimJob], max_workers: int = 1,
             executor=None, progress=None, reuse=None,
             store: Optional[ResultStore] = None) -> List[SimulationResult]:
    """Execute jobs and return their results in submission order.

    Args:
        jobs: the job list; each job is independent and deterministic.
        max_workers: worker count; ``<= 1`` runs serially in-process
            unless ``executor`` names another backend.
        executor: backend selection, as in :func:`parallel_map`.
        progress: ``(job_index, event)`` callback for the per-interval
            progress of interval-mode jobs (see :func:`parallel_map`).
        reuse: result-store mode — ``"off"``/None (default; compute
            everything), ``"auto"`` (serve stored results, compute and
            store misses — never changes output, jobs being
            deterministic), or ``"require"`` (raise
            :class:`~repro.harness.results.ResultStoreMiss` on any
            miss).  Store hits skip the backend entirely, so reuse
            behaves identically on every executor.
        store: the :class:`~repro.harness.results.ResultStore` to use
            (default: the process-wide instance).
    """
    return map_jobs_stored(run_job, list(jobs), "result", max_workers,
                           executor, progress, reuse, store)


def run_jobs_streaming(jobs: Iterable[SimJob], max_workers: int = 1,
                       executor=None, progress=None, reuse=None,
                       store: Optional[ResultStore] = None) \
        -> Iterator[Tuple[int, SimulationResult]]:
    """Execute jobs, yielding ``(index, result)`` as each completes.

    The streaming face of :func:`run_jobs`: drivers that render
    artefacts incrementally consume results the moment a worker
    finishes them instead of waiting for the whole sweep.  Sorting the
    pairs by index reproduces the :func:`run_jobs` list bitwise.  With
    ``reuse`` enabled, stored results are yielded first (in job order),
    then the computed misses stream in completion order.
    """
    jobs = list(jobs)
    mode = normalize_reuse(reuse)
    if mode == "off":
        yield from parallel_map_streaming(run_job, jobs, max_workers,
                                          executor, progress)
        return
    store_, results, missing = _store_partition(jobs, mode, store, "result")
    for index, value in enumerate(results):
        if value is not None:
            yield index, value
    if not missing:
        return
    remapped = None
    if progress is not None:
        remapped = lambda i, event: progress(missing[i], event)  # noqa: E731
    for position, value in parallel_map_streaming(
            run_job, [jobs[i] for i in missing], max_workers, executor,
            remapped):
        store_.put(jobs[missing[position]], value, "result")
        yield missing[position], value


# --------------------------------------------------------------------------
# Seed replication
# --------------------------------------------------------------------------

def replicate_job(job: SimJob, reps: int) -> List[SimJob]:
    """Fan one job out to ``reps`` statistically independent seeds.

    Replica ``r`` runs with ``derive_seed(job.seed, r)``, so the set of
    replications is a pure function of the job's own seed.  With
    ``reps <= 1`` the job is returned unchanged (the degenerate
    single-replication case keeps historical single-run results stable).
    """
    if reps <= 1:
        return [job]
    return [dataclasses.replace(job, seed=seed)
            for seed in derive_seeds(job.seed, reps)]


@dataclass
class ReplicatedRun:
    """One job's seed replications plus their statistical summaries."""

    job: SimJob
    results: List[SimulationResult]

    @property
    def policy(self) -> str:
        return self.results[0].policy

    @property
    def reps(self) -> int:
        return len(self.results)

    @property
    def throughput_stats(self) -> ReplicatedResult:
        """Mean/stddev/CI of total IPC over the replications."""
        return ReplicatedResult.from_values(
            [result.throughput for result in self.results])

    @property
    def thread_ipc_stats(self) -> List[ReplicatedResult]:
        """Per-thread IPC summaries, one per hardware context."""
        return [
            ReplicatedResult.from_values(
                [result.threads[tid].ipc for result in self.results])
            for tid in range(len(self.job.benchmarks))
        ]

    def hmean_stats(self,
                    singles_per_rep: Sequence[Sequence[float]]) \
            -> ReplicatedResult:
        """Hmean summary against per-replication single-thread baselines.

        Args:
            singles_per_rep: one baseline list per replication, each
                with one single-thread IPC per benchmark, measured with
                the *same* derived seed as that replication.
        """
        if len(singles_per_rep) != len(self.results):
            raise ValueError("need one baseline list per replication")
        return ReplicatedResult.from_values([
            safe_hmean(result.ipcs, singles,
                       "+".join(self.job.benchmarks))
            for result, singles in zip(self.results, singles_per_rep)
        ])


def run_replicated(job: SimJob, reps: int, max_workers: int = 1,
                   executor=None, progress=None, reuse=None,
                   store: Optional[ResultStore] = None) -> ReplicatedRun:
    """Run a job ``reps`` times with derived seeds (see
    :func:`replicate_job`) and collect the replications.  ``progress``
    receives ``(replica_index, event)`` for interval-mode jobs, and
    ``reuse``/``store`` wire the result store, as in :func:`run_jobs`."""
    return ReplicatedRun(
        job, run_jobs(replicate_job(job, reps), max_workers, executor,
                      progress, reuse, store))


def _baseline_item(item: Tuple[str, SMTConfig, int, "WarmupSpec", int]) \
        -> float:
    """Worker-side baseline computation: one :func:`single_thread_ipc`.

    Module-level so the pool can pickle it; delegating to
    :func:`single_thread_ipc` keeps the baseline recipe (policy, which
    thread's IPC, cache keying) defined in exactly one place, and lets
    the worker write the shared disk cache itself.
    """
    benchmark, config, cycles, warmup, seed = item
    return single_thread_ipc(benchmark, config, cycles, warmup, seed)


def ensure_baselines(
    benchmarks: Sequence[str],
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    seed: int = 1,
    max_workers: int = 1,
    executor=None,
) -> Dict[str, float]:
    """Single-thread IPCs for benchmarks, computing misses in parallel.

    Cache hits (memory or disk) are returned directly; the missing
    baselines are simulated through the backend and written back to the
    shared cache, so subsequent :func:`single_thread_ipc` calls — in
    this or any worker process — hit.
    """
    sweep = ensure_baselines_sweep(benchmarks, [seed], config, cycles,
                                   warmup, max_workers, executor)
    return {benchmark: ipc for (benchmark, _), ipc in sweep.items()}


def ensure_baselines_sweep(
    benchmarks: Sequence[str],
    seeds: Sequence[int],
    config: Optional[SMTConfig] = None,
    cycles: int = DEFAULT_CYCLES,
    warmup: WarmupSpec = DEFAULT_WARMUP,
    max_workers: int = 1,
    executor=None,
) -> Dict[Tuple[str, int], float]:
    """Single-thread IPCs for every (benchmark, seed) pair.

    The replication-aware sibling of :func:`ensure_baselines`: a seed
    sweep needs the Hmean denominator of each benchmark *per derived
    seed*, and batching every missing pair through one parallel phase
    keeps the backend saturated.

    Returns:
        Mapping from ``(benchmark, seed)`` to that run's IPC.
    """
    config = config or SMTConfig()
    unique = list(dict.fromkeys(benchmarks))
    unique_seeds = list(dict.fromkeys(seeds))
    pairs = [(b, s) for s in unique_seeds for b in unique]
    missing = [(b, s) for b, s in pairs
               if baseline_cache.get(b, config, cycles, warmup, s) is None]
    if missing and (max_workers > 1 or executor is not None):
        items = [(b, config, cycles, warmup, s) for b, s in missing]
        for (benchmark, seed), ipc in zip(
                missing,
                parallel_map(_baseline_item, items, max_workers, executor)):
            # Mirror the worker's result into this process's cache (the
            # worker already wrote the disk entry; this fills memory and
            # covers a disk-less environment).
            baseline_cache.put(benchmark, config, cycles, warmup, seed, ipc)
    return {(b, s): single_thread_ipc(b, config, cycles, warmup, s)
            for b, s in pairs}


# --------------------------------------------------------------------------
# Warm-up prefix sharing
# --------------------------------------------------------------------------

def factor_prefixes(jobs: Sequence[SimJob]) -> Dict[str, List[int]]:
    """Group jobs by the warm-up prefix state they can fork from.

    Returns a mapping from each distinct
    :func:`~repro.harness.checkpoints.prefix_token` to the indices of
    the jobs sharing it (jobs with no checkpointable prefix — a fixed
    warm-up of zero cycles — are omitted).  A sweep compiled with a
    shared warm-up policy collapses to one prefix per
    (workload, config, warm-up, seed) combination: the sweep's common
    prefix executes once, the divergent measured suffixes fan out.
    """
    from repro.harness.checkpoints import job_prefix_token

    groups: Dict[str, List[int]] = {}
    for index, job in enumerate(jobs):
        token = job_prefix_token(job)
        if token is not None:
            groups.setdefault(token, []).append(index)
    return groups


def _checkpoint_prefix_item(job: SimJob) -> dict:
    """Worker-side computation of one warm-up prefix checkpoint.

    Module-level so the pool can pickle it.  The worker writes the
    shared disk store itself (like :func:`_baseline_item` does for
    baselines), then returns the payload so the parent can mirror it
    into its in-memory store layer.
    """
    from repro.harness.checkpoints import (
        job_prefix_token,
        resolve_checkpoint_store,
    )
    from repro.harness.runner import compute_warmup_checkpoint

    payload = compute_warmup_checkpoint(
        list(job.benchmarks),
        job.warmup_policy if job.warmup_policy is not None else job.policy,
        job.config, job.warmup, job.seed, job.interval_cycles)
    resolve_checkpoint_store(None).put(job_prefix_token(job), payload)
    return payload


def ensure_checkpoints(jobs: Sequence[SimJob], max_workers: int = 1,
                       executor=None, store=None) -> Dict[str, int]:
    """Precompute the warm-up checkpoints a job list will fork from.

    The prefix-sharing phase of a compiled sweep: jobs that opted into
    checkpointing (``job.checkpoint`` set) are grouped by
    :func:`factor_prefixes`, and each *missing* prefix is simulated
    exactly once through the backend — so when :func:`run_jobs`
    dispatches the sweep afterwards, every job restores its shared
    boundary state instead of re-simulating the common warm-up.

    Returns the phase's accounting: ``prefixes`` distinct warm-up
    prefixes covering ``jobs`` checkpoint-enabled jobs, of which
    ``hits`` were already stored and ``computed`` were simulated now.

    A job with ``checkpoint="require"`` asserts its prefix is already
    stored: a missing prefix raises
    :class:`~repro.harness.checkpoints.CheckpointMiss` (with the
    nearest-entry diagnostic) instead of being computed.
    """
    from repro.harness.checkpoints import resolve_checkpoint_store

    jobs = list(jobs)
    store = resolve_checkpoint_store(store)
    enabled = [i for i, job in enumerate(jobs) if job.checkpoint]
    groups = factor_prefixes([jobs[i] for i in enabled])
    representatives = {token: jobs[enabled[indices[0]]]
                       for token, indices in groups.items()}
    missing = [token for token in representatives
               if store.get(token) is None]
    for token in missing:
        if any(jobs[enabled[i]].checkpoint == "require"
               for i in groups[token]):
            store.require(token)
    if missing:
        payloads = parallel_map(_checkpoint_prefix_item,
                                [representatives[token] for token in missing],
                                max_workers, executor)
        for token, payload in zip(missing, payloads):
            # Mirror the worker's checkpoint into this process's store
            # (the worker already wrote the disk entry; this fills the
            # memory layer and covers a disk-less environment).
            store.put(token, payload)
    return {
        "prefixes": len(groups),
        "jobs": sum(len(indices) for indices in groups.values()),
        "hits": len(groups) - len(missing),
        "computed": len(missing),
    }
