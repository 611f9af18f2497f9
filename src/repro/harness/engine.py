"""Experiment engine: one campaign of declarative jobs, one ``execute``.

Reproducing the paper end-to-end means simulating hundreds of
policy x workload x configuration combinations, each an independent,
deterministic, CPU-bound cycle-simulation, plus the single-thread runs
their Hmean metric divides by.  This module turns all of that into
data.  Every entry point — the CLI commands, the artefact drivers of
:mod:`repro.harness.experiments`, ``scripts/run_all_experiments.py``,
:func:`~repro.harness.runner.evaluate_workload` — compiles its work to
one :class:`Campaign` and hands it to :func:`execute`, the only code
that talks to the stores, the executor and progress.  What the caller
prints is then a pure function of the returned payloads.

Campaigns
---------
A campaign is an ordered, deduplicated list of ``(payload kind,
SimJob)`` tasks:

``"result"``          the run's :class:`~repro.metrics.stats.SimulationResult`
``"intervals"``       the whole :class:`~repro.harness.runner.IntervalRun`
                      (recorder included, for timelines)
``"phase_timeline"``  the run's :class:`~repro.metrics.intervals.PhaseTimeline`
``"baseline"``        a single-thread IPC, an Hmean denominator
                      (:func:`baseline_job`)

Tasks are keyed by ``(kind, job_token)`` (see
:func:`~repro.harness.results.job_token`), so a job two artefacts or
two grid points both need simulates once, and a baseline — an ordinary
job — simulates once even when a measured run is the identical job.

:func:`execute` then

1. serves stored payloads: results from the content-addressed
   :class:`~repro.harness.results.ResultStore` as ``reuse`` says
   (``"auto"`` serves and fills, ``"require"`` raises on a miss),
   baselines from the :class:`~repro.harness.runner.BaselineCache` in
   every mode;
2. computes each warm-up checkpoint prefix that the checkpoint-enabled
   jobs still to run need and the
   :class:`~repro.harness.checkpoints.CheckpointStore` lacks, once (the
   one barrier);
3. dispatches every other task in one pass per worker function, on at
   most one executor (see :mod:`repro.harness.executors`), writing each
   payload back as it completes.

Determinism
-----------
Each job carries its own explicit seed (see :func:`derive_seed` for
building disjoint per-job seeds from a base seed), and every job
constructs a fresh simulator, so results depend only on the job
description — never on scheduling, backend, worker count, completion
order or whether a payload came from a store.  ``run_jobs(jobs, n)`` is
therefore bitwise-identical to ``[run_job(j) for j in jobs]`` for any
``n`` and any executor.

Seed replication
----------------
:func:`run_replicated` fans one job out to ``reps`` independent seeds
and wraps the runs in a :class:`ReplicatedRun`, whose metrics are
:class:`~repro.metrics.stats.ReplicatedResult` summaries (mean, stddev,
95% CI) — the error bars the paper's single-run point estimates lack.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.checkpoints import (
    job_prefix_token,
    normalize_checkpoint,
    resolve_checkpoint_store,
)
from repro.harness.results import (
    ResultStore,
    job_token,
    normalize_reuse,
    resolve_store,
)
from repro.harness.runner import (
    DEFAULT_CYCLES,
    DEFAULT_WARMUP,
    IntervalRun,
    PolicySpec,
    baseline_cache,
    compute_warmup_checkpoint,
    run_benchmarks,
    run_benchmarks_intervals,
)
from repro.harness.warmup import WarmupSpec
from repro.metrics.intervals import PhaseTimeline
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
        return run_job_intervals(job).result
    return run_benchmarks(list(job.benchmarks), job.policy, job.config,
                          job.cycles, job.warmup, job.seed,
                          checkpoint=job.checkpoint,
                          warmup_policy=job.warmup_policy)


def run_job_intervals(job: SimJob) -> IntervalRun:
    """Execute one interval-mode job, keeping its whole interval run
    (the worker of ``"intervals"`` tasks)."""
    return run_benchmarks_intervals(
        list(job.benchmarks), job.policy, job.config, job.cycles,
        job.warmup, job.seed, interval_cycles=job.interval_cycles,
        progress_tag=job.tag, checkpoint=job.checkpoint,
        warmup_policy=job.warmup_policy)


def run_job_phase_timeline(job: SimJob) -> PhaseTimeline:
    """Execute one interval-mode job, keeping its recorded phase
    timeline (the worker of ``"phase_timeline"`` tasks, Table 5's data):
    the per-cycle fast/slow histogram the interval recorder tracks."""
    return run_job_intervals(job).recorder.phase_timeline()


# --------------------------------------------------------------------------
# Campaigns
# --------------------------------------------------------------------------

#: Payload kinds a campaign task can ask for; all but ``"baseline"`` are
#: :class:`~repro.harness.results.ResultStore` kinds.
TASK_KINDS = ("result", "intervals", "phase_timeline", "baseline")

#: A task's identity: ``(payload kind, job_token)``.
TaskKey = Tuple[str, str]


def baseline_job(benchmark: str, config: Optional[SMTConfig],
                 cycles: int, warmup: WarmupSpec, seed: int) -> SimJob:
    """The Hmean baseline of one benchmark as a job: the benchmark alone
    under ICOUNT on ``config`` (Table 2 when None); its IPC is the
    result's thread 0."""
    return SimJob((benchmark,), "ICOUNT", config or SMTConfig(), cycles,
                  warmup, seed)


class Campaign:
    """An ordered, deduplicated list of simulation tasks.

    ``tasks`` maps each task's :data:`TaskKey` to its job, in the order
    tasks were first added; adding a task already present is a no-op.
    """

    def __init__(self) -> None:
        self.tasks: Dict[TaskKey, SimJob] = {}

    def add(self, kind: str, job: SimJob) -> TaskKey:
        """Add one task; returns its key (what payloads are found by)."""
        if kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {kind!r} "
                             f"(expected one of {TASK_KINDS})")
        key = (kind, job_token(job))
        self.tasks.setdefault(key, job)
        return key


@dataclass
class CampaignRun:
    """What :func:`execute` returns.

    Attributes:
        payloads: every task's payload by :data:`TaskKey` (a baseline's
            payload is its IPC).
        store_stats: this call's result-store traffic: ``jobs`` (the
            distinct result-store tasks; each is looked up once when
            reuse is on), ``hits``, ``misses`` and ``stores``.
        checkpoint_stats: when any job opted into checkpointing, the
            warm-up prefix accounting — ``prefixes`` distinct prefixes
            covering ``jobs`` jobs still to run, of which ``hits`` were
            stored and ``computed`` were simulated now; else None.
    """

    payloads: Dict[TaskKey, object] = field(default_factory=dict)
    store_stats: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("jobs", "hits", "misses", "stores"), 0))
    checkpoint_stats: Optional[Dict[str, int]] = None


def _worker(kind: str) -> Callable[[SimJob], object]:
    """The module-level function computing a task kind's payload
    (picklable by name, so every backend can ship it)."""
    if kind == "intervals":
        return run_job_intervals
    if kind == "phase_timeline":
        return run_job_phase_timeline
    return run_job


def _checkpoint_prefix_item(job: SimJob) -> dict:
    """Worker-side computation of one warm-up prefix checkpoint.

    Module-level so the pool can pickle it.  The worker writes the
    shared disk store itself, then returns the payload so the parent
    can mirror it into its in-memory store layer.
    """
    payload = compute_warmup_checkpoint(
        list(job.benchmarks),
        job.warmup_policy if job.warmup_policy is not None else job.policy,
        job.config, job.warmup, job.seed, job.interval_cycles)
    resolve_checkpoint_store(None).put(job_prefix_token(job), payload)
    return payload


def _compute_prefixes(jobs: Sequence[SimJob], mapped) -> Dict[str, int]:
    """Compute the warm-up checkpoints ``jobs`` fork from, once each.

    Jobs sharing a :func:`~repro.harness.checkpoints.job_prefix_token`
    (a sweep compiled with a shared warm-up: one per workload, config,
    warm-up and seed) group together, and each prefix missing from the
    checkpoint store is simulated once through ``mapped`` — so every
    job restores its boundary state instead of re-simulating the
    common warm-up.  A missing prefix of a ``checkpoint="require"`` job
    raises :class:`~repro.harness.checkpoints.CheckpointMiss` instead.
    """
    groups: Dict[str, List[SimJob]] = {}
    for job in jobs:
        token = job_prefix_token(job)
        if token is not None:
            groups.setdefault(token, []).append(job)
    store = resolve_checkpoint_store(None)
    missing = [token for token in groups if store.get(token) is None]
    for token in missing:
        if any(job.checkpoint == "require" for job in groups[token]):
            store.require(token)
    for index, payload in mapped(_checkpoint_prefix_item,
                                 [groups[token][0] for token in missing]):
        # Mirror the worker's checkpoint into this process's store (the
        # worker already wrote the disk entry).
        store.put(missing[index], payload)
    return {"prefixes": len(groups),
            "jobs": sum(len(group) for group in groups.values()),
            "hits": len(groups) - len(missing),
            "computed": len(missing)}


def execute(campaign: Campaign, jobs: int = 1, executor=None, reuse=None,
            checkpoint=None, progress=None,
            store: Optional[ResultStore] = None,
            run: Optional[CampaignRun] = None) -> CampaignRun:
    """Run a campaign: serve what is stored, compute the rest once each.

    Args:
        campaign: the tasks.
        jobs: worker count; ``<= 1`` with no ``executor`` and no
            ``progress`` runs every task in this process.
        executor: an :class:`~repro.harness.executors.Executor`
            instance (used, left open), a name from
            :data:`~repro.harness.executors.EXECUTOR_NAMES`, or None (a
            process pool for ``jobs > 1``).  A call builds at most one
            backend.
        reuse: result-store mode — ``"off"``/None (compute everything),
            ``"auto"`` (serve stored payloads, compute and store the
            rest; never changes output, jobs being deterministic) or
            ``"require"`` (raise
            :class:`~repro.harness.results.ResultStoreMiss` on any
            miss).  Baselines are served from, and written to, the
            baseline cache whatever the mode.
        checkpoint: None keeps each job's own warm-up checkpoint mode;
            ``"off"``/``"auto"``/``"require"`` force that mode on every
            task but the baselines (see
            :mod:`repro.harness.checkpoints`).
        progress: ``(task_index, event)`` callback for the per-interval
            progress of interval-mode jobs, ``task_index`` being the
            task's position in the campaign.
        store: the result store (default: the process-wide instance).
        run: the :class:`CampaignRun` to fill and return (default: a
            fresh one).  A caller that must keep the payloads completed
            before a task raised passes its own.
    """
    mode = normalize_reuse(reuse)
    store = resolve_store(store)
    run = run if run is not None else CampaignRun()
    payloads, counts = run.payloads, run.store_stats
    tasks = campaign.tasks
    if checkpoint is not None:
        forced = normalize_checkpoint(checkpoint)
        forced = None if forced == "off" else forced
        tasks = {key: job if key[0] == "baseline"
                 else dataclasses.replace(job, checkpoint=forced)
                 for key, job in tasks.items()}

    # 1. Serve stored payloads.
    missing: List[TaskKey] = []
    for key, job in tasks.items():
        kind, token = key
        if kind == "baseline":
            value = baseline_cache.get(job.benchmarks[0], job.config,
                                       job.cycles, job.warmup, job.seed)
        else:
            counts["jobs"] += 1
            value = None
            if mode != "off":
                lookup = store.require if mode == "require" else store.get
                value = lookup(job, kind, token)
                counts["hits" if value is not None else "misses"] += 1
        if value is None:
            missing.append(key)
        else:
            payloads[key] = value

    backend = None
    if missing and (executor is not None or progress is not None
                    or (jobs > 1 and len(missing) > 1)):
        from repro.harness.executors import make_executor

        # Instances pass through (left open); a backend built here never
        # needs more workers than tasks.
        backend = make_executor(executor, max(1, min(jobs, len(missing))))

    def mapped(func, items, on_progress=None):
        if backend is None:
            return ((index, func(item)) for index, item in enumerate(items))
        return backend.map_unordered(func, items, progress=on_progress)

    try:
        # 2. Warm-up prefixes of the jobs still to run: the one barrier.
        if any(job.checkpoint for job in tasks.values()):
            run.checkpoint_stats = _compute_prefixes(
                [tasks[key] for key in missing if tasks[key].checkpoint],
                mapped)

        # 3. One pass per worker function; tasks of several kinds that
        # share a token (a baseline identical to a measured run)
        # simulate once.
        passes: Dict[Callable, Dict[str, List[TaskKey]]] = {}
        for key in missing:
            passes.setdefault(_worker(key[0]), {}).setdefault(
                key[1], []).append(key)
        position = ({key: index for index, key in enumerate(tasks)}
                    if progress is not None else None)
        for func, by_token in passes.items():
            groups = list(by_token.values())
            on_progress = None
            if progress is not None:
                def on_progress(index, event, groups=groups):
                    progress(position[groups[index][0]], event)
            for index, value in mapped(
                    func, [tasks[group[0]] for group in groups], on_progress):
                for key in groups[index]:
                    job = tasks[key]
                    if key[0] == "baseline":
                        ipc = value.threads[0].ipc
                        baseline_cache.put(job.benchmarks[0], job.config,
                                           job.cycles, job.warmup, job.seed,
                                           ipc)
                        payloads[key] = ipc
                        continue
                    if mode == "auto":
                        store.put(job, value, key[0], key[1])
                        counts["stores"] += 1
                    payloads[key] = value
    finally:
        if backend is not None and backend is not executor:
            backend.close()
    return run


def run_jobs(jobs: Iterable[SimJob], max_workers: int = 1,
             executor=None, progress=None, reuse=None,
             store: Optional[ResultStore] = None) -> List[SimulationResult]:
    """Execute jobs and return their results in submission order.

    A one-kind campaign through :func:`execute`: identical jobs in the
    list simulate once.  ``max_workers``, ``executor``, ``progress``
    (``(job_index, event)``), ``reuse`` and ``store`` are
    :func:`execute`'s ``jobs``, ``executor``, ``progress``, ``reuse``
    and ``store``.
    """
    campaign = Campaign()
    keys = [campaign.add("result", job) for job in jobs]
    payloads = execute(campaign, max_workers, executor, reuse,
                       progress=progress, store=store).payloads
    return [payloads[key] for key in keys]


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
