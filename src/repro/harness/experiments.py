"""Experiment drivers regenerating every table and figure of the paper.

Each paper artefact is three pieces: a declarative
:class:`~repro.harness.scenario.Scenario` spec (the ``*_scenario``
builders below), an *aggregate* step turning the scenario's outcome
(:class:`~repro.harness.scenario.ScenarioRun`: compiled jobs, their
payloads, the Hmean baselines) into plain rows, and a ``format_*``
helper rendering the rows as the paper lays them out.  Nothing here
runs a job: a driver compiles its scenario and calls
:func:`~repro.harness.scenario.run_scenario` once — one campaign, one
:func:`~repro.harness.engine.execute` — and the aggregate and format
steps are pure.  :data:`ARTIFACTS` is the declarative registry — key,
title, scenario builder, payload kind, aggregate, formatter — that
``repro scenario run KEY``, ``repro scenario list`` and
``scripts/run_all_experiments.py`` (which compiles every artefact into
one shared campaign) iterate.  Cycle budgets are parameters: the
defaults keep a full regeneration tractable in pure Python, and every
driver accepts larger budgets for lower-variance runs.

Every driver accepts a ``jobs`` parameter (worker count, default
serial), an ``executor`` parameter selecting the backend — an
:class:`~repro.harness.executors.Executor` instance or a name from
:data:`~repro.harness.executors.EXECUTOR_NAMES` (serial, local process
pool, or remote worker machines) — and a ``reuse`` parameter wiring the
content-addressed result store (:mod:`repro.harness.results`):
``"auto"`` serves previously stored results and simulates only the
misses, ``"require"`` asserts a warm store.  Results are identical for
any ``jobs`` / ``executor`` / ``reuse`` combination: job seeds are
fixed by the scenario and each job simulates independently (see
:mod:`repro.harness.engine` for the determinism contract).  The
policy-comparison drivers additionally take ``reps``: seed
replications via :func:`~repro.harness.engine.derive_seed` that turn
each reported metric into a mean with a 95% confidence interval
(:class:`~repro.metrics.stats.ReplicatedResult`).  Single-thread Hmean
baselines are tasks of the same campaign, served from and written to
the disk-backed baseline cache.

Experiment-to-paper map:

==========  ==========================================================
figure2     single-thread speed vs. fraction of one resource (perf. L1D)
table1      pre-computed sharing-model allocations (exact)
table3      per-benchmark L2 miss rates, MEM/ILP classification
table5      fast/slow phase combinations of 2-thread workloads
figure4     DCRA vs static allocation (throughput and Hmean)
figure5     DCRA vs ICOUNT / DG / FLUSH++ (throughput and Hmean)
figure6     Hmean improvement vs physical register file size
figure7     Hmean improvement vs memory latency (latency-tuned C)
text52      front-end activity and L2-miss overlap (Section 5.2 claims)
==========  ==========================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dcra import DcraConfig
from repro.core.sharing import factor_names_for_memory_latency
from repro.harness.runner import PolicySpec, improvement_pct
from repro.harness.scenario import (
    GridPoint,
    Scenario,
    ScenarioRun,
    SweepAxis,
    run_scenario,
    sweep_axis,
    sweep_point,
)
from repro.harness.warmup import WarmupSpec
from repro.metrics.intervals import PhaseTimeline
from repro.metrics.stats import ReplicatedResult, safe_hmean
from repro.pipeline.config import SMTConfig
from repro.trace.profiles import ALL_BENCHMARKS, get_profile

#: Workload cells evaluated in Figures 4 and 5 (paper Section 4).
ALL_CELLS: Tuple[Tuple[int, str], ...] = tuple(
    (threads, wtype)
    for threads in (2, 3, 4)
    for wtype in ("ILP", "MIX", "MEM")
)

#: Reduced representative benchmark sets for the quicker drivers.
_FIG2_INT_BENCHMARKS = ("gzip", "gcc", "crafty", "bzip2")
_FIG2_FP_BENCHMARKS = ("wupwise", "mesa", "apsi", "fma3d")


def _cell_selectors(cells: Sequence[Tuple[int, str]]) -> Tuple[str, ...]:
    """Scenario workload selectors for (thread count, type) cells."""
    return tuple(f"{wtype}{num_threads}" for num_threads, wtype in cells)


# --------------------------------------------------------------------------
# Figure 2 — resource sensitivity in single-thread mode
# --------------------------------------------------------------------------

#: Resource fractions swept in Figure 2 (percent of the full resource).
FIG2_FRACTIONS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

#: Figure 2 baseline: 32-entry queues, 160 rename registers, perfect L1D.
FIG2_CONFIG = SMTConfig(
    int_iq_size=32, fp_iq_size=32, ls_iq_size=32,
    int_physical_registers=192, fp_physical_registers=192,
    perfect_dl1=True,
)


@dataclass
class Figure2Row:
    """Relative speed of single-thread runs at one resource fraction."""

    resource: str
    fraction: float
    relative_ipc: float


def _fig2_config_for(resource: str, fraction: float) -> SMTConfig:
    """Scale one resource of the Figure 2 config to ``fraction``."""
    if resource == "int_iq":
        return dataclasses.replace(
            FIG2_CONFIG, int_iq_size=max(4, round(32 * fraction)))
    if resource == "ls_iq":
        return dataclasses.replace(
            FIG2_CONFIG, ls_iq_size=max(4, round(32 * fraction)))
    if resource == "fp_iq":
        return dataclasses.replace(
            FIG2_CONFIG, fp_iq_size=max(4, round(32 * fraction)))
    if resource == "int_regs":
        return dataclasses.replace(
            FIG2_CONFIG,
            int_physical_registers=32 + max(8, round(160 * fraction)))
    if resource == "fp_regs":
        return dataclasses.replace(
            FIG2_CONFIG,
            fp_physical_registers=32 + max(8, round(160 * fraction)))
    raise ValueError(f"unknown Figure 2 resource {resource!r}")


#: The five resources swept in Figure 2 and the benchmark sets used for
#: each (FP resources are averaged over FP benchmarks only, see the
#: paper's footnote 1).
FIG2_RESOURCES: Dict[str, Tuple[str, ...]] = {
    "int_iq": _FIG2_INT_BENCHMARKS + _FIG2_FP_BENCHMARKS,
    "ls_iq": _FIG2_INT_BENCHMARKS + _FIG2_FP_BENCHMARKS,
    "fp_iq": _FIG2_FP_BENCHMARKS,
    "int_regs": _FIG2_INT_BENCHMARKS + _FIG2_FP_BENCHMARKS,
    "fp_regs": _FIG2_FP_BENCHMARKS,
}


def figure2_scenario(
    cycles: int = 12_000,
    warmup: WarmupSpec = 3_000,
    fractions: Sequence[float] = FIG2_FRACTIONS,
    resources: Optional[Sequence[str]] = None,
    seed: int = 7,
) -> Scenario:
    """The Figure 2 sweep as a scenario: one grid point per (resource,
    setting), each overriding the config *and* the benchmark set
    (FP resources use FP benchmarks only)."""
    points = []
    for resource in list(resources or FIG2_RESOURCES):
        benchmarks = FIG2_RESOURCES[resource]
        points.append(sweep_point(
            f"{resource}@full",
            {"config": FIG2_CONFIG, "workloads": benchmarks}))
        for fraction in fractions:
            points.append(sweep_point(
                f"{resource}@{fraction:g}",
                {"config": _fig2_config_for(resource, fraction),
                 "workloads": benchmarks}))
    return Scenario(
        name="figure2-resource-sensitivity",
        description="Single-thread relative speed vs fraction of one "
                    "resource, perfect L1D (paper Figure 2)",
        workloads=(), policies=("ICOUNT",), config=FIG2_CONFIG,
        cycles=cycles, warmup=warmup, seed=seed,
        sweep=(SweepAxis("setting", tuple(points)),))


def figure2_resource_sensitivity(
    cycles: int = 12_000,
    warmup: WarmupSpec = 3_000,
    fractions: Sequence[float] = FIG2_FRACTIONS,
    resources: Optional[Sequence[str]] = None,
    seed: int = 7,
    jobs: int = 1,
    executor=None,
    reuse=None,
) -> List[Figure2Row]:
    """Regenerate Figure 2: % of full speed vs % of one resource.

    Single-thread runs with a perfect L1 data cache; each point scales
    one resource (issue queue or rename-register pool) and reports the
    mean IPC relative to the full-resource run.
    """
    resource_names = list(resources or FIG2_RESOURCES)
    scenario = figure2_scenario(cycles, warmup, fractions, resource_names,
                                seed)
    return _figure2_rows(run_scenario(scenario, jobs, executor, reuse),
                         resource_names, fractions)


def _figure2_rows(outcome: ScenarioRun, resources: Sequence[str],
                  fractions: Sequence[float]) -> List[Figure2Row]:
    """Mean IPC relative to the full-resource point, per (resource,
    fraction), walking :func:`figure2_scenario`'s grid in order."""
    per_point: Dict[int, Dict[str, float]] = {}
    for meta, result in zip(outcome.compiled.meta, outcome.results):
        per_point.setdefault(meta.point, {})[
            meta.workload.benchmarks[0]] = result.threads[0].ipc

    rows: List[Figure2Row] = []
    position = 0
    for resource in resources:
        benchmarks = FIG2_RESOURCES[resource]
        full = per_point[position]
        position += 1
        for fraction in fractions:
            scaled = per_point[position]
            position += 1
            ratios = []
            for benchmark in benchmarks:
                if full[benchmark] > 0:
                    ratios.append(scaled[benchmark] / full[benchmark])
            rows.append(Figure2Row(resource, fraction,
                                   sum(ratios) / len(ratios)))
    return rows


def format_figure2(rows: Sequence[Figure2Row]) -> str:
    """Render Figure 2 rows as an aligned text table."""
    resources = sorted({r.resource for r in rows})
    fractions = sorted({r.fraction for r in rows})
    by_key = {(r.resource, r.fraction): r.relative_ipc for r in rows}
    lines = ["% resource " + " ".join(f"{res:>9s}" for res in resources)]
    for fraction in fractions:
        cells = " ".join(
            f"{by_key.get((res, fraction), float('nan')):9.3f}"
            for res in resources
        )
        lines.append(f"{100 * fraction:10.1f} {cells}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Table 3 — cache behaviour of each benchmark
# --------------------------------------------------------------------------

@dataclass
class Table3Row:
    """Measured vs published L2 miss rate of one benchmark."""

    benchmark: str
    suite: str
    mem_class: str
    paper_l2_missrate_pct: float
    measured_l2_missrate_pct: float

    @property
    def measured_class(self) -> str:
        """MEM/ILP classification from the measured rate (1% rule)."""
        return "MEM" if self.measured_l2_missrate_pct > 1.0 else "ILP"


def table3_scenario(
    cycles: int = 15_000,
    warmup: WarmupSpec = 4_000,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 3,
) -> Scenario:
    """Table 3 as a scenario: every benchmark running alone."""
    return Scenario(
        name="table3-miss-rates",
        description="Single-thread L2 miss rate and MEM/ILP class per "
                    "benchmark (paper Table 3)",
        workloads=tuple(benchmarks or sorted(ALL_BENCHMARKS)),
        policies=("ICOUNT",), cycles=cycles, warmup=warmup, seed=seed)


def table3_miss_rates(
    cycles: int = 15_000,
    warmup: WarmupSpec = 4_000,
    benchmarks: Optional[Sequence[str]] = None,
    seed: int = 3,
    jobs: int = 1,
    executor=None,
    reuse=None,
) -> List[Table3Row]:
    """Regenerate Table 3: single-thread L2 miss rate per benchmark."""
    scenario = table3_scenario(cycles, warmup, benchmarks, seed)
    return _table3_rows(run_scenario(scenario, jobs, executor, reuse))


def _table3_rows(outcome: ScenarioRun) -> List[Table3Row]:
    rows = []
    for meta, result in zip(outcome.compiled.meta, outcome.results):
        name = meta.workload.benchmarks[0]
        profile = get_profile(name)
        rows.append(Table3Row(
            benchmark=name,
            suite=profile.suite,
            mem_class=profile.mem_class,
            paper_l2_missrate_pct=profile.l2_missrate_pct,
            measured_l2_missrate_pct=result.threads[0].l2_missrate_pct,
        ))
    return rows


def format_table3(rows: Sequence[Table3Row]) -> str:
    lines = [f"{'benchmark':10s} {'suite':5s} {'paper':>7s} {'ours':>7s} "
             f"{'paper cls':>9s} {'our cls':>8s}"]
    for row in sorted(rows, key=lambda r: -r.paper_l2_missrate_pct):
        lines.append(
            f"{row.benchmark:10s} {row.suite:5s} "
            f"{row.paper_l2_missrate_pct:7.2f} "
            f"{row.measured_l2_missrate_pct:7.2f} "
            f"{row.mem_class:>9s} {row.measured_class:>8s}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Table 5 — phase combinations of 2-thread workloads
# --------------------------------------------------------------------------

@dataclass
class Table5Row:
    """Phase-combination distribution for one 2-thread workload type."""

    wtype: str
    slow_slow_pct: float
    mixed_pct: float
    fast_fast_pct: float


#: Phase-timeline resolution of the Table 5 driver, in cycles.
TABLE5_INTERVAL_CYCLES = 2_000

#: Cell order of the Table 5 rows.
_TABLE5_WTYPES = ("ILP", "MIX", "MEM")


def table5_scenario(
    cycles: int = 20_000,
    warmup: WarmupSpec = 4_000,
    seed: int = 5,
    interval_cycles: int = TABLE5_INTERVAL_CYCLES,
) -> Scenario:
    """Table 5 as a scenario: every 2-thread cell under DCRA, chunked."""
    return Scenario(
        name="table5-phase-distribution",
        description="Fast/slow phase combinations of the 2-thread cells "
                    "under DCRA, from recorded phase timelines (paper "
                    "Table 5)",
        workloads=tuple(f"{wtype}2" for wtype in _TABLE5_WTYPES),
        policies=("DCRA",), cycles=cycles, warmup=warmup, seed=seed,
        interval_cycles=interval_cycles)


def table5_phase_distribution(
    cycles: int = 20_000,
    warmup: WarmupSpec = 4_000,
    seed: int = 5,
    jobs: int = 1,
    executor=None,
    interval_cycles: int = TABLE5_INTERVAL_CYCLES,
    reuse=None,
) -> List[Table5Row]:
    """Regenerate Table 5: % of cycles 2-thread workloads spend with both
    threads slow, one slow one fast, or both fast (under DCRA).

    Built on the interval recorder's :class:`PhaseTimeline` (payload
    kind ``"phase_timeline"``): each workload's run yields its phase
    history, the four groups of a cell merge cycle-for-cycle, and the
    row is that merged timeline's two-thread split.
    ``table5_timelines`` exposes the merged timelines themselves for
    time-resolved views (e.g. the CLI's ASCII charts).
    """
    scenario = table5_scenario(cycles, warmup, seed, interval_cycles)
    return _table5_rows(run_scenario(scenario, jobs, executor, reuse,
                                     kind="phase_timeline"))


def _table5_rows(outcome: ScenarioRun) -> List[Table5Row]:
    return [Table5Row(wtype, *timeline.two_thread_split())
            for wtype, timeline in _merged_timelines(outcome)]


def table5_timelines(
    cycles: int = 20_000,
    warmup: WarmupSpec = 4_000,
    seed: int = 5,
    jobs: int = 1,
    executor=None,
    interval_cycles: int = TABLE5_INTERVAL_CYCLES,
    reuse=None,
) -> List[Tuple[str, PhaseTimeline]]:
    """Merged per-cell phase timelines behind Table 5, one per type."""
    scenario = table5_scenario(cycles, warmup, seed, interval_cycles)
    return _merged_timelines(run_scenario(scenario, jobs, executor, reuse,
                                          kind="phase_timeline"))


def _merged_timelines(outcome: ScenarioRun) \
        -> List[Tuple[str, PhaseTimeline]]:
    return [
        (wtype, PhaseTimeline.merge(
            [timeline for meta, timeline in zip(outcome.compiled.meta,
                                                outcome.results)
             if meta.workload.wtype == wtype]))
        for wtype in _TABLE5_WTYPES
    ]


def format_table5(rows: Sequence[Table5Row]) -> str:
    lines = [f"{'type':5s} {'SLOW-SLOW':>10s} {'FAST-SLOW':>10s} "
             f"{'FAST-FAST':>10s}"]
    for row in rows:
        lines.append(f"{row.wtype:5s} {row.slow_slow_pct:10.1f} "
                     f"{row.mixed_pct:10.1f} {row.fast_fast_pct:10.1f}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figures 4 and 5 — policy comparison over the Table 4 workloads
# --------------------------------------------------------------------------

@dataclass
class CellResult:
    """Group-averaged metrics of one policy on one workload cell.

    With seed replication (``reps > 1``) ``throughput`` and ``hmean``
    are means over the replications and the ``*_stats`` fields carry
    the spread (:class:`~repro.metrics.stats.ReplicatedResult`);
    single-seed runs leave them None.
    """

    num_threads: int
    wtype: str
    policy: str
    throughput: float
    hmean: float
    throughput_stats: Optional[ReplicatedResult] = None
    hmean_stats: Optional[ReplicatedResult] = None


def comparison_scenario(
    policies: Sequence[PolicySpec],
    cells: Sequence[Tuple[int, str]] = ALL_CELLS,
    config: Optional[SMTConfig] = None,
    cycles: int = 30_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    reps: int = 1,
    interval_cycles: Optional[int] = None,
    name: str = "policy-comparison",
) -> Scenario:
    """The policy-comparison sweep (Figures 4/5/6/7's core) as a
    scenario: one cell selector per (thread count, type), every policy
    on every group, shared seeds within a replication."""
    return Scenario(
        name=name,
        workloads=_cell_selectors(cells),
        policies=tuple(policies),
        config=config, cycles=cycles, warmup=warmup, seed=seed,
        reps=reps, interval_cycles=interval_cycles)


def _comparison_cells(outcome: ScenarioRun,
                      point: int = 0) -> List[CellResult]:
    """Aggregate one grid point of a comparison scenario per cell.

    The shared core behind :func:`compare_policies` and the Figure 6/7
    sweeps: per replication, each policy's throughput and Hmean (against
    that replication's own baselines) averaged over the four groups of
    a cell; across replications, the mean plus the spread.  Cells and
    policies keep the compiled order.
    """
    # One run per (replication, workload, policy), even when a cell is
    # selected twice.
    runs = {(meta.rep, meta.workload, meta.policy_index): (meta, result)
            for meta, result in zip(outcome.compiled.meta, outcome.results)
            if meta.point == point}
    per_rep: Dict[int, Dict[Tuple[int, str, str], List[float]]] = {}
    for meta, result in runs.values():
        workload = meta.workload
        singles = [outcome.singles[(point, b, meta.seed)]
                   for b in workload.benchmarks]
        entry = per_rep.setdefault(meta.rep, {}).setdefault(
            (workload.num_threads, workload.wtype, result.policy),
            [0.0, 0.0])
        entry[0] += result.throughput / 4.0
        entry[1] += safe_hmean(result.ipcs, singles, workload.name) / 4.0
    reps = [per_rep[rep] for rep in sorted(per_rep)]

    results: List[CellResult] = []
    for key in reps[0]:
        throughputs = [rep[key][0] for rep in reps]
        hmeans = [rep[key][1] for rep in reps]
        if len(reps) > 1:
            throughput_stats = ReplicatedResult.from_values(throughputs)
            hmean_stats = ReplicatedResult.from_values(hmeans)
        else:
            throughput_stats = hmean_stats = None
        results.append(CellResult(
            *key, sum(throughputs) / len(throughputs),
            sum(hmeans) / len(hmeans), throughput_stats, hmean_stats))
    return results


def compare_policies(
    policies: Sequence[PolicySpec],
    cells: Sequence[Tuple[int, str]] = ALL_CELLS,
    config: Optional[SMTConfig] = None,
    cycles: int = 30_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    jobs: int = 1,
    reps: int = 1,
    executor=None,
    interval_cycles: Optional[int] = None,
    progress=None,
    reuse=None,
) -> List[CellResult]:
    """Evaluate policies over workload cells, averaging the four groups.

    This is the driver behind Figures 4, 5, 6 and 7.  The sweep is a
    :func:`comparison_scenario` compiled to one campaign: one job per
    (replication, workload, policy) plus the single-thread Hmean
    baseline of every benchmark involved.  Within a replication all
    jobs share one seed so every policy sees identical instruction
    streams; with ``reps > 1`` the whole comparison is repeated per
    derived seed (:func:`derive_seed`) and each cell reports the mean
    plus a :class:`~repro.metrics.stats.ReplicatedResult` spread.

    ``interval_cycles`` switches the policy jobs to chunked simulation
    (identical results; per-interval progress streams to the optional
    ``(job_index, event)`` ``progress`` callback through whichever
    backend runs the sweep).

    ``warmup`` accepts a fixed cycle count or a
    :class:`~repro.harness.warmup.WarmupPolicy`: with a steady-state
    policy every job (and every Hmean baseline) resolves its own
    warm-up length from its interval series instead of sharing one
    guessed count — the per-run resolutions ride back on each
    ``SimulationResult.warmup_cycles``.

    ``reuse`` wires the content-addressed result store: ``"auto"``
    serves stored job results and simulates only the misses (identical
    output — jobs are deterministic), ``"require"`` raises on any miss.
    """
    scenario = comparison_scenario(policies, cells, config, cycles,
                                   warmup, seed, reps, interval_cycles)
    return _comparison_cells(run_scenario(scenario, jobs, executor, reuse,
                                          progress, hmean=True))


@dataclass
class ImprovementRow:
    """DCRA's improvement over one baseline on one cell."""

    num_threads: int
    wtype: str
    baseline: str
    throughput_improvement_pct: float
    hmean_improvement_pct: float


def improvements_over(results: Sequence[CellResult],
                      subject: str = "DCRA") -> List[ImprovementRow]:
    """Compute the subject policy's improvement over every other policy."""
    by_cell: Dict[Tuple[int, str], Dict[str, CellResult]] = {}
    for result in results:
        by_cell.setdefault((result.num_threads, result.wtype), {})[
            result.policy] = result
    rows = []
    for (num_threads, wtype), cell in sorted(by_cell.items()):
        if subject not in cell:
            raise ValueError(f"no {subject} results for {wtype}{num_threads}")
        subject_result = cell[subject]
        for name, baseline in cell.items():
            if name == subject:
                continue
            rows.append(ImprovementRow(
                num_threads=num_threads,
                wtype=wtype,
                baseline=name,
                throughput_improvement_pct=improvement_pct(
                    subject_result.throughput, baseline.throughput),
                hmean_improvement_pct=improvement_pct(
                    subject_result.hmean, baseline.hmean),
            ))
    return rows


def figure4_scenario(
    cells: Sequence[Tuple[int, str]] = ALL_CELLS,
    cycles: int = 30_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    reps: int = 1,
) -> Scenario:
    """Figure 4's sweep: DCRA against static allocation."""
    return comparison_scenario(
        ["SRA", "DCRA"], cells, None, cycles, warmup, seed, reps,
        name="figure4-dcra-vs-static")


def figure4_dcra_vs_static(
    cells: Sequence[Tuple[int, str]] = ALL_CELLS,
    cycles: int = 30_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    jobs: int = 1,
    reps: int = 1,
    executor=None,
    reuse=None,
) -> List[ImprovementRow]:
    """Regenerate Figure 4: DCRA improvement over SRA per workload cell."""
    scenario = figure4_scenario(cells, cycles, warmup, seed, reps)
    return improvements_over(_comparison_cells(
        run_scenario(scenario, jobs, executor, reuse, hmean=True)))


def figure5_scenario(
    cells: Sequence[Tuple[int, str]] = ALL_CELLS,
    cycles: int = 30_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    reps: int = 1,
) -> Scenario:
    """Figure 5's sweep: the fetch policies against DCRA."""
    return comparison_scenario(
        ["ICOUNT", "DG", "FLUSH++", "DCRA"], cells, None, cycles, warmup,
        seed, reps, name="figure5-policy-comparison")


def figure5_policy_comparison(
    cells: Sequence[Tuple[int, str]] = ALL_CELLS,
    cycles: int = 30_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    jobs: int = 1,
    reps: int = 1,
    executor=None,
    reuse=None,
) -> List[CellResult]:
    """Regenerate Figure 5: throughput and Hmean for the fetch policies."""
    scenario = figure5_scenario(cells, cycles, warmup, seed, reps)
    return _comparison_cells(
        run_scenario(scenario, jobs, executor, reuse, hmean=True))


def format_improvements(rows: Sequence[ImprovementRow]) -> str:
    lines = [f"{'cell':8s} {'baseline':10s} {'d-throughput':>13s} "
             f"{'d-Hmean':>9s}"]
    for row in rows:
        lines.append(
            f"{row.wtype}{row.num_threads:<6d} {row.baseline:10s} "
            f"{row.throughput_improvement_pct:+12.1f}% "
            f"{row.hmean_improvement_pct:+8.1f}%"
        )
    return "\n".join(lines)


def format_cell_results(results: Sequence[CellResult]) -> str:
    """Render cell results; seed-replicated runs gain ±95% CI columns."""
    with_stats = any(r.hmean_stats is not None for r in results)
    header = f"{'cell':8s} {'policy':10s} {'IPC':>6s}"
    if with_stats:
        header += f" {'±95%':>6s}"
    header += f" {'Hmean':>7s}"
    if with_stats:
        header += f" {'±95%':>7s}"
    lines = [header]
    for result in sorted(results,
                         key=lambda r: (r.num_threads, r.wtype, r.policy)):
        line = (f"{result.wtype}{result.num_threads:<6d} "
                f"{result.policy:10s} {result.throughput:6.2f}")
        if with_stats:
            ci = (result.throughput_stats.ci95
                  if result.throughput_stats else 0.0)
            line += f" ±{ci:5.2f}"
        line += f" {result.hmean:7.3f}"
        if with_stats:
            ci = result.hmean_stats.ci95 if result.hmean_stats else 0.0
            line += f" ±{ci:6.3f}"
        lines.append(line)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Figure 6 — register file sensitivity
# --------------------------------------------------------------------------

#: Register file sizes swept in Figure 6.
FIG6_REGISTER_SIZES = (320, 352, 384)

#: Default cells for the sensitivity sweeps: a cross-section with both
#: mixed and memory-bound behaviour (full 9-cell sweeps are available by
#: passing ``cells=ALL_CELLS``).
SWEEP_CELLS: Tuple[Tuple[int, str], ...] = ((2, "MIX"), (4, "MIX"), (2, "MEM"))


@dataclass
class SweepRow:
    """DCRA Hmean improvement over a baseline at one sweep point."""

    parameter: int
    baseline: str
    hmean_improvement_pct: float


def _mean_hmean_improvements(results: Sequence[CellResult],
                             subject: str = "DCRA") -> Dict[str, float]:
    """Mean Hmean-improvement of the subject over each baseline."""
    rows = improvements_over(results, subject)
    sums: Dict[str, List[float]] = {}
    for row in rows:
        sums.setdefault(row.baseline, []).append(row.hmean_improvement_pct)
    return {name: sum(vals) / len(vals) for name, vals in sums.items()}


def _sweep_rows(outcome: ScenarioRun,
                parameter_of: Callable[[GridPoint], int]) -> List[SweepRow]:
    """Aggregate a swept comparison scenario into Figure 6/7 rows.

    Every grid point is one full policy comparison (its own
    configuration, its own baselines); ``parameter_of`` maps the
    point to the integer the x-axis plots.
    """
    rows: List[SweepRow] = []
    for point in outcome.compiled.points:
        improvements = _mean_hmean_improvements(
            _comparison_cells(outcome, point.index))
        for baseline, value in sorted(improvements.items()):
            rows.append(SweepRow(parameter_of(point), baseline, value))
    return rows


def _registers(point: GridPoint) -> int:
    return point.get("config.registers")


def _memory_latency(point: GridPoint) -> int:
    return point.get("config.latencies")[0]


def figure6_scenario(
    register_sizes: Sequence[int] = FIG6_REGISTER_SIZES,
    cells: Sequence[Tuple[int, str]] = SWEEP_CELLS,
    cycles: int = 25_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    reps: int = 1,
) -> Scenario:
    """Figure 6's sweep: the full comparison per register-file size."""
    base = comparison_scenario(
        ["ICOUNT", "FLUSH++", "DG", "SRA", "DCRA"], cells, None, cycles,
        warmup, seed, reps, name="figure6-register-sweep")
    return dataclasses.replace(
        base,
        description="DCRA Hmean improvement vs physical register file "
                    "size (paper Figure 6)",
        sweep=(sweep_axis("registers", "config.registers",
                          register_sizes),))


def figure6_register_sweep(
    register_sizes: Sequence[int] = FIG6_REGISTER_SIZES,
    cells: Sequence[Tuple[int, str]] = SWEEP_CELLS,
    cycles: int = 25_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    jobs: int = 1,
    reps: int = 1,
    executor=None,
    reuse=None,
) -> List[SweepRow]:
    """Regenerate Figure 6: Hmean improvement vs register file size."""
    scenario = figure6_scenario(register_sizes, cells, cycles, warmup,
                                seed, reps)
    return _sweep_rows(
        run_scenario(scenario, jobs, executor, reuse, hmean=True),
        _registers)


# --------------------------------------------------------------------------
# Figure 7 — memory latency sensitivity
# --------------------------------------------------------------------------

#: (memory latency, L2 latency) pairs swept in Figure 7.
FIG7_LATENCIES = ((100, 10), (300, 20), (500, 25))


def dcra_for_latency(memory_latency: int) -> PolicySpec:
    """DCRA with the paper's latency-tuned sharing factor (Section 5.3).

    The config carries factor *names*, not resolved callables: names
    have stable reprs (result-store keys identical across processes)
    and serialise to JSON scenario files; a :class:`SharingModel`'s
    resolved function objects would defeat both.
    """
    iq_name, reg_name = factor_names_for_memory_latency(memory_latency)
    config = DcraConfig(
        iq_sharing_factor=iq_name,
        reg_sharing_factor=reg_name,
    )
    return ("DCRA", {"config": config})


def figure7_scenario(
    latencies: Sequence[Tuple[int, int]] = FIG7_LATENCIES,
    cells: Sequence[Tuple[int, str]] = SWEEP_CELLS,
    cycles: int = 25_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    reps: int = 1,
) -> Scenario:
    """Figure 7's sweep: each latency pairing brings its own config
    *and* its own latency-tuned DCRA (a multi-field sweep point)."""
    base = comparison_scenario(
        ["ICOUNT"], cells, None, cycles, warmup, seed, reps,
        name="figure7-latency-sweep")
    points = tuple(
        sweep_point(str(memory_latency), {
            "config.latencies": (memory_latency, l2_latency),
            "policies": ("ICOUNT", "FLUSH++", "DG", "SRA",
                         dcra_for_latency(memory_latency)),
        })
        for memory_latency, l2_latency in latencies)
    return dataclasses.replace(
        base,
        description="DCRA Hmean improvement vs memory latency, "
                    "latency-tuned sharing factors (paper Figure 7)",
        sweep=(SweepAxis("latency", points),))


def figure7_latency_sweep(
    latencies: Sequence[Tuple[int, int]] = FIG7_LATENCIES,
    cells: Sequence[Tuple[int, str]] = SWEEP_CELLS,
    cycles: int = 25_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    jobs: int = 1,
    reps: int = 1,
    executor=None,
    reuse=None,
) -> List[SweepRow]:
    """Regenerate Figure 7: Hmean improvement vs memory latency."""
    scenario = figure7_scenario(latencies, cells, cycles, warmup, seed,
                                reps)
    return _sweep_rows(
        run_scenario(scenario, jobs, executor, reuse, hmean=True),
        _memory_latency)


def format_sweep(rows: Sequence[SweepRow], parameter_name: str) -> str:
    lines = [f"{parameter_name:>10s} {'baseline':10s} {'d-Hmean':>9s}"]
    for row in rows:
        lines.append(f"{row.parameter:10d} {row.baseline:10s} "
                     f"{row.hmean_improvement_pct:+8.1f}%")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Section 5.2 text claims — front-end activity and memory parallelism
# --------------------------------------------------------------------------

@dataclass
class Text52Row:
    """Front-end overhead and L2-miss overlap of one policy on one cell."""

    num_threads: int
    wtype: str
    policy: str
    fetched_per_commit: float
    avg_l2_overlap: float


def text52_scenario(
    cells: Sequence[Tuple[int, str]] = ((2, "MIX"), (4, "MIX"), (2, "MEM")),
    cycles: int = 25_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
) -> Scenario:
    """The Section 5.2 measurement as a scenario: FLUSH++ vs DCRA."""
    return Scenario(
        name="text52-frontend-mlp",
        description="Front-end activity and L2-miss overlap of FLUSH++ "
                    "vs DCRA (paper Section 5.2)",
        workloads=_cell_selectors(cells),
        policies=("FLUSH++", "DCRA"),
        cycles=cycles, warmup=warmup, seed=seed)


def text52_frontend_and_mlp(
    cells: Sequence[Tuple[int, str]] = ((2, "MIX"), (4, "MIX"), (2, "MEM")),
    cycles: int = 25_000,
    warmup: WarmupSpec = 5_000,
    seed: int = 1,
    jobs: int = 1,
    executor=None,
    reuse=None,
) -> List[Text52Row]:
    """Measure the Section 5.2 claims: FLUSH++ fetches ~2x more than DCRA
    while DCRA overlaps more L2 misses (memory parallelism)."""
    scenario = text52_scenario(cells, cycles, warmup, seed)
    return _text52_rows(run_scenario(scenario, jobs, executor, reuse))


def _text52_rows(outcome: ScenarioRun) -> List[Text52Row]:
    """Per (cell, policy): fetched/committed over the four groups and
    the group-averaged L2-miss overlap, in compiled order."""
    sums: Dict[Tuple[int, str, int], List] = {}
    for meta, result in zip(outcome.compiled.meta, outcome.results):
        workload = meta.workload
        entry = sums.setdefault(
            (workload.num_threads, workload.wtype, meta.policy_index),
            [0, 0, 0.0])
        entry[0] += result.total_fetched
        entry[1] += result.total_committed
        entry[2] += result.avg_l2_overlap / 4.0
    policies = outcome.compiled.scenario.policies
    return [Text52Row(num_threads=num_threads, wtype=wtype,
                      policy=policies[policy_index],
                      fetched_per_commit=fetched / max(committed, 1),
                      avg_l2_overlap=overlap)
            for (num_threads, wtype, policy_index),
            (fetched, committed, overlap) in sums.items()]


def format_text52(rows: Sequence[Text52Row]) -> str:
    lines = [f"{'cell':8s} {'policy':10s} {'fetch/commit':>13s} "
             f"{'L2 overlap':>11s}"]
    for row in rows:
        lines.append(f"{row.wtype}{row.num_threads:<6d} {row.policy:10s} "
                     f"{row.fetched_per_commit:13.2f} "
                     f"{row.avg_l2_overlap:11.2f}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The paper-artefact registry (the declarative scenario suite)
# --------------------------------------------------------------------------

#: Scenario fields every artefact takes from the command line, and the
#: extra ones the replicated (and interval-capable) artefacts take.
BUDGET_KNOBS = ("cycles", "warmup", "seed")
REPLICATED_KNOBS = BUDGET_KNOBS + ("reps",)


@dataclass(frozen=True)
class ArtifactDef:
    """One paper artefact: its scenario spec, and how to render it.

    Attributes:
        key: short identifier (``fig5``, ``table3``, ...) — what
            ``repro scenario run KEY`` and ``repro scenario list`` use.
        title: section heading for reports.
        scenario: zero-argument builder of the full-budget spec, so
            saving the built scenario to a file and running the file
            compiles the identical job list as ``repro scenario run
            KEY``.  The two routes also share store entries, with one
            exception: ``table5`` asks for phase timelines (payload
            kind ``"phase_timeline"``) while the generic file route
            stores plain results, and the kind is part of the store key.
        aggregate: the outcome's rows (a pure function of the
            :class:`~repro.harness.scenario.ScenarioRun`).
        format: the rows as the artefact's text.
        kind: the payload kind each compiled job yields.
        hmean: whether the outcome needs the single-thread baselines.
        knobs: the scenario fields a caller may override (see
            :meth:`build`); the others keep the published values.
    """

    key: str
    title: str
    scenario: Callable[[], Scenario]
    aggregate: Callable[[ScenarioRun], object]
    format: Callable[[object], str]
    kind: str = "result"
    hmean: bool = False
    knobs: Tuple[str, ...] = BUDGET_KNOBS

    def build(self, **overrides) -> Scenario:
        """The published spec with the given field overrides applied;
        None values and fields outside :attr:`knobs` are ignored."""
        return dataclasses.replace(self.scenario(), **{
            name: value for name, value in overrides.items()
            if name in self.knobs and value is not None})

    def render(self, outcome: ScenarioRun) -> str:
        """The artefact's text from its scenario's outcome."""
        return self.format(self.aggregate(outcome))


#: Full-regeneration budgets.  The 9-cell comparison runs at
#: FULL_BUDGET_*; the sensitivity sweeps and Table 5 at SWEEP_BUDGET_*.
FULL_BUDGET_CYCLES = 24_000
FULL_BUDGET_WARMUP = 5_000
SWEEP_BUDGET_CYCLES = 20_000
SWEEP_BUDGET_WARMUP = 4_000
_SWEEP_BUDGET = dict(cycles=SWEEP_BUDGET_CYCLES, warmup=SWEEP_BUDGET_WARMUP)


def figures45_scenario(
    cycles: int = FULL_BUDGET_CYCLES,
    warmup: WarmupSpec = FULL_BUDGET_WARMUP,
    seed: int = 1,
    reps: int = 1,
    interval_cycles: Optional[int] = None,
) -> Scenario:
    """The full-budget Figures 4+5 sweep: all five policies, 9 cells."""
    return comparison_scenario(
        ["ICOUNT", "DG", "FLUSH++", "SRA", "DCRA"], ALL_CELLS, None,
        cycles, warmup, seed, reps, interval_cycles,
        name="figures45-full-comparison")


def format_figures45(results: Sequence[CellResult]) -> str:
    """The full comparison: cell table, improvements, per-baseline means."""
    lines = [format_cell_results(results), ""]
    rows = improvements_over(results)
    lines.append(format_improvements(rows))
    for baseline in ("SRA", "ICOUNT", "DG", "FLUSH++"):
        values = [r.hmean_improvement_pct for r in rows
                  if r.baseline == baseline]
        tp = [r.throughput_improvement_pct for r in rows
              if r.baseline == baseline]
        lines.append(
            f"DCRA vs {baseline}: mean Hmean {sum(values) / len(values):+.1f}%"
            f"  mean throughput {sum(tp) / len(tp):+.1f}%")
    return "\n".join(lines)


#: Every simulation-backed paper artefact, in suite order.  (Table 1 is
#: exact arithmetic — no simulation, no scenario — and stays in
#: ``scripts/run_all_experiments.py``.)
ARTIFACTS: Tuple[ArtifactDef, ...] = (
    ArtifactDef("fig2", "Figure 2 — resource sensitivity (perfect L1D)",
                figure2_scenario,
                partial(_figure2_rows, resources=tuple(FIG2_RESOURCES),
                        fractions=FIG2_FRACTIONS),
                format_figure2),
    ArtifactDef("table3", "Table 3 — L2 miss rates",
                table3_scenario, _table3_rows, format_table3),
    ArtifactDef("table5", "Table 5 — phase distribution (2-thread)",
                partial(table5_scenario, **_SWEEP_BUDGET), _table5_rows,
                format_table5, kind="phase_timeline"),
    ArtifactDef("figs45", "Figures 4+5 — full 9-cell policy comparison",
                figures45_scenario, _comparison_cells, format_figures45,
                hmean=True, knobs=REPLICATED_KNOBS + ("interval_cycles",)),
    ArtifactDef("fig6", "Figure 6 — register sweep",
                partial(figure6_scenario, **_SWEEP_BUDGET),
                partial(_sweep_rows, parameter_of=_registers),
                partial(format_sweep, parameter_name="registers"),
                hmean=True, knobs=REPLICATED_KNOBS),
    ArtifactDef("fig7", "Figure 7 — latency sweep",
                partial(figure7_scenario, **_SWEEP_BUDGET),
                partial(_sweep_rows, parameter_of=_memory_latency),
                partial(format_sweep, parameter_name="latency"),
                hmean=True, knobs=REPLICATED_KNOBS),
    ArtifactDef("text52", "Section 5.2 — front-end activity / MLP",
                partial(text52_scenario, **_SWEEP_BUDGET), _text52_rows,
                format_text52),
)


def find_artifact(key: str) -> ArtifactDef:
    """Look an artefact up by key, with a helpful error."""
    for artifact in ARTIFACTS:
        if artifact.key == key:
            return artifact
    raise ValueError(
        f"unknown artefact {key!r} (expected one of "
        f"{', '.join(a.key for a in ARTIFACTS)})")
