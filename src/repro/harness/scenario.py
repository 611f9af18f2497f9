"""Declarative scenario specs: experiment sweeps as data.

A :class:`Scenario` describes a whole experiment — which workloads,
which policies, which processor configuration, which budgets, how many
seed replications, and an optional cartesian sweep grid — as one frozen
value that can live in Python code, a JSON file or a TOML file.  It
compiles deterministically to the engine's :class:`~repro.harness.engine.SimJob`
list, so everything the harness already guarantees (any-backend bitwise
determinism, seed-replication statistics, adaptive warm-up, the
content-addressed result store) applies to a scenario for free.

Running a scenario is compile → execute → render:
:meth:`CompiledScenario.tasks` adds the jobs (and, for Hmean columns,
the single-thread baseline of every grid point, benchmark and seed) to
a :class:`~repro.harness.engine.Campaign`, one
:func:`~repro.harness.engine.execute` call computes or serves them, and
:meth:`ScenarioTasks.outcome` hands the payloads to a pure renderer
(:func:`scenario_report` for files, the artefact aggregates of
:mod:`repro.harness.experiments` for the built-ins).
:func:`run_scenario` is the one-scenario shorthand; the campaign script
compiles every artefact into one shared campaign instead.

Every paper artefact is such a spec (see
``repro.harness.experiments.ARTIFACTS``), and a new workload study is a
scenario *file* rather than a new ~100-line driver::

    {
      "name": "register-sweep",
      "workloads": ["MIX2", "MEM2.g1"],
      "policies": ["ICOUNT", "DCRA"],
      "cycles": 20000, "warmup": 5000, "reps": 3,
      "sweep": [{"name": "regs", "field": "config.registers",
                 "values": [320, 352, 384]}]
    }

run with ``repro scenario run FILE``.

Vocabulary
----------
*Workload selectors* (see :func:`repro.trace.workloads.resolve_workloads`):
``"MIX2.g1"`` (one Table 4 workload), ``"MIX2"`` (a whole cell, four
groups), ``"gzip+twolf"`` (an explicit mix), ``"gzip"`` (single
benchmark).

*Sweep fields* (the knobs a grid point may override):

===========================  =============================================
``cycles`` / ``seed`` /      the scenario's scalar fields
``reps`` / ``interval_cycles``
``warmup``                   an int, spec string (``"auto:4,0.05"``) or
                             policy dict
``policies``                 a replacement policy list
``workloads``                a replacement selector list
``config``                   an :class:`~repro.pipeline.config.SMTConfig`
                             or a dict of field overrides on the
                             scenario's base config
``config.registers``         both register files
                             (:meth:`SMTConfig.with_registers`)
``config.latencies``         a ``(memory, l2)`` latency pair
                             (:meth:`SMTConfig.with_latencies`)
``config.<field>``           any single :class:`SMTConfig` field
===========================  =============================================

Determinism
-----------
Grid expansion is the cartesian product of the axes in declaration
order (points in declaration order within each axis); compilation
iterates grid point -> replication -> workload selector -> resolved
workload -> policy.  The compiled job list is therefore a pure function
of the spec — the property the result store's content addressing and
the bitwise-reproducibility contract both build on.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dcra import DcraConfig
from repro.harness.results import ResultStore, policy_token
from repro.harness.runner import DEFAULT_CYCLES, DEFAULT_WARMUP, PolicySpec
from repro.harness.warmup import (
    WarmupPolicy,
    WarmupSpec,
    as_warmup_policy,
    parse_warmup_spec,
)
from repro.pipeline.config import SMTConfig
from repro.trace.workloads import Workload, resolve_workloads

#: Fields a sweep point may override besides the ``config.*`` family.
_SCALAR_FIELDS = ("cycles", "seed", "reps", "interval_cycles")


# --------------------------------------------------------------------------
# Normalisation helpers (shared by Python construction and file loading)
# --------------------------------------------------------------------------

def normalize_policy(spec) -> PolicySpec:
    """Canonical :data:`PolicySpec` from any accepted spelling.

    Accepts the native forms (``"DCRA"``, ``("DCRA", {...})``) plus the
    file forms (``["DCRA", {...}]`` lists, ``{"name": ..., "kwargs":
    ...}`` dicts).  A dict-valued ``config`` kwarg is decoded to the
    policy's config dataclass (currently :class:`DcraConfig`), so
    latency-tuned DCRA round-trips through JSON.
    """
    if isinstance(spec, str):
        return spec
    if isinstance(spec, dict):
        spec = (spec["name"], spec.get("kwargs", {}))
    if isinstance(spec, (list, tuple)):
        if len(spec) != 2:
            raise ValueError(f"policy spec {spec!r} must be (name, kwargs)")
        name, kwargs = spec
        kwargs = dict(kwargs)
        config = kwargs.get("config")
        if isinstance(config, dict):
            kwargs["config"] = DcraConfig(**config)
        return (name, kwargs)
    raise ValueError(f"cannot interpret policy spec {spec!r}")


def normalize_policies(values) -> Tuple[PolicySpec, ...]:
    """Normalise a policy list; at least one policy is required."""
    policies = tuple(normalize_policy(value) for value in values)
    if not policies:
        raise ValueError("a scenario needs at least one policy")
    return policies


def normalize_warmup(value) -> WarmupSpec:
    """Warm-up from an int, a :class:`WarmupPolicy`, a CLI-style spec
    string, or a file dict (``{"mode": "steady-state", ...}``).

    Plain ints stay plain ints (they are the canonical fixed-warm-up
    spelling everywhere in the harness, including cache tokens).
    """
    if isinstance(value, WarmupPolicy):
        return value
    if isinstance(value, str):
        return parse_warmup_spec(value)
    if isinstance(value, dict):
        payload = dict(value)
        mode = payload.pop("mode", "fixed")
        if mode == "fixed":
            unknown = set(payload) - {"cycles"}
            if unknown:
                # A typo'd key must not silently become a 0-cycle
                # warm-up (contaminated measurements, no error).
                raise ValueError(
                    f"unknown fixed warm-up fields: "
                    f"{', '.join(sorted(unknown))}")
            return WarmupPolicy.fixed(payload.get("cycles", 0)).cycles
        if mode == "steady-state":
            return WarmupPolicy.steady_state(**payload)
        raise ValueError(f"unknown warm-up mode {mode!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"cannot interpret warm-up spec {value!r}")
    WarmupPolicy.fixed(value)  # validate (rejects negative counts)
    return value


def _freeze(value):
    """Lists become tuples so sweep points compare and pickle stably."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


# --------------------------------------------------------------------------
# Sweep grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep axis: a label plus field overrides."""

    label: str
    set: Tuple[Tuple[str, object], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "set",
            tuple((name, _freeze(value)) for name, value in self.set))


def sweep_point(label: str, overrides: Dict[str, object]) -> SweepPoint:
    """Build a :class:`SweepPoint` from a plain override mapping."""
    return SweepPoint(label=label, set=tuple(overrides.items()))


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension: named, ordered points."""

    name: str
    points: Tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError(f"sweep axis {self.name!r} has no points")


def sweep_axis(name: str, field_name: str, values: Sequence) -> SweepAxis:
    """The common single-field axis: one point per value.

    ``sweep_axis("regs", "config.registers", (320, 352))`` labels each
    point with its value.
    """
    return SweepAxis(name, tuple(
        SweepPoint(label=str(value), set=((field_name, _freeze(value)),))
        for value in values))


@dataclass(frozen=True)
class GridPoint:
    """One expanded cell of the sweep grid.

    Attributes:
        index: position in expansion order (the stable grouping key).
        label: human label, ``axis=point`` pairs joined with commas;
            empty for the degenerate no-sweep grid.
        overrides: the merged field overrides of this cell.
        scenario: the scenario with those overrides applied (its
            ``sweep`` is cleared — a grid point is concrete).
    """

    index: int
    label: str
    overrides: Tuple[Tuple[str, object], ...]
    scenario: "Scenario"

    def get(self, field_name: str, default=None):
        """The override value this point sets for a field, if any."""
        for name, value in self.overrides:
            if name == field_name:
                return value
        return default


# --------------------------------------------------------------------------
# The scenario spec
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A declarative experiment spec; see the module docstring.

    Attributes:
        name: identifier (used in artefact registries and CLI listings).
        workloads: workload selectors, expanded in order.
        policies: policy specs; within a (point, replication, workload)
            every policy runs with the same seed, so policies always see
            identical instruction streams.
        config: processor configuration; None means the Table 2
            baseline.
        cycles: measured cycles per run (after warm-up).
        warmup: warm-up spec (fixed count or
            :class:`~repro.harness.warmup.WarmupPolicy`).
        seed: base workload seed; replications derive from it.
        reps: seed replications (``derive_seeds`` fan-out).
        interval_cycles: chunked-simulation interval, or None for
            monolithic runs.
        sweep: sweep axes, expanded as a cartesian grid.
        description: free-form documentation, carried through files.
        shared_warmup: compile the sweep with a *shared warm-up
            prefix*: every job warms up under the scenario's first
            policy (stamped as ``warmup_policy`` on the jobs whose
            measured policy differs) and opts into checkpoint reuse, so
            each (workload, config, warm-up, seed) prefix simulates
            once and every policy forks from the stored boundary state.
            This changes the experiment for the non-lead policies (they
            measure from the lead policy's warm state — which is often
            exactly the controlled comparison wanted), so it is opt-in
            and participates in job identity.
    """

    name: str
    workloads: Tuple[str, ...] = ()
    policies: Tuple[PolicySpec, ...] = ("ICOUNT",)
    config: Optional[SMTConfig] = None
    cycles: int = DEFAULT_CYCLES
    warmup: WarmupSpec = DEFAULT_WARMUP
    seed: int = 1
    reps: int = 1
    interval_cycles: Optional[int] = None
    sweep: Tuple[SweepAxis, ...] = ()
    description: str = ""
    shared_warmup: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "policies",
                           normalize_policies(self.policies))
        object.__setattr__(self, "sweep", tuple(self.sweep))
        if self.cycles < 0:
            raise ValueError("cycles must be >= 0")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.interval_cycles is not None and self.interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        as_warmup_policy(self.warmup)  # validate eagerly

    # -- grid expansion ---------------------------------------------------

    def grid_points(self) -> List[GridPoint]:
        """Expand the sweep axes into the cartesian grid, in order."""
        if not self.sweep:
            return [GridPoint(0, "", (), self)]
        points: List[GridPoint] = []
        for index, combo in enumerate(
                itertools.product(*[axis.points for axis in self.sweep])):
            label = ",".join(
                f"{axis.name}={point.label}"
                for axis, point in zip(self.sweep, combo))
            merged: List[Tuple[str, object]] = []
            seen: Dict[str, str] = {}
            for axis, point in zip(self.sweep, combo):
                for field_name, value in point.set:
                    if field_name in seen:
                        raise ValueError(
                            f"sweep axes {seen[field_name]!r} and "
                            f"{axis.name!r} both set {field_name!r}")
                    seen[field_name] = axis.name
                    merged.append((field_name, value))
            points.append(GridPoint(index, label, tuple(merged),
                                    self._apply(merged)))
        return points

    def _apply(self, overrides: Sequence[Tuple[str, object]]) -> "Scenario":
        """This scenario with one grid point's overrides applied."""
        updates: Dict[str, object] = {}
        config = self.config
        config_changed = False

        def base_config() -> SMTConfig:
            return config if config is not None else SMTConfig()

        for field_name, value in overrides:
            if field_name == "config":
                if isinstance(value, SMTConfig):
                    config = value
                else:  # a field-override mapping (or pairs, from files)
                    config = dataclasses.replace(base_config(),
                                                 **dict(value))
                config_changed = True
            elif field_name == "config.registers":
                config = base_config().with_registers(value)
                config_changed = True
            elif field_name == "config.latencies":
                memory_latency, l2_latency = value
                config = base_config().with_latencies(memory_latency,
                                                      l2_latency)
                config_changed = True
            elif field_name.startswith("config."):
                config = dataclasses.replace(
                    base_config(), **{field_name[len("config."):]: value})
                config_changed = True
            elif field_name == "policies":
                updates["policies"] = normalize_policies(value)
            elif field_name == "workloads":
                updates["workloads"] = tuple(value)
            elif field_name == "warmup":
                updates["warmup"] = normalize_warmup(value)
            elif field_name in _SCALAR_FIELDS:
                updates[field_name] = value
            else:
                raise ValueError(f"unknown sweep field {field_name!r}")
        if config_changed:
            updates["config"] = config
        return dataclasses.replace(self, sweep=(), **updates)

    # -- compilation ------------------------------------------------------

    def compile(self) -> "CompiledScenario":
        """Deterministically expand the spec into the engine's job list.

        Iteration order — grid point, replication, workload selector,
        resolved workload, policy — is part of the spec's contract:
        the same scenario always compiles to the same jobs in the same
        order, on any machine.
        """
        # Engine import deferred: engine builds on runner/results and
        # drivers build on both this module and engine.
        from repro.harness.engine import SimJob, derive_seeds

        points = self.grid_points()
        jobs: List[SimJob] = []
        meta: List[JobMeta] = []
        for point in points:
            concrete = point.scenario
            if not concrete.workloads:
                raise ValueError(
                    f"scenario {self.name!r} has no workloads at grid "
                    f"point {point.label!r}")
            workloads = [workload
                         for selector in concrete.workloads
                         for workload in resolve_workloads(selector)]
            seeds = derive_seeds(concrete.seed, concrete.reps)
            # Shared warm-up: the point's first policy owns the warm-up
            # prefix; the other policies fork from its boundary state.
            # The lead policy itself gets no warmup_policy stamp so its
            # jobs (and stored results) stay identical to a plain run.
            lead = concrete.policies[0]
            lead_token = policy_token(lead)
            for rep, seed in enumerate(seeds):
                for workload in workloads:
                    for policy_index, policy in enumerate(concrete.policies):
                        warmup_policy = None
                        checkpoint = None
                        if concrete.shared_warmup:
                            checkpoint = "auto"
                            if policy_token(policy) != lead_token:
                                warmup_policy = lead
                        jobs.append(SimJob(
                            tuple(workload.benchmarks), policy,
                            concrete.config, concrete.cycles,
                            concrete.warmup, seed, tag=workload.name,
                            interval_cycles=concrete.interval_cycles,
                            warmup_policy=warmup_policy,
                            checkpoint=checkpoint))
                        meta.append(JobMeta(
                            point=point.index, point_label=point.label,
                            rep=rep, seed=seed, workload=workload,
                            policy_index=policy_index,
                            policy_label=policy_token(policy)))
        return CompiledScenario(scenario=self, points=tuple(points),
                                jobs=jobs, meta=meta)


@dataclass(frozen=True)
class JobMeta:
    """Provenance of one compiled job: where it sits in the spec."""

    point: int
    point_label: str
    rep: int
    seed: int
    workload: Workload
    policy_index: int
    policy_label: str


@dataclass
class CompiledScenario:
    """A scenario expanded to jobs, with per-job provenance.

    ``jobs[i]`` and ``meta[i]`` describe the same run; aggregators
    group results through ``meta`` instead of relying on positional
    conventions.
    """

    scenario: Scenario
    points: Tuple[GridPoint, ...]
    jobs: List
    meta: List[JobMeta]

    def tasks(self, campaign, kind: str = "result",
              hmean: bool = False) -> "ScenarioTasks":
        """Add this scenario's work to a
        :class:`~repro.harness.engine.Campaign`.

        Every compiled job becomes a ``kind`` task; with ``hmean``, so
        does the single-thread baseline of every (grid point, benchmark,
        seed) the jobs measure, under that point's config and budgets.
        Returns the task keys, to look the payloads up by.
        """
        from repro.harness.engine import baseline_job

        keys = [campaign.add(kind, job) for job in self.jobs]
        baselines: Dict[Tuple[int, str, int], Tuple[str, str]] = {}
        if hmean:
            for meta in self.meta:
                point = self.points[meta.point].scenario
                for benchmark in meta.workload.benchmarks:
                    pair = (meta.point, benchmark, meta.seed)
                    if pair not in baselines:
                        baselines[pair] = campaign.add("baseline", baseline_job(
                            benchmark, point.config, point.cycles,
                            point.warmup, meta.seed))
        return ScenarioTasks(self, keys, baselines)


@dataclass
class ScenarioTasks:
    """A compiled scenario's share of a campaign: the task key of each
    compiled job, and of each Hmean baseline by (grid point, benchmark,
    seed)."""

    compiled: CompiledScenario
    keys: List[Tuple[str, str]]
    baselines: Dict[Tuple[int, str, int], Tuple[str, str]]

    def needs(self) -> List[Tuple[str, str]]:
        """Every task key this scenario's outcome reads."""
        return self.keys + list(self.baselines.values())

    def outcome(self, payloads) -> "ScenarioRun":
        """The scenario's results and baselines, from a campaign's
        payloads (store counts are the caller's to add)."""
        return ScenarioRun(
            self.compiled, [payloads[key] for key in self.keys],
            singles={pair: payloads[key]
                     for pair, key in self.baselines.items()})


# --------------------------------------------------------------------------
# File formats (JSON and TOML)
# --------------------------------------------------------------------------

def _config_to_dict(config: SMTConfig) -> Dict[str, object]:
    """Only the non-default fields, so files stay readable."""
    default = SMTConfig()
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(SMTConfig)
            if getattr(config, f.name) != getattr(default, f.name)}


def _policy_to_data(policy: PolicySpec):
    if isinstance(policy, str):
        return policy
    name, kwargs = policy
    kwargs = dict(kwargs)
    config = kwargs.get("config")
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        kwargs["config"] = dataclasses.asdict(config)
    return {"name": name, "kwargs": kwargs}


def _warmup_to_data(warmup: WarmupSpec):
    policy = as_warmup_policy(warmup)
    if not policy.is_adaptive:
        return policy.cycles
    data = {"mode": "steady-state", "window": policy.window,
            "rel_tol": policy.rel_tol, "metric": policy.metric,
            "max_warmup": policy.max_warmup}
    if policy.interval_cycles is not None:
        data["interval_cycles"] = policy.interval_cycles
    return data


def _override_to_data(field_name: str, value):
    if field_name == "config" and isinstance(value, SMTConfig):
        return _config_to_dict(value)
    if field_name == "policies":
        return [_policy_to_data(normalize_policy(p)) for p in value]
    if field_name == "warmup":
        return _warmup_to_data(value)
    return list(value) if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> Dict[str, object]:
    """JSON-compatible representation; inverse of
    :func:`scenario_from_dict` (``from_dict(to_dict(s)) == s`` whenever
    the spec uses file-expressible values)."""
    data: Dict[str, object] = {
        "name": scenario.name,
        "workloads": list(scenario.workloads),
        "policies": [_policy_to_data(p) for p in scenario.policies],
        "cycles": scenario.cycles,
        "warmup": _warmup_to_data(scenario.warmup),
        "seed": scenario.seed,
        "reps": scenario.reps,
    }
    if scenario.description:
        data["description"] = scenario.description
    if scenario.config is not None:
        data["config"] = _config_to_dict(scenario.config)
    if scenario.interval_cycles is not None:
        data["interval_cycles"] = scenario.interval_cycles
    if scenario.shared_warmup:
        data["shared_warmup"] = True
    if scenario.sweep:
        data["sweep"] = [
            {"name": axis.name,
             "points": [{"label": point.label,
                         "set": {name: _override_to_data(name, value)
                                 for name, value in point.set}}
                        for point in axis.points]}
            for axis in scenario.sweep
        ]
    return data


def _override_from_data(field_name: str, value):
    if field_name == "policies":
        return tuple(normalize_policy(p) for p in value)
    if field_name == "warmup":
        return normalize_warmup(value)
    if field_name == "config" and isinstance(value, dict):
        return tuple(value.items())
    return _freeze(value)


def _axis_from_data(data: Dict[str, object]) -> SweepAxis:
    name = data["name"]
    if "field" in data:  # single-field shorthand
        return sweep_axis(name, data["field"], data["values"])
    points = []
    for entry in data["points"]:
        overrides = tuple(
            (field_name, _override_from_data(field_name, value))
            for field_name, value in entry["set"].items())
        label = entry.get("label") or ",".join(
            str(value) for _, value in overrides)
        points.append(SweepPoint(label=label, set=overrides))
    return SweepAxis(name, tuple(points))


def scenario_from_dict(data: Dict[str, object]) -> Scenario:
    """Build a :class:`Scenario` from parsed JSON/TOML data."""
    data = dict(data)
    unknown = set(data) - {
        "name", "description", "workloads", "policies", "config",
        "cycles", "warmup", "seed", "reps", "interval_cycles", "sweep",
        "shared_warmup"}
    if unknown:
        raise ValueError(
            f"unknown scenario fields: {', '.join(sorted(unknown))}")
    if "name" not in data:
        raise ValueError("a scenario file needs a 'name'")
    config = data.get("config")
    if isinstance(config, dict):
        config = SMTConfig(**config)
    return Scenario(
        name=data["name"],
        description=data.get("description", ""),
        workloads=tuple(data.get("workloads", ())),
        policies=tuple(normalize_policy(p)
                       for p in data.get("policies", ("ICOUNT",))),
        config=config,
        cycles=data.get("cycles", DEFAULT_CYCLES),
        warmup=normalize_warmup(data.get("warmup", DEFAULT_WARMUP)),
        seed=data.get("seed", 1),
        reps=data.get("reps", 1),
        interval_cycles=data.get("interval_cycles"),
        sweep=tuple(_axis_from_data(axis)
                    for axis in data.get("sweep", ())),
        shared_warmup=bool(data.get("shared_warmup", False)),
    )


def load_scenario(path) -> Scenario:
    """Load a scenario from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".toml":
        import tomllib

        data = tomllib.loads(text)
    elif path.suffix.lower() == ".json":
        data = json.loads(text)
    else:
        raise ValueError(
            f"unsupported scenario format {path.suffix!r} "
            "(expected .json or .toml)")
    try:
        return scenario_from_dict(data)
    except (TypeError, ValueError, KeyError) as error:
        raise ValueError(f"invalid scenario file {path}: {error}") from None


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as JSON (the write-side file format)."""
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2)
        handle.write("\n")


# --------------------------------------------------------------------------
# Running a scenario: one campaign, one execute, a pure report
# --------------------------------------------------------------------------

@dataclass
class ScenarioRun:
    """Outcome of a scenario's campaign: results, baselines, counts.

    ``results[i]`` is the payload of ``compiled.jobs[i]``; ``singles``
    maps (grid point, benchmark, seed) to the Hmean baseline IPC when
    the scenario ran with baselines.  ``store_stats`` and
    ``checkpoint_stats`` are the campaign's counts (see
    :class:`~repro.harness.engine.CampaignRun`).
    """

    compiled: CompiledScenario
    results: List
    store_stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    checkpoint_stats: Optional[Dict[str, int]] = None
    singles: Dict[Tuple[int, str, int], float] = \
        dataclasses.field(default_factory=dict)


def run_scenario(scenario: Scenario, jobs: int = 1, executor=None,
                 reuse="auto", progress=None,
                 store: Optional[ResultStore] = None,
                 checkpoint=None, kind: str = "result",
                 hmean: bool = False) -> ScenarioRun:
    """Compile a scenario to a campaign and execute it.

    ``reuse`` defaults to ``"auto"`` here — incremental re-runs are the
    scenario layer's reason to exist; pass ``"off"`` to force
    recomputation or ``"require"`` to assert a warm store.  ``kind`` is
    the payload each job yields (``"result"``, ``"intervals"`` or
    ``"phase_timeline"``) and ``hmean`` adds the single-thread
    baselines (:meth:`CompiledScenario.tasks`).  ``checkpoint``
    overrides the compiled jobs' warm-up checkpoint mode (None keeps
    what compilation stamped: ``"auto"`` for ``shared_warmup``
    scenarios, off otherwise).  Everything else is
    :func:`~repro.harness.engine.execute`'s.
    """
    from repro.harness.engine import Campaign, execute

    campaign = Campaign()
    tasks = scenario.compile().tasks(campaign, kind, hmean)
    run = execute(campaign, jobs, executor, reuse, checkpoint, progress,
                  store)
    return dataclasses.replace(tasks.outcome(run.payloads),
                               store_stats=run.store_stats,
                               checkpoint_stats=run.checkpoint_stats)


def scenario_report(outcome: ScenarioRun) -> str:
    """Generic table for a scenario run: one row per (grid point,
    workload, policy), mean ±95% CI columns when replicated, and Hmean
    columns when the run carries baselines.

    This is the renderer behind ``repro scenario run`` for custom
    scenario files; the paper artefacts use their own pinned formatters
    (see :mod:`repro.harness.experiments`).
    """
    from repro.metrics.report import ColumnSpec, render_table
    from repro.metrics.stats import ReplicatedResult, safe_hmean

    compiled = outcome.compiled
    show_points = len(compiled.points) > 1
    replicated = any(point.scenario.reps > 1 for point in compiled.points)
    include_hmean = bool(outcome.singles)

    # Group replications: (point, workload, policy) -> result list.
    grouped: Dict[Tuple[int, str, str], List[int]] = {}
    order: List[Tuple[int, str, str]] = []
    for index, meta in enumerate(compiled.meta):
        key = (meta.point, meta.workload.name, meta.policy_label)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(index)

    rows = []
    for key in order:
        point, workload_name, policy_label = key
        indices = grouped[key]
        results = [outcome.results[i] for i in indices]
        throughput = ReplicatedResult.from_values(
            [r.throughput for r in results])
        hmean = None
        if include_hmean:
            hmeans = []
            for i in indices:
                meta = compiled.meta[i]
                base = [outcome.singles[(point, b, meta.seed)]
                        for b in meta.workload.benchmarks]
                hmeans.append(safe_hmean(outcome.results[i].ipcs, base,
                                         workload_name))
            hmean = ReplicatedResult.from_values(hmeans)
        rows.append((compiled.points[point].label, workload_name,
                     results[0].policy, throughput, hmean))

    columns = []
    if show_points:
        columns.append(ColumnSpec("point", lambda r: r[0], align="<"))
    columns.append(ColumnSpec("workload", lambda r: r[1], align="<"))
    columns.append(ColumnSpec("policy", lambda r: r[2], align="<"))
    if replicated:
        columns.append(ColumnSpec(
            "IPC ±95%CI", lambda r: r[3].format(2)))
        if include_hmean:
            columns.append(ColumnSpec(
                "Hmean ±95%CI", lambda r: r[4].format(3)))
    else:
        columns.append(ColumnSpec("IPC", lambda r: f"{r[3].mean:.2f}"))
        if include_hmean:
            columns.append(ColumnSpec(
                "Hmean", lambda r: f"{r[4].mean:.3f}"))
    lines = [render_table(columns, rows)]
    if replicated:
        reps = max(point.scenario.reps for point in compiled.points)
        lines.insert(0, f"{reps} seed replication(s), mean ±95% CI")
    return "\n".join(lines)
