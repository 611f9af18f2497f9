"""Experiment harness.

:mod:`repro.harness.runner` runs workloads under policies and computes
the paper's metrics, with single-thread Hmean baselines memoised by
:class:`~repro.harness.runner.BaselineCache`.

:mod:`repro.harness.engine` is the experiment engine: every entry
point compiles its work — declarative
:class:`~repro.harness.engine.SimJob` specs and the Hmean baselines —
to one deduplicated :class:`~repro.harness.engine.Campaign`, and
:func:`~repro.harness.engine.execute`, the only code that talks to the
stores, the executor and progress, runs it over a pluggable backend,
deterministic for any worker count on any backend
(:func:`~repro.harness.engine.run_jobs` and
:func:`~repro.harness.engine.run_replicated`, with seed-replication
statistics, are one-campaign shorthands).

:mod:`repro.harness.executors` provides the backends: in-process
(:class:`~repro.harness.executors.SerialExecutor`), local process pool
(:class:`~repro.harness.executors.ProcessExecutor`), clients of a
persistent broker service
(:class:`~repro.harness.executors.BrokerExecutor`), and socket-based
remote workers behind a private broker
(:class:`~repro.harness.executors.RemoteExecutor`; worker side in
:mod:`repro.harness.remote_worker`).

:mod:`repro.harness.broker` is the one socket server
(:class:`~repro.harness.broker.Broker`): an asyncio event loop
multiplexing one dynamic worker pool across many concurrent clients,
with a fair job queue, dead-worker requeue and progress routing.  As
the long-lived ``repro broker serve`` it adds a durable queue,
broker-side result-store serving and a stdlib HTTP facade.

:mod:`repro.harness.scenario` makes whole experiments declarative:
frozen :class:`~repro.harness.scenario.Scenario` specs (workloads,
policies, config, budgets, sweep grids) loadable from Python, JSON or
TOML and compiled deterministically to campaign tasks
(``repro scenario run FILE|KEY``).

:mod:`repro.harness.results` holds the one content-addressed store
core (:class:`~repro.harness.results.ContentStore`: key, entry format,
atomic writes, memory layer, counters, miss diagnostics) under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-dcra``).  Its kinds are
the result store (:class:`~repro.harness.results.ResultStore`,
``results/``: every engine surface takes ``reuse="auto"|"off"|"require"``
to serve stored simulation results instead of recomputing them, with
identical output), the warm-up checkpoints
(:class:`~repro.harness.checkpoints.CheckpointStore`, ``checkpoints/``)
and the baselines (``baselines/``).

:mod:`repro.harness.experiments` regenerates every table and figure of
the paper's evaluation section; each artefact is a scenario spec, a
pure aggregate step and a formatter, and each driver takes ``jobs`` /
``executor`` / ``reuse`` parameters (also reachable as ``--jobs`` /
``--executor`` / ``--reuse`` on ``python -m repro`` and
``scripts/run_all_experiments.py``, which compiles every artefact into
one campaign).
"""

import importlib

#: The names this package re-exports, by the module that defines them.
#: They resolve on first attribute access (PEP 562): importing one
#: harness module, such as the runner a simulation needs or the remote
#: worker, then leaves the engine, executor, broker and scenario layers
#: (and asyncio, ssl and http with them) unimported.
_MODULE_EXPORTS = {
    "engine": (
        "Campaign", "CampaignRun", "ReplicatedRun", "SimJob", "baseline_job",
        "derive_seed", "derive_seeds", "execute", "replicate_job",
        "run_job", "run_jobs", "run_replicated",
    ),
    "results": (
        "REUSE_MODES", "ResultStore", "ResultStoreMiss", "cache_key",
        "job_token", "policy_token", "result_store", "source_fingerprint",
    ),
    "scenario": (
        "CompiledScenario", "Scenario", "ScenarioRun", "ScenarioTasks",
        "SweepAxis", "SweepPoint", "load_scenario", "run_scenario",
        "save_scenario",
        "scenario_from_dict", "scenario_report", "scenario_to_dict",
        "sweep_axis", "sweep_point",
    ),
    "progress": (
        "IntervalProgress", "emit_progress", "progress_sink",
        "set_progress_sink",
    ),
    "executors": (
        "EXECUTOR_NAMES", "BrokerExecutor", "Executor", "ProcessExecutor",
        "RemoteExecutor", "SerialExecutor", "make_executor",
    ),
    "broker": (
        "Broker", "BrokerClient", "BrokerRejection", "FairQueue",
    ),
    "runner": (
        "BaselineCache", "DEFAULT_INTERVAL_CYCLES", "IntervalRun",
        "PolicyEvaluation", "baseline_cache", "clear_baseline_cache",
        "evaluate_workload", "run_benchmarks", "run_benchmarks_intervals",
        "run_workload", "run_workload_intervals", "single_thread_ipc",
    ),
    "warmup": (
        "WarmupPolicy", "WarmupSpec", "as_warmup_policy",
        "parse_warmup_argument", "parse_warmup_spec", "warmup_cache_token",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a re-exported name's module on first access (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    """Loaded attributes plus every lazily resolved export."""
    return sorted(set(globals()) | set(_EXPORTS))
