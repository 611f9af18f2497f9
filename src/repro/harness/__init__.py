"""Experiment harness.

:mod:`repro.harness.runner` runs workloads under policies and computes
the paper's metrics, with single-thread Hmean baselines memoised in a
disk-backed, process-safe cache (:class:`~repro.harness.runner.BaselineCache`,
``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dcra``).

:mod:`repro.harness.engine` is the parallel experiment engine:
declarative :class:`~repro.harness.engine.SimJob` specs executed over a
pluggable backend (:func:`~repro.harness.engine.run_jobs`, streaming via
:func:`~repro.harness.engine.run_jobs_streaming`), deterministic for any
worker count on any backend, with seed-replication statistics through
:func:`~repro.harness.engine.run_replicated`.

:mod:`repro.harness.executors` provides the backends: in-process
(:class:`~repro.harness.executors.SerialExecutor`), local process pool
(:class:`~repro.harness.executors.ProcessExecutor`), socket-based
remote workers (:class:`~repro.harness.executors.RemoteExecutor`, worker
side in :mod:`repro.harness.remote_worker`), and clients of a
persistent broker service
(:class:`~repro.harness.executors.BrokerExecutor`).

:mod:`repro.harness.broker` is that service
(:class:`~repro.harness.broker.Broker`, ``repro broker serve``): a
long-lived asyncio process multiplexing one dynamic worker pool across
many concurrent clients, with a durable fair job queue, broker-side
result-store serving, and a stdlib HTTP facade.

:mod:`repro.harness.scenario` makes whole experiments declarative:
frozen :class:`~repro.harness.scenario.Scenario` specs (workloads,
policies, config, budgets, sweep grids) loadable from Python, JSON or
TOML and compiled deterministically to the engine's job list
(``repro scenario run FILE``).

:mod:`repro.harness.results` is the content-addressed
:class:`~repro.harness.results.ResultStore` under
``$REPRO_CACHE_DIR/results/``: every engine surface takes
``reuse="auto"|"off"|"require"`` to serve stored simulation results
instead of recomputing them, with identical output.

:mod:`repro.harness.experiments` regenerates every table and figure of
the paper's evaluation section; each driver compiles from a scenario
spec and takes ``jobs`` / ``executor`` / ``reuse`` parameters (also
reachable as ``--jobs`` / ``--executor`` / ``--reuse`` on
``python -m repro`` and ``scripts/run_all_experiments.py``).
"""

import importlib

#: The names this package re-exports, by the module that defines them.
#: They resolve on first attribute access (PEP 562): importing one
#: harness module, such as the runner a simulation needs or the remote
#: worker, then leaves the engine, executor, broker and scenario layers
#: (and asyncio, ssl and http with them) unimported.
_MODULE_EXPORTS = {
    "engine": (
        "ReplicatedRun", "SimJob", "derive_seed", "derive_seeds",
        "ensure_baselines", "ensure_baselines_sweep", "executor_scope",
        "map_jobs_stored", "parallel_map", "parallel_map_streaming",
        "replicate_job", "run_job", "run_jobs", "run_jobs_streaming",
        "run_replicated",
    ),
    "results": (
        "REUSE_MODES", "ResultStore", "ResultStoreMiss", "cache_key",
        "job_token", "policy_token", "result_store", "source_fingerprint",
    ),
    "scenario": (
        "CompiledScenario", "Scenario", "ScenarioRun", "SweepAxis",
        "SweepPoint", "load_scenario", "run_scenario", "save_scenario",
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
