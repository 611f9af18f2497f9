"""Command-line interface: ``python -m repro <command>`` (or ``repro``
once the package is installed — see the console-script entry point).

Commands:

* ``run`` — simulate a benchmark mix under one policy and print the
  per-thread breakdown; ``--reps N`` replicates the run over N derived
  seeds and prints mean ±95% CI columns instead.
* ``compare`` — run several policies on the same mix (or a named
  workload via ``--workload MIX6.g1``) and print a side-by-side table
  with Hmean fairness; ``--reps N`` adds ±95% CI error columns over N
  seed replications.
* ``scenario run FILE|KEY`` — execute a declarative scenario file
  (JSON/TOML, see :mod:`repro.harness.scenario`) or a built-in paper
  artefact by key; ``scenario list`` shows the built-ins.
* ``checkpoint list|rm|gc`` — inspect and prune the warm-up checkpoint
  store (``$REPRO_CACHE_DIR/checkpoints/``); ``scenario run`` grows
  ``--checkpoint {off,auto,require}`` for shared warm-up prefixes
  (see :mod:`repro.harness.checkpoints`).

``run``, ``compare`` and ``scenario run`` each compile their work — a
one-workload scenario for ``run``/``compare``, the file's or the
artefact's scenario otherwise, Hmean baselines included — to one
campaign and call :func:`repro.harness.engine.execute` once; the
printed tables are pure functions of its payloads.
* ``broker serve|status|submit`` — the persistent simulation service
  (:mod:`repro.harness.broker`): ``serve`` runs the broker (one shared
  worker pool, many concurrent clients, durable fair queue, HTTP
  facade), ``status`` prints its live counters, ``submit`` runs a
  single job through it.  Every command above accepts ``--executor
  broker --broker HOST:PORT`` (or ``$REPRO_BROKER``) to run its
  simulations on the service instead of a private fleet.
* ``policies`` / ``benchmarks`` / ``workloads`` — list what is available.

``--reuse {off,auto,require}`` wires the content-addressed result
store (``$REPRO_CACHE_DIR/results/``): ``auto`` serves stored results
and simulates only the misses (output is identical — simulations are
deterministic), ``require`` fails on any miss, proving a warm store.
``scenario run`` defaults to ``auto``; ``run``/``compare`` default to
``off``.  Store traffic is reported on stderr so stdout stays
bitwise-comparable between cold and warm runs.

``--jobs N`` parallelises the simulations and baselines over N workers;
``--executor {serial,process,remote}`` picks where they run (the remote
backend spawns loopback socket workers — the same protocol that
distributes sweeps across machines).  Output is identical for every
``--jobs`` / ``--executor`` combination.

``--interval-cycles N`` switches the simulations to chunked interval
mode: statistics flush every N cycles (identical final tables — the
interval refactor's invariant), ``--progress`` streams one line per
completed interval to stderr, and ``run --timeline`` renders ASCII
IPC/phase timelines (``--timeline-json`` dumps the raw series).
``run --profile-out FILE`` writes a cProfile of the simulation phase.

``--warmup`` takes a fixed cycle count or ``auto[:window,tol]`` for
steady-state warm-up: each run warms up until its IPC series settles
(capped), resolving the length per workload instead of guessing one.
Resolved lengths print to stderr and land in the report tables; an
auto run resolving to N cycles is bitwise-identical to ``--warmup N``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import threading
from typing import Iterator, List, Optional

from repro.harness.engine import ReplicatedRun, SimJob, derive_seeds
from repro.harness.checkpoints import (
    CHECKPOINT_MODES,
    CheckpointMiss,
    checkpoint_store,
)
from repro.harness.executors import Executor, make_executor
from repro.harness.results import (
    REUSE_MODES,
    ResultStoreMiss,
    normalize_reuse,
)
from repro.harness.scenario import (
    Scenario,
    ScenarioRun,
    load_scenario,
    run_scenario,
    scenario_report,
)
from repro.harness.warmup import WarmupPolicy, parse_warmup_argument
from repro.metrics.ascii_chart import timeline_chart
from repro.metrics.report import (
    ReplicatedComparisonRow,
    comparison_table,
    replicated_comparison_table,
    thread_table,
)
from repro.policies.registry import POLICY_NAMES
from repro.trace.profiles import ALL_BENCHMARKS, get_profile
from repro.trace.workloads import all_workloads, find_workload


@contextlib.contextmanager
def _cli_executor(args: argparse.Namespace) -> Iterator[Optional[Executor]]:
    """One backend instance per command invocation (None = plain serial).

    Each command executes one campaign on it (policy runs,
    replications and Hmean baselines alike), so a remote fleet is
    spawned a single time.
    """
    if args.executor is None and args.jobs <= 1:
        yield None
        return
    try:
        executor = make_executor(
            args.executor, args.jobs,
            broker=getattr(args, "broker", None),
            remote_idle_timeout=getattr(args, "remote_idle_timeout", None),
            remote_handshake_timeout=getattr(
                args, "remote_handshake_timeout", None))
    except (ValueError, ConnectionError, OSError) as error:
        raise SystemExit(str(error)) from None
    try:
        yield executor
    finally:
        executor.close()


def _progress_printer(total_jobs: int):
    """(index, event) callback streaming interval progress to stderr.

    Thread-safe: events arrive from executor backend threads.
    """
    lock = threading.Lock()

    def callback(index, event) -> None:
        with lock:
            print(
                f"[job {index + 1}/{total_jobs}] "
                f"interval {event.interval + 1}/{event.n_intervals} "
                f"cycle {event.cycles_done}/{event.total_cycles} "
                f"IPC {event.throughput:.2f}",
                file=sys.stderr, flush=True)

    return callback


def _print_timeline(run, benchmarks: List[str]) -> None:
    """Render the ASCII IPC and phase timelines of an interval run."""
    recorder = run.recorder
    rows = [("total IPC", recorder.throughput_series())]
    rows.extend((name, recorder.ipc_series(tid))
                for tid, name in enumerate(benchmarks))
    print(f"\nIPC per interval ({run.interval_cycles} cycles each):")
    print(timeline_chart(rows))
    timeline = recorder.phase_timeline()
    print("\nSlow-thread phases (fraction of cycles with >= k slow threads):")
    phase_rows = [(f">={k} slow", timeline.slow_fraction_series(k))
                  for k in range(1, timeline.num_threads + 1)]
    print(timeline_chart(phase_rows, shared_scale=True))


def _dump_timeline_json(run, benchmarks: List[str], policy: str,
                        path: str) -> None:
    """Write the interval series as a machine-readable artefact."""
    recorder = run.recorder
    payload = {
        "benchmarks": benchmarks,
        "policy": policy,
        "interval_cycles": run.interval_cycles,
        "warmup_cycles": run.warmup_cycles,
        "warmup_converged": run.warmup_converged,
        "warmup_intervals_discarded": len(recorder.discarded),
        "intervals": [
            {
                "index": snapshot.index,
                "start_cycle": snapshot.start_cycle,
                "cycles": snapshot.cycles,
                "throughput": snapshot.throughput,
                "per_thread_ipc": snapshot.ipcs,
                "phase_counts": list(snapshot.phase_counts or ()),
            }
            for snapshot in recorder.snapshots
        ],
        "phase_distribution_pct":
            list(recorder.phase_timeline().distribution_pct()),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _adaptive_warmup(args: argparse.Namespace) -> bool:
    """Whether ``--warmup`` asked for steady-state resolution."""
    return isinstance(args.warmup, WarmupPolicy) and args.warmup.is_adaptive


@contextlib.contextmanager
def _maybe_profile(path: Optional[str]) -> Iterator[None]:
    """cProfile the wrapped simulation phase into ``path`` (when set).

    The profile covers exactly the simulation work (warm-up + measured
    run + result collection), not argument parsing or table rendering,
    so entries are comparable across CLI invocations.
    """
    if not path:
        yield
        return
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        print(f"[profile] simulation-phase profile written to {path} "
              f"(inspect with: python -m pstats {path})", file=sys.stderr)


def _execute(args: argparse.Namespace, scenario: Scenario, executor,
             progress=None, **options) -> ScenarioRun:
    """Compile and execute one command's scenario: one campaign.

    With ``--reuse`` enabled a store-traffic summary goes to stderr
    (stdout stays bitwise-comparable between cold and warm runs).
    ``options`` are :func:`~repro.harness.scenario.run_scenario`'s
    ``kind``/``hmean``/``checkpoint``.
    """
    outcome = run_scenario(scenario, args.jobs, executor, args.reuse,
                           progress, **options)
    if normalize_reuse(args.reuse) != "off":
        stats = outcome.store_stats
        print(f"[store] {stats['hits']} stored result(s) reused, "
              f"{stats['misses']} computed", file=sys.stderr)
    return outcome


def _mix_scenario(args: argparse.Namespace, benchmarks: List[str],
                  policies) -> Scenario:
    """The one-workload scenario behind ``run`` and ``compare``."""
    mix = "+".join(benchmarks)
    return Scenario(name=mix, workloads=(mix,), policies=tuple(policies),
                    cycles=args.cycles, warmup=args.warmup, seed=args.seed,
                    reps=max(1, args.reps),
                    interval_cycles=args.interval_cycles)


def _note_resolved_warmups(results) -> None:
    """Audit note for ``--warmup auto``: the per-run resolved lengths.

    Printed to stderr so stdout stays bitwise-comparable between a
    fixed run and an auto run that resolves to the same length.
    """
    for result in results:
        print(f"[warmup] {result.policy}: steady-state warm-up resolved "
              f"{result.warmup_cycles} cycles", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    # A single interval-mode run keeps its whole IntervalRun (recorder
    # included), so the timeline views are available — and a warm store
    # rerun renders identical timelines too.
    keep_intervals = bool(args.interval_cycles) and args.reps <= 1
    if (args.timeline or args.timeline_json) and not keep_intervals:
        raise SystemExit(
            "--timeline/--timeline-json need --interval-cycles and a "
            "single replication (--reps 1)")
    scenario = _mix_scenario(args, args.benchmarks, [args.policy])
    progress = _progress_printer(max(1, args.reps)) if args.progress else None
    with _cli_executor(args) as executor, _maybe_profile(args.profile_out):
        outcome = _execute(
            args, scenario, executor, progress,
            kind="intervals" if keep_intervals else "result")
    if keep_intervals:
        run = outcome.results[0]
        if _adaptive_warmup(args):
            settled = ("settled" if run.warmup_converged
                       else "hit the max_warmup cap")
            print(f"[warmup] {run.result.policy}: steady-state warm-up "
                  f"resolved {run.warmup_cycles} cycles ({settled}, "
                  f"{len(run.recorder.discarded)} intervals discarded)",
                  file=sys.stderr)
        print(thread_table(run.result))
        if args.timeline:
            _print_timeline(run, args.benchmarks)
        if args.timeline_json:
            _dump_timeline_json(run, args.benchmarks, args.policy,
                                args.timeline_json)
        return 0
    if _adaptive_warmup(args):
        _note_resolved_warmups(outcome.results)
    if args.reps <= 1:
        print(thread_table(outcome.results[0]))
        return 0
    replicated = ReplicatedRun(outcome.compiled.jobs[0], outcome.results)
    print(f"Workload: {'+'.join(args.benchmarks)}  policy {args.policy}")
    row = ReplicatedComparisonRow(
        policy=replicated.policy,
        throughput=replicated.throughput_stats,
        hmean=None,
        per_thread=replicated.thread_ipc_stats,
    )
    print(replicated_comparison_table([row], args.benchmarks))
    return 0


def _resolve_compare_benchmarks(args: argparse.Namespace) -> List[str]:
    """The compared mix: an explicit ``a+b`` list or a named workload."""
    if args.workload and args.benchmarks:
        raise SystemExit(
            "pass either a benchmark mix or --workload, not both")
    if args.workload:
        try:
            return list(find_workload(args.workload).benchmarks)
        except ValueError as error:
            raise SystemExit(str(error)) from None
    if not args.benchmarks:
        raise SystemExit(
            "pass a benchmark mix (e.g. gzip+twolf) or --workload NAME")
    return args.benchmarks


def _cmd_compare(args: argparse.Namespace) -> int:
    benchmarks = _resolve_compare_benchmarks(args)
    print(f"Workload: {'+'.join(benchmarks)}")
    scenario = _mix_scenario(args, benchmarks, args.policies)
    n_jobs = len(args.policies) * max(1, args.reps)
    progress = _progress_printer(n_jobs) if args.progress else None
    with _cli_executor(args) as executor:
        outcome = _execute(args, scenario, executor, progress, hmean=True)
    if _adaptive_warmup(args):
        _note_resolved_warmups(outcome.results)
    singles_per_rep = [[outcome.singles[(0, b, seed)] for b in benchmarks]
                       for seed in derive_seeds(args.seed, args.reps)]
    if args.reps <= 1:
        print(comparison_table(outcome.results,
                               single_ipcs=singles_per_rep[0]))
        return 0

    rows: List[ReplicatedComparisonRow] = []
    for index in range(len(args.policies)):
        replicated = ReplicatedRun(
            outcome.compiled.jobs[index],
            [result for meta, result in zip(outcome.compiled.meta,
                                            outcome.results)
             if meta.policy_index == index])
        rows.append(ReplicatedComparisonRow(
            policy=replicated.policy,
            throughput=replicated.throughput_stats,
            hmean=replicated.hmean_stats(singles_per_rep),
            per_thread=replicated.thread_ipc_stats,
        ))
    print(replicated_comparison_table(rows, benchmarks))
    return 0


def _cmd_scenario_list(_args: argparse.Namespace) -> int:
    """List the built-in paper-artefact scenarios."""
    from repro.harness.experiments import ARTIFACTS

    print(f"{'key':8s} {'scenario':34s} title")
    for artifact in ARTIFACTS:
        print(f"{artifact.key:8s} {artifact.scenario().name:34s} "
              f"{artifact.title}")
    print("\nAny JSON/TOML scenario file also runs: "
          "repro scenario run FILE (see README, examples/)")
    return 0


def _scenario_overrides(args: argparse.Namespace) -> dict:
    """CLI overrides applied on top of a loaded scenario file."""
    overrides = {}
    if args.cycles is not None:
        overrides["cycles"] = args.cycles
    if args.warmup is not None:
        overrides["warmup"] = args.warmup
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.reps is not None:
        overrides["reps"] = args.reps
    return overrides


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    """Run a scenario file, or a built-in artefact by key."""
    from repro.harness.experiments import ARTIFACTS, find_artifact

    overrides = _scenario_overrides(args)
    if (os.path.exists(args.target)
            or args.target.endswith((".json", ".toml"))):
        try:
            scenario = dataclasses.replace(load_scenario(args.target),
                                           **overrides)
        except (OSError, ValueError) as error:
            raise SystemExit(str(error)) from None
        title, render = None, scenario_report
        kind, hmean = "result", not args.no_hmean
    else:
        try:
            artifact = find_artifact(args.target)
        except ValueError as error:
            keys = ", ".join(a.key for a in ARTIFACTS)
            raise SystemExit(
                f"{error}\n(pass a scenario file path, or one of: "
                f"{keys})") from None
        if args.no_hmean:
            raise SystemExit(
                "--no-hmean applies to scenario files only: the built-in "
                f"artefact {artifact.key!r} renders its own columns")
        scenario = artifact.build(**overrides)
        title, render = artifact.title, artifact.render
        kind, hmean = artifact.kind, artifact.hmean
    with _cli_executor(args) as executor:
        outcome = _execute(args, scenario, executor, kind=kind,
                           hmean=hmean, checkpoint=args.checkpoint)
    stats = dict(outcome.store_stats)
    if outcome.checkpoint_stats is not None:
        ckpt = stats["checkpoint"] = outcome.checkpoint_stats
        print(f"[checkpoint] {ckpt['prefixes']} shared warm-up "
              f"prefix(es) covering {ckpt['jobs']} job(s): "
              f"{ckpt['hits']} reused, {ckpt['computed']} computed",
              file=sys.stderr)
    if title is None:
        print(f"# scenario {scenario.name} "
              f"({len(outcome.compiled.jobs)} jobs, "
              f"{len(outcome.compiled.points)} grid point(s))")
        if scenario.description:
            print(f"# {scenario.description}")
    else:
        print(f"# {title}")
    print(render(outcome))
    if args.store_stats:
        with open(args.store_stats, "w") as handle:
            json.dump({"target": args.target,
                       "reuse": normalize_reuse(args.reuse), **stats},
                      handle, indent=2)
            handle.write("\n")
    return 0


def _cmd_checkpoint_list(_args: argparse.Namespace) -> int:
    """List the stored warm-up checkpoints, newest first."""
    count = total = stale = 0
    # One entry at a time: a listing never holds every decoded state.
    for entry in checkpoint_store.list_entries():
        if not count:
            print(f"{'key':14s} {'fresh':5s} {'size':>8s} {'warm-up':>8s} "
                  f"prefix")
        count += 1
        total += entry["size"]
        stale += not entry["current"]
        warmup = entry["data"]["warmup_cycles"]
        print(f"{entry['key'][:12] + '..':14s} "
              f"{'yes' if entry['current'] else 'no':5s} "
              f"{entry['size'] / 1024:7.1f}k "
              f"{warmup if warmup is not None else '?':>8} "
              f"{entry['token']}")
    if not count:
        print(f"no checkpoints under {checkpoint_store.directory()}")
        return 0
    print(f"\n{count} checkpoint(s), {total / 1024:.1f} kB total"
          + (f"; {stale} stale (other source fingerprint — "
             f"'repro checkpoint gc' reclaims them)" if stale else ""))
    return 0


def _cmd_checkpoint_rm(args: argparse.Namespace) -> int:
    """Delete stored checkpoints by key prefix."""
    removed = checkpoint_store.remove(args.key_prefix)
    print(f"removed {removed} checkpoint(s) matching {args.key_prefix!r}")
    return 0


def _cmd_checkpoint_gc(args: argparse.Namespace) -> int:
    """Expire old checkpoints and enforce a total-size cap."""
    max_bytes = (int(args.max_total_mb * 1024 * 1024)
                 if args.max_total_mb is not None else None)
    if args.max_age_days is None and max_bytes is None:
        raise SystemExit(
            "pass --max-age-days and/or --max-total-mb to bound the store")
    removed, freed = checkpoint_store.gc(max_age_days=args.max_age_days,
                                         max_total_bytes=max_bytes)
    print(f"removed {removed} checkpoint(s), freed {freed / 1024:.1f} kB")
    return 0


def _cmd_broker_serve(args: argparse.Namespace) -> int:
    """Run the persistent simulation broker until SIGINT/SIGTERM."""
    import signal

    from repro.harness.broker import Broker

    try:
        broker = Broker(
            host=args.host, port=args.port, http_port=args.http_port,
            spawn_workers=args.spawn_workers, max_queue=args.max_queue,
            max_attempts=args.max_attempts,
            handshake_timeout=args.handshake_timeout,
            spool_dir=args.spool, durable=not args.no_spool,
            verbose=True)
        broker.start()
    except (ValueError, OSError) as error:
        raise SystemExit(f"broker failed to start: {error}") from None
    host, port = broker.address
    # The machine-parseable line scripts wait for before connecting.
    print(f"[broker] listening on {host}:{port}", flush=True)
    if broker.http_address:
        print(f"[broker] HTTP facade on "
              f"http://{broker.http_address[0]}:{broker.http_address[1]}",
              flush=True)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    print("[broker] shutting down", file=sys.stderr, flush=True)
    broker.stop()
    return 0


def _resolve_broker_address(args: argparse.Namespace) -> str:
    address = args.broker or os.environ.get("REPRO_BROKER")
    if not address:
        raise SystemExit(
            "no broker address: pass --broker HOST:PORT or set "
            "$REPRO_BROKER (start one with 'repro broker serve')")
    return address


def _cmd_broker_status(args: argparse.Namespace) -> int:
    """Print a running broker's live counters as JSON."""
    from repro.harness.broker import BrokerClient
    from repro.harness.remote_worker import HandshakeError

    try:
        with BrokerClient(_resolve_broker_address(args)) as client:
            status = client.status()
    except (ValueError, HandshakeError, ConnectionError, OSError) as error:
        raise SystemExit(f"broker status failed: {error}") from None
    print(json.dumps(status, indent=2))
    return 0


def _cmd_broker_submit(args: argparse.Namespace) -> int:
    """Submit one job to a running broker and wait for its result."""
    import queue as queue_module

    from repro.harness.broker import BrokerClient
    from repro.harness.remote_worker import HandshakeError

    job = SimJob(tuple(args.benchmarks), args.policy, None, args.cycles,
                 args.warmup, args.seed)
    try:
        client = BrokerClient(_resolve_broker_address(args),
                              timeout=args.timeout)
    except (ValueError, HandshakeError, ConnectionError, OSError) as error:
        raise SystemExit(f"broker connection failed: {error}") from None
    with client:
        route = client.open_route("cli-submit")
        client.submit("cli-submit", "job", job=job, priority=args.priority)
        while True:
            try:
                message = route.get(timeout=client.timeout)
            except queue_module.Empty:
                raise SystemExit(
                    f"no result within {client.timeout:.0f}s (is a worker "
                    "connected to the broker?)") from None
            kind = message[0]
            if kind == "progress":
                continue
            if kind == "rejected":
                raise SystemExit(f"broker rejected the job: {message[2]}")
            if kind == "connection-lost":
                raise SystemExit(f"broker connection lost: {message[2]}")
            _, _, ok, value, source = message
            break
    if not ok:
        raise SystemExit(f"job failed on the broker: {value}")
    print(thread_table(value))
    print(f"[broker] result served from the {source}"
          + (" (no simulation ran)" if source == "store" else ""),
          file=sys.stderr)
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    for name in POLICY_NAMES:
        print(name)
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'suite':6s} {'class':5s} {'L2 miss% (paper)':>17s}")
    for name in sorted(ALL_BENCHMARKS):
        profile = get_profile(name)
        print(f"{name:10s} {profile.suite:6s} {profile.mem_class:5s} "
              f"{profile.l2_missrate_pct:17.2f}")
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    for workload in all_workloads(extended=True):
        print(workload.name)
    return 0


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def _positive_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds, got {value!r}") from None
    if number <= 0:
        raise argparse.ArgumentTypeError(
            "must be a positive number of seconds")
    return number


def _benchmark_list(value: str) -> List[str]:
    names = [part.strip() for part in value.split("+") if part.strip()]
    for name in names:
        try:
            get_profile(name)
        except KeyError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SMT/DCRA simulator (Cazorla et al., MICRO-37 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one policy")
    run_parser.add_argument("benchmarks", type=_benchmark_list,
                            help="benchmark mix, e.g. gzip+twolf")
    run_parser.add_argument("--policy", default="DCRA",
                            choices=list(POLICY_NAMES))
    run_parser.add_argument(
        "--timeline", action="store_true",
        help="after the result table, print ASCII IPC and phase "
             "timelines (requires --interval-cycles, single rep)")
    run_parser.add_argument(
        "--timeline-json", metavar="PATH", default=None,
        help="write the per-interval series (IPC, phase counts) as JSON "
             "(requires --interval-cycles, single rep)")
    run_parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="cProfile the simulation phase (warm-up + measured run) "
             "and write the stats file to PATH")
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare", help="compare policies")
    compare_parser.add_argument("benchmarks", nargs="?", default=None,
                                type=_benchmark_list)
    compare_parser.add_argument(
        "--workload", metavar="NAME", default=None,
        help="compare on a named workload instead of an explicit mix, "
             "e.g. MEM2.g1 or the extended MIX6.g1 / MEM6.g1 cells")
    compare_parser.add_argument("--policies", nargs="+",
                                default=["ICOUNT", "FLUSH++", "SRA", "DCRA"],
                                choices=list(POLICY_NAMES))
    compare_parser.set_defaults(func=_cmd_compare)

    scenario_parser = sub.add_parser(
        "scenario",
        help="run declarative scenario specs (files or built-ins)")
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command",
                                                  required=True)
    scenario_sub.add_parser(
        "list", help="list the built-in paper-artefact scenarios",
    ).set_defaults(func=_cmd_scenario_list)
    scenario_run = scenario_sub.add_parser(
        "run", help="run a scenario file (JSON/TOML) or built-in key")
    scenario_run.add_argument(
        "target",
        help="path to a scenario file, or a built-in artefact key "
             "(see 'repro scenario list')")
    scenario_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="workers for the simulations and baselines "
             "(default: serial); results are identical for any N")
    scenario_run.add_argument(
        "--executor", choices=["serial", "process", "remote", "broker"],
        default=None,
        help="execution backend (default: process pool when --jobs > 1; "
             "'broker' submits to a running 'repro broker serve')")
    scenario_run.add_argument(
        "--reuse", choices=list(REUSE_MODES), default="auto",
        help="result-store mode (default auto: serve stored results, "
             "simulate only misses; 'require' fails on a cold store)")
    scenario_run.add_argument(
        "--cycles", type=int, default=None,
        help="override the scenario's measured cycles")
    scenario_run.add_argument(
        "--warmup", type=parse_warmup_argument, default=None,
        metavar="SPEC", help="override the scenario's warm-up spec")
    scenario_run.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's base seed")
    scenario_run.add_argument(
        "--reps", type=int, default=None, metavar="N",
        help="override the scenario's seed replications")
    scenario_run.add_argument(
        "--no-hmean", action="store_true",
        help="skip single-thread baselines (throughput columns only; "
             "file scenarios)")
    scenario_run.add_argument(
        "--store-stats", metavar="PATH", default=None,
        help="write this run's store hit/miss counters as JSON "
             "(including the shared warm-up prefix stats when active)")
    scenario_run.add_argument(
        "--checkpoint", choices=list(CHECKPOINT_MODES), default=None,
        help="warm-up checkpoint mode: override what the scenario "
             "compiled ('auto' for shared_warmup specs); 'require' fails "
             "on a cold checkpoint store (default: keep the compiled mode)")
    scenario_run.set_defaults(func=_cmd_scenario_run)

    checkpoint_parser = sub.add_parser(
        "checkpoint",
        help="inspect and prune the warm-up checkpoint store")
    checkpoint_sub = checkpoint_parser.add_subparsers(
        dest="checkpoint_command", required=True)
    checkpoint_sub.add_parser(
        "list",
        help="list stored warm-up checkpoints (key, freshness, size, "
             "prefix)",
    ).set_defaults(func=_cmd_checkpoint_list)
    checkpoint_rm = checkpoint_sub.add_parser(
        "rm", help="delete checkpoints whose key starts with a prefix")
    checkpoint_rm.add_argument(
        "key_prefix",
        help="key prefix to delete (keys from 'repro checkpoint list')")
    checkpoint_rm.set_defaults(func=_cmd_checkpoint_rm)
    checkpoint_gc = checkpoint_sub.add_parser(
        "gc", help="expire old checkpoints / enforce a total-size cap")
    checkpoint_gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="delete checkpoints older than DAYS")
    checkpoint_gc.add_argument(
        "--max-total-mb", type=float, default=None, metavar="MB",
        help="then delete oldest checkpoints until the store fits in MB")
    checkpoint_gc.set_defaults(func=_cmd_checkpoint_gc)

    broker_parser = sub.add_parser(
        "broker",
        help="persistent simulation service (serve / status / submit)")
    broker_sub = broker_parser.add_subparsers(dest="broker_command",
                                              required=True)
    broker_serve = broker_sub.add_parser(
        "serve", help="run the broker: one shared worker pool serving "
                      "many concurrent clients")
    broker_serve.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    broker_serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="listening port (default: pick a free one; the bound "
             "address is printed)")
    broker_serve.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help="also serve the JSON HTTP facade (/submit, /status/<job>, "
             "/result/<job>) on this port (0 picks a free one)")
    broker_serve.add_argument(
        "--spawn-workers", type=int, default=0, metavar="N",
        help="start N loopback worker processes against the broker's "
             "own address; more workers can connect at any time with "
             "'python -m repro.harness.remote_worker --connect'")
    broker_serve.add_argument(
        "--max-queue", type=_positive_int, default=10_000, metavar="N",
        help="bound on queued submissions — past it the broker rejects "
             "with a clear error instead of buffering unboundedly "
             "(default: 10000)")
    broker_serve.add_argument(
        "--max-attempts", type=_positive_int, default=3, metavar="N",
        help="dispatch attempts per job before a dead-worker failure is "
             "reported to the client (default: 3)")
    broker_serve.add_argument(
        "--handshake-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="handshake budget for connecting workers/clients "
             "(default: $REPRO_REMOTE_HANDSHAKE_TIMEOUT or 10)")
    broker_serve.add_argument(
        "--spool", metavar="DIR", default=None,
        help="directory for the durable job queue (default: "
             "$REPRO_CACHE_DIR/broker-spool); unfinished entries are "
             "re-queued when the broker restarts")
    broker_serve.add_argument(
        "--no-spool", action="store_true",
        help="disable the durable queue (jobs in flight are lost on a "
             "broker crash)")
    broker_serve.set_defaults(func=_cmd_broker_serve)
    broker_status = broker_sub.add_parser(
        "status", help="print a running broker's counters as JSON")
    broker_status.set_defaults(func=_cmd_broker_status)
    broker_submit = broker_sub.add_parser(
        "submit", help="run one job through a broker and print the "
                       "per-thread table")
    broker_submit.add_argument("benchmarks", type=_benchmark_list,
                               help="benchmark mix, e.g. gzip+twolf")
    broker_submit.add_argument("--policy", default="DCRA",
                               choices=list(POLICY_NAMES))
    broker_submit.add_argument("--cycles", type=int, default=15_000)
    broker_submit.add_argument("--warmup", type=parse_warmup_argument,
                               default=3_000, metavar="SPEC")
    broker_submit.add_argument("--seed", type=int, default=1)
    broker_submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher runs first; default 0)")
    broker_submit.add_argument(
        "--timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="seconds to wait for the result (default: "
             "$REPRO_BROKER_TIMEOUT or 600)")
    broker_submit.set_defaults(func=_cmd_broker_submit)
    for broker_cmd in (broker_status, broker_submit):
        broker_cmd.add_argument(
            "--broker", metavar="HOST:PORT", default=None,
            help="broker address (default: $REPRO_BROKER)")

    sub.add_parser("policies", help="list policies").set_defaults(
        func=_cmd_policies)
    sub.add_parser("benchmarks", help="list benchmarks").set_defaults(
        func=_cmd_benchmarks)
    sub.add_parser(
        "workloads",
        help="list workloads (Table 4 plus extended cells)",
    ).set_defaults(func=_cmd_workloads)

    for sub_parser in (run_parser, compare_parser):
        sub_parser.add_argument("--cycles", type=int, default=15_000)
        sub_parser.add_argument(
            "--warmup", type=parse_warmup_argument, default=3_000,
            metavar="SPEC",
            help="warm-up cycles before measuring: a count, or "
                 "'auto[:window,tol[,metric[,max]]]' for steady-state "
                 "warm-up resolved per run from the interval series "
                 "(e.g. auto:6,0.02; resolved lengths print to stderr)")
        sub_parser.add_argument("--seed", type=int, default=1)
        sub_parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="workers for the simulations and baselines "
                 "(default: serial); results are identical for any N")
        sub_parser.add_argument(
            "--executor", choices=["serial", "process", "remote", "broker"],
            default=None,
            help="execution backend (default: process pool when --jobs > 1;"
                 " 'remote' distributes over socket workers, 'broker' "
                 "submits to a running 'repro broker serve')")
        sub_parser.add_argument(
            "--reps", type=int, default=1, metavar="N",
            help="seed replications per run (derive_seed fan-out); with "
                 "N > 1 every metric is reported as mean ±95%% CI")
        sub_parser.add_argument(
            "--interval-cycles", type=_positive_int, default=None,
            metavar="N",
            help="simulate in N-cycle chunks with per-interval stat "
                 "snapshots; the final tables are identical to a "
                 "monolithic run")
        sub_parser.add_argument(
            "--progress", action="store_true",
            help="stream one line per completed interval to stderr "
                 "(with --interval-cycles)")
        sub_parser.add_argument(
            "--reuse", choices=list(REUSE_MODES), default="off",
            help="result-store mode: 'auto' serves stored results and "
                 "simulates only misses (identical output), 'require' "
                 "fails on any miss (default: off)")
    for sub_parser in (run_parser, compare_parser, scenario_run):
        sub_parser.add_argument(
            "--broker", metavar="HOST:PORT", default=None,
            help="address of a running 'repro broker serve' for "
                 "--executor broker (default: $REPRO_BROKER)")
        sub_parser.add_argument(
            "--remote-idle-timeout", type=_positive_float, default=None,
            metavar="SECONDS",
            help="seconds without any fleet/broker progress before the "
                 "remote and broker backends fail the sweep (default: "
                 "$REPRO_REMOTE_IDLE_TIMEOUT or 600)")
        sub_parser.add_argument(
            "--remote-handshake-timeout", type=_positive_float,
            default=None, metavar="SECONDS",
            help="seconds a connecting worker/client gets to complete "
                 "the protocol handshake (default: "
                 "$REPRO_REMOTE_HANDSHAKE_TIMEOUT or 10)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ResultStoreMiss, CheckpointMiss) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
