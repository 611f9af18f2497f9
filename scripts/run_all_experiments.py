#!/usr/bin/env python3
"""Regenerate every paper artefact at full budget and dump raw results.

Writes the output consumed by EXPERIMENTS.md.  The artefact list is the
declarative scenario suite (``repro.harness.experiments.ARTIFACTS`` —
the same registry behind ``repro scenario list``), plus the exact
Table 1; every driver runs through the parallel experiment engine:
``--jobs N`` simulates on N workers and ``--executor`` picks the
backend (local process pool by default, ``remote`` for socket
workers); by the engine's determinism contract each artefact's numbers
are identical for any combination.

With workers available the artefacts *stream*: all drivers share one
executor, their job subsets interleave on the worker fleet, and each
artefact's section is emitted the moment its own jobs finish — not
driver-by-driver — so early artefacts appear while later sweeps are
still simulating.  Section order therefore follows completion, and
every section is labelled.  ``--reps N`` replicates the
policy-comparison sweeps over N derived seeds and adds ±95% CI columns.
Expect a ~1h run serially in pure Python — or pass ``--reuse auto``
(the default) and let the content-addressed result store make repeat
runs incremental: any job already stored (same source fingerprint,
config, budgets, seed) is served instead of simulated, with identical
output.

``--warmup`` overrides every driver's warm-up — a fixed count, or
``auto[:window,tol[,metric,max]]`` for steady-state warm-up resolved
per run from its interval series (each run then picks the warm-up its
workload needs instead of sharing one guessed count).

An artefact that raises fails alone: its section reads ``FAILED:
<type>: <message>`` (traceback on stderr), the other artefacts still
run, the ``done`` section lists the failed labels and the script exits
with status 1.

Run:
    python scripts/run_all_experiments.py [output-file] [--jobs N]
        [--executor {serial,process,remote}] [--reps N]
        [--warmup SPEC] [--reuse {off,auto,require}]
"""

import argparse
import dataclasses
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor, as_completed

from repro.core.sharing import precomputed_table
from repro.harness.experiments import ARTIFACTS
from repro.harness.executors import make_executor
from repro.harness.results import REUSE_MODES, result_store
from repro.harness.warmup import parse_warmup_argument


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Regenerate every table and figure of the paper.")
    parser.add_argument("output", nargs="?", default=None,
                        help="output file (default: stdout)")
    parser.add_argument(
        "--warmup", type=parse_warmup_argument, default=None, metavar="SPEC",
        help="override every driver's warm-up: a cycle count, or "
             "'auto[:window,tol[,metric[,max]]]' for steady-state "
             "warm-up resolved per run (default: per-driver counts)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="workers for the sweeps (default: serial); "
             "results are identical for any N")
    parser.add_argument(
        "--executor", choices=["serial", "process", "remote", "broker"],
        default=None,
        help="execution backend (default: process pool when --jobs > 1; "
             "'broker' submits to the service at $REPRO_BROKER)")
    parser.add_argument(
        "--reps", type=int, default=1, metavar="N",
        help="seed replications for the policy-comparison artefacts; "
             "N > 1 adds ±95%% CI columns")
    parser.add_argument(
        "--interval-cycles", type=int, default=None, metavar="N",
        help="run the Figure 4/5 policy sweep in N-cycle chunks "
             "(identical numbers; enables per-interval progress)")
    parser.add_argument(
        "--reuse", choices=list(REUSE_MODES), default="auto",
        help="result-store mode (default auto: repeat runs serve stored "
             "results and simulate only misses — identical output; "
             "'off' recomputes everything, 'require' asserts a warm "
             "store)")
    return parser.parse_args(argv)


def _table1() -> str:
    return "\n".join(
        f"{index:3d} FA={row[0]} SA={row[1]} Eslow={row[2]}"
        for index, row in enumerate(precomputed_table(32, 4), 1))


def build_artefacts(args, executor):
    """(label, thunk) per artefact; thunks share the one executor."""
    entries = [("Table 1 (exact)", _table1)]
    for artifact in ARTIFACTS:
        def thunk(artifact=artifact):
            # Artefacts without an interval knob ignore the argument
            # (the ArtifactDef.render contract).
            return artifact.render(
                jobs=args.jobs, executor=executor, reps=args.reps,
                reuse=args.reuse, warmup=args.warmup,
                interval_cycles=args.interval_cycles)
        entries.append((artifact.title, thunk))
    return entries


def main(argv=None) -> int:
    args = parse_args(argv)
    out = open(args.output, "w") if args.output else sys.stdout
    emit_lock = threading.Lock()
    t0 = time.time()
    store_before = dataclasses.replace(result_store.stats)
    failed = []

    def emit_section(label, body):
        with emit_lock:
            print(f"\n{'=' * 70}\n{label}  [t+{time.time() - t0:.0f}s]\n"
                  f"{'=' * 70}", file=out, flush=True)
            print(body, file=out, flush=True)

    def emit_outcome(label, outcome):
        """Emit an artefact from a thunk or a resolved future; a raising
        artefact is reported in its section instead of aborting the run."""
        try:
            body = outcome()
        except Exception as error:  # noqa: BLE001 - isolated, reported
            traceback.print_exc()
            failed.append(label)
            body = f"FAILED: {type(error).__name__}: {error}"
        emit_section(label, body)

    parallel = args.jobs > 1 or args.executor is not None
    executor = make_executor(args.executor, args.jobs) if parallel else None
    artefacts = build_artefacts(args, executor)
    try:
        if not parallel:
            for label, thunk in artefacts:
                emit_outcome(label, thunk)
        else:
            # Fork/spawn every backend worker from the main thread,
            # before the driver threads exist — forking later, from a
            # multithreaded process, risks inheriting a lock some other
            # thread held at fork time (deadlock).
            executor.warm_up()
            # One shared backend, one thread per artefact: the artefact
            # job subsets interleave on the worker fleet and each
            # section streams out the moment its own jobs complete.
            with ThreadPoolExecutor(len(artefacts)) as drivers:
                futures = {drivers.submit(thunk): label
                           for label, thunk in artefacts}
                for future in as_completed(futures):
                    emit_outcome(futures[future], future.result)
    finally:
        if executor is not None:
            executor.close()

    stats = result_store.stats
    summary = (f"{len(artefacts)} artefacts  [store reuse={args.reuse}: "
               f"{stats.hits - store_before.hits} result(s) reused, "
               f"{stats.misses - store_before.misses} computed]")
    if failed:
        summary += f"\nFAILED ({len(failed)}): " + "; ".join(failed)
    emit_section("done", summary)
    if out is not sys.stdout:
        out.close()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
