#!/usr/bin/env python3
"""Regenerate every paper artefact at full budget and dump raw results.

Writes the output consumed by EXPERIMENTS.md.  The artefact list is the
declarative scenario suite (``repro.harness.experiments.ARTIFACTS`` —
the same registry behind ``repro scenario list``), plus the exact
Table 1.  Every artefact compiles its jobs into one shared campaign: a
deduplicated task list in which a job two artefacts share (Figure 6 at
352 registers, Figure 7 at a 300-cycle memory latency and Section 5.2
all run the Table 2 machine) simulates once, and the Hmean baselines
ride along as ordinary tasks.  The campaign runs through one
:func:`~repro.harness.engine.execute` call on one executor, then the
sections render in suite order.  ``--jobs N`` simulates on N workers
and ``--executor`` picks the backend (local process pool by default,
``remote`` for socket workers); by the engine's determinism contract
each artefact's numbers are identical for any combination.
``--reps N`` replicates the policy-comparison sweeps over N derived
seeds and adds ±95% CI columns.  Expect a ~1h run serially in pure
Python — or pass ``--reuse auto`` (the default) and let the
content-addressed result store make repeat runs incremental: any job
already stored (same source fingerprint, config, budgets, seed) is
served instead of simulated, with identical output.

``--warmup`` overrides every artefact's warm-up — a fixed count, or
``auto[:window,tol[,metric,max]]`` for steady-state warm-up resolved
per run from its interval series (each run then picks the warm-up its
workload needs instead of sharing one guessed count).

A section whose compile or render step raises fails alone: it reads
``FAILED: <type>: <message>`` (traceback on stderr) and the other
sections still render.  A task that raises stops the campaign: the
sections whose tasks had all completed still render, the others fail
with that error.  The ``done`` section lists the failed labels and the
script exits with status 1.

Run:
    python scripts/run_all_experiments.py [output-file] [--jobs N]
        [--executor {serial,process,remote}] [--reps N]
        [--warmup SPEC] [--reuse {off,auto,require}]
"""

import argparse
import sys
import time
import traceback

from repro.core.sharing import precomputed_table
from repro.harness.engine import Campaign, CampaignRun, execute
from repro.harness.experiments import ARTIFACTS
from repro.harness.results import REUSE_MODES
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
             "(identical numbers)")
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


def build_sections(args):
    """(label, compile) per section, in suite order.

    ``compile(campaign)`` adds the section's tasks to the shared
    campaign and returns ``(keys, render)``: the task keys the section
    needs, and the function rendering its text from the payloads.
    """
    sections = [("Table 1 (exact)",
                 lambda campaign: ((), lambda payloads: _table1()))]
    for artifact in ARTIFACTS:
        def compile_section(campaign, artifact=artifact):
            # Artefacts ignore the overrides outside their knobs.
            scenario = artifact.build(warmup=args.warmup, reps=args.reps,
                                      interval_cycles=args.interval_cycles)
            tasks = scenario.compile().tasks(campaign, artifact.kind,
                                             artifact.hmean)
            return tasks.needs(), \
                lambda payloads: artifact.render(tasks.outcome(payloads))
        sections.append((artifact.title, compile_section))
    return sections


def _failure(error: BaseException) -> str:
    return f"FAILED: {type(error).__name__}: {error}"


def main(argv=None) -> int:
    args = parse_args(argv)
    out = open(args.output, "w") if args.output else sys.stdout
    t0 = time.time()
    failed = []

    def emit_section(label, body):
        print(f"\n{'=' * 70}\n{label}  [t+{time.time() - t0:.0f}s]\n"
              f"{'=' * 70}", file=out, flush=True)
        print(body, file=out, flush=True)

    campaign = Campaign()
    sections = []
    for label, compile_section in build_sections(args):
        try:
            sections.append((label, *compile_section(campaign), None))
        except Exception as error:  # noqa: BLE001 - isolated, reported
            traceback.print_exc()
            sections.append((label, (), None, _failure(error)))

    run = CampaignRun()
    campaign_failure = None
    try:
        execute(campaign, args.jobs, args.executor, args.reuse, run=run)
    except Exception as error:  # noqa: BLE001 - isolated, reported
        traceback.print_exc()
        campaign_failure = _failure(error)

    for label, keys, render, failure in sections:
        if failure is None and not all(key in run.payloads for key in keys):
            failure = campaign_failure
        if failure is None:
            try:
                body = render(run.payloads)
            except Exception as error:  # noqa: BLE001 - isolated, reported
                traceback.print_exc()
                failure = _failure(error)
        if failure is not None:
            failed.append(label)
            body = failure
        emit_section(label, body)

    stats = run.store_stats
    summary = (f"{len(sections)} artefacts  [store reuse={args.reuse}: "
               f"{stats['hits']} result(s) reused, "
               f"{stats['misses']} computed]")
    if failed:
        summary += f"\nFAILED ({len(failed)}): " + "; ".join(failed)
    emit_section("done", summary)
    if out is not sys.stdout:
        out.close()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
