#!/usr/bin/env python
"""CI perf gate: fail on simulator-speed regressions vs the committed
baseline, print the wins.

Usage::

    python scripts/perf_gate.py BENCH_speed.json BENCH_speed_new.json \
        [--max-regression-pct 25]

Compares every throughput-like entry (``cycles_per_sec``,
``instructions_per_sec``, ``ops_per_sec``, the broker's
``jobs_per_sec``) of a fresh benchmark run against the committed
``BENCH_speed.json``.  Absolute cycles/s numbers are
machine-dependent, so before comparing, each fresh throughput value is
divided by the *calibration ratio* — the fresh machine's pure-Python
``python-calibration`` ops/s over the baseline machine's — which
cancels interpreter/hardware speed differences and leaves only the
effect of code changes.

Exit status: 0 when no metric regressed more than the threshold,
1 otherwise (each offender is listed).  Metrics that improved are
printed as wins so the gate's output doubles as the PR's perf summary.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Per-entry numeric fields gated as machine-dependent throughput
#: (normalised by the calibration ratio; higher is better).
THROUGHPUT_KEYS = ("cycles_per_sec", "instructions_per_sec",
                   "ops_per_sec", "jobs_per_sec")

CALIBRATION_ENTRY = "python-calibration"


def _configurations(payload: dict) -> dict:
    try:
        return payload["configurations"]
    except (TypeError, KeyError):
        raise SystemExit("malformed benchmark payload: no 'configurations'")


def calibration_ratio(baseline: dict, fresh: dict) -> float:
    """fresh-machine Python speed over baseline-machine Python speed."""
    try:
        base = baseline[CALIBRATION_ENTRY]["ops_per_sec"]
        new = fresh[CALIBRATION_ENTRY]["ops_per_sec"]
    except KeyError:
        print(f"[perf-gate] no '{CALIBRATION_ENTRY}' entry on both sides; "
              "comparing raw values (same-machine assumption)")
        return 1.0
    if not base or not new:
        return 1.0
    ratio = new / base
    print(f"[perf-gate] machine calibration: fresh runs Python "
          f"{ratio:.2f}x the baseline machine's speed")
    return ratio


def compare(baseline: dict, fresh: dict, max_regression_pct: float) -> int:
    base_configs = _configurations(baseline)
    fresh_configs = _configurations(fresh)
    ratio = calibration_ratio(base_configs, fresh_configs)
    floor = 1.0 - max_regression_pct / 100.0

    failures = []
    wins = []
    checked = 0
    for name, base_entry in sorted(base_configs.items()):
        if name == CALIBRATION_ENTRY:
            continue
        fresh_entry = fresh_configs.get(name)
        if fresh_entry is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        for key in THROUGHPUT_KEYS:
            base_value = base_entry.get(key)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            fresh_value = fresh_entry.get(key)
            if not isinstance(fresh_value, (int, float)):
                failures.append(f"{name}.{key}: missing from the fresh run")
                continue
            normalised = fresh_value / ratio
            checked += 1
            change = normalised / base_value - 1.0
            line = (f"{name}.{key}: {base_value:,.1f} -> "
                    f"{normalised:,.1f} ({change:+.1%})")
            if normalised < base_value * floor:
                failures.append(line)
            elif change > 0.0:
                wins.append(line)

    for win in wins:
        print(f"[perf-gate] WIN  {win}")
    for failure in failures:
        print(f"[perf-gate] FAIL {failure}", file=sys.stderr)
    print(f"[perf-gate] {checked} metric(s) checked, {len(wins)} win(s), "
          f"{len(failures)} failure(s) "
          f"(threshold: {max_regression_pct:.0f}% regression)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_speed.json")
    parser.add_argument("fresh", help="this run's BENCH_speed.json")
    parser.add_argument("--max-regression-pct", type=float, default=25.0,
                        help="fail when any gated metric drops more than "
                             "this (default 25)")
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    return compare(baseline, fresh, args.max_regression_pct)


if __name__ == "__main__":
    sys.exit(main())
