"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout.  The workload runs in a child process
(``workloads.py``) in its own session, with a fresh ``REPRO_CACHE_DIR``
and temporary directory under ``.perfbench/`` in the checkout, so runs
are hermetic and never touch ``~/.cache/repro-dcra``.  This process
samples the peak RSS of the child and its descendants, enforces a time
limit, and stops every process of the session when the child ends, even
on failure.

Every metric is printed with its unit, one per line, then the last line
of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``.  A failed operation or
a workload that raises or hangs yields ``correct: false`` and exit code
1.  Without the simulator's sources (``src/repro``) the benchmark prints
no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("dcra-mix4", "stall-mem2", "campaign-golden", "broker-loop")
#: The child gets this long; the whole run must end within 180 s.
TIME_LIMIT_S = 165.0
EXIT_NO_PROGRAM = 3  # workloads.py: the simulator cannot be imported


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _descendants(pid: int) -> list:
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(children.get(current, ()))
    return found


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class PeakRss:
    """Peak summed RSS of a process tree, sampled every 100 ms."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.is_set():
            total = sum(_rss_bytes(pid) for pid in _descendants(self.pid))
            self.peak = max(self.peak, total)
            self._stop.wait(0.1)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak / 2**20


def _stop_session(process: subprocess.Popen) -> None:
    """Terminate, then kill, every process left in the child's session."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(process.pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            try:
                os.killpg(process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def run_child(args, run_dir: Path) -> dict:
    """Run the workload child; returns its result (or a failure)."""
    result_path = run_dir / "result.json"
    (run_dir / "cache").mkdir()
    (run_dir / "tmp").mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    env["TMPDIR"] = str(run_dir / "tmp")
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    command = [sys.executable, str(HERE / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", str(result_path), "--trace-out", str(trace_out)]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=sys.stderr, start_new_session=True)
    sampler = PeakRss(process.pid)
    try:
        code = process.wait(timeout=TIME_LIMIT_S)
        reason = None if code == 0 else f"workload exited with code {code}"
    except subprocess.TimeoutExpired:
        code = None
        reason = f"workload did not finish within {TIME_LIMIT_S:.0f}s"
    finally:
        peak_mb = sampler.stop()
        _stop_session(process)
        process.wait()
    if code == EXIT_NO_PROGRAM:
        raise SystemExit(2)
    try:
        with open(result_path) as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        result = {"attempted": 1, "failed": 1, "failures": [],
                  "metrics": {}, "notes": {}, "checked": "unchecked"}
    if reason is not None:
        result["failures"].append(reason)
        result["failed"] = min(result["attempted"], result["failed"] + 1)
    result["metrics"]["peak_rss_mb"] = peak_mb
    return result


def report(args, result: dict, benchmark: dict) -> dict:
    """Print every metric with its unit; return the JSON result."""
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics, notes = result["metrics"], result.get("notes", {})
    failures = list(result.get("failures", []))
    out = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in metrics:
            failures.append(f"metric {name} was not measured")
            continue
        out[name] = {"value": metrics[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {metrics[name]:>16.6g} {unit}{note}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failures")
    print(f"checked against: {result.get('checked', 'unchecked')}")
    failed = min(result["attempted"],
                 result["failed"] + (len(failures) - len(result["failures"])))
    return {"correct": failed == 0 and not failures,
            "attempted": result["attempted"], "failed": failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric name with its unit")
    args = parser.parse_args(argv)
    try:
        benchmark = load_benchmark()
    except (OSError, ValueError) as error:
        print(f"cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if args.list:
        for kind in ("end_to_end", "per_layer"):
            for metric in benchmark[kind]:
                print(f"{kind:10s} {metric['name']:32s} {metric['unit']}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        result = run_child(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    line = report(args, result, benchmark)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
