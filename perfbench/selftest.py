"""Tests of the benchmark's own checks.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

Run from the root of a checkout; takes about fifteen seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run_benchmark(*args, cwd=ROOT):
    """The benchmark command as it is run: from the root of a checkout."""
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


class ScriptedClock:
    def __init__(self, times) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self) -> None:
        # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 8].
        tracer = spans.Tracer(ScriptedClock([0, 1, 2, 3, 4, 5, 8, 10]))
        tracer.layer_of.update(a="outer", b="inner", c="inner")
        tracer.enter("a")
        tracer.enter("b")
        tracer.enter("c")
        tracer.exit()
        tracer.exit()
        tracer.enter("b")
        tracer.exit()
        tracer.exit()
        table = tracer.spans()
        self.assertEqual(table["a"], {"calls": 1, "total_s": 10,
                                      "self_s": 4})
        self.assertEqual(table["b"], {"calls": 2, "total_s": 6, "self_s": 5})
        self.assertEqual(table["c"], {"calls": 1, "total_s": 1, "self_s": 1})
        self.assertEqual(tracer.root_seconds(), 10)
        self.assertEqual(tracer.layer_self(), {"outer": 4, "inner": 6})

    def test_threads_keep_separate_stacks(self) -> None:
        import threading

        tracer = spans.Tracer()
        worker = threading.Thread(target=lambda: tracer.span("w", "x")
                                  .__enter__().__exit__())
        with tracer.span("main", "x"):
            worker.start()
            worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        parents = {name: parent for parent, name in tracer.edges()}
        self.assertEqual(parents, {"main": spans.TOP_LEVEL,
                                   "w": spans.TOP_LEVEL})


class HookPointTest(unittest.TestCase):
    def test_missing_point_is_unmeasured_not_a_crash(self) -> None:
        from repro.pipeline.processor import SMTProcessor

        original = vars(SMTProcessor)["step"]
        points = (
            spans.HookPoint("repro.pipeline.processor", "SMTProcessor",
                            "step", "pipeline"),
            spans.HookPoint("repro.pipeline.processor", "SMTProcessor",
                            "_renamed_away", "pipeline.rename"),
            spans.HookPoint("repro.no_such_module", None, "f", "gone"),
        )
        with spans.Installation() as installation:
            spans.trace(spans.Tracer(), points, installation)
            self.assertIsNot(vars(SMTProcessor)["step"], original)
            unmeasured = installation.unmeasured()
        self.assertEqual(set(unmeasured), {"pipeline.rename", "gone"})
        self.assertIs(vars(SMTProcessor)["step"], original)

    def test_restore_leaves_inherited_attributes_inherited(self) -> None:
        from repro.policies.base import Policy
        from repro.policies.basic import IcountPolicy

        self.assertNotIn("begin_cycle", vars(IcountPolicy))
        with spans.Installation() as installation:
            installation.set(IcountPolicy, "begin_cycle", lambda *a: None)
        self.assertNotIn("begin_cycle", vars(IcountPolicy))
        self.assertIs(IcountPolicy.begin_cycle, Policy.begin_cycle)


class FaultInjectionTest(unittest.TestCase):
    def test_dropped_commit_is_a_failed_operation(self) -> None:
        from repro.harness.runner import run_benchmarks

        calls = []

        def drops_one_commit(*args, **kwargs):
            result = run_benchmarks(*args, **kwargs)
            calls.append(kwargs.get("checkpoint"))
            if len(calls) == 1:  # the first cold call
                first = result.threads[0]
                result.threads[0] = dataclasses.replace(
                    first, committed=first.committed - 1)
            return result

        with tempfile.TemporaryDirectory(dir=ROOT) as cache, \
                mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": cache}):
            outcome = workloads.run_stepper(
                "stall-mem2", workloads.DEFAULT_SEED, 0, False,
                run=drops_one_commit)
        self.assertEqual(outcome.checked, "reference")
        self.assertEqual(len(outcome.ops.failures), 1, outcome.ops.failures)
        self.assertIn("cold call 0", outcome.ops.failures[0])
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "result.json")
            workloads.write_result(path, outcome, None)
            with open(path) as handle:
                result = json.load(handle)
        result["metrics"]["peak_rss_mb"] = 1.0
        args = type("Args", (), {"trace": 0})()
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            line = run.report(args, result, run.load_benchmark())
        self.assertIn("FAILED: cold call 0", printed.getvalue())
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)
        self.assertEqual(line["attempted"], outcome.ops.attempted)


class BenchmarkFileTest(unittest.TestCase):
    def test_contract(self) -> None:
        benchmark = run.load_benchmark()
        self.assertEqual(set(benchmark), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        names = [m["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer") for m in benchmark[kind]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual([w["name"] for w in benchmark["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(set(run.WORKLOADS), set(workloads.WORKLOADS))
        for metric in benchmark["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(
            m["bound"] for m in benchmark["end_to_end"]))
        references = workloads.load_references()
        for name in workloads.STEPPERS:
            self.assertEqual(set(references[name]), {
                str(workloads.DEFAULT_SEED), str(workloads.HELD_OUT_SEED)})


class CommandTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self) -> None:
        benchmark = run.load_benchmark()
        listing = _run_benchmark("--list")
        self.assertEqual(listing.returncode, 0, listing.stderr)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = _run_benchmark("--workload", "stall-mem2", "--seed", "1",
                                  "--seconds", "1", "--trace", str(trace))
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            wanted = {m["name"]: m["unit"] for m in benchmark[kind]}
            self.assertEqual({k: v["unit"] for k, v
                              in result["metrics"].items()}, wanted)
            for name, unit in wanted.items():
                self.assertIn(f"{kind:10s} {name:32s} {unit}",
                              listing.stdout)
                self.assertTrue(any(re.match(
                    rf"{re.escape(name)}\s+\S+ {re.escape(unit)}\b", line)
                    for line in lines), f"{name} not printed")
        shares = [v["value"] for k, v in result["metrics"].items()
                  if k.endswith(".self_share") and k.count(".") == 1]
        self.assertAlmostEqual(sum(shares), 1.0, delta=0.02)
        self.assertEqual(
            result["metrics"]["fastpath.skipped_cycle_share"]["value"], 0)

    def test_no_result_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = _run_benchmark("--workload", "dcra-mix4", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
