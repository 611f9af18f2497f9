"""The benchmark's four workloads, one per child process of ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result FILE [--trace-out FILE]
    python3 perfbench/workloads.py --record-references

The workloads drive only stable public entry points of ``repro``:
``run_benchmarks``, the ``experiments`` drivers and ``format_*``
functions, ``make_executor``, and ``Broker``/``BrokerClient``.  With
``--trace 0`` a workload reports the end-to-end metrics; with
``--trace 1`` it runs once untraced (the overhead baseline and the
reference digest) and once with the span wrappers of :mod:`spans`
installed, and reports the per-layer metrics.  No end-to-end number
comes from a traced run.

Every checked result is one operation; a mismatch, exception,
rejection or timeout counts it as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

#: The seed whose campaign output must equal ``tests/golden``, and the
#: held-out seed also checked against recorded references.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

clock = time.perf_counter


# -- operations and checks ----------------------------------------------------

class Op:
    """One checked operation; :meth:`fail` marks it failed once."""

    def __init__(self, ops: "Ops", label: str) -> None:
        self.ops = ops
        self.label = label
        self.failed = False

    def fail(self, reason: str) -> None:
        if not self.failed:
            self.failed = True
            with self.ops.lock:
                self.ops.failures.append(f"{self.label}: {reason}")


class Ops:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.lock = threading.Lock()

    @contextlib.contextmanager
    def op(self, label: str):
        """One operation; an exception inside fails it and is swallowed."""
        with self.lock:
            self.attempted += 1
        op = Op(self, label)
        try:
            yield op
        except Exception as error:  # noqa: BLE001 - counted, not raised
            traceback.print_exc()
            op.fail(f"{type(error).__name__}: {error}")


def digest(result) -> str:
    """SHA-256 of every simulated statistic of a SimulationResult."""
    data = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def load_references() -> dict:
    try:
        with open(REFERENCES) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tree_bytes(path: Path) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(directory, name))
            except OSError:
                pass
    return total


@dataclasses.dataclass
class Outcome:
    """What a workload reports back to ``run.py``."""

    ops: Ops
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: per-layer metric -> why it reads 0 (not exercised or unmeasured)
    notes: Dict[str, str] = dataclasses.field(default_factory=dict)
    checked: str = "reference"
    trace: Optional[dict] = None


# -- stepper workloads --------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StepperSpec:
    benchmarks: tuple
    policy: str


STEPPERS = {
    # The paper's headline configuration: DCRA is excluded from
    # quiescence fast-forward and its hooks do a quarter of the work,
    # so DCRA hot-path changes show here and almost nowhere else.
    "dcra-mix4": StepperSpec(("gzip", "twolf", "bzip2", "mcf"), "DCRA"),
    # A memory-bound pair under a quiesce-safe policy: mostly idle
    # cycles and light policy hooks, where a faster stepping loop shows
    # and DCRA-only changes should not.
    "stall-mem2": StepperSpec(("mcf", "twolf"), "STALL"),
}

#: Every call simulates a fresh instruction stream, so a run averages
#: over a hundred or more streams and the seed barely moves the medians.
#: Medians are taken over rounds of calls, which keeps host-speed bursts
#: of a few seconds out of them.
ROUND_CALLS = 8
WARMUP_CYCLES = 1_000
COLD_CYCLES = 4_000
#: Calls per run are capped so that the references cover every call.
MAX_CALLS = {"dcra-mix4": 160, "stall-mem2": 400}
#: Every second cold call is followed by a warm call on a fresh stream:
#: an untimed call stores the stream's warm-up checkpoint, then the timed
#: one restores it instead of simulating the warm-up.
WARM_EVERY = 2
WARM_CYCLES = 200
SETUP_PROBES = 5

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from repro.harness import runner
from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.registry import make_policy
from repro.trace.profiles import get_profile
SMTProcessor(SMTConfig(), [get_profile(b) for b in sys.argv[2].split(",")],
             make_policy(sys.argv[1]), seed=int(sys.argv[3]))
print(time.perf_counter() - start)
"""


def job_seed(seed: int, kind: str, index: int) -> int:
    """The seed of a stepper call: distinct per run seed, kind and call."""
    return seed * 100_000 + (50_000 if kind == "warm" else 0) + index


def stepper_setup_s(spec: StepperSpec, seed: int) -> float:
    """Median of fresh-interpreter import + construction times."""
    samples = []
    for index in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, spec.policy,
             ",".join(spec.benchmarks), str(job_seed(seed, "cold", index))],
            check=True, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


class Constructions:
    """Times and keeps every SMTProcessor built while installed.

    Construction is excluded from ``cycles_per_s``; the traced run reads
    modelled counters off the processor a call measured on.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.built: list = []
        self._installation = spans.Installation()

    def __enter__(self) -> "Constructions":
        from repro.pipeline.processor import SMTProcessor

        original = SMTProcessor.__init__
        record = self

        def timed_init(processor, *args, **kwargs):
            start = clock()
            original(processor, *args, **kwargs)
            record.seconds += clock() - start
            record.built.append(processor)

        self._installation.set(SMTProcessor, "__init__", timed_init)
        return self

    def reset(self) -> None:
        self.seconds = 0.0
        self.built = []

    def __exit__(self, *exc_info) -> None:
        self._installation.restore()


def short_digest(result) -> str:
    return digest(result)[:16]


def _check_digest(op: Op, value: str, seen: dict, key, refs) -> None:
    """Same digest as earlier calls of this job, and as the reference."""
    kind, index = key
    if seen.setdefault(key, value) != value:
        op.fail(f"result differs from an earlier run of the same job "
                f"({value} vs {seen[key]})")
    elif refs is not None and index < len(refs[kind]) and \
            refs[kind][index] != value:
        op.fail(f"result differs from the reference recorded for this "
                f"seed ({value} vs {refs[kind][index]})")


def run_stepper(name: str, seed: int, seconds: float, trace: bool,
                run: Optional[Callable] = None) -> Outcome:
    """Rounds of ``run_benchmarks`` calls, each on a fresh stream.

    ``run`` substitutes the entry point (tests inject faults through it).
    """
    from repro.harness import runner
    from repro.harness.checkpoints import resolve_checkpoint_store

    run = run or runner.run_benchmarks
    spec = STEPPERS[name]
    refs = load_references().get(name, {}).get(str(seed))
    outcome = Outcome(Ops(), checked="reference" if refs else "unchecked")
    seen: Dict[tuple, str] = {}
    benchmarks = list(spec.benchmarks)

    def call(kind: str, index: int, built: Optional[Constructions] = None,
             label: str = "", around=contextlib.nullcontext, **options):
        cycles = COLD_CYCLES if kind == "cold" else WARM_CYCLES
        with outcome.ops.op(f"{label}{kind} call {index}") as op:
            if built is not None:
                built.reset()
            with around():
                start = clock()
                result = run(benchmarks, spec.policy, cycles=cycles,
                             warmup=WARMUP_CYCLES,
                             seed=job_seed(seed, kind, index), **options)
                elapsed = clock() - start
            _check_digest(op, short_digest(result), seen, (kind, index),
                          refs)
            return elapsed, built.seconds if built else 0.0, result
        return None

    if trace:
        return _trace_stepper(outcome, call)

    outcome.metrics["setup_s"] = stepper_setup_s(spec, seed)
    checkpoints = resolve_checkpoint_store(None)
    rounds, cold_ms, warm_ms = [], [], []
    calls = 0
    with Constructions() as built:
        start = clock()
        while calls < MAX_CALLS[name] and \
                (not rounds or clock() - start < seconds):
            wall = compute = 0.0
            for _ in range(ROUND_CALLS):
                timing = call("cold", calls, built)
                if timing is not None:
                    wall += timing[0]
                    compute += timing[0] - timing[1]
                    cold_ms.append(1e3 * timing[0])
                if calls % WARM_EVERY == 0:
                    index = calls // WARM_EVERY
                    call("warm", index, label="checkpoint fill: ",
                         checkpoint="auto")
                    # Restore from disk, as a later process would, and keep
                    # stored checkpoints from piling up in memory.
                    checkpoints.clear()
                    timing = call("warm", index, checkpoint="require")
                    if timing is not None:
                        warm_ms.append(1e3 * timing[0])
                calls += 1
            rounds.append((wall, compute))
    if not cold_ms or not warm_ms:
        return outcome
    cycles = ROUND_CALLS * (COLD_CYCLES + WARMUP_CYCLES)
    outcome.metrics.update(
        cycles_per_s=median(cycles / c for _w, c in rounds if c > 0),
        wall_s=median(w for w, _c in rounds),
        cold_p50_ms=median(cold_ms),
        cold_p90_ms=percentile(cold_ms, 90),
        warm_p50_ms=median(warm_ms),
        jobs_per_s=median(ROUND_CALLS / w for w, _c in rounds if w > 0),
    )
    return outcome


_STEPPER_SHARE_LAYERS = ("runner", "pipeline", "pipeline.fetch",
                         "pipeline.rename", "pipeline.issue",
                         "pipeline.commit", "pipeline.writeback", "fastpath",
                         "policies", "trace", "mem", "branch")


def _trace_stepper(outcome: Outcome, call) -> Outcome:
    """One untraced round, then the same round traced."""
    untraced = []
    with Constructions() as built:
        for index in range(ROUND_CALLS):
            untraced.append(call("cold", index, built, "untraced "))

    tracer = spans.Tracer()
    fast = {"hits": 0, "skipped": 0}

    def observe_probe(args, result) -> None:
        cycle = args[1] if len(args) > 1 else None
        if cycle is not None and result and result[0] > cycle:
            fast["hits"] += 1
            fast["skipped"] += result[0] - cycle

    traced, processors = [], []
    with spans.Installation() as installation, Constructions() as built:
        spans.trace(tracer, spans.STEPPER_POINTS, installation,
                      {"repro.pipeline.fastpath.quiescence_horizon":
                       observe_probe})
        spans.trace(tracer, spans.policy_points(), installation)
        for index in range(ROUND_CALLS):
            timing = call("cold", index, built, "traced ", lambda: tracer.span(
                "runner.run_benchmarks", "runner"))
            traced.append(timing)
            processors.append(built.built[-1] if built.built else None)
        unmeasured = installation.unmeasured()

    metrics, notes = outcome.metrics, outcome.notes
    done = [(u, t) for u, t in zip(untraced, traced) if u and t]
    untraced_s = sum(u[0] for u, _t in done)
    if done:
        metrics["trace_overhead"] = sum(t[0] for _u, t in done) / untraced_s
    sim_s = sum(u[0] - u[1] for u, _t in done)
    metrics["runner.sim_s"] = sim_s
    metrics["runner.sim_share"] = sim_s / untraced_s if untraced_s else 0.0
    metrics["executors.idle_share"] = 1.0 - metrics["runner.sim_share"]

    root = tracer.root_seconds()
    self_s = tracer.layer_self()
    shares = {layer: self_s.get(layer, 0.0) / root if root else 0.0
              for layer in _STEPPER_SHARE_LAYERS}
    for layer, share in shares.items():
        metrics[f"{layer}.self_share"] = share
    # The pipeline's share includes its stages' (which subdivide it).
    metrics["pipeline.self_share"] = sum(
        share for layer, share in shares.items()
        if layer.split(".")[0] == "pipeline")

    calls = {name: row["calls"] for name, row in tracer.spans().items()}

    def calls_of(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    simulated = len(done) * (COLD_CYCLES + WARMUP_CYCLES)
    probes = calls_of("repro.pipeline.fastpath.quiescence_horizon")
    metrics.update({
        "fastpath.probes": probes,
        "fastpath.probe_hit_ratio": fast["hits"] / probes if probes else 0.0,
        "fastpath.skipped_cycle_share":
            fast["skipped"] / simulated if simulated else 0.0,
        "policies.hook_calls": sum(
            row["calls"] for name, row in tracer.spans().items()
            if tracer.layer_of.get(name) == "policies"),
        "mem.accesses": calls_of("MemoryHierarchy.access_load",
                                 "MemoryHierarchy.access_store",
                                 "MemoryHierarchy.access_ifetch"),
        "branch.predictions": calls_of("BranchUnit.predict_and_train"),
    })
    results = [t[2] for _u, t in done]
    metrics["sim.committed"] = sum(r.total_committed for r in results)
    metrics["sim.cycles"] = sum(r.cycles for r in results)
    metrics["sim.ipc"] = (metrics["sim.committed"] / metrics["sim.cycles"]
                          if metrics["sim.cycles"] else 0.0)
    metrics["mem.mlp"] = (sum(r.avg_l2_overlap for r in results)
                          / len(results) if results else 0.0)

    # Modelled counters of the measured window, read off the processors.
    def modelled(name: str, read: Callable) -> None:
        try:
            metrics[name] = sum(read(p) for p in processors if p is not None)
        except (AttributeError, KeyError, TypeError) as error:
            notes[name] = f"unmeasured: {type(error).__name__}: {error}"

    modelled("mem.l1d_misses", lambda p: sum(
        s.l1d_misses for s in p.hierarchy.thread_stats.values()))
    modelled("mem.l2_misses", lambda p: sum(
        s.l2_data_misses for s in p.hierarchy.thread_stats.values()))
    modelled("branch.mispredicts", lambda p: sum(
        t.stats.mispredicts for t in p.threads))
    modelled("policies.stall_cycles", lambda p: sum(
        t.stats.policy_stall_cycles for t in p.threads))
    modelled("trace.ops_generated", lambda p: sum(
        len(t.trace) for t in p.threads))
    if "trace.ops_generated" in metrics:
        metrics["trace.ops_generated"] += calls_of(
            "TraceBuffer.wrong_path_op")

    _mark_unmeasured(outcome, unmeasured)
    outcome.trace = tracer.dump()
    _fill_not_exercised(outcome)
    return outcome


#: Per-layer metrics fed by each traced layer, for reporting a layer
#: whose hook points are all missing.
_LAYER_METRICS = {
    "pipeline": ("pipeline.self_share",),
    "fastpath": ("fastpath.self_share", "fastpath.probes",
                 "fastpath.probe_hit_ratio", "fastpath.skipped_cycle_share"),
    "policies": ("policies.self_share", "policies.hook_calls"),
    "trace": ("trace.self_share",),
    "mem": ("mem.self_share", "mem.accesses"),
    "branch": ("branch.self_share", "branch.predictions"),
    "results": ("results.puts", "results.hits", "results.misses",
                "results.put_s", "results.get_s"),
    "checkpoints": ("checkpoints.computed", "checkpoints.hits",
                    "checkpoints.put_s"),
    "baselines": ("baselines.computed",),
    "scenario": ("scenario.compile_s",),
    "runner": ("runner.sim_s", "runner.sim_share", "executors.idle_share"),
}


def _mark_unmeasured(outcome: Outcome, unmeasured: Dict[str, str]) -> None:
    for layer, reason in unmeasured.items():
        names = _LAYER_METRICS.get(layer, (f"{layer}.self_share",))
        for name in names:
            outcome.notes[name] = f"unmeasured: {reason}"
        outcome.metrics["unmeasured_layers"] = \
            outcome.metrics.get("unmeasured_layers", 0) + 1


#: Modelled quantities of the simulated machine: they repeat exactly for
#: a seed, so a claim may rest on them as counts, unlike the timings.
EXACT = ("sim.committed", "sim.ipc", "sim.cycles", "mem.l1d_misses",
         "mem.l2_misses", "mem.mlp", "branch.mispredicts",
         "policies.stall_cycles", "fastpath.skipped_cycle_share")


def _fill_not_exercised(outcome: Outcome) -> None:
    """Every per-layer metric the workload did not measure reads 0; the
    exact modelled counters are marked as such and written out apart."""
    outcome.metrics.setdefault("unmeasured_layers", 0)
    for name in per_layer_names():
        if name not in outcome.metrics:
            outcome.metrics[name] = 0
            outcome.notes.setdefault(name, "not exercised")
    for name in EXACT:
        outcome.notes.setdefault(name, "exact: repeats for a seed")
    if outcome.trace is None:
        outcome.trace = {}
    outcome.trace["exact"] = {name: outcome.metrics[name] for name in EXACT}


def per_layer_names() -> List[str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


# -- campaign-golden ----------------------------------------------------------

#: The ``tests/golden`` budgets (tests/golden/regen_golden.py), frozen
#: here so the benchmark's work cannot drift with the test suite:
#: (key, driver, formatter, formatter argument, driver parameters).
GOLDEN = (
    ("fig2", "figure2_resource_sensitivity", "format_figure2", None,
     dict(cycles=2_000, warmup=400, fractions=(0.5, 1.0),
          resources=("int_iq",), seed=7)),
    ("table3", "table3_miss_rates", "format_table3", None,
     dict(cycles=2_500, warmup=500,
          benchmarks=("art", "gzip", "mcf", "twolf"), seed=3)),
    ("table5", "table5_phase_distribution", "format_table5", None,
     dict(cycles=4_000, warmup=1_000, seed=5, interval_cycles=1_000)),
    ("fig4", "figure4_dcra_vs_static", "format_improvements", None,
     dict(cells=((2, "MIX"),), cycles=3_000, warmup=500, seed=1)),
    ("fig5", "figure5_policy_comparison", "format_cell_results", None,
     dict(cells=((2, "ILP"),), cycles=3_000, warmup=500, seed=1)),
    ("fig6", "figure6_register_sweep", "format_sweep", "registers",
     dict(register_sizes=(320, 352), cells=((2, "MIX"),),
          cycles=2_500, warmup=500, seed=1)),
    ("fig7", "figure7_latency_sweep", "format_sweep", "latency",
     dict(latencies=((100, 10), (300, 20)), cells=((2, "MIX"),),
          cycles=2_500, warmup=500, seed=1)),
    ("text52", "text52_frontend_and_mlp", "format_text52", None,
     dict(cells=((2, "MIX"),), cycles=2_500, warmup=500, seed=1)),
)
WORKERS = 2
COLD_PASSES = 3
WARM_PASSES = 2
SETUP_SPAWNS = 6


def _golden_text(key: str) -> Optional[str]:
    path = ROOT / "tests" / "golden" / f"{key}.txt"
    try:
        return path.read_text()
    except OSError:
        return None


def _spawn_pool():
    """A started two-worker process pool and its spawn time."""
    from repro.harness.executors import make_executor

    start = clock()
    executor = make_executor("process", WORKERS)
    try:
        executor.map(abs, [0, 1])
    except BaseException:
        executor.close()
        raise
    return executor, clock() - start


def _clear_memory_caches() -> None:
    """Drop in-memory store layers so the next pass reads from disk."""
    from repro.harness.checkpoints import resolve_checkpoint_store
    from repro.harness.results import resolve_store
    from repro.harness.runner import clear_baseline_cache

    resolve_store(None).clear()
    resolve_checkpoint_store(None).clear()
    clear_baseline_cache()


def _artefacts(ops: Ops, executor, reuse: str, seed_offset: int,
               label: str, render_span=None):
    """Run the eight drivers; returns per-artefact (text, seconds)."""
    from repro.harness import experiments

    outputs = {}
    for key, driver, formatter, argument, params in GOLDEN:
        params = dict(params, seed=params["seed"] + seed_offset)
        with ops.op(f"{label} {key}"):
            start = clock()
            rows = getattr(experiments, driver)(
                **params, executor=executor, reuse=reuse)
            extra = () if argument is None else (argument,)
            with render_span(key) if render_span else contextlib.nullcontext():
                text = getattr(experiments, formatter)(rows, *extra) + "\n"
            outputs[key] = (text, clock() - start)
    return outputs


def _campaign_pass(ops: Ops, seed: int, cache: Path, warm_passes: int,
                   tracer: Optional[spans.Tracer] = None):
    """A timed cold pass on a fresh store, then warm passes from disk."""
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    _clear_memory_caches()
    executor, spawn_s = _spawn_pool()
    render_span = None
    if tracer is not None:
        def render_span(key):
            return tracer.span(f"experiments.render.{key}", "experiments")
    try:
        cold = _artefacts(ops, executor, "auto", seed - DEFAULT_SEED, "cold",
                          render_span)
        cold_wall = sum(seconds for _text, seconds in cold.values())
        store_bytes = tree_bytes(cache)
        warm_walls, warm = [], []
        for index in range(warm_passes):
            _clear_memory_caches()
            start = clock()
            outputs = _artefacts(ops, executor, "require",
                                 seed - DEFAULT_SEED, f"warm{index}")
            warm_walls.append(clock() - start)
            warm.append(outputs)
    finally:
        executor.close()
    return dict(spawn_s=spawn_s, cold=cold, cold_wall=cold_wall,
                warm=warm, warm_walls=warm_walls, store_bytes=store_bytes)


def _check_campaign(ops: Ops, seed: int, cold: dict, warm: List[dict],
                    refs: Optional[dict]) -> str:
    """Golden (default seed) or reference check of the cold output, and
    warm == cold on every seed.  Returns how the cold output was checked.
    """
    checked = "unchecked"
    if seed == DEFAULT_SEED:
        checked = "reference"
        for key, (text, _s) in cold.items():
            with ops.op(f"golden {key}") as op:
                if text != _golden_text(key):
                    op.fail(f"output differs from tests/golden/{key}.txt")
    elif refs is not None:
        checked = "reference"
        for key, (text, _s) in cold.items():
            with ops.op(f"reference {key}") as op:
                if hashlib.sha256(text.encode()).hexdigest() != refs[key]:
                    op.fail("output differs from the recorded reference")
    for index, outputs in enumerate(warm):
        for key, (text, _s) in outputs.items():
            with ops.op(f"warm{index} == cold {key}") as op:
                if key not in cold or text != cold[key][0]:
                    op.fail("warm output differs from the cold output")
    return checked


def run_campaign(seed: int, seconds: float, trace: bool) -> Outcome:
    """The eight golden artefacts, cold on a fresh store, then warm.

    Each cold pass gets its own store and pool; per-artefact medians over
    :data:`COLD_PASSES` passes keep a host-speed burst during one pass
    out of the result.
    """
    outcome = Outcome(Ops())
    refs = load_references().get("campaign-golden", {})
    expected = refs.get("outputs", {}).get(str(seed))
    cache_root = Path(os.environ["REPRO_CACHE_DIR"])
    if trace:
        return _trace_campaign(outcome, seed, cache_root, expected)

    spawns = [_spawn_once() for _ in range(SETUP_SPAWNS)]
    passes = []
    for index in range(COLD_PASSES):
        done = _campaign_pass(outcome.ops, seed, cache_root / f"cold{index}",
                              WARM_PASSES)
        outcome.checked = _check_campaign(outcome.ops, seed, done["cold"],
                                          done["warm"], expected)
        spawns.append(done["spawn_s"])
        passes.append(done)
    cold_ms = [1e3 * median(p["cold"][key][1] for p in passes
                            if key in p["cold"])
               for key, *_rest in GOLDEN
               if any(key in p["cold"] for p in passes)]
    warm_ms = [1e3 * s for p in passes for s in p["warm_walls"]]
    if not cold_ms or not warm_ms:
        return outcome
    wall = median(p["cold_wall"] for p in passes)
    outcome.metrics.update(
        setup_s=median(spawns),
        wall_s=wall,
        cycles_per_s=refs["simulated_cycles"] / wall,
        jobs_per_s=refs["simulated_jobs"] / wall,
        cold_p50_ms=median(cold_ms),
        cold_p90_ms=percentile(cold_ms, 90),
        warm_p50_ms=median(warm_ms),
    )
    return outcome


def _spawn_once() -> float:
    executor, spawn_s = _spawn_pool()
    executor.close()
    return spawn_s


def _trace_campaign(outcome: Outcome, seed: int, cache_root: Path,
                    expected: Optional[dict]) -> Outcome:
    """An untraced pass (the overhead baseline), then a traced one."""
    from repro.harness.runner import run_benchmarks

    # Pay the process's one-time lazy set-up, which forked workers
    # inherit, before either pass, so the two compare like with like.
    run_benchmarks(["gzip"], "ICOUNT", cycles=10, warmup=0)
    untraced = _campaign_pass(outcome.ops, seed, cache_root / "cold0",
                              WARM_PASSES)
    outcome.checked = _check_campaign(outcome.ops, seed, untraced["cold"],
                                      untraced["warm"], expected)
    tracer = spans.Tracer()
    span_dir = cache_root / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    log = spans.ProcessSpanLog(str(span_dir))
    stored = {"committed": 0, "cycles": 0}

    def observe_put(args, _result) -> None:
        value = args[2] if len(args) > 2 else None
        if hasattr(value, "total_committed") and hasattr(value, "cycles"):
            stored["committed"] += value.total_committed
            stored["cycles"] += value.cycles

    hits = {"results": 0, "checkpoints": 0}

    def observe_get(kind):
        def observe(_args, result) -> None:
            if result is not None:
                hits[kind] += 1
        return observe

    with spans.Installation() as installation:
        spans.trace(tracer, spans.HARNESS_POINTS, installation, {
            "ResultStore.put": observe_put,
            "ResultStore.get": observe_get("results"),
            "CheckpointStore.get": observe_get("checkpoints")})
        log.install(spans.SIM_POINTS, installation)
        with tracer.span("campaign.pass", "campaign"):
            traced = _campaign_pass(outcome.ops, seed, cache_root / "cold1",
                                    1, tracer)
        unmeasured = installation.unmeasured()
    for key, (text, _s) in traced["cold"].items():
        with outcome.ops.op(f"traced == untraced {key}") as op:
            if key not in untraced["cold"] or \
                    text != untraced["cold"][key][0]:
                op.fail("traced output differs from the untraced output")

    metrics = outcome.metrics
    table = tracer.spans()

    def span_total(name: str) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    def span_calls(name: str) -> int:
        return table.get(name, {}).get("calls", 0)

    wall = traced["cold_wall"]
    records = log.read()
    sim_s = sum(r["end"] - r["start"] for r in records)
    metrics.update({
        "trace_overhead": wall / untraced["cold_wall"],
        "runner.sim_s": sim_s,
        "runner.sim_share": sim_s / (wall * WORKERS),
        "executors.idle_share": 1.0 - sim_s / (wall * WORKERS),
        "results.puts": span_calls("ResultStore.put"),
        "results.hits": hits["results"],
        "results.misses": span_calls("ResultStore.get") - hits["results"],
        "results.put_s": span_total("ResultStore.put"),
        "results.get_s": span_total("ResultStore.get"),
        "results.bytes_written": untraced["store_bytes"],
        "results.warm_pass_s": median(untraced["warm_walls"]),
        "checkpoints.computed": span_calls("CheckpointStore.put"),
        "checkpoints.hits": hits["checkpoints"],
        "checkpoints.put_s": span_total("CheckpointStore.put"),
        "baselines.computed": span_calls("BaselineCache.put"),
        "scenario.compile_s": span_total("Scenario.compile"),
        "experiments.render_s": sum(
            row["total_s"] for name, row in table.items()
            if name.startswith("experiments.render.")),
        "sim.committed": stored["committed"],
        "sim.cycles": stored["cycles"],
        "sim.ipc": (stored["committed"] / stored["cycles"]
                    if stored["cycles"] else 0.0),
    })
    if not records:
        unmeasured["runner"] = ("no simulation spans came back from the "
                                "pool workers")
    _mark_unmeasured(outcome, unmeasured)
    outcome.trace = tracer.dump()
    outcome.trace["process_spans"] = records
    # Stepper layers are not traced in the pool workers.
    _fill_not_exercised(outcome)
    return outcome


# -- broker-loop --------------------------------------------------------------

#: Small distinct 2-thread DCRA jobs: transport, queue and store rather
#: than simulation dominate each round trip.
BROKER_PAIRS = (("gzip", "twolf"), ("mcf", "gzip"), ("bzip2", "twolf"),
                ("twolf", "mcf"))
BROKER_CYCLES = 400
BROKER_WARMUP = 100
BROKER_SETUPS = 3
BROKER_TIMEOUT = 60.0
#: Jobs per round in each cold phase; with at least MIN_ROUNDS rounds,
#: at least ten sequential cold latencies lie beyond p90.
ROUND_JOBS = 20
MIN_ROUNDS = 5
WARM_REPEATS = 3
#: Job indices of the set-up probes and the worker priming jobs, clear
#: of the rounds' indices.
PROBE_JOBS = 90_000
PRIME_JOBS = 95_000


class BrokerFailure(RuntimeError):
    pass


def broker_job(seed: int, index: int):
    from repro.harness.engine import SimJob

    return SimJob(BROKER_PAIRS[index % len(BROKER_PAIRS)], "DCRA",
                  cycles=BROKER_CYCLES, warmup=BROKER_WARMUP,
                  seed=seed * 100_000 + index)


def roundtrip(client, submission_id: str, job):
    """Submit one job and wait for its reply: (seconds, result, source)."""
    route = client.open_route(submission_id)
    try:
        start = clock()
        client.submit(submission_id, "job", job=job)
        try:
            message = route.get(timeout=BROKER_TIMEOUT)
        except queue.Empty:
            raise BrokerFailure(
                f"no reply within {BROKER_TIMEOUT:.0f}s") from None
        elapsed = clock() - start
    finally:
        client.close_route(submission_id)
    if message[0] != "result":
        raise BrokerFailure(f"{message[0]}: {message[2:]}")
    _kind, _id, ok, value, source = message
    if not ok:
        raise BrokerFailure(f"job failed: {value}")
    return elapsed, value, source


class BrokerSession:
    """A started in-process broker with two spawned workers and a client."""

    def __init__(self, spool: Path) -> None:
        from repro.harness.broker import Broker, BrokerClient

        self.broker = Broker(spawn_workers=WORKERS, spool_dir=spool)
        self.client = None
        self.broker.start()
        try:
            self.client = BrokerClient(self.broker.address)
        except BaseException:
            self.broker.stop()
            raise

    def close(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.broker.stop()


def _broker_setup(ops: Ops, spool: Path, probe) -> tuple:
    """Broker start until the probe job's result returns."""
    start = clock()
    session = BrokerSession(spool)
    try:
        with ops.op("setup probe") as op:
            _s, _value, source = roundtrip(
                session.client, f"probe-{spool.name}", probe)
            if source != "worker":
                op.fail(f"probe served from {source!r}, expected a worker")
    except BaseException:
        session.close()
        raise
    return session, clock() - start


def _sequential(ops: Ops, client, jobs, label: str):
    """Cold jobs one at a time, each followed by :data:`WARM_REPEATS`
    resubmissions that the store must answer with the cold result, so
    warm samples spread over the whole phase.  Returns (cold replies,
    warm latencies)."""
    replies, warm = [], []
    for index, job in enumerate(jobs):
        value = None
        with ops.op(f"{label} cold {index}") as op:
            elapsed, value, source = roundtrip(client, f"{label}-{index}", job)
            if source != "worker":
                op.fail(f"cold job served from {source!r}")
            replies.append((index, elapsed, value))
        for repeat in range(WARM_REPEATS):
            with ops.op(f"{label} warm {index}.{repeat}") as op:
                elapsed, again, source = roundtrip(
                    client, f"{label}-{index}-{repeat}", job)
                warm.append(elapsed)
                if source != "store":
                    op.fail(f"warm job served from {source!r}, not the store")
                elif again != value:
                    op.fail("warm result differs from the cold result")
    return replies, warm


def _cold_parallel(ops: Ops, client, jobs, label: str):
    """Two closed loops, one per worker; returns (replies, seconds)."""
    replies, lock = [], threading.Lock()
    counter = iter(range(len(jobs)))

    def loop() -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            with ops.op(f"{label} {index}") as op:
                elapsed, value, source = roundtrip(
                    client, f"{label}-{index}", jobs[index])
                if source != "worker":
                    op.fail(f"cold job served from {source!r}")
                with lock:
                    replies.append((index, elapsed, value))

    threads = [threading.Thread(target=loop) for _ in range(WORKERS)]
    start = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, clock() - start


def _reference(ops: Ops, pairs) -> List[float]:
    """In-process run_job of every cold job: must equal the broker's."""
    from repro.harness.engine import run_job

    seconds = []
    for index, (job, broker_value) in enumerate(pairs):
        with ops.op(f"reference {index}") as op:
            start = clock()
            value = run_job(job)
            seconds.append(clock() - start)
            if value != broker_value:
                op.fail("broker result differs from in-process run_job")
    return seconds


def _broker_round(ops: Ops, client, jobs, label: str) -> dict:
    """A sequential batch (cold jobs with warm resubmissions), then a
    cold batch with two submissions outstanding."""
    half = len(jobs) // 2
    start = clock()
    sequential, warm = _sequential(ops, client, jobs[:half], label)
    seq_wall = clock() - start
    parallel, par_wall = _cold_parallel(ops, client, jobs[half:],
                                        f"{label} par")
    pairs = [(jobs[index], value) for index, _s, value in sequential]
    pairs += [(jobs[half + index], value) for index, _s, value in parallel]
    return dict(sequential=sequential, seq_wall=seq_wall, parallel=parallel,
                par_wall=par_wall, warm=warm, pairs=pairs)


def run_broker(seed: int, seconds: float, trace: bool) -> Outcome:
    """Rounds of closed-loop jobs against an in-process two-worker broker.

    Medians over rounds keep a host-speed burst of a few seconds out of
    the throughput figures; latencies are pooled over every round.
    """
    outcome = Outcome(Ops(), checked="reference")
    ops = outcome.ops
    work = Path(os.environ["REPRO_CACHE_DIR"]).parent / "broker"
    jobs = (broker_job(seed, index) for index in itertools.count())
    setups, session, rounds = [], None, []
    try:
        for index in range(BROKER_SETUPS):
            if session is not None:
                session.close()
            session, setup_s = _broker_setup(
                ops, work / f"spool{index}",
                broker_job(seed, PROBE_JOBS + index))
            setups.append(setup_s)
        client = session.client
        before = session.broker.status()["stats"]
        # Both workers run one job before anything is timed.
        _cold_parallel(ops, client, [broker_job(seed, PRIME_JOBS + index)
                                     for index in range(WORKERS)], "prime")
        start = clock()
        while len(rounds) < MIN_ROUNDS or clock() - start < 0.4 * seconds:
            rounds.append(_broker_round(
                ops, client, [next(jobs) for _ in range(2 * ROUND_JOBS)],
                f"round {len(rounds)}"))
        traced = []
        if trace:
            traced = _trace_broker(
                outcome, client, [next(jobs) for _ in range(ROUND_JOBS)],
                median(r["seq_wall"] for r in rounds))
        after = session.broker.status()["stats"]
    finally:
        if session is not None:
            session.close()
    reference_s = _reference(
        ops, [pair for r in rounds for pair in r["pairs"]] + traced)
    cold_ms = [1e3 * s for r in rounds for _i, s, _v in r["sequential"]]
    if not cold_ms or not reference_s:
        return outcome
    metrics = outcome.metrics
    if trace:
        metrics.update({
            "broker.dispatched": after["dispatched"] - before["dispatched"],
            "broker.store_hits": after["store_hits"] - before["store_hits"],
            "broker.requeued": after["requeued"] - before["requeued"],
            "broker.failed": after["failed"] - before["failed"],
            "broker.overhead_ms": median(cold_ms) - 1e3 * median(reference_s),
            "results.warm_pass_s": median(sum(r["warm"]) for r in rounds),
            "results.bytes_written": tree_bytes(
                Path(os.environ["REPRO_CACHE_DIR"])),
        })
        results = [value for _job, value in traced]
        metrics["sim.committed"] = sum(r.total_committed for r in results)
        metrics["sim.cycles"] = sum(r.cycles for r in results)
        metrics["sim.ipc"] = (metrics["sim.committed"] / metrics["sim.cycles"]
                              if metrics["sim.cycles"] else 0.0)
        # The broker's workers are separate interpreters: only the client
        # side and the status counters are measured.
        _fill_not_exercised(outcome)
        return outcome
    job_cycles = BROKER_CYCLES + BROKER_WARMUP
    metrics.update(
        setup_s=median(setups),
        cycles_per_s=median(
            len(r["sequential"]) * job_cycles
            / sum(s for _i, s, _v in r["sequential"])
            for r in rounds if r["sequential"]),
        wall_s=median(r["seq_wall"] for r in rounds),
        cold_p50_ms=median(cold_ms),
        cold_p90_ms=percentile(cold_ms, 90),
        warm_p50_ms=1e3 * median(s for r in rounds for s in r["warm"]),
        jobs_per_s=median(len(r["parallel"]) / r["par_wall"]
                          for r in rounds if r["parallel"]),
    )
    return outcome


def _trace_broker(outcome: Outcome, client, jobs, untraced_wall: float):
    """A sequential batch again, on fresh jobs, traced."""
    tracer = spans.Tracer()
    hits = {"results": 0}

    def observe_get(_args, result) -> None:
        if result is not None:
            hits["results"] += 1

    with spans.Installation() as installation:
        spans.trace(tracer, spans.HARNESS_POINTS[:2], installation,
                    {"ResultStore.get": observe_get})
        start = clock()
        replies, _warm = _sequential(outcome.ops, client, jobs, "traced")
        wall = clock() - start
        unmeasured = installation.unmeasured()
    table = tracer.spans()
    get = table.get("ResultStore.get", {})
    put = table.get("ResultStore.put", {})
    outcome.metrics.update({
        "trace_overhead": wall / untraced_wall,
        "results.puts": put.get("calls", 0),
        "results.hits": hits["results"],
        "results.misses": get.get("calls", 0) - hits["results"],
        "results.put_s": put.get("total_s", 0.0),
        "results.get_s": get.get("total_s", 0.0),
    })
    _mark_unmeasured(outcome, unmeasured)
    outcome.trace = tracer.dump()
    return [(jobs[index], value) for index, _s, value in replies]


# -- entry point --------------------------------------------------------------

WORKLOADS = {
    "dcra-mix4": lambda seed, seconds, trace:
        run_stepper("dcra-mix4", seed, seconds, trace),
    "stall-mem2": lambda seed, seconds, trace:
        run_stepper("stall-mem2", seed, seconds, trace),
    "campaign-golden": run_campaign,
    "broker-loop": run_broker,
}

#: Exit code telling ``run.py`` the program itself could not be imported.
EXIT_NO_PROGRAM = 3


def write_result(path: str, outcome: Outcome, error: Optional[str]) -> None:
    failures = list(outcome.ops.failures)
    if error is not None:
        failures.append(error)
    attempted = max(outcome.ops.attempted, 1)
    failed = min(len(failures), attempted)
    payload = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": outcome.metrics, "notes": outcome.notes,
        "checked": outcome.checked,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def record_references() -> dict:
    """Digests at the default and held-out seeds, for references.json,
    plus the cycles and jobs the golden campaign simulates."""
    from repro.harness.runner import run_benchmarks

    refs: dict = {"campaign-golden": _record_campaign()}
    for name, spec in STEPPERS.items():
        refs[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            refs[name][str(seed)] = {
                kind: [short_digest(run_benchmarks(
                    list(spec.benchmarks), spec.policy, cycles=cycles,
                    warmup=WARMUP_CYCLES, seed=job_seed(seed, kind, index)))
                    for index in range(count)]
                for kind, cycles, count in (
                    ("cold", COLD_CYCLES, MAX_CALLS[name]),
                    ("warm", WARM_CYCLES, MAX_CALLS[name] // WARM_EVERY))}
    return refs


def _record_campaign() -> dict:
    record: dict = {"outputs": {}}
    work = Path(os.environ["REPRO_CACHE_DIR"])
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        span_dir = work / f"spans{seed}"
        span_dir.mkdir(parents=True)
        log = spans.ProcessSpanLog(str(span_dir))
        with spans.Installation() as installation:
            log.install(spans.SIM_POINTS, installation)
            done = _campaign_pass(Ops(), seed, work / f"cold{seed}", 0)
        record["outputs"][str(seed)] = {
            key: hashlib.sha256(text.encode()).hexdigest()
            for key, (text, _s) in done["cold"].items()}
        records = log.read()
        record["simulated_cycles"] = sum(r["cycles"] for r in records)
        record["simulated_jobs"] = len(records)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--trace-out")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"cannot import the simulator: {error}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if args.record_references:
        import tempfile

        with tempfile.TemporaryDirectory(dir=ROOT) as work:
            os.environ["REPRO_CACHE_DIR"] = work
            refs = record_references()
        json.dump(refs, sys.stdout, indent=1, sort_keys=True)
        return 0
    if not args.workload or not args.result:
        parser.error("--workload and --result are required")
    outcome, error = Outcome(Ops()), None
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds,
                                           bool(args.trace))
    except Exception as exc:  # noqa: BLE001 - reported as a failed workload
        traceback.print_exc()
        error = f"workload raised {type(exc).__name__}: {exc}"
    write_result(args.result, outcome, error)
    if args.trace_out and outcome.trace is not None:
        with open(args.trace_out, "w") as handle:
            json.dump(outcome.trace, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
