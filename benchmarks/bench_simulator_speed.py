"""Simulator performance: simulated instructions and cycles per second.

Not a paper artefact, but the number every user of a pure-Python cycle
simulator asks first.  Measures single-thread ILP, single-thread MEM and
a 4-thread mixed configuration.

Besides the human-readable console lines, the run writes a
machine-readable ``BENCH_speed.json`` (override the path with
``$BENCH_SPEED_JSON``) mapping each configuration to its simulated
cycles/s and committed-instruction count, so the performance trajectory
can be tracked across PRs (CI uploads it as a workflow artifact).
"""

import json
import os
import platform
from pathlib import Path

import pytest

from repro.pipeline.config import SMTConfig
from repro.pipeline.processor import SMTProcessor
from repro.policies.registry import make_policy
from repro.trace.profiles import get_profile

CYCLES = 4_000

#: Per-configuration measurements accumulated by the tests and dumped to
#: ``BENCH_speed.json`` when the module's tests finish.
_MEASUREMENTS = {}


@pytest.fixture(scope="module", autouse=True)
def _dump_bench_json():
    """Write the collected measurements after the module's tests ran."""
    yield
    if not _MEASUREMENTS:
        return
    path = Path(os.environ.get("BENCH_SPEED_JSON", "BENCH_speed.json"))
    payload = {
        "cycles_per_run": CYCLES,
        "python": platform.python_version(),
        "configurations": _MEASUREMENTS,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_config(benchmarks, policy="ICOUNT"):
    processor = SMTProcessor(SMTConfig(),
                             [get_profile(b) for b in benchmarks],
                             make_policy(policy), seed=1)
    processor.run(CYCLES)
    return processor


def test_python_calibration(benchmark):
    """Code-independent Python-speed reference for cross-machine gating.

    A fixed pure-Python workload (integer arithmetic + dict traffic,
    the simulator's dominant operation mix) whose ops/s depends only on
    the interpreter and the machine — never on this repo's code.  The
    perf gate (scripts/perf_gate.py) divides every throughput entry by
    the ratio of calibration speeds before comparing against the
    committed baseline, so a slower/faster CI machine doesn't read as a
    code regression/win.
    """
    import time

    OPS = 300_000

    def calibrate():
        table = {}
        total = 0
        start = time.perf_counter()
        for i in range(OPS):
            key = i & 1023
            total += table.get(key, 0) + (i ^ (i >> 3)) % 97
            table[key] = total & 0xFFFF
        return total, time.perf_counter() - start

    total, elapsed = benchmark.pedantic(calibrate, rounds=1, iterations=1)
    _MEASUREMENTS["python-calibration"] = {
        "ops": OPS,
        "ops_per_sec": round(OPS / elapsed, 1),
    }
    print(f"\npython calibration: {OPS / elapsed:,.0f} ops/s")
    assert total != 0


@pytest.mark.parametrize("benchmarks,label", [
    (("gzip",), "1-thread ILP"),
    (("mcf",), "1-thread MEM"),
    (("gzip", "twolf", "bzip2", "mcf"), "4-thread MIX"),
])
def test_simulation_speed(benchmark, benchmarks, label):
    processor = benchmark.pedantic(run_config, args=(benchmarks,),
                                   rounds=1, iterations=1)
    committed = sum(t.stats.committed for t in processor.threads)
    cycles_per_sec = CYCLES / benchmark.stats.stats.mean
    _MEASUREMENTS[label] = {
        "benchmarks": list(benchmarks),
        "policy": "ICOUNT",
        "cycles_per_sec": round(cycles_per_sec, 1),
        "instructions_per_sec": round(committed / benchmark.stats.stats.mean,
                                      1),
        "committed": committed,
    }
    print(f"\n{label}: {CYCLES} cycles, {committed} instructions committed, "
          f"{cycles_per_sec:,.0f} simulated cycles/s")
    assert committed > 0


@pytest.mark.parametrize("benchmarks,policy,memory_latency,cycles,label", [
    (("mcf",), "STALL", 1_000, 50_000, "reps-8 MEM lat1000"),
    (("mcf", "twolf"), "STALL", None, CYCLES, "reps-8 MEM STALL"),
    (("gzip", "twolf", "bzip2", "mcf"), "ICOUNT", None, CYCLES,
     "reps-8 MIX"),
    (("gzip", "twolf", "bzip2", "mcf"), "DCRA", None, CYCLES,
     "reps-8 MIX DCRA"),
    (("mcf", "twolf"), "DCRA", None, CYCLES, "reps-8 MEM DCRA"),
])
def test_reps8_fanout_speed(benchmark, benchmarks, policy, memory_latency,
                            cycles, label):
    """A ``--reps 8`` fan-out through the engine, in simulated cycles/s.

    Design points of the stepper's quiescence fast-forward: a DRAM-bound
    single thread at 1000-cycle memory latency (mostly idle cycles, the
    largest win), memory-bound mcf+twolf under STALL, the busy 4-thread
    MIX (mostly fused-loop savings), and the paper's policy, DCRA, on
    that MIX and on mcf+twolf (its per-cycle bookkeeping on top).  The
    recorded ``cycles_per_sec`` is gated by scripts/perf_gate.py against
    the committed baseline like every other throughput entry.
    """
    import time

    from repro.harness.engine import SimJob, replicate_job, run_jobs

    warmup = 1_000
    config = (SMTConfig(memory_latency=memory_latency)
              if memory_latency else None)
    jobs = replicate_job(
        SimJob(tuple(benchmarks), policy, config, cycles, warmup, seed=1), 8)
    total_cycles = len(jobs) * (cycles + warmup)

    def measure():
        start = time.perf_counter()
        results = run_jobs(jobs)
        return results, time.perf_counter() - start

    results, elapsed = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert all(r.threads and r.cycles == cycles for r in results)
    _MEASUREMENTS[label] = {
        "benchmarks": list(benchmarks),
        "policy": policy,
        "memory_latency": memory_latency,
        "reps": len(jobs),
        "cycles": cycles,
        "warmup": warmup,
        "aggregate_simulated_cycles": total_cycles,
        "cycles_per_sec": round(total_cycles / elapsed, 1),
    }
    print(f"\n{label}: {total_cycles / elapsed:,.0f} simulated cycles/s")


def test_interval_mode_overhead(benchmark):
    """Chunked runs must cost <5% over monolithic at 5000-cycle intervals.

    Times the same 4-thread MIX configuration both ways in alternating
    pairs, the second pair of each block in swapped order (monolithic,
    interval, interval, monolithic, then the reverse), and records the
    median and interquartile range (IQR) of the per-block overhead in
    BENCH_speed.json — the acceptance number for the interval refactor.
    Summing each side over its block cancels a host-speed drift that is
    linear across the block.  One ~0.5 s timing on a shared host moves
    by ten percent and more, so the test fails only when the median
    overhead exceeds both 5% and the IQR of the blocks it came from.
    """
    import statistics
    import time

    interval_cycles = 5_000
    total_cycles = 20_000
    blocks = 7
    benchmarks_mix = ("gzip", "twolf", "bzip2", "mcf")

    def build():
        return SMTProcessor(SMTConfig(),
                            [get_profile(b) for b in benchmarks_mix],
                            make_policy("ICOUNT"), seed=1)

    def monolithic():
        processor = build()
        start = time.perf_counter()
        processor.run(total_cycles)
        return time.perf_counter() - start, processor, None

    def chunked():
        processor = build()
        start = time.perf_counter()
        snapshots = list(processor.run_intervals(
            interval_cycles, total_cycles=total_cycles))
        return time.perf_counter() - start, processor, snapshots

    def measure():
        mono_times, interval_times, overheads = [], [], []
        for index in range(blocks):
            pair = (monolithic, chunked) if index % 2 == 0 \
                else (chunked, monolithic)
            block = {monolithic: [], chunked: []}
            for side in pair + pair[::-1]:
                block[side].append(side())
            mono_time = sum(t for t, _, _ in block[monolithic])
            interval_time = sum(t for t, _, _ in block[chunked])
            mono_times.append(mono_time / 2)
            interval_times.append(interval_time / 2)
            overheads.append(100.0 * (interval_time / mono_time - 1.0))
        _, mono, _ = block[monolithic][-1]
        _, interval, snapshots = block[chunked][-1]
        return mono, interval, snapshots, mono_times, interval_times, \
            overheads

    mono, chunked_run, snapshots, mono_times, interval_times, overheads = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    overhead_pct = statistics.median(overheads)
    quartiles = statistics.quantiles(overheads, n=4)
    iqr_pct = quartiles[2] - quartiles[0]
    _MEASUREMENTS["interval-mode overhead"] = {
        "benchmarks": list(benchmarks_mix),
        "policy": "ICOUNT",
        "interval_cycles": interval_cycles,
        "total_cycles": total_cycles,
        "blocks": blocks,
        "monolithic_s": round(statistics.median(mono_times), 4),
        "interval_s": round(statistics.median(interval_times), 4),
        "overhead_pct": round(overhead_pct, 2),
        "overhead_iqr_pct": round(iqr_pct, 2),
    }
    print(f"\ninterval mode ({interval_cycles}-cycle chunks over "
          f"{total_cycles} cycles): {overhead_pct:+.2f}% vs monolithic "
          f"(median of {blocks} blocks, IQR {iqr_pct:.2f} points)")
    # Chunking must not change what was simulated...
    assert [t.stats.committed for t in mono.threads] \
        == [t.stats.committed for t in chunked_run.threads]
    assert len(snapshots) == total_cycles // interval_cycles
    # ...and the acceptance ceiling is 5%, judged against the spread of
    # the blocks, so host noise alone does not fail the test.
    assert overhead_pct <= 5.0 or overhead_pct <= iqr_pct, (
        f"interval mode costs {overhead_pct:+.2f}% (median of {blocks} "
        f"blocks), above 5% and above the blocks' IQR of {iqr_pct:.2f}")


def test_dcra_overhead_vs_icount(benchmark):
    """DCRA's per-cycle classification must not dominate simulation time."""

    def run_both():
        icount = run_config(("gzip", "twolf"), "ICOUNT")
        dcra = run_config(("gzip", "twolf"), "DCRA")
        return icount, dcra

    icount, dcra = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _MEASUREMENTS["2-thread ICOUNT+DCRA pair"] = {
        "benchmarks": ["gzip", "twolf"],
        "policy": "ICOUNT+DCRA",
        "cycles_per_sec": round(2 * CYCLES / benchmark.stats.stats.mean, 1),
        "instructions_per_sec": None,
        "committed": sum(t.stats.committed for t in dcra.threads)
        + sum(t.stats.committed for t in icount.threads),
    }
    assert sum(t.stats.committed for t in dcra.threads) > 0
    assert sum(t.stats.committed for t in icount.threads) > 0


def test_checkpoint_throughput(benchmark, tmp_path, monkeypatch):
    """Capture/store/load/restore cost of a warmed 4-thread processor.

    The prefix-sharing win is (warm-up simulation time saved) minus
    (one store, then one load and one restore per fork); this benchmark
    records both sides so the trade stays visible across PRs.  The load
    and the restore take the path of a forked run in a later process: a
    fresh store reads, gunzips and parses the entry from disk, and the
    processor is built from the state (``state=``), never pre-warmed.
    """
    import time

    from repro.harness.checkpoints import CheckpointStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    benchmarks_mix = ("gzip", "twolf", "bzip2", "mcf")
    profiles = [get_profile(b) for b in benchmarks_mix]
    warmed_cycles = 2 * CYCLES  # realistic warm-up length

    def build_and_warm():
        processor = SMTProcessor(SMTConfig(), profiles,
                                 make_policy("ICOUNT"), seed=1)
        processor.run(warmed_cycles)
        return processor

    def measure():
        processor = build_and_warm()

        start = time.perf_counter()
        state = processor.capture_state()
        capture_s = time.perf_counter() - start

        start = time.perf_counter()
        CheckpointStore().put(
            "bench-prefix",
            _checkpoint_payload("ICOUNT", warmed_cycles, state))
        store_s = time.perf_counter() - start

        start = time.perf_counter()
        payload = CheckpointStore().require("bench-prefix")
        load_s = time.perf_counter() - start

        start = time.perf_counter()
        fresh = SMTProcessor(SMTConfig(), profiles, make_policy("ICOUNT"),
                             seed=1, state=payload["state"])
        restore_s = time.perf_counter() - start

        start = time.perf_counter()
        build_and_warm()
        warmup_s = time.perf_counter() - start
        return fresh, capture_s, store_s, load_s, restore_s, warmup_s

    fresh, capture_s, store_s, load_s, restore_s, warmup_s = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    roundtrip_s = capture_s + store_s + load_s + restore_s
    _MEASUREMENTS["checkpoint round-trip"] = {
        "benchmarks": list(benchmarks_mix),
        "policy": "ICOUNT",
        "warmed_cycles": warmed_cycles,
        "capture_s": round(capture_s, 4),
        "store_s": round(store_s, 4),
        "load_s": round(load_s, 4),
        "restore_s": round(restore_s, 4),
        "equivalent_warmup_s": round(warmup_s, 4),
        "breakeven_ratio": round(roundtrip_s / warmup_s, 3),
    }
    print(f"\ncheckpoint round-trip ({warmed_cycles}-cycle warm 4-thread "
          f"state): capture {capture_s * 1e3:.1f} ms, "
          f"store {store_s * 1e3:.1f} ms, load {load_s * 1e3:.1f} ms, "
          f"restore {restore_s * 1e3:.1f} ms "
          f"(= {100 * roundtrip_s / warmup_s:.1f}% of simulating the "
          f"warm-up)")
    assert sum(t.stats.committed for t in fresh.threads) > 0
    # Restoring must beat re-simulating the warm-up; allow timing noise
    # on shared CI hardware while still catching a real regression.
    assert roundtrip_s < warmup_s or roundtrip_s - warmup_s < 0.05


#: The 4-thread Table 2 mix the construction entries build.
_MIX4 = ("gzip", "twolf", "bzip2", "mcf")


def _checkpoint_payload(policy, warmup_cycles, state):
    """A fixed-warm-up checkpoint entry, with every field the store
    requires (the layout ``runner.compute_warmup_checkpoint`` writes)."""
    return {"policy": policy, "warmup_cycles": warmup_cycles,
            "warmup_converged": None, "discarded": [], "state": state}


def _constructions_per_sec(build, rounds=5, per_round=10):
    """Median over rounds of processors built per second."""
    import statistics
    import time

    rates = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(per_round):
            build()
        rates.append(per_round / (time.perf_counter() - start))
    return statistics.median(rates)


def test_construction_speed(benchmark):
    """Fixed cost of every run: fresh 4-thread Table 2 processors (cache
    pre-warm included) built per second."""
    profiles = [get_profile(b) for b in _MIX4]

    def build():
        return SMTProcessor(SMTConfig(), profiles, make_policy("DCRA"),
                            seed=1)

    rate = benchmark.pedantic(_constructions_per_sec, args=(build,),
                              rounds=1, iterations=1)
    _MEASUREMENTS["processor construction"] = {
        "benchmarks": list(_MIX4),
        "policy": "DCRA",
        "ops_per_sec": round(rate, 1),
    }
    print(f"\nprocessor construction (4-thread Table 2): "
          f"{rate:,.1f} processors/s")


def test_checkpoint_restore_speed(benchmark, tmp_path, monkeypatch):
    """Fixed cost of a checkpointed run: processors built per second from
    a stored 4-thread warm-up state (restored, never pre-warmed)."""
    from repro.harness.checkpoints import CheckpointStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    profiles = [get_profile(b) for b in _MIX4]
    warmed = SMTProcessor(SMTConfig(), profiles, make_policy("DCRA"), seed=1)
    warmed.run(1_000)
    CheckpointStore().put("bench-restore", _checkpoint_payload(
        "DCRA", warmed.cycle, warmed.capture_state()))
    # A fresh store serves the entry from disk, as a later process would.
    state = CheckpointStore().require("bench-restore")["state"]

    def build():
        return SMTProcessor(SMTConfig(), profiles, make_policy("DCRA"),
                            seed=1, state=state)

    rate = benchmark.pedantic(_constructions_per_sec, args=(build,),
                              rounds=1, iterations=1)
    _MEASUREMENTS["checkpoint restore"] = {
        "benchmarks": list(_MIX4),
        "policy": "DCRA",
        "warmed_cycles": warmed.cycle,
        "ops_per_sec": round(rate, 1),
    }
    print(f"\ncheckpoint restore (4-thread, {warmed.cycle}-cycle warm-up): "
          f"{rate:,.1f} processors/s")
    assert build().capture_state() == warmed.capture_state()


def test_broker_service_throughput(benchmark, tmp_path, monkeypatch):
    """Broker submit-to-result latency and multi-client sweep throughput.

    Spins up an in-process broker with two loopback workers and records
    three numbers in BENCH_speed.json: the cold submit-to-result
    round-trip (one simulation through the full queue/dispatch path),
    the warm round-trip (the broker answers from the result store —
    no simulation), and the aggregate jobs/s of two concurrent clients
    sweeping through the shared worker pool.  ``jobs_per_sec`` is gated
    by scripts/perf_gate.py like the other throughput entries.
    """
    import threading
    import time

    from repro.harness.broker import Broker, BrokerClient
    from repro.harness.engine import SimJob, run_jobs
    from repro.harness.executors import BrokerExecutor
    from repro.harness.results import result_store

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result_store.clear()
    clients = 2
    jobs_per_client = 4
    cycles, warmup = 1_000, 250

    def roundtrip(client, submission_id, job):
        route = client.open_route(submission_id)
        try:
            start = time.perf_counter()
            client.submit(submission_id, "job", job=job)
            while True:
                message = route.get(timeout=120.0)
                if message[0] == "result":
                    elapsed = time.perf_counter() - start
                    _, _, ok, value, source = message
                    assert ok, value
                    return elapsed, source
                if message[0] in ("rejected", "connection-lost"):
                    raise RuntimeError(f"broker bench failed: {message}")
        finally:
            client.close_route(submission_id)

    def measure():
        with Broker(spawn_workers=2, durable=False) as broker:
            client = BrokerClient(broker.address, timeout=120.0)
            probe = SimJob(("gzip",), "ICOUNT", None, cycles, warmup, seed=99)
            cold_s, cold_source = roundtrip(client, "bench-cold", probe)
            warm_s, warm_source = roundtrip(client, "bench-warm", probe)
            client.close()
            assert cold_source == "worker" and warm_source == "store"

            sweeps = [None] * clients
            def sweep(index):
                jobs = [SimJob(("gzip", "twolf"), "ICOUNT", None, cycles,
                               warmup, seed=1000 + 100 * index + j)
                        for j in range(jobs_per_client)]
                with BrokerExecutor(broker.address,
                                    timeout=120.0) as executor:
                    sweeps[index] = run_jobs(jobs, 2, executor, reuse="off")
            threads = [threading.Thread(target=sweep, args=(i,))
                       for i in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sweep_s = time.perf_counter() - start
        return sweeps, cold_s, warm_s, sweep_s

    sweeps, cold_s, warm_s, sweep_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    assert all(len(results) == jobs_per_client for results in sweeps)
    total_jobs = clients * jobs_per_client
    _MEASUREMENTS["broker service"] = {
        "benchmarks": ["gzip", "twolf"],
        "policy": "ICOUNT",
        "clients": clients,
        "jobs": total_jobs,
        "cycles": cycles,
        "warmup": warmup,
        "cold_submit_to_result_s": round(cold_s, 4),
        "warm_submit_to_result_s": round(warm_s, 4),
        "jobs_per_sec": round(total_jobs / sweep_s, 2),
    }
    print(f"\nbroker service: cold round-trip {cold_s * 1e3:.0f} ms, "
          f"warm (store-served) {warm_s * 1e3:.1f} ms, "
          f"{clients} clients x {jobs_per_client} jobs: "
          f"{total_jobs / sweep_s:.2f} jobs/s")
    # The warm path never simulates, so it must beat the cold path.
    assert warm_s < cold_s


def test_prefix_sharing_sweep_speedup(benchmark, tmp_path, monkeypatch):
    """A 4-policy sweep with one shared warm-up prefix vs plain runs.

    Times the same policy comparison twice — every policy self-warming
    vs all policies forking from one checkpointed warm-up — and records
    the measured saving; results must agree policy-by-policy for the
    lead (self-warmed) policy.
    """
    import dataclasses
    import time

    from repro.harness.checkpoints import checkpoint_store
    from repro.harness.results import result_store
    from repro.harness.scenario import Scenario, run_scenario

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    result_store.clear()
    checkpoint_store.clear()
    scenario = Scenario(
        name="bench-prefix-sharing", workloads=("gzip+twolf",),
        policies=("ICOUNT", "FLUSH++", "SRA", "DCRA"),
        cycles=CYCLES, warmup=CYCLES, seed=1)

    def measure():
        start = time.perf_counter()
        plain = run_scenario(scenario, reuse="off")
        plain_s = time.perf_counter() - start

        result_store.clear()
        start = time.perf_counter()
        shared = run_scenario(
            dataclasses.replace(scenario, shared_warmup=True), reuse="off")
        shared_s = time.perf_counter() - start
        return plain, shared, plain_s, shared_s

    plain, shared, plain_s, shared_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    saving_pct = 100.0 * (1.0 - shared_s / plain_s)
    stats = shared.checkpoint_stats
    # Simulated-cycle accounting: plain self-warms every job; shared
    # simulates each prefix's warm-up once and only suffixes fan out.
    plain_cycles = stats["jobs"] * (CYCLES + CYCLES)
    shared_cycles = stats["prefixes"] * CYCLES + stats["jobs"] * CYCLES
    _MEASUREMENTS["prefix-sharing sweep"] = {
        "benchmarks": ["gzip", "twolf"],
        "policy": "ICOUNT+FLUSH+++SRA+DCRA",
        "cycles": CYCLES,
        "warmup": CYCLES,
        "plain_s": round(plain_s, 4),
        "shared_s": round(shared_s, 4),
        "saving_pct": round(saving_pct, 2),
        "plain_simulated_cycles": plain_cycles,
        "shared_simulated_cycles": shared_cycles,
        "cycles_saving_pct": round(100.0 * (1 - shared_cycles / plain_cycles),
                                   2),
        "checkpoint": stats,
    }
    print(f"\nprefix-sharing sweep (4 policies, {CYCLES}-cycle warm-up): "
          f"plain {plain_s:.2f} s, shared {shared_s:.2f} s "
          f"({saving_pct:+.1f}%)")
    assert shared.checkpoint_stats == {"prefixes": 1, "jobs": 4, "hits": 0,
                                       "computed": 1}
    # The lead policy self-warms either way: identical result.
    assert plain.results[0] == shared.results[0]
