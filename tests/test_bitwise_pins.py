"""Bitwise pins of simulated statistics beyond the default matrix.

``test_fastpath.py`` compares ``run_fast`` with ``step()``, but both
share the pipeline stage methods, so a change to those stages that
alters results moves both sides equally and passes there.  This module
pins the results themselves: the SHA-256 of every statistic of a
``run_benchmarks`` result (the perfbench digest) over a matrix of
configurations that stress the resource accounting — Table 2, tiny
issue queues with a tiny rename pool, a partitioned ROB and a perfect
L1D — crossed with every registry policy at 1, 2 and 4 threads.

The digests in ``bitwise_pins.json`` were recorded before the stepper's
resource indices moved from enum-keyed lookups to precomputed ints, so
they pin that the change left every statistic unchanged.  Re-record
them only for a change that is meant to alter simulated behaviour::

    PYTHONPATH=src python tests/test_bitwise_pins.py --record
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from repro.harness.runner import run_benchmarks
from repro.pipeline.config import SMTConfig
from repro.policies.registry import POLICY_NAMES

PINS = Path(__file__).with_name("bitwise_pins.json")
CYCLES = 600
WARMUP = 200

MIXES = {
    1: ("gzip",),
    2: ("mcf", "twolf"),
    4: ("gzip", "twolf", "bzip2", "mcf"),  # perfbench's dcra-mix4 mix
}


def _config(name: str, threads: int) -> SMTConfig:
    if name == "table2":
        return SMTConfig()
    if name == "tiny":
        # 8-entry queues and 40 rename registers per pool: every
        # structural and policy cap binds constantly.
        registers = 32 * threads + 40
        return SMTConfig(int_iq_size=8, fp_iq_size=8, ls_iq_size=8,
                         int_physical_registers=registers,
                         fp_physical_registers=registers)
    if name == "rob-partitioned":
        return SMTConfig(rob_partitioned=True)
    if name == "perfect-dl1":
        return SMTConfig(perfect_dl1=True)
    raise ValueError(name)


CONFIGS = ("table2", "tiny", "rob-partitioned", "perfect-dl1")


def _cases():
    for config in CONFIGS:
        for threads, mix in MIXES.items():
            for policy in POLICY_NAMES:
                yield f"{config}/{threads}t/{policy}", config, mix, policy


def _digest(config: str, mix, policy: str) -> str:
    result = run_benchmarks(list(mix), policy,
                            config=_config(config, len(mix)),
                            cycles=CYCLES, warmup=WARMUP, seed=1)
    data = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def compute_pins() -> dict:
    return {key: _digest(config, mix, policy)
            for key, config, mix, policy in _cases()}


def test_bitwise_pins():
    pins = json.loads(PINS.read_text())
    digests = compute_pins()
    assert sorted(digests) == sorted(pins)
    changed = [key for key in sorted(pins) if digests[key] != pins[key]]
    assert not changed, f"simulated statistics changed for {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_bitwise_pins.py --record")
    PINS.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True)
                    + "\n")
    print(f"wrote {PINS}")
