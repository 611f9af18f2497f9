"""Bitwise equivalence of the stepping loop against one-cycle steps.

Every run API reaches :func:`repro.pipeline.fastpath.run_fast` — the
fused loop with quiescence fast-forward — so the reference here is the
plain ``for _ in range(n): processor.step()`` loop.  ``run_fast`` and
``processor.run`` must leave the processor in exactly the state that
loop does — same statistics, same machine state, byte for byte — for
every registry policy and thread count.  Phase tracking is on, so the
fast-forward's bulk phase-histogram accounting (which every interval
run and Table 5 rely on) is compared too.
"""

import json

import pytest

from repro.harness.runner import _build_processor
from repro.pipeline.fastpath import quiescence_horizon, run_fast
from repro.policies.base import Policy
from repro.policies.registry import POLICY_NAMES, make_policy

CYCLES = 1500  # crosses the 1024-cycle trace-prune boundary
RUN_CHUNKS = (400, 700, 400)  # prune-unaligned, sums to CYCLES

MIXES = {
    1: ["gzip"],
    2: ["gzip", "mcf"],
    4: ["gzip", "mcf", "gcc", "twolf"],
    6: ["gzip", "mcf", "gcc", "twolf", "eon", "art"],
}

#: Policies whose per-cycle hooks / fetch_order are side-effect free on
#: quiescent cycles; anything outside this list must keep the
#: conservative default (False) so the fast-forward never skips work.
QUIESCE_SAFE = {"ROUND-ROBIN", "ICOUNT", "STALL", "FLUSH", "FLUSH++",
                "DG", "SRA"}


def _state_digest(processor):
    return json.dumps(processor.capture_state(), sort_keys=True,
                      default=repr)


def _processor(policy, benchmarks, seed=11):
    processor = _build_processor(benchmarks, policy, None, seed)
    processor.enable_phase_tracking()
    return processor


def _stepped(policy, benchmarks):
    """The reference: one ``step()`` call per cycle."""
    processor = _processor(policy, benchmarks)
    for _ in range(CYCLES):
        processor.step()
    return processor


@pytest.mark.parametrize("threads", sorted(MIXES))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_run_fast_bitwise_matrix(policy, threads):
    """All registry policies x 1/2/4/6 threads: ``run_fast`` and chunked
    ``run`` reach the stepped state, phase histogram included."""
    reference = _state_digest(_stepped(policy, MIXES[threads]))
    fast = _processor(policy, MIXES[threads])
    run_fast(fast, CYCLES)
    assert fast.cycle == CYCLES
    assert _state_digest(fast) == reference
    assert sum(fast.phase_counts) == CYCLES

    chunked = _processor(policy, MIXES[threads])
    for chunk in RUN_CHUNKS:
        chunked.run(chunk)
    assert _state_digest(chunked) == reference


@pytest.mark.parametrize("policy", ["ICOUNT", "DCRA", "FLUSH++"])
def test_run_fast_chunked_equals_monolithic(policy):
    """Chunked stepping (e.g. interval runs) changes nothing."""
    reference = _state_digest(_stepped(policy, MIXES[2]))
    fast = _processor(policy, MIXES[2])
    done = 0
    while done < CYCLES:
        chunk = min(311, CYCLES - done)  # deliberately prune-unaligned
        run_fast(fast, chunk)
        done += chunk
    assert _state_digest(fast) == reference


def test_run_fast_zero_and_negative_cycles():
    reference = _processor("ICOUNT", MIXES[1])
    fast = _processor("ICOUNT", MIXES[1])
    run_fast(fast, 0)
    run_fast(fast, -5)
    assert _state_digest(fast) == _state_digest(reference)


def test_run_fast_respects_cycle_hooks():
    """Per-cycle probes see every cycle (no fast-forward may skip one)."""
    fast = _processor("ICOUNT", MIXES[1])
    seen = []
    fast.cycle_hooks.append(lambda proc: seen.append(proc.cycle))
    run_fast(fast, 50)
    assert seen == list(range(50))


def test_quiesce_safe_whitelist():
    """The opt-in set is exactly the audited policies; unknown
    subclasses inherit the conservative default."""
    for name in POLICY_NAMES:
        policy = make_policy(name)
        assert type(policy).quiesce_safe == (name in QUIESCE_SAFE), name

    class Unaudited(Policy):
        name = "UNAUDITED"

    assert Unaudited.quiesce_safe is False
    assert Unaudited().quiesce_horizon(123) is None


def test_flush_plus_plus_horizon_pins_decay_boundaries():
    policy = make_policy("FLUSH++")
    window = policy.window
    assert policy.quiesce_horizon(0) == 0
    assert policy.quiesce_horizon(window) == window
    assert policy.quiesce_horizon(1) == window
    assert policy.quiesce_horizon(window + 1) == 2 * window


def test_probe_not_quiescent_on_fresh_processor():
    """At cycle 0 every thread can fetch: the probe must refuse."""
    processor = _build_processor(MIXES[2], "ICOUNT", None, 3)
    assert quiescence_horizon(processor, 0, 1000) == (0, (), ())
