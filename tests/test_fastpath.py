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
    # FP-heavy: DCRA's FP activity flags expire and re-arm mid-run.
    "fma3d+mesa": ["fma3d", "mesa"],
}

#: DCRA configurations whose fast-forward differs from the default's:
#: a shorter activity window and the L2 slow trigger (on the FP-heavy
#: pair, both let a flag expire exactly at a cycle the stepper probes),
#: fetch-only enforcement, and a DCRA-ADAPT window ending inside the run.
DCRA_VARIANTS = [
    ("DCRA", {"activity_window": 64}),
    ("DCRA", {"slow_trigger": "l2"}),
    ("DCRA", {"enforce_at_rename": False}),
    ("DCRA-ADAPT", {"window": 256}),
]


def _spec_id(value):
    if isinstance(value, dict):
        return ",".join(f"{key}={item}" for key, item in value.items()) \
            or "default"
    return value

#: Policies whose per-cycle hooks / fetch_order are side-effect free on
#: quiescent cycles; anything outside this list must keep the
#: conservative default (False) so the fast-forward never skips work.
QUIESCE_SAFE = {"ROUND-ROBIN", "ICOUNT", "STALL", "FLUSH", "FLUSH++",
                "DG", "SRA", "DCRA", "DCRA-ADAPT"}


def _state_digest(processor):
    """The captured state plus each thread's trace-window base.  The
    capture starts every window at its thread's low-water mark, so only
    the base shows when the periodic prune last ran, and with it that
    ``run_fast``'s bulk prune over skipped spans matches ``step()``."""
    bases = [thread.trace._base for thread in processor.threads]
    return json.dumps([processor.capture_state(), bases], sort_keys=True,
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


@pytest.mark.parametrize("mix", list(MIXES))
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_run_fast_bitwise_matrix(policy, mix):
    """All registry policies x 1/2/4/6 threads and an FP-heavy pair:
    ``run_fast`` and chunked ``run`` reach the stepped state, phase
    histogram included."""
    reference = _state_digest(_stepped(policy, MIXES[mix]))
    fast = _processor(policy, MIXES[mix])
    run_fast(fast, CYCLES)
    assert fast.cycle == CYCLES
    assert _state_digest(fast) == reference
    assert sum(fast.phase_counts) == CYCLES

    chunked = _processor(policy, MIXES[mix])
    for chunk in RUN_CHUNKS:
        chunked.run(chunk)
    assert _state_digest(chunked) == reference


@pytest.mark.parametrize("name,kwargs", DCRA_VARIANTS, ids=_spec_id)
def test_run_fast_bitwise_dcra_variants(name, kwargs):
    """DCRA's fast-forward stays exact across its configurations."""
    policy = (name, kwargs)
    benchmarks = MIXES["fma3d+mesa"]
    reference = _state_digest(_stepped(policy, benchmarks))
    fast = _processor(policy, benchmarks)
    run_fast(fast, CYCLES)
    assert _state_digest(fast) == reference


@pytest.mark.parametrize("name,kwargs", [("DCRA", {}),
                                         ("DCRA-ADAPT", {"window": 256})],
                         ids=_spec_id)
def test_run_fast_resumes_from_restore(name, kwargs):
    """``run_fast`` to mid-run, capture, restore into a fresh processor
    and ``run_fast`` on: the stepped state, although the restored
    policy starts with no caps or gate computed."""
    policy = (name, kwargs)
    benchmarks = MIXES["fma3d+mesa"]
    reference = _state_digest(_stepped(policy, benchmarks))
    first = _processor(policy, benchmarks)
    run_fast(first, 700)
    state = json.loads(json.dumps(first.capture_state()))
    resumed = _processor(policy, benchmarks)
    resumed.restore_state(state)
    run_fast(resumed, CYCLES - 700)
    assert _state_digest(resumed) == reference


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
