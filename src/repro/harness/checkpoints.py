"""Content-addressed warm-up checkpoints: capture once, fork many.

Every job in a sweep repeats the same expensive prefix — construct the
simulator, warm it to the measurement boundary — before the part that
actually differs.  This module stores that boundary state (a
:meth:`~repro.pipeline.processor.SMTProcessor.capture_state` tree plus
warm-up provenance) in :class:`CheckpointStore`, a kind of the store
core every harness cache shares
(:class:`~repro.harness.results.ContentStore`): keyed by content under
the source fingerprint, so a stored checkpoint can never be served
across a simulator edit, and gzipped.

A checkpoint's identity is its :func:`prefix_token` — everything that
determines the state at the warm-up boundary:

* benchmarks, policy (the *warm-up* policy when forking), config, seed:
  the same components a :func:`~repro.harness.results.job_token` keys,
  minus measured cycles and chunking (the boundary precedes both);
* the warm-up spec token
  (:func:`~repro.harness.warmup.warmup_cache_token`);
* a boundary token (:func:`warmup_boundary_token`): fixed warm-up
  reaches the identical state in any chunking (``"mono"``), but an
  *adaptive* warm-up's state depends on its chunk size and on whether
  phase tracking was live (interval mode), so those key separately.

The invariant — pinned by the checkpoint test suite — is that a run
forked from a stored checkpoint is **bitwise identical** to the
uninterrupted run: same result, same interval snapshots, same timeline.

Checkpoint modes are the result store's reuse modes: ``None``/``"off"``
(never touch the store), ``"auto"`` (restore hits, compute-and-store
misses) and ``"require"`` (raise :class:`CheckpointMiss` on a cold
store — the miss message names the token components that differ from
the nearest stored entry, see
:func:`~repro.harness.results.nearest_entry_diff`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.harness.results import (
    REUSE_MODES,
    ContentStore,
    normalize_reuse,
    policy_token,
)
from repro.harness.warmup import WarmupSpec, as_warmup_policy, warmup_cache_token
from repro.pipeline.config import SMTConfig

#: Checkpoint modes accepted wherever a ``checkpoint`` parameter
#: appears: the result store's reuse modes.
CHECKPOINT_MODES = REUSE_MODES

#: Names of the ``|``-separated :func:`prefix_token` components, for
#: miss diagnostics.
PREFIX_TOKEN_COMPONENTS = (
    "benchmarks", "policy", "config", "warmup", "seed", "boundary")


class CheckpointMiss(KeyError):
    """Raised by ``checkpoint="require"`` when no stored prefix exists."""


def normalize_checkpoint(checkpoint) -> str:
    """Validate a ``checkpoint`` argument; None means ``"off"``."""
    return normalize_reuse(checkpoint, "checkpoint")


def warmup_boundary_token(plan, interval_cycles: Optional[int]) -> str:
    """How the warm-up boundary was reached, as a token component.

    Fixed warm-up leaves the identical state however the run is later
    chunked (phase tracking only starts with the measured window), so
    it is always ``"mono"``.  Adaptive warm-up simulates in chunks of a
    size that depends on the run mode, and interval-mode warm-up runs
    with phase tracking live — both visible in the boundary state — so
    monolithic (``"mono:<chunk>"``) and interval (``"intervals:<chunk>"``)
    resolutions key separately.

    Args:
        plan: a normalised :class:`~repro.harness.warmup.WarmupPolicy`.
        interval_cycles: the run's interval chunk size, or None for a
            monolithic run.
    """
    if not plan.is_adaptive:
        return "mono"
    # Deferred: runner builds on this module's store, not the reverse.
    from repro.harness.runner import DEFAULT_INTERVAL_CYCLES

    if interval_cycles is None:
        chunk = plan.interval_cycles or DEFAULT_INTERVAL_CYCLES
        return f"mono:{chunk}"
    chunk = plan.interval_cycles or interval_cycles
    return f"intervals:{chunk}"


def prefix_token(
    benchmarks: Sequence[str],
    policy,
    config: Optional[SMTConfig],
    warmup: WarmupSpec,
    seed: int,
    boundary: str,
) -> str:
    """Canonical identity of one warm-up prefix (see module docstring)."""
    config = config if config is not None else SMTConfig()
    return (f"{'+'.join(benchmarks)}|{policy_token(policy)}|{config!r}|"
            f"{warmup_cache_token(warmup)}|{seed}|{boundary}")


def job_prefix_token(job) -> Optional[str]:
    """The warm-up prefix token of a :class:`~repro.harness.engine.SimJob`.

    Returns None for jobs with no warm-up prefix to share (a fixed
    warm-up of zero cycles): there is nothing worth checkpointing.
    The prefix runs under ``job.warmup_policy`` when set (warm-up
    forking), else under the job's own policy.
    """
    plan = as_warmup_policy(job.warmup)
    if not plan.is_adaptive and plan.cycles == 0:
        return None
    boundary = warmup_boundary_token(plan, job.interval_cycles)
    prefix_policy = (job.warmup_policy if job.warmup_policy is not None
                     else job.policy)
    return prefix_token(job.benchmarks, prefix_policy, job.config,
                        job.warmup, job.seed, boundary)


#: The fields every checkpoint payload carries (see
#: :func:`~repro.harness.runner.compute_warmup_checkpoint`).
_PAYLOAD_FIELDS = frozenset(
    ("policy", "warmup_cycles", "warmup_converged", "discarded", "state"))


def _checked_payload(payload: dict) -> dict:
    """A checkpoint payload, unchanged, once it has every field a restore
    reads (a payload is plain JSON data both ways)."""
    if not _PAYLOAD_FIELDS <= payload.keys():
        raise ValueError("not a checkpoint payload")
    return payload


class CheckpointStore(ContentStore):
    """Warm-up boundary states, keyed by :func:`prefix_token`: the
    ``checkpoints/`` store kind.

    Entries are gzipped — a full processor state tree is a few hundred
    kB to a few MB of JSON and compresses well.  The mechanics (key,
    atomic writes, memory layer, counters, listing and pruning) are the
    shared :class:`~repro.harness.results.ContentStore` core; ``stats``
    is what the scenario layer reports and the CI prefix-reuse job
    asserts on.
    """

    subdir = "checkpoints"
    gzipped = True
    codecs = {"checkpoint": (_checked_payload, _checked_payload)}
    components = PREFIX_TOKEN_COMPONENTS

    @classmethod
    def key_for(cls, token: str) -> str:
        """Content key of one prefix's stored checkpoint."""
        return cls._key("checkpoint", token)

    def get(self, token: str) -> Optional[dict]:
        """Stored checkpoint payload for a prefix, or None on a miss."""
        return self._get("checkpoint", token)

    def put(self, token: str, payload: dict) -> None:
        """Store one checkpoint in memory and (best-effort) on disk."""
        self._put("checkpoint", token, payload)

    def require(self, token: str) -> dict:
        """Like :meth:`get` but raising :class:`CheckpointMiss` on a miss.

        The message names the token components in which the nearest
        stored checkpoint differs — "same prefix, different seed" is
        actionable where a bare content digest is not.
        """
        payload = self.get(token)
        if payload is None:
            raise CheckpointMiss(
                f"no stored checkpoint for prefix {token!r} "
                f"(checkpoint='require' on a cold store?); "
                + self.explain_miss("checkpoint", token))
        return payload


#: The process-wide checkpoint store (mirrors ``result_store``).
checkpoint_store = CheckpointStore()


def resolve_checkpoint_store(
        store: Optional[CheckpointStore]) -> CheckpointStore:
    """The store to use: an explicit instance or the process-wide one."""
    return store if store is not None else checkpoint_store
