"""Content-addressed result store and the shared cache-key helpers.

Repeated sweeps — seed replications, warm-up tuning, CI reruns, a
scenario suite regenerated after a doc edit — used to recompute every
:class:`~repro.metrics.stats.SimulationResult` from scratch; the only
thing memoised across runs was the Hmean baseline.  This module
generalises that baseline cache into a store for *any* simulation
payload, keyed by content:

* :func:`source_fingerprint` — one content hash of the installed
  ``repro`` source tree, shared by every disk cache (the baseline cache
  and this store), so any simulator edit invalidates everything at once
  with no manual version bump.
* :func:`cache_key` — the one descriptor-hashing rule (SHA-256 of the
  ``|``-joined parts) every cache key goes through.
* :func:`job_token` — the canonical identity of a
  :class:`~repro.harness.engine.SimJob`: benchmarks, policy (kwargs in
  sorted order), full config ``repr``, cycles, the warm-up cache token
  (fixed counts and steady-state parameterisations can never collide —
  see :func:`~repro.harness.warmup.warmup_cache_token`), seed and
  interval chunking.  The bookkeeping ``tag`` is deliberately excluded.
* :class:`ResultStore` — one JSON file per entry under
  ``$REPRO_CACHE_DIR/results/``, written atomically, holding a
  serialised :class:`~repro.metrics.stats.SimulationResult`,
  :class:`~repro.harness.runner.IntervalRun` or
  :class:`~repro.metrics.intervals.PhaseTimeline`.  Deserialisation is
  exact (JSON round-trips Python floats bitwise), so a store hit is
  indistinguishable from recomputation — the property the engine's
  ``reuse`` modes (and the scenario CI job) rely on.

Reuse modes
-----------
Everything that runs jobs through the engine accepts ``reuse``:

``"off"``
    Never consult the store (the default for the low-level engine
    calls — behaviour identical to before the store existed).
``"auto"``
    Serve stored results, compute and store the misses.  Because every
    job is deterministic, auto-reuse never changes output — it only
    skips simulations.
``"require"``
    Serve stored results and *raise* :class:`ResultStoreMiss` on any
    miss.  A passing ``require`` run is an executable proof that zero
    simulations were needed — tests and CI use it to pin warm-store
    reruns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.harness.warmup import warmup_cache_token
from repro.metrics.intervals import (
    IntervalRecorder,
    IntervalSnapshot,
    PhaseTimeline,
    ThreadIntervalDelta,
)
from repro.metrics.stats import SimulationResult, ThreadResult
from repro.pipeline.config import SMTConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.engine import SimJob
    from repro.harness.runner import IntervalRun

#: Bump on deliberate store-format changes; code-change staleness is
#: handled automatically by :func:`source_fingerprint`.
RESULT_STORE_VERSION = 1

#: Reuse modes accepted everywhere a ``reuse`` parameter appears.
REUSE_MODES = ("off", "auto", "require")

_fingerprint_cache: Optional[str] = None


def source_fingerprint() -> str:
    """Content hash of the installed ``repro`` source tree.

    Part of every disk-cache key (the baseline cache and the result
    store): any edit to the simulator source changes the fingerprint,
    so entries written by older code can never be served silently — no
    manual version bump required.  Falls back to a constant marker when
    the source is unreadable (e.g. a frozen install).
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        digest = hashlib.sha256()
        try:
            import repro

            root = Path(repro.__file__).parent
            for path in sorted(root.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(path.read_bytes())
            _fingerprint_cache = digest.hexdigest()[:16]
        except OSError:
            _fingerprint_cache = "unknown-source"
    return _fingerprint_cache


def cache_key(*parts: str) -> str:
    """The one descriptor-hashing rule every disk cache shares.

    SHA-256 of the ``|``-joined parts; the parts themselves must
    already be canonical strings (``repr`` for configs, the warm-up
    cache token for warm-up specs).
    """
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def normalize_reuse(reuse) -> str:
    """Validate a ``reuse`` argument; None means ``"off"``."""
    mode = "off" if reuse is None else reuse
    if mode not in REUSE_MODES:
        raise ValueError(
            f"unknown reuse mode {reuse!r} (expected one of {REUSE_MODES})")
    return mode


def policy_token(policy) -> str:
    """Canonical identity string of a :data:`PolicySpec`.

    Parameterised policies sort their kwargs so two spellings of the
    same parameterisation key identically; values are ``repr``-ed (the
    frozen policy-config dataclasses all have stable reprs).
    """
    if isinstance(policy, tuple):
        name, kwargs = policy
        inner = ",".join(f"{key}={kwargs[key]!r}" for key in sorted(kwargs))
        return f"{name}({inner})"
    return str(policy)


def job_token(job: "SimJob") -> str:
    """The full identity of one simulation job, as a descriptor string.

    Everything that can influence the result participates: benchmarks,
    policy, the complete config ``repr`` (None normalises to the
    Table 2 baseline it runs as), measured cycles, the warm-up cache
    token, the seed, and the interval chunk size.  ``tag`` is
    bookkeeping and deliberately excluded.  Interval chunking cannot
    change results (the interval refactor's invariant) but is keyed
    anyway — a defect breaking that invariant must surface as a wrong
    result, never be papered over by a shared store entry.
    """
    config = job.config if job.config is not None else SMTConfig()
    token = (f"{'+'.join(job.benchmarks)}|{policy_token(job.policy)}|"
             f"{config!r}|{job.cycles}|{warmup_cache_token(job.warmup)}|"
             f"{job.seed}|{job.interval_cycles}")
    warmup_policy = getattr(job, "warmup_policy", None)
    if warmup_policy is not None:
        # Warm-up forking changes the measured state (the prefix ran
        # under a different policy), so it participates in the token —
        # but only when set, keeping every pre-existing token stable.
        token += f"|wp={policy_token(warmup_policy)}"
    return token


#: Names of the ``|``-separated :func:`job_token` components, in order,
#: for miss diagnostics (``warmup_policy`` only present when forking).
JOB_TOKEN_COMPONENTS = (
    "benchmarks", "policy", "config", "cycles", "warmup", "seed",
    "interval_cycles", "warmup_policy")


def _shorten(text: str, limit: int = 64) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def nearest_entry_diff(token: str, stored: Sequence[str],
                       components: Sequence[str]) -> str:
    """Explain a cache miss by naming how the nearest entry differs.

    Splits the missing ``token`` and every ``stored`` token on ``|``
    (all token grammars in this package keep ``|`` out of component
    values), picks the stored token with the fewest differing
    components, and names those components with truncated values.  A
    bare content digest tells a user nothing; "nearest stored entry
    differs in seed: '1' != '2'" is actionable.
    """
    if not stored:
        return "the store has no entries of this kind at all"
    want = token.split("|")
    best = None
    for other in set(stored):
        have = other.split("|")
        width = max(len(want), len(have))
        left = want + ["<absent>"] * (width - len(want))
        right = have + ["<absent>"] * (width - len(have))
        names = (list(components)
                 + [f"component[{i}]" for i in range(len(components), width)])
        diffs = [f"{name}: {_shorten(a)!r} != {_shorten(b)!r}"
                 for name, a, b in zip(names, left, right) if a != b]
        if best is None or len(diffs) < len(best):
            best = diffs
    if not best:
        return ("an identical token is stored, but under a different "
                "source fingerprint or store version (stale entry)")
    return "nearest stored entry differs in " + "; ".join(best)


class ResultStoreMiss(KeyError):
    """Raised by ``reuse="require"`` when a job has no stored result."""


# --------------------------------------------------------------------------
# Payload (de)serialisation — exact round-trips, plain JSON types only
# --------------------------------------------------------------------------

def result_to_payload(result: SimulationResult) -> dict:
    """Serialise a :class:`SimulationResult` to JSON-compatible data."""
    return {
        "policy": result.policy,
        "cycles": result.cycles,
        "threads": [dataclasses.asdict(thread) for thread in result.threads],
        "avg_l2_overlap": result.avg_l2_overlap,
        "warmup_cycles": result.warmup_cycles,
    }


def result_from_payload(payload: dict) -> SimulationResult:
    """Exact inverse of :func:`result_to_payload`."""
    return SimulationResult(
        policy=payload["policy"],
        cycles=payload["cycles"],
        threads=[ThreadResult(**thread) for thread in payload["threads"]],
        avg_l2_overlap=payload["avg_l2_overlap"],
        warmup_cycles=payload["warmup_cycles"],
    )


def _snapshot_to_payload(snapshot: IntervalSnapshot) -> dict:
    return {
        "index": snapshot.index,
        "start_cycle": snapshot.start_cycle,
        "cycles": snapshot.cycles,
        "threads": [list(dataclasses.astuple(t)) for t in snapshot.threads],
        "l2_overlap_sum": snapshot.l2_overlap_sum,
        "l2_overlap_samples": snapshot.l2_overlap_samples,
        "phase_counts": (list(snapshot.phase_counts)
                         if snapshot.phase_counts is not None else None),
    }


def _snapshot_from_payload(payload: dict) -> IntervalSnapshot:
    return IntervalSnapshot(
        index=payload["index"],
        start_cycle=payload["start_cycle"],
        cycles=payload["cycles"],
        threads=tuple(ThreadIntervalDelta(*row)
                      for row in payload["threads"]),
        l2_overlap_sum=payload["l2_overlap_sum"],
        l2_overlap_samples=payload["l2_overlap_samples"],
        phase_counts=(tuple(payload["phase_counts"])
                      if payload["phase_counts"] is not None else None),
    )


def interval_run_to_payload(run: "IntervalRun") -> dict:
    """Serialise an :class:`~repro.harness.runner.IntervalRun` — the
    aggregate result plus every recorded snapshot (warm-up included)."""
    return {
        "result": result_to_payload(run.result),
        "interval_cycles": run.interval_cycles,
        "warmup_cycles": run.warmup_cycles,
        "warmup_converged": run.warmup_converged,
        "snapshots": [_snapshot_to_payload(s) for s in run.recorder.snapshots],
        "discarded": [_snapshot_to_payload(s) for s in run.recorder.discarded],
    }


def interval_run_from_payload(payload: dict) -> "IntervalRun":
    """Exact inverse of :func:`interval_run_to_payload`."""
    from repro.harness.runner import IntervalRun

    recorder = IntervalRecorder()
    for entry in payload["discarded"]:
        recorder.record(_snapshot_from_payload(entry), discard=True)
    for entry in payload["snapshots"]:
        recorder.record(_snapshot_from_payload(entry))
    return IntervalRun(
        result=result_from_payload(payload["result"]),
        recorder=recorder,
        interval_cycles=payload["interval_cycles"],
        warmup_cycles=payload["warmup_cycles"],
        warmup_converged=payload["warmup_converged"],
    )


def timeline_to_payload(timeline: PhaseTimeline) -> dict:
    """Serialise a :class:`PhaseTimeline` (the Table 5 data model)."""
    return {
        "num_threads": timeline.num_threads,
        "entries": [[cycles, list(counts)]
                    for cycles, counts in timeline.entries],
    }


def timeline_from_payload(payload: dict) -> PhaseTimeline:
    """Exact inverse of :func:`timeline_to_payload`."""
    return PhaseTimeline(
        num_threads=payload["num_threads"],
        entries=tuple((cycles, tuple(counts))
                      for cycles, counts in payload["entries"]),
    )


#: Payload kinds a store entry can hold, with their (de)serialisers.
_PAYLOAD_CODECS = {
    "result": (result_to_payload, result_from_payload),
    "intervals": (interval_run_to_payload, interval_run_from_payload),
    "phase_timeline": (timeline_to_payload, timeline_from_payload),
}


@dataclass
class StoreStats:
    """In-process counters of one :class:`ResultStore`'s traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


class ResultStore:
    """Disk-backed, process-safe, content-addressed simulation results.

    The generalisation of the baseline cache to full results:

    * Entries live under ``$REPRO_CACHE_DIR/results/`` (defaulting to
      ``~/.cache/repro-dcra/results/``), one JSON file per entry.  The
      environment variable is re-read on every access, so tests and
      drivers can redirect the store without re-importing.
    * The file name is :func:`cache_key` over
      (:data:`RESULT_STORE_VERSION`, :func:`source_fingerprint`, the
      payload kind, and the full :func:`job_token`).  Changing *any*
      input — including any line of simulator code — misses rather
      than serving a stale value.
    * Writes go to a temporary file followed by :func:`os.replace`:
      concurrent readers see either the complete entry or none, and
      racing writers deterministically write identical content.
    * Disk I/O is best-effort: an unreadable or unwritable store
      degrades to the in-memory dictionary without failing the run.

    ``stats`` counts this process's hits/misses/stores — the scenario
    CLI reports them and the CI reuse job asserts on them.  Instances
    are thread-safe: concurrent driver threads (e.g. the streaming
    ``run_all_experiments.py`` artefacts) share one store, so counter
    updates and memory-layer mutations take a lock.
    """

    def __init__(self) -> None:
        import threading

        self._memory: Dict[str, object] = {}
        self._lock = threading.Lock()
        self.stats = StoreStats()

    @staticmethod
    def directory() -> Path:
        """Resolve the store directory (honours ``REPRO_CACHE_DIR``)."""
        root = os.environ.get("REPRO_CACHE_DIR")
        base = Path(root) if root else Path.home() / ".cache" / "repro-dcra"
        return base / "results"

    @staticmethod
    def key_for(job: "SimJob", kind: str = "result") -> str:
        """Content key of one job's stored payload."""
        if kind not in _PAYLOAD_CODECS:
            raise ValueError(f"unknown payload kind {kind!r}")
        return cache_key(f"v{RESULT_STORE_VERSION}", source_fingerprint(),
                         kind, job_token(job))

    def get(self, job: "SimJob", kind: str = "result"):
        """Stored payload for a job, or None on a miss."""
        key = self.key_for(job, kind)
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
        try:
            with open(self.directory() / f"{key}.json") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            value = _PAYLOAD_CODECS[kind][1](payload["data"])
        except (KeyError, TypeError, IndexError, ValueError):
            # A corrupt or truncated entry is a miss, never a crash
            # (the class contract: disk problems degrade silently).
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            self._memory[key] = value
            self.stats.hits += 1
        return value

    def put(self, job: "SimJob", value, kind: str = "result") -> None:
        """Store one payload in memory and (best-effort) on disk."""
        key = self.key_for(job, kind)
        with self._lock:
            self._memory[key] = value
            self.stats.stores += 1
        payload = json.dumps({
            "version": RESULT_STORE_VERSION,
            "kind": kind,
            "job": job_token(job),
            "data": _PAYLOAD_CODECS[kind][0](value),
        })
        directory = self.directory()
        path = directory / f"{key}.json"
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp = directory / f".{key}.{os.getpid()}.tmp"
            tmp.write_text(payload)
            os.replace(tmp, path)
        except OSError:
            pass

    def contains(self, job: "SimJob", kind: str = "result") -> bool:
        """Whether a stored entry exists, without touching the counters.

        A statistics-free probe (memory layer, then file existence) for
        planning phases — e.g. deciding which warm-up prefixes a sweep
        still needs — that must not distort the hit/miss accounting of
        the run itself.
        """
        key = self.key_for(job, kind)
        with self._lock:
            if key in self._memory:
                return True
        try:
            return (self.directory() / f"{key}.json").exists()
        except OSError:
            return False

    def stored_tokens(self, kind: str = "result") -> list:
        """Job tokens of every on-disk entry of ``kind`` (any fingerprint).

        Entry files carry their plain-text job token precisely so miss
        diagnostics can compare against them; unreadable files are
        skipped (best-effort, like all store disk I/O).
        """
        tokens = []
        try:
            paths = list(self.directory().glob("*.json"))
        except OSError:
            return tokens
        for path in paths:
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if payload.get("kind") == kind and \
                    isinstance(payload.get("job"), str):
                tokens.append(payload["job"])
        return tokens

    def require(self, job: "SimJob", kind: str = "result"):
        """Like :meth:`get` but raising :class:`ResultStoreMiss` on a miss.

        The miss message names the token components in which the
        nearest stored entry differs (see :func:`nearest_entry_diff`)
        instead of leaving the user to decode an opaque digest.
        """
        value = self.get(job, kind)
        if value is None:
            token = job_token(job)
            raise ResultStoreMiss(
                f"no stored {kind} for job {token} "
                f"(reuse='require' on a cold store?); "
                + nearest_entry_diff(token, self.stored_tokens(kind),
                                     JOB_TOKEN_COMPONENTS))
        return value

    def clear(self, disk: bool = False) -> None:
        """Drop in-memory entries; with ``disk=True`` also wipe the files."""
        with self._lock:
            self._memory.clear()
        if disk:
            shutil.rmtree(self.directory(), ignore_errors=True)

    def reset_stats(self) -> StoreStats:
        """Swap in fresh counters, returning the old ones."""
        with self._lock:
            old = self.stats
            self.stats = StoreStats()
        return old


#: The process-wide result store instance (mirrors ``baseline_cache``).
result_store = ResultStore()


def resolve_store(store: Optional[ResultStore]) -> ResultStore:
    """The store to use: an explicit instance or the process-wide one."""
    return store if store is not None else result_store
