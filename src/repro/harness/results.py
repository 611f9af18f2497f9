"""The content-addressed store core, the result store, and the shared
cache-key helpers.

Every disk cache of the harness is a kind of one store core,
:class:`ContentStore`: simulation results (:class:`ResultStore`, here),
warm-up checkpoints (:class:`~repro.harness.checkpoints.CheckpointStore`)
and the single-thread Hmean baselines
(:class:`~repro.harness.runner.BaselineCache`).  A kind names its
directory, token, payload codec and whether entries are gzipped; the
core owns the rest once: the cache root (:func:`cache_root`), the key
(:func:`cache_key` under :func:`source_fingerprint`), the entry format,
the one write path (:func:`atomic_write`), the memory layer, counters,
miss diagnostics (:func:`nearest_entry_diff`), listing and pruning.

A :class:`ResultStore` entry holds a serialised
:class:`~repro.metrics.stats.SimulationResult`,
:class:`~repro.harness.runner.IntervalRun` or
:class:`~repro.metrics.intervals.PhaseTimeline` under its
:func:`job_token` — the canonical identity of a
:class:`~repro.harness.engine.SimJob`: benchmarks, policy (kwargs in
sorted order), full config ``repr``, cycles, the warm-up cache token
(fixed counts and steady-state parameterisations can never collide —
see :func:`~repro.harness.warmup.warmup_cache_token`), seed and
interval chunking; the bookkeeping ``tag`` is deliberately excluded.
Deserialisation is exact (JSON round-trips Python floats bitwise), so a
store hit is indistinguishable from recomputation — the property the
engine's ``reuse`` modes (and the scenario CI job) rely on.

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

Warm-up checkpoint modes (``checkpoint=``, see
:mod:`repro.harness.checkpoints`) are the same three and go through the
same validator, :func:`normalize_reuse`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
)

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

#: Bump on deliberate changes to the entry format of any store kind;
#: code-change staleness is handled by :func:`source_fingerprint`.
STORE_VERSION = 2

#: Reuse modes accepted everywhere a ``reuse`` parameter appears.
REUSE_MODES = ("off", "auto", "require")

#: gzip level of gzipped kinds: the fastest, as level 9 takes about ten
#: times as long to write an entry about 15% smaller.
_GZIP_LEVEL = 1

_fingerprint_cache: Optional[str] = None


def source_fingerprint() -> str:
    """Content hash of the installed ``repro`` source tree.

    Part of every store key: any edit to the simulator source changes
    the fingerprint, so entries written by older code can never be
    served silently — no manual version bump required.  Falls back to a constant marker when
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


def normalize_reuse(reuse, what: str = "reuse") -> str:
    """Validate a ``reuse`` (or, with ``what="checkpoint"``, a
    ``checkpoint``) mode argument; None means ``"off"``."""
    mode = "off" if reuse is None else reuse
    if mode not in REUSE_MODES:
        raise ValueError(
            f"unknown {what} mode {reuse!r} (expected one of {REUSE_MODES})")
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
    """In-process counters of one store's traffic."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}


#: What reading or decoding a damaged entry can raise: I/O and gzip
#: errors, malformed JSON, and data of the wrong shape.
_UNREADABLE = (OSError, EOFError, zlib.error, ValueError, LookupError,
               TypeError, AttributeError)


def cache_root() -> Path:
    """Root directory of every disk cache and of the broker spool.

    ``$REPRO_CACHE_DIR``, else ``~/.cache/repro-dcra``.  Re-read on
    every call, so tests and drivers can redirect the caches without
    re-importing.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    return Path(root) if root else Path.home() / ".cache" / "repro-dcra"


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that readers see all of it or nothing.

    The bytes go to a temporary file of its own in the target directory
    (never shared with another thread or process), which then replaces
    ``path`` in one :func:`os.replace`.  Raises OSError; the temporary
    file does not outlive a failed write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class ContentStore:
    """Disk-backed, process-safe, content-addressed store: the core of
    every store kind.

    A kind is a subclass that names its subdirectory of
    :func:`cache_root`, whether its entries are gzipped, its payload
    codecs and its token components, and that builds the token from its
    own ``get``/``put`` arguments.  Everything else is shared:

    * **Entry.** One file per entry holding the JSON object
      ``{version, fingerprint, kind, token, data}`` (gzipped for gzipped
      kinds), where ``data`` is the encoded payload.
    * **Key.** The file stem is :func:`cache_key` over
      ``v{STORE_VERSION}``, :func:`source_fingerprint`, the payload kind
      and the token, so changing any input, including any line of
      simulator code, misses rather than serving a stale value.
    * **Write.** :func:`atomic_write`; a put whose entry file already
      exists leaves it alone (same key, same bytes).  Disk I/O is
      best-effort: an unwritable store degrades to the memory layer.
    * **Read.** The memory layer first, then the file, read and decoded
      once.  Any failure to read or decode is a miss and removes the
      file, so the next put writes it afresh.
    * ``stats`` counts this process's hits, misses and stores.
      Instances are thread-safe: concurrent driver threads share one
      store, so counters and the memory layer sit behind a lock.
    """

    #: Subdirectory of :func:`cache_root` holding this kind's entries.
    subdir = ""
    #: Whether entries are gzipped (``*.json.gz``) or plain (``*.json``).
    gzipped = False
    #: Payload kind -> ``(encode, decode)`` between values and JSON data.
    codecs: Dict[str, Tuple[Callable, Callable]] = {}
    #: Names of the ``|``-separated token components, for miss diagnostics.
    components: Sequence[str] = ()

    def __init__(self) -> None:
        self._memory: Dict[str, object] = {}
        self._lock = threading.Lock()
        self.stats = StoreStats()

    @classmethod
    def directory(cls) -> Path:
        """This kind's entry directory (honours ``REPRO_CACHE_DIR``)."""
        return cache_root() / cls.subdir

    @classmethod
    def _codec(cls, kind: str) -> Tuple[Callable, Callable]:
        try:
            return cls.codecs[kind]
        except KeyError:
            raise ValueError(f"unknown payload kind {kind!r}") from None

    @staticmethod
    def _key(kind: str, token: str) -> str:
        return cache_key(f"v{STORE_VERSION}", source_fingerprint(), kind,
                         token)

    def _path(self, key: str) -> Path:
        return self.directory() / (key + self._suffix())

    @classmethod
    def _suffix(cls) -> str:
        return ".json.gz" if cls.gzipped else ".json"

    def _load(self, path: Path):
        raw = path.read_bytes()
        return json.loads(gzip.decompress(raw) if self.gzipped else raw)

    def _get(self, kind: str, token: str):
        """The stored value of ``(kind, token)``, or None on a miss."""
        decode = self._codec(kind)[1]
        key = self._key(kind, token)
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self.stats.hits += 1
                return value
        path = self._path(key)
        try:
            entry = self._load(path)
            if (entry["version"], entry["kind"], entry["token"]) != \
                    (STORE_VERSION, kind, token):
                raise ValueError("entry does not match its key")
            value = decode(entry["data"])
        except FileNotFoundError:
            pass
        except _UNREADABLE:
            with contextlib.suppress(OSError):
                path.unlink()
        with self._lock:
            if value is None:
                self.stats.misses += 1
            else:
                self._memory[key] = value
                self.stats.hits += 1
        return value

    def _put(self, kind: str, token: str, value) -> None:
        """Store ``value`` in memory and, unless already there, on disk."""
        encode = self._codec(kind)[0]
        key = self._key(kind, token)
        with self._lock:
            self._memory[key] = value
            self.stats.stores += 1
        path = self._path(key)
        if os.path.exists(path):
            return
        data = json.dumps({
            "version": STORE_VERSION, "fingerprint": source_fingerprint(),
            "kind": kind, "token": token, "data": encode(value),
        }).encode()
        if self.gzipped:
            data = gzip.compress(data, compresslevel=_GZIP_LEVEL, mtime=0)
        try:
            atomic_write(path, data)
        except OSError:
            pass

    def _contains(self, kind: str, token: str) -> bool:
        key = self._key(kind, token)
        with self._lock:
            if key in self._memory:
                return True
        return os.path.exists(self._path(key))

    def _files(self) -> List[Tuple[Path, os.stat_result]]:
        """Every entry file with its ``stat``, oldest first."""
        files = []
        try:
            paths = list(self.directory().glob("*" + self._suffix()))
        except OSError:
            return files
        for path in paths:
            with contextlib.suppress(OSError):
                files.append((path, path.stat()))
        return sorted(files, key=lambda item: item[1].st_mtime)

    def list_entries(self) -> Iterator[dict]:
        """Every readable on-disk entry, newest first, one at a time.

        Each carries ``key`` (the file stem), ``kind``, ``token``,
        ``fingerprint``, ``current`` (written by this source tree?),
        ``size`` (bytes on disk), ``mtime`` and the decoded ``data``.
        Entries that cannot be read or decoded are skipped.
        """
        fingerprint = source_fingerprint()
        for path, stat in reversed(self._files()):
            try:
                entry = self._load(path)
                data = self._codec(entry["kind"])[1](entry["data"])
                token = entry["token"]
            except _UNREADABLE:
                continue
            if not isinstance(token, str):
                continue
            yield {"key": path.name[:-len(self._suffix())],
                   "kind": entry["kind"], "token": token,
                   "fingerprint": entry.get("fingerprint"),
                   "current": entry.get("fingerprint") == fingerprint,
                   "size": stat.st_size, "mtime": stat.st_mtime,
                   "data": data}

    def explain_miss(self, kind: str, token: str) -> str:
        """How the nearest stored entry of ``kind`` differs from ``token``
        (see :func:`nearest_entry_diff`); entries of any fingerprint count.
        """
        stored = [entry["token"] for entry in self.list_entries()
                  if entry["kind"] == kind]
        return nearest_entry_diff(token, stored, self.components)

    def remove(self, key_prefix: str) -> int:
        """Delete on-disk entries whose key starts with ``key_prefix``.

        Returns the number of files removed.  Works from file names, so
        unreadable entries go too; an empty prefix matches everything
        (the CLI requires an explicit argument).
        """
        removed = 0
        for path, _stat in self._files():
            if path.name.startswith(key_prefix):
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
        self.clear()
        return removed

    def gc(self, max_age_days: Optional[float] = None,
           max_total_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Expire old entries and enforce a total-size cap.

        Entries older than ``max_age_days`` are removed first; then, if
        the remaining size on disk still exceeds ``max_total_bytes``,
        the oldest entries are removed until it fits.  Returns
        ``(files_removed, bytes_freed)``.
        """
        removed = freed = 0
        files = self._files()
        total = sum(stat.st_size for _path, stat in files)
        now = time.time()
        for path, stat in files:  # oldest first
            expired = (max_age_days is not None
                       and now - stat.st_mtime > max_age_days * 86400)
            if not expired and (max_total_bytes is None
                                or total <= max_total_bytes):
                continue
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
                freed += stat.st_size
                total -= stat.st_size
        self.clear()
        return removed, freed

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


class ResultStore(ContentStore):
    """Simulation results, keyed by job: the ``results/`` store kind.

    Entries hold a serialised
    :class:`~repro.metrics.stats.SimulationResult` (payload kind
    ``"result"``), :class:`~repro.harness.runner.IntervalRun`
    (``"intervals"``) or :class:`~repro.metrics.intervals.PhaseTimeline`
    (``"phase_timeline"``) under the job's :func:`job_token`.  The
    mechanics (key, atomic writes, memory layer, counters) are the
    shared :class:`ContentStore` core.  ``stats`` is what the scenario
    CLI reports and the CI reuse job asserts on.
    """

    subdir = "results"
    codecs = _PAYLOAD_CODECS
    components = JOB_TOKEN_COMPONENTS

    @classmethod
    def key_for(cls, job: "SimJob", kind: str = "result") -> str:
        """Content key of one job's stored payload."""
        cls._codec(kind)  # rejects an unknown payload kind
        return cls._key(kind, job_token(job))

    def get(self, job: "SimJob", kind: str = "result"):
        """Stored payload for a job, or None on a miss."""
        return self._get(kind, job_token(job))

    def put(self, job: "SimJob", value, kind: str = "result") -> None:
        """Store one payload in memory and (best-effort) on disk."""
        self._put(kind, job_token(job), value)

    def contains(self, job: "SimJob", kind: str = "result") -> bool:
        """Whether a stored entry exists, without touching the counters.

        A statistics-free probe (memory layer, then file existence) for
        planning phases — e.g. deciding which warm-up prefixes a sweep
        still needs — that must not distort the hit/miss accounting of
        the run itself.
        """
        return self._contains(kind, job_token(job))

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
                + self.explain_miss(kind, token))
        return value


#: The process-wide result store instance (mirrors ``baseline_cache``).
result_store = ResultStore()


def resolve_store(store: Optional[ResultStore]) -> ResultStore:
    """The store to use: an explicit instance or the process-wide one."""
    return store if store is not None else result_store
