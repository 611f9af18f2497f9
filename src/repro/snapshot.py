"""The StateSnapshot protocol: uniform snapshot/restore for components.

Every stateful simulator component — caches, TLBs, MSHRs, branch
predictor structures, trace generators, threads, policies and the
:class:`~repro.pipeline.processor.SMTProcessor` that composes them —
implements the same two methods:

``capture_state() -> dict``
    A deterministic, JSON-safe description of the component's *mutable*
    state.  Plain data only (dicts keyed by strings, lists, strings,
    ints, floats, bools, None): the same component state always
    captures to the same tree, two trees compare with ``==``, and a
    tree survives a ``json.dumps``/``loads`` round-trip bitwise (JSON
    round-trips Python floats exactly).  Configuration-derived state (sizes, masks,
    latencies, lookup tables built from the config) is *not* captured —
    restore targets are freshly constructed components that already
    carry it.

``restore_state(state) -> None``
    Overwrite the component's mutable state from a captured tree.  The
    contract — pinned by the checkpoint equivalence test suite exactly
    like the interval-vs-monolithic invariant — is that running a
    restored component is bitwise-indistinguishable from running the
    component it was captured from.

The ``reset_stats`` fan-out is the traversal template: the processor's
:meth:`capture_state` visits the same component tree, and each composite
(memory hierarchy, branch unit) delegates to its parts.

Versioning
----------
Processor-level snapshots carry :data:`SNAPSHOT_VERSION`; a mismatch
raises :class:`SnapshotError` rather than restoring garbage.  Component
trees are not individually versioned — they are only ever embedded in a
versioned processor snapshot or a fingerprinted checkpoint entry (see
:mod:`repro.harness.checkpoints`), both of which invalidate on any
source change.
"""

from __future__ import annotations

import base64
import struct
from typing import List, Sequence, Tuple

try:  # pragma: no cover - typing nicety only
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old interpreters
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        return cls


#: Version stamp of processor-level snapshot trees.  Bump on deliberate
#: format changes; code-change staleness of *stored* checkpoints is
#: handled by the source fingerprint in the checkpoint store key.
SNAPSHOT_VERSION = 2


class SnapshotError(ValueError):
    """A snapshot tree cannot be restored (wrong version or shape)."""


@runtime_checkable
class StateSnapshot(Protocol):
    """Structural protocol every snapshottable component satisfies."""

    def capture_state(self) -> dict:  # pragma: no cover - protocol stub
        ...

    def restore_state(self, state: dict) -> None:  # pragma: no cover
        ...


def check_version(state: dict, who: str) -> None:
    """Reject snapshot trees written by a different protocol version."""
    version = state.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{who} snapshot version {version!r} does not match this "
            f"build's version {SNAPSHOT_VERSION}")


def bytes_to_b64(data: bytes) -> str:
    """A byte table as one base64 string: one JSON string parses far
    faster than one JSON int per byte."""
    return base64.b64encode(data).decode("ascii")


def b64_to_bytes(text: str) -> bytes:
    """Exact inverse of :func:`bytes_to_b64`."""
    return base64.b64decode(text)


def words_to_b64(words: Sequence[int]) -> str:
    """uint32 words as base64 of their little-endian bytes."""
    return bytes_to_b64(struct.pack(f"<{len(words)}I", *words))


def b64_to_words(text: str) -> Tuple[int, ...]:
    """Exact inverse of :func:`words_to_b64`."""
    data = b64_to_bytes(text)
    return struct.unpack(f"<{len(data) // 4}I", data)


def rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` as JSON-safe plain data, the 625
    Mersenne Twister words packed by :func:`words_to_b64`."""
    version, internal, gauss_next = state
    return [version, words_to_b64(internal), gauss_next]


def rng_state_from_json(data: Sequence) -> tuple:
    """Exact inverse of :func:`rng_state_to_json`."""
    version, internal, gauss_next = data
    return (version, b64_to_words(internal), gauss_next)


def int_dict_to_pairs(mapping: dict) -> List[list]:
    """An int-keyed dict as a sorted ``[key, value]`` pair list.

    JSON objects key by string; integer-keyed lookup tables (branch
    sites, PC classes) are captured as sorted pair lists instead so the
    tree is canonical and the keys survive the round-trip as ints.
    """
    return [[key, mapping[key]] for key in sorted(mapping)]


def int_dict_from_pairs(pairs: Sequence[Sequence]) -> dict:
    """Exact inverse of :func:`int_dict_to_pairs`."""
    return {int(key): value for key, value in pairs}
