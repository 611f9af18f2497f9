"""Worker side of the remote execution protocol.

A worker is a process — on this machine or any other that can import
:mod:`repro` — that connects to a :class:`~repro.harness.broker.Broker`'s
listening socket (a shared ``repro broker serve`` or the private broker
of a :class:`~repro.harness.executors.RemoteExecutor`) and serves a pull
loop: receive a task, compute it, send the result back.  Run one per
core on each machine you want in the fleet::

    python -m repro.harness.remote_worker --connect HOST:PORT

Wire protocol (deliberately minimal):

* Every message is a 4-byte big-endian length prefix followed by a
  pickle payload — except the handshake, which is JSON.
* **Handshake** (protocol v2): the worker opens with the *JSON*
  message ``["hello", {"magic", "version", "token"}]`` —
  :data:`PROTOCOL_MAGIC`, :data:`PROTOCOL_VERSION`, and the SHA-256
  digest of ``$REPRO_REMOTE_TOKEN`` (null when unset).  The server
  answers JSON ``["welcome", {"version": ...}]`` and pickle task flow
  begins, or ``["reject", reason]`` and closes — a version or token
  mismatch is a clean, explained error on both ends, never a pickle
  crash mid-sweep.  JSON (plus a size cap on the hello) is deliberate:
  the server never unpickles a byte from a connection that has not
  authenticated, so an unauthenticated stranger cannot smuggle a
  malicious pickle through the handshake.  A worker that receives
  anything else first (a server predating the handshake) also fails
  cleanly.
* Server -> worker: ``("tasks", [blob, ...])`` — each blob a pickled
  ``(func, item)`` pair with ``func`` a picklable top-level callable —
  or ``("shutdown", None)``.  The broker sends one blob per message;
  the worker serves a list of any length.
* Worker -> server: zero or more ``("progress", position, event)``
  messages while a batch computes (``position`` indexes into the batch;
  events come from the worker's progress sink, see
  :mod:`repro.harness.progress`), then exactly one
  ``("results", [(ok, value), ...])`` with one ``(True, result)`` /
  ``(False, traceback_text)`` pair per task.  The worker survives task
  exceptions and keeps serving.
* Any other frame kind is answered with one ``(False, "unknown frame
  kind ...")`` outcome, and the worker keeps serving.

The shared-secret token authenticates, it does not encrypt: on
untrusted networks run the broker behind an SSH tunnel or a TLS
terminator (the protocol is plain TCP by design — see README).

Determinism of the overall sweep does not depend on this module: tasks
are pure functions of their item, so the executor reassembles identical
results whatever worker ran them, in whatever order.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import socket
import struct
import sys
import traceback
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "PROTOCOL_MAGIC", "PROTOCOL_VERSION", "MAX_HANDSHAKE_BYTES",
    "HandshakeError", "GracefulExit", "WorkerState", "auth_token_digest",
    "client_hello", "validate_hello", "encode_handshake",
    "decode_handshake", "perform_client_handshake", "resolve_timeout",
    "send_message", "recv_message", "serve_connection", "worker_loop",
    "install_signal_handlers", "spawn_loopback_workers",
    "worker_stderr_tail", "main",
]

_LENGTH_PREFIX = struct.Struct(">I")

#: Protocol identity exchanged in the handshake.  Bump the version on
#: any wire-format change; mismatched peers then part with a clean
#: error instead of undefined unpickling behaviour.
PROTOCOL_MAGIC = "repro-remote"
PROTOCOL_VERSION = 2

#: Upper bound on a handshake message: hellos are a few hundred bytes,
#: and the server must never allocate attacker-sized buffers (or
#: unpickle anything) for a connection that has not authenticated yet.
MAX_HANDSHAKE_BYTES = 64 * 1024


class HandshakeError(ConnectionError):
    """Raised when the server/worker handshake fails or is rejected."""


class GracefulExit(BaseException):
    """Raised by the signal handler to interrupt an *idle* worker.

    Deliberately a :class:`BaseException`: the task runner's broad
    ``except Exception`` (which keeps one bad task from killing the
    worker) must never swallow a shutdown request — a second SIGTERM
    mid-task has to win even inside user simulation code.
    """


class WorkerState:
    """Mutable status one worker loop shares with its signal handlers.

    ``busy`` is True exactly while a task batch is computing;
    ``stop_requested`` is latched by the first SIGTERM/SIGINT and makes
    the loop deregister cleanly after the in-flight batch's results are
    on the wire (never mid-pickle).
    """

    def __init__(self) -> None:
        self.busy = False
        self.stop_requested = False
        self.completed = 0


def install_signal_handlers(state: WorkerState):
    """Make SIGTERM/SIGINT shut the worker down *gracefully*.

    First signal while a batch is computing: latch ``stop_requested`` —
    the loop finishes the batch, delivers its results, then closes the
    connection (the server side sees a clean disconnect between batches
    and requeues nothing that was not already answered).  A signal
    while the worker is idle — or a second signal while busy — raises
    :class:`GracefulExit`, which interrupts the blocking ``recv``
    (Python runs handlers and re-raises out of the interrupted syscall)
    and unwinds to a clean exit instead of dying mid-pickle.

    Returns the previous handlers (``{signum: handler}``) so tests can
    restore them.
    """
    import signal

    def handle(signum, frame) -> None:
        if state.busy and not state.stop_requested:
            state.stop_requested = True
            return
        state.stop_requested = True
        raise GracefulExit(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, handle)
    return previous


def resolve_timeout(value: Optional[float], env_var: str, default: float,
                    name: str) -> float:
    """One timeout knob: explicit value > ``$env_var`` > ``default``.

    Every timeout in the executor stack resolves through here so the
    precedence and the validation are uniform: non-positive (or
    non-numeric) values are a :class:`ValueError` naming the offending
    knob, never a silently-hung or busy-spinning loop.
    """
    source = f"{name} {value!r}"
    if value is None:
        raw = os.environ.get(env_var)
        if raw is None:
            return default
        source = f"{name} ${env_var}={raw!r}"
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{source} is not a number (expected seconds > 0)"
            ) from None
    value = float(value)
    if value <= 0:
        raise ValueError(f"{source} must be positive (seconds > 0)")
    return value


def auth_token_digest(token: Optional[str] = None) -> Optional[str]:
    """Digest of the shared worker-auth secret, or None when unset.

    Both sides read ``$REPRO_REMOTE_TOKEN``; the digest (never the raw
    secret) crosses the wire and is compared constant-time.
    """
    if token is None:
        token = os.environ.get("REPRO_REMOTE_TOKEN", "")
    if not token:
        return None
    return hashlib.sha256(token.encode()).hexdigest()


def client_hello(role: str = "worker") -> List:
    """The handshake message a connection opens with.

    A plain JSON-encodable value: the handshake deliberately never
    uses pickle, so neither side unpickles pre-authentication bytes.
    ``role`` distinguishes a task-serving **worker** from a
    job-submitting broker **client**; it defaults to ``"worker"`` (and
    a missing key means worker), so existing fleets interoperate
    without a protocol-version bump.
    """
    return ["hello", {"magic": PROTOCOL_MAGIC,
                      "version": PROTOCOL_VERSION,
                      "token": auth_token_digest(),
                      "role": role}]


def validate_hello(hello) -> Tuple[Optional[str], Optional[str]]:
    """Server-side hello validation (the broker's).

    Returns ``(role, None)`` when the peer may proceed to the pickle
    layer, or ``(None, reason)`` describing the mismatch.  Checks
    magic, protocol version and — when this side has
    ``$REPRO_REMOTE_TOKEN`` set — the shared-secret digest, compared
    constant-time.
    """
    import hmac

    kind = hello[0] if isinstance(hello, list) and hello else None
    payload = hello[1] if kind == "hello" and len(hello) > 1 else None
    if kind != "hello" or not isinstance(payload, dict) \
            or payload.get("magic") != PROTOCOL_MAGIC:
        return None, "bad handshake magic"
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        return None, (f"protocol version mismatch (peer v{version}, "
                      f"this side v{PROTOCOL_VERSION})")
    expected = auth_token_digest()
    if expected is not None:
        supplied = payload.get("token")
        if not isinstance(supplied, str) \
                or not hmac.compare_digest(expected, supplied):
            return None, ("authentication failed (REPRO_REMOTE_TOKEN "
                          "mismatch or missing on the peer)")
    role = payload.get("role", "worker")
    if role not in ("worker", "client"):
        return None, f"unknown connection role {role!r}"
    return role, None


def encode_handshake(message) -> bytes:
    """Serialise one handshake message (JSON, never pickle)."""
    import json

    return json.dumps(message).encode()


def decode_handshake(payload: bytes):
    """Parse one handshake message; raises ValueError on junk."""
    import json

    try:
        return json.loads(payload.decode())
    except (UnicodeDecodeError, ValueError) as error:
        raise ValueError(f"malformed handshake message: {error}") from None


def perform_client_handshake(sock: socket.socket,
                             role: str = "worker") -> dict:
    """Run the connecting side of the handshake; returns welcome info.

    Raises :class:`HandshakeError` with the server's reason on a
    rejection, or a description of the mismatch when the peer does not
    speak the handshake at all (a server predating protocol v2).
    """
    send_message(sock, encode_handshake(client_hello(role)))
    try:
        reply = decode_handshake(
            recv_message(sock, max_size=MAX_HANDSHAKE_BYTES))
    except Exception as error:  # noqa: BLE001 - any garbage is a mismatch
        raise HandshakeError(
            f"no valid handshake reply from server: {error}") from None
    kind = reply[0] if isinstance(reply, list) and reply else None
    if kind == "welcome":
        return reply[1]
    if kind == "reject":
        raise HandshakeError(f"server rejected this worker: {reply[1]}")
    raise HandshakeError(
        f"server did not complete the protocol handshake (got {kind!r} "
        f"first — executor predates protocol v{PROTOCOL_VERSION}?)")


def send_message(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed message."""
    sock.sendall(_LENGTH_PREFIX.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    while size:
        chunk = sock.recv(size)
        if not chunk:
            raise EOFError("connection closed mid-message")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket,
                 max_size: Optional[int] = None) -> bytes:
    """Read one length-prefixed message.

    ``max_size`` caps the advertised length (used for pre-auth
    handshake reads, where the peer is untrusted and must not be able
    to demand an arbitrarily large allocation).
    """
    (length,) = _LENGTH_PREFIX.unpack(_recv_exact(sock, _LENGTH_PREFIX.size))
    if max_size is not None and length > max_size:
        raise ValueError(
            f"message of {length} bytes exceeds the {max_size}-byte "
            "handshake limit")
    return _recv_exact(sock, length)


def _run_task(blob: bytes, sock: socket.socket, position: int,
              state: Optional[WorkerState] = None) -> Tuple[bool, object]:
    """Unpickle and execute one task blob, progress wired to the socket.

    A blob this worker cannot decode (e.g. a function whose module is
    not importable here), or a task that raises, is reported as a
    ``(False, traceback)`` outcome — the worker itself survives, so one
    bad task cannot starve the fleet.  Progress events are best-effort:
    a send failure is swallowed here and surfaces when the results
    message fails.
    """
    from repro.harness.progress import set_progress_sink

    def sink(event) -> None:
        try:
            send_message(sock, pickle.dumps(("progress", position, event)))
        except Exception:  # noqa: BLE001 - telemetry only
            pass

    previous = set_progress_sink(sink)
    try:
        func, item = pickle.loads(blob)
        return True, func(item)
    except Exception:  # noqa: BLE001 - reported to the server
        return False, traceback.format_exc()
    finally:
        set_progress_sink(previous)


def serve_connection(sock: socket.socket, state: WorkerState) -> None:
    """Serve task batches on one authenticated connection.

    Runs until the server sends ``shutdown``, the connection drops, or
    graceful stop: when ``state.stop_requested`` latches (first
    SIGTERM/SIGINT) the loop finishes the batch in flight, puts its
    results on the wire, and returns — the server sees an orderly
    disconnect between batches, never a death mid-pickle.
    """
    while True:
        frame = recv_message(sock)
        state.busy = True
        try:
            try:
                kind, payload = pickle.loads(frame)
            except Exception:  # noqa: BLE001 - a frame this worker cannot
                # decode must not kill it: report one failed outcome and
                # keep serving.
                send_message(sock, pickle.dumps(
                    ("results", [(False, traceback.format_exc())])))
                state.completed += 1
                continue
            if kind == "shutdown":
                return
            if kind == "tasks":
                outcomes = [_run_task(blob, sock, position, state)
                            for position, blob in enumerate(payload)]
            else:
                outcomes = [(False, f"unknown frame kind {kind!r}; this "
                             "worker serves 'tasks' and 'shutdown'")]
            send_message(sock, pickle.dumps(("results", outcomes)))
            state.completed += len(outcomes)
        finally:
            state.busy = False
        if state.stop_requested:
            return


def worker_loop(host: str, port: int,
                state: Optional[WorkerState] = None) -> int:
    """Serve task batches from one server until it sends ``shutdown``.

    Returns the number of tasks completed (exceptions included); used
    by the CLI below, which is also what loopback workers run.
    """
    state = state or WorkerState()
    with socket.create_connection((host, port)) as sock:
        perform_client_handshake(sock)
        serve_connection(sock, state)
    return state.completed


def spawn_loopback_workers(address: Tuple[str, int], count: int) -> List:
    """Start ``count`` local worker processes against ``address``.

    Each worker is a fresh interpreter running this module's CLI — the
    *same* command a worker on another machine would run — so loopback
    mode exercises the full remote path: cold import of :mod:`repro`,
    socket connection, pickled tasks.  Returns the
    :class:`subprocess.Popen` handles; each carries a ``stderr_path``
    attribute naming the file its stderr is captured to, so a worker
    that dies can be diagnosed instead of vanishing silently.
    """
    import os
    import subprocess
    import tempfile

    # Loopback workers mirror process-pool semantics: the child sees
    # the parent's full import path (so it can unpickle functions from
    # any module the parent could), not just the installed package.  A
    # worker on a genuinely remote machine instead needs repro — and
    # any module whose functions the sweep pickles — importable there.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)

    host, port = address
    command = [sys.executable, "-m", "repro.harness.remote_worker",
               "--connect", f"{host}:{port}"]
    processes = []
    for _ in range(count):
        stderr_file = tempfile.NamedTemporaryFile(
            mode="w", prefix="repro-worker-", suffix=".stderr",
            delete=False)
        with stderr_file:
            process = subprocess.Popen(command, env=env,
                                       stdout=subprocess.DEVNULL,
                                       stderr=stderr_file)
        process.stderr_path = stderr_file.name
        processes.append(process)
    return processes


def worker_stderr_tail(processes, limit: int = 2000) -> str:
    """The tail of each spawned worker's captured stderr (or ``""``)."""
    chunks = []
    for process in processes:
        path = getattr(process, "stderr_path", None)
        if not path:
            continue
        try:
            with open(path) as handle:
                text = handle.read()[-limit:].strip()
        except OSError:
            continue
        if text:
            chunks.append(f"worker pid {process.pid} stderr:\n{text}")
    return ("\n" + "\n".join(chunks)) if chunks else ""


def _parse_address(value: str) -> Tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.remote_worker",
        description="Serve simulation tasks for a broker.")
    parser.add_argument("--connect", type=_parse_address, required=True,
                        metavar="HOST:PORT",
                        help="address the broker is listening on")
    args = parser.parse_args(argv)
    host, port = args.connect
    state = WorkerState()
    install_signal_handlers(state)
    try:
        worker_loop(host, port, state)
    except GracefulExit as signal_name:
        print(f"remote worker: received {signal_name}, deregistered "
              f"after {state.completed} tasks", file=sys.stderr)
        return 0
    except HandshakeError as error:
        print(f"remote worker: handshake with {host}:{port} failed: {error}",
              file=sys.stderr)
        return 1
    except (ConnectionError, EOFError, OSError) as error:
        if state.stop_requested:
            # The signal arrived exactly as the connection wound down;
            # that is still the graceful path.
            print(f"remote worker: deregistered after {state.completed} "
                  "tasks", file=sys.stderr)
            return 0
        print(f"remote worker: connection to {host}:{port} failed: {error}",
              file=sys.stderr)
        return 1
    if state.stop_requested:
        print(f"remote worker: finished in-flight work and deregistered "
              f"after {state.completed} tasks", file=sys.stderr)
    else:
        print(f"remote worker: shut down after {state.completed} tasks",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
