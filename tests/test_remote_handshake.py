"""Versioned handshake and shared-secret auth of the remote protocol."""

import pickle
import socket
import struct
import threading

import pytest

from repro.harness.engine import SimJob, run_jobs
from repro.harness.executors import RemoteExecutor
from repro.harness.remote_worker import (
    HandshakeError,
    MAX_HANDSHAKE_BYTES,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    auth_token_digest,
    client_hello,
    decode_handshake,
    encode_handshake,
    recv_message,
    send_message,
    worker_loop,
)

JOBS = [SimJob(("gzip",), "ICOUNT", None, 800, 200, seed=s)
        for s in (1, 2)]


def _handshake_as_fake_worker(address, hello):
    """Open a raw connection, send a hello, return the server's reply."""
    with socket.create_connection(address, timeout=5.0) as sock:
        send_message(sock, encode_handshake(hello))
        return decode_handshake(recv_message(sock))


class TestServerSide:
    def test_valid_hello_is_welcomed(self):
        with RemoteExecutor(spawn_workers=0) as executor:
            reply = _handshake_as_fake_worker(executor.address,
                                              client_hello())
            assert reply == ["welcome", {"version": PROTOCOL_VERSION}]

    def test_version_mismatch_rejected(self):
        with RemoteExecutor(spawn_workers=0) as executor:
            with pytest.warns(RuntimeWarning, match="version mismatch"):
                reply = _handshake_as_fake_worker(
                    executor.address,
                    ["hello", {"magic": PROTOCOL_MAGIC, "version": 99,
                               "token": None}])
            assert reply[0] == "reject"
            assert "version mismatch" in reply[1]

    def test_bad_magic_rejected(self):
        with RemoteExecutor(spawn_workers=0) as executor:
            with pytest.warns(RuntimeWarning, match="bad handshake magic"):
                reply = _handshake_as_fake_worker(
                    executor.address,
                    ["hello", {"magic": "other-protocol",
                               "version": PROTOCOL_VERSION}])
            assert reply[0] == "reject"

    def test_silent_worker_rejected_after_timeout(self):
        with RemoteExecutor(spawn_workers=0,
                            handshake_timeout=0.2) as executor:
            with pytest.warns(RuntimeWarning, match="no valid handshake"):
                with socket.create_connection(executor.address,
                                              timeout=5.0) as sock:
                    reply = decode_handshake(recv_message(sock))
            assert reply[0] == "reject"
            assert "predates protocol" in reply[1]

    def test_pickle_hello_is_rejected_not_unpickled(self):
        """Pre-auth bytes are never unpickled: a pickle bomb in place of
        the JSON hello is rejected, and its payload never executes."""
        fired = []

        class Bomb:
            def __reduce__(self):
                return (fired.append, ("boom",))

        with RemoteExecutor(spawn_workers=0) as executor:
            with pytest.warns(RuntimeWarning, match="no valid handshake"):
                with socket.create_connection(executor.address,
                                              timeout=5.0) as sock:
                    send_message(sock, pickle.dumps(Bomb()))
                    reply = decode_handshake(recv_message(sock))
        assert reply[0] == "reject"
        assert fired == []

    def test_oversized_hello_rejected_without_allocation(self):
        """A pre-auth peer cannot demand an arbitrarily large buffer."""
        with RemoteExecutor(spawn_workers=0,
                            handshake_timeout=2.0) as executor:
            with pytest.warns(RuntimeWarning, match="no valid handshake"):
                with socket.create_connection(executor.address,
                                              timeout=5.0) as sock:
                    # Advertise a 512 MiB hello; send nothing further.
                    sock.sendall(struct.pack(">I", 512 * 1024 * 1024))
                    reply = decode_handshake(recv_message(sock))
        assert reply[0] == "reject"
        assert str(MAX_HANDSHAKE_BYTES) in reply[1]


class TestToken:
    def test_digest_never_exposes_raw_secret(self):
        digest = auth_token_digest("hunter2")
        assert digest is not None and "hunter2" not in digest
        assert auth_token_digest("") is None

    def test_token_mismatch_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_TOKEN", "fleet-secret")
        with RemoteExecutor(spawn_workers=0) as executor:
            with pytest.warns(RuntimeWarning, match="authentication"):
                reply = _handshake_as_fake_worker(
                    executor.address,
                    ["hello", {"magic": PROTOCOL_MAGIC,
                               "version": PROTOCOL_VERSION,
                               "token": auth_token_digest("wrong")}])
            assert reply[0] == "reject"
            assert "authentication failed" in reply[1]

    def test_matching_token_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_TOKEN", "fleet-secret")
        with RemoteExecutor(spawn_workers=0) as executor:
            reply = _handshake_as_fake_worker(executor.address,
                                              client_hello())
            assert reply[0] == "welcome"

    def test_loopback_fleet_inherits_token_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE_TOKEN", "fleet-secret")
        with RemoteExecutor(spawn_workers=2) as executor:
            results = run_jobs(JOBS, 2, executor)
        assert results == run_jobs(JOBS)


class TestWorkerSide:
    def _fake_server(self, first_message_bytes):
        """A one-connection server sending fixed first-message bytes."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def serve():
            conn, _ = listener.accept()
            with conn:
                recv_message(conn)  # the worker's hello
                send_message(conn, first_message_bytes)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread

    def test_worker_errors_cleanly_on_rejection(self):
        listener, thread = self._fake_server(
            encode_handshake(["reject", "token mismatch"]))
        host, port = listener.getsockname()[:2]
        with pytest.raises(HandshakeError, match="token mismatch"):
            worker_loop(host, port)
        thread.join(timeout=5.0)
        listener.close()

    def test_worker_errors_cleanly_on_legacy_server(self):
        """A pre-v2 executor that opens with a pickled task message is a
        clean handshake error on the worker, not an unpickling crash."""
        listener, thread = self._fake_server(
            pickle.dumps(("tasks", [b"blob"])))
        host, port = listener.getsockname()[:2]
        with pytest.raises(HandshakeError, match="no valid handshake"):
            worker_loop(host, port)
        thread.join(timeout=5.0)
        listener.close()

    def test_unknown_frame_kind_gets_a_failed_outcome(self):
        """A frame kind the worker does not serve is answered with one
        failed outcome; the worker then serves the next batch."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]
        replies = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                hello = decode_handshake(recv_message(conn))
                assert hello[0] == "hello"
                send_message(conn, encode_handshake(
                    ["welcome", {"version": PROTOCOL_VERSION}]))
                send_message(conn, pickle.dumps(("bogus", None)))
                replies.append(pickle.loads(recv_message(conn)))
                send_message(conn, pickle.dumps(
                    ("tasks", [pickle.dumps((len, [1, 2, 3]))])))
                replies.append(pickle.loads(recv_message(conn)))
                send_message(conn, pickle.dumps(("shutdown", None)))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert worker_loop(host, port) == 2
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        listener.close()
        (kind, outcomes), served = replies
        assert kind == "results" and len(outcomes) == 1
        ok, reason = outcomes[0]
        assert not ok and "unknown frame kind 'bogus'" in reason
        assert served == ("results", [(True, 3)])
