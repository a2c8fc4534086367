"""What crosses a worker's pipe, byte for byte: 4-byte-length-prefixed
frames on the pipe's own fd, one write and (arriving whole) one read
each.  The reader keeps what a read brought beyond a frame, and is asked
before ``poll`` is — which is what lets a stale reply and the awaited
one arrive together.  A send the pipe has no room for reads while it
waits (the worker may be stuck writing a reply nobody awaits), bounded
by the ticket's deadline; what a sender that gave up left unsent goes
out ahead of the next frame.
"""

from __future__ import annotations

import fcntl
import os
import struct
import termios
import threading
import time

import pytest

from repro.errors import DeadlineExceeded, WorkerCrashed
from repro.middleware.proc import ProcMiddleware
from repro.middleware.serialize import ReplyEnvelope, encode_envelope
from repro.runtime import procbackend
from repro.runtime.admission import Deadline
from repro.runtime.dispatch import use_dispatch
from repro.runtime.procbackend import FrameReader, ProcWorker, write_frame
from repro.runtime.ticket import DispatchContext


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.002)
    return False


def framed(body: bytes) -> bytes:
    return struct.pack("!I", len(body)) + body


def readable_bytes(fd: int) -> int:
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, bytes(4)))[0]


@pytest.fixture
def pipe():
    read_fd, write_fd = os.pipe()
    yield read_fd, write_fd
    for fd in (read_fd, write_fd):
        try:
            os.close(fd)
        except OSError:
            pass  # the test closed it


class TestFrameReader:
    def test_write_frame_is_length_prefixed(self, pipe):
        read_fd, write_fd = pipe
        write_frame(write_fd, b"hello")
        assert os.read(read_fd, 100) == b"\x00\x00\x00\x05hello"

    def test_frame_split_across_two_reads(self, pipe):
        read_fd, write_fd = pipe
        reader = FrameReader(read_fd)
        wire = framed(b"split in the middle")
        os.write(write_fd, wire[:9])
        assert reader.read() is None  # short of its length: kept
        assert reader.take() is None
        os.write(write_fd, wire[9:])
        assert reader.read() == b"split in the middle"
        assert reader.pending == b""

    def test_header_split_across_two_reads(self, pipe):
        read_fd, write_fd = pipe
        reader = FrameReader(read_fd)
        wire = framed(b"x" * 300)
        os.write(write_fd, wire[:2])
        assert reader.read() is None
        os.write(write_fd, wire[2:])
        assert reader.read() == b"x" * 300

    def test_two_frames_in_one_read_second_needs_no_fd(self, pipe):
        read_fd, write_fd = pipe
        reader = FrameReader(read_fd)
        os.write(write_fd, framed(b"first") + framed(b"second") + b"\x00\x00")
        assert reader.read() == b"first"
        reader.fd = -1  # any read from here on would raise EBADF
        assert reader.take() == b"second"
        assert reader.take() is None  # half a header is no frame
        assert reader.pending == b"\x00\x00"

    def test_empty_frame_is_a_frame(self, pipe):
        read_fd, write_fd = pipe
        write_frame(write_fd, b"")
        assert FrameReader(read_fd).read() == b""

    def test_body_over_16_kb_follows_its_prefix_uncopied(self, pipe, monkeypatch):
        read_fd, write_fd = pipe
        body = os.urandom(20_000)
        written, os_write = [], os.write
        monkeypatch.setattr(
            os, "write", lambda fd, data: written.append(len(data)) or os_write(fd, data)
        )
        write_frame(write_fd, body)
        monkeypatch.undo()
        assert written == [4, 20_000]
        reader = FrameReader(read_fd)
        assert reader.read() is None  # a first read asks for 16 KB
        assert reader.read() == body  # the next for exactly the rest
        assert reader.pending == b""

    def test_eof_raises_also_mid_frame(self, pipe):
        read_fd, write_fd = pipe
        reader = FrameReader(read_fd)
        os.write(write_fd, framed(b"never finished")[:7])
        assert reader.read() is None
        os.close(write_fd)
        with pytest.raises(EOFError):
            reader.read()

    def test_large_frame_through_short_writes(self):
        # a socketpair like the workers': 300 KB overflows its buffer,
        # so the writer blocks mid-frame until the reader drains
        import socket

        left, right = socket.socketpair()
        body = os.urandom(300_000)
        writer = threading.Thread(
            target=write_frame, args=(left.fileno(), body)
        )
        writer.start()
        try:
            reader = FrameReader(right.fileno())
            frame, reads = None, 0
            while frame is None:
                frame = reader.read()
                reads += 1
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert frame == body and reads > 1
            assert reader.pending == b""
        finally:
            left.close()
            right.close()


class Echo:
    def echo(self, value):
        return value


class Sleeper:
    def nap(self, seconds, token):
        time.sleep(seconds)
        return token


def _half_a_reply_then_die(conn):
    """Stands in for ``_worker_main``: answers its first frame with a
    frame cut short, and exits."""
    fd = conn.fileno()
    reader = FrameReader(fd)
    while reader.read() is None:
        pass
    os.write(fd, framed(b"y" * 100)[:40])
    os._exit(7)


class TestLiveWorker:
    def test_300_kb_frames_both_directions(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Echo())
            blob = os.urandom(300_000)  # larger than the pipe's buffer
            assert middleware.invoke(ref, "echo", (blob,)) == blob
            assert middleware.invoke(ref, "echo", ("small",)) == "small"
        finally:
            middleware.shutdown()

    def test_eof_mid_frame_is_worker_crashed_not_a_short_frame(self, monkeypatch):
        monkeypatch.setattr(procbackend, "_worker_main", _half_a_reply_then_die)
        worker = ProcWorker(0)
        outcome: dict = {}

        def call():
            try:
                with worker.lock:
                    worker.send(b"anything")
                    outcome["frame"] = worker.recv()
            except Exception as exc:  # noqa: BLE001 - inspected below
                outcome["error"] = exc

        try:
            thread = threading.Thread(target=call)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), "reply wait hung on half a frame"
            assert "frame" not in outcome
            assert isinstance(outcome["error"], WorkerCrashed)
            message = str(outcome["error"])
            assert f"pid {worker.pid}" in message
            assert "exitcode 7" in message
            assert "awaiting its reply" in message
        finally:
            worker.stop()

    def test_stale_and_awaited_reply_in_one_read(self, monkeypatch):
        """A call abandons its wait at its deadline; the next call on
        the worker finds the stale reply and its own in ONE read.  The
        stale one is dropped by ``call_id`` and the awaited one comes
        out of the reader's kept bytes — a poll would never wake for
        them, they left the pipe with the first read."""
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Sleeper())
            worker = middleware.worker_of(ref)
            assert middleware.invoke(ref, "nap", (0.0, "warm")) == "warm"  # call 1
            send, sent = worker.send, []

            def send_then_expire(*args):
                send(*args)
                sent.append(args[0])

            def stepped_clock():
                # call 2's deadline passes once its request is written,
                # never before: the worker always owes the stale reply
                return time.monotonic() + (3600.0 if sent else 0.0)

            monkeypatch.setattr(worker, "send", send_then_expire)
            ticket = DispatchContext(
                "abandons-its-wait", deadline=Deadline(1.0, stepped_clock)
            )
            with use_dispatch(ticket), pytest.raises(DeadlineExceeded):
                middleware.invoke(ref, "nap", (0.05, "abandoned"))  # call 2
            assert len(sent) == 1  # sent, then abandoned
            # bounded, so a reader that lost the kept reply fails, not hangs
            mine = DispatchContext(
                "finds-both-replies", deadline=Deadline(5.0, time.monotonic)
            )
            both = sum(
                4 + len(encode_envelope(reply))
                for reply in (
                    ReplyEnvelope(2, "ok", "abandoned", ticket.context_id),
                    ReplyEnvelope(3, "ok", "mine", mine.context_id),
                )
            )
            fd = worker.conn.fileno()
            recv, os_read, reads = worker.recv, os.read, []

            def recv_once_both_replies_landed(check=None, deadline=None):
                assert wait_until(lambda: readable_bytes(fd) == both or reads)
                return recv(check, deadline)

            def counting_read(read_fd, size):
                reads.append(read_fd)
                return os_read(read_fd, size)

            monkeypatch.setattr(worker, "recv", recv_once_both_replies_landed)
            monkeypatch.setattr(os, "read", counting_read)
            with use_dispatch(mine):
                assert middleware.invoke(ref, "nap", (0.0, "mine")) == "mine"  # call 3
            assert reads == [fd]
            # nothing of either reply is left for the next call to trip on
            assert middleware.invoke(ref, "nap", (0.0, "next")) == "next"
        finally:
            middleware.shutdown()

    def test_abandoned_large_reply_then_large_request_is_not_a_deadlock(self):
        """Both larger than the pipe's buffer: the worker blocks writing
        the reply nobody reads, the parent used to block writing the
        request nobody read — each waiting for the other, for good."""
        middleware = ProcMiddleware()
        outcome: dict = {}
        try:
            ref = middleware.export(Sleeper())
            worker = middleware.worker_of(ref)
            fd = worker.conn.fileno()
            blob = os.urandom(600_000)
            ticket = DispatchContext(
                "abandons-a-large-reply", deadline=Deadline(0.2, time.monotonic)
            )
            with use_dispatch(ticket), pytest.raises(DeadlineExceeded):
                middleware.invoke(ref, "nap", (0.4, blob))
            # the worker has filled the pipe with as much of the reply
            # as fits and sits in its os.write
            assert wait_until(lambda: readable_bytes(fd) > 100_000)
            time.sleep(0.1)

            def call():
                try:
                    outcome["reply"] = middleware.invoke(ref, "nap", (0.0, blob[::-1]))
                except Exception as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc

            thread = threading.Thread(target=call)
            thread.start()
            thread.join(timeout=10)
            hung = thread.is_alive()
            if hung:
                worker.kill()  # unblock the writer so the test can end
                thread.join(timeout=10)
            assert not hung, "parent and worker both blocked in os.write"
            assert outcome.get("reply") == blob[::-1]
            assert middleware.invoke(ref, "nap", (0.0, "next")) == "next"
            assert middleware.worker_crashes == 0
        finally:
            middleware.shutdown()

    def test_send_gives_up_at_the_deadline_and_the_rest_goes_out_first(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Sleeper())
            napping = DispatchContext(
                "keeps-the-worker-busy", deadline=Deadline(0.05, time.monotonic)
            )
            with use_dispatch(napping), pytest.raises(DeadlineExceeded):
                middleware.invoke(ref, "nap", (1.0, "busy"))
            # the worker reads nothing for a second: a request larger
            # than the pipe cannot all be written before this deadline
            ticket = DispatchContext(
                "gives-up-mid-send", deadline=Deadline(0.1, time.monotonic)
            )
            started = time.monotonic()
            with use_dispatch(ticket), pytest.raises(DeadlineExceeded):
                middleware.invoke(ref, "nap", (0.0, os.urandom(2_000_000)))
            assert time.monotonic() - started < 0.5
            # half a frame is in the pipe: the next caller completes it
            # before its own, and the stream stays in step
            assert middleware.invoke(ref, "nap", (0.0, "next")) == "next"
            assert middleware.worker_crashes == 0
        finally:
            middleware.shutdown()
