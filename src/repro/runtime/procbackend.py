"""Out-of-process execution backend: resident servant worker processes.

Every other backend runs in one interpreter under one GIL, so CPU-bound
farm/pipeline runs gain nothing from extra cores.  This backend is the
"as fast as the hardware allows" substrate ROADMAP names: caller-side
activities stay OS threads (the :class:`~repro.runtime.threads.ThreadBackend`
primitives and wall clock are inherited unchanged — deadlines and
admission waits mean the same thing), while **servant execution** moves
into resident `multiprocessing` worker processes, each holding the
compiled :class:`~repro.aop.plan.MethodTable` of every servant it hosts
— the servants of one batched construction share at most
:func:`usable_cpus` workers, neighbours together: a process beyond the
CPUs the run may use adds time-slicing, not throughput.

The process boundary deliberately lives at the *middleware* layer
(:class:`~repro.middleware.proc.ProcMiddleware`), not at ``spawn()``:
closures cannot cross processes, but the middleware request path already
ships picklable envelopes with a ``context_id`` — exactly what PR 3-5
laid down for the simulated transports.  What crosses the boundary:

* at export — one :class:`~repro.middleware.serialize.ExportEnvelope`
  carrying the pickled servant (value semantics: pickling IS the copy);
* per call — one :class:`~repro.middleware.serialize.RequestEnvelope`
  (a whole pack is ONE envelope) and one reply frame.  A request with
  a ``budget`` asks for a *run*: the worker goes on through the
  pipeline stages linked behind the requested one
  (:class:`~repro.middleware.serialize.LinkEnvelope`, one at deploy per
  adjacent pair a worker hosts) until the chain leaves it, a stage
  fails or the budget is spent, and answers once, with its ``hops``;
* never — dispatch tickets, locks, futures, or aspects.  Tickets travel
  as ids and all collector/deadline bookkeeping stays caller-side.

Worker lifecycle: forked lazily at export, resident until the
middleware's ``shutdown`` (reached from ``ParallelApp.shutdown`` /
``__exit__``), with an ``atexit`` backstop that shutdown disarms and
daemon processes so an orphaned run cannot leak children.  A worker
found dead while a reply is pending raises :class:`~repro.errors.WorkerCrashed`
(pid + exit code in the message) instead of hanging — in-flight splits
fail fast through their collectors.

Forked children inherit the parent's *woven* classes and deployed
aspects; the worker loop therefore executes every request under the
``server_dispatch`` marker (via
:func:`~repro.middleware.base.perform_request`), so each woven call
there runs its serving plan, which leaves the inherited parallelisation
advice out — the same contract the simulated middlewares' servant
activities follow.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import threading
import time
from typing import Any, Callable

from repro.api.registry import register_backend
from repro.errors import WorkerCrashed
from repro.runtime.threads import ThreadBackend

__all__ = [
    "ProcessBackend",
    "ProcWorker",
    "FrameReader",
    "write_frame",
    "usable_cpus",
    "STOP_FRAME",
]

#: raw stop frame — recognised by the worker loop BEFORE unpickling, so
#: shutdown never depends on a healthy codec
STOP_FRAME = b"__repro_proc_stop__"


def usable_cpus() -> int:
    """CPUs this process may run on — the most workers one batched
    construction is spread over (``ProcessPoolExecutor``'s sizing rule)."""
    return len(os.sched_getaffinity(0))


def frame_parts(body: bytes) -> tuple:
    """The buffers one frame is written from: a body over 16 KB follows
    its length prefix instead of being copied behind it."""
    prefix = len(body).to_bytes(4, "big")
    return (prefix + body,) if len(body) <= 16384 else (prefix, body)


def write_frame(fd: int, body: bytes) -> None:
    """Ship ``body`` as one frame on a blocking ``fd`` — one
    ``os.write``, more only after a short one."""
    for part in frame_parts(body):
        sent = os.write(fd, part)
        while sent < len(part):
            sent += os.write(fd, memoryview(part)[sent:])


class FrameReader:
    """Reads :func:`write_frame`'s frames off ``fd``.  One read may bring
    more than a frame (an abandoned call's late reply right ahead of the
    awaited one): the bytes beyond it wait in ``pending`` for the next."""

    __slots__ = ("fd", "pending")

    def __init__(self, fd: int):
        self.fd = fd
        self.pending = bytearray()  # read, not yet handed out

    def take(self) -> bytes | None:
        """The next frame if ``pending`` holds all of it (no fd touched)."""
        pending = self.pending
        if len(pending) >= 4:
            end = 4 + int.from_bytes(pending[:4], "big")
            if len(pending) >= end:
                with memoryview(pending) as view:  # one copy, not two
                    frame = bytes(view[4:end])
                del pending[:end]
                return frame
        return None

    def read(self) -> bytes | None:
        """One ``os.read`` (blocking on an empty pipe), then :meth:`take`.
        ``EOFError`` once the peer is gone, mid-frame included."""
        self.fill()
        return self.take()

    def fill(self) -> None:
        """The ``os.read`` alone: what arrived waits in ``pending``."""
        pending = self.pending
        want = 16384  # small frames whole; 64 KB a read was +3 MB of parent RSS
        if len(pending) >= 4:  # the rest of a large frame in one read
            want = max(want, 4 + int.from_bytes(pending[:4], "big") - len(pending))
        chunk = os.read(self.fd, want)
        if not chunk:
            raise EOFError("pipe closed by the peer")
        pending += chunk


def _start_method() -> str:
    """``fork`` where available (the child inherits ``sys.modules``, so
    test-module servant classes resolve without being importable by
    path), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _worker_main(conn: Any) -> None:
    """Child entry point: host servants, serve envelope requests.

    One request at a time (the pipe is the serialisation point of every
    servant hosted here); replies echo the request's ``call_id`` and
    ``context_id`` so an abandoned call's late reply is identified and
    discarded by the parent instead of desynchronising the stream.
    Imports are deferred: the parent-side import graph stays acyclic
    and a spawn-started child pays them once here.

    ``SIGINT`` is ignored: Ctrl-C reaches the whole foreground process
    group, and teardown is the parent's (stop frame, then ``terminate``;
    a vanished parent is EOF on the pipe).
    """
    if threading.current_thread() is threading.main_thread():  # not a test's thread
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.aop.plan import MethodTable
    from repro.errors import MiddlewareError, SerializationError
    from repro.middleware.base import perform_request
    from repro.middleware.serialize import (
        ExportEnvelope,
        LinkEnvelope,
        ReplyEnvelope,
        decode_envelope,
        encode_envelope,
        exception_payload,
    )

    servants: dict[int, tuple[MethodTable, Any]] = {}
    #: pipeline stage -> (the stage it hands on to, hosted here too, the
    #: splitter's forward_args when it is not the default)
    links: dict[int, tuple[int, Any]] = {}
    fd = conn.fileno()
    reader = FrameReader(fd)
    while True:
        try:
            data = reader.take() if reader.pending else None
            while data is None:
                data = reader.read()
        except (EOFError, OSError):
            return  # the parent is gone: nothing left to serve
        if data == STOP_FRAME:
            return
        try:
            envelope = decode_envelope(data)
        except Exception as exc:  # noqa: BLE001 - reported, loop survives
            # call_id -1: "whatever you were waiting for" — the parent
            # treats it as the pending call's (fatal) reply
            reply = ReplyEnvelope(-1, "error", exception_payload(exc))
            write_frame(fd, encode_envelope(reply))
            continue
        if isinstance(envelope, LinkEnvelope):
            links[envelope.object_id] = (envelope.next_id, envelope.forward_args)
            write_frame(fd, encode_envelope(ReplyEnvelope(0, "ok")))
            continue
        if isinstance(envelope, ExportEnvelope):
            try:
                servants[envelope.object_id] = (
                    MethodTable(type(envelope.servant)),
                    envelope.servant,
                )
                outcome: tuple[str, Any] = ("ok", envelope.object_id)
            except Exception as exc:  # noqa: BLE001 - export ack carries it
                outcome = ("error", exception_payload(exc))
            write_frame(fd, encode_envelope(ReplyEnvelope(0, *outcome)))
            continue
        object_id, args, kwargs = envelope.object_id, envelope.args, envelope.kwargs
        method, batch, budget = envelope.method, envelope.batch, envelope.budget
        entry = servants.get(object_id)
        hops = 0
        if entry is None:
            outcome = (
                "error",
                MiddlewareError(f"worker hosts no servant #{object_id}"),
            )
        else:
            # what the ticket had left when the request was framed: this
            # end is no earlier than its deadline
            end = None if budget is None else time.monotonic() + budget
            outcome = perform_request(*entry, method, args, kwargs, batch)
            # a run: the stage handed on to lives here too, so the piece
            # goes on without a round trip through the parent; as there,
            # a failed stage or a spent budget ends the journey
            while (
                end is not None
                and outcome[0] == "ok"
                and object_id in links
                and time.monotonic() < end
            ):
                object_id, forward = links[object_id]
                forward = forward or _default_forward_args
                try:
                    if batch:  # item by item: args holds the piece views
                        args = [forward(r, *view) for r, view in zip(outcome[1], args)]
                    else:
                        args, kwargs = forward(outcome[1], args, kwargs or {})
                except Exception as exc:  # noqa: BLE001 - the run's error
                    outcome = ("error", exc)
                    break
                outcome = perform_request(*servants[object_id], method, args, kwargs, batch)
                hops += 1
        if envelope.oneway:
            continue  # fire-and-forget: executed, no reply frame
        if outcome[0] == "error":
            outcome = ("error", exception_payload(outcome[1]))
        # the parent's forwarder goes on from the last stage run: a
        # custom forward_args may read what that stage was called with
        view = (args, kwargs) if hops and links[envelope.object_id][1] else None
        reply = ReplyEnvelope(
            envelope.call_id, *outcome, envelope.context_id, hops, view
        )
        try:
            frame = encode_envelope(reply)
        except SerializationError as exc:
            # an unpicklable RESULT degrades to a targeted error reply —
            # the caller gets a SerializationError, never a hang
            reply.outcome, reply.payload = "error", exception_payload(exc)
            reply.view = None
            frame = encode_envelope(reply)
        write_frame(fd, frame)


def _default_forward_args(result: Any, args: tuple, kwargs: dict) -> tuple:
    """``WorkSplitter.forward_args`` unset: the result, alone."""
    return (result,), {}


class ProcWorker:
    """One resident worker process plus its parent-side plumbing.

    Mirrors the shape of the thread-level
    :class:`~repro.parallel.concurrency.asynchronous.PooledSpawner`'s
    pinned workers: a long-lived activity fed through a private channel
    (here a duplex pipe), serialised by a parent-side lock, torn down by
    a sentinel.  The reply wait is one ``poll(2)`` on the pipe and the
    process's sentinel fd, both registered once: a reply wakes it, and
    so does the worker's death — :class:`~repro.errors.WorkerCrashed`
    at once, never a block on a pipe nobody will write to.
    """

    #: longest single reply wait: the cadence of the caller's ``check``
    #: (shed/cancel), not of death or deadline detection
    POLL_INTERVAL = 0.02

    def __init__(self, index: int, name: str = "proc.worker"):
        self.index = index
        self.name = f"{name}{index}"
        ctx = multiprocessing.get_context(_start_method())
        self.conn, child_conn = ctx.Pipe()
        #: serialises request/reply round-trips on the shared pipe
        self.lock = threading.Lock()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the parent keeps only its own end
        #: the worker's OS pid, and its exit code once reaped
        self.pid: int | None = self.process.pid
        self.exitcode: int | None = None
        self._reader = FrameReader(self.conn.fileno())
        os.set_blocking(self._reader.fd, False)
        #: buffers accepted for sending and not written yet: the rest of
        #: a frame whose sender gave up goes out ahead of the next one
        self._unsent: list = []
        self._poll = select.poll()  # poll(2): owns no fd of its own
        self._poll.register(self._reader.fd, select.POLLIN)
        self._poll.register(self.process.sentinel, select.POLLIN)
        self._stopped = False

    @property
    def alive(self) -> bool:
        """Is the worker process still running?"""
        return not self._stopped and self.process.is_alive()

    # -- request/reply ------------------------------------------------------

    def send(
        self,
        data: bytes,
        check: Callable[[], None] | None = None,
        deadline: Any = None,
    ) -> None:
        """Ship one request frame (under ``self.lock``): one ``os.write``
        when the pipe has room.  When it has none, the worker may be
        stuck writing a reply nobody awaits — each side waiting for the
        other to read — so the wait for room reads what arrives, and is
        cut short like :meth:`recv`'s by ``check`` and ``deadline``.  A
        dead worker is a broken pipe (or a sentinel wake-up), so
        :class:`~repro.errors.WorkerCrashed`, never a hang."""
        fd = self._reader.fd
        unsent = self._unsent
        unsent.extend(frame_parts(data))
        try:
            while unsent:
                try:
                    sent = os.write(fd, unsent[0])
                except BlockingIOError:
                    sent = 0
                if sent == len(unsent[0]):
                    del unsent[0]
                else:
                    unsent[0] = memoryview(unsent[0])[sent:]
                    self._await_room(check, deadline)
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(
                self._obituary(f"during a send ({exc})")
            ) from exc

    def _await_room(self, check: Callable[[], None] | None, deadline: Any) -> None:
        """Until the pipe takes more or brought something (kept for the
        next :meth:`recv`), on the reply wait's poll and its terms."""
        fd = self._reader.fd
        self._poll.modify(fd, select.POLLIN | select.POLLOUT)
        try:
            while True:
                quantum = self.POLL_INTERVAL
                if deadline is not None:
                    quantum = min(quantum, deadline.remaining())
                ready = dict(self._poll.poll(quantum * 1000.0))
                if fd in ready:
                    if ready[fd] & select.POLLIN:
                        self._reader.fill()
                    return
                if ready:
                    raise EOFError("the worker died")  # the sentinel alone
                if check is not None:
                    check()
        finally:
            self._poll.modify(fd, select.POLLIN)

    def recv(
        self, check: Callable[[], None] | None = None, deadline: Any = None
    ) -> bytes:
        """Block for the next reply frame — under ``self.lock``: the
        poll object is not re-entrant.

        ``check`` is the cooperative cancellation hook (the ambient
        ticket's ``check_deadline``), called at least every
        :attr:`POLL_INTERVAL`; ``deadline`` is that ticket's
        :class:`~repro.runtime.admission.Deadline`, and no wait outlasts
        its remaining budget — ``check`` raises at the deadline, not a
        poll interval after it.
        """
        reader = self._reader
        # kept bytes first: a stale reply and the awaited one can arrive
        # in one read, and poll knows nothing of them
        frame = reader.take() if reader.pending else None
        while frame is None:
            quantum = self.POLL_INTERVAL
            if deadline is not None:
                quantum = min(quantum, deadline.remaining())
            # poll rounds up to a whole millisecond, so a wait the
            # deadline cut short ends with the deadline passed
            ready = self._poll.poll(quantum * 1000.0)
            if not ready:
                if check is not None:
                    check()
                continue
            try:
                if len(ready) == 1 and ready[0][0] != reader.fd:
                    raise EOFError  # the sentinel alone: dead, nothing to read
                # the pipe, whatever else fired: a reply that raced the
                # worker's death still drains; a frame still short goes
                # back to the poll, the same death watch and deadline
                reader.fill()
                frame = reader.take()
            except BlockingIOError:
                continue  # woken for bytes a send's wait already took
            except (EOFError, OSError) as exc:
                raise WorkerCrashed(
                    self._obituary("awaiting its reply")
                ) from exc
        return frame

    def _obituary(self, when: str) -> str:
        self._reap(0.2)
        return (
            f"worker process {self.name} (pid {self.pid}) died {when} "
            f"(exitcode {self.exitcode}); its in-flight splits "
            f"fail fast instead of hanging"
        )

    def _reap(self, timeout: float) -> None:
        """Join the process so its exit code is populated, not a stale
        ``None`` (no-op once :meth:`stop` has closed the handle)."""
        try:
            self.process.join(timeout)
            self.exitcode = self.process.exitcode
        except ValueError:
            pass

    # -- lifecycle ----------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL the worker (fault-injection hook for death tests)."""
        if not self._stopped:
            self.process.kill()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinel, join, escalate to terminate; then
        give back the pipe and the process handle's two fds."""
        if self._stopped:
            return
        self._stopped = True
        try:
            write_frame(self._reader.fd, STOP_FRAME)
        except OSError:
            pass  # already dead or dying; the join/terminate settles it
        self._reap(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self._reap(timeout)
        self.conn.close()
        # a late send/recv gets EBADF, not the fd number's next owner
        self._reader.fd = -1
        if self.exitcode is not None:  # reaped: the handle can go too
            self.process.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "dead"
        return f"<ProcWorker {self.name} pid={self.pid} {state}>"


@register_backend("process")
class ProcessBackend(ThreadBackend):
    """Thread-backed caller side + servants in resident worker processes.

    Subclassing :class:`~repro.runtime.threads.ThreadBackend` is the
    point, not a shortcut: submissions, admission waits, collectors and
    futures all live in the parent and need real-thread semantics on the
    wall clock (``now`` is inherited ``time.monotonic``, so ``timeout=``
    means wall seconds exactly as on threads).  What the declaration
    adds is where servants live: ``ParallelApp`` plugs the process
    distribution bundle, whose :class:`~repro.middleware.proc.ProcMiddleware`
    forks, refills and stops the workers — never ``spawn()``, which
    cannot ship closures across a process boundary.
    """

    name = "process"
    servant_host = "process"
