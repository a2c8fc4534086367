"""The out-of-process backend: worker lifecycle, registry wiring, and
the fail-fast contract when a resident worker dies with calls in
flight.  The worker-death regression is the headline: killing a worker
mid-split must latch the call's collector with a useful traceback,
undeploy cleanly, and leak no child processes.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import threading
import time
import weakref

import pytest

from repro.api import ParallelApp, StackSpec
from repro.api.registry import BACKENDS
from repro.apps.wordcount import wordcount_spec
from repro.errors import (
    DeadlineExceeded,
    MiddlewareError,
    RemoteError,
    SerializationError,
    WorkerCrashed,
)
from repro.middleware.proc import ProcMiddleware
from repro.middleware.serialize import RequestEnvelope
from repro.runtime import procbackend
from repro.runtime.admission import Deadline
from repro.runtime.dispatch import use_dispatch
from repro.runtime.procbackend import ProcessBackend, ProcWorker
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece, DispatchContext


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


def _wait_gate(path, timeout=10.0):
    if path is None:
        return
    deadline = time.time() + timeout
    while time.time() < deadline and not os.path.exists(path):
        time.sleep(0.01)


class Doubler:
    def bump(self, values):
        return [v * 2 for v in values]


class GatedDoubler:
    gate_path: str | None = None

    def bump(self, values):
        _wait_gate(GatedDoubler.gate_path)
        return [v * 2 for v in values]


class Faulty:
    def explode(self, x):
        raise ValueError(f"deliberate failure on {x}")


class UnpicklableResult:
    def make(self):
        return lambda: None  # lambdas never pickle


@pytest.fixture(autouse=True)
def clear_gates():
    GatedDoubler.gate_path = None
    yield
    GatedDoubler.gate_path = None


class TestProcessBackendBasics:
    def test_registry_resolves_process_backend(self):
        assert BACKENDS.get("process") is ProcessBackend
        backend = ProcessBackend.for_cluster(None)
        assert isinstance(backend, ProcessBackend)
        assert backend.name == "process"
        assert backend.servant_host == "process"

    def test_wall_clock_semantics_inherited_from_threads(self):
        backend = ProcessBackend()
        t0 = backend.now()
        time.sleep(0.01)
        assert backend.now() - t0 >= 0.005  # monotonic wall seconds


class TestProcessHygiene:
    """No resident worker process outlives its deployment."""

    @staticmethod
    def farm_app():
        return ParallelApp(
            StackSpec(
                target=Doubler,
                work="bump",
                splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
                strategy="farm",
                backend="process",
            )
        )

    def test_workers_stop_on_exit(self):
        app = self.farm_app()
        with app:
            app.start()
            assert app.middleware.live_workers == 2  # one per duplicate
            assert app.submit([1, 11]).result(timeout=20) == [2, 22]
        assert wait_until(lambda: app.middleware.live_workers == 0)
        assert wait_until(
            lambda: not multiprocessing.active_children()
        ), "leaked child processes"

    def test_shutdown_is_idempotent(self):
        app = self.farm_app()
        with app:
            app.start()
        app.middleware.shutdown()
        app.middleware.shutdown()
        assert app.middleware.live_workers == 0


class TestProcMiddlewareDirect:
    def test_export_invoke_roundtrip(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Doubler())
            assert middleware.invoke(ref, "bump", ([1, 2],)) == [2, 4]
            assert middleware.calls == 1
        finally:
            middleware.shutdown()

    def test_remote_exception_carries_remote_traceback(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Faulty())
            with pytest.raises(RemoteError) as err:
                middleware.invoke(ref, "explode", (7,))
            assert "deliberate failure on 7" in str(err.value)
            assert isinstance(err.value.cause, ValueError)
            assert "deliberate failure" in err.value.cause.remote_traceback
        finally:
            middleware.shutdown()

    def test_unpicklable_argument_fails_at_send_site(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Doubler())
            with pytest.raises(
                SerializationError, match="RequestEnvelope.args"
            ):
                middleware.invoke(ref, "bump", (lambda: None,))
            # the worker never saw the bad frame: still serving fine
            assert middleware.invoke(ref, "bump", ([3],)) == [6]
        finally:
            middleware.shutdown()

    def test_unpicklable_result_degrades_to_error_reply(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(UnpicklableResult())
            with pytest.raises(RemoteError) as err:
                middleware.invoke(ref, "make", ())
            assert isinstance(err.value.cause, SerializationError)
            # and the worker survives to serve the next call
            with pytest.raises(RemoteError):
                middleware.invoke(ref, "make", ())
        finally:
            middleware.shutdown()

    def test_unpicklable_servant_fails_at_export(self):
        middleware = ProcMiddleware()
        bad = Doubler()
        bad.handle = lambda: None  # instance state that refuses to pickle
        try:
            with pytest.raises(SerializationError):
                middleware.export(bad)
            # the servant is encoded BEFORE the fork: the failed export
            # left no worker process behind to leak
            assert middleware.workers == []
        finally:
            middleware.shutdown()
        assert not multiprocessing.active_children()

    def test_one_worker_per_servant(self):
        middleware = ProcMiddleware()
        try:
            refs = [middleware.export(Doubler()) for _ in range(3)]
            assert len(middleware.workers) == 3
            pids = {middleware.worker_of(ref).pid for ref in refs}
            assert len(pids) == 3  # genuinely distinct processes
            assert os.getpid() not in pids
        finally:
            middleware.shutdown()
        assert middleware.live_workers == 0

    def test_a_shut_down_middleware_is_not_kept_alive(self):
        """``shutdown`` disarms the ``atexit`` backstop: nothing pins a
        finished middleware, or its stopped workers' pipes and poll
        objects, until the interpreter exits."""
        middleware = ProcMiddleware()
        ref = middleware.export(Doubler())
        assert middleware.invoke(ref, "bump", ([1],)) == [2]
        worker = weakref.ref(middleware.worker_of(ref))
        middleware.shutdown()
        del middleware
        gc.collect()
        assert worker() is None

    @pytest.mark.parametrize(
        "cpus, servants, hosts",
        [(1, 3, [0, 0, 0]), (2, 3, [0, 0, 1]), (2, 5, [0, 0, 0, 1, 1]), (3, 3, [0, 1, 2])],
    )
    def test_a_batch_gets_no_more_workers_than_cpus(
        self, monkeypatch, cpus, servants, hosts
    ):
        """The capped twin: the servants of one batched construction go
        onto ``min(servants, usable_cpus())`` workers by block, each
        beside its neighbours; an export outside a batch still gets a
        worker of its own."""
        monkeypatch.setattr(procbackend, "usable_cpus", lambda: cpus)
        middleware = ProcMiddleware()
        try:
            middleware.batch(servants)
            refs = [middleware.export(Doubler()) for _ in range(servants)]
            assert [middleware.worker_of(ref).index for ref in refs] == hosts
            assert len(middleware.workers) == min(cpus, servants)
            for ref in refs:
                assert middleware.invoke(ref, "bump", ([ref.object_id],)) == [
                    ref.object_id * 2
                ]
            alone = middleware.export(Doubler())
            assert middleware.worker_of(alone).index == min(cpus, servants)
        finally:
            middleware.shutdown()
        assert middleware.live_workers == 0


class TestWorkerCrash:
    def test_dead_worker_raises_instead_of_hanging(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Doubler())
            worker = middleware.worker_of(ref)
            worker.kill()
            wait_until(lambda: not worker.alive)
            with pytest.raises(WorkerCrashed) as err:
                middleware.invoke(ref, "bump", ([1],))
            message = str(err.value)
            assert str(worker.pid) in message
            assert "exitcode" in message
            assert middleware.worker_crashes == 1
        finally:
            middleware.shutdown()

    def test_crash_mid_reply_wait_raises(self, tmp_path):
        gate = str(tmp_path / "gate")
        GatedDoubler.gate_path = gate
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(GatedDoubler())
            worker = middleware.worker_of(ref)
            outcome: dict = {}

            def call():
                try:
                    outcome["result"] = middleware.invoke(ref, "bump", ([1],))
                except Exception as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc

            thread = threading.Thread(target=call)
            thread.start()
            wait_until(lambda: worker.alive and thread.is_alive())
            time.sleep(0.1)  # let the request reach the parked worker
            worker.kill()
            thread.join(timeout=10)
            assert not thread.is_alive(), "reply wait hung on a dead worker"
            assert isinstance(outcome.get("error"), WorkerCrashed)
            assert "awaiting its reply" in str(outcome["error"])
        finally:
            middleware.shutdown()

    def test_worker_death_mid_split_fails_fast_and_cleans_up(self, tmp_path):
        """The regression: kill a resident worker mid-split; the call's
        collector latches the failure (useful message, not a hang), the
        deployment undeploys cleanly, and no child process leaks."""
        gate = str(tmp_path / "gate")
        GatedDoubler.gate_path = gate
        app = ParallelApp(
            StackSpec(
                target=GatedDoubler,
                work="bump",
                # a REAL two-piece data split: each pinned dispatcher
                # parks one piece at its own worker, so the victim is
                # guaranteed to hold an in-flight call when killed
                splitter=WorkSplitter(
                    duplicates=2,
                    split=lambda args, kwargs: [
                        CallPiece(0, (args[0][:1],)),
                        CallPiece(1, (args[0][1:],)),
                    ],
                    combine=lambda rs: [v for r in rs for v in r],
                ),
                strategy="dynamic-farm",
                backend="process",
            )
        )
        with app:
            app.start()
            doomed = app.submit([1, 11])
            workers = app.middleware.workers
            # wait until BOTH workers have a round-trip in flight (the
            # parent-side pipe lock is held for the whole round-trip and
            # the servants are parked on the gate) — the demand-driven
            # queue would otherwise be free to route every piece to the
            # survivor and mask the crash
            assert wait_until(lambda: all(w.lock.locked() for w in workers))
            victim = workers[0]
            victim.kill()
            open(gate, "w").close()  # release the survivor promptly
            with pytest.raises(RemoteError) as err:
                doomed.result(timeout=20)
            message = str(err.value)
            assert str(victim.pid) in message
            assert "fail fast" in message  # the obituary, not a timeout
        # clean undeploy: every worker (dead and alive) is stopped...
        assert wait_until(lambda: app.middleware.live_workers == 0)
        # ...and nothing leaked at the OS level
        assert wait_until(lambda: not multiprocessing.active_children())

    def test_stop_is_idempotent_and_safe_after_death(self):
        worker = ProcWorker(0)
        assert worker.alive
        worker.kill()
        wait_until(lambda: not worker.alive)
        worker.stop()
        worker.stop()  # second stop is a no-op
        assert not worker.alive


class TestWorkersIgnoreSigint:
    def test_sigint_leaves_workers_to_the_parents_teardown(self):
        """Ctrl-C reaches the whole foreground process group: a worker
        that took it died with a KeyboardInterrupt traceback before the
        parent's ``__exit__`` could stop it in order, and the servant's
        next call was a broken pipe."""
        middleware = ProcMiddleware(respawn=False)
        try:
            ref = middleware.export(Doubler())
            worker = middleware.worker_of(ref)
            assert middleware.invoke(ref, "bump", ([1],)) == [2]
            os.kill(worker.pid, signal.SIGINT)  # parked in its pipe read
            assert not wait_until(lambda: not worker.alive, timeout=0.3)
            assert middleware.invoke(ref, "bump", ([2],)) == [4]
            assert middleware.worker_crashes == 0
        finally:
            middleware.shutdown()
        assert not worker.alive and worker.exitcode == 0  # the stop frame
        assert wait_until(lambda: not multiprocessing.active_children())

    def test_deployed_word_counter_survives_sigint(self):
        docs = ["the quick brown fox", "jumps over the lazy dog"] * 2
        app = ParallelApp(wordcount_spec(batches=2, backend="process"))
        with app:
            app.start()
            expected = app.submit(docs).result(timeout=10)
            workers = list(app.middleware.workers)
            for worker in workers:
                os.kill(worker.pid, signal.SIGINT)
            assert not wait_until(
                lambda: not all(w.alive for w in workers), timeout=0.3
            )
            assert app.submit(docs).result(timeout=10) == expected
        assert wait_until(lambda: app.middleware.live_workers == 0)
        assert wait_until(lambda: not multiprocessing.active_children())


class Sleeper:
    def nap(self, seconds, token):
        time.sleep(seconds)
        return token


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestReplyWait:
    """The reply wait is one poll on the pipe and the worker's sentinel:
    death and deadline are seen when they happen, not a quantum later."""

    def test_sigkill_mid_wait_raises_at_once(self, tmp_path, monkeypatch):
        # were death only looked for between polls, this would take 5 s
        monkeypatch.setattr(ProcWorker, "POLL_INTERVAL", 5.0)
        GatedDoubler.gate_path = str(tmp_path / "gate")
        middleware = ProcMiddleware(respawn=False)
        try:
            ref = middleware.export(GatedDoubler())
            worker = middleware.worker_of(ref)
            outcome: dict = {}

            def call():
                try:
                    middleware.invoke(ref, "bump", ([1],))
                except Exception as exc:  # noqa: BLE001 - inspected below
                    outcome["error"] = exc
                    outcome["at"] = time.perf_counter()

            thread = threading.Thread(target=call)
            thread.start()
            assert wait_until(worker.lock.locked)
            time.sleep(0.05)  # the request is with the parked servant
            pid = worker.pid
            killed_at = time.perf_counter()
            worker.kill()
            thread.join(timeout=10)
            assert not thread.is_alive(), "reply wait hung on a dead worker"
            assert isinstance(outcome.get("error"), WorkerCrashed)
            assert outcome["at"] - killed_at < 0.02
            message = str(outcome["error"])
            assert f"pid {pid}" in message
            assert "exitcode -9" in message
        finally:
            middleware.shutdown()

    def test_reply_in_the_pipe_survives_the_workers_death(self):
        middleware = ProcMiddleware(respawn=False)
        try:
            ref = middleware.export(Doubler())
            worker = middleware.worker_of(ref)
            frame = middleware.serializer.encode(
                RequestEnvelope(77, ref.object_id, "bump", ([4],), {})
            )
            with worker.lock:
                worker.send(frame)
                assert wait_until(lambda: worker.conn.poll(0))  # reply landed
                worker.kill()
                assert wait_until(lambda: not worker.alive)
                # pipe and sentinel are both readable: the pipe wins
                reply = middleware.serializer.decode(worker.recv())
                assert (reply.call_id, reply.payload) == (77, [8])
                with pytest.raises(WorkerCrashed, match="exitcode -9"):
                    worker.recv()
        finally:
            middleware.shutdown()

    def test_deadline_fires_at_the_deadline_and_late_reply_is_discarded(self):
        middleware = ProcMiddleware()
        try:
            ref = middleware.export(Sleeper())
            middleware.invoke(ref, "nap", (0.0, "warm"))
            ticket = DispatchContext(
                "reply-wait", deadline=Deadline(0.005, time.monotonic)
            )
            began = time.perf_counter()
            with use_dispatch(ticket), pytest.raises(DeadlineExceeded):
                middleware.invoke(ref, "nap", (0.2, "abandoned"))
            waited = time.perf_counter() - began
            # at the deadline, not at the next 20 ms poll after it
            assert 0.005 <= waited < 0.015
            # the abandoned call's reply arrives ~200 ms later, ahead of
            # this call's: it is recognised by call_id and dropped
            assert middleware.invoke(ref, "nap", (0.0, "mine")) == "mine"
        finally:
            middleware.shutdown()

    def test_no_fd_leaks_over_export_stop_cycles(self):
        middleware = ProcMiddleware()
        middleware.export(Doubler())
        middleware.shutdown()  # warm: lazily opened fds are now open
        baseline = _open_fds()
        for cycle in range(50):
            middleware = ProcMiddleware()
            ref = middleware.export(Doubler())
            if cycle % 10 == 0:
                # the refill path: crash, respawn behind the same ref
                middleware.worker_of(ref).kill()
                with pytest.raises(WorkerCrashed):
                    middleware.invoke(ref, "bump", ([1],))
                assert middleware.worker_respawns == 1
            assert middleware.invoke(ref, "bump", ([cycle],)) == [cycle * 2]
            middleware.shutdown()
        # pipe end, sentinel and the fork's exit-status pipe: all back
        assert _open_fds() == baseline
        assert not multiprocessing.active_children()


class TestRegistryCatalogue:
    def test_unknown_backend_lists_full_catalogue(self):
        # historically this error listed only whatever had been imported
        # so far; the registry bootstrap now guarantees the full set
        from repro.api.registry import UnknownNameError

        with pytest.raises(UnknownNameError) as err:
            BACKENDS.get("does-not-exist")
        for name in ("thread", "sim", "process"):
            assert name in err.value.known
        assert "process" in str(err.value)
