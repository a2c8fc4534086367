"""ThreadBackend carrier recycling: every activity gets a thread of its
own at once, but the OS thread under it is reused — and must look fresh."""

from __future__ import annotations

import contextvars
import os
import signal
import sys
import threading
import time

import pytest

from repro.aop.cflow import (
    bypassing_construction,
    construction_bypass,
    entered_advice,
    flow_state,
)
from repro.middleware.context import (
    current_node,
    in_server_dispatch,
    server_dispatch,
    use_node,
)
from repro.parallel.concurrency import PooledSpawner
from repro.parallel.partition import DispatchContext
from repro.runtime import ThreadBackend, current_backend, current_dispatch, use_backend
from repro.runtime import backend as backend_module
from repro.runtime import threads
from repro.runtime.dispatch import AMBIENT, Ambient, current_piece, use_dispatch

PATIENCE = 5.0


def wait_until(predicate, timeout: float = PATIENCE) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.002)
    return True


def join(task, timeout: float = PATIENCE):
    """``task.join()`` that fails the test instead of hanging it."""
    assert wait_until(lambda: task.done, timeout), "activity never finished"
    return task.join()


def parked(ident: int) -> bool:
    """Is the OS thread ``ident`` alive and between activities?"""
    return any(
        thread.ident == ident and thread.name == "carrier.idle"
        for thread in threading.enumerate()
    )


def carriers_alive() -> int:
    return sum(1 for t in threading.enumerate() if t.name == "carrier.idle")


def retire_parked() -> None:
    """End every parked carrier now instead of waiting out its lifetime."""
    backend = ThreadBackend()
    while carriers_alive():
        for carrier in list(threads._idle):
            carrier.retire_at = 0.0
        join(backend.spawn(lambda: None))  # wakes one; it sees its age


@pytest.fixture
def young_carriers(monkeypatch):
    """Carriers that outlive the test: the ones earlier tests left parked
    (of unknown age) go first and new ones are born to live a minute, so
    which OS thread serves a hand-off stops depending on the clock."""
    retire_parked()
    monkeypatch.setattr(threads, "CARRIER_LIFETIME", 60.0)
    yield
    retire_parked()


class TestReuse:
    def test_sequential_activities_share_an_os_thread(self, young_carriers):
        backend = ThreadBackend()
        idents = set()
        for _ in range(200):
            task = backend.spawn(lambda: idents.add(threading.get_ident()))
            join(task)
            # let the carrier finish parking before the next spawn
            assert wait_until(lambda: carriers_alive() >= 1)
        assert backend.spawned == 200
        assert backend.threads_started <= 2
        assert len(idents) <= 2

    def test_blocked_activities_never_queue_the_next_one(self):
        backend = ThreadBackend()
        gate, arrived = threading.Event(), []
        blocked = [
            backend.spawn(lambda: (arrived.append(1), gate.wait(PATIENCE)))
            for _ in range(12)
        ]
        try:
            assert wait_until(lambda: len(arrived) == 12)
            # all twelve hold their carriers; the thirteenth still runs
            assert join(backend.spawn(lambda: "ran")) == "ran"
        finally:
            gate.set()
        for task in blocked:
            join(task)

    def test_a_raising_activity_returns_its_carrier(self, young_carriers):
        backend = ThreadBackend()

        def boom():
            raise ValueError(threading.get_ident())

        failed = backend.spawn(boom)
        with pytest.raises(ValueError) as caught:
            join(failed)
        ident = caught.value.args[0]
        assert failed.done
        assert wait_until(lambda: parked(ident))
        started = backend.threads_started
        assert join(backend.spawn(threading.get_ident)) == ident
        assert backend.threads_started == started

    @pytest.mark.parametrize("kind", [SystemExit, KeyboardInterrupt])
    def test_exit_and_interrupt_are_captured_for_join(self, kind):
        backend = ThreadBackend()

        def leave():
            raise kind("from the activity")

        task = backend.spawn(leave)
        with pytest.raises(kind, match="from the activity"):
            join(task)
        # the carrier survived it and serves on
        assert join(backend.spawn(lambda: 7)) == 7

    def test_carriers_retire_by_themselves(self):
        before = set(threading.enumerate())

        def added() -> int:
            return len(set(threading.enumerate()) - before)

        backend = ThreadBackend()
        gate = threading.Event()
        tasks = [backend.spawn(lambda: gate.wait(PATIENCE)) for _ in range(8)]
        # carriers other tests left parked may serve some of the eight
        assert added() == backend.threads_started <= 8
        gate.set()
        for task in tasks:
            join(task)
        # back at (or, as inherited carriers retire too, under) baseline
        assert wait_until(lambda: added() == 0, timeout=20 * threads.CARRIER_LIFETIME)
        assert threading.active_count() <= len(before)

    def test_a_busy_carrier_retires_at_its_first_park_past_its_lifetime(
        self, monkeypatch
    ):
        retire_parked()
        monkeypatch.setattr(threads, "CARRIER_LIFETIME", 0.05)
        backend = ThreadBackend()
        idents = []
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:  # never idle for 0.05 s
            join(backend.spawn(lambda: idents.append(threading.get_ident())))
        assert backend.threads_started >= 5  # 0.5 s of work, 0.05 s lives
        assert backend.spawned > 10 * backend.threads_started  # and reuse

    def test_names_and_counters_survive_overlapped_submitters(self):
        backend = ThreadBackend()
        ran: list[str] = []
        handles: list = []
        submitters, each = 8, 150

        def submit():
            for _ in range(each):
                handles.append(
                    backend.spawn(
                        lambda: ran.append(threading.current_thread().name)
                    )
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=submit) for _ in range(submitters)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(PATIENCE * 4)
                assert not worker.is_alive()
            for task in handles:
                join(task)
        finally:
            sys.setswitchinterval(interval)
        total = submitters * each
        assert backend.spawned == total
        assert len(set(ran)) == len(ran) == total  # no duplicate task-N
        assert 1 <= backend.threads_started <= total

    def test_hand_off_racing_a_retiring_carrier_loses_nothing(self, monkeypatch):
        # spawn at gaps around a tiny lifetime, so hand-offs meet
        # carriers on their way out; every activity must still run
        monkeypatch.setattr(threads, "CARRIER_LIFETIME", 0.002)
        backend = ThreadBackend()
        for i in range(300):
            time.sleep(0.0015 + 0.0001 * (i % 10))
            assert join(backend.spawn(lambda i=i: i)) == i


class TestLooksLikeAFreshThread:
    def test_thread_is_named_after_each_activity(self):
        backend = ThreadBackend()
        name = lambda: threading.current_thread().name  # noqa: E731
        assert join(backend.spawn(name, name="first.activity")) == "first.activity"
        assert join(backend.spawn(name, name="second.activity")) == "second.activity"
        assert join(backend.spawn(name)).startswith("task-")

    def test_ambient_state_is_clean_after_an_activity_that_raised(
        self, young_carriers
    ):
        backend, other = ThreadBackend(), ThreadBackend()
        var = contextvars.ContextVar("test_thread_reuse.var", default="unset")
        ticket = DispatchContext("dirty")

        def dirty():
            var.set("dirty")
            piece = Ambient(AMBIENT.pieces, object())
            with use_backend(other), use_dispatch(ticket), piece:
                with use_node(object()), server_dispatch():
                    with entered_advice():
                        with bypassing_construction():
                            raise RuntimeError(threading.get_ident())

        with pytest.raises(RuntimeError) as caught:
            join(backend.spawn(dirty))
        ident = caught.value.args[0]
        assert wait_until(lambda: parked(ident))

        def inspect():
            return {
                "ident": threading.get_ident(),
                "backend": current_backend(),
                "backend_depth": len(backend_module._STATE.stack),
                "dispatch": current_dispatch(),
                "piece": current_piece(),
                "node": current_node(),
                "server_dispatch": in_server_dispatch(),
                "advice_depth": flow_state().advice_depth,
                "construction_bypass": construction_bypass(),
                "contextvar": var.get(),
            }

        assert join(backend.spawn(inspect)) == {
            "ident": ident,  # the very thread the dirty activity ran on
            "backend": backend,
            "backend_depth": 1,
            "dispatch": None,
            "piece": None,
            "node": None,
            "server_dispatch": False,
            "advice_depth": 0,
            "construction_bypass": False,
            "contextvar": "unset",
        }

    def test_a_parked_carrier_holds_nothing_of_its_activity(self, young_carriers):
        import gc
        import weakref

        class Payload:
            pass

        backend = ThreadBackend()
        payload = Payload()
        alive = weakref.ref(payload)
        task = backend.spawn(lambda p=payload: (threading.get_ident(), p))
        ident = join(task)[0]
        assert wait_until(lambda: parked(ident))
        del payload, task
        gc.collect()
        assert alive() is None


class TestResidents:
    @staticmethod
    def residents() -> list:
        return sorted(
            t.name for t in threading.enumerate() if t.name.startswith("pool.")
        )

    def start_pool(self, backend):
        pool = PooledSpawner(2)
        ran = []
        with use_backend(backend):
            pool.spawn(backend, lambda: ran.append(threading.current_thread().name))
        assert wait_until(lambda: ran in (["pool.worker0"], ["pool.worker1"]))
        return pool

    def test_a_pool_resident_outlives_the_carrier_lifetime(self):
        pool = self.start_pool(ThreadBackend())
        # idle on their queue far longer than a carrier lives: the
        # lifetime ends carriers between activities, never activities
        time.sleep(5 * threads.CARRIER_LIFETIME)
        assert self.residents() == ["pool.worker0", "pool.worker1"]
        pool.stop()
        assert wait_until(lambda: self.residents() == [])

    def test_a_stopped_resident_returns_its_carrier(self, young_carriers):
        backend = ThreadBackend()
        pool = self.start_pool(backend)
        assert carriers_alive() == 0  # both carriers are occupied
        pool.stop()
        assert wait_until(lambda: carriers_alive() == 2)
        started = backend.threads_started
        assert join(backend.spawn(lambda: "reused")) == "reused"
        assert backend.threads_started == started


class TestFork:
    def test_a_forked_child_does_not_hand_off_to_the_parents_carriers(
        self, young_carriers
    ):
        backend = ThreadBackend()
        ident = join(backend.spawn(threading.get_ident))
        assert wait_until(lambda: parked(ident))
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            # the carrier parked above does not exist here; a hand-off to
            # it would never run.  SIGALRM turns that hang into a status.
            signal.alarm(5)
            try:
                ok = ThreadBackend().spawn(lambda: 42).join() == 42
            except BaseException:  # noqa: BLE001 - any failure is a status
                ok = False
            os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert status == 0
