"""Synchronisation primitives: events, locks, semaphores, queues."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import SimEvent, SimLock, SimQueue, SimSemaphore, Simulator


class TestSimEvent:
    def test_wait_blocks_until_set(self):
        sim = Simulator()
        log = []
        evt = SimEvent(sim)

        def waiter():
            evt.wait()
            log.append(("woke", sim.now))

        def setter():
            sim.hold(4.0)
            evt.set("payload")

        sim.spawn(waiter)
        sim.spawn(setter)
        sim.run()
        assert log == [("woke", 4.0)]
        assert evt.value == "payload"

    def test_wait_on_set_event_returns_immediately(self):
        sim = Simulator()
        log = []
        evt = SimEvent(sim)
        evt.set()

        def waiter():
            assert evt.wait() is True
            log.append(sim.now)

        sim.spawn(waiter)
        sim.run()
        assert log == [0.0]

    def test_set_wakes_all_waiters(self):
        sim = Simulator()
        woke = []
        evt = SimEvent(sim)
        for i in range(3):
            sim.spawn(lambda i=i: (evt.wait(), woke.append(i)))
        sim.spawn(lambda: (sim.hold(1.0), evt.set()))
        sim.run()
        assert sorted(woke) == [0, 1, 2]

    def test_double_set_is_idempotent(self):
        sim = Simulator()
        evt = SimEvent(sim)
        evt.set(1)
        evt.set(2)
        assert evt.value == 1

    def test_wait_timeout_returns_false(self):
        sim = Simulator()
        results = []
        evt = SimEvent(sim)

        def waiter():
            results.append(evt.wait(timeout=2.0))
            results.append(sim.now)

        sim.spawn(waiter)
        sim.run()
        assert results == [False, 2.0]

    def test_timeout_does_not_fire_after_normal_wake(self):
        sim = Simulator()
        results = []
        evt = SimEvent(sim)

        def waiter():
            results.append(evt.wait(timeout=10.0))
            sim.hold(20.0)  # survive past the stale timeout
            results.append("alive")

        sim.spawn(waiter)
        sim.spawn(lambda: (sim.hold(1.0), evt.set()))
        sim.run()
        assert results == [True, "alive"]

    def test_clear_allows_reuse(self):
        sim = Simulator()
        evt = SimEvent(sim)
        evt.set("x")
        evt.clear()
        assert not evt.is_set
        assert evt.value is None


class TestSimLock:
    def test_mutual_exclusion_and_fifo_order(self):
        sim = Simulator()
        lock = SimLock(sim)
        log = []

        def worker(wid):
            with lock:
                log.append(("enter", wid, sim.now))
                sim.hold(1.0)
                log.append(("exit", wid, sim.now))

        for wid in range(3):
            sim.spawn(lambda wid=wid: worker(wid))
        sim.run()
        # strictly serialized, FIFO
        assert log == [
            ("enter", 0, 0.0),
            ("exit", 0, 1.0),
            ("enter", 1, 1.0),
            ("exit", 1, 2.0),
            ("enter", 2, 2.0),
            ("exit", 2, 3.0),
        ]
        assert lock.contended == 2

    def test_not_reentrant(self):
        sim = Simulator()
        lock = SimLock(sim)
        caught = []

        def proc():
            lock.acquire()
            try:
                lock.acquire()
            except SimulationError:
                caught.append("yes")
            lock.release()

        sim.spawn(proc)
        sim.run()
        assert caught == ["yes"]

    def test_release_by_non_owner_rejected(self):
        sim = Simulator()
        lock = SimLock(sim)
        caught = []

        def owner():
            lock.acquire()
            sim.hold(2.0)
            lock.release()

        def thief():
            sim.hold(1.0)
            try:
                lock.release()
            except SimulationError:
                caught.append("rejected")

        sim.spawn(owner)
        sim.spawn(thief)
        sim.run()
        assert caught == ["rejected"]


class TestSimSemaphore:
    def test_counting_limits_concurrency(self):
        sim = Simulator()
        sem = SimSemaphore(sim, value=2)
        active = [0]
        peak = [0]

        def worker():
            with sem:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                sim.hold(1.0)
                active[0] -= 1

        for _ in range(5):
            sim.spawn(worker)
        sim.run()
        assert peak[0] == 2

    def test_negative_initial_value_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SimSemaphore(sim, value=-1)

    def test_release_without_waiters_increments(self):
        sim = Simulator()
        sem = SimSemaphore(sim, value=0)
        sem.release()
        assert sem.value == 1


class TestSimQueue:
    def test_put_get_fifo(self):
        sim = Simulator()
        q = SimQueue(sim)
        got = []

        def producer():
            for i in range(3):
                sim.hold(1.0)
                q.put(i)

        def consumer():
            for _ in range(3):
                got.append((q.get(), sim.now))

        sim.spawn(consumer)
        sim.spawn(producer)
        sim.run()
        assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_get_timeout_raises(self):
        sim = Simulator()
        q = SimQueue(sim)
        caught = []

        def consumer():
            try:
                q.get(timeout=2.5)
            except TimeoutError:
                caught.append(sim.now)

        sim.spawn(consumer)
        sim.run()
        assert caught == [2.5]

    def test_try_get(self):
        sim = Simulator()
        q = SimQueue(sim)
        out = []

        def proc():
            out.append(q.try_get())
            q.put("x")
            out.append(q.try_get())

        sim.spawn(proc)
        sim.run()
        assert out == [(False, None), (True, "x")]

    def test_multiple_consumers_each_item_consumed_once(self):
        sim = Simulator()
        q = SimQueue(sim)
        got = []

        def consumer(cid):
            got.append((cid, q.get()))

        sim.spawn(lambda: consumer(0))
        sim.spawn(lambda: consumer(1))

        def producer():
            sim.hold(1.0)
            q.put("a")
            sim.hold(1.0)
            q.put("b")

        sim.spawn(producer)
        sim.run()
        assert sorted(item for _, item in got) == ["a", "b"]
        assert sorted(cid for cid, _ in got) == [0, 1]
