"""Resident worker pool: the dynamic farm's per-deployment dispatcher
activities (pinned PooledSpawner) amortise spawn cost across overlapped
submissions, survive failures, and retire on undeploy."""

from __future__ import annotations

import threading

import pytest

from repro.api import ParallelApp, StackSpec
from repro.parallel import WorkSplitter
from repro.parallel.concurrency.asynchronous import PooledSpawner
from repro.runtime import ThreadBackend, use_backend


class Echo:
    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        return [v * 2 for v in values]


def dynfarm_app(duplicates=3):
    backend = ThreadBackend()
    app = ParallelApp(
        StackSpec(
            target=Echo,
            work="bump",
            splitter=WorkSplitter(duplicates=duplicates, combine=lambda rs: rs[0]),
            strategy="dynamic-farm",
            backend=backend,
        )
    )
    return backend, app


class TestResidentPool:
    def test_residents_amortise_dispatcher_spawns(self):
        backend, app = dynfarm_app(duplicates=3)
        with app:
            app.start()
            assert app.partition._pool is not None
            # warm-up: the first submit spawns the 3 resident
            # dispatchers (plus its own submission activity)
            app.submit([1]).result(timeout=10)
            warm = backend.spawned
            for i in range(4):
                assert app.submit([i]).result(timeout=10) == [i * 2]
            # steady state: ONE spawn per submit (the submission
            # activity) — zero dispatcher spawns on the hot path
            assert backend.spawned - warm == 4
            assert app.partition._pool.executed >= 3 * 5

    def test_pool_retires_on_undeploy(self):
        _, app = dynfarm_app(duplicates=2)
        with app:
            app.start()
            pool = app.partition._pool
            assert pool is not None and not pool.started
            app.submit([1]).result(timeout=10)
            assert pool.started
        assert app.partition._pool is None  # on_undeploy stopped it

    def test_worker_failure_does_not_kill_the_resident_dispatcher(self):
        class Moody:
            def __init__(self, tag=0):
                self.tag = tag

            def bump(self, values):
                if values and values[0] == "boom":
                    raise ValueError("worker exploded")
                return [v * 2 for v in values]

        backend = ThreadBackend()
        app = ParallelApp(
            StackSpec(
                target=Moody,
                work="bump",
                splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
                strategy="dynamic-farm",
                backend=backend,
            )
        )
        with app:
            app.start()
            with pytest.raises(ValueError, match="worker exploded"):
                app.submit(["boom"]).result(timeout=10)
            spawned = backend.spawned
            # the SAME resident dispatchers serve the next call — no
            # respawn happened after the failure
            assert app.submit([4]).result(timeout=10) == [8]
            assert backend.spawned - spawned == 1  # just the submission
            assert app.in_flight == 0


class TestPinnedPooledSpawner:
    def test_pinned_tasks_run_on_their_designated_resident(self):
        pool = PooledSpawner(2, pinned=True)
        backend = ThreadBackend()
        ran: dict[int, str] = {}
        done = threading.Event()

        def task(i):
            ran[i] = threading.current_thread().name
            if len(ran) == 4:
                done.set()

        with use_backend(backend):
            for i in range(4):
                pool.spawn(backend, lambda i=i: task(i), index=i)
        try:
            assert done.wait(5)
            # index routes modulo pool size onto the pinned resident
            assert ran[0] == ran[2] == "pool.worker0"
            assert ran[1] == ran[3] == "pool.worker1"
        finally:
            pool.stop()

    def test_raising_task_is_recorded_and_the_resident_survives(self):
        pool = PooledSpawner(1, pinned=True)
        backend = ThreadBackend()
        done = threading.Event()
        with use_backend(backend):
            pool.spawn(backend, lambda: 1 / 0, index=0)
            pool.spawn(backend, done.set, index=0)
        try:
            assert done.wait(5)  # the resident outlived the ZeroDivision
            assert pool.task_failures == 1
            assert pool.executed == 2
        finally:
            pool.stop()

    def test_shared_mode_keeps_legacy_single_queue_shape(self):
        pool = PooledSpawner(2)
        backend = ThreadBackend()
        done = threading.Event()
        hits = []
        with use_backend(backend):
            for i in range(4):
                pool.spawn(
                    backend,
                    lambda i=i: (hits.append(i), done.set() if i == 3 else None),
                )
        try:
            assert done.wait(5)
            assert pool.started and len(pool._queues) == 1
        finally:
            pool.stop()
