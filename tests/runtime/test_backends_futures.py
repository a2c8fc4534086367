"""Execution backends and futures — both modes."""

from __future__ import annotations

import pytest

from repro.errors import FutureError
from repro.runtime import (
    Future,
    FutureGroup,
    SimBackend,
    ThreadBackend,
    current_backend,
    use_backend,
)
from repro.sim import Simulator


class TestThreadBackend:
    def test_spawn_and_join(self):
        backend = ThreadBackend()
        handle = backend.spawn(lambda: 21 * 2)
        assert handle.join() == 42
        assert handle.done

    def test_join_reraises(self):
        backend = ThreadBackend()

        def boom():
            raise ValueError("thread boom")

        handle = backend.spawn(boom)
        with pytest.raises(ValueError, match="thread boom"):
            handle.join()

    def test_lock_event_queue_surfaces(self):
        backend = ThreadBackend()
        lock = backend.make_lock()
        with lock:
            pass
        evt = backend.make_event()
        assert not evt.is_set
        evt.set("v")
        assert evt.wait(0.1) and evt.value == "v"
        q = backend.make_queue()
        q.put(1)
        assert q.get() == 1
        with pytest.raises(TimeoutError):
            q.get(timeout=0.01)

    def test_current_backend_default_is_threads(self):
        assert isinstance(current_backend(), ThreadBackend)

    def test_use_backend_scopes_per_thread(self):
        backend = ThreadBackend()
        with use_backend(backend):
            assert current_backend() is backend
        assert current_backend() is not backend


class TestSimBackend:
    def test_spawn_runs_on_virtual_time(self):
        sim = Simulator()
        backend = SimBackend(sim)
        out = []

        def main():
            handle = backend.spawn(lambda: (sim.hold(2.0), sim.now)[1])
            out.append(handle.join())

        sim.spawn(main)
        sim.run()
        assert out == [2.0]

    def test_nested_spawn_inherits_backend(self):
        sim = Simulator()
        backend = SimBackend(sim)
        seen = []

        def inner():
            seen.append(current_backend() is backend)

        def outer():
            backend.spawn(inner).join()

        sim.spawn(lambda: backend.spawn(outer).join())
        sim.run()
        assert seen == [True]

    def test_primitive_factories_are_sim_flavoured(self):
        sim = Simulator()
        backend = SimBackend(sim)
        from repro.sim import SimEvent, SimLock, SimQueue

        assert isinstance(backend.make_lock(), SimLock)
        assert isinstance(backend.make_event(), SimEvent)
        assert isinstance(backend.make_queue(), SimQueue)


class TestFuture:
    def test_set_and_get_threads(self):
        backend = ThreadBackend()
        with use_backend(backend):
            future = Future()
            backend.spawn(lambda: future.set_result(99))
            assert future.result(timeout=5) == 99
            assert future.resolved

    def test_double_resolve_rejected(self):
        with use_backend(ThreadBackend()):
            future = Future.completed(1)
            with pytest.raises(FutureError):
                future.set_result(2)
            with pytest.raises(FutureError):
                future.set_exception(ValueError())

    def test_exception_propagates(self):
        with use_backend(ThreadBackend()):
            future = Future()
            future.set_exception(RuntimeError("fail"))
            with pytest.raises(RuntimeError, match="fail"):
                future.result()

    def test_timeout(self):
        with use_backend(ThreadBackend()):
            future = Future()
            with pytest.raises(FutureError, match="timed out"):
                future.result(timeout=0.01)

    def test_wait_by_necessity_in_sim(self):
        sim = Simulator()
        backend = SimBackend(sim)
        out = []

        def main():
            with use_backend(backend):
                future = Future(name="answer")
                backend.spawn(lambda: (sim.hold(3.0), future.set_result("late"))[0])
                out.append((future.result(), sim.now))

        sim.spawn(main)
        sim.run()
        assert out == [("late", 3.0)]

    def test_run_helper_resolves(self):
        with use_backend(ThreadBackend()):
            future = Future()
            future.run(lambda: 7)
            assert future.result() == 7

    def test_run_helper_records_exception(self):
        with use_backend(ThreadBackend()):
            future = Future()
            with pytest.raises(ValueError):
                future.run(lambda: (_ for _ in ()).throw(ValueError("x")))
            with pytest.raises(ValueError):
                future.result()


class TestFutureGroup:
    def test_results_in_add_order(self):
        sim = Simulator()
        backend = SimBackend(sim)
        out = []

        def main():
            with use_backend(backend):
                group = FutureGroup()
                for i, delay in enumerate([3.0, 1.0, 2.0]):
                    future = group.new(name=f"f{i}")
                    backend.spawn(
                        lambda f=future, d=delay, i=i: (
                            sim.hold(d),
                            f.set_result(i),
                        )
                    )
                out.append(group.results())
                out.append(sim.now)

        sim.spawn(main)
        sim.run()
        assert out == [[0, 1, 2], 3.0]

    def test_of_builder_and_len(self):
        with use_backend(ThreadBackend()):
            group = FutureGroup.of([Future.completed(i) for i in range(4)])
            assert len(group) == 4
            assert group.results() == [0, 1, 2, 3]
