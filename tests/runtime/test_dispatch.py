"""Ambient dispatch tickets: propagation and middleware routing."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import paper_testbed
from repro.errors import CallShed, RemoteError
from repro.middleware import MppMiddleware, use_node
from repro.parallel.concurrency import PooledSpawner
from repro.parallel.partition import DispatchContext
from repro.runtime import (
    ThreadBackend,
    current_dispatch,
    use_backend,
    use_dispatch,
)
from repro.runtime.dispatch import bind_dispatch
from repro.sim import Simulator


class TestAmbientTicket:
    def test_nesting_and_restoration(self):
        assert current_dispatch() is None
        outer, inner = DispatchContext("outer"), DispatchContext("inner")
        with use_dispatch(outer):
            assert current_dispatch() is outer
            with use_dispatch(inner):
                assert current_dispatch() is inner
            assert current_dispatch() is outer
        assert current_dispatch() is None

    def test_none_is_a_passthrough(self):
        with use_dispatch(None):
            assert current_dispatch() is None

    def test_bind_dispatch_captures_creation_context(self):
        ctx = DispatchContext("captured")
        with use_dispatch(ctx):
            bound = bind_dispatch(lambda: current_dispatch())
        assert bound() is ctx  # runs under the capture, not the caller
        plain = bind_dispatch(lambda: current_dispatch())
        assert plain() is None


class TestBackendPropagation:
    def test_thread_spawn_carries_ticket(self):
        backend = ThreadBackend()
        ctx = DispatchContext("spawned")
        with use_dispatch(ctx):
            handle = backend.spawn(lambda: current_dispatch())
        assert handle.join() is ctx

    def test_pooled_spawner_binds_per_task_not_per_worker(self):
        # pool workers are lazily created under the FIRST task's context
        # (shield_dispatch keeps them from capturing it); later tasks
        # must run under their own enqueueing context — and a task
        # enqueued OUTSIDE any dispatch must see none, not the retired
        # ticket the worker happened to be spawned under
        backend = ThreadBackend()
        pool = PooledSpawner(1)
        seen: list = []
        done = threading.Event()
        a, b = DispatchContext("task-a"), DispatchContext("task-b")
        with use_backend(backend):
            with use_dispatch(a):
                pool.spawn(backend, lambda: seen.append(current_dispatch()))
            with use_dispatch(b):
                pool.spawn(backend, lambda: seen.append(current_dispatch()))
            pool.spawn(
                backend,
                lambda: (seen.append(current_dispatch()), done.set()),
            )
        assert done.wait(5)
        pool.stop()
        assert seen == [a, b, None]


class TestMiddlewareContextRouting:
    def test_request_carries_its_ticket_and_server_runs_under_it(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)

        class Probe:
            def observe(self):
                ctx = current_dispatch()
                return ctx.context_id if ctx is not None else None

        out = {}

        def client():
            ref = mpp.export(Probe(), cluster.node(1))
            ctx = DispatchContext("wire")
            with use_node(cluster.head), use_dispatch(ctx):
                out["observed"] = mpp.invoke(ref, "observe")
                out["batched"] = mpp.invoke_batch(ref, "observe", [((), {})])
            out["ticket"] = ctx.context_id
            out["remote"] = ctx.remote_dispatches

        try:
            sim.spawn(client, name="client")
            sim.run()
        finally:
            mpp.shutdown()
            sim.shutdown()
        # the servant-side activity ran under the originating ticket...
        assert out["observed"] == out["ticket"]
        assert out["batched"] == [out["ticket"]]
        # ...and both dispatches were attributed to it
        assert out["remote"] == 2

    def test_a_request_whose_call_was_cancelled_on_the_wire_never_runs(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)
        ran = []

        class Probe:
            def observe(self):
                ran.append(current_dispatch())

        cause = CallShed("shed while the request was on the wire")
        ctx = DispatchContext("wire")
        out = {}

        def client():
            ref = mpp.export(Probe(), cluster.node(1))
            # cancelled after the send, before the request reaches the
            # servant: half the transit of an empty message
            wire = cluster.transit_delay(0, cluster.head, cluster.node(1))
            sim.call_later(wire / 2, lambda: ctx.cancel(cause))
            with use_node(cluster.head), use_dispatch(ctx):
                with pytest.raises(RemoteError) as failure:
                    mpp.invoke(ref, "observe")
            out["cause"] = failure.value.cause

        try:
            sim.spawn(client, name="client")
            sim.run()
        finally:
            mpp.shutdown()
            sim.shutdown()
        # answered with the cancellation cause, the servant never ran
        assert out["cause"] is cause
        assert ran == []
        assert ctx.remote_dispatches == 0
