"""Unit coverage for the asyncio execution backend: the loop clock,
the dual-face event, coroutine bridging (how often a thread crosses
into the loop, how a task's end reaches the future), the event's
thread-to-loop hand-over under a short switch interval, fire-and-forget
detachment, the base backend's awaitable rejection, the registry entry,
the ``"loop"`` fault site, and what only a deployment on the loop does:
overlapping awaits, a deadline trace naming the await, native oneway
and no coroutine left unawaited by a shed (the pairing rules are one
table, ``tests/api/test_backend_rules.py``; what every backend does
alike is ``tests/parallel/test_backend_conformance.py``)."""

from __future__ import annotations

import asyncio
import concurrent.futures
import gc
import inspect
import os
import signal
import sys
import threading
import time
import warnings

import pytest

from repro.api import ParallelApp, StackSpec
from repro.api.registry import BACKENDS
from repro.errors import BackendError, CallShed, DeadlineExceeded
from repro.faults.schedule import FAULT_SITES, FaultEvent, FaultSchedule
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece, DispatchContext
from repro.runtime import AsyncioBackend, AsyncioEvent, ThreadBackend
from repro.runtime.dispatch import use_dispatch
from repro.runtime.futures import Future


PATIENCE = 10.0


@pytest.fixture()
def backend():
    return AsyncioBackend()


class TestLoopClock:
    def test_now_is_the_loop_clock(self, backend):
        before = backend.now()
        loop_time = backend.loop.time()
        assert before <= loop_time <= backend.now()

    def test_now_advances(self, backend):
        t0 = backend.now()
        time.sleep(0.01)
        assert backend.now() > t0


class TestForkedChild:
    def test_a_bridge_in_a_forked_child_raises_at_once(self, backend):
        """A child forked after the loop thread ran inherits a loop no
        thread runs, whose epoll instance and self-pipe are its
        parent's: its first bridge raises a named error at once (it
        used to time out) and closes the coroutine, and the parent's
        loop is untouched."""

        async def seven():
            return 7

        assert backend.bridge(seven()).result(timeout=PATIENCE) == 7
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            status = 1
            try:
                coroutine = seven()
                started = time.monotonic()
                try:
                    backend.bridge(coroutine)
                except BackendError as exc:
                    if (
                        "forked" in str(exc)
                        and time.monotonic() - started < 1.0
                        and inspect.getcoroutinestate(coroutine) == "CORO_CLOSED"
                    ):
                        status = 0
            finally:
                os._exit(status)
        deadline = time.monotonic() + PATIENCE
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's bridge hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(done[1]) == 0
        assert backend.bridge(seven()).result(timeout=PATIENCE) == 7


class TestAsyncioEvent:
    def test_make_event_is_dual_face(self, backend):
        event = backend.make_event(name="gate")
        assert isinstance(event, AsyncioEvent)
        assert not event.is_set
        event.set("payload")
        assert event.is_set
        assert event.value == "payload"
        assert event.wait(timeout=1.0)
        event.clear()
        assert not event.is_set
        assert event.value is None

    def test_set_wakes_a_loop_side_awaiter(self, backend):
        event = backend.make_event(name="gate")

        async def parked():
            await event.wait_async()
            return "woken"

        # bridge() owns starting the loop; the await parks loop-side
        future = backend.bridge(parked())
        assert not future.resolved
        event.set()
        assert future.result(timeout=5.0) == "woken"


class TestBridge:
    def test_plain_value_resolves_without_the_loop(self, backend):
        started = backend.tasks_started
        future = backend.bridge(42)
        assert future.resolved
        assert future.result() == 42
        assert backend.tasks_started == started  # no loop round-trip

    def test_coroutine_runs_as_a_loop_task(self, backend):
        async def produce():
            await asyncio.sleep(0.001)
            return "done"

        future = backend.bridge(produce())
        assert isinstance(future, Future)
        assert future.result(timeout=5.0) == "done"
        assert backend.tasks_started >= 1
        assert backend.tasks_finished >= 1

    def test_exceptions_cross_the_bridge(self, backend):
        async def explode():
            raise ValueError("loop-side failure")

        with pytest.raises(ValueError, match="loop-side failure"):
            backend.bridge(explode()).result(timeout=5.0)

    def test_pack_list_gathers_concurrently_in_order(self, backend):
        async def item(i):
            await asyncio.sleep(0.01)
            return i

        # mixed pack: plain values keep their slots, awaitables gather
        t0 = time.perf_counter()
        out = backend.finish([item(0), "plain", item(2), item(3)])
        elapsed = time.perf_counter() - t0
        assert out == [0, "plain", 2, 3]
        # concurrent, not sequential: 3 x 10ms awaits well under 30ms
        assert elapsed < 0.25

    def test_finish_passes_plain_values_through(self, backend):
        assert backend.finish("untouched") == "untouched"
        assert backend.finish([1, 2]) == [1, 2]

    def test_detach_schedules_and_forgets(self, backend):
        done = []

        async def work():
            done.append(True)

        backend.detach(work())
        deadline = time.time() + 5.0
        while time.time() < deadline and not done:
            time.sleep(0.005)
        assert done == [True]

    def test_bare_cancellation_fails_the_future_with_an_exception(self, backend):
        # no ticket, so no cause: the waiter must still get an Exception
        # (asyncio.CancelledError is a BaseException and would escape
        # every ``except Exception`` on the submit path)
        parked, tasks = threading.Event(), []
        cancelled_before = backend.tasks_cancelled
        future = backend.bridge(_sleeper(parked, tasks))
        assert parked.wait(5.0)
        backend.loop.call_soon_threadsafe(tasks[0].cancel)
        with pytest.raises(concurrent.futures.CancelledError) as caught:
            future.result(timeout=5.0)
        assert isinstance(caught.value, Exception)
        assert backend.tasks_cancelled == cancelled_before + 1

    def test_ticket_cancellation_surfaces_the_tickets_cause(self, backend):
        parked, tasks = threading.Event(), []
        ticket = DispatchContext(name="unit", backend=backend)
        with use_dispatch(ticket):
            future = backend.bridge(_sleeper(parked, tasks))
        assert parked.wait(5.0)
        cause = CallShed("shed by the test")
        ticket.cancel(cause)  # fires the task's cancel hook
        with pytest.raises(CallShed) as caught:
            future.result(timeout=5.0)
        assert caught.value is cause

    def test_task_creation_failing_fails_the_future(self, backend, monkeypatch):
        made = []

        def no_tasks(coro, **kwargs):
            made.append(coro)
            raise RuntimeError("no tasks today")

        async def orphan():
            return 1

        outcome = orphan()
        monkeypatch.setattr(backend.loop, "create_task", no_tasks)
        with pytest.raises(RuntimeError, match="no tasks today"):
            backend.bridge(outcome).result(timeout=5.0)
        # neither the servant's coroutine nor the supervising one is left
        # to warn "never awaited" when it is collected
        assert [inspect.getcoroutinestate(c) for c in (outcome, *made)] == [
            inspect.CORO_CLOSED,
            inspect.CORO_CLOSED,
        ]


async def _sleeper(parked, tasks):
    """Park on the loop for the cancellation tests: records its task and
    reports once it is really suspended (``call_soon`` runs after this
    coroutine has yielded to the loop)."""
    tasks.append(asyncio.current_task())
    asyncio.get_running_loop().call_soon(parked.set)
    await asyncio.sleep(30)


@pytest.fixture()
def crossings(backend, monkeypatch):
    """Every call a thread makes into the loop goes through
    ``loop.call_soon_threadsafe``: record them."""
    loop = backend.loop
    real, calls = loop.call_soon_threadsafe, []

    def counting(callback, *args, **kwargs):
        calls.append(callback)
        return real(callback, *args, **kwargs)

    monkeypatch.setattr(loop, "call_soon_threadsafe", counting)
    return calls


class TestLoopCrossings:
    """A thread touches the loop only when a coroutine needs it."""

    def test_four_piece_async_farm_submit_crosses_four_times(self, crossings):
        class Doubler:
            async def bump(self, values):
                await asyncio.sleep(0)
                return [v * 2 for v in values]

        splitter = WorkSplitter(
            duplicates=4,
            split=lambda args, kwargs: [
                CallPiece(i, ([v],)) for i, v in enumerate(args[0])
            ],
            combine=lambda results: [v for part in results for v in part],
        )
        spec = StackSpec(
            target=Doubler,
            work="bump",
            splitter=splitter,
            strategy="farm",
            concurrency=True,
            backend="asyncio",
        )
        with ParallelApp(spec) as app:
            app.start()
            app.submit([0, 1, 2, 3]).result(timeout=10.0)  # warm the path
            tasks_before = app.backend.tasks_started
            del crossings[:]
            assert app.submit([1, 2, 3, 4]).result(timeout=10.0) == [2, 4, 6, 8]
            # one per bridged piece; none for the 5 futures that resolved
            assert len(crossings) == 4
            assert app.backend.tasks_started == tasks_before + 4

    def test_unawaited_futures_and_events_never_cross(self, backend, crossings):
        Future(name="value", backend=backend).set_result(1)
        Future(name="error", backend=backend).set_exception(ValueError("x"))
        event = backend.make_event(name="nobody-awaits")
        event.set("v")
        event.clear()
        event.set()
        assert backend.bridge(42).result() == 42
        assert crossings == []

    def test_first_await_then_set_crosses_once(self, backend, crossings):
        event = backend.make_event(name="gate")
        parked = threading.Event()

        async def waiter():
            # runs once this coroutine is suspended inside wait_async()
            asyncio.get_running_loop().call_soon(parked.set)
            await event.wait_async()
            return "woken"

        future = backend.bridge(waiter())
        assert parked.wait(5.0)
        del crossings[:]  # the bridge's own
        event.set()
        assert future.result(timeout=5.0) == "woken"
        assert len(crossings) == 1


@pytest.fixture()
def short_switch_interval():
    """Switch threads ~500x more often than the default, so the loop
    thread and the test thread interleave inside set()/wait_async()."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def _spin_until(cond, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "a wakeup was lost"
        time.sleep(0)


class TestNoLostWakeup:
    """The event's loop face is made by its first awaiter while any
    thread may be calling ``set()``: the hand-over must wake the awaiter
    in every interleaving."""

    ROUNDS = 3000

    def test_first_await_racing_set(self, backend, short_switch_interval):
        events = [backend.make_event(name=f"race.{i}") for i in range(self.ROUNDS)]
        reached = [0]  # written on the loop, read by the test thread

        async def waiter():
            for i, event in enumerate(events):
                reached[0] = i + 1  # announce, THEN make the first await
                await event.wait_async()
            return len(events)

        future = backend.bridge(waiter())
        for i, event in enumerate(events):
            if i % 2 == 0:
                # let the coroutine get here first, so set() runs while
                # it is building the face and parking on it ...
                _spin_until(lambda: reached[0] > i)
            # ... and on odd rounds set() runs first, before any face
            # exists: only wait_async's re-read of the flag can see it
            event.set()
        assert future.result(timeout=10.0) == self.ROUNDS

    def test_set_before_the_first_await(self, backend):
        event = backend.make_event(name="early")
        event.set("v")

        async def waiter():
            return await event.wait_async()

        assert backend.bridge(waiter()).result(timeout=5.0) is True

    def test_clear_then_wait_again(self, backend, short_switch_interval):
        event = backend.make_event(name="reused")
        cleared = [0]

        async def waiter():
            for i in range(self.ROUNDS):
                await event.wait_async()
                event.clear()
                cleared[0] = i + 1
            return cleared[0]

        future = backend.bridge(waiter())
        for i in range(self.ROUNDS):
            # set() races the coroutine's way back into wait_async()
            _spin_until(lambda: cleared[0] == i)
            event.set()
        assert future.result(timeout=10.0) == self.ROUNDS
        assert not event.is_set


class TestBaseBackendRejection:
    def test_thread_finish_rejects_coroutines(self):
        async def orphan():
            return 1

        with pytest.raises(BackendError, match="backend='asyncio'"):
            ThreadBackend().finish(orphan())

    def test_thread_finish_rejects_packs_with_awaitables(self):
        async def orphan():
            return 1

        with pytest.raises(BackendError, match="backend='asyncio'"):
            ThreadBackend().finish([1, orphan()])

    def test_thread_finish_passes_plain_values(self):
        assert ThreadBackend().finish([1, 2, 3]) == [1, 2, 3]


class TestRegistry:
    def test_registered_under_asyncio(self):
        import repro.runtime  # noqa: F401 - triggers registration

        assert BACKENDS.get("asyncio") is AsyncioBackend
        made = AsyncioBackend.for_cluster(None)
        assert made.name == "asyncio"
        assert made.servant_host == "loop"


class TestLoopFaultSite:
    def test_loop_is_a_known_site(self):
        assert "loop" in FAULT_SITES
        assert FaultEvent("drop_reply", site="loop").site == "loop"

    def test_delay_reply_is_awaitable(self, backend):
        async def quick():
            return "v"

        schedule = FaultSchedule(
            [FaultEvent("delay_reply", site="loop", on_call=1, delay=0.05)]
        )
        ticket = DispatchContext("delayed", backend=backend, faults=schedule)
        t0 = time.perf_counter()
        with use_dispatch(ticket):
            assert backend.finish(quick()) == "v"
        assert time.perf_counter() - t0 >= 0.04
        assert schedule.fired_count() == 1


# -- deployed on the loop: what only this backend does ----------------------


class Gated:
    """Where the deployed servants below park: ``gate``, when set up."""

    gate = None


async def _parked(value):
    if Gated.gate is not None:
        await Gated.gate.wait_async()
    return value


class AsyncEcho:
    def __init__(self, tag=0):
        self.tag = tag

    async def bump(self, values):
        return await _parked([v * 2 for v in values])


class AsyncBlock:
    def __init__(self, size=4):
        self.size = size

    async def step(self, iterations):
        return await _parked(1.0)

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class AsyncSummer:
    async def total(self, values):
        return await _parked(sum(values))


def _halves(args, kwargs):
    middle = len(args[0]) // 2
    return [CallPiece(0, (args[0][:middle],)), CallPiece(1, (args[0][middle:],))]


def _deployed(strategy, **spec):
    """An asyncio app whose calls are two pieces each, with its start
    arguments, the payload of call ``i`` and its expected result."""
    start = ()
    if strategy in ("farm", "dynamic-farm"):
        fields = dict(
            target=AsyncEcho,
            work="bump",
            splitter=WorkSplitter(
                duplicates=2,
                split=_halves,
                combine=lambda rs: [v for r in rs for v in r],
            ),
        )
        payload, expected = (lambda i: [i, i + 10]), (lambda i: [2 * i, 2 * i + 20])
    elif strategy == "heartbeat":
        fields = dict(
            target=AsyncBlock, work="step", splitter=WorkSplitter(duplicates=2, combine=sum)
        )
        start, payload, expected = (4,), (lambda i: 2), (lambda i: 2.0)
    else:
        fields = dict(
            target=AsyncSummer,
            work="total",
            strategy_options=dict(
                should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
                divide=_halves,
                merge=sum,
            ),
        )
        payload = lambda i: list(range(i, i + 8))  # noqa: E731
        expected = lambda i: sum(range(i, i + 8))  # noqa: E731
    app = ParallelApp(StackSpec(strategy=strategy, backend="asyncio", **fields, **spec))
    return app, start, payload, expected


class TestDeployedOnTheLoop:
    @pytest.fixture(autouse=True)
    def no_gate(self):
        Gated.gate = None
        yield
        Gated.gate = None

    def test_an_apps_deadline_clock_is_the_loop_clock(self):
        app = _deployed("farm")[0]
        assert abs(app.backend.now() - app.backend.loop.time()) < 0.5

    def test_awaits_overlap_on_the_loop(self):
        # the point of the backend: piece awaits run CONCURRENTLY as loop
        # tasks, not one thread per in-flight call
        app, _, payload, expected = _deployed("farm")
        with app:
            app.start()
            Gated.gate = app.backend.make_event(name="gate")
            futures = [app.submit(payload(i)) for i in range(4)]
            _spin_until(lambda: app.backend.live_tasks >= 2)
            Gated.gate.set()
            outcomes = [f.result(timeout=20) for f in futures]
            assert outcomes == [expected(i) for i in range(4)]
        assert app.backend.peak_tasks >= 2
        _spin_until(lambda: app.backend.live_tasks == 0)

    def test_deadline_trace_names_the_await(self):
        app, _, payload, _ = _deployed("farm")
        with app:
            app.start()
            Gated.gate = app.backend.make_event(name="gate")
            doomed = app.submit(payload(0), timeout=0.2)
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=20)
            assert err.value.trace is not None
            assert "awaiting an async servant" in str(err.value)
            Gated.gate.set()

    def test_native_oneway_farm_pack(self):
        # no middleware, the loop is the transport: a oneway submit
        # resolves to None at once while the detached task runs on
        done = []

        class Sink:
            async def note(self, x):
                done.append(x)

        app = ParallelApp(
            StackSpec(
                target=Sink,
                work="note",
                strategy="none",
                backend="asyncio",
                oneway=("note",),
            )
        )
        with app:
            app.start()
            assert app.map(range(4), pack=True, oneway=True).results() == [None] * 4
            _spin_until(lambda: sorted(done) == [0, 1, 2, 3])

    @pytest.mark.parametrize(
        "strategy", ["farm", "dynamic-farm", "heartbeat", "divide-conquer"]
    )
    def test_shed_mid_gather_leaves_no_coroutine_unawaited(self, strategy):
        """A call shed while its gather awaits one piece has the
        coroutine of the piece behind it in hand, created and not yet
        awaited: the unwinding gather closes it ("coroutine ... was
        never awaited" otherwise, from the finalizer)."""
        app, start, payload, expected = _deployed(
            strategy,
            concurrency=False,  # the gather awaits piece by piece
            max_in_flight=1,
            overflow="shed-oldest",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with app:
                app.start(*start)
                Gated.gate = app.backend.make_event(name="gate")
                oldest = app.submit(payload(0))
                # piece 0's await is parked on the gate; piece 1's
                # coroutine exists and waits its turn in the gather
                _spin_until(lambda: app.backend.live_tasks == 1)
                newest = app.submit(payload(1))  # sheds `oldest`
                with pytest.raises(CallShed):
                    oldest.result(timeout=20)
                Gated.gate.set()
                assert newest.result(timeout=20) == expected(1)
                del oldest  # its traceback holds the gather's frame
            _spin_until(lambda: app.in_flight == 0)
            gc.collect()
        assert [str(w.message) for w in caught if "awaited" in str(w.message)] == []
