"""The overlap + admission + deadline matrix on the ASYNCIO backend:
all five partition strategies with ``async def`` servants whose awaits
live on the backend's event loop, overlapped submissions beyond
``max_in_flight`` observably blocking / failing / shedding per policy,
and per-call deadlines expiring *mid-await* (the loop clock is the
deadline clock, so ``wait_for`` cancels the servant's await exactly at
the budget).

Servants gate on an :class:`~repro.runtime.asyncbackend.AsyncioEvent`
(the backend's dual-face event): the test thread holds/opens it with
``set()`` while the parked servant coroutines ``await
gate.wait_async()`` — thousands could park without burning a thread.
"""

from __future__ import annotations

import gc
import threading
import time
import warnings

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import (
    AdmissionRejected,
    CallShed,
    DeadlineExceeded,
)
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece

STRATEGIES = ["farm", "dynamic-farm", "pipeline", "heartbeat", "divide-conquer"]


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


class GatedEcho:
    """Gated async doubler (farm / dynamic-farm / pipeline target)."""

    gate = None

    def __init__(self, tag=0):
        self.tag = tag

    async def bump(self, values):
        if GatedEcho.gate is not None:
            await GatedEcho.gate.wait_async()
        return [v * 2 for v in values]


class GatedBlock:
    """Gated async heartbeat target: unit residual + no-op halos."""

    gate = None

    def __init__(self, size=4):
        self.size = size

    async def step(self, iterations):
        if GatedBlock.gate is not None:
            await GatedBlock.gate.wait_async()
        return 1.0

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class GatedSummer:
    """Gated async divide-and-conquer target."""

    gate = None

    async def total(self, values):
        if GatedSummer.gate is not None:
            await GatedSummer.gate.wait_async()
        return sum(values)


_TARGETS = (GatedEcho, GatedBlock, GatedSummer)


def _dnc_options():
    return dict(
        should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
        divide=lambda args, kwargs: [
            CallPiece(0, (args[0][: len(args[0]) // 2],)),
            CallPiece(1, (args[0][len(args[0]) // 2:],)),
        ],
        merge=sum,
    )


class Case:
    """One strategy's target, spec fields, payloads, and expectations."""

    def __init__(self, strategy):
        self.strategy = strategy
        if strategy in ("farm", "dynamic-farm", "pipeline"):
            self.target, self.start_args = GatedEcho, ()
            self.fields = dict(
                target=GatedEcho,
                work="bump",
                splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
                strategy=strategy,
            )
            factor = 4 if strategy == "pipeline" else 2
            self.payload = lambda i: ([i, i + 10],)
            self.expected = lambda i: [i * factor, (i + 10) * factor]
        elif strategy == "heartbeat":
            self.target, self.start_args = GatedBlock, (4,)
            self.fields = dict(
                target=GatedBlock,
                work="step",
                splitter=WorkSplitter(duplicates=2, combine=sum),
                strategy="heartbeat",
            )
            self.payload = lambda i: (2,)
            self.expected = lambda i: 2.0
        else:  # divide-conquer
            self.target, self.start_args = GatedSummer, ()
            self.fields = dict(
                target=GatedSummer,
                work="total",
                strategy="divide-conquer",
                strategy_options=_dnc_options(),
            )
            self.payload = lambda i: (list(range(i, i + 8)),)
            self.expected = lambda i: sum(range(i, i + 8))

    def asyncio_app(self, **admission):
        return ParallelApp(
            StackSpec(backend="asyncio", **self.fields, **admission)
        )


@pytest.fixture(autouse=True)
def clear_gates():
    for target in _TARGETS:
        target.gate = None
    yield
    for target in _TARGETS:
        target.gate = None


def arm_gate(case, app):
    """Install a closed dual-face gate on the case's target class;
    returns the opener."""
    gate = app.backend.make_event(name="test.gate")
    case.target.gate = gate
    return gate.set


class TestAsyncioPolicies:
    """Gate-held overlap with loop-task servants: the admission table
    is provably full while every servant await is parked on the gate."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fail_rejects_beyond_max_in_flight(self, strategy):
        case = Case(strategy)
        app = case.asyncio_app(max_in_flight=2, overflow="fail")
        with app:
            app.start(*case.start_args)
            open_gate = arm_gate(case, app)
            futures = [app.submit(*case.payload(i)) for i in range(2)]
            assert app.admitted == 2  # slots acquired synchronously
            with pytest.raises(AdmissionRejected, match="2 calls already"):
                app.submit(*case.payload(2))
            assert app.admission.rejected == 1
            open_gate()
            results = [f.result(timeout=20) for f in futures]
        assert results == [case.expected(i) for i in range(2)]
        assert wait_until(lambda: app.admitted == 0)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shed_oldest_cancels_oldest_in_flight_call(self, strategy):
        case = Case(strategy)
        app = case.asyncio_app(max_in_flight=1, overflow="shed-oldest")
        with app:
            app.start(*case.start_args)
            open_gate = arm_gate(case, app)
            oldest = app.submit(*case.payload(0))
            newest = app.submit(*case.payload(1))  # sheds `oldest`
            assert app.admission.shed_calls == 1
            assert oldest.admission.cancelled
            # the shed pulls the rug mid-await: the oldest call's future
            # fails with CallShed while the gate is still CLOSED — its
            # loop task was cancelled, not waited out
            with pytest.raises(CallShed):
                oldest.result(timeout=20)
            open_gate()
            assert newest.result(timeout=20) == case.expected(1)
        assert wait_until(lambda: app.admitted == 0)
        assert app.in_flight == 0  # shed tickets retired, none leaked

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_block_parks_submitter_until_a_slot_frees(self, strategy):
        case = Case(strategy)
        app = case.asyncio_app(max_in_flight=1, overflow="block")
        second: dict = {}
        with app:
            app.start(*case.start_args)
            open_gate = arm_gate(case, app)
            first = app.submit(*case.payload(0))

            def blocked_submitter():
                second["future"] = app.submit(*case.payload(1))

            thread = threading.Thread(target=blocked_submitter)
            thread.start()
            assert wait_until(lambda: app.admission.waiting == 1)
            assert "future" not in second  # genuinely parked
            open_gate()  # first call drains, hands its slot off
            thread.join(timeout=20)
            assert first.result(timeout=20) == case.expected(0)
            assert second["future"].result(timeout=20) == case.expected(1)
        assert app.admission.blocked == 1
        assert wait_until(lambda: app.admitted == 0)


class TestAsyncioOverlap:
    """Overlapped submissions genuinely coexist as event-loop tasks."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_overlapped_submissions_all_deliver(self, strategy):
        case = Case(strategy)
        app = case.asyncio_app(max_in_flight=None)
        with app:
            app.start(*case.start_args)
            open_gate = arm_gate(case, app)
            futures = [app.submit(*case.payload(i)) for i in range(3)]
            # every call holds a live admission slot while its servant
            # awaits are parked on the gate
            assert wait_until(lambda: app.admission.peak_admitted >= 3)
            # and the partition layer serves overlapped tickets
            assert wait_until(lambda: app.partition.peak_in_flight >= 2)
            open_gate()
            results = [f.result(timeout=30) for f in futures]
        assert results == [case.expected(i) for i in range(3)]
        assert wait_until(lambda: app.admitted == 0)

    def test_awaits_overlap_on_the_loop(self):
        # the point of the backend: a farm split's piece awaits run
        # CONCURRENTLY as loop tasks, not one thread per in-flight call
        case = Case("farm")
        app = case.asyncio_app()
        with app:
            app.start()
            open_gate = arm_gate(case, app)
            futures = [app.submit(*case.payload(i)) for i in range(4)]
            assert wait_until(lambda: app.backend.live_tasks >= 2)
            open_gate()
            for i, future in enumerate(futures):
                assert future.result(timeout=20) == case.expected(i)
        assert app.backend.peak_tasks >= 2
        assert wait_until(lambda: app.backend.live_tasks == 0)

    def test_results_route_to_their_own_call(self):
        case = Case("farm")
        app = case.asyncio_app()
        with app:
            app.start()
            futures = [app.submit(*case.payload(i)) for i in range(8)]
            for i, future in enumerate(futures):
                assert future.result(timeout=20) == case.expected(i)


class TestAsyncioDeadlines:
    """Per-call deadlines measured on the LOOP clock expire mid-await:
    ``asyncio.wait_for`` cancels the parked servant coroutine, the
    ticket expires with its trace, and the deployment keeps serving."""

    @pytest.mark.parametrize("strategy", ["farm", "dynamic-farm", "pipeline"])
    def test_deadline_expires_mid_await(self, strategy):
        case = Case(strategy)
        app = case.asyncio_app()
        with app:
            app.start(*case.start_args)
            open_gate = arm_gate(case, app)
            doomed = app.submit(*case.payload(0), timeout=0.2)
            # the gate never opens for this call: only the loop-clock
            # wait_for can unwind it
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=20)
            assert app.backend.tasks_expired >= 1
            open_gate()
            follow_up = app.submit(*case.payload(1))
            assert follow_up.result(timeout=20) == case.expected(1)
        assert wait_until(lambda: app.admitted == 0)

    def test_deadline_trace_names_the_await(self):
        case = Case("farm")
        app = case.asyncio_app()
        with app:
            app.start()
            open_gate = arm_gate(case, app)
            doomed = app.submit(*case.payload(0), timeout=0.2)
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=20)
            assert err.value.trace is not None
            assert "awaiting an async servant" in str(err.value)
            open_gate()

    def test_deadline_clock_is_the_loop_clock(self):
        case = Case("farm")
        app = case.asyncio_app()
        assert abs(app.backend.now() - app.backend.loop.time()) < 0.5


class TestAsyncioFaultMatrix:
    """The fault axis at the ``"loop"`` site: every strategy, retry
    armed, absorbs a first-task ``raise_in_piece`` / ``kill_worker`` (a
    loop task dies before its await) and a ``drop_reply`` (the servant
    coroutine ran to completion, its value is discarded)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "fault", [None, "kill_worker", "drop_reply", "raise_in_piece"]
    )
    def test_strategy_completes_under_fault(self, strategy, fault):
        schedule = (
            FaultSchedule(
                [FaultEvent(fault, site="loop", on_call=1)],
                name=f"{strategy}-{fault}",
            )
            if fault
            else None
        )
        case = Case(strategy)
        app = case.asyncio_app(
            faults=schedule, retry=RetryPolicy(max_attempts=3)
        )
        with app:
            app.start(*case.start_args)
            futures = [app.submit(*case.payload(i)) for i in range(2)]
            results = [f.result(timeout=30) for f in futures]
        assert results == [case.expected(i) for i in range(2)]
        assert wait_until(lambda: app.admitted == 0)
        assert app.in_flight == 0
        if schedule is not None:
            assert schedule.fired_count() >= 1


class TestAsyncioOneway:
    """Native fire-and-forget: no middleware, the loop is the
    transport — a oneway submit resolves to None immediately while the
    detached task runs to completion."""

    def test_native_oneway_farm_pack(self):
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
            group = app.map(range(4), pack=True, oneway=True)
            assert group.results() == [None] * 4
            assert wait_until(lambda: sorted(done) == [0, 1, 2, 3])


class TestNoOrphanedCoroutines:
    """A call shed while its gather awaits one piece had the coroutines
    of the pieces behind it in hand, created and not yet awaited: the
    unwinding gather closes them ("coroutine ... was never awaited"
    otherwise, from the finalizer)."""

    @pytest.mark.parametrize(
        "strategy", ["farm", "dynamic-farm", "heartbeat", "divide-conquer"]
    )
    def test_shed_mid_gather_leaves_no_coroutine_unawaited(self, strategy):
        case = Case(strategy)
        if strategy in ("farm", "dynamic-farm"):
            # two pieces (heartbeat steps two blocks, divide & conquer
            # halves its list: two coroutines each, as they are)
            case.fields["splitter"] = WorkSplitter(
                duplicates=2,
                split=lambda args, kwargs: [
                    CallPiece(0, (args[0][:1],)),
                    CallPiece(1, (args[0][1:],)),
                ],
                combine=lambda rs: [v for r in rs for v in r],
            )
        app = case.asyncio_app(
            concurrency=False,  # the gather awaits piece by piece
            max_in_flight=1,
            overflow="shed-oldest",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with app:
                app.start(*case.start_args)
                open_gate = arm_gate(case, app)
                oldest = app.submit(*case.payload(0))
                # piece 0's await is parked on the gate; piece 1's
                # coroutine exists and waits its turn in the gather
                assert wait_until(lambda: app.backend.live_tasks == 1)
                newest = app.submit(*case.payload(1))  # sheds `oldest`
                with pytest.raises(CallShed):
                    oldest.result(timeout=20)
                open_gate()
                assert newest.result(timeout=20) == case.expected(1)
                del oldest  # its traceback holds the gather's frame
            assert wait_until(lambda: app.admitted == 0)
            gc.collect()
        assert [str(w.message) for w in caught if "awaited" in str(w.message)] == []
