"""The splitting activity carries the last piece of its split.

A farm split or a pipeline feed of p pieces spawns p - 1 activities: the
splitter would only block in the gather while its last piece ran on an
activity spawned for it, so the concurrency aspect runs that piece in
place and answers with a resolved future.  These tests pin where each
piece runs and that nothing else about the call changed, on the thread
and the process backend:

* the last piece runs on the splitting thread, every other on another;
* a failure in the carried piece arrives through the call's future, an
  armed retry re-dispatches it on a spawned activity, and a pipeline
  stage failing under it is reported once;
* a shed or a deadline that hits while the carried piece runs ends the
  call as it ends one whose spawned piece was running, with the same
  slots, grants, tickets and threads left behind (none);
* a 256-stage pipeline whose only piece is carried keeps a flat stack;
* without the concurrency aspect the mark dies with the call it was set
  for: a woven call the servant makes is not taken for it.

Workers observe and gate through the filesystem (marker files, a gate
file), the one channel that reaches a forked worker process.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.api import ParallelApp, StackSpec
from repro.errors import CallShed, DeadlineExceeded, RemoteError
from repro.faults import RetryPolicy
from repro.parallel import Composition, WorkSplitter, concurrency_module
from repro.parallel.partition import CallPiece
from repro.runtime import Future, ThreadBackend, use_backend
from repro.tenancy import ClusterScheduler

BACKENDS = ["thread", "process"]
RETRY = RetryPolicy(max_attempts=3, retry_on=(ValueError, RemoteError))


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.002)
    return False


class Worker:
    """Farm worker / pipeline stage ``index``: adds one to every value,
    leaving a marker file per visit.  Class attributes are set before
    ``start()`` so forked workers inherit them."""

    #: directory the markers and the gate live in
    root: str = ""
    #: (index, values) of the visit that parks until ``root/gate`` exists
    gated: tuple | None = None
    #: (index, values) of the visit that raises — once: it leaves
    #: ``root/healed`` behind and the next such visit goes through
    faulty: tuple | None = None
    #: thread backend: values -> ident of the thread the servant ran on
    ran_on: dict = {}

    def __init__(self, index=0):
        self.index = index

    def run(self, values):
        me = (self.index, list(values))
        Worker.ran_on[tuple(values)] = threading.get_ident()
        tag = "-".join(map(str, values))
        open(f"{Worker.root}/s{self.index}-{tag}-{time.monotonic_ns()}", "w").close()
        if Worker.gated == me:
            deadline = time.time() + 10
            while time.time() < deadline and not os.path.exists(
                f"{Worker.root}/gate"
            ):
                time.sleep(0.002)
        if Worker.faulty == me and not os.path.exists(f"{Worker.root}/healed"):
            open(f"{Worker.root}/healed", "w").close()
            raise ValueError(f"worker {self.index} failed on {values}")
        return [v + 1 for v in values]


def visits(index, values):
    """How many times worker ``index`` has been entered with ``values``."""
    prefix = f"s{index}-{'-'.join(map(str, values))}-"
    return sum(name.startswith(prefix) for name in os.listdir(Worker.root))


def open_gate():
    open(f"{Worker.root}/gate", "w").close()


@pytest.fixture(autouse=True)
def worker_root(tmp_path):
    Worker.root = str(tmp_path)
    Worker.gated = Worker.faulty = None
    Worker.ran_on = {}
    yield
    Worker.gated = Worker.faulty = None


class Probe:
    """Which parent-side thread split the call and which carried each
    piece into its worker.  On threads the servant runs on the carrying
    thread and says so itself; a process worker cannot, so the call into
    the pipe is watched instead."""

    def __init__(self):
        self.splitter: int | None = None
        self.carried_by: dict = Worker.ran_on

    def pairs(self, args, kwargs):
        """The split function — it runs on the splitting activity: one
        piece per two values."""
        self.splitter = threading.get_ident()
        values = args[0]
        return [
            CallPiece(i, (values[2 * i: 2 * i + 2],))
            for i in range(len(values) // 2)
        ]

    def watch(self, middleware):
        self.carried_by = {}
        invoke = middleware.invoke

        def watched(ref, method, args=(), kwargs=None, oneway=False):
            self.carried_by[tuple(args[0])] = threading.get_ident()
            return invoke(ref, method, args, kwargs, oneway=oneway)

        middleware.invoke = watched


def build(backend, strategy, target=Worker, **fields):
    """A 3-worker app splitting its values into pairs, and the probe
    watching it."""
    probe = Probe()
    app = ParallelApp(
        StackSpec(
            target=target,
            work="run",
            splitter=WorkSplitter(
                duplicates=3,
                ctor_args=lambda args, kwargs, index, count: ((index,), {}),
                split=probe.pairs,
                combine=lambda rs: sorted(v for r in rs for v in r),
            ),
            strategy=strategy,
            backend=backend,
            **fields,
        )
    )
    if app.middleware is not None:
        probe.watch(app.middleware)
    return app, probe


def spawn_counts(app):
    return app.backend.spawned, app.async_aspect.spawned_calls


@pytest.mark.parametrize("backend", BACKENDS)
class TestWhereThePiecesRun:
    def test_farm_last_piece_runs_on_the_splitting_thread(self, backend):
        app, probe = build(backend, "farm")
        with app:
            app.start()
            spawned, calls = spawn_counts(app)
            assert app.submit([1, 2, 3, 4, 5, 6]).result(timeout=20) == [
                2, 3, 4, 5, 6, 7,
            ]
            # the submission's activity + one per piece but the last
            assert spawn_counts(app) == (spawned + 3, calls + 2)
            assert probe.carried_by[(5, 6)] == probe.splitter
            assert probe.carried_by[(1, 2)] != probe.splitter
            assert probe.carried_by[(3, 4)] != probe.splitter
        assert app.in_flight == 0

    def test_pipeline_last_piece_rides_the_splitting_thread(self, backend):
        app, probe = build(backend, "pipeline")
        with app:
            app.start()
            spawned, calls = spawn_counts(app)
            assert app.submit([10, 11, 20, 21, 30, 31]).result(timeout=20) == [
                13, 14, 23, 24, 33, 34,
            ]
            assert spawn_counts(app) == (spawned + 3, calls + 2)
            journeys = {
                first: {
                    probe.carried_by[(first + stage, first + 1 + stage)]
                    for stage in range(3)
                }
                for first in (10, 20, 30)
            }
            # every stage of the last piece's journey, on the splitter;
            # the others: one spawned activity each
            assert journeys[30] == {probe.splitter}
            for first in (10, 20):
                assert len(journeys[first]) == 1
                assert probe.splitter not in journeys[first]
        assert app.in_flight == 0

    def test_one_piece_split_spawns_nothing(self, backend):
        app, _ = build(backend, "farm")
        with app:
            app.start()
            spawned, calls = spawn_counts(app)
            assert app.submit([1, 2]).result(timeout=20) == [2, 3]
            assert spawn_counts(app) == (spawned + 1, calls)  # the submission
        assert app.in_flight == 0


@pytest.mark.parametrize("backend", BACKENDS)
class TestFailureInTheCarriedPiece:
    def test_it_arrives_through_the_future(self, backend):
        Worker.faulty = (2, [5, 6])
        app, _ = build(backend, "farm")
        with app:
            app.start()
            with pytest.raises((ValueError, RemoteError), match="failed on"):
                app.submit([1, 2, 3, 4, 5, 6]).result(timeout=20)
            # nothing of the mark is left on any thread: the next call
            # spawns and carries as the first did
            spawned, calls = spawn_counts(app)
            assert app.submit([1, 2, 3, 4, 5, 6]).result(timeout=20) == [
                2, 3, 4, 5, 6, 7,
            ]
            assert spawn_counts(app) == (spawned + 3, calls + 2)
        assert app.in_flight == 0

    def test_its_retry_spawns(self, backend):
        Worker.faulty = (2, [5, 6])
        app, probe = build(backend, "farm", retry=RETRY)
        with app:
            app.start()
            spawned, calls = spawn_counts(app)
            future = app.submit([1, 2, 3, 4, 5, 6])
            assert future.result(timeout=20) == [2, 3, 4, 5, 6, 7]
            # two pieces, then the re-dispatch of the third: the attempt
            # the splitter carried is the only one that did not spawn
            assert spawn_counts(app) == (spawned + 4, calls + 3)
            assert future.admission.trace_snapshot()["retries"] == 1
            # the retry rotated to the next worker, on another thread
            assert visits(2, [5, 6]) == 1 and visits(0, [5, 6]) == 1
            assert probe.carried_by[(5, 6)] != probe.splitter
        assert app.in_flight == 0

    def test_a_stage_failing_under_it_reports_once(self, backend):
        Worker.faulty = (2, [7, 8])  # the last piece, two hops in
        app, _ = build(backend, "pipeline", retry=RETRY)
        with app:
            app.start()
            future = app.submit([1, 2, 3, 4, 5, 6])
            assert future.result(timeout=20) == [4, 5, 6, 7, 8, 9]
            # one failed journey + one re-fed one; had a stage upstream
            # reported the failure again the head would have been re-fed
            # once per stage
            assert [visits(s, [5 + s, 6 + s]) for s in range(3)] == [2, 2, 2]
            assert [visits(s, [1 + s, 2 + s]) for s in range(3)] == [1, 1, 1]
            assert future.admission.trace_snapshot()["cancelled"] is False
        assert app.in_flight == 0


def census(app, scheduler):
    return {
        "slots": app.in_flight,
        "grants": scheduler.stats()["in_use"],
        "processes": len(multiprocessing.active_children()),
    }


def cancelled_call(backend, parked, **admission):
    """Cancel a call while the piece ``parked`` runs; returns the error
    it ended with and what it left behind once the deployment is down
    (no thread of its own may outlive it either)."""
    threads_before = threading.active_count()
    scheduler = ClusterScheduler(capacity=4, backend=ThreadBackend())
    scheduler.tenant("gold")
    Worker.gated = parked
    app, _ = build(
        backend, "farm", tenant="gold", scheduler=scheduler, **admission
    )
    with app:
        app.start()
        seen = visits(*parked)
        doomed = app.submit([1, 2, 3, 4, 5, 6])
        assert wait_until(lambda: visits(*parked) > seen)  # parked mid-piece
        if "overflow" in admission:
            survivor = app.submit([1, 2, 3, 4, 5, 6])  # sheds `doomed`
            assert doomed.admission.cancelled
        else:
            time.sleep(admission["timeout"])  # the budget runs out
        open_gate()
        with pytest.raises((CallShed, DeadlineExceeded)) as caught:
            doomed.result(timeout=20)
        if "overflow" in admission:
            assert survivor.result(timeout=20) == [2, 3, 4, 5, 6, 7]
        assert wait_until(lambda: app.in_flight == 0)
    os.remove(f"{Worker.root}/gate")
    # carriers retire by age: the census waits them out
    assert wait_until(lambda: threading.active_count() <= threads_before)
    return type(caught.value), census(app, scheduler)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCancelledWhileThePieceRuns:
    NOTHING = {"slots": 0, "grants": 0, "processes": 0}

    def test_shed_ends_the_carried_piece_as_a_spawned_one(self, backend):
        admission = dict(max_in_flight=1, overflow="shed-oldest")
        carried = cancelled_call(backend, (2, [5, 6]), **admission)
        spawned = cancelled_call(backend, (0, [1, 2]), **admission)
        assert carried == spawned == (CallShed, self.NOTHING)

    def test_deadline_ends_the_carried_piece_as_a_spawned_one(self, backend):
        carried = cancelled_call(backend, (2, [5, 6]), timeout=0.15)
        spawned = cancelled_call(backend, (0, [1, 2]), timeout=0.15)
        assert carried == spawned == (DeadlineExceeded, self.NOTHING)


class TestJourneyShape:
    def test_256_stages_under_a_carried_piece_keep_a_flat_stack(self):
        """The splitter is the body of its last piece's journey: the
        hops run one after another from it, not nested inside each other
        (a nested forward overflows near 200 stages)."""

        class Identity:
            def __init__(self, index=0):
                self.index = index

            def run(self, values):
                return values

        app = ParallelApp(
            StackSpec(
                target=Identity,
                work="run",
                splitter=WorkSplitter(duplicates=256, combine=lambda rs: rs[0]),
                strategy="pipeline",
                backend="thread",
            )
        )
        with app:
            app.start()
            before = app.backend.spawned
            future = app.submit([3, 1, 2])
            assert future.result(timeout=30) == [3, 1, 2]
            assert app.backend.spawned - before == 1  # the submission only
            assert future.admission.trace_snapshot()["hops"] == 255
        assert app.in_flight == 0


class TestWithoutTheConcurrencyAspect:
    def test_a_call_the_servant_makes_is_not_taken_for_the_marked_one(self):
        """``concurrency=False``: nobody reads the mark set for the last
        piece's entry call, so it is still up while the servant runs —
        and must not turn a woven call the servant makes into a carried
        one."""

        class Helper:
            ran_on: list = []

            def assist(self, values):
                Helper.ran_on.append(threading.get_ident())
                return [v + 1 for v in values]

        helper_calls = concurrency_module("call(Helper.assist(..))")
        weave(Helper)
        helper = Helper()

        class Delegating(Worker):
            def run(self, values):
                answer = helper.assist(values)
                assert isinstance(answer, Future)
                return answer.result(timeout=10)

        backend = ThreadBackend()
        app, probe = build(backend, "farm", target=Delegating, concurrency=False)
        with use_backend(backend):
            with Composition("helper-mt", [helper_calls]).deployed(
                default_weaver, targets=[Helper]
            ):
                with app:
                    app.start()
                    assert app.submit([1, 2, 3, 4, 5, 6]).result(timeout=20) == [
                        2, 3, 4, 5, 6, 7,
                    ]
        # all three pieces ran on the splitter, all three helper calls
        # were spawned off it — the one under the last piece included
        assert helper_calls.aspects[0].spawned_calls == 3
        assert len(Helper.ran_on) == 3 and probe.splitter not in Helper.ran_on
        assert app.in_flight == 0
