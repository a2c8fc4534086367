"""End-to-end fault recovery: killed resident workers are replaced and
the in-flight split completes by re-dispatch — no hang, no duplicate
results — across the pool layer (thread backend), the dispatch layer,
and the process middleware (real SIGKILLed worker processes).  Also the
admission regression: a call that exhausts its retries and fails must
release its in-flight slot.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import InjectedFault, WorkerCrashed, WorkerKilled
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.parallel import WorkSplitter
from repro.parallel.optimisation import ThreadPoolAspect
from repro.parallel.partition import CallPiece


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


class Echo:
    """Doubling worker (farm / pipeline target)."""

    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        return [v * 2 for v in values]


def echo_spec(strategy, **overrides):
    fields = dict(
        target=Echo,
        work="bump",
        splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
        strategy=strategy,
        backend="thread",
    )
    fields.update(overrides)
    return StackSpec(**fields)


def halves_spec(strategy, **overrides):
    """A 2-piece split: one piece is spawned (through the plugged pool),
    the splitting activity carries the other."""
    return echo_spec(
        strategy,
        splitter=WorkSplitter(
            duplicates=2,
            split=lambda args, kwargs: [
                CallPiece(0, (args[0][:1],)),
                CallPiece(1, (args[0][1:],)),
            ],
            combine=lambda rs: [v for r in rs for v in r],
        ),
        **overrides,
    )


@contextmanager
def deployed_pool(app):
    """Plug the thread-pool optimisation aspect under the deployed
    app's concurrency aspect; yields its two-resident shared pool."""
    aspect = ThreadPoolAspect(app.async_aspect, size=2)
    app.weaver.deploy(aspect)
    try:
        yield aspect.pool
    finally:
        app.weaver.undeploy(aspect)


class TestPoolKillAndReplace:
    """A killed resident pool activity is replaced and its pulled task
    is re-enqueued — the split completes without even needing a retry
    (no piece was lost, only the activity serving it).  The pool is the
    thread-pool optimisation aspect plugged under the skeleton; its two
    residents share one queue, so the scheduled kill names no index: it
    takes whichever resident pulls the spawned piece."""

    def test_scheduled_pool_kill_farm_split_completes(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="pool", on_call=1)]
        )
        app = ParallelApp(halves_spec("farm", faults=schedule))
        with app:
            app.start()
            with deployed_pool(app) as pool:
                assert app.submit([1, 2]).result(timeout=10) == [2, 4]
                assert wait_until(lambda: pool.replacements == 1)
                assert pool.killed == 1
                assert schedule.fired_count() == 1
                # the refilled pool keeps serving
                assert app.submit([4, 5]).result(timeout=10) == [8, 10]
        assert app.in_flight == 0

    def test_scheduled_pool_kill_pipeline_split_completes(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="pool", on_call=1)]
        )
        app = ParallelApp(halves_spec("pipeline", faults=schedule))
        with app:
            app.start()
            with deployed_pool(app) as pool:
                # two stages double twice; the tail deposits in arrival
                # order
                assert sorted(app.submit([1, 2]).result(timeout=10)) == [4, 8]
                assert wait_until(lambda: pool.replacements == 1)
                assert pool.killed == 1
                assert schedule.fired_count() == 1
                assert sorted(app.submit([3, 5]).result(timeout=10)) == [12, 20]
        assert app.in_flight == 0

    def test_explicit_kill_is_replaced(self):
        app = ParallelApp(halves_spec("farm"))
        with app:
            app.start()
            with deployed_pool(app) as pool:
                # starts the pool
                assert app.submit([1, 2]).result(timeout=10) == [2, 4]
                pool.kill(0)
                assert wait_until(lambda: pool.replacements == 1)
                assert pool.killed == 1
                # the replacement resident serves the spawned piece
                assert app.submit([5, 6]).result(timeout=10) == [10, 12]


class TestDispatchRetry:
    """Dispatch-site faults re-dispatch to a healthy worker when a
    retry policy is armed, and fail fast when none is."""

    def test_kill_without_retry_fails_the_call(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="dispatch", on_call=1)]
        )
        app = ParallelApp(echo_spec("farm", faults=schedule))
        with app:
            app.start()
            with pytest.raises(WorkerKilled):
                app.submit([1, 2]).result(timeout=10)
            # the deployment is not poisoned
            assert app.submit([3]).result(timeout=10) == [6]
        assert app.in_flight == 0

    def test_kill_with_retry_lands_on_healthy_worker(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="dispatch", on_call=1)]
        )
        app = ParallelApp(
            echo_spec(
                "farm", faults=schedule, retry=RetryPolicy(max_attempts=3)
            )
        )
        with app:
            app.start()
            assert app.submit([1, 2]).result(timeout=10) == [2, 4]
            assert schedule.fired_count() == 1
        assert app.in_flight == 0

    def test_every_kill_costs_exactly_one_redispatch(self):
        # a 4-way farm under a kill on every 7th dispatch: each kill is
        # one retry on the ticket, and the split's own pieces are all
        # there is (a retry re-dispatches the one killed piece)
        pieces, submits = 4, 40
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="dispatch", every=7)]
        )
        app = ParallelApp(
            echo_spec(
                "farm",
                splitter=WorkSplitter(
                    duplicates=pieces,
                    split=lambda args, kwargs: [
                        CallPiece(i, (args[0][i::pieces],)) for i in range(pieces)
                    ],
                    combine=lambda rs: sorted(v for r in rs for v in r),
                ),
                faults=schedule,
                retry=RetryPolicy(max_attempts=3),
            )
        )
        values = list(range(8))
        with app:
            app.start()
            futures = [app.submit(values) for _ in range(submits)]
            for future in futures:
                assert future.result(timeout=10) == [v * 2 for v in values]
            traces = [f.admission.trace_snapshot() for f in futures]
        assert len(traces) == submits
        assert schedule.fired_count() > 0
        assert sum(t["retries"] for t in traces) == schedule.fired_count()
        assert sum(t["pieces"] for t in traces) == pieces * submits
        assert app.in_flight == 0

    def test_dropped_reply_completed_work_deposits_once(self):
        # drop_reply AFTER the piece ran: the pipeline tail already
        # deposited (keyed), so the failure report finds the result
        # landed and charges nothing — exactly one result, no refeed
        schedule = FaultSchedule(
            [FaultEvent("drop_reply", site="dispatch", on_call=1)]
        )
        app = ParallelApp(
            echo_spec(
                "pipeline", faults=schedule, retry=RetryPolicy(max_attempts=3)
            )
        )
        with app:
            app.start()
            assert app.submit([1, 2]).result(timeout=10) == [4, 8]
            assert schedule.fired_count() == 1
        assert app.in_flight == 0

    def test_pipeline_kill_refeeds_through_head(self):
        # kill BEFORE the piece ran: the collector hands the piece to
        # the refeed hook, which re-enters the head stage on a fresh
        # activity under the originating ticket
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="dispatch", on_call=1)]
        )
        app = ParallelApp(
            echo_spec(
                "pipeline", faults=schedule, retry=RetryPolicy(max_attempts=3)
            )
        )
        with app:
            app.start()
            assert app.submit([1, 2]).result(timeout=10) == [4, 8]
        assert app.in_flight == 0


@pytest.mark.parametrize(
    "backend, site", [("thread", "dispatch"), ("sim", "dispatch"), ("process", "proc")]
)
def test_a_pipeline_refeed_counts_once_on_the_ticket(backend, site):
    """A failed pipeline piece is re-fed through the collector's retry
    plane, not re-dispatched at a split's gather
    (:meth:`PieceOutcomes.results`); its ticket still counts the retry
    once and marks it, as a farm's re-dispatch does."""
    schedule = FaultSchedule([FaultEvent("raise_in_piece", site=site, on_call=1)])
    app = ParallelApp(
        echo_spec(
            "pipeline",
            backend=backend,
            faults=schedule,
            retry=RetryPolicy(max_attempts=3),
        )
    )
    with app:
        app.start()
        future = app.submit([1, 2])
        assert future.result(timeout=30) == [4, 8]
        trace = future.admission.trace_snapshot()
    assert schedule.fired_count() == 1
    assert trace["retries"] == 1
    marks = [s["name"] for s in trace["spans"] if s["name"].startswith("retry[")]
    assert len(marks) == 1 and marks[0].startswith("retry[piece=0 attempt=1 ")


class TestProcessRespawn:
    """A genuinely SIGKILLed worker process raises ``WorkerCrashed``,
    the middleware refills the export from the parent-side twin, and the
    armed retry completes the split on a healthy worker."""

    def test_proc_kill_respawns_and_split_completes(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="proc", on_call=1)]
        )
        app = ParallelApp(
            echo_spec(
                "farm",
                backend="process",
                faults=schedule,
                retry=RetryPolicy(max_attempts=3),
            )
        )
        with app:
            app.start()
            assert app.submit([1, 2]).result(timeout=30) == [2, 4]
            assert app.middleware.worker_crashes == 1
            assert wait_until(lambda: app.middleware.worker_respawns == 1)
            # the corpse was reaped and a fresh resident stands in
            assert wait_until(lambda: app.middleware.live_workers == 2)
            # the refilled worker serves follow-up calls
            assert app.submit([5]).result(timeout=30) == [10]
        assert wait_until(lambda: app.in_flight == 0)
        assert wait_until(lambda: app.middleware.live_workers == 0)

    def test_proc_crash_without_retry_fails_and_the_worker_is_refilled(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="proc", on_call=1)]
        )
        app = ParallelApp(
            echo_spec("farm", backend="process", faults=schedule)
        )
        with app:
            app.start()
            with pytest.raises(WorkerCrashed):
                app.submit([1, 2]).result(timeout=30)
            assert wait_until(lambda: app.middleware.worker_respawns == 1)
            assert app.submit([5]).result(timeout=30) == [10]
        assert wait_until(lambda: app.in_flight == 0)


class TestAdmissionSlotRelease:
    """Regression: a call whose retries exhaust (and which therefore
    fails) must release its in-flight admission slot — a leaked slot
    would wedge a ``max_in_flight=1`` deployment forever."""

    def test_exhausted_retries_release_the_slot(self):
        schedule = FaultSchedule(
            [
                FaultEvent("raise_in_piece", site="dispatch", on_call=1),
                FaultEvent("raise_in_piece", site="dispatch", on_call=2),
            ]
        )
        app = ParallelApp(
            echo_spec(
                "farm",
                faults=schedule,
                retry=RetryPolicy(max_attempts=2),
                max_in_flight=1,
                overflow="fail",
            )
        )
        with app:
            app.start()
            doomed = app.submit([1, 2])
            with pytest.raises(InjectedFault, match="injected failure"):
                doomed.result(timeout=10)
            assert schedule.fired_count() == 2  # both attempts consumed
            assert wait_until(lambda: app.in_flight == 0), "slot leaked"
            # the single slot is genuinely free again: the next call is
            # admitted (overflow="fail" would reject it if leaked) and
            # completes normally
            assert app.submit([3]).result(timeout=10) == [6]
        assert wait_until(lambda: app.in_flight == 0)


class TestSleepsOnTheBackendClock:
    """Injected reply delays and retry back-off wait through
    ``ExecutionBackend.sleep``: on ``backend="sim"`` they hold the
    simulated process — virtual seconds pass, wall time does not."""

    def _run(self, schedule, retry=None):
        app = ParallelApp(
            echo_spec(
                "farm",
                backend="sim",
                concurrency=False,
                faults=schedule,
                retry=retry,
            )
        )
        out = {}

        def main():
            app.start()
            began = app.sim.now
            out["result"] = app.submit([1, 2]).result()
            out["virtual"] = app.sim.now - began

        with app:
            wall = time.perf_counter()
            app.execute(main)  # drives the simulator
            out["wall"] = time.perf_counter() - wall
        return out

    def test_delay_reply_advances_virtual_time_only(self):
        schedule = FaultSchedule(
            [FaultEvent("delay_reply", site="dispatch", on_call=1, delay=5.0)]
        )
        out = self._run(schedule)
        assert out["result"] == [2, 4]
        assert out["virtual"] == pytest.approx(5.0)
        assert out["wall"] < 1.0  # the virtual sleep never happens for real

    def test_retry_backoff_advances_virtual_time_only(self):
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", site="dispatch", on_call=1)]
        )
        out = self._run(schedule, retry=RetryPolicy(max_attempts=3, backoff=3.0))
        assert out["result"] == [2, 4]
        assert out["virtual"] == pytest.approx(3.0)
        assert out["wall"] < 1.0  # the virtual sleep never happens for real
