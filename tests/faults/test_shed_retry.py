"""Regression: shedding × retry must never interact.

A call shed by admission control (deployment table or cluster
scheduler) while a :class:`RetryPolicy` is armed must

* latch :class:`CallShed` immediately — the collector's retry plane
  must NOT re-dispatch the shed pieces (a shed is a verdict about the
  call, not a worker fault), and
* release its admission slot (and cluster grant) exactly once — a
  double release would mint phantom capacity.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import (
    AdmissionRejected,
    CallShed,
    DeadlineExceeded,
    InjectedFault,
)
from repro.faults import RetryPolicy
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece
from repro.parallel.partition.base import ResultCollector
from repro.runtime import ThreadBackend
from repro.tenancy import ClusterScheduler


def wait_until(predicate, timeout=5.0):
    deadline = threading.Event()
    for _ in range(int(timeout / 0.005)):
        if predicate():
            return True
        deadline.wait(0.005)
    return predicate()


class TestCollectorNeverRetriesAdmissionVerdicts:
    """Unit: a keyed fail() with an armed policy and a live redispatch
    hook must still latch for the whole AdmissionError family."""

    def armed(self, redispatched):
        collector = ResultCollector(1, backend=ThreadBackend())
        collector.arm_retry(RetryPolicy(max_attempts=3), redispatched.append)
        return collector

    @pytest.mark.parametrize(
        "verdict", [CallShed, DeadlineExceeded, AdmissionRejected]
    )
    def test_admission_verdicts_latch_without_redispatch(self, verdict):
        redispatched: list = []
        collector = self.armed(redispatched)
        collector.fail(verdict("verdict"), piece=CallPiece(0, (1,)))
        assert collector.failed
        assert redispatched == []
        with pytest.raises(verdict):
            collector.wait(timeout=1)

    def test_shed_latches_even_mid_retry_ladder(self):
        # the piece already burned one retryable attempt; the shed that
        # arrives next must latch, not spend the remaining attempts
        redispatched: list = []
        collector = self.armed(redispatched)
        piece = CallPiece(0, (1,))
        collector.fail(InjectedFault("worker died"), piece=piece)
        assert redispatched == [piece] and not collector.failed
        collector.fail(CallShed("shed"), piece=piece)
        assert collector.failed
        assert redispatched == [piece]  # no second hand-back
        with pytest.raises(CallShed):
            collector.wait(timeout=1)

    def test_infrastructure_faults_still_redispatch(self):
        # sanity: the retry plane is alive, it just excludes admission
        redispatched: list = []
        collector = self.armed(redispatched)
        collector.fail(InjectedFault("worker died"), piece=CallPiece(0, ()))
        assert not collector.failed
        assert len(redispatched) == 1


class CountingService:
    """Farm servant that counts executions per value behind a gate."""

    gate: "threading.Event | None" = None
    calls: "dict[int, int]" = {}
    lock = threading.Lock()

    def __init__(self, tag=0):
        self.tag = tag

    def handle(self, values):
        with CountingService.lock:
            for value in values:
                CountingService.calls[value] = (
                    CountingService.calls.get(value, 0) + 1
                )
        if CountingService.gate is not None:
            CountingService.gate.wait(10)
        return [v + 1 for v in values]


def farm_spec(**overrides):
    fields = dict(
        target=CountingService,
        work="handle",
        splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
        strategy="farm",
        backend="thread",
        retry=RetryPolicy(max_attempts=3),
    )
    fields.update(overrides)
    return StackSpec(**fields)


class TestShedWithRetryArmedEndToEnd:
    def setup_method(self):
        CountingService.gate = threading.Event()
        CountingService.calls = {}

    def teardown_method(self):
        CountingService.gate = None

    def test_deployment_shed_is_not_redispatched(self):
        app = ParallelApp(
            farm_spec(max_in_flight=1, overflow="shed-oldest")
        )
        with app:
            app.start()
            victim = app.submit([1])
            wait_until(lambda: CountingService.calls.get(1, 0) >= 1)
            fresh = app.submit([2])  # sheds the parked victim
            CountingService.gate.set()
            with pytest.raises(CallShed):
                victim.result(timeout=10)
            assert fresh.result(timeout=10) == [3]
            # exactly one release: the table is back to empty and a
            # sequential reuse still fits the single slot
            assert wait_until(lambda: app.admission.admitted == 0)
            assert app.submit([5]).result(timeout=10) == [6]
        assert app.admission.shed_calls == 1
        assert app.admission.admitted_total == 3
        # the victim's duplicated pieces ran at most once each — the
        # armed retry plane never re-dispatched the shed call's work
        assert CountingService.calls[1] <= 2

    def test_cluster_shed_is_not_redispatched_and_frees_the_grant_once(self):
        sched = ClusterScheduler(capacity=1, backend=ThreadBackend())
        sched.tenant("hot", overflow="shed-oldest")
        app = ParallelApp(farm_spec(tenant="hot", scheduler=sched))
        with app:
            app.start()
            victim = app.submit([1])
            wait_until(lambda: CountingService.calls.get(1, 0) >= 1)
            fresh = app.submit([2])  # cluster sheds the parked victim
            CountingService.gate.set()
            with pytest.raises(CallShed):
                victim.result(timeout=10)
            assert fresh.result(timeout=10) == [3]
            assert wait_until(lambda: sched.stats()["in_use"] == 0)
            # the recycled slot still admits — no phantom capacity in
            # either direction after the shed's single release
            assert app.submit([5]).result(timeout=10) == [6]
        assert sched.stats()["in_use"] == 0
        assert sched.stats()["tenants"]["hot"]["shed"] == 1
        assert sched.stats()["tenants"]["hot"]["admitted_total"] == 3
        assert CountingService.calls[1] <= 2
