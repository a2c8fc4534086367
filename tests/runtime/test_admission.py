"""Admission-control units: deadlines, the bounded slot table and its
three overflow policies — one table of cases run against both
constructions of it — plus the envelope→ticket linkage."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    AdmissionRejected,
    CallShed,
    DeadlineExceeded,
    DeploymentError,
)
from repro.parallel.partition.base import DispatchContext, DispatchContextOwner
from repro.runtime import (
    AdmissionController,
    Deadline,
    ThreadBackend,
    current_envelope,
    use_backend,
    use_envelope,
)
from repro.tenancy import ClusterScheduler


class TestDeadline:
    def test_counts_down_on_the_given_clock(self):
        clock = {"t": 100.0}
        deadline = Deadline(5.0, clock=lambda: clock["t"])
        assert not deadline.expired
        assert deadline.remaining() == 5.0
        clock["t"] = 104.0
        assert deadline.remaining() == pytest.approx(1.0)
        clock["t"] = 106.0
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_check_raises_deadline_exceeded_with_context(self):
        clock = {"t": 0.0}
        deadline = Deadline(1.0, clock=lambda: clock["t"])
        deadline.check("early")  # within budget: no-op
        clock["t"] = 2.0
        with pytest.raises(DeadlineExceeded, match="1.0s exceeded mid-hop"):
            deadline.check("mid-hop", trace={"spans": []})

    def test_backend_clocks_feed_deadlines(self):
        backend = ThreadBackend()
        deadline = Deadline(60.0, clock=backend.now)
        assert not deadline.expired
        assert 59.0 < deadline.remaining() <= 60.0


def wait_until(predicate, timeout=5.0):
    limit = time.time() + timeout
    while not predicate() and time.time() < limit:
        time.sleep(0.002)
    return predicate()


class Controller:
    """The table as a deployment builds it: one tenant, the deployment."""

    def __init__(self, limit, policy, backend):
        self.table = AdmissionController(
            limit=limit, policy=policy, backend=backend, name="t"
        )
        self.admit = self.table.admit

    def counters(self):
        stats = self.table.stats()
        stats["held"] = stats.pop("admitted")
        stats["peak"] = stats.pop("peak_admitted")
        return {key: stats[key] for key in COUNTERS}


class Scheduler:
    """The table as a cluster builds it, with a single tenant."""

    def __init__(self, limit, policy, backend):
        self.table = ClusterScheduler(capacity=limit, backend=backend, name="t")
        self.table.tenant("only", overflow=policy)

    def admit(self, **kwargs):
        return self.table.acquire("only", **kwargs)

    def counters(self):
        stats = self.table.stats()["tenants"]["only"]
        stats["peak"] = stats.pop("peak_held")
        return {key: stats[key] for key in COUNTERS}


COUNTERS = (
    "held", "waiting", "admitted_total", "rejected", "shed", "blocked", "peak"
)


def counts(held, waiting, admitted_total, rejected, shed, blocked, peak):
    return dict(zip(COUNTERS, (
        held, waiting, admitted_total, rejected, shed, blocked, peak
    )))


def park(table, names, order, gate=None):
    """Park one submitter thread per name, in that order; each records
    its name once admitted and releases — straight away, or once
    ``gate`` opens."""

    def submitter(name):
        slot = table.admit(name=name)
        order.append(name)
        if gate is not None:
            gate.wait(timeout=5)
        slot.release()

    threads = []
    for position, name in enumerate(names, 1):
        threads.append(threading.Thread(target=submitter, args=(name,)))
        threads[-1].start()
        assert wait_until(lambda: table.counters()["waiting"] == position)
    return threads


# -- the rows: each runs one scenario against a table and returns what it
# -- observed; the expected record is the same for both constructions ------


def fail_beyond_limit(make):
    table = make(2, "fail")
    first, second = table.admit(name="a"), table.admit(name="b")
    with pytest.raises(AdmissionRejected, match="2 calls already in flight"):
        table.admit(name="c")
    first.release()
    third = table.admit(name="c")  # a freed slot admits again
    second.release(), third.release()
    return table.counters()


def block_fifo_handoff(make):
    table = make(1, "block")
    held = table.admit(name="holder")
    order: list[str] = []
    threads = park(table, ["w1", "w2", "w3"], order)
    assert order == []  # genuinely parked
    held.release()  # direct hand-off; each waiter passes the slot on
    for thread in threads:
        thread.join(timeout=5)
    return order, table.counters()


def block_gives_up_when_deadline_drains(make):
    table = make(1, "block")
    held = table.admit(name="holder")
    with pytest.raises(AdmissionRejected, match="ran out of deadline"):
        table.admit(deadline=Deadline(0.05, clock=time.monotonic), name="x")
    parked_after = table.counters()["waiting"]  # the waiter was dequeued
    held.release()
    return parked_after, table.counters()


class RacingBackend:
    """Events whose wait lets a hand-off in, then reports a timeout —
    the interleaving where a release beats the waiter to the lock."""

    def __init__(self):
        self.on_wait = lambda: None

    def make_event(self, name=""):
        return self

    def wait(self, timeout=None):
        self.on_wait()
        return False

    def set(self):
        pass


def handoff_racing_the_timeout(make):
    backend = RacingBackend()
    table = make(1, "block", backend)
    held = table.admit(name="holder")
    backend.on_wait = held.release
    slot = table.admit(
        deadline=Deadline(30.0, clock=time.monotonic), name="racer"
    )
    return slot.name, slot.cancelled, table.counters()


def shed_oldest_victim_order(make):
    table = make(2, "shed-oldest")
    slots = [table.admit(name=name) for name in "abcd"]  # c, d each shed
    shed = [slot.name for slot in slots if slot.cancelled]
    assert all(
        isinstance(slot.cancel_cause, CallShed) for slot in slots[:2]
    )
    assert "'a' shed to admit 'c'" in str(slots[0].cancel_cause)
    return shed, table.counters()


def shed_of_an_all_dying_table(make):
    # every held slot is about to release (expired / delivered): the
    # newcomer is admitted over the limit, nothing is shed
    table = make(2, "shed-oldest")
    expired, done = table.admit(name="expired"), table.admit(name="done")
    expired.cancel(DeadlineExceeded("too late"))
    assert done.finish() is None
    table.admit(name="newcomer")
    over = table.counters()
    expired.release(), done.release()
    return isinstance(expired.cancel_cause, DeadlineExceeded), over, table.counters()


def delivered_slot_cannot_be_shed(make):
    # check-then-act closure: finish() atomically closes the slot for
    # delivery, so the shed walks past it to the oldest LIVE call — and
    # a cancel that won first makes finish() return the cause
    table = make(2, "shed-oldest")
    done, live = table.admit(name="done"), table.admit(name="live")
    assert done.finish() is None
    table.admit(name="newcomer")
    return done.cancelled, type(live.finish()), table.counters()


def shed_reaches_an_attached_downstream(make):
    table = make(1, "shed-oldest")
    with use_backend(ThreadBackend()):
        slot = table.admit(name="victim")
        ctx = DispatchContext("victim.call", expected=2)
        slot.attach(ctx)
        table.admit(name="newcomer")
        with pytest.raises(CallShed):
            ctx.wait(timeout=1)  # the latched collector fails fast
    return slot.cancelled, ctx.cancelled


def cancel_before_attach_reaches_downstream_at_attach_time(make):
    table = make(1, "shed-oldest")
    with use_backend(ThreadBackend()):
        slot = table.admit(name="early-victim")
        table.admit(name="newcomer")  # shed before any ticket opened
        ctx = DispatchContext("late.call")
        before = ctx.cancelled
        slot.attach(ctx)  # the race is closed at attach time
        with pytest.raises(CallShed):
            ctx.check_deadline()
    return slot.cancelled, before, ctx.cancelled


def release_is_idempotent_and_frees_one_waiter(make):
    table = make(1, "block")
    held = table.admit(name="holder")
    order: list[str] = []
    gate = threading.Event()
    threads = park(table, ["w1", "w2"], order, gate)
    held.release()
    held.release()  # a double release must not free a phantom slot
    assert wait_until(lambda: order == ["w1"])
    between = table.counters()
    gate.set()
    for thread in threads:
        thread.join(timeout=5)
    return between, order, table.counters()


POLICY_CASES = [
    (fail_beyond_limit, counts(0, 0, 3, 1, 0, 0, 2)),
    (block_fifo_handoff, (["w1", "w2", "w3"], counts(0, 0, 4, 0, 0, 3, 1))),
    (block_gives_up_when_deadline_drains, (0, counts(0, 0, 1, 1, 0, 1, 1))),
    (handoff_racing_the_timeout, ("racer", False, counts(1, 0, 2, 0, 0, 1, 1))),
    (shed_oldest_victim_order, (["a", "b"], counts(2, 0, 4, 0, 2, 0, 2))),
    (
        shed_of_an_all_dying_table,
        (True, counts(3, 0, 3, 0, 0, 0, 3), counts(1, 0, 3, 0, 0, 0, 3)),
    ),
    (
        delivered_slot_cannot_be_shed,
        (False, CallShed, counts(2, 0, 3, 0, 1, 0, 2)),
    ),
    (shed_reaches_an_attached_downstream, (True, True)),
    (
        cancel_before_attach_reaches_downstream_at_attach_time,
        (True, False, True),
    ),
    (
        release_is_idempotent_and_frees_one_waiter,
        (counts(1, 1, 2, 0, 0, 2, 1), ["w1", "w2"], counts(0, 0, 3, 0, 0, 2, 1)),
    ),
]


@pytest.mark.parametrize("construction", [Controller, Scheduler])
@pytest.mark.parametrize(
    "scenario, expected", POLICY_CASES, ids=[case[0].__name__ for case in POLICY_CASES]
)
def test_policy_case(scenario, expected, construction):
    """One policy table, two constructions: ``AdmissionController(N, p)``
    and ``ClusterScheduler(N)`` with one tenant ``overflow=p`` give the
    same outcomes, counters and hand-off order, row by row."""

    def make(limit, policy, backend=None):
        return construction(limit, policy, backend or ThreadBackend())

    assert scenario(make) == expected


class TestPolicies:
    def test_unbounded_controller_never_blocks(self):
        ctrl = AdmissionController(backend=ThreadBackend())
        slots = [ctrl.admit(name=f"c{i}") for i in range(64)]
        assert ctrl.admitted == 64
        for slot in slots:
            slot.release()
        assert ctrl.admitted == 0
        assert ctrl.peak_admitted == 64
        assert ctrl.admitted_total == 64

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError, match="max_in_flight"):
            AdmissionController(limit=0)
        with pytest.raises(DeploymentError, match="overflow policy"):
            AdmissionController(limit=1, policy="panic")

    def test_cluster_slot_rides_the_deployment_slot(self):
        # two slots of one class, chained: a cancel from above reaches
        # the deployment slot (at attach time when it came first), and
        # the deployment slot's release returns both
        cluster = Scheduler(2, "shed-oldest", ThreadBackend())
        ctrl = AdmissionController(backend=ThreadBackend())
        early, late = cluster.admit(name="early"), cluster.admit(name="late")
        slot = ctrl.admit(name="late")
        late.attach(slot)
        cluster.admit(name="x"), cluster.admit(name="y")  # sheds both
        assert isinstance(slot.cancel_cause, CallShed)
        doomed = ctrl.admit(name="early")
        early.attach(doomed)  # cancelled before the link
        assert isinstance(doomed.cancel_cause, CallShed)
        fresh = ctrl.admit(name="fresh")
        fresh.grant = cluster.admit(name="fresh")  # sheds x
        fresh.grant.attach(fresh)
        fresh.release()
        fresh.release()
        assert cluster.counters()["held"] == 1  # y
        assert (fresh.grant.tenant, fresh.tenant) == ("only", "app")


class TestEnvelope:
    def test_envelope_is_ambient_and_nests(self):
        ctrl = AdmissionController(backend=ThreadBackend())
        outer, inner = ctrl.admit(name="outer"), ctrl.admit(name="inner")
        assert current_envelope() is None
        with use_envelope(outer):
            assert current_envelope() is outer
            with use_envelope(inner):
                assert current_envelope() is inner
            assert current_envelope() is outer
        assert current_envelope() is None

    def test_none_envelope_is_a_passthrough(self):
        with use_envelope(None):
            assert current_envelope() is None

    def test_attach_adopts_the_slot_deadline(self):
        class Owner(DispatchContextOwner):
            def __init__(self):
                self._init_dispatch_state()

        ctrl = AdmissionController(backend=ThreadBackend())
        deadline = Deadline(30.0, clock=time.monotonic)
        slot = ctrl.admit(deadline=deadline, name="timed", retry="policy")
        with use_backend(ThreadBackend()), use_envelope(slot):
            with Owner().dispatch_scope("timed.call") as ctx:
                assert ctx.deadline is deadline
                assert ctx.retry_policy == "policy"
                assert slot.ticket_id == ctx.context_id
                ctx.check_deadline()  # plenty of budget: no-op
                slot.cancel(CallShed("gone"))  # ... and the link is live
                assert ctx.cancelled
