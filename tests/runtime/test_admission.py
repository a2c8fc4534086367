"""Admission-control units: deadlines, the bounded slot table and its
three overflow policies — one table of cases run against both
constructions of it — plus the place→ticket linkage: what a table hands
out holds capacity and points at the call's one record."""

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
from repro.parallel.partition.base import DispatchContext
from repro.runtime import (
    AdmissionController,
    Deadline,
    ThreadBackend,
    current_dispatch,
    use_backend,
    use_dispatch,
)
from repro.runtime.ticket import dispatch_scope
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

    def test_the_ticket_checks_it_and_the_expiry_carries_the_trace(self):
        clock = {"t": 0.0}
        ticket = ticket_for("timed", Deadline(1.0, clock=lambda: clock["t"]))
        ticket.check_deadline("early")  # within budget: no-op
        clock["t"] = 2.0
        with pytest.raises(DeadlineExceeded, match="1.0s exceeded mid-hop") as caught:
            ticket.check_deadline("mid-hop")
        assert caught.value.trace["spans"][-1]["name"] == "cancelled"

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


def ticket_for(name, deadline=None):
    """The call's record as a submitter builds it, before admission."""
    return DispatchContext(name, backend=ThreadBackend(), deadline=deadline)


class Controller:
    """The table as a deployment builds it: one tenant, the deployment."""

    def __init__(self, limit, policy, backend):
        self.table = AdmissionController(
            limit=limit, policy=policy, backend=backend, name="t"
        )

    def admit(self, name, deadline=None):
        return self.table.admit(ticket_for(name, deadline), name=name)

    def probe(self):
        return self.table.admit(name="probe")

    def counters(self):
        t = self.table
        return counts(
            t.admitted, t.waiting, t.admitted_total, t.rejected,
            t.shed_calls, t.blocked, t.peak_admitted,
        )


class Scheduler:
    """The table as a cluster builds it, with a single tenant."""

    def __init__(self, limit, policy, backend):
        self.table = ClusterScheduler(capacity=limit, backend=backend, name="t")
        self.table.tenant("only", overflow=policy)

    def admit(self, name, deadline=None):
        return self.table.acquire("only", ticket_for(name, deadline), name=name)

    def probe(self):
        return self.table.acquire("only", name="probe")

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
    return slot.name, slot.ticket.cancelled, table.counters()


def shed_oldest_victim_order(make):
    table = make(2, "shed-oldest")
    slots = [table.admit(name=name) for name in "abcd"]  # c, d each shed
    shed = [slot.name for slot in slots if slot.ticket.cancelled]
    assert all(
        isinstance(slot.ticket.cancel_cause, CallShed) for slot in slots[:2]
    )
    assert "'a' shed to admit 'c'" in str(slots[0].ticket.cancel_cause)
    return shed, table.counters()


def shed_of_an_all_dying_table(make):
    # every held slot is about to release (expired / delivered): the
    # newcomer is admitted over the limit, nothing is shed
    table = make(2, "shed-oldest")
    expired, done = table.admit(name="expired"), table.admit(name="done")
    expired.ticket.cancel(DeadlineExceeded("too late"))
    assert done.ticket.finish() is None
    table.admit(name="newcomer")
    over = table.counters()
    expired.release(), done.release()
    return (
        isinstance(expired.ticket.cancel_cause, DeadlineExceeded),
        over,
        table.counters(),
    )


def delivered_slot_cannot_be_shed(make):
    # check-then-act closure: finish() atomically closes the ticket for
    # delivery, so the shed walks past its place to the oldest LIVE call
    # (and a cancel that comes after delivery is a no-op) — while a
    # cancel that won first makes finish() return the cause
    table = make(2, "shed-oldest")
    done, live = table.admit(name="done"), table.admit(name="live")
    assert done.ticket.finish() is None
    table.admit(name="newcomer")
    done.ticket.cancel(CallShed("too late: delivered"))
    return done.ticket.cancelled, type(live.ticket.finish()), table.counters()


def shed_reaches_the_claimed_collector(make):
    table = make(1, "shed-oldest")
    backend = ThreadBackend()
    ticket = table.admit(name="victim").ticket
    assert ticket.claim("victim.call", 2, backend)  # a skeleton took it
    table.admit(name="newcomer")
    with pytest.raises(CallShed):
        ticket.wait(timeout=1)  # the latched collector fails fast
    return ticket.name, ticket.cancelled, ticket.collector.failed


def shed_before_the_claim_fails_the_collector_at_claim_time(make):
    table = make(1, "shed-oldest")
    ticket = table.admit(name="early-victim").ticket
    table.admit(name="newcomer")  # shed before any skeleton opened a scope
    before = ticket.collector
    assert ticket.claim("late.call", 2, ThreadBackend())
    with pytest.raises(CallShed):
        ticket.check_deadline()
    return ticket.cancelled, before, ticket.collector.failed  # race closed


def a_place_without_a_ticket_is_shed_silently(make):
    # what a probe holds: capacity nobody's call stands behind
    table = make(1, "shed-oldest")
    probe = table.probe()
    table.admit(name="newcomer")
    probe.release()  # its place already moved on: a no-op for capacity
    return probe.ticket, table.counters()


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
    (shed_reaches_the_claimed_collector, ("victim.call", True, True)),
    (
        shed_before_the_claim_fails_the_collector_at_claim_time,
        (True, None, True),
    ),
    (a_place_without_a_ticket_is_shed_silently, (None, counts(1, 0, 2, 0, 1, 0, 1))),
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

    def test_both_places_point_at_one_ticket_and_go_back_together(self):
        # the cluster's place and the deployment's hold capacity only: a
        # shed at either level cancels the one ticket, whose release
        # returns both (idempotently)
        cluster = Scheduler(2, "shed-oldest", ThreadBackend())
        ctrl = AdmissionController(backend=ThreadBackend())
        tickets = {}
        for name in ("early", "late", "x", "y"):  # x and y shed the first two
            ticket = tickets[name] = ticket_for(name)
            ticket.places.append(cluster.table.acquire("only", ticket, name=name))
            ticket.places.append(ctrl.admit(ticket, name=name))
        assert [t.cancelled for t in tickets.values()] == [True, True, False, False]
        assert isinstance(tickets["late"].cancel_cause, CallShed)
        assert [p.tenant for p in tickets["x"].places] == ["only", "app"]
        assert all(p.ticket is tickets["x"] for p in tickets["x"].places)
        assert (cluster.counters()["held"], ctrl.admitted) == (2, 4)
        tickets["x"].release()
        tickets["x"].release()
        assert (cluster.counters()["held"], ctrl.admitted) == (1, 3)  # y
        for name in ("early", "late"):  # shed out of the cluster's table
            tickets[name].release()
        assert (cluster.counters()["held"], ctrl.admitted) == (1, 1)

    def test_a_probe_needs_no_ticket(self):
        ctrl = AdmissionController(limit=1, backend=ThreadBackend())
        ctrl.admit(name="probe").release()
        slot = ctrl.admit(name="probe")
        assert slot.ticket is None and ctrl.admitted == 1
        slot.release()
        assert ctrl.admitted == 0


class TestTheTicketIsTheEnvelope:
    def test_the_submission_ticket_is_ambient_and_nests(self):
        outer, inner = ticket_for("outer"), ticket_for("inner")
        assert current_dispatch() is None
        with use_dispatch(outer):
            assert current_dispatch() is outer
            with use_dispatch(inner):
                assert current_dispatch() is inner
            assert current_dispatch() is outer
        assert current_dispatch() is None

    def test_none_is_a_passthrough(self):
        with use_dispatch(None):
            assert current_dispatch() is None

    def test_the_first_scope_claims_the_submission_ticket(self):
        deadline = Deadline(30.0, clock=time.monotonic)
        ticket = DispatchContext(
            "submit.timed", backend=ThreadBackend(), deadline=deadline, retry="policy"
        )
        slot = AdmissionController(backend=ThreadBackend()).admit(ticket, name="timed")
        with use_backend(ThreadBackend()), use_dispatch(ticket):
            with dispatch_scope("timed.call") as ctx:
                assert ctx is ticket and slot.ticket is ctx  # one record
                assert ctx.name == "timed.call" and ctx.claimed
                assert ctx.deadline is deadline
                assert ctx.retry_policy == "policy"
                assert current_dispatch() is ticket
                ctx.check_deadline()  # plenty of budget: no-op
                with dispatch_scope("nested.call") as nested:
                    # a scope below a claimed ticket opens its own
                    assert nested is not ticket and nested.deadline is None
                    assert current_dispatch() is nested
                assert current_dispatch() is ticket
                ticket.cancel(CallShed("gone"))  # what a shed does
                with pytest.raises(CallShed):
                    ctx.check_deadline()
            assert current_dispatch() is ticket
        assert current_dispatch() is None and nested.claimed

    def test_a_scope_with_no_submission_opens_and_retires_its_own(self):
        with use_backend(ThreadBackend()):
            with dispatch_scope("bare.call", expected=1) as ctx:
                assert ctx.claimed and ctx.collector is not None
                assert current_dispatch() is ctx
        assert current_dispatch() is None
        assert ctx.trace_snapshot()["name"] == "bare.call"

    def test_delivery_and_cancellation_race_is_decided_once(self):
        won, lost = ticket_for("won"), ticket_for("lost")
        assert won.finish() is None and won.delivered
        won.cancel(CallShed("after delivery"))
        assert not won.cancelled and won.cancel_cause is None
        cause = CallShed("before delivery")
        lost.cancel(cause)
        assert lost.finish() is cause and not lost.delivered

    def test_a_result_after_the_budget_drained_expires_the_ticket(self):
        clock = {"t": 0.0}
        ticket = DispatchContext(
            "late", backend=ThreadBackend(), deadline=Deadline(1.0, lambda: clock["t"])
        )
        clock["t"] = 2.0
        cause = ticket.finish()
        assert isinstance(cause, DeadlineExceeded) and not ticket.delivered
        assert cause.trace["spans"][-1]["name"] == "cancelled"
