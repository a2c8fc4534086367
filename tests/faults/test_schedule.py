"""Unit tests for fault schedules: event matching, per-site and
per-(site, index) counters, seeded rate draws, determinism of the
trace, what each site honours, and the schedule riding the tickets of
one deployment's calls."""

from __future__ import annotations

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import AdviceError, InjectedFault, ReplyDropped
from repro.faults import FaultEvent, FaultSchedule, fire_fault
from repro.parallel import WorkSplitter
from repro.runtime import ThreadBackend, use_dispatch
from repro.runtime.dispatch import bind_dispatch
from repro.runtime.ticket import DispatchContext


class TestFaultEvent:
    def test_rejects_unknown_kind_and_site(self):
        with pytest.raises(AdviceError, match="unknown fault kind"):
            FaultEvent("explode")
        with pytest.raises(AdviceError, match="unknown fault site"):
            FaultEvent("kill_worker", site="disk")

    def test_rejects_bad_counts_and_delay(self):
        with pytest.raises(AdviceError, match="on_call"):
            FaultEvent("kill_worker", on_call=0)
        with pytest.raises(AdviceError, match="every"):
            FaultEvent("kill_worker", every=0)
        with pytest.raises(AdviceError, match="delay"):
            FaultEvent("delay_reply", delay=-1.0)


class TestExplicitEvents:
    def test_on_call_fires_exactly_once(self):
        schedule = FaultSchedule([FaultEvent("kill_worker", on_call=2)])
        assert schedule.fire("dispatch") is None
        event = schedule.fire("dispatch")
        assert event is not None and event.kind == "kill_worker"
        # consumed: the counter keeps advancing but the event never re-fires
        for _ in range(5):
            assert schedule.fire("dispatch") is None
        assert schedule.fired_count() == 1

    def test_every_fires_periodically(self):
        schedule = FaultSchedule([FaultEvent("drop_reply", every=3)])
        fired = [
            schedule.fire("dispatch") is not None for _ in range(9)
        ]
        assert fired == [False, False, True] * 3

    def test_index_pinned_event_counts_per_worker(self):
        # "kill worker 1's second call" must NOT fire on worker 0's
        # second call, however interleaved the consultations are
        schedule = FaultSchedule(
            [FaultEvent("kill_worker", index=1, on_call=2)]
        )
        assert schedule.fire("dispatch", 0) is None  # w0 #1
        assert schedule.fire("dispatch", 1) is None  # w1 #1
        assert schedule.fire("dispatch", 0) is None  # w0 #2: wrong worker
        event = schedule.fire("dispatch", 1)  # w1 #2: fires
        assert event is not None and event.kind == "kill_worker"

    def test_sites_count_independently(self):
        schedule = FaultSchedule([FaultEvent("kill_worker", site="pool")])
        assert schedule.fire("dispatch") is None  # wrong site
        assert schedule.fire("proc") is None
        assert schedule.fire("pool") is not None

    def test_declaration_order_breaks_ties(self):
        first = FaultEvent("drop_reply", on_call=1)
        second = FaultEvent("kill_worker", on_call=1)
        schedule = FaultSchedule([first, second])
        assert schedule.fire("dispatch").kind == "drop_reply"
        # the loser was not consumed: it fires on the next consultation
        # (its on_call matched consultation 1 only, so it never fires)
        assert schedule.fire("dispatch") is None
        assert second.fired is False


class TestSeededRates:
    def test_same_seed_same_trace(self):
        def run():
            schedule = FaultSchedule(seed=7, rates={"kill_worker": 0.3})
            for i in range(50):
                schedule.fire("dispatch", i % 4)
            return schedule.trace_snapshot()

        first, second = run(), run()
        assert first == second
        assert len(first) > 0  # 30% over 50 draws: statistically certain

    def test_different_seeds_diverge(self):
        def run(seed):
            schedule = FaultSchedule(seed=seed, rates={"drop_reply": 0.5})
            for _ in range(40):
                schedule.fire("dispatch")
            return schedule.trace_snapshot()

        assert run(1) != run(2)

    def test_rates_reject_unknown_kind(self):
        with pytest.raises(AdviceError, match="unknown fault kind"):
            FaultSchedule(rates={"meltdown": 0.5})

    def test_trace_rows_are_plain_data(self):
        schedule = FaultSchedule([FaultEvent("kill_worker", on_call=1)])
        schedule.fire("dispatch", 2)
        row = schedule.trace_snapshot()[0]
        assert row == [0, "dispatch", 2, 1, "kill_worker"]


class TestWhatASiteHonours:
    def test_the_pool_refuses_a_kind_it_cannot_carry_out(self):
        # a pool resident's task delivers its own result: there is no
        # reply for the resident to drop or to fail
        for kind in ("drop_reply", "raise_in_piece"):
            with pytest.raises(AdviceError, match="fault site 'pool' cannot honour"):
                FaultEvent(kind, site="pool")
        for kind in ("kill_worker", "delay_reply"):
            assert FaultEvent(kind, site="pool").site == "pool"

    def test_a_drawn_kind_the_site_cannot_honour_fires_nothing(self):
        def run(other_site):
            schedule = FaultSchedule(seed=11, rates={"drop_reply": 0.5})
            for _ in range(20):
                schedule.fire(other_site, 0)
                schedule.fire("dispatch", 0)
            return schedule.trace_snapshot()

        pooled, procs = run("pool"), run("proc")
        assert {row[1] for row in pooled} == {"dispatch"}
        assert {row[1] for row in procs} == {"dispatch", "proc"}
        # the pool's draws were made all the same: one per consultation
        assert [row[1:] for row in pooled] == [
            row[1:] for row in procs if row[1] == "dispatch"
        ]

    def test_fire_fault_without_a_ticket_is_none(self):
        assert fire_fault("dispatch") is None


class Doubler:
    def run(self, values):
        return [v * 2 for v in values]


class Neighbour:
    def run(self, values):
        return [v * 2 for v in values]


def farm_app(target=Doubler, **spec):
    return ParallelApp(
        StackSpec(
            target=target,
            work="run",
            splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
            strategy="farm",
            backend="thread",
            **spec,
        )
    )


def every_dispatch_raises():
    return FaultSchedule(
        [FaultEvent("raise_in_piece", site="dispatch", every=1)]
    )


class TestASchedulePerDeployment:
    """``StackSpec.faults`` rides the tickets of that deployment's calls:
    a hook site asks the schedule of the call it works for, so two
    deployments never consult each other's events (ROADMAP 2(c))."""

    def test_a_neighbours_schedule_is_not_mine_and_mine_still_is(self):
        faulty = every_dispatch_raises()
        with farm_app(faults=faulty) as a, farm_app(Neighbour) as b:
            a.start(), b.start()
            assert b.submit([1, 2]).result(timeout=10) == [2, 4]
            assert faulty.fired_count() == 0  # B never even asked A's
            with pytest.raises(InjectedFault):
                a.submit([1, 2]).result(timeout=10)
            assert faulty.fired_count() == 1

    def test_each_of_two_schedules_sees_its_own_calls_only(self):
        drops = FaultSchedule([FaultEvent("drop_reply", site="dispatch", every=1)])
        raises = every_dispatch_raises()
        with farm_app(faults=drops) as a, farm_app(Neighbour, faults=raises) as b:
            a.start(), b.start()
            for _ in range(3):
                with pytest.raises(ReplyDropped):
                    a.submit([1]).result(timeout=10)
                with pytest.raises(InjectedFault):
                    b.submit([1]).result(timeout=10)
        assert {row[4] for row in drops.trace} == {"drop_reply"}
        assert {row[4] for row in raises.trace} == {"raise_in_piece"}
        assert len(drops.trace) == len(raises.trace) == 3

    def test_fire_fault_asks_only_the_tickets_schedule(self):
        mine = FaultSchedule([FaultEvent("delay_reply", site="pool", every=1)])
        carrying = DispatchContext("mine", backend=ThreadBackend(), faults=mine)
        bare = DispatchContext("bare", backend=ThreadBackend())
        assert fire_fault("pool", 0, carrying).kind == "delay_reply"
        assert fire_fault("pool", 0, bare) is None
        with use_dispatch(carrying):
            # what a pool resident asks with: the pulled task's ticket
            assert bind_dispatch(lambda: None).ticket is carrying
        assert len(mine.trace) == 1
