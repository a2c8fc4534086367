"""One conformance table: every strategy × case, on every backend.

The paper claims that parallelisation concerns plug in independently of
the platform.  This file is that claim as one table: each test below is
a case, parameterised over the five partition strategies, and the
``host`` fixture runs every cell on ``thread``, ``sim``, ``process`` and
``asyncio``.  The host is the only place a backend differs:

* **construction** — ``sim`` runs ``mpp`` on ``paper_testbed`` (except
  divide-and-conquer, whose branch workers are call-time clones), and
  ``asyncio`` serves ``async def`` twins of the servants;
* **the gate** servants park on — the backend's own event
  (``make_event``; asyncio servants ``await gate.wait_async()``), or a
  file on ``process``, armed before ``start()`` because workers fork;
* **who runs the body** — on ``sim`` a simulated process, and
  :func:`settle` holds virtual time;
* **the fault site** a schedule names (:data:`SITES`);
* **the census** after ``undeploy()``/``shutdown()``: no admission
  place or ticket held, no unfinished non-daemon sim process, no live
  worker, child process or extra fd, no live loop task, and no busy
  thread beyond the baseline (parked carriers and the shared loop
  thread are not busy).

Every cell asserts the same outcome, except the ones :data:`DIFFERS`
declares, each with its reason — that dict is the parity backlog, and
each entry's cell asserts the differing outcome itself.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.api import ParallelApp, StackSpec
from repro.cluster import paper_testbed
from repro.errors import (
    AdmissionRejected,
    CallShed,
    DeadlineExceeded,
    InjectedFault,
    ReplyDropped,
    WorkerCrashed,
    WorkerKilled,
)
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece
from repro.runtime.backend import current_backend
from repro.sim import Simulator

STRATEGIES = ["farm", "dynamic-farm", "pipeline", "heartbeat", "divide-conquer"]
HOSTS = ["thread", "sim", "process", "asyncio"]
#: the fault site of each host's servant boundary; divide-and-conquer's
#: branch workers are clones in the caller, so its site is "dispatch"
SITES = {"thread": "dispatch", "sim": "dispatch", "process": "proc", "asyncio": "loop"}
#: the strategies that route whole packs of ``map(pack=)`` per worker
PACKING = ("farm", "dynamic-farm", "pipeline")
KINDS = ["kill_worker", "drop_reply", "raise_in_piece"]
#: what an unrecovered fault of each kind fails its call with
FAULT_ERRORS = {
    "kill_worker": (WorkerKilled, WorkerCrashed),
    "drop_reply": ReplyDropped,
    "raise_in_piece": InjectedFault,
}
#: the deadline budget, in seconds of the backend's clock
BUDGET = 0.1

_CARRIED = (
    "the splitter carries its single piece on the submitting activity, "
    "which waits for the servant (threads) or for its reply (mpp on the "
    "simulator) without looking at the deadline: the call fails when the "
    "parked servant returns, not at the budget"
)
_CARRIED_SHED = (
    "the splitter carries its single piece on the submitting activity, "
    "which waits for the servant (threads) or for its reply (mpp on the "
    "simulator) without looking at the cancel latch: the shed call fails "
    "when the parked servant returns, not at the shed"
)
_DRAINED_SHED = (
    "the call waits for the dispatchers to drain its queue, a wait the "
    "deadline bounds but a shed does not wake, and a dispatcher waits "
    "for its parked servant: the shed call fails when the servant "
    "returns, not at the shed"
)
_GATHERED_SHED = (
    "the gather waits for each spawned piece without looking at the "
    "cancel latch, which it checks between pieces only: the shed call "
    "fails when the parked servant returns, not at the shed"
)
_GATHERED = (
    "the gather waits for each spawned piece without looking at the "
    "deadline, which it checks between pieces only: the call fails when "
    "the parked servant returns, not at the budget"
)
#: (case, host, strategy) cells that legitimately differ, with the reason.
#: The process host's reply wait and the loop host's await are bounded
#: by the deadline and woken by a shed; divide-and-conquer's branch
#: clones run in the caller
DIFFERS = {
    **{
        ("deadline", host, strategy): _CARRIED
        for host in ("thread", "sim")
        for strategy in ("farm", "pipeline")
    },
    **{("deadline", host, "heartbeat"): _GATHERED for host in ("thread", "sim")},
    **{
        ("deadline", host, "divide-conquer"): _GATHERED
        for host in ("thread", "sim", "process")
    },
    **{
        ("shed", host, strategy): _CARRIED_SHED
        for host in ("thread", "sim")
        for strategy in ("farm", "pipeline")
    },
    **{("shed", host, "dynamic-farm"): _DRAINED_SHED for host in ("thread", "sim")},
    **{
        ("shed", host, strategy): _GATHERED_SHED
        for host in ("thread", "sim")
        for strategy in ("heartbeat", "divide-conquer")
    },
    ("shed", "process", "divide-conquer"): _GATHERED_SHED,
}


# -- what the servants consult ---------------------------------------------

#: installed per cell by the host: "gate" parks servants until opened;
#: "servant" / "hook" make the servant / the forward hook raise while set
FLAGS: dict = {}


class FileFlag:
    """The flag a forked worker sees: set means the file exists."""

    def __init__(self, path):
        self.path = path

    @property
    def is_set(self):
        return os.path.exists(self.path)

    def set(self):
        open(self.path, "w").close()

    def clear(self):
        os.remove(self.path)

    def wait(self, timeout):
        end = time.monotonic() + timeout
        while not self.is_set and time.monotonic() < end:
            time.sleep(0.002)


def explode_if(name):
    flag = FLAGS.get(name)
    if flag is not None and flag.is_set:
        raise ValueError(f"{name} exploded")


def park():
    gate = FLAGS.get("gate")
    if gate is not None:
        gate.wait(10)
    explode_if("servant")


async def park_async():
    gate = FLAGS.get("gate")
    if gate is not None:
        await gate.wait_async()
    explode_if("servant")


class Echo:
    """Farm, dynamic-farm and pipeline target: doubles its values."""

    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        park()
        return [v * 2 for v in values]


class Block:
    """Heartbeat target: unit residual, no-op halo accessors."""

    def __init__(self, size=4):
        self.size = size

    def step(self, iterations):
        park()
        return 1.0

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class Summer:
    """Divide-and-conquer target: sums its leaf."""

    def total(self, values):
        park()
        return sum(values)


class AsyncEcho:
    def __init__(self, tag=0):
        self.tag = tag

    async def bump(self, values):
        await park_async()
        return [v * 2 for v in values]


class AsyncBlock:
    def __init__(self, size=4):
        self.size = size

    async def step(self, iterations):
        await park_async()
        return 1.0

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class AsyncSummer:
    async def total(self, values):
        await park_async()
        return sum(values)


def halves(args, kwargs, depth):
    return len(args[0]) > 4


def divide(args, kwargs):
    middle = len(args[0]) // 2
    return [CallPiece(0, (args[0][:middle],)), CallPiece(1, (args[0][middle:],))]


def first(results):
    return results[0]


def doomed_forward(result, args, kwargs):
    explode_if("hook")
    return (result,), {}


class Case:
    """One strategy's spec fields, start arguments, payloads and
    expected results (the same on every host)."""

    def __init__(self, strategy, native_async):
        echo, block, summer = (
            (AsyncEcho, AsyncBlock, AsyncSummer) if native_async else (Echo, Block, Summer)
        )
        self.start = ()
        if strategy in PACKING:
            splitter = WorkSplitter(duplicates=2, combine=first)
            self.fields = dict(target=echo, work="bump", splitter=splitter)
            factor = 4 if strategy == "pipeline" else 2
            self.payload = lambda i: ([i, i + 10],)
            self.expected = lambda i: [i * factor, (i + 10) * factor]
        elif strategy == "heartbeat":
            splitter = WorkSplitter(duplicates=2, combine=sum)
            self.fields = dict(target=block, work="step", splitter=splitter)
            self.start = (4,)
            self.payload = lambda i: (2,)
            self.expected = lambda i: 2.0
        else:
            self.fields = dict(
                target=summer,
                work="total",
                strategy_options=dict(should_divide=halves, divide=divide, merge=sum),
            )
            self.payload = lambda i: (list(range(i, i + 8)),)
            self.expected = lambda i: sum(range(i, i + 8))
        self.fields["strategy"] = strategy

    def expect(self, n):
        return [self.expected(i) for i in range(n)]


# -- the host: where a backend differs --------------------------------------


def wait_until(cond, timeout=10.0):
    end = time.monotonic() + timeout
    while not cond():
        if time.monotonic() > end:
            return False
        time.sleep(0.002)
    return True


def settle(app, cond, within=5.0):
    """Let the app's activities run until ``cond`` holds, on the
    backend's own clock (virtual time on the simulator)."""
    end = app.backend.now() + within
    while not cond():
        assert app.backend.now() < end, "never settled"
        app.backend.sleep(0.002)


def busy_threads():
    return sum(
        thread.name not in ("carrier.idle", "repro.asyncio-loop")
        for thread in threading.enumerate()
    )


def open_fds():
    return len(os.listdir("/proc/self/fd"))


class Host:
    """One backend's column of the table: everything in which a cell
    run on it differs from the same cell run on another."""

    def __init__(self, name, tmp_path):
        self.name = name
        self.tmp_path = tmp_path
        self.sims = []
        self.baseline = (busy_threads(), open_fds())

    def app(self, strategy, **spec):
        case = Case(strategy, native_async=self.name == "asyncio")
        fields = dict(case.fields, backend=self.name)
        if self.name == "sim" and strategy != "divide-conquer":
            fields.update(middleware="mpp", cluster=paper_testbed(Simulator()))
        fields.update(spec)
        app = ParallelApp(StackSpec(**fields))
        if app.sim is not None:
            self.sims.append(app.sim)
        return app, case

    def flag(self, app, name):
        """A closed flag the servants consult, installed before the
        workers exist."""
        if self.name == "process":
            flag = FileFlag(str(self.tmp_path / name))
        else:
            flag = app.backend.make_event(name=name)
        FLAGS[name] = flag
        return flag

    def schedule(self, kind, strategy):
        site = "dispatch" if strategy == "divide-conquer" else SITES[self.name]
        return FaultSchedule([FaultEvent(kind, site=site, on_call=1)], name=kind)

    def drive(self, app, case, body):
        """Deploy, start, run ``body`` as this host's callers do, undeploy
        — then take the census."""

        def main():
            app.start(*case.start)
            body()

        with app:
            try:
                if app.sim is None:
                    main()
                else:
                    app.sim.spawn(main, name="conformance")
                    app.sim.run()
            finally:
                if "gate" in FLAGS:
                    FLAGS["gate"].set()  # nothing stays parked past the cell
        self.census(app)

    def census(self, app):
        if app.sim is not None:
            unfinished = [p.name for p in app.sim.processes if not (p.finished or p.daemon)]
            assert unfinished == []
            app.sim.shutdown()
        assert wait_until(lambda: app.in_flight == 0)
        assert getattr(app.middleware, "live_workers", 0) == 0
        assert wait_until(lambda: not multiprocessing.active_children())
        assert getattr(app.backend, "live_tasks", 0) == 0
        assert wait_until(lambda: busy_threads() <= self.baseline[0]), threading.enumerate()
        assert open_fds() <= self.baseline[1]


@pytest.fixture(params=HOSTS)
def host(request, tmp_path):
    FLAGS.clear()
    made = Host(request.param, tmp_path)
    yield made
    FLAGS.clear()
    for sim in made.sims:
        sim.shutdown()


def results(futures):
    return [future.result(timeout=20) for future in futures]


def claimed(futures, strategy):
    """The futures whose call's ticket ``strategy``'s split claimed."""
    return [
        future for future in futures
        if future.admission.claimed
        and future.admission.name.startswith(f"{strategy}.")
    ]


# -- the table ---------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fail_rejects_beyond_max_in_flight(host, strategy):
    app, case = host.app(strategy, max_in_flight=2, overflow="fail")
    gate = host.flag(app, "gate")

    def body():
        futures = [app.submit(*case.payload(i)) for i in range(2)]
        assert app.in_flight == 2  # slots are taken synchronously
        with pytest.raises(AdmissionRejected, match="2 calls already"):
            app.submit(*case.payload(2))
        assert app.admission.rejected == 1
        gate.set()
        assert results(futures) == case.expect(2)

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_shed_oldest_cancels_the_oldest_call(host, strategy):
    app, case = host.app(strategy, max_in_flight=1, overflow="shed-oldest")
    gate = host.flag(app, "gate")
    late = ("shed", host.name, strategy) in DIFFERS

    def body():
        oldest = app.submit(*case.payload(0))
        settle(app, lambda: oldest.admission.claimed)  # its split under way
        app.backend.sleep(0.2)  # ... and its servants parked
        newest = app.submit(*case.payload(1))  # sheds `oldest`
        assert app.admission.shed_calls == 1
        assert oldest.admission.cancelled
        if late:  # the declared difference, asserted
            app.backend.sleep(0.2)
            assert not oldest.resolved
            gate.set()
        with pytest.raises(CallShed):
            oldest.result(timeout=1)  # the servant parks for 10
        gate.set()
        assert newest.result(timeout=20) == case.expected(1)

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_block_parks_the_submitter_until_a_slot_frees(host, strategy):
    app, case = host.app(strategy, max_in_flight=1, overflow="block")
    gate = host.flag(app, "gate")

    def body():
        first_call = app.submit(*case.payload(0))
        second = app.backend.spawn(lambda: app.submit(*case.payload(1)))
        settle(app, lambda: app.admission.waiting == 1)
        assert not second.done  # genuinely parked
        gate.set()  # the first call drains and hands its slot over
        assert first_call.result(timeout=20) == case.expected(0)
        assert second.join().result(timeout=20) == case.expected(1)
        assert app.admission.blocked == 1

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_overlapped_submits_are_in_flight_together(host, strategy):
    app, case = host.app(strategy)
    gate = host.flag(app, "gate")

    def body():
        futures = [app.submit(*case.payload(i)) for i in range(3)]
        # two splits under way at once while the servants park
        settle(app, lambda: sum(
            not future.resolved for future in claimed(futures, strategy)
        ) >= 2)
        gate.set()
        assert results(futures) == case.expect(3)
        assert app.peak_in_flight == 3 and app.in_flight == 0
        assert len(claimed(futures, strategy)) == 3  # each split once

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_interleaved_calls_route_to_their_own_futures(host, strategy):
    app, case = host.app(strategy)

    def body():
        futures = [app.submit(*case.payload(i)) for i in range(8)]
        assert results(futures) == case.expect(8)
        assert len(claimed(futures, strategy)) == 8

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_slot_is_free_when_the_future_resolves(host, strategy):
    # the slot goes back BEFORE the future resolves: a caller waking from
    # result() is never rejected by the call it just waited for
    app, case = host.app(strategy, max_in_flight=1, overflow="fail")

    def body():
        for i in range(8):
            assert app.submit(*case.payload(i)).result(timeout=20) == case.expected(i)
            assert app.submit(*case.payload(i)).result(timeout=20) == case.expected(i)

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_rejected_map_units_fail_their_own_futures(host, strategy):
    # one unit per item, or per pack of two where the strategy routes
    # packs: either way two units dispatch and two are rejected
    packs = strategy in PACKING
    app, case = host.app(strategy, max_in_flight=1 if packs else 2, overflow="fail")
    gate = host.flag(app, "gate")

    def body():
        group = app.map([case.payload(i) for i in range(4)], pack=2 if packs else False)
        assert len(group) == 4  # every handle reachable
        gate.set()
        outcomes = []
        for future in group:
            try:
                outcomes.append(future.result(timeout=20))
            except AdmissionRejected:
                outcomes.append("rejected")
        assert outcomes == case.expect(2) + ["rejected"] * 2

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_deadline_expires_while_the_servant_is_parked(host, strategy):
    app, case = host.app(strategy)
    gate = host.flag(app, "gate")
    late = ("deadline", host.name, strategy) in DIFFERS

    def body():
        doomed = app.submit(*case.payload(0), timeout=BUDGET)
        if late:  # the declared difference, asserted
            app.backend.sleep(3 * BUDGET)
            assert not doomed.resolved
            gate.set()
        with pytest.raises(DeadlineExceeded) as caught:
            doomed.result(timeout=5)  # the servant parks for 10
        assert caught.value.trace is not None
        if host.name == "asyncio":  # the parked await was really cancelled
            assert app.backend.tasks_expired >= 1
        gate.set()
        # the deployment survived the expiry and serves the next call
        assert app.submit(*case.payload(1)).result(timeout=20) == case.expected(1)
        if host.name == "process":  # on the same workers: none replaced
            assert app.middleware.live_workers > 0
            assert app.middleware.worker_respawns == 0

    host.drive(app, case, body)


def _crashes_were_real(host, app, kind, strategy):
    """The process column's extra assertion: a kill at the proc site is
    a real process death, and the export was refilled behind its ref."""
    if host.name == "process" and kind == "kill_worker" and strategy != "divide-conquer":
        assert app.middleware.worker_crashes >= 1
        assert app.middleware.worker_respawns >= 1


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", KINDS)
def test_an_armed_fault_is_recovered(host, kind, strategy):
    schedule = host.schedule(kind, strategy)
    app, case = host.app(strategy, faults=schedule, retry=RetryPolicy(max_attempts=3))

    def body():
        futures = [app.submit(*case.payload(i)) for i in range(2)]
        assert results(futures) == case.expect(2)
        assert schedule.fired_count() == 1

    host.drive(app, case, body)
    _crashes_were_real(host, app, kind, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", KINDS)
def test_an_unarmed_fault_is_the_calls_failure(host, kind, strategy):
    schedule = host.schedule(kind, strategy)
    app, case = host.app(strategy, faults=schedule)

    def body():
        with pytest.raises(FAULT_ERRORS[kind]):
            app.submit(*case.payload(0)).result(timeout=20)
        assert schedule.fired_count() == 1
        assert app.submit(*case.payload(1)).result(timeout=20) == case.expected(1)

    host.drive(app, case, body)
    _crashes_were_real(host, app, kind, strategy)


def _fails_only_its_own_call(host, strategy, culprit, **spec):
    app, case = host.app(strategy, **spec)
    doom = host.flag(app, culprit)

    def body():
        doom.set()
        with pytest.raises(Exception, match=f"{culprit} exploded"):
            app.submit(*case.payload(0)).result(timeout=20)
        doom.clear()
        assert app.submit(*case.payload(1)).result(timeout=20) == case.expected(1)

    host.drive(app, case, body)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_raising_servant_fails_only_its_own_call(host, strategy):
    _fails_only_its_own_call(host, strategy, "servant")


def test_a_raising_forward_hook_fails_only_its_own_call(host):
    splitter = WorkSplitter(duplicates=2, combine=first, forward_args=doomed_forward)
    _fails_only_its_own_call(host, "pipeline", "hook", splitter=splitter)


# -- makespan: a call's pieces run at once -----------------------------------

#: one piece's sleep, in seconds of the backend's clock
PIECE = 0.05
#: (strategy, leaves) rows: four pieces on four workers, a pipeline of
#: two stages, divide-and-conquer trees of 4 and 16 leaves
MAKESPAN_ROWS = [
    ("farm", 4),
    ("dynamic-farm", 4),
    ("heartbeat", 4),
    ("divide-conquer", 4),
    ("divide-conquer", 16),
    ("pipeline", 4),
]
#: the exact virtual makespan of one call on sim: one piece plus the mpp
#: transport where it runs remote; divide-and-conquer's leaves are local
#: clones; the pipeline's 4 pieces through 2 stages take 5 rounds
SIM_MAKESPAN = {
    "farm": 0.0503,
    "dynamic-farm": 0.0503,
    "heartbeat": 0.0503,
    "divide-conquer": 0.0500,
    "pipeline": 0.2514,
}


#: activities one call spawns (``backend.spawned``): its submission, and
#: one per piece but the one the splitting activity carries (farm; the
#: pipeline, whose forwards ride each piece's activity), one per resident
#: worker (dynamic farm, heartbeat: a fresh app starts its pool) or one
#: per leaf (divide-and-conquer).  A spawn run inline reads fewer.
SPAWNS_PER_CALL = {
    "farm": lambda leaves: leaves,
    "dynamic-farm": lambda leaves: leaves + 1,
    "heartbeat": lambda leaves: leaves + 1,
    "divide-conquer": lambda leaves: leaves + 1,
    "pipeline": lambda leaves: leaves,
}


#: how long a piece that has slept waits for the rest to arrive: only a
#: gather that awaits a piece before dispatching the next waits it out
HOLD = 2.0


class Sleepy:
    """Makespan target: every piece sleeps :data:`PIECE` on the
    backend's clock and hands its values back.  The class gauges the
    pieces in flight at once, and ``peak`` keeps the most it saw.  A
    piece that has slept returns once the peak reaches ``hold_for`` (or
    after :data:`HOLD`), so the count does not hinge on how soon the
    threads start."""

    gauge = threading.Condition()
    in_flight = peak = hold_for = 0

    def __init__(self, size=4):
        self.size = size

    def step(self, values):
        with Sleepy.gauge:
            Sleepy.in_flight += 1
            Sleepy.peak = max(Sleepy.peak, Sleepy.in_flight)
            Sleepy.gauge.notify_all()
        try:
            current_backend().sleep(PIECE)
            with Sleepy.gauge:
                Sleepy.gauge.wait_for(lambda: Sleepy.peak >= Sleepy.hold_for, HOLD)
        finally:
            with Sleepy.gauge:
                Sleepy.in_flight -= 1
        return values

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


def one_value_each(args, kwargs):
    return [CallPiece(i, ([v],)) for i, v in enumerate(args[0])]


def concatenate(results):
    return [value for result in results for value in result]


@pytest.mark.parametrize("retry", [None, RetryPolicy(3)], ids=["plain", "retry"])
@pytest.mark.parametrize("strategy,leaves", MAKESPAN_ROWS)
@pytest.mark.parametrize("backend", ["thread", "sim"])
def test_one_call_takes_one_piece_makespan(backend, strategy, leaves, retry):
    """Every piece of a call is dispatched before any is awaited — the
    retry-armed gather and divide-and-conquer's whole tree included —
    so every piece is in flight at once (the pipeline: one per stage).
    On sim one call then lasts exactly one piece (the pipeline: its
    rounds).  The pipeline's first stage cannot hold its piece for the
    next (that one waits on the stage), and sim has no wall clock to
    hold on: those rows count without a hold.  Every row also counts
    the activities the call spawned, exactly."""
    start, payload = (), (list(range(1, leaves + 1)),)
    at_once = 2 if strategy == "pipeline" else leaves
    fields = dict(target=Sleepy, work="step", strategy=strategy, backend=backend)
    if strategy == "heartbeat":
        start, payload = (4,), (1,)
        fields["splitter"] = WorkSplitter(duplicates=4, combine=sum)
        expected = 4
    elif strategy == "divide-conquer":
        fields["strategy_options"] = dict(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 1,
            divide=divide,
            merge=concatenate,
        )
        expected = payload[0]
    else:
        stages = 2 if strategy == "pipeline" else 4
        fields["splitter"] = WorkSplitter(duplicates=stages, split=one_value_each)
        expected = [[value] for value in payload[0]]
    if backend == "sim" and strategy != "divide-conquer":
        fields.update(middleware="mpp", cluster=paper_testbed(Simulator()))
    app = ParallelApp(StackSpec(retry=retry, **fields))
    timed = {}
    Sleepy.peak = 0
    Sleepy.hold_for = at_once if backend == "thread" and strategy != "pipeline" else 0

    def main():
        app.start(*start)
        began = app.backend.now()
        spawned = app.backend.spawned
        timed["result"] = app.submit(*payload).result(timeout=20)
        timed["makespan"] = app.backend.now() - began
        timed["spawned"] = app.backend.spawned - spawned

    try:
        with app:
            if app.sim is None:
                main()
            else:
                app.sim.spawn(main, name="makespan")
                app.sim.run()
    finally:
        if app.sim is not None:
            app.sim.shutdown()
    assert timed["result"] == expected
    # a gather that awaited each piece before dispatching the next reads 1
    assert Sleepy.peak == at_once
    # the pipeline's stages overlap through its own forwarding, so its
    # peak holds even with the per-call spawn run inline: the count does not
    assert timed["spawned"] == SPAWNS_PER_CALL[strategy](leaves)
    if backend == "sim":
        assert timed["makespan"] == pytest.approx(SIM_MAKESPAN[strategy], abs=0.001)
