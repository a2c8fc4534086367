"""Process-column semantics, pinned on every placement topology.

The process middleware spreads the servants of one batched construction
over ``min(servants, usable_cpus())`` resident workers, neighbours
together, and a pipeline stage whose successor lives in the same worker
hands on to it there (a *run*: one request, one reply).  Where a stage
lives must not change what a call means, so one case table runs under
``usable_cpus`` 1 (three stages share a worker: every journey is one
run), 2 (stages 0 and 1 share, stage 2 sits alone: a run, then a
parent-mediated hop) and 64 (a worker per stage: the topology every
cell was first written against) and asserts the same outcome on each:

* a deadline that runs out mid-hop expires the ticket with the reply
  wait's trace message and the piece never reaches the stage behind;
* ``kill_worker`` / ``drop_reply`` / ``delay_reply`` at the ``"proc"``
  site, unarmed (the fault is the call's failure) and with ``retry=``
  (the piece is re-fed from the head, keyed deposits stay exactly-once);
* a crashed worker is refilled with every servant it hosted and their
  links, behind the same refs;
* shed-oldest mid-pipeline, a custom module-level ``forward_args``, an
  unpicklable one, a routed pack, four overlapped submits;
* nothing is left after ``undeploy()``: workers, fds, slots.

``usable_cpus`` is monkeypatched — a test seam, the program has no such
option.  Stages observe and gate through the filesystem (marker files,
a gate file), the one channel that reaches a forked worker process.

DECLARED DIFFERENCE: a call shed while a run is under way wastes at
most the rest of that run in the worker (the worker does not learn of
the shed; the parent drops the reply) — ``WASTED_AFTER_SHED``.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from contextlib import contextmanager

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import CallShed, DeadlineExceeded, ReplyDropped, WorkerCrashed
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece
from repro.runtime import procbackend

STAGES = 3
#: usable_cpus -> resident workers hosting the three stages, and round
#: trips one piece's journey takes through them
TOPOLOGIES = {1: (1, 1), 2: (2, 2), 64: (3, 3)}
#: visits of the stage BEHIND the one a shed call was parked in
WASTED_AFTER_SHED = {1: 1, 2: 0, 64: 0}


@pytest.fixture(autouse=True, params=sorted(TOPOLOGIES))
def cpus(request, monkeypatch, many_cpus):
    monkeypatch.setattr(procbackend, "usable_cpus", lambda: request.param)
    return request.param


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.002)
    return False


class Stage:
    """Pipeline stage ``index``: adds one to every value plus the length
    of ``note``, leaving a marker file per visit.  Class attributes are
    set before ``start()`` so forked workers inherit them."""

    root: str = ""
    #: stage index that parks until ``root/gate`` exists (None: nobody)
    gated: int | None = None
    #: (stage index, seconds) a stage dawdles for
    slow: tuple[int, float] | None = None

    def __init__(self, index=0):
        self.index = index
        self.visits = 0

    def run(self, values, note=""):
        self.visits += 1
        tag = "-".join(map(str, values))
        open(f"{Stage.root}/s{self.index}-{tag}-{self.visits}", "w").close()
        if Stage.gated == self.index:
            deadline = time.time() + 10
            while time.time() < deadline and not os.path.exists(
                f"{Stage.root}/gate"
            ):
                time.sleep(0.002)
        if Stage.slow is not None and Stage.slow[0] == self.index:
            time.sleep(Stage.slow[1])
        return [v + 1 + len(note) for v in values]


def visits(stage, values):
    prefix = f"s{stage}-{'-'.join(map(str, values))}-"
    return sum(name.startswith(prefix) for name in os.listdir(Stage.root))


def open_gate():
    open(f"{Stage.root}/gate", "w").close()


def growing_note(result, args, kwargs):
    """A custom ``forward_args`` that reads what the stage was CALLED
    with: every hop lengthens the note by one, so the three stages add
    0, 1 and 2 on top of their ones."""
    return (result,), {"note": kwargs.get("note", "") + "."}


def halves(args, kwargs):
    values = args[0]
    half = len(values) // 2
    return [
        CallPiece(0, (values[:half],), kwargs),
        CallPiece(1, (values[half:],), kwargs),
    ]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def stage_root(tmp_path):
    Stage.root = str(tmp_path)
    Stage.gated = Stage.slow = None
    yield
    Stage.gated = Stage.slow = None


def pipeline_app(split=None, forward_args=None, **fields):
    return ParallelApp(
        StackSpec(
            target=Stage,
            work="run",
            splitter=WorkSplitter(
                duplicates=STAGES,
                ctor_args=lambda args, kwargs, index, count: ((index,), {}),
                split=split,
                forward_args=forward_args,
                combine=lambda rs: sorted(v for r in rs for v in r),
            ),
            strategy="pipeline",
            backend="process",
            **fields,
        )
    )


@contextmanager
def deployed(app, cpus):
    """Deploy, hand the started app to the cell, undeploy — and count
    what is left: nothing, on any topology."""
    pipeline_warm_fds()
    fds = _open_fds()
    with app:
        app.start()
        assert app.middleware.live_workers == TOPOLOGIES[cpus][0]
        yield app
    assert wait_until(lambda: app.in_flight == 0)  # slots released
    assert app.middleware.live_workers == 0
    assert wait_until(lambda: not multiprocessing.active_children())
    assert wait_until(lambda: _open_fds() == fds), (_open_fds(), fds)


_WARM = []


def pipeline_warm_fds():
    """One throwaway deployment first: what the interpreter opens lazily
    (and keeps) is open before the first census."""
    if not _WARM:
        _WARM.append(True)
        with pipeline_app() as app:
            app.start()
            app.submit([0]).result(timeout=20)


def fault(kind, **fields):
    return FaultSchedule([FaultEvent(kind, site="proc", on_call=1, **fields)])


RETRY = RetryPolicy(max_attempts=3)


class TestPlacement:
    def test_workers_and_round_trips_per_journey(self, cpus):
        with deployed(pipeline_app(), cpus) as app:
            first = app.submit([1])
            assert first.result(timeout=20) == [4]
            before = app.middleware.calls
            messages = app.middleware.serializer.messages
            future = app.submit([5])
            assert future.result(timeout=20) == [8]
            assert app.middleware.calls - before == TOPOLOGIES[cpus][1]
            assert (
                app.middleware.serializer.messages - messages
                == TOPOLOGIES[cpus][1]
            )
            assert [visits(s, [5 + s]) for s in range(STAGES)] == [1, 1, 1]
            # the ticket saw the same journey whatever carried it
            trace = future.admission.trace_snapshot()
            assert trace["hops"] == STAGES - 1
            assert trace["remote_dispatches"] == STAGES
            for call in (first, future):
                spans = call.admission.trace_snapshot()["spans"]
                assert [s["name"] for s in spans].count("forward") == STAGES - 1

    def test_a_bare_invoke_is_one_stage_and_one_round_trip(self, cpus):
        with deployed(pipeline_app(), cpus) as app:
            head = app.partition.first
            ref = app.distribution.ref_of(head)
            before = app.middleware.calls
            assert app.middleware.invoke(ref, "run", ([7],)) == [8]
            assert app.middleware.calls - before == 1
            assert [visits(s, [7 + s]) for s in range(STAGES)] == [1, 0, 0]


class TestDeadlineMidHop:
    def test_expiry_mid_hop_stops_at_the_stage_boundary(self, cpus):
        Stage.slow = (1, 0.25)
        with deployed(pipeline_app(), cpus) as app:
            app.submit([0]).result(timeout=20)  # warm: carriers parked
            with pytest.raises(DeadlineExceeded) as err:
                app.submit([30], timeout=0.1).result(timeout=20)
            assert "awaiting a process-backend reply" in str(err.value)
            assert err.value.trace["cancelled"] is True
            assert wait_until(lambda: visits(1, [31]) == 1)
            time.sleep(0.3)  # stage 1 finishes: nobody hands its piece on
            assert visits(2, [32]) == 0
            # the late reply is discarded by call_id: the pipe is in sync
            assert app.submit([40], timeout=10).result(timeout=20) == [43]
            assert app.middleware.worker_respawns == 0


class TestProcFaults:
    @pytest.mark.parametrize("retry", [None, RETRY], ids=["unarmed", "retry"])
    def test_kill_worker(self, cpus, retry, caplog):
        schedule = fault("kill_worker")
        app = pipeline_app(faults=schedule, retry=retry)
        with deployed(app, cpus) as app, caplog.at_level(
            logging.WARNING, logger="repro.middleware.proc"
        ):
            first = app.submit([1])
            if retry is None:
                with pytest.raises(WorkerCrashed):
                    first.result(timeout=20)
            else:
                assert first.result(timeout=20) == [4]
                # the kill came before the send: only the re-fed journey ran
                assert [visits(s, [1 + s]) for s in range(STAGES)] == [1, 1, 1]
            assert schedule.fired_count() == 1
            # worker_respawns counts processes, not servants
            assert app.middleware.worker_crashes == 1
            assert app.middleware.worker_respawns == 1
            assert app.middleware.live_workers == TOPOLOGIES[cpus][0]
            # every servant the dead worker hosted is back behind its
            # ref, links included: the next journey costs what one did
            before = app.middleware.calls
            assert app.submit([5]).result(timeout=20) == [8]
            assert app.middleware.calls - before == TOPOLOGIES[cpus][1]
        # one record per refill: who died, how, and who moved
        (record,) = [r for r in caplog.records if "re-hosted" in r.message]
        dead = app.middleware.workers[0]  # the head's worker took the fault
        assert f"pid {dead.pid}" in record.getMessage()
        assert "exit code -9" in record.getMessage()
        assert len(record.args[3]) == {1: 3, 2: 2, 64: 1}[cpus]

    @pytest.mark.parametrize("retry", [None, RETRY], ids=["unarmed", "retry"])
    def test_drop_reply(self, cpus, retry):
        schedule = fault("drop_reply")
        app = pipeline_app(split=halves, faults=schedule, retry=retry)
        with deployed(app, cpus) as app:
            first = app.submit([1, 2])
            if retry is None:
                with pytest.raises(ReplyDropped):
                    first.result(timeout=20)
            else:
                # the dropped journey ran, the re-fed one too: keyed
                # deposits deliver each piece once
                assert first.result(timeout=20) == [4, 5]
                assert visits(0, [1]) + visits(0, [2]) == 3  # one re-fed
            assert schedule.fired_count() == 1
            assert app.middleware.worker_respawns == 0
            assert app.submit([5, 6]).result(timeout=20) == [8, 9]

    @pytest.mark.parametrize("retry", [None, RETRY], ids=["unarmed", "retry"])
    def test_delay_reply(self, cpus, retry):
        schedule = fault("delay_reply", delay=0.05)
        app = pipeline_app(faults=schedule, retry=retry)
        with deployed(app, cpus) as app:
            started = time.monotonic()
            assert app.submit([1]).result(timeout=20) == [4]
            assert time.monotonic() - started >= 0.05
            assert schedule.fired_count() == 1
            assert [visits(s, [1 + s]) for s in range(STAGES)] == [1, 1, 1]

    def test_delay_past_the_deadline_expires_the_call(self, cpus):
        schedule = fault("delay_reply", delay=0.3)
        app = pipeline_app(faults=schedule)
        with deployed(app, cpus) as app:
            with pytest.raises(DeadlineExceeded):
                app.submit([1], timeout=0.1).result(timeout=20)
            assert app.submit([5]).result(timeout=20) == [8]


class TestShedMidPipeline:
    def test_shed_oldest_mid_pipeline(self, cpus):
        Stage.gated = 1
        app = pipeline_app(max_in_flight=1, overflow="shed-oldest")
        with deployed(app, cpus) as app:
            doomed = app.submit([50])
            assert wait_until(lambda: visits(1, [51]) == 1)  # parked mid-journey
            survivor = app.submit([60])  # sheds the parked call
            with pytest.raises(CallShed):
                doomed.result(timeout=20)
            open_gate()
            assert survivor.result(timeout=20) == [63]
            assert app.admission.shed_calls == 1
            assert visits(2, [52]) == WASTED_AFTER_SHED[cpus]
            assert visits(2, [62]) == 1


class TestForwardArgs:
    def test_custom_module_level_forward_args(self, cpus):
        app = pipeline_app(split=halves, forward_args=growing_note)
        with deployed(app, cpus) as app:
            # +1 per stage, +0 +1 +2 for the note each stage was handed
            assert app.submit([1, 2, 3, 4]).result(timeout=20) == [7, 8, 9, 10]
            before = app.middleware.calls
            assert app.submit([1, 2], note="!").result(timeout=20) == [10, 11]
            assert app.middleware.calls - before == 2 * TOPOLOGIES[cpus][1]

    def test_unpicklable_forward_args_takes_per_stage_hops(self, cpus, caplog):
        def local_note(result, args, kwargs):
            return growing_note(result, args, kwargs)

        with caplog.at_level(logging.WARNING, logger="repro.middleware.proc"):
            app = pipeline_app(forward_args=local_note)
            with deployed(app, cpus) as app:
                before = app.middleware.calls
                assert app.submit([1]).result(timeout=20) == [7]
                # runs are off: every hop returns to the parent
                assert app.middleware.calls - before == STAGES
        warnings = [r for r in caplog.records if "cannot be shipped" in r.message]
        assert len(warnings) == (0 if cpus == 64 else 1)  # 64: nothing to link
        for record in warnings:
            assert "local_note" in record.getMessage()


class TestPacksAndOverlap:
    def test_routed_pack(self, cpus):
        with deployed(pipeline_app(), cpus) as app:
            app.map([[0]], pack=True).results()
            before = app.middleware.calls
            group = app.map([[1], [2, 3], [4]], pack=True)
            assert group.results() == [[4], [5, 6], [7]]
            # the pack crosses each hop as ONE message
            assert app.middleware.calls - before == TOPOLOGIES[cpus][1]
            assert app.middleware.batched_calls >= TOPOLOGIES[cpus][1]

    def test_routed_pack_under_custom_forward_args(self, cpus):
        app = pipeline_app(forward_args=growing_note)
        with deployed(app, cpus) as app:
            group = app.map([[1], [2, 3]], pack=True)
            assert group.results() == [[7], [8, 9]]

    def test_four_overlapped_submits(self, cpus):
        Stage.gated = 0
        app = pipeline_app(split=halves, max_in_flight=None)
        with deployed(app, cpus) as app:
            futures = [app.submit([i, i + 10]) for i in range(4)]
            assert wait_until(lambda: app.admission.peak_admitted >= 4)
            open_gate()
            results = [f.result(timeout=30) for f in futures]
            assert results == [[i + 3, i + 13] for i in range(4)]


class TestDeployRecord:
    def test_one_info_record_per_deploy_names_decision_and_inputs(
        self, cpus, caplog
    ):
        with caplog.at_level(logging.INFO, logger="repro.middleware.proc"):
            with deployed(pipeline_app(), cpus):
                pass
        records = [r for r in caplog.records if r.message.startswith("deployed")]
        # the census's warm-up deployment logged its own, before or never
        record = records[-1]
        workers, _ = TOPOLOGIES[cpus]
        servants, on_workers, usable, by_worker, links = record.args
        assert (servants, on_workers, usable) == (STAGES, workers, cpus)
        assert sorted(len(hosted) for hosted in by_worker.values()) == sorted(
            {1: [3], 2: [1, 2], 64: [1, 1, 1]}[cpus]
        )
        assert links == STAGES - workers
