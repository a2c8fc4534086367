"""The PR 4/5 overlap + admission + deadline matrix on the PROCESS
backend: all five partition strategies with servants living in resident
worker processes, overlapped submissions beyond ``max_in_flight``
observably blocking / failing / shedding per policy, and per-call
deadlines expiring *mid reply-wait* while the workers keep serving.

The thread matrix's ``threading.Event`` gates cannot work here — workers
are forked at export time, so the child holds a *copy* of any Event and
the parent's ``set()`` never reaches it.  These tests gate through the
filesystem instead: the servant method polls for a gate file's
existence, the parent ``touch``es it — fork-safe because the path is a
string captured at fork and the filesystem is shared.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

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


def _wait_gate(path, timeout=10.0):
    """Park until the gate file exists (the fork-safe Event.wait)."""
    if path is None:
        return
    deadline = time.time() + timeout
    while time.time() < deadline and not os.path.exists(path):
        time.sleep(0.01)


class GatedEcho:
    """Gated doubling worker (farm / dynamic-farm / pipeline target)."""

    gate_path: str | None = None

    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        _wait_gate(GatedEcho.gate_path)
        return [v * 2 for v in values]


class GatedBlock:
    """Gated heartbeat target: unit residual + no-op halo accessors."""

    gate_path: str | None = None

    def __init__(self, size=4):
        self.size = size

    def step(self, iterations):
        _wait_gate(GatedBlock.gate_path)
        return 1.0

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class GatedSummer:
    """Gated divide-and-conquer target."""

    gate_path: str | None = None

    def total(self, values):
        _wait_gate(GatedSummer.gate_path)
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

    def process_app(self, **admission):
        return ParallelApp(
            StackSpec(backend="process", **self.fields, **admission)
        )


@pytest.fixture(autouse=True)
def clear_gates():
    for target in _TARGETS:
        target.gate_path = None
    yield
    for target in _TARGETS:
        target.gate_path = None


@pytest.fixture()
def gate(tmp_path):
    """A (path, open) pair: arm a target's ``gate_path`` with the path
    BEFORE ``app.start()`` (workers fork at export and capture it), call
    ``open()`` to release every parked servant call."""
    path = str(tmp_path / "gate")
    return path, lambda: open(path, "w").close()


class TestProcessPolicies:
    """Gate-held overlap with out-of-process servants: the admission
    table is provably full while the workers are parked on the gate."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fail_rejects_beyond_max_in_flight(self, strategy, gate):
        gate_path, open_gate = gate
        case = Case(strategy)
        app = case.process_app(max_in_flight=2, overflow="fail")
        case.target.gate_path = gate_path
        with app:
            app.start(*case.start_args)
            futures = [app.submit(*case.payload(i)) for i in range(2)]
            assert app.admitted == 2  # slots acquired synchronously
            with pytest.raises(AdmissionRejected, match="2 calls already"):
                app.submit(*case.payload(2))
            assert app.admission.rejected == 1
            open_gate()
            results = [f.result(timeout=20) for f in futures]
        assert results == [case.expected(i) for i in range(2)]
        assert wait_until(lambda: app.admitted == 0)
        assert app.middleware.live_workers == 0  # undeploy stopped them

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_shed_oldest_cancels_oldest_in_flight_call(self, strategy, gate):
        gate_path, open_gate = gate
        case = Case(strategy)
        app = case.process_app(max_in_flight=1, overflow="shed-oldest")
        case.target.gate_path = gate_path
        with app:
            app.start(*case.start_args)
            oldest = app.submit(*case.payload(0))
            newest = app.submit(*case.payload(1))  # sheds `oldest`
            assert app.admission.shed_calls == 1
            assert oldest.admission.cancelled
            open_gate()
            assert newest.result(timeout=20) == case.expected(1)
            with pytest.raises(CallShed):
                oldest.result(timeout=20)
        assert wait_until(lambda: app.admitted == 0)
        assert app.in_flight == 0  # shed tickets retired, none leaked

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_block_parks_submitter_until_a_slot_frees(self, strategy, gate):
        gate_path, open_gate = gate
        case = Case(strategy)
        app = case.process_app(max_in_flight=1, overflow="block")
        case.target.gate_path = gate_path
        second: dict = {}
        with app:
            app.start(*case.start_args)
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


class TestProcessOverlap:
    """Overlapped in-flight submissions genuinely coexist on the
    process backend (the PR 4 per-call ticket guarantees, across the
    process boundary)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_overlapped_submissions_all_deliver(self, strategy, gate):
        gate_path, open_gate = gate
        case = Case(strategy)
        app = case.process_app(max_in_flight=None)
        case.target.gate_path = gate_path
        with app:
            app.start(*case.start_args)
            futures = [app.submit(*case.payload(i)) for i in range(3)]
            # every call holds a live ticket while the workers are parked
            assert wait_until(lambda: app.admission.peak_admitted >= 3)
            open_gate()
            results = [f.result(timeout=30) for f in futures]
        assert results == [case.expected(i) for i in range(3)]
        assert wait_until(lambda: app.admitted == 0)

    def test_results_route_to_their_own_call(self, gate):
        # interleaved payloads must come back on their own futures —
        # the context_id / call_id plumbing across the pipe, end to end
        case = Case("farm")
        app = case.process_app()
        with app:
            app.start()
            futures = [app.submit(*case.payload(i)) for i in range(8)]
            for i, future in enumerate(futures):
                assert future.result(timeout=20) == case.expected(i)


class TestProcessDeadlines:
    """Per-call deadlines expire DURING the reply wait: the submitter
    unwinds with the ticket's trace while the worker process survives
    and keeps serving later calls (its stale reply is discarded)."""

    @pytest.mark.parametrize("strategy", ["farm", "dynamic-farm", "pipeline"])
    def test_deadline_expires_mid_reply_wait(self, strategy, gate):
        gate_path, open_gate = gate
        case = Case(strategy)
        app = case.process_app()
        case.target.gate_path = gate_path
        with app:
            app.start(*case.start_args)
            doomed = app.submit(*case.payload(0), timeout=0.2)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=20)
            # the workers survived the expiry: open the gate and the SAME
            # deployment serves the next call (stale replies are matched
            # by call_id and dropped, so the pipe stays in sync)
            open_gate()
            follow_up = app.submit(*case.payload(1))
            assert follow_up.result(timeout=20) == case.expected(1)
            assert app.middleware.live_workers > 0
        assert wait_until(lambda: app.admitted == 0)

    def test_deadline_trace_present(self, gate):
        gate_path, open_gate = gate
        case = Case("farm")
        app = case.process_app()
        case.target.gate_path = gate_path
        with app:
            app.start()
            doomed = app.submit(*case.payload(0), timeout=0.2)
            with pytest.raises(DeadlineExceeded) as err:
                doomed.result(timeout=20)
            assert err.value.trace is not None
            open_gate()


class TestProcessFaultMatrix:
    """The fault axis on the process backend: every strategy, retry
    armed, absorbs a first-call ``kill_worker`` (a real SIGKILLed worker
    process: the crash surfaces as ``WorkerCrashed``, the middleware
    refills the export, the retry completes the split) and a
    ``drop_reply`` (the servant ran, the matched reply is discarded).

    The fault site is ``"proc"`` (the middleware round trip) except for
    divide-and-conquer, whose branch workers are call-time clones living
    in the parent — its boundary is the ``"dispatch"`` site.  Heartbeat
    rides along because its block servant is stateless, so a refilled
    worker's deploy-time state is the correct recovery state.
    """

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("fault", [None, "kill_worker", "drop_reply"])
    def test_strategy_completes_under_fault(self, strategy, fault):
        site = "dispatch" if strategy == "divide-conquer" else "proc"
        schedule = (
            FaultSchedule(
                [FaultEvent(fault, site=site, on_call=1)],
                name=f"{strategy}-{fault}",
            )
            if fault
            else None
        )
        case = Case(strategy)
        app = case.process_app(
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
            if fault == "kill_worker" and site == "proc":
                # the crash was a real process death, and the export
                # was refilled behind the same ref
                assert app.middleware.worker_crashes >= 1
                assert app.middleware.worker_respawns >= 1


class TestProcessHygiene:
    """No resident worker process outlives its deployment."""

    def test_workers_stop_on_exit(self, gate):
        case = Case("farm")
        app = case.process_app()
        with app:
            app.start()
            assert app.middleware.live_workers == 2  # one per duplicate
            assert app.submit(*case.payload(0)).result(timeout=20) == (
                case.expected(0)
            )
        assert wait_until(lambda: app.middleware.live_workers == 0)
        assert wait_until(
            lambda: not multiprocessing.active_children()
        ), "leaked child processes"

    def test_shutdown_is_idempotent(self):
        case = Case("farm")
        app = case.process_app()
        with app:
            app.start()
        app.middleware.shutdown()
        app.middleware.shutdown()
        assert app.middleware.live_workers == 0
