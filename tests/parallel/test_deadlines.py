"""Per-ticket deadlines: expiry mid-pipeline-forward and
mid-heartbeat-exchange unwinds the ticket (collector cancelled, piece
dropped before the next hop / worker) while the deployed workers keep
serving the next call — plus the span timeline the future's ticket
carries (``future.admission.trace_snapshot()``)."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import DeadlineExceeded
from repro.parallel import WorkSplitter


class SlowStage:
    """Pipeline stage that records who processed what, then dawdles."""

    #: (stage id, first payload value) per processed piece — the proof
    #: that an expired piece never reached the next stage
    seen: list = []
    delay = 0.05

    def run(self, values):
        SlowStage.seen.append((id(self), values[0]))
        time.sleep(SlowStage.delay)
        return [v + 1 for v in values]


class SlowExchange:
    """Heartbeat target whose boundary reads dawdle (the exchange is
    where the deadline will run out)."""

    reads = 0

    def __init__(self, size=4):
        self.size = size

    def step(self, iterations):
        return 1.0

    def get_boundary(self, side):
        SlowExchange.reads += 1
        time.sleep(0.05)
        return 0.0

    def set_boundary(self, side, data):
        return None


class SlowWorker:
    """Dynamic-farm worker that dawdles per piece."""

    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        time.sleep(0.03)
        return [v * 2 for v in values]


@pytest.fixture(autouse=True)
def reset_probes():
    SlowStage.seen = []
    SlowExchange.reads = 0
    yield


def pipeline_app(**admission):
    return ParallelApp(
        StackSpec(
            target=SlowStage,
            work="run",
            splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
            strategy="pipeline",
            backend="thread",
            **admission,
        )
    )


class TestPipelineDeadlines:
    def test_expiry_mid_forward_drops_the_piece_and_keeps_serving(self):
        app = pipeline_app()
        with app:
            app.start()
            # stage 1 alone takes ~50ms; the deadline drains while it
            # processes, so the piece must never reach stage 2
            future = app.submit([7], timeout=0.02)
            with pytest.raises(DeadlineExceeded) as info:
                future.result(timeout=10)
            # the exception carries the ticket's trace
            assert info.value.trace is not None
            assert any(
                span["name"] == "cancelled"
                for span in info.value.trace["spans"]
            )
            # the expired payload was processed by exactly ONE stage —
            # the forward advice unwound it instead of forwarding
            assert [v for (_, v) in SlowStage.seen].count(7) == 1
            # the stack is not poisoned: an undeadlined call completes
            assert app.submit([1]).result(timeout=10) == [3]
            assert [v for (_, v) in SlowStage.seen].count(1) == 1
            assert [v for (_, v) in SlowStage.seen].count(2) == 1
            assert app.in_flight == 0  # every ticket retired

    def test_spec_level_default_timeout_applies(self):
        app = pipeline_app(timeout=0.02)
        with app:
            app.start()
            with pytest.raises(DeadlineExceeded):
                app.submit([1]).result(timeout=10)
            # an explicit generous override beats the spec default
            assert app.submit([5], timeout=10).result(timeout=10) == [7]


class TestHeartbeatDeadlines:
    def test_expiry_mid_exchange_unwinds_and_workers_keep_serving(self):
        app = ParallelApp(
            StackSpec(
                target=SlowExchange,
                work="step",
                splitter=WorkSplitter(duplicates=3, combine=sum),
                strategy="heartbeat",
                backend="thread",
            )
        )
        with app:
            app.start(4)
            # compute is instant; the boundary gathers take ~50ms each,
            # so the budget dies inside the exchange phase
            future = app.submit(2, timeout=0.02)
            with pytest.raises(DeadlineExceeded, match="heartbeat"):
                future.result(timeout=10)
            reads_after_expiry = SlowExchange.reads
            # the exchange stopped early: 3 workers × 2 iterations would
            # be 8 boundary reads, the unwind cut it short
            assert reads_after_expiry < 8
            assert app.in_flight == 0
            # the same deployed blocks serve the next (undeadlined) call
            assert app.submit(1).result(timeout=30) == 3.0

    def test_trace_records_the_beat_timeline(self):
        app = ParallelApp(
            StackSpec(
                target=SlowExchange,
                work="step",
                splitter=WorkSplitter(duplicates=2, combine=sum),
                strategy="heartbeat",
                backend="thread",
            )
        )
        with app:
            app.start(4)
            future = app.submit(2)
            assert future.result(timeout=30) == 2.0
            trace = future.admission.trace_snapshot()
        names = [span["name"] for span in trace["spans"]]
        assert "compute[0]" in names and "exchange[1]" in names
        assert all(span["end"] is not None for span in trace["spans"])


class TestFarmAndDynamicFarmDeadlines:
    def test_dynamic_farm_drain_deadline_expires(self):
        app = ParallelApp(
            StackSpec(
                target=SlowWorker,
                work="bump",
                splitter=WorkSplitter(
                    duplicates=1,
                    split=lambda args, kwargs: [
                        # 4 sequential ~30ms pieces on one worker
                        *(CallPieceAt(i, args) for i in range(4))
                    ],
                    combine=lambda rs: rs,
                ),
                strategy="dynamic-farm",
                backend="thread",
            )
        )
        with app:
            app.start()
            with pytest.raises(DeadlineExceeded, match="draining"):
                app.submit([1], timeout=0.04).result(timeout=10)
            assert app.in_flight == 0
            # the resident dispatchers survive and serve the next call
            result = app.submit([2]).result(timeout=10)
            assert result == [[4]] * 4

    def test_farm_deadline_expires_between_pieces(self):
        app = ParallelApp(
            StackSpec(
                target=SlowWorker,
                work="bump",
                splitter=WorkSplitter(
                    duplicates=2,
                    split=lambda args, kwargs: [
                        *(CallPieceAt(i, args) for i in range(4))
                    ],
                    combine=lambda rs: rs,
                ),
                strategy="farm",
                backend="thread",
                concurrency=False,  # synchronous pieces: ~30ms each
            )
        )
        with app:
            app.start()
            with pytest.raises(DeadlineExceeded):
                app.submit([1], timeout=0.04).result(timeout=10)
            assert app.in_flight == 0
            assert app.submit([3]).result(timeout=10) == [[6]] * 4


def CallPieceAt(index, args):
    from repro.parallel.partition import CallPiece

    return CallPiece(index, args)


class TestSimVirtualTimeDeadlines:
    def test_deadline_measured_in_virtual_time_is_strict(self):
        # on the sim backend a deadline counts VIRTUAL seconds: a call
        # whose wire round-trip outlives a 1ns budget must fail even
        # though no cooperative boundary noticed the expiry in flight
        # (strict completion semantics — no late deliveries)
        from repro.cluster import paper_testbed
        from repro.sim import Simulator

        class Svc:
            def handle(self, x):
                return x + 1

        sim = Simulator()
        app = ParallelApp(
            StackSpec(
                target=Svc,
                work="handle",
                splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
                strategy="farm",
                middleware="mpp",
                cluster=paper_testbed(sim),
                backend="sim",
            )
        )
        out: dict = {}

        def main():
            app.start()
            out["ok"] = app.submit(41).result()
            try:
                app.submit(1, timeout=1e-9).result()
            except DeadlineExceeded:
                out["expired"] = True
            out["after"] = app.submit(10).result()

        try:
            with app:
                sim.spawn(main, name="driver")
                sim.run()
        finally:
            sim.shutdown()
        assert out == {"ok": 42, "expired": True, "after": 11}


class TestTraces:
    def test_submit_trace_spans_cover_the_split_lifecycle(self):
        app = ParallelApp(
            StackSpec(
                target=SlowWorker,
                work="bump",
                splitter=WorkSplitter(duplicates=2, combine=lambda rs: rs[0]),
                strategy="farm",
                backend="thread",
            )
        )
        with app:
            app.start()
            future = app.submit([1, 2])
            assert future.result(timeout=10) == [2, 4]
            ticket = future.admission.ticket_id
            trace = future.admission.trace_snapshot()
            assert trace["context_id"] == ticket
            names = [span["name"] for span in trace["spans"]]
            assert names[:2] == ["split", "dispatch"]
            assert "merge" in names
            assert trace["pieces"] == 1 and not trace["cancelled"]
            # the finished call holds no slot any more
            assert app.in_flight == 0


class Dawdler:
    """Partition-less servant: leaves a mark once its nap is over."""

    finished: list = []

    def nap(self, seconds):
        time.sleep(seconds)
        Dawdler.finished.append(seconds)
        return seconds


class AsyncDawdler:
    finished: list = []

    async def nap(self, seconds):
        await asyncio.sleep(seconds)
        AsyncDawdler.finished.append(seconds)
        return seconds


def plain_app(target, backend, **spec):
    return ParallelApp(
        StackSpec(
            target=target, work="nap", strategy="none", backend=backend, **spec
        )
    )


class TestPartitionLessCallsGetATicket:
    """The ticket opens at admission, not at the first split: a spec
    with no partition skeleton has ``future.admission.ticket_id``, a
    timeline on that ticket and a ``DeadlineExceeded`` that carries
    it — and on the loop its deadline cancels the await."""

    @pytest.mark.parametrize(
        "target, backend", [(Dawdler, "thread"), (AsyncDawdler, "asyncio")]
    )
    def test_ticket_id_is_set_when_submit_returns_and_traces_afterwards(
        self, target, backend
    ):
        with plain_app(target, backend) as app:
            app.start()
            future = app.submit(0.0)
            ticket = future.admission.ticket_id
            assert ticket is not None
            assert future.result(timeout=10) == 0.0
            # after the call ended: the ticket the future carries
            trace = future.admission.trace_snapshot()
            assert trace["context_id"] == ticket
            assert trace["name"] == "submit.nap" and not trace["cancelled"]

    @pytest.mark.parametrize(
        "target, backend", [(Dawdler, "thread"), (AsyncDawdler, "asyncio")]
    )
    def test_deadline_exceeded_carries_the_trace(self, target, backend):
        with plain_app(target, backend) as app:
            app.start()
            future = app.submit(0.3, timeout=0.05)
            with pytest.raises(DeadlineExceeded) as caught:
                future.result(timeout=10)
            trace = caught.value.trace
            assert trace is not None
            assert trace["context_id"] == future.admission.ticket_id
            assert trace["deadline"] == 0.05 and trace["cancelled"]
            assert trace["spans"][-1]["name"] == "cancelled"
            assert future.admission.trace_snapshot()["cancelled"]
            assert app.in_flight == 0

    def test_an_expired_await_is_cancelled_mid_flight(self):
        AsyncDawdler.finished = []
        with plain_app(AsyncDawdler, "asyncio") as app:
            app.start()
            future = app.submit(0.3, timeout=0.05)
            began = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
            assert time.monotonic() - began < 0.25  # at the deadline
            time.sleep(0.4)  # the servant's nap would be over by now
            assert app.backend.tasks_expired == 1  # counted on the loop
            assert AsyncDawdler.finished == []  # ... had it not been cancelled
            assert app.submit(0.0).result(timeout=10) == 0.0
