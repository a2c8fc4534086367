"""A piece rides ONE activity through its pipeline stages.

With the concurrency aspect plugged, the forwarding advice leaves each
hop to the body of the per-call activity that carried the piece into the
head stage; the body makes the hop once the stage call has unwound.
These tests pin what that buys and what it must not change, on the
thread and the process backend:

* activities per submit are as many as pieces, whatever the stage count
  (the submission's own carries the last piece, one more per other piece);
* a stage's synchronisation monitor is released before the next stage is
  entered (a piece parked downstream does not block the stage upstream);
* the Python stack does not grow with the stage count;
* a failing stage reports once — an armed retry re-feeds once, not once
  per stage upstream of the failure;
* a cancelled ticket still drops its piece at the next forward boundary;
* calls other advice makes (divide & conquer) are not tails: they spawn.

Stages observe and gate through the filesystem (marker files, a gate
file), the one channel that reaches a forked worker process.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.api import ParallelApp, StackSpec
from repro.errors import CallShed, DeadlineExceeded, RemoteError
from repro.faults import RetryPolicy
from repro.parallel import (
    Composition,
    DivideAndConquerAspect,
    ParallelModule,
    WorkSplitter,
    concurrency_module,
)
from repro.parallel.partition import CallPiece
from repro.runtime import ThreadBackend, use_backend

BACKENDS = ["thread", "process"]


def wait_until(cond, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.002)
    return False


class Stage:
    """Pipeline stage ``index``: adds one to every value, leaving a
    marker file per visit.  Class attributes are set before ``start()``
    so forked workers inherit them."""

    #: directory the markers and the gate live in
    root: str = ""
    #: stage index that parks until ``root/gate`` exists (None: nobody)
    gated: int | None = None
    #: stage index that raises on its first visit (None: nobody)
    faulty: int | None = None
    #: (stage index, seconds) a stage dawdles for
    slow: tuple[int, float] | None = None

    def __init__(self, index=0):
        self.index = index
        self.visits = 0

    def run(self, values):
        self.visits += 1
        tag = "-".join(map(str, values))
        marker = f"{Stage.root}/s{self.index}-{tag}-{self.visits}"
        open(marker, "w").close()
        if Stage.gated == self.index:
            deadline = time.time() + 10
            while time.time() < deadline and not os.path.exists(
                f"{Stage.root}/gate"
            ):
                time.sleep(0.002)
        if Stage.slow is not None and Stage.slow[0] == self.index:
            time.sleep(Stage.slow[1])
        if Stage.faulty == self.index and self.visits == 1:
            raise ValueError(f"stage {self.index} failed on {values}")
        return [v + 1 for v in values]


def visits(stage, values):
    """How many times ``stage`` has been entered with ``values``."""
    prefix = f"s{stage}-{'-'.join(map(str, values))}-"
    return sum(name.startswith(prefix) for name in os.listdir(Stage.root))


@pytest.fixture(autouse=True)
def stage_root(tmp_path):
    Stage.root = str(tmp_path)
    Stage.gated = Stage.faulty = Stage.slow = None
    yield
    Stage.gated = Stage.faulty = Stage.slow = None


def halves(args, kwargs):
    values = args[0]
    half = len(values) // 2
    return [CallPiece(0, (values[:half],)), CallPiece(1, (values[half:],))]


def pipeline_app(backend, stages=3, split=None, **fields):
    return ParallelApp(
        StackSpec(
            target=Stage,
            work="run",
            splitter=WorkSplitter(
                duplicates=stages,
                ctor_args=lambda args, kwargs, index, count: ((index,), {}),
                split=split,
                combine=lambda rs: sorted(v for r in rs for v in r),
            ),
            strategy="pipeline",
            backend=backend,
            **fields,
        )
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestOneActivityPerJourney:
    def test_spawns_are_one_plus_pieces_per_submit(self, backend):
        app = pipeline_app(backend, split=halves)
        with app:
            app.start()
            assert app.submit([1, 2, 3, 4]).result(timeout=20) == [4, 5, 6, 7]
            before = app.backend.spawned
            calls_before = app.async_aspect.spawned_calls
            assert app.submit([5, 6, 7, 8]).result(timeout=20) == [8, 9, 10, 11]
            # the submission's activity, which carries the last piece, +
            # one per other piece; it was one per piece per STAGE (7) when
            # every forward spawned
            assert app.backend.spawned - before == 2
            assert app.async_aspect.spawned_calls - calls_before == 1
            # every piece still visited every stage exactly once
            for stage in range(3):
                assert visits(stage, [5 + stage, 6 + stage]) == 1
                assert visits(stage, [7 + stage, 8 + stage]) == 1
        assert app.in_flight == 0

    def test_monitor_is_released_before_the_next_stage_is_entered(
        self, backend
    ):
        Stage.gated = 1
        app = pipeline_app(backend)
        with app:
            app.start()
            first = app.submit([10])
            assert wait_until(lambda: visits(1, [11]) == 1)  # parked in stage 1
            second = app.submit([20])
            # stage 0 serves the second piece while the first is parked
            # downstream: the first's activity left stage 0's monitor
            # before it entered stage 1
            assert wait_until(lambda: visits(0, [20]) == 1)
            assert visits(1, [21]) == 0  # ...and queues behind stage 1's
            open(f"{Stage.root}/gate", "w").close()
            assert first.result(timeout=20) == [13]
            assert second.result(timeout=20) == [23]
        assert app.in_flight == 0

    def test_failing_stage_latches_once_and_keeps_serving(self, backend):
        Stage.faulty = 2
        app = pipeline_app(backend)
        with app:
            app.start()
            with pytest.raises((ValueError, RemoteError), match="stage 2 failed"):
                app.submit([1]).result(timeout=20)
            assert [visits(s, [1 + s]) for s in range(3)] == [1, 1, 1]
            assert app.submit([5]).result(timeout=20) == [8]
        assert app.in_flight == 0

    def test_armed_retry_refeeds_once_not_once_per_upstream_stage(
        self, backend
    ):
        Stage.faulty = 2
        app = pipeline_app(
            backend,
            retry=RetryPolicy(max_attempts=4, retry_on=(ValueError, RemoteError)),
        )
        with app:
            app.start()
            future = app.submit([1])
            assert future.result(timeout=20) == [4]
            # one failed journey + one re-fed journey: had each upstream
            # forward reported the tail's failure again, the head would
            # have been re-fed three times
            assert [visits(s, [1 + s]) for s in range(3)] == [2, 2, 2]
            assert future.admission.trace_snapshot()["cancelled"] is False
        assert app.in_flight == 0

    def test_expiry_mid_journey_drops_the_piece_at_the_next_forward(
        self, backend
    ):
        Stage.slow = (1, 0.25)
        app = pipeline_app(backend)
        with app:
            app.start()
            app.submit([0]).result(timeout=20)  # warm: workers, carriers
            # stage 0 is instant and hands on; the budget runs out while
            # the piece — one hop into its ride — is inside stage 1
            with pytest.raises(DeadlineExceeded):
                app.submit([30], timeout=0.1).result(timeout=20)
            assert wait_until(lambda: visits(1, [31]) == 1)
            time.sleep(0.3)  # stage 1 finishes; the forward must drop it
            assert visits(2, [32]) == 0
            assert app.submit([40], timeout=10).result(timeout=20) == [43]
        assert app.in_flight == 0

    def test_shed_mid_journey_drops_the_piece_at_the_next_forward(
        self, backend
    ):
        Stage.gated = 1
        app = pipeline_app(backend, max_in_flight=1, overflow="shed-oldest")
        with app:
            app.start()
            doomed = app.submit([50])
            assert wait_until(lambda: visits(1, [51]) == 1)  # parked mid-ride
            survivor = app.submit([60])  # sheds the parked call
            gate = f"{Stage.root}/gate"
            if backend == "thread":
                # the gap: the piece rides the doomed call's own activity,
                # which stays inside the parked stage until it returns —
                # the shed is seen at the next forward, not before
                time.sleep(0.2)
                assert not doomed.resolved
                open(gate, "w").close()
            start = time.monotonic()
            with pytest.raises(CallShed):
                doomed.result(timeout=20)
            assert time.monotonic() - start < 1.0
            open(gate, "w").close()  # process: the stage is parked still
            assert survivor.result(timeout=20) == [63]
            assert visits(2, [52]) == 0  # never forwarded past stage 1
        assert app.in_flight == 0


class TestJourneyShape:
    def test_256_stage_identity_pipeline_completes(self):
        """The hops run one after another from the activity body, not
        nested inside each other: the stack at stage 256 is the stack at
        stage 1 (a nested forward overflows near 200 stages)."""

        class Identity:
            def __init__(self, index=0):
                self.index = index

            def run(self, values):
                return values

        app = ParallelApp(
            StackSpec(
                target=Identity,
                work="run",
                splitter=WorkSplitter(
                    duplicates=256,
                    split=halves,
                    combine=lambda rs: sorted(v for r in rs for v in r),
                ),
                strategy="pipeline",
                backend="thread",
            )
        )
        with app:
            app.start()
            before = app.backend.spawned
            future = app.submit([3, 1, 2, 4])
            assert future.result(timeout=30) == [1, 2, 3, 4]
            assert app.backend.spawned - before == 2
            assert future.admission.trace_snapshot()["hops"] == 2 * 255
        assert app.in_flight == 0

    def test_without_concurrency_the_forward_calls_on_inline(self):
        app = pipeline_app("thread", split=halves, concurrency=False)
        with app:
            app.start()
            before = app.backend.spawned
            assert app.submit([1, 2, 3, 4]).result(timeout=10) == [4, 5, 6, 7]
            assert app.backend.spawned - before == 1  # the submission only
        assert app.in_flight == 0

    def test_divide_and_conquer_sub_calls_still_spawn(self):
        """Advice-made calls that are not a forwarder's tail keep their
        own activities: nobody but the pipeline sets the mark."""

        class Summer:
            def total(self, values):
                return sum(values)

        module = ParallelModule.of(DivideAndConquerAspect(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 2,
            divide=lambda args, kwargs: [
                CallPiece(0, (args[0][: len(args[0]) // 2],)),
                CallPiece(1, (args[0][len(args[0]) // 2:],)),
            ],
            merge=sum,
            work="call(Summer.total(..))",
        ))
        conc = concurrency_module("call(Summer.total(..))")
        weave(Summer)
        backend = ThreadBackend()
        with use_backend(backend):
            with Composition("dac-mt", [module, conc]).deployed(
                default_weaver, targets=[Summer]
            ):
                assert Summer().total(list(range(8))) == 28
        # 8 values, leaves of 2: the divisions happen in the partition
        # advice, each of the 4 leaf calls it makes goes through the
        # spawner — the count before the ride existed
        assert module.aspects[0].leaves == 4
        assert conc.aspects[0].spawned_calls == 4
        assert backend.spawned == 4
