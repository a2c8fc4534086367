"""Concurrent-submission stress: per-call dispatch contexts.

One deployed stack must serve many overlapped ``submit()``s — the
aspects hold only topology, every in-flight call owns a
:class:`~repro.runtime.ticket.DispatchContext`.  For each of
the five skeletons (farm, dynamic-farm, pipeline, heartbeat,
divide-and-conquer) on both backends these tests drive N overlapped
submissions and assert:

* every submission resolves to exactly its own payload's result
  (non-interleaved: no cross-call deposit or combine);
* the stack genuinely overlapped (``peak_in_flight >= 2`` — on the
  thread backend a test-controlled gate holds every call in flight at
  once; on the sim backend cooperative blocking guarantees it);
* every ticket retires (``in_flight == 0`` afterwards).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.aop.weaver import default_weaver
from repro.api import ParallelApp, StackSpec
from repro.cluster import paper_testbed
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.parallel import (
    Composition,
    WorkSplitter,
    concurrency_module,
    divide_and_conquer_module,
)
from repro.parallel.partition import CallPiece
from repro.runtime import SimBackend, ThreadBackend, use_backend
from repro.sim import Simulator

N = 3  # overlapped submissions per stress run


def wait_until(cond, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if cond():
            return True
        time.sleep(0.005)
    return False


def single_piece_splitter(duplicates):
    """Default split (one piece) with the piece's result as the call's
    result — the simplest shape that still exercises routing."""
    return WorkSplitter(duplicates=duplicates, combine=lambda rs: rs[0])


class Echo:
    """Gated worker: ``bump`` doubles, optionally parking on the class
    gate so the test can hold every submission in flight at once."""

    gate: threading.Event | None = None

    def __init__(self, tag=0):
        self.tag = tag

    def bump(self, values):
        if Echo.gate is not None:
            Echo.gate.wait(5)
        return [v * 2 for v in values]


class Block:
    """Minimal heartbeat target: unit residual + no-op halo accessors."""

    gate: threading.Event | None = None

    def __init__(self, size=4):
        self.size = size

    def step(self, iterations):
        if Block.gate is not None:
            Block.gate.wait(5)
        return 1.0

    def get_boundary(self, side):
        return 0.0

    def set_boundary(self, side, data):
        return None


class Summer:
    """Divide-and-conquer target: gated leaf summation."""

    gate: threading.Event | None = None

    def total(self, values):
        if Summer.gate is not None:
            Summer.gate.wait(5)
        return sum(values)


def echo_spec(strategy, **overrides):
    fields = dict(
        target=Echo,
        work="bump",
        splitter=single_piece_splitter(2),
        strategy=strategy,
        backend="thread",
    )
    fields.update(overrides)
    return StackSpec(**fields)


def block_spec(**overrides):
    fields = dict(
        target=Block,
        work="step",
        splitter=WorkSplitter(duplicates=2, combine=sum),
        strategy="heartbeat",
        backend="thread",
    )
    fields.update(overrides)
    return StackSpec(**fields)


PAYLOADS = [list(range(i, i + 4)) for i in range(N)]
EXPECTED = [[v * 2 for v in payload] for payload in PAYLOADS]


class TestThreadOverlap:
    """Gate-held overlap on real threads: deterministic ``in_flight``."""

    def _run_gated(self, app, start_args=()):
        Echo.gate = threading.Event()
        try:
            with app:
                app.start(*start_args)
                futures = [app.submit(payload) for payload in PAYLOADS]
                # every split must open its ticket while the gate holds
                assert wait_until(lambda: app.in_flight >= 2), (
                    f"never overlapped: in_flight={app.in_flight}"
                )
                Echo.gate.set()
                results = [f.result(timeout=10) for f in futures]
        finally:
            Echo.gate = None
        assert results == EXPECTED  # each future got its own payload back
        assert app.peak_in_flight >= 2
        assert app.in_flight == 0
        assert app.partition.dispatches == N

    def test_farm_overlapped_submits(self):
        self._run_gated(ParallelApp(echo_spec("farm")))

    def test_dynamic_farm_overlapped_submits(self):
        self._run_gated(ParallelApp(echo_spec("dynamic-farm")))

    def test_pipeline_sustains_two_in_flight_splits(self):
        # the acceptance regression: a deployed pipeline serves >= 2
        # concurrent in-flight splits (the seed's per-aspect collector
        # allowed exactly one)
        app = ParallelApp(echo_spec("pipeline", splitter=WorkSplitter(
            duplicates=2, combine=lambda rs: rs[0])))
        Echo.gate = threading.Event()
        try:
            with app:
                app.start()
                futures = [app.submit(payload) for payload in PAYLOADS]
                assert wait_until(lambda: app.in_flight >= 2)
                held = app.in_flight
                Echo.gate.set()
                results = [f.result(timeout=10) for f in futures]
        finally:
            Echo.gate = None
        assert held >= 2
        # two stages double twice; deposits landed in the originating
        # call's collector, so every future sees its own payload *4
        assert results == [[v * 4 for v in payload] for payload in PAYLOADS]
        assert app.peak_in_flight >= 2
        assert app.in_flight == 0
        co = app.partition
        assert co.dispatches == N
        # forwarding cursor lived on the tickets, not the aspect
        assert not hasattr(co, "collector")

    def test_heartbeat_overlapped_submits(self):
        app = ParallelApp(block_spec())
        Block.gate = threading.Event()
        try:
            with app:
                app.start(4)
                futures = [app.submit(2) for _ in range(N)]
                assert wait_until(lambda: app.in_flight >= 2)
                Block.gate.set()
                results = [f.result(timeout=10) for f in futures]
        finally:
            Block.gate = None
        # 2 blocks x residual 1.0 per iteration, last iteration combined
        assert results == [2.0] * N
        assert app.peak_in_flight >= 2
        assert app.in_flight == 0
        assert app.partition.dispatches == N

    def test_divide_conquer_overlapped_calls(self):
        default_weaver.weave(Summer)
        module = divide_and_conquer_module(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
            divide=lambda args, kwargs: [
                CallPiece(0, (args[0][: len(args[0]) // 2],)),
                CallPiece(1, (args[0][len(args[0]) // 2:],)),
            ],
            merge=sum,
            work="call(Summer.total(..))",
        )
        comp = Composition("dnc", [module])
        aspect = module.coordinator
        payloads = [list(range(i, i + 8)) for i in range(N)]
        results: dict[int, int] = {}
        Summer.gate = threading.Event()
        try:
            with use_backend(ThreadBackend()):
                with comp.deployed(default_weaver, targets=[Summer]):
                    obj = Summer()
                    threads = [
                        threading.Thread(
                            target=lambda i=i: results.__setitem__(
                                i, obj.total(payloads[i])
                            )
                        )
                        for i in range(N)
                    ]
                    for t in threads:
                        t.start()
                    assert wait_until(lambda: len(aspect.contexts) >= 2)
                    Summer.gate.set()
                    for t in threads:
                        t.join(timeout=10)
        finally:
            Summer.gate = None
        assert results == {i: sum(payloads[i]) for i in range(N)}
        assert aspect.peak_in_flight >= 2
        assert not aspect.contexts
        assert aspect.dispatches == N


class TestFailFast:
    """Worker exceptions propagate into the per-call collector."""

    def test_pipeline_worker_exception_fails_submit_fast(self):
        class Boomer:
            def bump(self, values):
                if values and values[0] == "boom":
                    raise ValueError("stage exploded")
                return values

        app = ParallelApp(
            StackSpec(
                target=Boomer,
                work="bump",
                splitter=single_piece_splitter(2),
                strategy="pipeline",
                backend="thread",
            )
        )
        with app:
            app.start()
            # regression: this used to hang forever — the collector never
            # saw a deposit and wait() had no timeout
            future = app.submit(["boom"])
            try:
                future.result(timeout=10)
            except ValueError as exc:
                assert "stage exploded" in str(exc)
            else:  # pragma: no cover - regression guard
                raise AssertionError("worker exception was swallowed")
            # the stack is not poisoned: the next submission still works
            assert app.submit(["fine"]).result(timeout=10) == ["fine"]
            assert app.in_flight == 0

    def test_forwarding_hook_exception_fails_submit_fast(self):
        # the latch must also cover the forwarding step itself: a
        # forward_args hook that raises used to strand the collector
        class Plain:
            def bump(self, values):
                return values

        def bad_forward(result, args, kwargs):
            raise ValueError("forward hook exploded")

        app = ParallelApp(
            StackSpec(
                target=Plain,
                work="bump",
                splitter=WorkSplitter(
                    duplicates=2,
                    combine=lambda rs: rs[0],
                    forward_args=bad_forward,
                ),
                strategy="pipeline",
                backend="thread",
            )
        )
        with app:
            app.start()
            future = app.submit([1, 2, 3])
            try:
                future.result(timeout=10)
            except ValueError as exc:
                assert "forward hook exploded" in str(exc)
            else:  # pragma: no cover - regression guard
                raise AssertionError("forwarding exception was swallowed")
            assert app.in_flight == 0


FAULTS = [None, "kill_worker", "drop_reply"]
FAULT_STRATEGIES = [
    "farm",
    "dynamic-farm",
    "pipeline",
    "heartbeat",
    "divide-conquer",
]


def _dnc_spec(**overrides):
    fields = dict(
        target=Summer,
        work="total",
        strategy="divide-conquer",
        strategy_options=dict(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
            divide=lambda args, kwargs: [
                CallPiece(0, (args[0][: len(args[0]) // 2],)),
                CallPiece(1, (args[0][len(args[0]) // 2:],)),
            ],
            merge=sum,
        ),
        backend="thread",
    )
    fields.update(overrides)
    return StackSpec(**fields)


class TestThreadFaultMatrix:
    """The overlap matrix's fault axis: every strategy, with a retry
    policy armed, absorbs a first-dispatch ``kill_worker`` (fails before
    the piece runs → re-dispatched to a healthy worker) and a
    ``drop_reply`` (the piece RAN, its reply is lost → re-dispatch plus
    keyed dedup keep exactly one result) — and the no-fault run stays
    byte-identical to the plain suite."""

    @pytest.mark.parametrize("strategy", FAULT_STRATEGIES)
    @pytest.mark.parametrize("fault", FAULTS)
    def test_strategy_completes_under_fault(self, strategy, fault):
        schedule = (
            FaultSchedule(
                [FaultEvent(fault, site="dispatch", on_call=1)],
                name=f"{strategy}-{fault}",
            )
            if fault
            else None
        )
        retry = RetryPolicy(max_attempts=3)
        if strategy == "heartbeat":
            app = ParallelApp(block_spec(faults=schedule, retry=retry))
            start_args, payloads, expected = (4,), [2, 2], [2.0, 2.0]
        elif strategy == "divide-conquer":
            app = ParallelApp(_dnc_spec(faults=schedule, retry=retry))
            payloads = [list(range(i, i + 8)) for i in range(2)]
            start_args, expected = (), [sum(p) for p in payloads]
        else:
            app = ParallelApp(echo_spec(strategy, faults=schedule, retry=retry))
            factor = 4 if strategy == "pipeline" else 2
            payloads = PAYLOADS[:2]
            start_args = ()
            expected = [[v * factor for v in p] for p in payloads]
        with app:
            app.start(*start_args)
            futures = [app.submit(payload) for payload in payloads]
            results = [f.result(timeout=15) for f in futures]
        assert results == expected
        assert app.in_flight == 0
        if schedule is not None:
            assert schedule.fired_count() >= 1  # the fault genuinely fired


class TestSimOverlap:
    """Overlap on the simulated cluster: submissions made from inside
    the simulation block cooperatively (middleware replies, futures), so
    every submission's ticket is live while the others progress."""

    def _run_sim_app(self, spec_builder, start_args, payloads, submit=None):
        sim = Simulator()
        cluster = paper_testbed(sim)
        app = ParallelApp(
            spec_builder(middleware="mpp", cluster=cluster, backend="sim")
        )
        out = {}

        def main():
            app.start(*start_args)
            futures = [
                (submit or app.submit)(payload) for payload in payloads
            ]
            out["results"] = [f.result() for f in futures]
            out["peak"] = app.peak_in_flight
            out["live"] = app.in_flight

        try:
            with app:
                sim.spawn(main, name="stress-driver")
                sim.run()
        finally:
            sim.shutdown()
        assert out["peak"] >= 2
        assert out["live"] == 0
        assert app.partition.dispatches == len(payloads)
        return out["results"]

    def test_farm_overlapped_submits(self):
        results = self._run_sim_app(
            lambda **kw: echo_spec("farm", **kw), (), PAYLOADS
        )
        assert results == EXPECTED

    def test_dynamic_farm_overlapped_submits(self):
        results = self._run_sim_app(
            lambda **kw: echo_spec("dynamic-farm", **kw), (), PAYLOADS
        )
        assert results == EXPECTED

    def test_pipeline_overlapped_submits(self):
        results = self._run_sim_app(
            lambda **kw: echo_spec("pipeline", **kw), (), PAYLOADS
        )
        assert results == [[v * 4 for v in payload] for payload in PAYLOADS]

    def test_heartbeat_overlapped_submits(self):
        results = self._run_sim_app(
            lambda **kw: block_spec(**kw), (4,), [2] * N
        )
        assert results == [2.0] * N

    def test_divide_conquer_overlapped_calls(self):
        default_weaver.weave(Summer)
        module = divide_and_conquer_module(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
            divide=lambda args, kwargs: [
                CallPiece(0, (args[0][: len(args[0]) // 2],)),
                CallPiece(1, (args[0][len(args[0]) // 2:],)),
            ],
            merge=sum,
            work="call(Summer.total(..))",
        )
        conc = concurrency_module("call(Summer.total(..))")
        comp = Composition("dnc-sim", [module, conc])
        aspect = module.coordinator
        sim = Simulator()
        backend = SimBackend(sim)
        payloads = [list(range(i, i + 8)) for i in range(N)]
        results: dict[int, int] = {}

        def caller(i):
            with use_backend(backend):
                results[i] = Summer().total(payloads[i])

        try:
            with comp.deployed(default_weaver, targets=[Summer]):
                for i in range(N):
                    sim.spawn(lambda i=i: caller(i), name=f"dnc-caller{i}")
                sim.run()
        finally:
            sim.shutdown()
        assert results == {i: sum(payloads[i]) for i in range(N)}
        assert aspect.peak_in_flight >= 2
        assert not aspect.contexts
