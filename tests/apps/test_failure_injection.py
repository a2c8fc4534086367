"""Failure injection across the stack.

The methodology's debugging story ("unplug concurrency for debugging")
only matters if failures surface cleanly.  These tests inject faults at
each layer and assert the error reaches the client with its identity
intact — no hangs, no silent corruption.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aop import Aspect, around, weave
from repro.aop.weaver import default_weaver
from repro.apps.primes import (
    PrimeFilter,
    SieveWorkload,
    sieve_app,
    expected_sieve_output,
)
from repro.cluster import paper_testbed
from repro.errors import RemoteError
from repro.middleware import RmiMiddleware, use_node
from repro.middleware.context import current_node
from repro.parallel import Concern, ParallelModule
from repro.runtime import Future, SimBackend, ThreadBackend, use_backend
from repro.sim import Simulator

MAX = 20_000
PACKS = 4


class FaultAspect(Aspect):
    """Injects an exception into the nth matched call."""

    precedence = 50  # inside distribution: the servant-side fault

    def __init__(self, pointcut_text, fail_on=1, error=RuntimeError("injected")):
        from repro.aop import pointcut

        self.fail_calls = pointcut(pointcut_text)
        self.fail_on = fail_on
        self.error = error
        self.calls = 0

    @around("fail_calls")
    def maybe_fail(self, jp):
        self.calls += 1
        if self.calls == self.fail_on:
            raise self.error
        return jp.proceed()


class TestWorkerFaults:
    def test_farm_thread_mode_fault_reaches_client(self):
        workload = SieveWorkload(MAX, PACKS)
        stack = sieve_app("FarmThreads", workload, 3)
        fault = FaultAspect("call(PrimeFilter.filter(..))", fail_on=2)
        stack.composition.plug(
            ParallelModule("fault", Concern.OPTIMISATION, [fault])
        )
        weave(PrimeFilter)
        with use_backend(ThreadBackend()):
            with stack.composition.deployed(default_weaver, targets=[PrimeFilter]):
                prime_filter = PrimeFilter(2, workload.sqrt)
                with pytest.raises(RuntimeError, match="injected"):
                    prime_filter.filter(workload.candidates)

    def test_remote_servant_fault_wrapped_as_remote_error(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        class Flaky:
            def work(self):
                raise OSError("disk on fire")

        out = {}

        def main():
            ref = rmi.export(Flaky(), cluster.node(1))
            with use_node(cluster.head):
                try:
                    rmi.invoke(ref, "work")
                except RemoteError as exc:
                    out["cause"] = type(exc.cause).__name__

        sim.spawn(main)
        sim.run()
        rmi.shutdown()
        sim.shutdown()
        assert out["cause"] == "OSError"

    def test_sim_mode_fault_aborts_run_not_hangs(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        workload = SieveWorkload(MAX, PACKS)
        stack = sieve_app("FarmRMI", workload, 2, cluster=cluster)
        fault = FaultAspect("call(PrimeFilter.filter(..))", fail_on=3)
        stack.composition.plug(
            ParallelModule("fault", Concern.OPTIMISATION, [fault])
        )
        backend = SimBackend(sim)
        failures = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                prime_filter = PrimeFilter(2, workload.sqrt)
                try:
                    result = prime_filter.filter(workload.candidates)
                    if isinstance(result, Future):
                        result = result.result()
                    failures["outcome"] = "no error"
                except (RemoteError, RuntimeError) as exc:
                    failures["outcome"] = type(exc).__name__

        try:
            with stack.composition.deployed(default_weaver, targets=[PrimeFilter]):
                sim.spawn(main, name="main")
                sim.run()
        finally:
            stack.shutdown()
            sim.shutdown()
        # the fault fired on the servant side -> RemoteError at the client
        assert failures["outcome"] in ("RemoteError", "RuntimeError")

    def test_recovery_after_unplugging_faulty_module(self):
        """Unplug the broken module; the stack heals (the paper's
        incremental debugging loop)."""
        workload = SieveWorkload(MAX, PACKS)
        stack = sieve_app("FarmThreads", workload, 2)
        fault = FaultAspect("call(PrimeFilter.filter(..))", fail_on=1)
        stack.composition.plug(
            ParallelModule("fault", Concern.OPTIMISATION, [fault])
        )
        weave(PrimeFilter)
        with use_backend(ThreadBackend()):
            with stack.composition.deployed(default_weaver, targets=[PrimeFilter]):
                prime_filter = PrimeFilter(2, workload.sqrt)
                with pytest.raises(RuntimeError):
                    prime_filter.filter(workload.candidates)
                stack.composition.unplug("fault")
                survivors = prime_filter.filter(workload.candidates)
        assert np.array_equal(
            np.sort(np.asarray(survivors)), expected_sieve_output(MAX)
        )


class TestAdviceFaults:
    def test_exception_in_advice_propagates(self):
        class Widget:
            def go(self):
                return 1

        from repro.aop import around, deploy

        class Broken(Aspect):
            @around("call(Widget.go(..))")
            def pre(self, jp):
                raise ValueError("advice bug")

        weave(Widget)
        deploy(Broken())
        with pytest.raises(ValueError, match="advice bug"):
            Widget().go()

    def test_observing_advice_does_not_swallow(self):
        class Widget:
            def go(self):
                raise KeyError("original")

        from repro.aop import around, deploy

        seen = []

        class Observer(Aspect):
            @around("call(Widget.go(..))")
            def observe(self, jp):
                try:
                    return jp.proceed()
                except KeyError as exc:
                    seen.append(type(exc).__name__)
                    raise

        weave(Widget)
        deploy(Observer())
        with pytest.raises(KeyError, match="original"):
            Widget().go()
        assert seen == ["KeyError"]


class TestCostAspectPlacementEdge:
    def test_cost_aspect_without_node_is_noop(self):
        """Thread mode has no nodes: the cost aspect must not crash."""
        from repro.apps.primes import sieve_cost_aspect

        workload = SieveWorkload(MAX, PACKS)
        cost = sieve_cost_aspect(1e-9)
        weave(PrimeFilter)
        default_weaver.deploy(cost)
        assert current_node() is None
        pf = PrimeFilter(2, workload.sqrt)
        survivors = pf.filter(workload.candidates)
        assert np.array_equal(np.sort(survivors), expected_sieve_output(MAX))
        assert cost.charges == 0  # nothing charged without a node
