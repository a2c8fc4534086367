"""ParallelApp: assembly, futures-first submission, packs, both backends."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api.app import ParallelApp
from repro.api.registry import STRATEGIES, register_strategy
from repro.api.spec import StackSpec
from repro.apps.jacobi import jacobi_spec
from repro.apps.mandelbrot import mandelbrot_spec
from repro.apps.primes import PrimeFilter, SieveWorkload, expected_sieve_output
from repro.apps.primes import sieve_spec
from repro.apps.wordcount import wordcount_spec
from repro.cluster import paper_testbed
from repro.errors import DeploymentError
from repro.parallel import Concern, FarmAspect, ParallelModule, WorkSplitter
from repro.parallel.optimisation import CommunicationPackingAspect
from repro.parallel.partition import CallPiece
from repro.runtime import Future, FutureGroup
from repro.sim import Simulator

MAX = 10_000
PACKS = 4


class Doubler:
    def __init__(self):
        self.calls = 0

    def handle(self, x):
        self.calls += 1
        return x * 2


def sieve_farm_spec(workload, filters=3, **overrides):
    fields = dict(
        target=PrimeFilter,
        work="filter",
        splitter=workload.farm_splitter(filters),
        strategy="farm",
        backend="thread",
    )
    fields.update(overrides)
    return StackSpec(**fields)


def pack_splits(group):
    """The names the splits gave the tickets of ``group``'s packs, one
    per pack (a pack's futures share their ticket), claimed ones only."""
    tickets = {id(future.admission): future.admission for future in group}
    return [ticket.name for ticket in tickets.values() if ticket.claimed]


class TestAssembly:
    def test_modules_assembled_by_concern(self):
        workload = SieveWorkload(MAX, PACKS)
        app = ParallelApp(sieve_farm_spec(workload))
        assert app.partition is not None
        assert app.async_aspect is not None
        assert app.composition.by_concern(Concern.PARTITION)
        assert app.composition.by_concern(Concern.CONCURRENCY)

    def test_backend_auto_resolution(self):
        workload = SieveWorkload(MAX, PACKS)
        local = ParallelApp(sieve_farm_spec(workload, backend=None))
        assert local.backend.name == "threads"
        sim = Simulator()
        try:
            distributed = ParallelApp(
                sieve_farm_spec(
                    workload, backend=None, middleware="rmi",
                    cluster=paper_testbed(sim),
                )
            )
            assert distributed.backend.name == "sim"
            assert distributed.sim is sim
        finally:
            sim.shutdown()

    def test_optimisation_aspects_wrapped_as_modules(self):
        from repro.parallel import CommunicationPackingAspect

        workload = SieveWorkload(MAX, PACKS)
        spec = sieve_farm_spec(workload)
        partition = STRATEGIES.get("farm")(
            workload.farm_splitter(3), spec.creation_pointcut, spec.work_pointcut
        )
        packing = CommunicationPackingAspect(partition, 2)
        app = ParallelApp(sieve_farm_spec(workload, optimisations=(packing,)))
        assert app.composition.by_concern(Concern.OPTIMISATION)

    def test_eager_validation_at_construction(self):
        workload = SieveWorkload(MAX, PACKS)
        with pytest.raises(DeploymentError, match="did you mean"):
            ParallelApp(sieve_farm_spec(workload, strategy="frm"))


class TestThreadSubmission:
    def test_submit_returns_future_with_correct_result(self):
        workload = SieveWorkload(MAX, PACKS)
        app = ParallelApp(sieve_farm_spec(workload))
        with app:
            app.start(2, workload.sqrt)
            future = app.submit(workload.candidates)
            assert isinstance(future, Future)
            result = future.result()
        assert np.array_equal(
            np.sort(np.asarray(result)), expected_sieve_output(MAX)
        )

    def test_submit_before_start_raises(self):
        workload = SieveWorkload(MAX, PACKS)
        app = ParallelApp(sieve_farm_spec(workload))
        with app:
            with pytest.raises(DeploymentError, match="app.start"):
                app.submit(workload.candidates)

    def test_submit_failure_delivered_via_future(self):
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      backend="thread")
        )
        with app:
            app.start()
            future = app.submit("not", "valid", "arity")
            with pytest.raises(TypeError):
                future.result()

    def test_map_resolves_per_item_futures_in_order(self):
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      backend="thread")
        )
        with app:
            app.start()
            group = app.map([1, 2, 3])
            assert isinstance(group, FutureGroup)
            assert group.results() == [2, 4, 6]

    def test_map_pack_runs_one_advice_pass_per_pack(self):
        from repro.aop import Aspect, around

        passes = []

        class CountChain(Aspect):
            @around("call(Doubler.handle(..))")
            def count(self, jp):
                passes.append(jp)
                return jp.proceed()

        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      concurrency=False, backend="thread",
                      optimisations=(CountChain(),))
        )
        with app:
            app.start()
            group = app.map([1, 2, 3, 4], pack=2)
            assert group.results() == [2, 4, 6, 8]
        # 4 items in packs of 2 -> exactly 2 chain traversals
        assert len(passes) == 2

    def test_map_pack_routed_on_farm_spec(self):
        # tightened rule: farms route whole packs per worker, so pack
        # submission works on a partitioned spec now
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle",
                      splitter=WorkSplitter(duplicates=2),
                      strategy="farm", backend="thread")
        )
        with app:
            app.start()
            group = app.map([1, 2, 3, 4, 5, 6], pack=2)
            assert group.results() == [2, 4, 6, 8, 10, 12]
        # 3 packs of 2 routed round-robin over 2 workers, whole-pack:
        # one ticket per pack, each claimed by the farm's pack split
        assert pack_splits(group) == ["farm.pack.handle"] * 3
        # every slot released; accounting is per call, not per aspect
        assert app.in_flight == 0

    def test_map_pack_rejected_only_when_unroutable(self):
        # heartbeat's work call is the iteration loop over a shared
        # grid: packs genuinely cannot be routed per worker
        from repro.apps.jacobi import jacobi_spec

        app = ParallelApp(jacobi_spec(blocks=2, backend="thread"))
        with app:
            app.start(12, 12)
            with pytest.raises(DeploymentError, match="not routable"):
                app.map([1, 2], pack=True)

    def test_call_is_synchronous_submit(self):
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      backend="thread")
        )
        with app:
            app.start()
            assert app.call(21) == 42


class TestSimSubmission:
    def test_submit_drives_simulator_from_outside(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        workload = SieveWorkload(MAX, PACKS)
        app = ParallelApp(
            sieve_farm_spec(
                workload, backend="sim", middleware="rmi", cluster=cluster
            )
        )
        try:
            with app:
                app.start(2, workload.sqrt)
                future = app.submit(workload.candidates)
                assert future.resolved  # driven to completion transparently
                result = future.result()
            assert np.array_equal(
                np.sort(np.asarray(result)), expected_sieve_output(MAX)
            )
            assert app.middleware.calls >= PACKS
            assert sim.now > 0
        finally:
            sim.shutdown()

    def test_submit_inside_simulation_returns_pending_future(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        workload = SieveWorkload(MAX, PACKS)
        app = ParallelApp(
            sieve_farm_spec(
                workload, backend="sim", middleware="mpp", cluster=cluster
            )
        )
        out = {}

        def main():
            app.start(2, workload.sqrt)
            future = app.submit(workload.candidates)
            out["resolved_at_submit"] = future.resolved
            out["result"] = future.result()

        try:
            with app:
                sim.spawn(main, name="driver")
                sim.run()
            assert out["resolved_at_submit"] is False
            assert np.array_equal(
                np.sort(np.asarray(out["result"])), expected_sieve_output(MAX)
            )
        finally:
            sim.shutdown()


class TestOnewayPacks:
    def test_oneway_pack_sends_one_message_and_skips_reply(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      middleware="mpp", cluster=cluster,
                      oneway=("handle",))
        )
        try:
            with app:
                app.start()
                before = cluster.network.messages
                group = app.map(list(range(8)), pack=True, oneway=True)
                assert group.results() == [None] * 8
                assert cluster.network.messages - before == 1  # no reply msg
                assert app.middleware.oneway_calls == 1
                assert app.middleware.batched_calls == 1
                servant = app.middleware.servant_of(
                    app.distribution.ref_of(app.instance)
                )
                assert servant.calls == 8  # delivered and executed
        finally:
            sim.shutdown()

    def test_oneway_requires_declaration(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      middleware="mpp", cluster=cluster)
        )
        try:
            with app:
                app.start()
                with pytest.raises(DeploymentError, match="not declared"):
                    app.submit(1, oneway=True)
        finally:
            sim.shutdown()

    def test_oneway_on_rmi_rejected_eagerly(self):
        # RMI cannot fire-and-forget: the declaration must fail at
        # assembly, not at the first call
        sim = Simulator()
        cluster = paper_testbed(sim)
        try:
            with pytest.raises(DeploymentError, match="one-way"):
                ParallelApp(
                    StackSpec(target=Doubler, work="handle", strategy="none",
                              middleware="rmi", cluster=cluster,
                              oneway=("handle",))
                )
        finally:
            sim.shutdown()

    def test_oneway_on_hybrid_must_be_a_data_method(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        try:
            with pytest.raises(DeploymentError, match="data path"):
                ParallelApp(
                    StackSpec(target=Doubler, work="handle", strategy="none",
                              middleware="hybrid", cluster=cluster,
                              middleware_options={"data_methods": ()},
                              oneway=("handle",))
                )
            # declared as a data method, the same spec assembles fine
            app = ParallelApp(
                StackSpec(target=Doubler, work="handle", strategy="none",
                          middleware="hybrid", cluster=cluster,
                          middleware_options={"data_methods": ("handle",)},
                          oneway=("handle",))
            )
            with app:
                app.start()
                assert app.map([1, 2], pack=True, oneway=True).results() == [
                    None,
                    None,
                ]
        finally:
            sim.shutdown()

    def test_pack_map_on_farm_sends_one_message_per_pack_per_worker(self):
        # pack-aware partition routing: each whole pack goes to one
        # worker as ONE batched request (plus its one reply)
        sim = Simulator()
        cluster = paper_testbed(sim)
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle",
                      splitter=WorkSplitter(duplicates=2),
                      strategy="farm", middleware="mpp", cluster=cluster)
        )
        try:
            with app:
                app.start()
                before = cluster.network.messages
                group = app.map([1, 2, 3, 4, 5, 6], pack=3)
                assert group.results() == [2, 4, 6, 8, 10, 12]
                # 2 packs of 3 -> 2 requests + 2 replies, nothing per-item
                assert cluster.network.messages - before == 4
                assert app.middleware.batched_calls == 2
                farm = app.partition
                assert pack_splits(group) == ["farm.pack.handle"] * 2
                # round-robin: each worker served one whole pack
                served = [
                    app.middleware.servant_of(app.distribution.ref_of(w)).calls
                    for w in farm.workers
                ]
                assert sorted(served) == [3, 3]
        finally:
            sim.shutdown()

    def test_oneway_pack_map_on_farm_is_fire_and_forget(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle",
                      splitter=WorkSplitter(duplicates=2),
                      strategy="farm", middleware="mpp", cluster=cluster,
                      oneway=("handle",))
        )
        try:
            with app:
                app.start()
                before = cluster.network.messages
                group = app.map([1, 2, 3, 4], pack=2, oneway=True)
                assert group.results() == [None] * 4
                # one message per pack, zero replies
                assert cluster.network.messages - before == 2
                assert app.middleware.oneway_calls == 2
        finally:
            sim.shutdown()

    def test_pack_map_from_inside_the_simulation(self):
        # regression: pack futures must live on the app's backend, or a
        # sim-process caller waiting on them deadlocks the simulation
        sim = Simulator()
        cluster = paper_testbed(sim)
        app = ParallelApp(
            StackSpec(target=Doubler, work="handle", strategy="none",
                      middleware="mpp", cluster=cluster)
        )
        out = {}

        def main():
            app.start()
            out["results"] = app.map([1, 2, 3], pack=True).results()

        try:
            with app:
                sim.spawn(main, name="driver")
                sim.run()
            assert out["results"] == [2, 4, 6]
        finally:
            sim.shutdown()


class TestOpenRegistry:
    def test_custom_strategy_plugs_in_without_editing_any_facade(self):
        name = "test-broadcast"
        if name in STRATEGIES:
            STRATEGIES.unregister(name)

        @register_strategy(name)
        class BroadcastAspect(FarmAspect):
            """The farm mechanics under a new registered name."""

        try:
            workload = SieveWorkload(MAX, PACKS)
            app = ParallelApp(
                sieve_farm_spec(workload, strategy=name)
            )
            assert app.composition.module(name).aspects[0] is app.partition
            with app:
                app.start(2, workload.sqrt)
                result = app.submit(workload.candidates).result()
            assert np.array_equal(
                np.sort(np.asarray(result)), expected_sieve_output(MAX)
            )
        finally:
            STRATEGIES.unregister(name)


class Parked:
    """A servant that parks its call until the test opens the gate."""

    entered = None
    gate = None

    def run(self, value):
        Parked.entered.set()
        Parked.gate.wait(5)
        return value


class TestInFlight:
    def test_a_parked_call_without_a_strategy_is_in_flight(self):
        # the count is the deployment's admission table, which every
        # spec has: a spec with no partition strategy counts its calls
        Parked.entered, Parked.gate = threading.Event(), threading.Event()
        app = ParallelApp(
            StackSpec(target=Parked, work="run", strategy="none", backend="thread")
        )
        with app:
            app.start()
            future = app.submit(7)
            assert Parked.entered.wait(5)
            assert (app.in_flight, app.peak_in_flight) == (1, 1)
            Parked.gate.set()
            assert future.result(timeout=5) == 7
            assert (app.in_flight, app.peak_in_flight) == (0, 1)


#: the sieve's advised combinations (``Sequential`` deploys no advice)
SIEVE_COMBOS = (
    "FarmThreads", "PipeThreads", "PipeRMI", "FarmRMI", "FarmDRMI",
    "FarmMPP", "PipeMPP", "FarmDMPP", "FarmHybrid",
)


def table1_stack(combo):
    sim = Simulator()
    return sieve_spec(combo, SieveWorkload(MAX, PACKS), 3, cluster=paper_testbed(sim))


#: every stack the product deploys: the sieve's combinations (Table 1 and
#: the rest of the catalogue), the other apps' stacks, the word counter
#: on worker processes, and a pipeline under communication packing
PRODUCT_STACKS = {
    **{combo: (lambda combo=combo: table1_stack(combo)) for combo in SIEVE_COMBOS},
    "jacobi-heartbeat": lambda: jacobi_spec(4),
    "mandelbrot-farm": lambda: mandelbrot_spec(2, 4),
    "wordcount-pipeline": lambda: wordcount_spec(2),
    "wordcount-process": lambda: wordcount_spec(2, backend="process"),
    "PipeRMI+packing": lambda: table1_stack("PipeRMI"),
}


@pytest.mark.parametrize("stack", PRODUCT_STACKS)
def test_a_product_stack_compiles_only_around_plans(stack):
    """The advice language is ``around`` only, and so is every stack the
    product deploys: each advised shadow takes the fused call plan."""
    app = ParallelApp(PRODUCT_STACKS[stack]())
    if stack.endswith("+packing"):
        packing = CommunicationPackingAspect(app.partition, 2)
        app.composition.plug(
            ParallelModule("packing", Concern.OPTIMISATION, [packing])
        )
    with app:
        kinds = app.plan_stats()["kinds"]
    advised = set(kinds) - {"inert"}
    assert advised and advised <= {"single-around", "all-around"}, kinds
