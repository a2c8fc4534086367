"""Live module swap: unplug/exchange on a *deployed* composition.

The paper's "(un)plug on the fly" claim, tested at the composition
level: swapping a partition strategy or removing a concern mid-run must
keep the weaver's deployment registry and the compiled plans consistent
— calls made after the swap see exactly the new module set.
"""

from __future__ import annotations

import numpy as np

from repro.aop.joinpoint import JoinPointKind
from repro.aop.weaver import default_weaver
from repro.apps.primes import PrimeFilter, SieveWorkload, expected_sieve_output
from repro.parallel import (
    Composition,
    FarmAspect,
    ParallelModule,
    PipelineSplitAspect,
    concurrency_module,
)
from repro.runtime import Future, ThreadBackend, use_backend

MAX = 10_000
PACKS = 4

CREATION = "initialization(PrimeFilter.new(..))"
WORK = "call(PrimeFilter.filter(..))"


def run_filter(workload):
    pf = PrimeFilter(2, workload.sqrt)
    result = pf.filter(workload.candidates)
    if isinstance(result, Future):
        result = result.result()
    return np.sort(np.asarray(result))


class TestExchangeWhileDeployed:
    def test_pipeline_to_farm_exchange_mid_run(self):
        workload = SieveWorkload(MAX, PACKS)
        pipeline = ParallelModule.of(PipelineSplitAspect(
            workload.pipeline_splitter(3), CREATION, WORK))
        comp = Composition(
            "swap", [pipeline, concurrency_module(WORK, WORK)]
        )
        expected = expected_sieve_output(MAX)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[PrimeFilter]):
                assert np.array_equal(run_filter(workload), expected)
                # the Section 7 move: swap the partition strategy live
                farm = ParallelModule.of(FarmAspect(
                    workload.farm_splitter(3), CREATION, WORK))
                removed = comp.exchange("partition", farm)
                assert removed is pipeline
                # old aspects are gone from the weaver, new ones are live
                deployed = default_weaver.deployed
                for aspect in pipeline.aspects:
                    assert aspect not in deployed
                for aspect in farm.aspects:
                    assert aspect in deployed
                assert np.array_equal(run_filter(workload), expected)
                assert farm.aspects[0].dispatches == 1
        # context exit undeploys the *current* module set cleanly
        assert not default_weaver.deployed

    def test_unplug_concurrency_makes_calls_synchronous(self):
        workload = SieveWorkload(MAX, PACKS)
        conc = concurrency_module(WORK, WORK)
        comp = Composition(
            "unplug",
            [ParallelModule.of(FarmAspect(workload.farm_splitter(3), CREATION, WORK)), conc],
        )
        async_aspect = conc.aspects[0]
        expected = expected_sieve_output(MAX)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[PrimeFilter]):
                pf = PrimeFilter(2, workload.sqrt)
                first = pf.filter(workload.candidates)
                if isinstance(first, Future):
                    first = first.result()
                assert async_aspect.spawned_calls > 0  # async while plugged
                spawned = async_aspect.spawned_calls
                comp.unplug("concurrency")
                second = pf.filter(workload.candidates)
                assert not isinstance(second, Future)  # synchronous now
                assert async_aspect.spawned_calls == spawned  # no new spawns
                assert np.array_equal(np.sort(np.asarray(first)), expected)
                assert np.array_equal(np.sort(np.asarray(second)), expected)

    def test_exchange_recompiles_only_matching_shadows(self):
        workload = SieveWorkload(MAX, PACKS)

        class Bystander:
            def untouched(self):
                return "plain"

        comp = Composition(
            "targeted",
            [ParallelModule.of(FarmAspect(workload.farm_splitter(2), CREATION, WORK))],
        )
        default_weaver.weave(Bystander)
        with comp.deployed(default_weaver, targets=[PrimeFilter]):
            stats = default_weaver.plan_stats
            bystander_before = stats.count(Bystander, "untouched")
            work_before = stats.count(PrimeFilter, "filter")
            comp.exchange(
                "partition",
                ParallelModule.of(FarmAspect(workload.farm_splitter(3), CREATION, WORK)),
            )
            # the work shadow recompiled (undeploy + redeploy), the
            # unrelated class did not
            assert stats.count(PrimeFilter, "filter") > work_before
            assert stats.count(Bystander, "untouched") == bystander_before

    def test_initialization_chain_follows_the_swap(self):
        workload = SieveWorkload(MAX, PACKS)
        comp = Composition(
            "init-swap",
            [ParallelModule.of(FarmAspect(workload.farm_splitter(2), CREATION, WORK))],
        )
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[PrimeFilter]):
                farm_aspect = comp.module("partition").aspects[0]
                PrimeFilter(2, workload.sqrt)
                assert len(farm_aspect.workers) == 2
                replacement = ParallelModule.of(FarmAspect(
                    workload.farm_splitter(4), CREATION, WORK))
                comp.exchange("partition", replacement)
                PrimeFilter(2, workload.sqrt)
                assert len(replacement.aspects[0].workers) == 4
                # init shadow chain now holds only the new aspect
                shadow = default_weaver._shadows[PrimeFilter][
                    ("__init__", JoinPointKind.INITIALIZATION)
                ]
                aspects = {entry.aspect for entry in shadow.entries}
                assert replacement.aspects[0] in aspects
                assert farm_aspect not in aspects
