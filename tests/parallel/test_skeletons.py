"""A StackSpec stack driven by calling the woven class directly.

Everything else drives an app through ``submit``; here the app is only
deployed and the core class is used the way sequential code uses it —
``PrimeFilter(...)``, ``pf.filter(...)`` — on real threads and, with a
middleware, on the simulated cluster.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ParallelApp, StackSpec
from repro.api.registry import MIDDLEWARES, STRATEGIES
from repro.apps.primes import PrimeFilter, SieveWorkload, expected_sieve_output
from repro.cluster import paper_testbed
from repro.errors import DeploymentError
from repro.middleware.context import use_node
from repro.runtime import Future, SimBackend, ThreadBackend, use_backend
from repro.sim import Simulator

MAX = 10_000
PACKS = 4


def sieve_app(splitter, **spec):
    return ParallelApp(
        StackSpec(
            target=PrimeFilter,
            work="call(PrimeFilter.filter(..))",
            creation="initialization(PrimeFilter.new(..))",
            splitter=splitter,
            **spec,
        )
    )


class TestParalleliseValidation:
    def test_strategy_and_middleware_catalogues(self):
        assert "farm" in STRATEGIES and "pipeline" in STRATEGIES
        assert "rmi" in MIDDLEWARES

    def test_unknown_strategy_rejected(self):
        workload = SieveWorkload(MAX, PACKS)
        with pytest.raises(DeploymentError):
            sieve_app(workload.farm_splitter(2), strategy="fractal")

    def test_middleware_needs_cluster(self):
        workload = SieveWorkload(MAX, PACKS)
        with pytest.raises(DeploymentError):
            sieve_app(workload.farm_splitter(2), middleware="rmi")


class TestParalleliseThreads:
    @pytest.mark.parametrize("strategy", ["farm", "pipeline", "dynamic-farm"])
    def test_strategies_produce_correct_primes(self, strategy):
        workload = SieveWorkload(MAX, PACKS)
        splitter = (
            workload.pipeline_splitter(3)
            if strategy == "pipeline"
            else workload.farm_splitter(3)
        )
        app = sieve_app(splitter, strategy=strategy)
        with use_backend(ThreadBackend()):
            with app:
                pf = PrimeFilter(2, workload.sqrt)
                result = pf.filter(workload.candidates)
                if isinstance(result, Future):
                    result = result.result()
        assert np.array_equal(
            np.sort(np.asarray(result)), expected_sieve_output(MAX)
        )

    def test_describe_mentions_concerns(self):
        workload = SieveWorkload(MAX, PACKS)
        text = sieve_app(workload.farm_splitter(2)).describe()
        assert "partition" in text and "concurrency" in text

    def test_dynamic_farm_does_not_add_concurrency_module(self):
        workload = SieveWorkload(MAX, PACKS)
        app = sieve_app(workload.farm_splitter(2), strategy="dynamic-farm")
        names = [m.name for m in app.composition.modules]
        assert "concurrency" not in names


class TestParalleliseSim:
    @pytest.mark.parametrize("middleware", ["rmi", "mpp"])
    def test_distributed_facade_on_simulator(self, middleware):
        sim = Simulator()
        cluster = paper_testbed(sim)
        workload = SieveWorkload(MAX, PACKS)
        backend = SimBackend(sim)
        app = sieve_app(
            workload.farm_splitter(3),
            middleware=middleware,
            cluster=cluster,
            backend=backend,
        )
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                pf = PrimeFilter(2, workload.sqrt)
                result = pf.filter(workload.candidates)
                if isinstance(result, Future):
                    result = result.result()
                out["primes"] = np.sort(np.asarray(result))

        app.deploy()
        try:
            sim.spawn(main)
            sim.run()
        finally:
            app.undeploy()
            app.shutdown()
            sim.shutdown()
        assert np.array_equal(out["primes"], expected_sieve_output(MAX))
        assert app.middleware.calls >= PACKS
