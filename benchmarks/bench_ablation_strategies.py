"""Experiment E7 — strategy-exchange and optimisation ablations.

The paper's Section 7 claims: exchanging one parallelisation strategy
for another is "just a matter of plugging or unplugging" modules, and
optimisations are modular.  This bench measures those exchanges on a
reduced sieve workload:

* partition exchange: pipeline vs farm vs dynamic farm (same middleware);
* middleware exchange: RMI vs MPP vs hybrid (same partition);
* communication packing: pack-coalescing factors 1/2/5 on PipeRMI,
  where per-message overhead dominates;
* thread pool: spawn-per-call vs pooled workers (FarmThreads).
"""

from __future__ import annotations

from conftest import register_report

from repro.aop.weaver import default_weaver
from repro.apps.primes import PrimeFilter, SieveWorkload, sieve_app, sieve_cost_aspect
from repro.bench import PAPER_COST_MODEL, run_sieve
from repro.bench.report import render_checks, render_series
from repro.cluster import paper_testbed
from repro.middleware.context import use_node
from repro.parallel import CommunicationPackingAspect, Concern, ParallelModule, ThreadPoolAspect
from repro.runtime import Future, SimBackend, use_backend
from repro.sim import Simulator

MAXIMUM = 1_000_000
PACKS = 50
FILTERS = 7


def run_with_extra(combo, extra_module_factory=None):
    """Like harness.run_sieve but allowing an extra optimisation module."""
    sim = Simulator()
    cluster = paper_testbed(sim)
    workload = SieveWorkload(MAXIMUM, PACKS)
    cm = PAPER_COST_MODEL
    cost = sieve_cost_aspect(cm.ns_per_op, cm.aop_factor, cm.dispatch_cost)
    stack = sieve_app(combo, workload, FILTERS, cluster=cluster, cost=cost)
    if extra_module_factory is not None:
        stack.composition.plug(extra_module_factory(stack))
    backend = SimBackend(sim)
    out = {}

    def main():
        with use_backend(backend), use_node(cluster.head):
            pf = PrimeFilter(2, workload.sqrt)
            result = pf.filter(workload.candidates)
            if isinstance(result, Future):
                result = result.result()
            out["n"] = len(result)
            out["t"] = sim.now

    try:
        with stack.composition.deployed(default_weaver, targets=[PrimeFilter]):
            sim.spawn(main, name="main")
            sim.run()
    finally:
        stack.shutdown()
        sim.shutdown()
        default_weaver.reset()
    return out["t"], out["n"]


def test_partition_and_middleware_exchange(benchmark):
    def sweep():
        combos = ["PipeRMI", "FarmRMI", "FarmDRMI", "FarmMPP", "PipeMPP", "FarmHybrid"]
        times = {}
        for combo in combos:
            result = run_sieve(combo, FILTERS, maximum=MAXIMUM, packs=PACKS)
            assert result.correct
            times[combo] = result.sim_time
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    checks = [
        ("farm beats pipeline under RMI", times["FarmRMI"] < times["PipeRMI"]),
        ("farm beats pipeline under MPP", times["FarmMPP"] < times["PipeMPP"]),
        ("MPP beats RMI for the farm", times["FarmMPP"] < times["FarmRMI"]),
        (
            "hybrid (data over MPP) between pure RMI and pure MPP",
            times["FarmMPP"] * 0.95
            <= times["FarmHybrid"]
            <= times["FarmRMI"] * 1.05,
        ),
    ]
    report = render_series(
        f"E7a - strategy exchange (sieve max={MAXIMUM:,}, {FILTERS} filters)",
        "filters",
        [FILTERS],
        {combo: [t] for combo, t in times.items()},
    ) + "\n" + render_checks("exchange checks", checks)
    register_report(report)
    assert all(ok for _, ok in checks), report


def test_communication_packing_factors(benchmark):
    def sweep():
        times = {}
        for factor in (1, 2, 5):
            def add_packing(stack, factor=factor):
                return ParallelModule(
                    f"packing-x{factor}",
                    Concern.OPTIMISATION,
                    [CommunicationPackingAspect(stack.partition, factor)],
                )

            extra = None if factor == 1 else add_packing
            t, n = run_with_extra("PipeRMI", extra)
            times[f"x{factor}"] = t
        return times

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = render_series(
        "E7b - communication packing on PipeRMI (message coalescing)",
        "filters",
        [FILTERS],
        {name: [t] for name, t in times.items()},
    )
    register_report(report)
    # At this scale the pipeline is per-message-overhead bound: packing
    # must help.
    assert times["x5"] < times["x1"]


def test_thread_pool_vs_spawn_per_call(benchmark):
    def sweep():
        def add_pool(stack):
            return ParallelModule(
                "thread-pool",
                Concern.OPTIMISATION,
                [ThreadPoolAspect(stack.async_aspect, size=8)],
            )

        spawn_t, n1 = run_with_extra("FarmThreads", None)
        pool_t, n2 = run_with_extra("FarmThreads", add_pool)
        assert n1 == n2
        return {"spawn-per-call": spawn_t, "pool-8": pool_t}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = render_series(
        "E7c - thread pool optimisation (FarmThreads)",
        "filters",
        [FILTERS],
        {name: [t] for name, t in times.items()},
    )
    register_report(report)
    # Spawning is free in simulated time; the pool bounds concurrency, so
    # times stay within a small factor — the point is pluggability.
    assert times["pool-8"] <= times["spawn-per-call"] * 1.5
