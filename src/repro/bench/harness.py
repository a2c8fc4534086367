"""Experiment harness: one function per measured configuration.

``run_sieve`` assembles the named combination as a declarative
:class:`~repro.api.app.ParallelApp` (via
:func:`~repro.apps.primes.sieve_app`), deploys it, and drives the full
sieve through the futures-first submission API — ``app.start`` builds
the woven filter, ``app.submit`` dispatches the filter call and drives
the simulator to completion.  The output is validated against the
independent reference and returned as a :class:`RunResult` with the
simulated time plus the observability counters that explain it
(messages, per-node utilisation).

``run_handcoded`` does the same for the no-AOP baselines of Figure 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from repro.aop.weaver import Weaver
from repro.apps.primes import (
    HandCodedFarmRMI,
    HandCodedPipelineRMI,
    SieveWorkload,
    expected_sieve_output,
    sieve_app,
    sieve_cost_aspect,
)
from repro.bench.costmodel import HANDCODED_COST_MODEL, PAPER_COST_MODEL, CostModel
from repro.cluster import paper_testbed, single_node
from repro.middleware.context import use_node
from repro.runtime import SimBackend, use_backend
from repro.sim import Simulator

__all__ = ["RunResult", "run_sieve", "run_handcoded", "reference_for"]


@dataclass
class RunResult:
    """Outcome + observability for one configuration run."""

    combo: str
    filters: int
    maximum: int
    packs: int
    sim_time: float
    survivors: int
    correct: bool
    messages: int = 0
    remote_messages: int = 0
    bytes: int = 0
    middleware_calls: int = 0
    mean_utilisation: float = 0.0
    detail: dict[str, Any] = field(default_factory=dict)

    def row(self) -> tuple:
        return (self.combo, self.filters, round(self.sim_time, 3), self.correct)


@lru_cache(maxsize=8)
def reference_for(maximum: int) -> tuple:
    """Cached reference survivors for one workload scale."""
    return tuple(expected_sieve_output(maximum).tolist())


def _validate(survivors: np.ndarray, maximum: int) -> bool:
    return tuple(np.sort(np.asarray(survivors)).tolist()) == reference_for(maximum)


def run_sieve(
    combo: str,
    n_filters: int,
    maximum: int = 10_000_000,
    packs: int = 50,
    cost_model: CostModel = PAPER_COST_MODEL,
    weaver: Weaver | None = None,
    validate: bool = True,
) -> RunResult:
    """Run one woven configuration on the simulated testbed.

    FarmThreads (no distribution aspect) runs on a single machine, as in
    the paper; every distributed combination uses the 7-node testbed.
    The run itself is one ``start`` + one ``submit`` on the assembled
    :class:`~repro.api.app.ParallelApp` — called from outside the
    simulator, both drive it to completion transparently.
    """
    sim = Simulator()
    cluster = (
        single_node(sim)
        if combo in ("FarmThreads", "PipeThreads", "Sequential")
        else paper_testbed(sim)
    )
    workload = SieveWorkload(maximum, packs)
    cost = sieve_cost_aspect(
        cost_model.ns_per_op,
        aop_factor=cost_model.aop_factor,
        dispatch_cost=cost_model.dispatch_cost,
    )
    app = sieve_app(combo, workload, n_filters, cluster=cluster, cost=cost)
    if weaver is not None:
        app.weaver = weaver
    out: dict[str, Any] = {}

    try:
        with app:
            app.start(2, workload.sqrt)
            out["survivors"] = np.asarray(app.submit(workload.candidates).result())
            out["time"] = sim.now
    finally:
        sim.shutdown()

    survivors = out["survivors"]
    return RunResult(
        combo=combo,
        filters=n_filters,
        maximum=maximum,
        packs=packs,
        sim_time=out["time"],
        survivors=int(len(survivors)),
        correct=_validate(survivors, maximum) if validate else True,
        messages=cluster.network.messages,
        remote_messages=cluster.network.remote_messages,
        bytes=cluster.network.bytes,
        middleware_calls=getattr(app.middleware, "calls", 0),
        mean_utilisation=cluster.mean_utilisation(),
        detail={
            "cost_charged": cost.total_charged,
            "spawned": getattr(app.async_aspect, "spawned_calls", 0)
            if app.async_aspect
            else 0,
        },
    )


def run_handcoded(
    kind: str,
    n_filters: int,
    maximum: int = 10_000_000,
    packs: int = 50,
    cost_model: CostModel = HANDCODED_COST_MODEL,
    validate: bool = True,
) -> RunResult:
    """Run a hand-coded (no-AOP) baseline: ``"pipeline"`` or ``"farm"``."""
    sim = Simulator()
    cluster = paper_testbed(sim)
    workload = SieveWorkload(maximum, packs)
    backend = SimBackend(sim)
    app_cls = {"pipeline": HandCodedPipelineRMI, "farm": HandCodedFarmRMI}[kind]
    app = app_cls(cluster, backend, workload, n_filters, cost_model.ns_per_op)
    out: dict[str, Any] = {}

    def main() -> None:
        with use_backend(backend), use_node(cluster.head):
            app.setup()
            out["survivors"] = app.run()
            out["time"] = sim.now

    try:
        sim.spawn(main, name="main")
        sim.run()
    finally:
        app.shutdown()
        sim.shutdown()

    survivors = out["survivors"]
    return RunResult(
        combo=f"handcoded-{kind}",
        filters=n_filters,
        maximum=maximum,
        packs=packs,
        sim_time=out["time"],
        survivors=int(len(survivors)),
        correct=_validate(survivors, maximum) if validate else True,
        messages=cluster.network.messages,
        remote_messages=cluster.network.remote_messages,
        bytes=cluster.network.bytes,
        middleware_calls=app.rmi.calls,
        mean_utilisation=cluster.mean_utilisation(),
    )
