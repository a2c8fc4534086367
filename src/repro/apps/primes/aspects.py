"""Sieve-specific parallelisation stacks — the rows of Table 1.

Everything here is *configuration*: the pointcuts naming the sieve's
joinpoints, the cost function reading the sieve's operation counters,
and builders assembling the named module combinations:

=============  ============  ===========  ============
name           partition     concurrency  distribution
=============  ============  ===========  ============
FarmThreads    farm          yes          no
PipeRMI        pipeline      yes          RMI
FarmRMI        farm          yes          RMI
FarmDRMI       dynamic farm  (merged)     RMI
FarmMPP        farm          yes          MPP
=============  ============  ===========  ============

plus extra combinations used by the ablation benches (PipeThreads,
PipeMPP, FarmHybrid, Sequential).
"""

from __future__ import annotations

import abc
from typing import Any

from repro.api.app import ParallelApp
from repro.api.spec import StackSpec
from repro.apps.primes.core import PrimeFilter
from repro.apps.primes.workload import SieveWorkload
from repro.cluster.topology import Cluster
from repro.errors import DeploymentError
from repro.middleware.placement import PlacementPolicy, RoundRobin
from repro.parallel import ComputeCostAspect

__all__ = [
    "SIEVE_CREATION",
    "SIEVE_WORK",
    "IPrimeFilter",
    "sieve_cost_aspect",
    "sieve_spec",
    "sieve_app",
    "TABLE1_COMBINATIONS",
]

#: the sieve's two joinpoint families (paper Figure 8)
SIEVE_CREATION = "initialization(PrimeFilter.new(..))"
SIEVE_WORK = "call(PrimeFilter.filter(..))"

#: Table 1 rows, in the paper's order
TABLE1_COMBINATIONS = ("FarmThreads", "PipeRMI", "FarmRMI", "FarmDRMI", "FarmMPP")


class IPrimeFilter(abc.ABC):
    """The remote interface RMI requires (paper modification #1) —
    declared onto :class:`PrimeFilter` by the distribution aspect."""

    @abc.abstractmethod
    def filter(self, candidates):  # pragma: no cover - marker only
        ...


def sieve_cost_fn(ns_per_op: float):
    """Work model: the filter's counted divisions × seconds-per-division."""

    def cost(jp, result) -> float:
        if jp.name != "filter":
            return 0.0
        return jp.target.ops_last * ns_per_op

    return cost


def sieve_cost_aspect(
    ns_per_op: float,
    aop_factor: float = 1.0,
    dispatch_cost: float = 0.0,
) -> ComputeCostAspect:
    return ComputeCostAspect(
        cost_fn=sieve_cost_fn(ns_per_op),
        work_calls=SIEVE_WORK,
        aop_factor=aop_factor,
        dispatch_cost=dispatch_cost,
    )


def sieve_spec(
    combo: str,
    workload: SieveWorkload,
    n_filters: int,
    cluster: Cluster | None = None,
    placement: PlacementPolicy | None = None,
    cost: ComputeCostAspect | None = None,
) -> StackSpec:
    """The declarative :class:`StackSpec` for one named combination —
    Table 1 as data.  ``cluster`` is required for the distributed
    combinations; ``cost`` is attached for simulated runs."""
    partition_kind, middleware_kind = _parse_combo(combo)
    if partition_kind == "pipeline":
        splitter = workload.pipeline_splitter(n_filters)
    elif partition_kind == "none":
        splitter = None
    else:  # farm and dynamic-farm share the broadcast splitter
        splitter = workload.farm_splitter(n_filters)
    middleware_options: dict[str, Any] = {}
    if middleware_kind == "rmi":
        middleware_options = {
            "remote_interface": IPrimeFilter,
            "distributed_classes": (PrimeFilter,),
        }
    elif middleware_kind == "hybrid":
        middleware_options = {"data_methods": ("filter",)}
    return StackSpec(
        target=PrimeFilter,
        work=SIEVE_WORK,
        creation=SIEVE_CREATION,
        work_method="filter",
        splitter=splitter,
        strategy=partition_kind,
        # the dynamic farm provides its own concurrency; Sequential has none
        concurrency=partition_kind in ("pipeline", "farm"),
        middleware=middleware_kind,
        middleware_options=middleware_options,
        cluster=cluster,
        placement=placement if placement is not None else RoundRobin(),
        cost=cost,
        name=combo,
    )


def sieve_app(
    combo: str,
    workload: SieveWorkload,
    n_filters: int,
    cluster: Cluster | None = None,
    placement: PlacementPolicy | None = None,
    cost: ComputeCostAspect | None = None,
) -> ParallelApp:
    """Assemble one named combination as a ready-to-deploy
    :class:`~repro.api.app.ParallelApp`."""
    try:
        return ParallelApp(
            sieve_spec(combo, workload, n_filters, cluster, placement, cost)
        )
    except DeploymentError as exc:
        raise DeploymentError(f"combination {combo!r}: {exc}") from exc



def _parse_combo(combo: str) -> tuple[str, str]:
    """Map a combination name to (partition kind, middleware kind)."""
    table = {
        "Sequential": ("none", "none"),
        "FarmThreads": ("farm", "none"),
        "PipeThreads": ("pipeline", "none"),
        "PipeRMI": ("pipeline", "rmi"),
        "FarmRMI": ("farm", "rmi"),
        "FarmDRMI": ("dynamic-farm", "rmi"),
        "FarmMPP": ("farm", "mpp"),
        "PipeMPP": ("pipeline", "mpp"),
        "FarmDMPP": ("dynamic-farm", "mpp"),
        "FarmHybrid": ("farm", "hybrid"),
    }
    if combo not in table:
        raise DeploymentError(
            f"unknown combination {combo!r}; known: {sorted(table)}"
        )
    return table[combo]
