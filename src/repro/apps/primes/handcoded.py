"""Hand-coded distributed sieve — the Figure 16 "Java" baseline.

What the methodology *avoids*: partition, concurrency, distribution and
cost accounting written directly into application code, tangled across
one module.  Functionally identical to the woven PipeRMI / FarmRMI
stacks, so comparing their simulated execution times isolates the AOP
overhead, exactly like the paper's first test.

The compute cost is charged inline by :class:`CostedPrimeFilter`
(``aop_factor`` = 1.0 — hand-written code is what the woven version's
factor is measured against).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.apps.primes.core import PrimeFilter
from repro.apps.primes.workload import SieveWorkload
from repro.cluster.topology import Cluster
from repro.middleware.context import current_node
from repro.middleware.placement import PlacementPolicy, RoundRobin
from repro.middleware.rmi import RmiMiddleware
from repro.runtime.backend import ExecutionBackend

__all__ = ["CostedPrimeFilter", "HandCodedPipelineRMI", "HandCodedFarmRMI"]


class CostedPrimeFilter(PrimeFilter):
    """PrimeFilter with the platform cost model tangled into it.

    This is the point: the hand-coded version cannot keep the core
    clean — timing code sits inside ``filter`` itself.
    """

    def __init__(self, pmin: int, pmax: int, ns_per_op: float):
        super().__init__(pmin, pmax)
        self.ns_per_op = ns_per_op

    def filter(self, candidates: np.ndarray) -> np.ndarray:
        survivors = super().filter(candidates)
        node = current_node()
        if node is not None:
            node.execute(self.ops_last * self.ns_per_op)
        return survivors


class _HandCodedBase:
    """Shared tangle: explicit RMI export, lookup, threads, locks."""

    def __init__(
        self,
        cluster: Cluster,
        backend: ExecutionBackend,
        workload: SieveWorkload,
        n_filters: int,
        ns_per_op: float,
        placement: PlacementPolicy | None = None,
    ):
        self.cluster = cluster
        self.backend = backend
        self.workload = workload
        self.n_filters = n_filters
        self.ns_per_op = ns_per_op
        self.placement = placement if placement is not None else RoundRobin()
        self.rmi = RmiMiddleware(cluster)
        self.refs: list[Any] = []
        self.locks: list[Any] = []

    def _export(self, pmin: int, pmax: int, index: int) -> None:
        servant = CostedPrimeFilter(pmin, pmax, self.ns_per_op)
        node = self.placement.choose(self.cluster.nodes, index)
        name = f"PS{index + 1}"
        self.rmi.export_and_bind(name, servant, node)
        self.refs.append(self.rmi.lookup(name))
        self.locks.append(self.backend.make_lock(name=f"hand.lock{index}"))

    def shutdown(self) -> None:
        self.rmi.shutdown()


class HandCodedPipelineRMI(_HandCodedBase):
    """Explicitly coded pipeline over RMI (no aspects anywhere)."""

    def setup(self) -> None:
        for index, (lo, hi) in enumerate(
            self.workload.stage_ranges(self.n_filters)
        ):
            self._export(lo, hi, index)

    def run(self) -> np.ndarray:
        """Feed every pack through all stages; one activity per pack."""
        packs = self.workload.pack_list()
        results: list[Any] = [None] * len(packs)

        def drive(pack_index: int, pack: np.ndarray) -> None:
            data = pack
            for stage, ref in enumerate(self.refs):
                with self.locks[stage]:  # a stage filters one pack at a time
                    data = self.rmi.invoke(ref, "filter", (data,))
            results[pack_index] = data

        handles = [
            self.backend.spawn(lambda i=i, p=pack: drive(i, p), name=f"pack{i}")
            for i, pack in enumerate(packs)
        ]
        for handle in handles:
            handle.join()
        return self.workload.combine(results)


class HandCodedFarmRMI(_HandCodedBase):
    """Explicitly coded farm over RMI (no aspects anywhere)."""

    def setup(self) -> None:
        for index in range(self.n_filters):
            self._export(2, self.workload.sqrt, index)

    def run(self) -> np.ndarray:
        packs = self.workload.pack_list()
        results: list[Any] = [None] * len(packs)

        def drive(pack_index: int, pack: np.ndarray) -> None:
            worker = pack_index % self.n_filters
            with self.locks[worker]:
                results[pack_index] = self.rmi.invoke(
                    self.refs[worker], "filter", (pack,)
                )

        handles = [
            self.backend.spawn(lambda i=i, p=pack: drive(i, p), name=f"pack{i}")
            for i, pack in enumerate(packs)
        ]
        for handle in handles:
            handle.join()
        return self.workload.combine(results)
