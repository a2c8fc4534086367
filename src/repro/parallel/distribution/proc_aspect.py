"""Process distribution aspect: create-and-redirect over real processes.

The same create-and-redirect pattern as the RMI/MPP aspects, but the
middleware underneath is :class:`~repro.middleware.proc.ProcMiddleware`,
whose export genuinely ships the servant into another OS process.  Two
deliberate differences from the simulated aspects:

* ``make_servant`` is the identity — the simulated middlewares deep-copy
  the object to fake value semantics, but here pickling across the pipe
  IS the copy, and cloning first would pay it twice;
* the placement is block, over the worker slots the middleware offers
  for one construction (no more than the run has CPUs): neighbours share
  a worker.  When that construction is a pipeline's chain of stages
  (:func:`~repro.runtime.dispatch.chain_built`) the middleware links the
  neighbours a worker hosts: this aspect decides where a stage lives,
  the stages forward to each other (paper Section 4.3).
"""

from __future__ import annotations

from typing import Any

from repro.middleware.placement import BlockPlacement, PlacementPolicy
from repro.middleware.proc import ProcMiddleware
from repro.parallel.distribution.base import DistributionAspect
from repro.runtime.dispatch import chain_built

__all__ = ["ProcDistributionAspect"]


class ProcDistributionAspect(DistributionAspect):
    """Distribution over resident worker processes: what
    :class:`~repro.api.app.ParallelApp` plugs for a backend whose
    ``servant_host`` is ``"process"`` (the spec names no middleware, so
    ``cluster`` and ``placement`` are ``None``)."""

    name_prefix = "Proc"

    @staticmethod
    def middleware_class(cluster: Any) -> ProcMiddleware:
        """The workers are this run's processes, on no cluster."""
        return ProcMiddleware()

    def make_servant(self, obj: Any) -> Any:
        """Identity: the pickle crossing the pipe at export is the value
        copy; a parent-side clone first would serialise twice."""
        return obj

    def policy_for(self, count: int, hosts: Any) -> tuple[PlacementPolicy, int]:
        """Block over the construction's worker slots, from its first
        instance: ``ceil(count / len(hosts))`` neighbours per worker."""
        return BlockPlacement(-(-count // (len(hosts) or 1))), 0

    def _associate_all(self, objs: list) -> None:
        """Place and export one construction, then link the neighbours
        placed on one worker when it is a pipeline's chain of stages."""
        super()._associate_all(objs)
        chain = chain_built()
        stages = [self.ref_of(obj) for obj in objs] if chain else ()
        self.middleware.link(stages, chain and chain[0])
