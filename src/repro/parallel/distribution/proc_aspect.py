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

from typing import Any, Iterable

from repro.middleware.placement import BlockPlacement, PlacementPolicy
from repro.middleware.proc import ProcMiddleware
from repro.parallel.composition import ParallelModule
from repro.parallel.concern import Concern
from repro.parallel.distribution.base import DistributionAspect
from repro.runtime.dispatch import chain_built

__all__ = ["ProcDistributionAspect", "proc_distribution_module", "proc_bundle"]


class ProcDistributionAspect(DistributionAspect):
    """Distribution over resident worker processes."""

    def __init__(
        self,
        middleware: ProcMiddleware,
        placement: Any = None,
        remote_new: str | None = None,
        remote_calls: str | None = None,
        name_prefix: str = "Proc",
        oneway: Iterable[str] = (),
    ):
        super().__init__(
            middleware,
            placement,
            remote_new=remote_new,
            remote_calls=remote_calls,
            name_prefix=name_prefix,
        )
        self.oneway_methods = frozenset(oneway)

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


def proc_distribution_module(
    middleware: ProcMiddleware,
    remote_new: str,
    remote_calls: str,
    placement: Any = None,
    name: str = "distribution-process",
    **kwargs: Any,
) -> ParallelModule:
    aspect = ProcDistributionAspect(
        middleware,
        placement,
        remote_new=remote_new,
        remote_calls=remote_calls,
        **kwargs,
    )
    module = ParallelModule(name, Concern.DISTRIBUTION, [aspect])
    module.aspect = aspect  # type: ignore[attr-defined]
    return module


def proc_bundle(
    cluster: Any,
    creation: str,
    work: str,
    placement: Any = None,
    oneway: Iterable[str] = (),
    **options: Any,
) -> tuple[ProcMiddleware, None, ParallelModule]:
    """Process middleware + its distribution module: what
    :class:`~repro.api.app.ParallelApp` plugs for a backend whose
    ``servant_host`` is ``"process"`` (the spec names no middleware, so
    ``cluster`` and ``placement`` are ``None``)."""
    middleware = ProcMiddleware()
    module = proc_distribution_module(
        middleware, creation, work, placement=placement, oneway=oneway, **options
    )
    return middleware, None, module
