"""RMI distribution aspect (paper Figure 14).

Modularises the four RMI code modifications:

1. the remote interface — optional ``declare parents`` against a marker
   interface, supplied via ``remote_interface``;
2. export + registry bind under generated names ``PS1, PS2, ...``
   (``String name = new String("PS" + (++count))``);
3. client lookup of the initial reference (pays a registry round-trip);
4. the RemoteException handler around redirected calls (in the base
   class's ``redirect`` advice).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.aop import ParentDeclaration
from repro.api.registry import register_middleware
from repro.errors import DeploymentError
from repro.middleware.placement import PlacementPolicy
from repro.middleware.rmi import RmiMiddleware
from repro.parallel.distribution.base import DistributionAspect

__all__ = ["RmiDistributionAspect"]


@register_middleware("rmi")
class RmiDistributionAspect(DistributionAspect):
    """Distribution over (simulated) Java RMI."""

    middleware_class = RmiMiddleware

    def __init__(
        self,
        middleware: RmiMiddleware,
        placement: PlacementPolicy | None = None,
        remote_new: str | None = None,
        remote_calls: str | None = None,
        oneway: Iterable[str] = (),
        remote_interface: type | None = None,
        distributed_classes: tuple[type, ...] = (),
    ):
        super().__init__(middleware, placement, remote_new, remote_calls, oneway)
        # modification #1: declare the class to implement the remote
        # interface, from within the aspect (static crosscutting)
        if remote_interface is not None and distributed_classes:
            self.parents = [
                ParentDeclaration(cls, remote_interface)
                for cls in distributed_classes
            ]

    def register(self, servant: Any, host: Any, name: str) -> Any:
        # modification #2 (server side): export + bind
        self.middleware.export_and_bind(name, servant, host)
        # modification #3 (client side): initial reference via lookup —
        # charges the registry round-trip like a real Naming.lookup
        return self.middleware.lookup(name)

    @classmethod
    def for_cluster(
        cls,
        cluster: Any,
        creation: str,
        work: str,
        placement: PlacementPolicy | None = None,
        oneway: Iterable[str] = (),
        **options: Any,
    ) -> "RmiDistributionAspect":
        """RMI has no one-way invocations (Java semantics), so a non-empty
        ``oneway`` declaration is refused *eagerly* — accepting it would
        make every call to the declared method fail at invocation time."""
        oneway = tuple(oneway)
        if oneway:
            raise DeploymentError(
                f"RMI has no one-way invocations; oneway={list(oneway)} needs "
                f"the 'mpp' middleware (or 'hybrid' with those methods listed "
                f"in data_methods)"
            )
        return super().for_cluster(cluster, creation, work, placement, **options)
