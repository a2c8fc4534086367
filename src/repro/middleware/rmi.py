"""Simulated Java RMI.

The cost profile encodes why RMI is the slower middleware in Figure 17:
per-call protocol work on both sides (stub/skeleton, TCP stream per
operation) and relatively expensive Java object serialisation.  Every
invocation is a synchronous request/response; ``oneway`` is *not*
supported (RMI has no fire-and-forget), so asynchrony must come from the
concurrency aspect spawning the call — exactly the paper's composition.

The four source-code modifications RMI imposes (Section 5.3) map to:

1. remote interface        → :meth:`RmiMiddleware.export` accepts any
                             object; the distribution *aspect* declares
                             the interface via ``declare_parents``;
2. export + registry bind  → :meth:`export_and_bind`;
3. client lookup           → :meth:`lookup`;
4. try/catch RemoteException → :class:`~repro.errors.RemoteError` raised
                             from :meth:`invoke`, handled in the aspect.

Server-side skeleton dispatch is plan-backed (inherited from
:class:`~repro.middleware.base.SimMiddleware`): each exported servant
carries a :class:`~repro.aop.plan.MethodTable` whose entries are the
weaver's compiled dispatch plans, so per-request work is one table hit
rather than attribute resolution plus an advice-chain walk.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.machine import Node
from repro.cluster.topology import Cluster
from repro.errors import MiddlewareError
from repro.middleware.base import MiddlewareCosts, RemoteRef, SimMiddleware
from repro.middleware.registry import NameRegistry

__all__ = ["RMI_COSTS", "RmiMiddleware"]

#: Default RMI cost profile (seconds).  Calibrated in bench/costmodel.py;
#: these are literature-plausible magnitudes for JDK 1.5 RMI on GbE.
RMI_COSTS = MiddlewareCosts(
    client_overhead=260e-6,
    server_overhead=200e-6,
    serialize_per_byte=5.0e-9,
    deserialize_per_byte=5.0e-9,
)


class RmiMiddleware(SimMiddleware):
    """RMI: registry + synchronous remote method invocation."""

    name = "rmi"

    def __init__(self, cluster: Cluster, costs: MiddlewareCosts = RMI_COSTS):
        super().__init__(cluster, costs)
        self.registry = NameRegistry(cluster)

    # -- naming ------------------------------------------------------------

    def export_and_bind(self, name: str, obj: Any, node: Node) -> RemoteRef:
        """Server-side setup (paper modification #2): export the servant
        and register it under ``name``."""
        ref = self.export(obj, node)
        self.registry.bind(name, ref)
        return ref

    def lookup(self, name: str) -> RemoteRef:
        """Client-side initial reference (paper modification #3)."""
        return self.registry.lookup(name)

    # -- invocation --------------------------------------------------------

    def invoke(
        self,
        ref: RemoteRef,
        method: str,
        args: tuple = (),
        kwargs: dict | None = None,
        oneway: bool = False,
    ) -> Any:
        if oneway:
            raise MiddlewareError("RMI has no one-way invocations")
        return super().invoke(ref, method, args, kwargs, oneway=False)

    def invoke_batch(
        self, ref: RemoteRef, method: str, pieces: Any, oneway: bool = False
    ) -> list:
        if oneway:
            raise MiddlewareError("RMI has no one-way invocations")
        return super().invoke_batch(ref, method, pieces, oneway=False)
