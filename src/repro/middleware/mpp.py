"""Simulated MPP (Message Passing Package).

The paper's MPP is a Java message-passing library over ``java.nio``: raw
buffers, no registry, cheap per-message costs — which is why FarmMPP
beats FarmRMI in Figure 17.  :class:`MppMiddleware` is the object
transport the distribution aspect uses: the same export/invoke surface
as RMI, with the cheaper cost profile and genuine ``oneway`` sends (a
void remote call is a single message; the paper's Figure 15 server loop
is our servant dispatch).

Like RMI, the servant-side dispatch loop inherited from
:class:`~repro.middleware.base.SimMiddleware` routes through the
per-servant-class :class:`~repro.aop.plan.MethodTable` of compiled
dispatch plans instead of resolving methods per request.
"""

from __future__ import annotations

from repro.cluster.topology import Cluster
from repro.middleware.base import MiddlewareCosts, SimMiddleware

__all__ = ["MPP_COSTS", "MppMiddleware"]

#: MPP cost profile: nio buffers — low per-message overhead, cheap
#: (near-memcpy) marshalling.
MPP_COSTS = MiddlewareCosts(
    client_overhead=40e-6,
    server_overhead=30e-6,
    serialize_per_byte=1.0e-9,
    deserialize_per_byte=1.0e-9,
)


class MppMiddleware(SimMiddleware):
    """Message-passing object transport with one-way support."""

    name = "mpp"

    def __init__(self, cluster: Cluster, costs: MiddlewareCosts = MPP_COSTS):
        super().__init__(cluster, costs)

