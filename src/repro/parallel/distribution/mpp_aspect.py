"""MPP distribution aspect (paper Figure 15).

Same create-and-redirect pattern as RMI, but over the message-passing
middleware: no name server (refs are exchanged directly, like rank ids),
cheaper marshalling, and genuinely one-way sends for methods declared
``oneway`` ("the remote method invocation is performed through a message
send").  The servant's receive loop is the middleware's server activity —
the aspect stays a thin policy layer, which is exactly the paper's claim
about exchanging middlewares.
"""

from __future__ import annotations

from repro.api.registry import register_middleware
from repro.middleware.mpp import MppMiddleware
from repro.parallel.distribution.base import DistributionAspect

__all__ = ["MppDistributionAspect"]


@register_middleware("mpp")
class MppDistributionAspect(DistributionAspect):
    """Distribution over the (simulated) MPP library."""

    middleware_class = MppMiddleware
    name_prefix = "MP"
