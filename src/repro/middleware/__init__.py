"""Distribution middlewares: simulated Java RMI, simulated MPP message
passing and the real out-of-process pipe transport, plus placement
policies, serialisation accounting and node context."""

from repro.middleware.base import Middleware, MiddlewareCosts, RemoteRef, SimMiddleware
from repro.middleware.context import (
    current_node,
    in_server_dispatch,
    server_dispatch,
    use_node,
)
from repro.middleware.mpp import MPP_COSTS, MppMiddleware
from repro.middleware.proc import ProcMiddleware
from repro.middleware.placement import (
    BlockPlacement,
    FixedPlacement,
    LeastLoaded,
    PlacementPolicy,
    RandomPlacement,
    RoundRobin,
)
from repro.middleware.registry import NameRegistry
from repro.middleware.rmi import RMI_COSTS, RmiMiddleware
from repro.middleware.serialize import Serializer, measure_size

__all__ = [
    "Middleware",
    "SimMiddleware",
    "MiddlewareCosts",
    "RemoteRef",
    "RmiMiddleware",
    "RMI_COSTS",
    "MppMiddleware",
    "MPP_COSTS",
    "ProcMiddleware",
    "NameRegistry",
    "PlacementPolicy",
    "RoundRobin",
    "RandomPlacement",
    "BlockPlacement",
    "LeastLoaded",
    "FixedPlacement",
    "Serializer",
    "measure_size",
    "current_node",
    "use_node",
    "in_server_dispatch",
    "server_dispatch",
]
