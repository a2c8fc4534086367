"""Where-am-I context for distributed execution.

Tracks, per thread (= per simulated process):

* the :class:`~repro.cluster.machine.Node` the current activity runs on —
  the cost model charges CPU there and the network computes src→dst
  delays from it;
* whether we are inside a middleware *server dispatch* — the distribution
  aspects consult this to avoid re-redirecting the servant's own
  execution back through the middleware (the server side of the paper's
  Figure 13 executes the call locally).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.machine import Node

__all__ = [
    "current_node",
    "use_node",
    "in_server_dispatch",
    "server_dispatch",
]


class _NodeState(threading.local):
    def __init__(self) -> None:
        self.node: "Node | None" = None
        self.dispatch_depth = 0


#: the calling thread's placement; ``ParallelAspect.passthrough`` reads
#: ``dispatch_depth`` itself (:func:`in_server_dispatch` minus the call)
STATE = _NodeState()


def current_node() -> "Node | None":
    """The node the calling activity is placed on (``None`` = unplaced,
    treated as colocated/loopback by the network model)."""
    return STATE.node


@contextmanager
def use_node(node: "Node | None") -> Iterator[None]:
    """Pin the calling thread/process to ``node`` within the block."""
    previous = STATE.node
    STATE.node = node
    try:
        yield
    finally:
        STATE.node = previous


def in_server_dispatch() -> bool:
    """Is this activity executing a servant method on behalf of the
    middleware?"""
    return STATE.dispatch_depth > 0


class server_dispatch:
    """``with`` block marking servant execution (distribution aspects
    must not redirect).  Plain bumps, no generator: one per request."""

    __slots__ = ()

    def __enter__(self) -> None:
        STATE.dispatch_depth += 1

    def __exit__(self, *exc: object) -> None:
        STATE.dispatch_depth -= 1
