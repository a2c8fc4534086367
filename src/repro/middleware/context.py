"""Where-am-I context for distributed execution.

Tracks, per thread (= per simulated process):

* the :class:`~repro.cluster.machine.Node` the current activity runs on —
  the cost model charges CPU there and the network computes src→dst
  delays from it;
* whether we are inside a middleware *server dispatch* — the marker is
  the weaver's (:class:`repro.aop.cflow.server_dispatch`, re-exported
  here): while it is up, woven calls leave out the partition,
  concurrency and distribution advice (the server side of the paper's
  Figure 13 executes the call locally).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.aop.cflow import in_server_dispatch, server_dispatch

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


#: the calling thread's placement
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

