"""Simulated MPP (Message Passing Package).

The paper's MPP is a Java message-passing library over ``java.nio``: raw
buffers, no registry, cheap per-message costs — which is why FarmMPP
beats FarmRMI in Figure 17.  Two layers here:

* :class:`MppMiddleware` — the object-transport the distribution aspect
  uses: same export/invoke surface as RMI but with the cheaper cost
  profile and genuine ``oneway`` sends (a void remote call is a single
  message; the paper's Figure 15 server loop is our servant dispatch);
* :class:`CommWorld` — an MPI-flavoured rank API (send/recv/bcast/
  scatter/gather/barrier) for code written against message passing
  directly, exercised by tests and the hybrid distribution aspect.

Like RMI, the servant-side dispatch loop inherited from
:class:`~repro.middleware.base.SimMiddleware` routes through the
per-servant-class :class:`~repro.aop.plan.MethodTable` of compiled
dispatch plans instead of resolving methods per request.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.machine import Node
from repro.cluster.topology import Cluster
from repro.errors import MiddlewareError
from repro.middleware.base import MiddlewareCosts, SimMiddleware
from repro.middleware.context import current_node, use_node
from repro.middleware.serialize import Serializer
from repro.runtime.simbackend import SimBackend
from repro.sim import Channel

__all__ = ["MPP_COSTS", "MppMiddleware", "CommWorld"]

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


class CommWorld:
    """Rank-addressed point-to-point and collective operations.

    Ranks are placed on nodes round-robin (or per an explicit mapping)
    and run user functions ``fn(comm, rank)`` as simulated processes.
    """

    def __init__(
        self,
        cluster: Cluster,
        n_ranks: int,
        costs: MiddlewareCosts = MPP_COSTS,
        node_of_rank: Callable[[int], int] | None = None,
    ):
        if n_ranks < 1:
            raise MiddlewareError("need at least 1 rank")
        self.cluster = cluster
        self.sim = cluster.sim
        self.n_ranks = n_ranks
        self.costs = costs
        self.serializer = Serializer()
        self.backend = SimBackend(self.sim)
        self._node_of_rank = node_of_rank or (lambda r: r % len(cluster.nodes))
        self._mailboxes = [
            Channel(self.sim, name=f"mpp.rank{r}") for r in range(n_ranks)
        ]
        # out-of-order arrivals awaiting a tag-matched recv, per rank
        self._stashes: list[list[Any]] = [[] for _ in range(n_ranks)]
        self._handles: list[Any] = []

    # -- topology ------------------------------------------------------------

    def node(self, rank: int) -> Node:
        self._check_rank(rank)
        return self.cluster.node(self._node_of_rank(rank))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise MiddlewareError(f"rank {rank} out of range 0..{self.n_ranks - 1}")

    # -- process management -----------------------------------------------------

    def spawn_rank(self, rank: int, fn: Callable[["CommWorld", int], Any]) -> Any:
        """Start rank ``rank`` running ``fn(comm, rank)`` on its node."""
        self._check_rank(rank)
        node = self.node(rank)

        def body() -> Any:
            with use_node(node):
                return fn(self, rank)

        handle = self.backend.spawn(body, name=f"mpp.rank{rank}")
        self._handles.append(handle)
        return handle

    def spawn_all(self, fn: Callable[["CommWorld", int], Any]) -> list[Any]:
        return [self.spawn_rank(r, fn) for r in range(self.n_ranks)]

    def join_all(self) -> list[Any]:
        return [h.join() for h in self._handles]

    # -- point-to-point -----------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: str = "") -> None:
        """One-way message to ``dest`` (charges sender CPU + wire)."""
        self._check_rank(dest)
        wire, size = self.serializer.pack(payload)
        src = current_node()
        if src is not None:
            src.execute(self.costs.marshal_time(size))
        delay = self.cluster.transit_delay(size, src, self.node(dest))
        self._mailboxes[dest].send(wire, delay=delay, size_bytes=size, tag=tag)

    def recv(self, rank: int, tag: str | None = None, timeout: float | None = None) -> Any:
        """Blocking receive on ``rank``'s mailbox (charges receiver CPU).

        With a ``tag``, only a matching message is returned; non-matching
        arrivals are stashed for later receives (MPI tag matching).
        """
        self._check_rank(rank)
        stash = self._stashes[rank]
        message = None
        if tag is None:
            if stash:
                message = stash.pop(0)
        else:
            for i, waiting in enumerate(stash):
                if waiting.tag == tag:
                    message = stash.pop(i)
                    break
        while message is None:
            candidate = self._mailboxes[rank].recv(timeout=timeout)
            if tag is None or candidate.tag == tag:
                message = candidate
            else:
                stash.append(candidate)
        dst = current_node()
        if dst is not None:
            dst.execute(self.costs.unmarshal_time(message.size_bytes))
        return self.serializer.unpack(message.payload)

    # -- collectives (root-based, built on p2p) ------------------------------------

    def bcast(self, root: int, rank: int, payload: Any = None) -> Any:
        """Broadcast from ``root``: root sends to all, others receive."""
        if rank == root:
            for dest in range(self.n_ranks):
                if dest != root:
                    self.send(dest, payload, tag="bcast")
            return payload
        return self.recv(rank, tag="bcast")

    def scatter(self, root: int, rank: int, chunks: list[Any] | None = None) -> Any:
        """Scatter ``chunks[i]`` to rank ``i``."""
        if rank == root:
            if chunks is None or len(chunks) != self.n_ranks:
                raise MiddlewareError("scatter needs one chunk per rank")
            for dest in range(self.n_ranks):
                if dest != root:
                    self.send(dest, chunks[dest], tag="scatter")
            return chunks[root]
        return self.recv(rank, tag="scatter")

    def gather(self, root: int, rank: int, payload: Any) -> list[Any] | None:
        """Gather every rank's payload at ``root`` (rank order)."""
        if rank == root:
            parts: dict[int, Any] = {root: payload}
            for _ in range(self.n_ranks - 1):
                sender, value = self.recv(rank, tag="gather")
                parts[sender] = value
            return [parts[r] for r in range(self.n_ranks)]
        self.send(root, (rank, payload), tag="gather")
        return None

    def barrier(self, root: int, rank: int) -> None:
        """Naive two-phase barrier through ``root``."""
        if rank == root:
            for _ in range(self.n_ranks - 1):
                self.recv(rank, tag="barrier-arrive")
            for dest in range(self.n_ranks):
                if dest != root:
                    self.send(dest, None, tag="barrier-release")
        else:
            self.send(root, None, tag="barrier-arrive")
            self.recv(rank, tag="barrier-release")
