"""Cluster assembly: nodes + network + the paper's testbed preset."""

from __future__ import annotations

from repro.cluster.machine import Node
from repro.cluster.network import GIGABIT_ETHERNET, Network
from repro.errors import ClusterError
from repro.sim import Simulator

__all__ = ["Cluster", "paper_testbed", "single_node"]


class Cluster:
    """A set of nodes joined by one network."""

    def __init__(self, sim: Simulator, nodes: list[Node], network: Network):
        if not nodes:
            raise ClusterError("a cluster needs at least one node")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate node ids: {ids}")
        self.sim = sim
        self.nodes = list(nodes)
        self.network = network

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ClusterError(f"no node with id {node_id}")

    @property
    def head(self) -> Node:
        """Node 0 — where the client/main program runs."""
        return self.nodes[0]

    def transit_delay(self, size_bytes: int, src: Node | None, dst: Node | None) -> float:
        return self.network.transit_delay(
            size_bytes,
            src.node_id if src is not None else None,
            dst.node_id if dst is not None else None,
        )

    def total_physical_cores(self) -> int:
        return sum(n.cores for n in self.nodes)

    def mean_utilisation(self) -> float:
        """The nodes' CPU utilisation so far, averaged over the nodes."""
        return sum(n.cpu.utilisation() for n in self.nodes) / len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {len(self.nodes)} nodes, {self.total_physical_cores()} cores>"


def paper_testbed(sim: Simulator) -> Cluster:
    """The evaluation platform of Section 6: seven dedicated dual-Xeon
    3.2 GHz machines with Hyper-Threading on Gigabit Ethernet."""
    nodes = [
        Node(sim, node_id=i, cores=2, ht_factor=1.3, speed=1.0) for i in range(7)
    ]
    return Cluster(sim, nodes, GIGABIT_ETHERNET())


def single_node(sim: Simulator, cores: int = 2, ht_factor: float = 1.3) -> Cluster:
    """A one-machine 'cluster' — the shared-memory scenario
    (FarmThreads in Table 1 runs here)."""
    return Cluster(
        sim, [Node(sim, 0, cores=cores, ht_factor=ht_factor)], GIGABIT_ETHERNET()
    )
