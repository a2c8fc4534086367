"""Simulated testbed: nodes with processor-sharing CPUs joined by a
latency/bandwidth network, plus the paper's 7-machine preset."""

from repro.cluster.machine import Node
from repro.cluster.network import GIGABIT_ETHERNET, Network
from repro.cluster.topology import Cluster, paper_testbed, single_node

__all__ = [
    "Node",
    "Network",
    "GIGABIT_ETHERNET",
    "Cluster",
    "paper_testbed",
    "single_node",
]
