"""Cluster model: nodes, network delays, topology presets, utilisation."""

from __future__ import annotations

import pytest

from repro.cluster import (
    GIGABIT_ETHERNET,
    Cluster,
    Network,
    Node,
    paper_testbed,
    single_node,
)
from repro.errors import ClusterError
from repro.sim import Simulator


class TestNode:
    def test_node_identity_and_cpu(self):
        sim = Simulator()
        node = Node(sim, 3, cores=2, ht_factor=1.3)
        assert node.name == "node3"
        assert node.cores == 2
        assert node.cpu.ht_factor == 1.3

    def test_negative_id_rejected(self):
        with pytest.raises(ClusterError):
            Node(Simulator(), -1)

    def test_place_records_objects(self):
        node = Node(Simulator(), 0)
        marker = object()
        node.place(marker)
        assert marker in node.resident_objects

    def test_execute_charges_cpu(self):
        sim = Simulator()
        node = Node(sim, 0, cores=1)
        done = []
        sim.spawn(lambda: (node.execute(2.0), done.append(sim.now)))
        sim.run()
        assert done == [pytest.approx(2.0)]


class TestNetwork:
    def test_remote_delay_latency_plus_bandwidth(self):
        net = Network(latency=100e-6, bandwidth=1e6)
        delay = net.transit_delay(1000, 0, 1)
        assert delay == pytest.approx(100e-6 + 1000 / 1e6)

    def test_loopback_delay(self):
        net = Network(latency=100e-6, bandwidth=1e6, loopback_latency=1e-6)
        assert net.transit_delay(10**6, 0, 0) == pytest.approx(1e-6)
        assert net.transit_delay(10**6, None, 1) == pytest.approx(1e-6)

    def test_counters(self):
        net = Network()
        net.transit_delay(100, 0, 1)
        net.transit_delay(50, 0, 0)
        assert net.messages == 2
        assert net.remote_messages == 1
        assert net.bytes == 150
        net.reset_counters()
        assert net.messages == 0

    def test_invalid_parameters(self):
        with pytest.raises(ClusterError):
            Network(latency=-1)
        with pytest.raises(ClusterError):
            Network(bandwidth=0)
        with pytest.raises(ClusterError):
            Network().transit_delay(-1, 0, 1)

    def test_gigabit_preset(self):
        net = GIGABIT_ETHERNET()
        assert net.latency == pytest.approx(80e-6)
        assert net.bandwidth == pytest.approx(125e6)


class TestCluster:
    def test_paper_testbed_shape(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        assert len(cluster) == 7
        assert cluster.total_physical_cores() == 14
        assert all(n.cpu.ht_factor == 1.3 for n in cluster)
        assert cluster.head.node_id == 0

    def test_single_node(self):
        cluster = single_node(Simulator())
        assert len(cluster) == 1

    def test_node_lookup(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        assert cluster.node(4).node_id == 4
        with pytest.raises(ClusterError):
            cluster.node(99)

    def test_duplicate_ids_rejected(self):
        sim = Simulator()
        nodes = [Node(sim, 0), Node(sim, 0)]
        with pytest.raises(ClusterError):
            Cluster(sim, nodes, GIGABIT_ETHERNET())

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(Simulator(), [], GIGABIT_ETHERNET())

    def test_transit_delay_via_nodes(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        d_remote = cluster.transit_delay(1000, cluster.node(0), cluster.node(1))
        d_local = cluster.transit_delay(1000, cluster.node(0), cluster.node(0))
        assert d_remote > d_local


class TestMetrics:
    def test_mean_utilisation_averages_the_nodes(self):
        sim = Simulator()
        cluster = paper_testbed(sim)

        def work():
            cluster.node(0).execute(1.0)

        sim.spawn(work)
        sim.run()
        cluster.network.transit_delay(500, 0, 1)
        assert sim.now == pytest.approx(1.0)
        assert cluster.network.messages == 1
        assert cluster.head.cpu.jobs_completed == 1
        busy = cluster.head.cpu.utilisation()
        assert busy > 0
        assert cluster.mean_utilisation() == pytest.approx(busy / len(cluster))

    def test_mean_utilisation_of_an_idle_cluster_is_zero(self):
        sim = Simulator()
        cluster = single_node(sim)
        assert cluster.mean_utilisation() == 0.0  # no time has passed
        sim.spawn(lambda: sim.hold(2.0))
        sim.run()
        assert sim.now == pytest.approx(2.0)
        assert cluster.mean_utilisation() == 0.0  # time passed, no work
