"""Serializer + name-registry unit behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import paper_testbed
from repro.errors import RegistryError
from repro.middleware import NameRegistry, Serializer, measure_size, use_node
from repro.middleware.base import RemoteRef
from repro.sim import Simulator


class TestSerializer:
    def test_pack_copy_mode_isolates_numpy(self):
        serializer = Serializer()
        original = np.arange(10)
        wire, size = serializer.pack(original)
        assert size == measure_size(original)
        original[0] = 99
        assert wire[0] == 0

    def test_accounting_accumulates(self):
        serializer = Serializer()
        serializer.pack(b"x" * 100)
        serializer.pack(b"y" * 50)
        assert serializer.messages == 2
        assert serializer.bytes_out == measure_size(b"x" * 100) + measure_size(
            b"y" * 50
        )

    def test_clone_nested_structures(self):
        serializer = Serializer()
        payload = {"a": [np.arange(3), (1, "two")], "b": {"c": None}}
        clone = serializer.clone(payload)
        assert clone["b"] == {"c": None}
        assert np.array_equal(clone["a"][0], payload["a"][0])
        clone["a"][0][0] = 42
        assert payload["a"][0][0] == 0

    def test_clone_custom_object_deep(self):
        class Box:
            def __init__(self):
                self.items = [1, 2]

        serializer = Serializer()
        box = Box()
        clone = serializer.clone(box)
        clone.items.append(3)
        assert box.items == [1, 2]

    def test_measure_size_numpy_exact(self):
        base = measure_size(None)
        assert measure_size(np.zeros((10, 10))) == base + 800

    def test_measure_size_mixed_containers(self):
        assert measure_size({"key": [1.0, 2.0]}) > measure_size({})

    def test_measure_size_negative_impossible(self):
        assert measure_size("") >= 0


class TestNameRegistry:
    def make(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        return sim, cluster, NameRegistry(cluster)

    def ref(self):
        return RemoteRef(1, "test", "Thing")

    def test_bind_conflicts_and_rebind(self):
        _, _, registry = self.make()
        first = self.ref()
        registry.bind("a", first)
        with pytest.raises(RegistryError):
            registry.bind("a", self.ref())
        replacement = self.ref()
        registry.rebind("a", replacement)
        assert registry._bindings["a"] is replacement

    def test_names_sorted(self):
        _, _, registry = self.make()
        registry.bind("zeta", self.ref())
        registry.bind("alpha", self.ref())
        assert registry.names() == ("alpha", "zeta")

    def test_lookup_outside_simulation_is_free(self):
        # no current node -> no charging, still resolves
        _, _, registry = self.make()
        ref = self.ref()
        registry.bind("x", ref)
        assert registry.lookup("x") is ref
        assert registry.lookups == 1

    def test_lookup_charges_roundtrip_inside_simulation(self):
        sim, cluster, registry = self.make()
        ref = self.ref()
        registry.bind("x", ref)
        observed = {}

        def main():
            with use_node(cluster.node(3)):  # registry lives on head (0)
                start = sim.now
                registry.lookup("x")
                observed["cost"] = sim.now - start

        sim.spawn(main)
        sim.run()
        assert observed["cost"] > 0

    def test_lookup_from_registry_node_is_loopback_cheap(self):
        sim, cluster, registry = self.make()
        registry.bind("x", self.ref())
        observed = {}

        def main():
            with use_node(cluster.head):
                start = sim.now
                registry.lookup("x")
                observed["cost"] = sim.now - start

        sim.spawn(main)
        sim.run()
        assert observed["cost"] < 10e-6
