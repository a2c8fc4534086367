"""Middlewares: RMI, MPP; registry; cost charging; errors."""

from __future__ import annotations

import pytest

from repro.cluster import paper_testbed
from repro.errors import MiddlewareError, RegistryError, RemoteError
from repro.middleware import (
    MiddlewareCosts,
    MppMiddleware,
    RmiMiddleware,
    current_node,
    in_server_dispatch,
    use_node,
)
from repro.sim import Simulator


class Echo:
    """Simple servant used across tests."""

    def __init__(self):
        self.calls = []

    def say(self, text):
        self.calls.append(text)
        return f"echo:{text}"

    def where(self):
        return (
            current_node().name if current_node() else None,
            in_server_dispatch(),
        )

    def boom(self):
        raise ValueError("servant exploded")


def run_main(sim, fn):
    """Run fn as the client process on the cluster head node."""
    out = {}

    def main():
        out["result"] = fn()

    sim.spawn(main, name="main")
    sim.run()
    return out["result"]


class TestRmi:
    def test_roundtrip_result(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export(Echo(), cluster.node(1))
            with use_node(cluster.head):
                result = rmi.invoke(ref, "say", ("hi",))
            rmi.shutdown()
            return result

        assert run_main(sim, client) == "echo:hi"

    def test_servant_runs_on_its_node_in_dispatch_context(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export(Echo(), cluster.node(3))
            with use_node(cluster.head):
                where = rmi.invoke(ref, "where")
            rmi.shutdown()
            return where

        assert run_main(sim, client) == ("node3", True)

    def test_remote_exception_wrapped(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export(Echo(), cluster.node(1))
            with use_node(cluster.head):
                try:
                    rmi.invoke(ref, "boom")
                except RemoteError as exc:
                    rmi.shutdown()
                    return type(exc.cause).__name__
            rmi.shutdown()
            return "no-error"

        assert run_main(sim, client) == "ValueError"

    def test_remote_call_costs_time_local_is_cheaper(self):
        def elapsed(dst_node_id):
            sim = Simulator()
            cluster = paper_testbed(sim)
            rmi = RmiMiddleware(cluster)

            def client():
                ref = rmi.export(Echo(), cluster.node(dst_node_id))
                with use_node(cluster.head):
                    rmi.invoke(ref, "say", ("x" * 1000,))
                t = sim.now
                rmi.shutdown()
                return t

            return run_main(sim, client)

        assert elapsed(0) < elapsed(1)
        assert elapsed(1) > 500e-6  # per-call overheads dominate

    def test_oneway_not_supported(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export(Echo(), cluster.node(1))
            with pytest.raises(MiddlewareError):
                rmi.invoke(ref, "say", ("x",), oneway=True)
            rmi.shutdown()
            return True

        assert run_main(sim, client)

    def test_unknown_ref_rejected(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)
        mpp = MppMiddleware(cluster)

        def client():
            foreign = mpp.export(Echo(), cluster.node(1))
            with pytest.raises(MiddlewareError):
                rmi.invoke(foreign, "say", ("x",))
            rmi.shutdown()
            mpp.shutdown()
            return True

        assert run_main(sim, client)

    def test_registry_bind_lookup_unbind(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export_and_bind("PS1", Echo(), cluster.node(2))
            assert rmi.registry.names() == ("PS1",)
            with use_node(cluster.head):
                found = rmi.lookup("PS1")
            assert found is ref
            with pytest.raises(RegistryError):
                rmi.registry.bind("PS1", ref)
            rmi.registry.unbind("PS1")
            with pytest.raises(RegistryError):
                rmi.registry.unbind("PS1")
            with pytest.raises(RegistryError):
                with use_node(cluster.head):
                    rmi.lookup("PS1")
            rmi.shutdown()
            return True

        assert run_main(sim, client)

    def test_copy_semantics_servant_gets_independent_args(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        class Holder:
            def keep(self, lst):
                self.kept = lst
                return len(lst)

        def client():
            servant = Holder()
            ref = rmi.export(servant, cluster.node(1))
            payload = [1, 2, 3]
            with use_node(cluster.head):
                rmi.invoke(ref, "keep", (payload,))
            payload.append(4)  # must not affect the servant's copy
            rmi.shutdown()
            return list(servant.kept)

        assert run_main(sim, client) == [1, 2, 3]


class TestMpp:
    def test_invoke_roundtrip(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)

        def client():
            ref = mpp.export(Echo(), cluster.node(1))
            with use_node(cluster.head):
                result = mpp.invoke(ref, "say", ("mpp",))
            mpp.shutdown()
            return result

        assert run_main(sim, client) == "echo:mpp"

    def test_oneway_returns_immediately(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)
        timeline = {}

        def client():
            servant = Echo()
            ref = mpp.export(servant, cluster.node(1))
            with use_node(cluster.head):
                mpp.invoke(ref, "say", ("fire",), oneway=True)
                timeline["after_send"] = sim.now
            sim.hold(1.0)  # let the message land
            timeline["served"] = list(servant.calls)
            mpp.shutdown()
            return True

        run_main(sim, client)
        # sender resumed long before a full RTT (client marshal only)
        assert timeline["after_send"] < 200e-6
        assert timeline["served"] == ["fire"]
        assert mpp.oneway_calls == 1

    def test_mpp_cheaper_than_rmi_same_call(self):
        def one_call(make_mw):
            sim = Simulator()
            cluster = paper_testbed(sim)
            mw = make_mw(cluster)

            def client():
                ref = mw.export(Echo(), cluster.node(1))
                with use_node(cluster.head):
                    mw.invoke(ref, "say", ("y" * 10_000,))
                t = sim.now
                mw.shutdown()
                return t

            return run_main(sim, client)

        assert one_call(MppMiddleware) < one_call(RmiMiddleware)


class TestCosts:
    def test_marshal_time_composition(self):
        costs = MiddlewareCosts(
            client_overhead=1e-3,
            server_overhead=2e-3,
            serialize_per_byte=1e-6,
            deserialize_per_byte=2e-6,
        )
        assert costs.marshal_time(1000) == pytest.approx(2e-3)
        assert costs.unmarshal_time(1000) == pytest.approx(4e-3)

    def test_measure_size_shapes(self):
        import numpy as np

        from repro.middleware import measure_size

        base = measure_size(None)
        assert measure_size(np.zeros(100, dtype=np.int64)) == base + 800
        assert measure_size(b"abc") == base + 3
        assert measure_size("abc") == base + 3
        assert measure_size([1, 2]) > base
        assert measure_size({"k": 1}) > base
