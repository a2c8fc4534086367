"""Plan-backed servant dispatch: the per-servant-class MethodTable."""

from __future__ import annotations

import pytest

from repro.aop import Aspect, around, deploy, undeploy, weave
from repro.aop.plan import MethodTable
from repro.aop.weaver import Weaver, default_weaver
from repro.cluster import paper_testbed
from repro.middleware.mpp import MppMiddleware
from repro.middleware.rmi import RmiMiddleware
from repro.sim import Simulator


class Echo:
    def shout(self, text):
        return text.upper()

    def add(self, a, b=0):
        return a + b


class TestMethodTable:
    def test_lookup_caches_plain_functions(self):
        table = MethodTable(Echo)
        entry = table.lookup("shout")
        assert entry is Echo.shout
        assert table.lookup("shout") is entry  # cached

    def test_invoke_matches_direct_call(self):
        table = MethodTable(Echo)
        obj = Echo()
        assert table.invoke(obj, "shout", ("hi",)) == "HI"
        assert table.invoke(obj, "add", (2,), {"b": 3}) == 5

    def test_refreshes_when_weaver_version_moves(self):
        table = MethodTable(Echo)
        inert_entry = table.lookup("shout")
        weave(Echo)
        try:
            woven_entry = table.lookup("shout")
            assert woven_entry is not inert_entry
            assert woven_entry is vars(Echo)["shout"]

            class Loud(Aspect):
                @around("call(Echo.shout(..))")
                def louder(self, jp):
                    return jp.proceed() + "!"

            aspect = deploy(Loud())
            assert table.invoke(Echo(), "shout", ("hey",)) == "HEY!"
            undeploy(aspect)
            assert table.invoke(Echo(), "shout", ("hey",)) == "HEY"
        finally:
            default_weaver.unweave(Echo)

    def test_instance_attribute_overrides_class_entry(self):
        obj = Echo()
        obj.shout = lambda text: f"instance:{text}"
        table = MethodTable(Echo)
        assert table.invoke(obj, "shout", ("x",)) == "instance:x"

    def test_missing_method_raises_attribute_error(self):
        table = MethodTable(Echo)
        with pytest.raises(AttributeError):
            table.invoke(Echo(), "nope", ())

    def test_non_function_attribute_falls_back_to_getattr(self):
        class WithProperty:
            @property
            def handler(self):
                return lambda: "via-property"

        table = MethodTable(WithProperty)
        assert table.lookup("handler") is None
        assert table.invoke(WithProperty(), "handler", ()) == "via-property"

    def test_isolated_weaver_version_source(self):
        mine = Weaver()

        class Thing:
            def go(self):
                return 1

        table = MethodTable(Thing, weaver=mine)
        before = table.lookup("go")
        mine.weave(Thing)
        try:
            assert table.lookup("go") is not before
        finally:
            mine.reset()


class TestMiddlewaresRouteThroughPlans:
    @pytest.mark.parametrize("factory", [RmiMiddleware, MppMiddleware])
    def test_sim_middlewares_attach_tables_to_servants(self, factory):
        sim = Simulator()
        cluster = paper_testbed(sim)
        mw = factory(cluster)
        out = {}

        def client():
            ref = mw.export(Echo(), cluster.node(1))
            servant = mw._servants[ref.object_id]
            assert isinstance(servant.table, MethodTable)
            out["result"] = mw.invoke(ref, "shout", ("hello",))

        sim.spawn(client, name="main")
        sim.run()
        assert out["result"] == "HELLO"
        mw.shutdown()
