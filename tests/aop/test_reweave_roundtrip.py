"""Weave → unweave → re-weave round-trips.

CPython permanently de-optimises a type's ``tp_new``/``tp_init`` slots
once a Python function has been assigned to ``__new__``/``__init__``
(see the shim discussion at the top of ``weaver.py``): deleting the
attribute afterwards leaves ``object.__new__`` reachable through the
dynamic slot wrapper, which then rejects constructor arguments for every
subclass.  Unweaving installs passthrough shims instead of deleting;
these tests exercise that quirk across repeated cycles, with aspects
re-deployed against the fresh shadows of each re-weave.
"""

from __future__ import annotations

import pytest

from repro.aop import Aspect, around, deploy, undeploy, unweave, weave
from repro.aop.joinpoint import JoinPointKind
from repro.aop.weaver import default_weaver


def make_counterless():
    """A class that defines neither __new__ nor __init__."""

    class Bare:
        def ping(self):
            return "pong"

    return Bare


def make_with_init():
    class Holder:
        def __init__(self, value):
            self.value = value

        def get(self):
            return self.value

    return Holder


def make_with_new():
    class Tracked:
        instances = 0

        def __new__(cls, *args, **kwargs):
            obj = super().__new__(cls)
            Tracked.instances += 1
            return obj

        def __init__(self, tag):
            self.tag = tag

    return Tracked


class TestRepeatedCycles:
    @pytest.mark.parametrize("cycles", [1, 2, 3])
    def test_argumentful_subclass_constructs_after_cycles(self, cycles):
        Holder = make_with_init()

        class Sub(Holder):
            def __init__(self, value, extra):
                super().__init__(value)
                self.extra = extra

        for _ in range(cycles):
            weave(Holder)
            unweave(Holder)
        # the tp_new quirk would raise "object.__new__() takes exactly
        # one argument" here if unweave had deleted the dunders
        sub = Sub(1, 2)
        assert (sub.value, sub.extra) == (1, 2)

    @pytest.mark.parametrize("cycles", [1, 3])
    def test_bare_class_roundtrip_keeps_default_construction(self, cycles):
        Bare = make_counterless()
        for _ in range(cycles):
            weave(Bare)
            unweave(Bare)
        assert Bare().ping() == "pong"
        # the passthrough shims tolerate arguments (unlike bare object()):
        # that permissiveness is the price of dodging the tp_new quirk
        assert Bare(1, 2, 3).ping() == "pong"

    def test_user_defined_new_survives_roundtrip(self):
        Tracked = make_with_new()
        weave(Tracked)
        unweave(Tracked)
        weave(Tracked)
        unweave(Tracked)
        before = Tracked.instances
        obj = Tracked("a")
        assert obj.tag == "a"
        assert Tracked.instances == before + 1


class TestReweaveWithAspects:
    def test_call_advice_applies_to_fresh_shadows_after_reweave(self):
        Bare = make_counterless()
        hits = []

        class Probe(Aspect):
            @around("call(Bare.ping(..))")
            def probe(self, jp):
                hits.append(1)
                return jp.proceed()

        weave(Bare)
        aspect = deploy(Probe())
        Bare().ping()
        assert hits == [1]
        undeploy(aspect)
        unweave(Bare)
        Bare().ping()  # unwoven: no interception
        assert hits == [1]

        weave(Bare)
        deploy(Probe())
        Bare().ping()
        assert hits == [1, 1]

    def test_initialization_advice_after_reweave(self):
        Holder = make_with_init()

        class Tag(Aspect):
            @around("initialization(Holder.new(..))")
            def tag(self, jp):
                obj = jp.proceed()
                obj.tagged = True
                return obj

        weave(Holder)
        aspect = deploy(Tag())
        assert Holder(1).tagged
        undeploy(aspect)
        unweave(Holder)
        assert not hasattr(Holder(2), "tagged")
        weave(Holder)
        deploy(Tag())
        again = Holder(3)
        assert again.tagged and again.get() == 3

    def test_deploy_while_unwoven_then_reweave_attaches(self):
        """An aspect deployed while its target is unwoven must attach to
        the shadows created by a later weave (the weave-time side of the
        static match index)."""
        Bare = make_counterless()
        hits = []

        class Probe(Aspect):
            @around("call(Bare.ping(..))")
            def probe(self, jp):
                hits.append(1)
                return jp.proceed()

        deploy(Probe())
        Bare().ping()
        assert hits == []  # not woven yet
        weave(Bare)
        Bare().ping()
        assert hits == [1]

    def test_undeploy_after_reweave_does_not_touch_stale_shadows(self):
        """A deployment indexed against the *first* weave's shadows must
        not recompile (or crash on) the fresh shadows of a re-weave it
        never matched."""
        Bare = make_counterless()

        class Probe(Aspect):
            @around("call(Bare.ping(..))")
            def probe(self, jp):
                return jp.proceed()

        weave(Bare)
        aspect = deploy(Probe())
        unweave(Bare)
        weave(Bare)  # fresh shadows; deploy-time index is stale
        undeploy(aspect)  # must not raise
        assert Bare().ping() == "pong"

    def test_unweave_prunes_deployment_match_index(self):
        """A long-lived deployment must not accumulate (and pin) shadows
        of classes that have since been unwoven."""

        class Broad(Aspect):
            @around("call(*.ping(..))")
            def probe(self, jp):
                return jp.proceed()

        aspect = deploy(Broad())
        deployment = default_weaver._deployments[-1]
        stats = default_weaver.plan_stats
        for _ in range(5):
            Bare = make_counterless()
            weave(Bare)
            assert any(s.cls is Bare for s in deployment.matched)
            assert stats.by_shadow[(Bare, "ping", JoinPointKind.CALL)] > 0
            unweave(Bare)
            assert not any(s.cls is Bare for s in deployment.matched)
            # counters must not pin ephemeral classes either
            assert (Bare, "ping", JoinPointKind.CALL) not in stats.by_shadow
        undeploy(aspect)

    def test_shim_marked_after_unweave(self):
        Bare = make_counterless()
        weave(Bare)
        unweave(Bare)
        assert getattr(Bare.__new__, "__aop_shim__", False)
        # re-weaving treats the shim as "not defined", not as an original
        weave(Bare)
        unweave(Bare)
        assert getattr(Bare.__new__, "__aop_shim__", False)
        assert not default_weaver.is_woven(Bare)
