"""Advanced weaving behaviours: isolated weavers, pickling woven
instances, shim semantics after unweave, wildcard class patterns,
interactions between multiple aspects on construction."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.aop import Aspect, around, deploy, undeploy, weave
from repro.aop.weaver import Weaver, default_weaver


class Picklee:
    """Module-level so pickle can find it."""

    def __init__(self, value):
        self.value = value

    def double(self):
        return self.value * 2


class TestIsolatedWeavers:
    def test_private_weaver_does_not_touch_default(self):
        class Thing:
            def go(self):
                return "go"

        mine = Weaver()
        mine.weave(Thing)
        assert mine.is_woven(Thing)
        assert not default_weaver.is_woven(Thing)

        hits = []

        class A(Aspect):
            @around("call(Thing.go(..))")
            def note(self, jp):
                hits.append(1)
                return jp.proceed()

        mine.deploy(A())
        Thing().go()
        assert hits == [1]
        mine.reset()
        Thing().go()
        assert hits == [1]

    def test_reset_clears_everything(self):
        class Thing:
            def go(self):
                return 1

        weaver = Weaver()
        weaver.weave(Thing)

        class A(Aspect):
            @around("call(Thing.go(..))")
            def note(self, jp):
                return jp.proceed()

        weaver.deploy(A())
        weaver.reset()
        assert weaver.deployed == ()
        assert weaver.woven_classes == ()


class TestPicklingWovenInstances:
    def test_pickle_roundtrip_does_not_retrigger_creation_advice(self):
        created = []

        class Count(Aspect):
            @around("initialization(Picklee.new(..))")
            def count(self, jp):
                created.append(1)
                return jp.proceed()

        weave(Picklee)
        deploy(Count())
        obj = Picklee(21)
        assert created == [1]
        # transport through the serializer path (clone)
        clone = copy.deepcopy(obj)
        assert clone.double() == 42
        assert created == [1], "deepcopy must not re-run initialization advice"

    def test_plain_pickle_of_woven_instance(self):
        weave(Picklee)
        obj = Picklee(7)
        blob = pickle.dumps(obj)
        from repro.aop.cflow import bypassing_construction

        with bypassing_construction():
            restored = pickle.loads(blob)
        assert restored.double() == 14


class TestShimSemantics:
    def test_subclass_constructible_after_weave_unweave_cycle(self):
        class Base:
            def __init__(self, x):
                self.x = x

        class Child(Base):
            def __init__(self, x, y):
                super().__init__(x)
                self.y = y

        weave(Base)
        default_weaver.unweave(Base)
        child = Child(1, 2)  # regression: CPython tp_new slot quirk
        assert (child.x, child.y) == (1, 2)

    def test_reweave_after_unweave_works(self):
        class Thing:
            def __init__(self, v):
                self.v = v

            def get(self):
                return self.v

        weave(Thing)
        default_weaver.unweave(Thing)
        weave(Thing)

        class Tag(Aspect):
            @around("initialization(Thing.new(..))")
            def tag(self, jp):
                obj = jp.proceed()
                obj.tagged = True
                return obj

        deploy(Tag())
        thing = Thing(5)
        assert thing.tagged and thing.get() == 5


class TestWildcardClassPatterns:
    def test_star_pattern_spans_classes(self):
        class AlphaService:
            def run(self):
                return "a"

        class BetaService:
            def run(self):
                return "b"

        hits = []

        class All(Aspect):
            @around("call(*Service.run(..))")
            def note(self, jp):
                hits.append(jp.cls.__name__)
                return jp.proceed()

        weave(AlphaService)
        weave(BetaService)
        deploy(All())
        AlphaService().run()
        BetaService().run()
        assert hits == ["AlphaService", "BetaService"]


class TestConstructionInteractions:
    def test_two_aspects_nest_on_initialization(self):
        class Widget:
            def __init__(self):
                self.marks = []

        class Outer(Aspect):
            precedence = 10

            @around("initialization(Widget.new(..))")
            def outer(self, jp):
                obj = jp.proceed()
                obj.marks.append("outer")
                return obj

        class Inner(Aspect):
            precedence = 1

            @around("initialization(Widget.new(..))")
            def inner(self, jp):
                obj = jp.proceed()
                obj.marks.append("inner")
                return obj

        weave(Widget)
        deploy(Outer())
        deploy(Inner())
        widget = Widget()
        # inner advice runs closest to construction
        assert widget.marks == ["inner", "outer"]

    def test_outer_multi_proceed_runs_inner_each_time(self):
        class Widget:
            def __init__(self):
                pass

        inner_runs = []

        class Outer(Aspect):
            precedence = 10

            @around("initialization(Widget.new(..))")
            def outer(self, jp):
                first = jp.proceed()
                jp.proceed()
                jp.proceed()
                return first

        class Inner(Aspect):
            precedence = 1

            @around("initialization(Widget.new(..))")
            def inner(self, jp):
                inner_runs.append(1)
                return jp.proceed()

        weave(Widget)
        deploy(Outer())
        deploy(Inner())
        Widget()
        assert len(inner_runs) == 3

    def test_undeploy_mid_sequence_changes_construction(self):
        class Widget:
            def __init__(self):
                self.tagged = False

        class Tag(Aspect):
            @around("initialization(Widget.new(..))")
            def tag(self, jp):
                obj = jp.proceed()
                obj.tagged = True
                return obj

        weave(Widget)
        aspect = deploy(Tag())
        assert Widget().tagged
        undeploy(aspect)
        assert not Widget().tagged
