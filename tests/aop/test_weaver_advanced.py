"""Advanced weaving behaviours: isolated weavers, pickling woven
instances, shim semantics after unweave, wildcard class patterns,
interactions between multiple aspects on construction, and captured
continuations replayed on another thread."""

from __future__ import annotations

import copy
import gc
import pickle
import threading

import pytest

from repro.aop import Aspect, JoinPoint, around, deploy, undeploy, weave
from repro.aop.weaver import Weaver, default_weaver
from repro.errors import ProceedError


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


def make_work():
    class Work:
        def __init__(self):
            self.runs = []

        def run(self, x):
            self.runs.append(x)
            return x * 10

    return Work


def on_a_thread(fn):
    """Start ``fn`` on a fresh thread and return the thread."""
    thread = threading.Thread(target=fn)
    thread.start()
    return thread


def joined(thread):
    thread.join(5)
    assert not thread.is_alive()


class TestCapturedProceed:
    def test_a_replayed_capture_leaves_no_joinpoint_behind(self):
        """A capture replayed on another thread holds its joinpoint in
        no reference cycle: with the collector off, every joinpoint of
        the calls is freed when the call returns."""
        Work = make_work()

        class Defer(Aspect):
            @around("call(Work.run(..))")
            def defer(self, jp):
                continuation = jp.capture_proceed()
                out = []
                joined(on_a_thread(lambda: out.append(continuation())))
                return out[0]

        weave(Work)
        deploy(Defer())
        work = Work()
        payload = bytes(1024)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(50):
                assert work.run(payload) == payload * 10
            alive = sum(
                1 for obj in gc.get_objects()
                if isinstance(obj, JoinPoint) and obj.cls is Work
            )
        finally:
            if enabled:
                gc.enable()
        assert alive == 0
        assert len(work.runs) == 50

    def test_a_replay_leaves_the_capturing_view_alone(self):
        """An outer advice that proceeds with substituted arguments into
        a level that captures reads its own arguments after the replay
        ran."""
        Work = make_work()
        proceeded = threading.Event()
        replayed = threading.Event()
        seen = {}

        class Outer(Aspect):
            precedence = 10

            @around("call(Work.run(..))")
            def outer(self, jp):
                out = jp.proceed(2)
                proceeded.set()
                assert replayed.wait(5)
                seen["outer args"] = jp.args
                return out

        class Capture(Aspect):
            precedence = 1

            @around("call(Work.run(..))")
            def capture(self, jp):
                continuation = jp.capture_proceed()

                def later():
                    assert proceeded.wait(5)
                    seen["replay"] = continuation()
                    replayed.set()

                seen["thread"] = on_a_thread(later)
                return "deferred"

        weave(Work)
        deploy(Outer())
        deploy(Capture())
        work = Work()
        assert work.run(1) == "deferred"
        joined(seen["thread"])
        assert seen["replay"] == 20
        assert work.runs == [2]
        assert seen["outer args"] == (1,)

    def test_proceed_after_a_deferred_replay_is_refused(self):
        """After a deferred replay the replaying thread holds no live
        run: its ``jp.proceed()`` raises instead of running the target
        again."""
        Work = make_work()
        returned = threading.Event()
        seen = {}

        class Defer(Aspect):
            @around("call(Work.run(..))")
            def defer(self, jp):
                continuation = jp.capture_proceed()

                def later():
                    assert returned.wait(5)
                    seen["replay"] = continuation()
                    try:
                        jp.proceed()
                        seen["second proceed"] = "ran"
                    except ProceedError:
                        seen["second proceed"] = "refused"

                seen["thread"] = on_a_thread(later)
                return "deferred"

        weave(Work)
        deploy(Defer())
        work = Work()
        assert work.run(3) == "deferred"
        returned.set()
        joined(seen["thread"])
        assert seen["replay"] == 30
        assert seen["second proceed"] == "refused"
        assert work.runs == [3]
