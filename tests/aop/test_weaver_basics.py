"""Weaving + advice basics: the mechanics of paper Section 3."""

from __future__ import annotations

import pytest

from repro.aop import (
    Aspect,
    around,
    deploy,
    raw_construct,
    undeploy,
    unweave,
    weave,
)
from repro.aop.weaver import default_weaver, is_woven
from repro.errors import ProceedError, WeaveError


def make_point():
    """Fresh Point class per test (weaving mutates the class)."""

    class Point:
        def __init__(self):
            self.x = 0
            self.y = 0

        def move_x(self, delta):
            self.x += delta
            return self.x

        def move_y(self, delta):
            self.y += delta
            return self.y

    return Point


class TestWeaving:
    def test_woven_class_behaves_identically_without_aspects(self):
        Point = make_point()
        weave(Point)
        p = Point()
        assert p.move_x(10) == 10
        assert p.move_y(5) == 5
        assert (p.x, p.y) == (10, 5)

    def test_weave_is_idempotent(self):
        Point = make_point()
        weave(Point)
        weave(Point)
        assert Point().move_x(1) == 1

    def test_is_woven_flag(self):
        Point = make_point()
        assert not is_woven(Point)
        weave(Point)
        assert is_woven(Point)

    def test_unweave_restores_original_methods(self):
        Point = make_point()
        original = Point.move_x
        weave(Point)
        assert Point.move_x is not original
        unweave(Point)
        assert Point.move_x is original
        assert Point().move_x(3) == 3

    def test_unweave_unwoven_class_raises(self):
        Point = make_point()
        with pytest.raises(WeaveError):
            unweave(Point)

    def test_weave_non_class_raises(self):
        with pytest.raises(WeaveError):
            weave(42)

    def test_weave_specific_methods_only(self):
        Point = make_point()
        weave(Point, methods=["move_x"])
        calls = []

        class Log(Aspect):
            @around("call(Point.move*(..))")
            def log(self, jp):
                calls.append(jp.name)
                return jp.proceed()

        deploy(Log())
        p = Point()
        p.move_x(1)
        p.move_y(1)  # not woven -> not intercepted
        assert calls == ["move_x"]

    def test_weave_unknown_method_raises(self):
        Point = make_point()
        with pytest.raises(WeaveError):
            weave(Point, methods=["no_such_method"])


class TestAroundAdvice:
    def test_code_before_proceed_runs_first(self):
        Point = make_point()
        order = []

        class A(Aspect):
            @around("call(Point.move_x(..))")
            def note(self, jp):
                order.append("before")
                return jp.proceed()

        weave(Point)
        deploy(A())
        p = Point()
        p.move_x(2)
        order.append("after-call")
        assert order == ["before", "after-call"]

    def test_around_advice_replaces_and_proceeds(self):
        Point = make_point()

        class Double(Aspect):
            @around("call(Point.move_x(..))")
            def double(self, jp):
                (delta,) = jp.args
                return jp.proceed(delta * 2)

        weave(Point)
        deploy(Double())
        p = Point()
        assert p.move_x(10) == 20
        assert p.x == 20

    def test_around_can_skip_proceed(self):
        Point = make_point()

        class Block(Aspect):
            @around("call(Point.move_x(..))")
            def block(self, jp):
                return -1

        weave(Point)
        deploy(Block())
        p = Point()
        assert p.move_x(10) == -1
        assert p.x == 0  # original never ran

    def test_around_can_proceed_multiple_times(self):
        Point = make_point()

        class Twice(Aspect):
            @around("call(Point.move_x(..))")
            def twice(self, jp):
                jp.proceed()
                return jp.proceed()

        weave(Point)
        deploy(Twice())
        p = Point()
        assert p.move_x(5) == 10
        assert p.x == 10

    def test_code_after_proceed_sees_the_result(self):
        Point = make_point()
        seen = []

        class Observe(Aspect):
            @around("call(Point.move_x(..))")
            def observe(self, jp):
                result = jp.proceed()
                seen.append(result)
                return result

        weave(Point)
        deploy(Observe())
        Point().move_x(7)
        assert seen == [7]

    def test_advice_sees_the_exception_and_reraises(self):
        class Boom:
            def explode(self):
                raise ValueError("bang")

        seen = []

        class Catcher(Aspect):
            @around("call(Boom.explode(..))")
            def caught(self, jp):
                try:
                    return jp.proceed()
                except ValueError as exc:
                    seen.append(type(exc).__name__)
                    raise

        weave(Boom)
        deploy(Catcher())
        with pytest.raises(ValueError):
            Boom().explode()
        assert seen == ["ValueError"]

    def test_finally_around_proceed_runs_on_both_paths(self):
        class Maybe:
            def work(self, ok):
                if not ok:
                    raise RuntimeError("no")
                return "yes"

        runs = []

        class Fin(Aspect):
            @around("call(Maybe.work(..))")
            def fin(self, jp):
                try:
                    return jp.proceed()
                finally:
                    runs.append("fin")

        weave(Maybe)
        deploy(Fin())
        m = Maybe()
        assert m.work(True) == "yes"
        with pytest.raises(RuntimeError):
            m.work(False)
        assert runs == ["fin", "fin"]

    def test_proceed_after_the_advice_returned_raises(self):
        Point = make_point()
        captured = {}

        class Cap(Aspect):
            @around("call(Point.move_x(..))")
            def cap(self, jp):
                captured["jp"] = jp
                return jp.proceed()

        weave(Point)
        deploy(Cap())
        Point().move_x(1)
        with pytest.raises(ProceedError):
            captured["jp"].proceed()


class TestPlugUnplug:
    """The paper's core claim: concerns can be (un)plugged on the fly."""

    def test_undeploy_disables_advice(self):
        Point = make_point()
        count = [0]

        class C(Aspect):
            @around("call(Point.move_x(..))")
            def c(self, jp):
                count[0] += 1
                return jp.proceed()

        weave(Point)
        aspect = deploy(C())
        p = Point()
        p.move_x(1)
        undeploy(aspect)
        p.move_x(1)
        assert count[0] == 1

    def test_redeploy_after_undeploy(self):
        Point = make_point()
        count = [0]

        class C(Aspect):
            @around("call(Point.move_x(..))")
            def c(self, jp):
                count[0] += 1
                return jp.proceed()

        weave(Point)
        a = C()
        deploy(a)
        undeploy(a)
        deploy(a)
        Point().move_x(1)
        assert count[0] == 1

    def test_deploying_same_instance_twice_raises(self):
        from repro.errors import DeploymentError

        class C(Aspect):
            @around("call(X.f(..))")
            def c(self, jp):
                return jp.proceed()

        a = C()
        deploy(a)
        with pytest.raises(DeploymentError):
            deploy(a)

    def test_undeploying_undeployed_raises(self):
        from repro.errors import DeploymentError

        class C(Aspect):
            @around("call(X.f(..))")
            def c(self, jp):
                return jp.proceed()

        with pytest.raises(DeploymentError):
            undeploy(C())

    def test_deploy_with_targets_weaves_them(self):
        Point = make_point()
        count = [0]

        class C(Aspect):
            @around("call(Point.move*(..))")
            def c(self, jp):
                count[0] += 1
                return jp.proceed()

        deploy(C(), targets=[Point])
        assert is_woven(Point)
        Point().move_x(1)
        assert count[0] == 1


class TestConstructionInterception:
    def test_initialization_around_controls_instance(self):
        Point = make_point()

        class Tag(Aspect):
            @around("initialization(Point.new(..))")
            def tag(self, jp):
                obj = jp.proceed()
                obj.tagged = True
                return obj

        weave(Point)
        deploy(Tag())
        p = Point()
        assert p.tagged is True
        assert p.x == 0  # original __init__ ran exactly once

    def test_initialization_proceed_multiple_creates_fresh_instances(self):
        """Object duplication — paper Figure 4."""

        class Filter:
            def __init__(self, lo, hi):
                self.lo, self.hi = lo, hi

        created = []

        class Duplicate(Aspect):
            @around("initialization(Filter.new(..))")
            def dup(self, jp):
                for i in range(3):
                    obj = jp.proceed(i, i + 10)
                    created.append(obj)
                return created[0]

        weave(Filter)
        deploy(Duplicate())
        first = Filter(2, 100)
        assert first is created[0]
        assert len({id(o) for o in created}) == 3
        assert [(o.lo, o.hi) for o in created] == [(0, 10), (1, 11), (2, 12)]

    def test_initialization_advice_may_return_other_object(self):
        class Impl:
            def __init__(self):
                self.kind = "impl"

        class Swap(Aspect):
            @around("initialization(Impl.new(..))")
            def swap(self, jp):
                return "not-an-impl"

        weave(Impl)
        deploy(Swap())
        assert Impl() == "not-an-impl"

    def test_construction_inside_advice_is_not_reintercepted(self):
        """Paper: the creation pointcut only sees core-functionality news."""

        class Widget:
            def __init__(self):
                self.nested = None

        count = [0]

        class Make(Aspect):
            @around("initialization(Widget.new(..))")
            def make(self, jp):
                count[0] += 1
                obj = jp.proceed()
                obj.nested = Widget()  # direct construction from advice
                return obj

        weave(Widget)
        deploy(Make())
        w = Widget()
        assert count[0] == 1
        assert isinstance(w.nested, Widget)
        assert w.nested.nested is None

    def test_raw_construct_bypasses_interception(self):
        class Thing:
            def __init__(self, v):
                self.v = v

        class Never(Aspect):
            @around("initialization(Thing.new(..))")
            def never(self, jp):
                raise AssertionError("should not run")

        weave(Thing)
        deploy(Never())
        t = raw_construct(Thing, 9)
        assert t.v == 9

    def test_call_inside_advice_is_reintercepted(self):
        """Paper Figure 7 block 3: forwarding applies recursively."""

        class Stage:
            def __init__(self):
                self.seen = []

            def compute(self, depth):
                self.seen.append(depth)
                return depth

        class Forward(Aspect):
            @around("call(Stage.compute(..))")
            def fwd(self, jp):
                result = jp.proceed()
                (depth,) = jp.args
                if depth < 3:
                    jp.target.compute(depth + 1)  # re-intercepted
                return result

        weave(Stage)
        deploy(Forward())
        s = Stage()
        s.compute(0)
        assert s.seen == [0, 1, 2, 3]

    def test_unweave_restores_construction(self):
        Point = make_point()

        class Tag(Aspect):
            @around("initialization(Point.new(..))")
            def tag(self, jp):
                obj = jp.proceed()
                obj.tagged = True
                return obj

        weave(Point)
        a = deploy(Tag())
        assert Point().tagged
        undeploy(a)
        unweave(Point)
        assert not hasattr(Point(), "tagged")

    def test_constructor_args_flow_through(self):
        class Filter:
            def __init__(self, lo, hi):
                self.lo, self.hi = lo, hi

        class Shift(Aspect):
            @around("initialization(Filter.new(..))")
            def shift(self, jp):
                lo, hi = jp.args
                return jp.proceed(lo + 1, hi + 1)

        weave(Filter)
        deploy(Shift())
        f = Filter(2, 100)
        assert (f.lo, f.hi) == (3, 101)


class TestWeaverRegistry:
    def test_deployed_listing(self):
        class A(Aspect):
            @around("call(X.f(..))")
            def f(self, jp):
                return jp.proceed()

        a = A()
        deploy(a)
        assert default_weaver.deployed == (a,)
        assert default_weaver.is_deployed(a)
