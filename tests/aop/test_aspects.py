"""Aspect declaration semantics: precedence, abstract aspects, named
pointcuts, inter-type declarations, advice overriding."""

from __future__ import annotations

import pytest

from repro.aop import (
    Aspect,
    abstract_pointcut,
    around,
    declare_parents,
    deploy,
    introduce,
    is_subtype,
    pointcut,
    undeploy,
    weave,
)
from repro.errors import DeploymentError, IntertypeError


def make_service():
    class Service:
        def ping(self):
            return "pong"

        def echo(self, text):
            return text

    return Service


class TestPrecedence:
    def test_higher_precedence_wraps_outermost(self):
        Service = make_service()
        order = []

        def mk(name, level):
            class A(Aspect):
                precedence = level

                @around("call(Service.ping(..))")
                def advice(self, jp):
                    order.append(f"{name}>")
                    result = jp.proceed()
                    order.append(f"<{name}")
                    return result

            A.__name__ = name
            return A()

        weave(Service)
        deploy(mk("low", 1))
        deploy(mk("high", 10))
        Service().ping()
        assert order == ["high>", "low>", "<low", "<high"]

    def test_equal_precedence_uses_deployment_order(self):
        Service = make_service()
        order = []

        def mk(name):
            class A(Aspect):
                @around("call(Service.ping(..))")
                def advice(self, jp):
                    order.append(name)
                    return jp.proceed()

            return A()

        weave(Service)
        deploy(mk("first"))
        deploy(mk("second"))
        Service().ping()
        assert order == ["first", "second"]

    def test_declaration_order_within_aspect(self):
        Service = make_service()
        order = []

        class A(Aspect):
            @around("call(Service.ping(..))")
            def outer(self, jp):
                order.append("outer>")
                result = jp.proceed()
                order.append("<outer")
                return result

            @around("call(Service.ping(..))")
            def inner(self, jp):
                order.append("inner>")
                result = jp.proceed()
                order.append("<inner")
                return result

        weave(Service)
        deploy(A())
        Service().ping()
        assert order == ["outer>", "inner>", "<inner", "<outer"]

    def test_code_before_and_after_proceed_nests_by_precedence(self):
        Service = make_service()
        order = []

        class A(Aspect):
            precedence = 10

            @around("call(Service.ping(..))")
            def pre(self, jp):
                order.append("before")
                return jp.proceed()

        class B(Aspect):
            precedence = 5

            @around("call(Service.ping(..))")
            def wrap(self, jp):
                order.append("around>")
                result = jp.proceed()
                order.append("<around")
                return result

        class C(Aspect):
            precedence = 1

            @around("call(Service.ping(..))")
            def post(self, jp):
                try:
                    return jp.proceed()
                finally:
                    order.append("after")

        weave(Service)
        deploy(A())
        deploy(B())
        deploy(C())
        Service().ping()
        assert order == ["before", "around>", "after", "<around"]


class TestAbstractAspects:
    def test_abstract_aspect_cannot_deploy(self):
        class AbstractLogger(Aspect):
            targets = abstract_pointcut("what to log")

            @around("targets")
            def log(self, jp):
                return jp.proceed()

        aspect = AbstractLogger()
        assert aspect.is_abstract()
        with pytest.raises(DeploymentError):
            deploy(aspect)

    def test_concrete_subclass_binds_pointcut(self):
        Service = make_service()
        hits = []

        class AbstractLogger(Aspect):
            targets = abstract_pointcut()

            @around("targets")
            def log(self, jp):
                hits.append(jp.name)
                return jp.proceed()

        class ServiceLogger(AbstractLogger):
            targets = pointcut("call(Service.ping(..))")

        weave(Service)
        deploy(ServiceLogger())
        svc = Service()
        svc.ping()
        svc.echo("x")
        assert hits == ["ping"]

    def test_instance_attribute_binds_pointcut(self):
        """Binding at construction (how the partition aspects work)."""
        Service = make_service()
        hits = []

        class Generic(Aspect):
            targets = abstract_pointcut()

            def __init__(self, targets=None):
                if targets is not None:
                    self.targets = pointcut(targets)

            @around("targets")
            def log(self, jp):
                hits.append(jp.name)
                return jp.proceed()

        weave(Service)
        deploy(Generic(targets="call(Service.echo(..))"))
        svc = Service()
        svc.ping()
        svc.echo("x")
        assert hits == ["echo"]

    def test_named_pointcut_string_indirection(self):
        Service = make_service()
        hits = []

        class A(Aspect):
            mine = "call(Service.ping(..))"  # named pointcut as string

            @around("mine")
            def log(self, jp):
                hits.append(1)
                return jp.proceed()

        weave(Service)
        deploy(A())
        Service().ping()
        assert hits == [1]

    def test_unknown_named_pointcut_fails_at_deploy(self):
        class A(Aspect):
            @around("nonexistent_name")
            def log(self, jp):
                return jp.proceed()

        with pytest.raises(DeploymentError):
            deploy(A())

    def test_cyclic_named_pointcut_detected(self):
        class A(Aspect):
            alpha = "alpha"

            @around("alpha")
            def log(self, jp):
                return jp.proceed()

        with pytest.raises(DeploymentError):
            deploy(A())


class TestAdviceOverriding:
    def test_subclass_overrides_inherited_advice(self):
        Service = make_service()
        hits = []

        class Base(Aspect):
            @around("call(Service.ping(..))")
            def advice(self, jp):
                hits.append("base")
                return jp.proceed()

        class Derived(Base):
            @around("call(Service.ping(..))")
            def advice(self, jp):
                hits.append("derived")
                return jp.proceed()

        weave(Service)
        deploy(Derived())
        Service().ping()
        # exactly once, from the subclass
        assert hits == ["derived"]

    def test_subclass_inherits_advice_unchanged(self):
        Service = make_service()
        hits = []

        class Base(Aspect):
            @around("call(Service.ping(..))")
            def advice(self, jp):
                hits.append(type(self).__name__)
                return jp.proceed()

        class Derived(Base):
            pass

        weave(Service)
        deploy(Derived())
        Service().ping()
        assert hits == ["Derived"]


class TestIntertype:
    def test_introduce_method(self):
        Service = make_service()

        class Intro(Aspect):
            @introduce(Service)
            def shout(self, text):
                return text.upper()

        aspect = deploy(Intro())
        assert Service().shout("hey") == "HEY"
        undeploy(aspect)
        assert not hasattr(Service, "shout")

    def test_introduce_conflicting_member_rejected(self):
        Service = make_service()

        class Clash(Aspect):
            @introduce(Service)
            def ping(self):  # Service already has ping
                return "hijacked"

        with pytest.raises(IntertypeError):
            deploy(Clash())
        # failed deploy leaves no partial state
        assert Service().ping() == "pong"

    def test_declare_parents_lifecycle(self):
        Service = make_service()

        class Marker:
            pass

        class Declares(Aspect):
            parents = [declare_parents(Service, Marker)]

        aspect = deploy(Declares())
        assert is_subtype(Service, Marker)
        undeploy(aspect)
        assert not is_subtype(Service, Marker)

    def test_declare_parents_self_rejected(self):
        Service = make_service()

        class Bad(Aspect):
            parents = [declare_parents(Service, Service)]

        with pytest.raises(IntertypeError):
            deploy(Bad())

    def test_lifecycle_hooks_run(self):
        events = []

        class Hooked(Aspect):
            @around("call(X.f(..))")
            def advice(self, jp):
                return jp.proceed()

            def on_deploy(self):
                events.append("deployed")

            def on_undeploy(self):
                events.append("undeployed")

        aspect = deploy(Hooked())
        undeploy(aspect)
        assert events == ["deployed", "undeployed"]
