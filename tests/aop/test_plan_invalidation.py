"""Targeted plan invalidation: deploy/undeploy must recompile only the
shadows whose pointcuts can actually match (the static shadow→deployment
index), not every woven class in the process.

Regression for the global-epoch behaviour the interpreted weaver had:
any deploy bumped one global epoch, invalidating every shadow's cached
chain — exactly wrong for re-plugging aspects under heavy traffic.
"""

from __future__ import annotations

import pytest

from repro.aop import Aspect, around, deploy, undeploy, weave
from repro.aop.joinpoint import JoinPointKind
from repro.aop.plan import Shadow
from repro.aop.weaver import default_weaver


def make_jacobi():
    class Jacobi:
        def step(self, n):
            return n

        def residual(self):
            return 0.0

    return Jacobi


def make_primes():
    class Primes:
        def filter(self, pack):
            return pack

        def count(self):
            return 0

    return Primes


def jacobi_aspect():
    class JacobiTrace(Aspect):
        @around("call(Jacobi.*(..))")
        def trace(self, jp):
            return jp.proceed()

    return JacobiTrace()


class TestTargetedInvalidation:
    def test_deploy_does_not_recompile_unrelated_shadows(self):
        Jacobi, Primes = make_jacobi(), make_primes()
        weave(Jacobi)
        weave(Primes)
        stats = default_weaver.plan_stats
        primes_before = {
            name: stats.count(Primes, name) for name in ("filter", "count")
        }
        jacobi_before = stats.count(Jacobi, "step")

        deploy(jacobi_aspect())

        assert stats.count(Jacobi, "step") == jacobi_before + 1
        for name, count in primes_before.items():
            assert stats.count(Primes, name) == count, (
                f"deploying a Jacobi.* aspect recompiled Primes.{name}"
            )

    def test_undeploy_recompiles_only_matched_shadows(self):
        Jacobi, Primes = make_jacobi(), make_primes()
        weave(Jacobi)
        weave(Primes)
        aspect = deploy(jacobi_aspect())
        stats = default_weaver.plan_stats
        primes_before = stats.snapshot()

        undeploy(aspect)

        after = stats.snapshot()
        for (cls, name, kind), count in primes_before.items():
            if cls is Primes:
                assert after[(cls, name, kind)] == count
        assert (
            after[(Jacobi, "step", JoinPointKind.CALL)]
            == primes_before[(Jacobi, "step", JoinPointKind.CALL)] + 1
        )

    def test_compile_hook_reports_shadows(self):
        Jacobi, Primes = make_jacobi(), make_primes()
        weave(Jacobi)
        weave(Primes)
        seen: list[Shadow] = []
        default_weaver.plan_stats.hooks.append(seen.append)
        try:
            deploy(jacobi_aspect())
        finally:
            default_weaver.plan_stats.hooks.clear()
        assert seen, "deploy compiled no plans"
        assert all(shadow.cls is Jacobi for shadow in seen)
        assert {s.name for s in seen} <= {"step", "residual", "__init__"}

    def test_advice_still_applies_after_targeted_recompile(self):
        Jacobi, Primes = make_jacobi(), make_primes()
        weave(Jacobi)
        weave(Primes)
        calls = []

        class JacobiTrace(Aspect):
            @around("call(Jacobi.step(..))")
            def trace(self, jp):
                calls.append(jp.name)
                return jp.proceed()

        aspect = deploy(JacobiTrace())
        assert Jacobi().step(3) == 3
        assert Primes().filter([1]) == [1]
        assert calls == ["step"]
        undeploy(aspect)
        assert Jacobi().step(3) == 3
        assert calls == ["step"]

    def test_inert_plan_is_marked_and_advised_plan_is_not(self):
        Jacobi = make_jacobi()
        weave(Jacobi)
        assert getattr(Jacobi.step, "__aop_inert__", False)
        aspect = deploy(jacobi_aspect())
        assert not getattr(Jacobi.step, "__aop_inert__", False)
        assert getattr(Jacobi.step, "__aop_dispatcher__", False)
        undeploy(aspect)
        assert getattr(Jacobi.step, "__aop_inert__", False)

    def test_wildcard_deploy_invalidates_broadly(self):
        """A ``*.*`` signature matches every shadow, so the index must
        recompile every woven class's shadows."""
        Jacobi, Primes = make_jacobi(), make_primes()
        weave(Jacobi)
        weave(Primes)
        stats = default_weaver.plan_stats
        before = stats.count(Primes, "filter")

        class Wide(Aspect):
            @around("call(*.*(..))")
            def wide(self, jp):
                return jp.proceed()

        deploy(Wide())
        assert stats.count(Primes, "filter") == before + 1


class TestDeclareParentsInvalidation:
    """declare_parents changes the subtype relation that *other*
    deployments' ``Base+`` pointcuts match against — such deploys must
    rebuild every deployment's match index, not just their own."""

    def _setup(self):
        from repro.aop import declare_parents

        class Base:
            pass

        class C:
            def run(self):
                return "run"

        calls = []

        class Subtyped(Aspect):
            @around("call(Base+.run(..))")
            def advise(self, jp):
                calls.append(jp.name)
                return jp.proceed()

        class Reparent(Aspect):
            parents = (declare_parents(C, Base),)

        weave(C)
        return Base, C, calls, Subtyped, Reparent

    def test_parent_declaration_activates_existing_subtype_pointcut(self):
        Base, C, calls, Subtyped, Reparent = self._setup()
        deploy(Subtyped())
        C().run()
        assert calls == []  # C is not a Base yet
        deploy(Reparent())  # now it is — Subtyped must attach to C.run
        C().run()
        assert calls == ["run"]

    def test_parent_undeclaration_detaches_subtype_pointcut(self):
        Base, C, calls, Subtyped, Reparent = self._setup()
        reparent = deploy(Reparent())
        deploy(Subtyped())
        C().run()
        assert calls == ["run"]
        undeploy(reparent)  # C is no longer a Base — advice must detach
        C().run()
        assert calls == ["run"]


class TestPlanShapes:
    def test_single_around_fast_path_proceed_semantics(self):
        Jacobi = make_jacobi()
        weave(Jacobi)
        seen = []

        class Doubler(Aspect):
            @around("call(Jacobi.step(..))")
            def double(self, jp):
                seen.append(jp.args)
                first = jp.proceed()
                second = jp.proceed(first + 10)  # replacement args
                assert jp.args == seen[-1]  # level view restored
                return second

        deploy(Doubler())
        assert Jacobi().step(5) == 15
        assert seen == [(5,)]

    def test_fast_path_exception_restores_state(self):
        Jacobi = make_jacobi()
        weave(Jacobi)

        class Boom(Aspect):
            @around("call(Jacobi.step(..))")
            def boom(self, jp):
                raise RuntimeError("advice failed")

        deploy(Boom())
        obj = Jacobi()
        with pytest.raises(RuntimeError):
            obj.step(1)
        from repro.aop.cflow import flow_state, in_advice

        assert flow_state().advice_depth == 0
        assert not in_advice()
