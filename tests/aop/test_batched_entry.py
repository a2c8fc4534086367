"""Pack-granular dispatch: batched_entry / BatchJoinPoint / batch plans.

Covers the batched-entry contract (one advice pass and one
BatchJoinPoint per pack, per-item results in order), its fallbacks,
plan invalidation on deploy/undeploy, and the regression that unweave
prunes batch plans and their PlanStats counters.
"""

from __future__ import annotations

import pytest

import repro.aop.plan as plan_mod
from repro.aop import (
    Aspect,
    BatchJoinPoint,
    around,
    batched_entry,
    deploy,
    undeploy,
    weave,
    unweave,
)
from repro.aop.joinpoint import JoinPointKind
from repro.aop.plan import MethodTable
from repro.aop.weaver import default_weaver


def make_target():
    class Target:
        def work(self, x, bias=0):
            return x * 2 + bias

    return Target


def batch_compiles(cls):
    """Batch-plan compilations of ``cls.work`` so far."""
    return default_weaver.plan_stats.batch_by_shadow.get(
        (cls, "work", JoinPointKind.CALL), 0
    )


PIECES = [((1,), {}), ((2,), {"bias": 10}), ((3,), {})]
EXPECTED = [2, 14, 6]


class _CountingBatchJP(BatchJoinPoint):
    __slots__ = ()
    allocations = 0

    def __init__(self, *args, **kwargs):
        type(self).allocations += 1
        super().__init__(*args, **kwargs)


@pytest.fixture()
def count_batch_jps(monkeypatch):
    _CountingBatchJP.allocations = 0
    monkeypatch.setattr(plan_mod, "BatchJoinPoint", _CountingBatchJP)
    return _CountingBatchJP


class TestBatchedEntryContract:
    def test_unwoven_object_falls_back_to_plain_loop(self):
        Target = make_target()
        assert batched_entry(Target(), "work")(PIECES) == EXPECTED

    def test_instance_override_wins(self):
        Target = make_target()
        weave(Target)
        obj = Target()
        obj.work = lambda x, bias=0: -x
        assert batched_entry(obj, "work")([((5,), {})]) == [-5]

    def test_woven_inert_allocates_no_joinpoints(self, count_batch_jps):
        Target = make_target()
        weave(Target)
        assert batched_entry(Target(), "work")(PIECES) == EXPECTED
        assert count_batch_jps.allocations == 0

    def test_advised_pack_runs_advice_once(self, count_batch_jps):
        Target = make_target()
        weave(Target)
        seen = []

        class Observe(Aspect):
            @around("call(Target.work(..))")
            def observe(self, jp):
                seen.append((jp.item_count, jp.merged_view()))
                return jp.proceed()

        deploy(Observe())
        assert batched_entry(Target(), "work")(PIECES) == EXPECTED
        assert count_batch_jps.allocations == 1  # ONE joinpoint per pack
        assert seen == [(3, ((1, 2, 3), {"bias": 10}))]

    def test_proceed_with_replacement_pack(self):
        Target = make_target()
        weave(Target)

        class Halve(Aspect):
            @around("call(Target.work(..))")
            def halve(self, jp):
                return jp.proceed(tuple(jp.pieces)[:1])

        deploy(Halve())
        assert batched_entry(Target(), "work")(PIECES) == [2]

    def test_three_level_chain_batched(self):
        Target = make_target()
        weave(Target)
        events = []

        class Pre(Aspect):
            precedence = 300

            @around("call(Target.work(..))")
            def pre(self, jp):
                events.append(("before", jp.item_count))
                return jp.proceed()

        class Post(Aspect):
            precedence = 200

            @around("call(Target.work(..))")
            def post(self, jp):
                try:
                    return jp.proceed()
                finally:
                    events.append(("after",))

        class Wrap(Aspect):
            precedence = 100

            @around("call(Target.work(..))")
            def wrap(self, jp):
                events.append(("around",))
                return jp.proceed()

        deploy(Pre())
        deploy(Post())
        deploy(Wrap())
        assert batched_entry(Target(), "work")(PIECES) == EXPECTED
        assert events == [("before", 3), ("around",), ("after",)]

    def test_call_piece_shaped_items(self):
        class Piece:
            def __init__(self, args, kwargs=None):
                self.args = args
                self.kwargs = kwargs or {}

        Target = make_target()
        weave(Target)
        assert batched_entry(Target(), "work")(
            [Piece((4,)), Piece((5,), {"bias": 1})]
        ) == [8, 11]


class TestBatchPlanInvalidation:
    def test_deploy_invalidates_cached_batch_plan(self):
        Target = make_target()
        weave(Target)
        obj = Target()
        assert batched_entry(obj, "work")([((1,), {})]) == [2]

        class Shift(Aspect):
            @around("call(Target.work(..))")
            def shift(self, jp):
                return [r + 100 for r in jp.proceed()]

        aspect = deploy(Shift())
        assert batched_entry(obj, "work")([((1,), {})]) == [102]
        undeploy(aspect)
        assert batched_entry(obj, "work")([((1,), {})]) == [2]

    def test_batch_compiles_are_counted_and_lazy(self):
        Target = make_target()
        weave(Target)
        assert batch_compiles(Target) == 0
        entry = batched_entry(Target(), "work")
        assert batch_compiles(Target) == 1
        entry(PIECES)
        batched_entry(Target(), "work")(PIECES)  # cached — no recompile
        assert batch_compiles(Target) == 2 - 1

    def test_unweave_prunes_batch_plans_and_counters(self):
        """Regression: unweave must prune batch plans exactly like call
        plans — PlanStats counters (batch included) and the shadow-held
        compiled impls must not outlive the class."""
        Target = make_target()
        weave(Target)
        batched_entry(Target(), "work")(PIECES)
        stats = default_weaver.plan_stats
        assert batch_compiles(Target) == 1
        unweave(Target)
        assert batch_compiles(Target) == 0
        assert not any(key[0] is Target for key in stats.by_shadow)
        assert not any(key[0] is Target for key in stats.batch_by_shadow)
        assert Target not in default_weaver._shadows
        # a fresh weave starts from a clean slate
        weave(Target)
        assert batched_entry(Target(), "work")(PIECES) == EXPECTED
        assert batch_compiles(Target) == 1


class TestMethodTableBatch:
    def test_invoke_batch_through_table(self):
        Target = make_target()
        weave(Target)
        calls = []

        class Price(Aspect):
            @around("call(Target.work(..))")
            def price(self, jp):
                calls.append(jp.item_count if isinstance(jp, BatchJoinPoint) else 1)
                return jp.proceed()

        deploy(Price())
        table = MethodTable(Target)
        assert table.invoke_batch(Target(), "work", PIECES) == EXPECTED
        assert calls == [3]

    def test_invoke_batch_caches_per_version_and_refreshes(self):
        Target = make_target()
        weave(Target)
        table = MethodTable(Target)
        obj = Target()
        assert table.invoke_batch(obj, "work", PIECES) == EXPECTED
        assert table.invoke_batch(obj, "work", PIECES) == EXPECTED
        # served from the version-keyed cache: one batch compile total
        assert batch_compiles(Target) == 1

        class Shift(Aspect):
            @around("call(Target.work(..))")
            def shift(self, jp):
                return [r + 100 for r in jp.proceed()]

        aspect = deploy(Shift())  # version moves -> table must refresh
        assert table.invoke_batch(obj, "work", [((1,), {})]) == [102]
        undeploy(aspect)
        assert table.invoke_batch(obj, "work", [((1,), {})]) == [2]

    def test_invoke_batch_instance_override(self):
        Target = make_target()
        weave(Target)
        obj = Target()
        obj.work = lambda x, bias=0: -x
        table = MethodTable(Target)
        assert table.invoke_batch(obj, "work", [((3,), {})]) == [-3]
