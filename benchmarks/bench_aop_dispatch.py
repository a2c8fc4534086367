"""Experiment E4 — real (wall-clock) AOP dispatch overhead.

The simulated Figure 16 models AspectJ's overhead with calibrated
constants; this bench *measures* our own engine's interception costs
with pytest-benchmark, grounding the model:

* plain method call (unwoven class);
* woven-inert call (class instrumented, no advice deployed);
* one around advice (the single-around fast path);
* a five-aspect stack (partition-like depth);
* a mixed-kind five-advice chain (before/after/after_returning alongside
  arounds), and a non-separable one (before/after between the arounds)
  — each compiled vs the generic interpreter;
* batched dispatch: an 8-piece pack through the compiled batched entry
  (one BatchJoinPoint per pack) vs 8 per-item calls — plus an invariant
  check that a farm with packing factor 8 allocates exactly one
  joinpoint per pack;
* re-plug churn: deploy/undeploy against many woven bystander classes,
  which exercises the targeted plan invalidation (only matching shadows
  recompile);
* initialization interception.

The table is read by people (``make bench-dispatch``); nothing gates
it.  What its pairs show as ratios is pinned as exact counts in
``tests/aop/test_dispatch_counts.py`` (Python calls per woven call, and
no interpreter call on a compiled chain); the inline asserts (one
joinpoint per pack, no interpreter call) still run under
``make bench-smoke``.
"""

from __future__ import annotations

import pytest

import repro.aop.plan as plan_mod
from repro.aop import (
    Aspect,
    after,
    after_returning,
    around,
    batched_entry,
    before,
    deploy,
    undeploy,
    undeploy_all,
    unweave_all,
    weave,
)
from repro.aop.joinpoint import JoinPointKind
from repro.aop.weaver import default_weaver

# bound calibration so the whole suite stays fast; dispatch costs are
# microseconds, 0.5 s of samples is plenty
pytestmark = pytest.mark.benchmark(max_time=0.5, min_rounds=5)

N = 1000


def make_target():
    class Target:
        def work(self, x):
            return x + 1

    return Target


def run_loop(obj):
    total = 0
    for i in range(N):
        total += obj.work(i)
    return total


@pytest.fixture(autouse=True)
def clean():
    undeploy_all()
    unweave_all()
    yield
    undeploy_all()
    unweave_all()


def test_plain_call(benchmark):
    Target = make_target()
    obj = Target()
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_woven_inert_call(benchmark):
    Target = make_target()
    weave(Target)
    obj = Target()
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_one_around_advice(benchmark):
    Target = make_target()

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Pass())
    obj = Target()
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_five_aspect_stack(benchmark):
    Target = make_target()

    def make_aspect(level):
        class Pass(Aspect):
            precedence = level

            @around("call(Target.work(..))")
            def passthrough(self, jp):
                return jp.proceed()

        return Pass()

    weave(Target)
    for level in range(5):
        deploy(make_aspect(level))
    obj = Target()
    stats = default_weaver.plan_stats
    interpreter_before = stats.interpreter_calls
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N
    # acceptance invariant: the five-aspect hot loop never entered the
    # generic interpreter (the fused all-around plan served every call)
    assert stats.interpreter_calls == interpreter_before


def deploy_mixed_five(Target):
    """Five advice of mixed kinds, separable (befores/afters outermost):
    the shape the compiled mixed plan covers."""

    class Pre(Aspect):
        precedence = 500

        @before("call(Target.work(..))")
        def pre(self, jp):
            pass

    class Post(Aspect):
        precedence = 400

        @after("call(Target.work(..))")
        def post(self, jp):
            pass

    class Ret(Aspect):
        precedence = 300

        @after_returning("call(Target.work(..))")
        def ret(self, jp):
            pass

    def make_around(level):
        class Wrap(Aspect):
            precedence = level

            @around("call(Target.work(..))")
            def wrap(self, jp):
                return jp.proceed()

        return Wrap()

    for aspect in (Pre(), Post(), Ret(), make_around(200), make_around(100)):
        deploy(aspect)


def test_mixed_five_advice_stack(benchmark):
    """The compiled mixed-chain plan (PR 2): befores/afters folded at
    compile time around the all-around recursion."""
    Target = make_target()
    weave(Target)
    deploy_mixed_five(Target)
    obj = Target()
    impl = vars(Target)["work"]
    assert "runner" in impl.__code__.co_freevars, "mixed plan not compiled"
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N


def test_mixed_five_advice_interpreted(benchmark):
    """The same five-advice mixed chain through the generic interpreter —
    the only path the seed had for mixed chains."""
    Target = make_target()
    weave(Target)
    deploy_mixed_five(Target)
    shadow = default_weaver._shadows[Target][("work", JoinPointKind.CALL)]
    impl = plan_mod._chain_impl(
        Target, "work", shadow.original, shadow.entries, False
    )
    obj = Target()

    def loop():
        total = 0
        for i in range(N):
            total += impl(obj, i)
        return total

    assert benchmark(loop) == N * (N - 1) // 2 + N


def deploy_nonseparable_five(Target):
    """Five advice with the before/after sorted BELOW (and between) the
    arounds — the non-separable shape that used to force the generic
    interpreter and now compiles by per-segment nesting."""

    def make_around(level):
        class Wrap(Aspect):
            precedence = level

            @around("call(Target.work(..))")
            def wrap(self, jp):
                return jp.proceed()

        return Wrap()

    class Pre(Aspect):
        precedence = 400

        @before("call(Target.work(..))")
        def pre(self, jp):
            pass

    class Post(Aspect):
        precedence = 200

        @after("call(Target.work(..))")
        def post(self, jp):
            pass

    for aspect in (make_around(500), Pre(), make_around(300), Post(),
                   make_around(100)):
        deploy(aspect)


def test_nonseparable_five_advice_stack(benchmark):
    """The compiled non-separable plan: before/after runs folded into
    the around level beneath them, the around spine fused — zero
    interpreter entries on the hot loop (asserted)."""
    Target = make_target()
    weave(Target)
    deploy_nonseparable_five(Target)
    obj = Target()
    impl = vars(Target)["work"]
    assert "runner" in impl.__code__.co_freevars, "chain did not compile"
    assert impl.__aop_plan_kind__ == "mixed"
    stats = default_weaver.plan_stats
    interpreter_before = stats.interpreter_calls
    assert benchmark(lambda: run_loop(obj)) == N * (N - 1) // 2 + N
    assert stats.interpreter_calls == interpreter_before


def test_nonseparable_five_advice_interpreted(benchmark):
    """The same non-separable five-advice chain through the generic
    interpreter — the only path such chains had before per-segment
    nesting."""
    Target = make_target()
    weave(Target)
    deploy_nonseparable_five(Target)
    shadow = default_weaver._shadows[Target][("work", JoinPointKind.CALL)]
    impl = plan_mod._chain_impl(
        Target, "work", shadow.original, shadow.entries, False
    )
    obj = Target()

    def loop():
        total = 0
        for i in range(N):
            total += impl(obj, i)
        return total

    assert benchmark(loop) == N * (N - 1) // 2 + N


PACK = 8


def test_batched_pack8_dispatch(benchmark):
    """One 8-piece pack through the compiled batched entry: the advice
    chain runs once per pack (one BatchJoinPoint)."""
    Target = make_target()

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Pass())
    obj = Target()
    pieces = [((i,), {}) for i in range(PACK)]
    expected = [i + 1 for i in range(PACK)]

    # invariant: one joinpoint per pack (recorded alongside the timing)
    counts = {"batch": 0, "jp": 0}

    class CountingBatchJP(plan_mod.BatchJoinPoint):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            counts["batch"] += 1
            super().__init__(*args, **kwargs)

    class CountingJP(plan_mod.JoinPoint):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            counts["jp"] += 1
            super().__init__(*args, **kwargs)

    saved = plan_mod.JoinPoint, plan_mod.BatchJoinPoint
    plan_mod.JoinPoint, plan_mod.BatchJoinPoint = CountingJP, CountingBatchJP
    try:
        assert batched_entry(obj, "work")(pieces) == expected
    finally:
        plan_mod.JoinPoint, plan_mod.BatchJoinPoint = saved
    assert counts == {"batch": 1, "jp": 0}

    def loop():
        out = None
        for _ in range(N // PACK):
            out = batched_entry(obj, "work")(pieces)
        return out

    assert benchmark(loop) == expected


def test_unbatched_pack8_dispatch(benchmark):
    """The same 8 pieces as 8 per-item calls — what every skeleton paid
    before batched entry points (one JoinPoint and one advice pass per
    item)."""
    Target = make_target()

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Pass())
    obj = Target()

    def loop():
        out = None
        for _ in range(N // PACK):
            out = [obj.work(i) for i in range(PACK)]
        return out

    assert benchmark(loop) == [i + 1 for i in range(PACK)]


def test_replug_with_woven_bystanders(benchmark):
    """Deploy+undeploy one narrowly-scoped aspect while 20 other woven
    classes stand by: the static match index must keep re-plug cost
    independent of how much unrelated code is woven."""
    Target = make_target()
    weave(Target)
    bystanders = []
    for i in range(20):
        cls = type(f"Bystander{i}", (), {"run": lambda self, x: x})
        weave(cls)
        bystanders.append(cls)

    class Pass(Aspect):
        @around("call(Target.work(..))")
        def passthrough(self, jp):
            return jp.proceed()

    def replug():
        aspect = deploy(Pass())
        undeploy(aspect)

    benchmark(replug)


def test_initialization_interception(benchmark):
    Target = make_target()

    class Tag(Aspect):
        @around("initialization(Target.new(..))")
        def tag(self, jp):
            return jp.proceed()

    weave(Target)
    deploy(Tag())

    def build():
        for _ in range(100):
            Target()

    benchmark(build)
