"""Woven-call dispatch cost, as counts instead of timings.

Python-level ``call`` events per woven call (``sys.setprofile``) over
100 calls after a warm-up, each call made through a one-line caller so
the compiled and the interpreted paths are counted alike.  Counts
repeat where timings do not, so this runs in tier-1; the numbers are
printed (``pytest -s``).

* a woven class with no advice deployed costs exactly a plain call;
* a chain the plan compiler specialises never enters the interpreter
  (``plan_stats.interpreter_calls`` does not move) and stays under the
  same chain run by the interpreter, :func:`repro.aop.plan._chain_impl`.
"""

from __future__ import annotations

import sys

import pytest

import repro.aop.plan as plan_mod
from repro.aop import Aspect, after, after_returning, around, before, deploy, weave
from repro.aop.joinpoint import JoinPointKind
from repro.aop.weaver import default_weaver

CALLS = 100
WARM = 10


def make_target():
    class Target:
        def work(self, x):
            return x + 1

    return Target


def around_at(level):
    class Wrap(Aspect):
        precedence = level

        @around("call(Target.work(..))")
        def wrap(self, jp):
            return jp.proceed()

    return Wrap()


def before_at(level):
    class Pre(Aspect):
        precedence = level

        @before("call(Target.work(..))")
        def pre(self, jp):
            pass

    return Pre()


def after_at(level):
    class Post(Aspect):
        precedence = level

        @after("call(Target.work(..))")
        def post(self, jp):
            pass

    return Post()


def after_returning_at(level):
    class Ret(Aspect):
        precedence = level

        @after_returning("call(Target.work(..))")
        def ret(self, jp):
            pass

    return Ret()


#: shape -> (its advice, the plan kind it compiles to, the ceiling on
#: calls per woven call).  Each ceiling sits ~10 % above what CPython
#: 3.11 measures, the same on every run: one around 5; five arounds 13
#: (37 interpreted); before/after/after-returning outermost over two
#: arounds 17 (31 interpreted); before and after between three arounds,
#: the non-separable shape, 23 (33 interpreted)
SHAPES = {
    "one-around": (lambda: [around_at(0)], "single-around", 6),
    "five-arounds": (
        lambda: [around_at(level) for level in range(5)], "all-around", 15
    ),
    "mixed-five": (
        lambda: [before_at(500), after_at(400), after_returning_at(300),
                 around_at(200), around_at(100)],
        "mixed",
        19,
    ),
    "nonseparable-five": (
        lambda: [around_at(500), before_at(400), around_at(300),
                 after_at(200), around_at(100)],
        "mixed",
        26,
    ),
}


def calls_per_call(call):
    """Python ``call`` events per ``call(i)``, over CALLS calls."""
    for i in range(WARM):
        call(i)
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        for i in range(CALLS):
            call(i)
    finally:
        sys.setprofile(None)
    return calls / CALLS


def advised(shape):
    """A fresh woven target under ``shape``'s advice: the instance, and
    the same chain as the interpreter would run it."""
    aspects, _, _ = SHAPES[shape]
    Target = make_target()
    weave(Target)
    for aspect in aspects():
        deploy(aspect)
    shadow = default_weaver._shadows[Target][("work", JoinPointKind.CALL)]
    interpreted = plan_mod._chain_impl(
        Target, "work", shadow.original, shadow.entries, False,
        default_weaver.plan_stats,
    )
    return Target, Target(), interpreted


def test_a_woven_call_without_advice_costs_a_plain_call():
    obj = make_target()()
    plain = calls_per_call(lambda i: obj.work(i))
    weave(type(obj))
    woven = calls_per_call(lambda i: obj.work(i))
    print(f"\ncalls per call: plain {plain:.0f}, woven without advice {woven:.0f}")
    assert woven == plain == 2


@pytest.mark.parametrize("shape", SHAPES)
def test_a_compiled_chain_makes_no_interpreter_call(shape):
    Target, obj, _ = advised(shape)
    assert vars(Target)["work"].__aop_plan_kind__ == SHAPES[shape][1]
    stats = default_weaver.plan_stats
    before = stats.interpreter_calls
    calls_per_call(lambda i: obj.work(i))
    assert stats.interpreter_calls == before


@pytest.mark.parametrize("shape", SHAPES)
def test_a_compiled_chain_stays_under_the_interpreter(shape):
    _, obj, interpreted = advised(shape)
    compiled = calls_per_call(lambda i: obj.work(i))
    stats = default_weaver.plan_stats
    before = stats.interpreter_calls
    by_interpreter = calls_per_call(lambda i: interpreted(obj, i))
    assert stats.interpreter_calls - before == WARM + CALLS
    print(
        f"\n{shape}: calls per call compiled {compiled:.0f}, "
        f"interpreted {by_interpreter:.0f}"
    )
    assert compiled <= SHAPES[shape][2]
    assert compiled < by_interpreter
