"""Woven-call dispatch cost, as counts instead of timings.

Python-level ``call`` events per woven call (``sys.setprofile``) over
100 calls after a warm-up, each call made through a one-line caller.
Counts repeat where timings do not, so this runs in tier-1; the numbers
are printed (``pytest -s``).

* a woven class with no advice deployed costs exactly a plain call;
* each advice shape compiles to its plan kind and stays under its
  ceiling;
* a woven construction runs its compiled chain runner, at an exact
  count per construction.
"""

from __future__ import annotations

import sys

import pytest

from repro.aop import Aspect, around, deploy, weave
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


#: shape -> (its advice, the plan kind it compiles to, the ceiling on
#: calls per woven call).  Each ceiling sits ~10 % above what CPython
#: 3.11 measures, the same on every run: one around 5; five arounds 13
SHAPES = {
    "one-around": (lambda: [around_at(0)], "single-around", 6),
    "five-arounds": (
        lambda: [around_at(level) for level in range(5)], "all-around", 15
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
    """A fresh woven target under ``shape``'s advice: its class and an
    instance."""
    aspects, _, _ = SHAPES[shape]
    Target = make_target()
    weave(Target)
    for aspect in aspects():
        deploy(aspect)
    return Target, Target()


def test_a_woven_call_without_advice_costs_a_plain_call():
    obj = make_target()()
    plain = calls_per_call(lambda i: obj.work(i))
    weave(type(obj))
    woven = calls_per_call(lambda i: obj.work(i))
    print(f"\ncalls per call: plain {plain:.0f}, woven without advice {woven:.0f}")
    assert woven == plain == 2


@pytest.mark.parametrize("shape", SHAPES)
def test_a_compiled_chain_stays_under_its_ceiling(shape):
    Target, obj = advised(shape)
    assert vars(Target)["work"].__aop_plan_kind__ == SHAPES[shape][1]
    compiled = calls_per_call(lambda i: obj.work(i))
    print(f"\n{shape}: calls per call {compiled:.0f}")
    assert compiled <= SHAPES[shape][2]


def make_widget():
    class Widget:
        def __init__(self, x):
            self.x = x

    return Widget


#: proceeds per around -> exact calls per woven construction (CPython 3.11):
#: the caller, ``__new__``, the compiled runner, the joinpoint and its
#: ``_enter``, the advice, each ``proceed`` with its construction, and
#: the ``__init__`` calls type() makes.  Through the interpreter these
#: read 33 and 63.
CONSTRUCTIONS = {"one-around": (1, 16), "three-proceeds": (3, 30)}


@pytest.mark.parametrize("shape", CONSTRUCTIONS)
def test_a_woven_construction_runs_its_compiled_runner(shape):
    proceeds, exact = CONSTRUCTIONS[shape]
    Widget = make_widget()

    class Wrap(Aspect):
        @around("initialization(Widget.new(..))")
        def wrap(self, jp):
            first = jp.proceed()
            for _ in range(proceeds - 1):
                jp.proceed()
            return first

    weave(Widget)
    deploy(Wrap())
    assert Widget(4).x == 4
    calls = calls_per_call(lambda i: Widget(i))
    print(f"\nconstruction {shape}: calls per construction {calls:.0f}")
    assert round(calls) == exact
