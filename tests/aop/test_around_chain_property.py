"""Property-style equivalence: compiled plans vs the chain interpreter.

Every advice is ``around``.  For random chains of one to five levels
(random precedences, so ties fall back to deployment order; replacement
arguments through ``proceed``; zero, one or two ``proceed`` calls, one
whose exception the advice catches, or a captured ``proceed`` replayed
on a fresh thread; a raising target) the compiled
plan must produce the same results, exceptions and advice log as
running the same chain through the interpreter kept as the oracle
(``chain_oracle.run_chain``).  Each seed runs on the three plans: the
call plan, the batch plan (``batched_entry``) and the construction
runner (where a ``CtorPack`` through ``proceed`` is one more shape).
"""

from __future__ import annotations

import random
import threading

import pytest
from chain_oracle import OracleBatchJoinPoint, OracleJoinPoint, run_chain

from repro.aop import (
    Aspect,
    CtorPack,
    JoinPointKind,
    around,
    batched_entry,
    deploy,
    weave,
)
from repro.aop.cflow import bypassing_construction, flow_state
from repro.aop.weaver import default_weaver

SEEDS = range(40)
PROCEEDS = (0, 1, 2, "catch", "capture")


def make_target(should_raise: bool):
    class Target:
        def work(self, x):
            if should_raise:
                raise ValueError(f"boom:{x}")
            return x * 2 + 1

    return Target


def make_widget(should_raise: bool):
    class Widget:
        def __init__(self, x):
            if should_raise:
                raise ValueError(f"refused:{x}")
            self.x = x

    return Widget


def view(value):
    """A comparable view of what a chain handles: instances by their
    state, packs by their argsets, pieces by their arguments."""
    if isinstance(value, CtorPack):
        return ("pack", value.argsets)
    if isinstance(value, (list, tuple)):
        return [view(item) for item in value]
    if hasattr(value, "x"):
        return (type(value).__name__, value.x)
    return value


class Plan:
    """One plan a chain compiles to: the pointcut its advice names, how
    an advice substitutes arguments, how the woven code is entered and
    how the oracle enters the same chain."""

    def __init__(self, name: str, should_raise: bool):
        self.name = name
        if name == "construction":
            self.cls = make_widget(should_raise)
            self.pointcut = "initialization(Widget.new(..))"
            self.key = ("__init__", JoinPointKind.INITIALIZATION)
        else:
            self.cls = make_target(should_raise)
            self.pointcut = "call(Target.work(..))"
            self.key = ("work", JoinPointKind.CALL)

    def bump(self, args: tuple, step: int) -> tuple:
        """Replacement arguments for ``proceed``."""
        if self.name == "batch":
            pieces = args[0]
            return (tuple(((a[0] + step,), k) for a, k in pieces),)
        if isinstance(args[0], CtorPack):
            return (CtorPack([((a[0] + step,), k) for a, k in args[0]]),)
        if self.name == "construction" and step == 5:
            x = args[0]
            return (CtorPack([((x,), {}), ((x + step,), {})]),)
        return (args[0] + step,)

    def run_woven(self, obj, arg):
        if self.name == "call":
            return obj.work(arg)
        if self.name == "batch":
            return batched_entry(obj, "work")(self.pieces(arg))
        return self.cls(arg)

    def run_oracle(self, obj, arg):
        shadow = default_weaver._shadows[self.cls][self.key]
        cls = self.cls
        if self.name == "construction":
            jp = OracleJoinPoint(JoinPointKind.INITIALIZATION, cls,
                                 "__init__", None, (arg,), {})

            def original(*args, **kwargs):
                with bypassing_construction():
                    if len(args) == 1 and isinstance(args[0], CtorPack):
                        return [cls(*a, **k) for a, k in args[0].argsets]
                    return cls(*args, **kwargs)

            return run_chain(shadow.entries, jp, original)
        method = cls.__aop_originals__["work"]
        if self.name == "call":
            jp = OracleJoinPoint(JoinPointKind.CALL, cls, "work", obj,
                                 (arg,), {})
            return run_chain(shadow.entries, jp,
                             lambda *a, **k: method(obj, *a, **k))
        jp = OracleBatchJoinPoint(cls, "work", obj, self.pieces(arg))
        return run_chain(
            shadow.entries, jp,
            lambda pieces: [method(obj, *a, **k) for a, k in pieces],
        )

    @staticmethod
    def pieces(arg):
        return (((arg,), {}), ((arg + 1,), {}), ((arg + 2,), {}))


def replay_on_a_thread(continuation, args):
    """Run a captured ``proceed`` on a fresh thread and join it: its
    result, or its exception raised here."""
    box = {}

    def replay():
        try:
            box["out"] = continuation(*args)
        except ValueError as exc:
            box["exc"] = exc

    thread = threading.Thread(target=replay)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    if "exc" in box:
        raise box["exc"]
    return box["out"]


def make_aspect(plan, tag, precedence, events, proceeds, replace):
    """One around advice that logs every observation it makes."""

    def body(self, jp):
        events.append((tag, "enter", view(jp.args)))
        if proceeds == 0:
            out = ("skipped", tag)
        elif proceeds == "catch":
            try:
                out = jp.proceed(*plan.bump(jp.args, 10)) if replace else jp.proceed()
            except ValueError as exc:
                events.append((tag, "caught", repr(exc), view(jp.args)))
                out = ("caught", tag)
        elif proceeds == "capture":
            args = plan.bump(jp.args, 10) if replace else ()
            out = replay_on_a_thread(jp.capture_proceed(), args)
        else:
            out = jp.proceed(*plan.bump(jp.args, 10)) if replace else jp.proceed()
            if proceeds == 2:
                step = 5 if plan.name == "construction" else 1
                second = jp.proceed(*plan.bump(jp.args, step))
                events.append((tag, "again", view(second), view(jp.args)))
        events.append((tag, "exit", view(out), view(jp.args)))
        return out

    advice = around(plan.pointcut)(body)
    return type(f"Gen_{tag}", (Aspect,),
                {"precedence": precedence, "advice": advice})()


def outcome(run):
    try:
        return ("ok", view(run()))
    except ValueError as exc:
        return ("raise", repr(exc))


@pytest.mark.parametrize("plan_name", ["call", "batch", "construction"])
@pytest.mark.parametrize("seed", SEEDS)
def test_compiled_plan_matches_oracle(seed, plan_name):
    rng = random.Random(seed)
    plan = Plan(plan_name, should_raise=rng.random() < 0.3)
    weave(plan.cls)
    woven_events: list = []
    oracle_events: list = []
    active = {"sink": woven_events}

    class Sink(list):
        pass

    sink = Sink()
    sink.append = lambda item: active["sink"].append(item)  # type: ignore[method-assign]
    levels = rng.randint(1, 5)
    for i in range(levels):
        deploy(make_aspect(
            plan, f"a{i}", rng.randint(0, 3) * 100, sink,
            rng.choice(PROCEEDS), rng.random() < 0.5,
        ))
    entries = default_weaver._shadows[plan.cls][plan.key].entries
    assert len(entries) == levels
    if plan_name == "call":
        kind = vars(plan.cls)["work"].__aop_plan_kind__
        assert kind == ("single-around" if levels == 1 else "all-around")
    obj = None if plan_name == "construction" else plan.cls.__new__(plan.cls)
    arg = rng.randint(0, 100)

    woven = outcome(lambda: plan.run_woven(obj, arg))
    flow = flow_state()
    assert (flow.advice_depth, flow.construction_bypass) == (0, 0)
    active["sink"] = oracle_events
    oracle = outcome(lambda: plan.run_oracle(obj, arg))

    assert woven == oracle, f"seed {seed} {plan_name}: results diverge"
    assert woven_events == oracle_events, (
        f"seed {seed} {plan_name}: advice log diverges\n"
        f"woven:  {woven_events}\n"
        f"oracle: {oracle_events}"
    )
