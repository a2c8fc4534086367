"""Property-style equivalence: compiled plans vs the chain interpreter.

For arbitrary mixes of before / after / after_returning / after_throwing
/ around advice (arbitrary precedences, raising targets, proceed with
replacement arguments), whatever specialised impl the plan compiler
picks — single-around, all-around or mixed — must produce byte-identical
results, exceptions and advice call ordering to running the same chain
through the interpreter kept as the oracle (``chain_oracle.run_chain``).
Construction chains compile with the same runner; their rows run every
ordering of an around, a before and an after against the oracle.
"""

from __future__ import annotations

import itertools
import random

import pytest
from chain_oracle import run_chain

from repro.aop import (
    Aspect,
    CtorPack,
    JoinPoint,
    JoinPointKind,
    after,
    after_returning,
    after_throwing,
    around,
    before,
    deploy,
    weave,
)
from repro.aop.cflow import bypassing_construction, flow_state
from repro.aop.weaver import default_weaver

KINDS = ("before", "after", "after_returning", "after_throwing", "around")
DECORATORS = {
    "before": before,
    "after": after,
    "after_returning": after_returning,
    "after_throwing": after_throwing,
    "around": around,
}


def make_target(should_raise: bool):
    class Target:
        def work(self, x):
            if should_raise:
                raise ValueError(f"boom:{x}")
            return x * 2 + 1

    return Target


def make_aspect(tag: str, kind: str, precedence: int, events: list,
                replace_args: bool):
    """One advice of ``kind`` that logs every observation it makes."""

    def body(self, jp):
        if kind == "around":
            events.append((tag, "enter", jp.args))
            if replace_args:
                out = jp.proceed(jp.args[0] + 10)
            else:
                out = jp.proceed()
            events.append((tag, "exit", out, jp.args))
            return out
        if kind == "after_returning":
            events.append((tag, kind, jp.result))
        elif kind == "after_throwing":
            events.append((tag, kind, repr(jp.exception)))
        else:
            events.append((tag, kind, jp.args))

    aspect_cls = type(
        f"Gen_{tag}",
        (Aspect,),
        {
            "precedence": precedence,
            "advice": DECORATORS[kind]("call(Target.work(..))")(body),
        },
    )
    return aspect_cls()


def run_compiled(Target, obj, arg):
    try:
        return ("ok", obj.work(arg))
    except ValueError as exc:
        return ("raise", repr(exc))


def run_interpreted(Target, obj, arg):
    entries = default_weaver._shadows[Target][("work", JoinPointKind.CALL)].entries
    original = getattr(Target, "__aop_originals__")["work"]
    jp = JoinPoint(JoinPointKind.CALL, Target, "work", obj, (arg,), {})
    try:
        return (
            "ok",
            run_chain(entries, jp, lambda *a, **k: original(obj, *a, **k)),
        )
    except ValueError as exc:
        return ("raise", repr(exc))


@pytest.mark.parametrize("seed", range(40))
def test_compiled_paths_match_interpreter(seed):
    rng = random.Random(seed)
    n_advice = rng.randint(1, 6)
    should_raise = rng.random() < 0.3
    Target = make_target(should_raise)
    weave(Target)

    compiled_events: list = []
    interpreted_events: list = []
    # two parallel event sinks, switched between runs
    active = {"sink": compiled_events}

    class Sink(list):
        pass

    events_proxy = Sink()
    events_proxy.append = lambda item: active["sink"].append(item)  # type: ignore[method-assign]

    for i in range(n_advice):
        kind = rng.choice(KINDS)
        precedence = rng.randint(0, 3) * 100
        replace = rng.random() < 0.5
        deploy(make_aspect(f"a{i}", kind, precedence, events_proxy, replace))

    obj = Target.__new__(Target)
    arg = rng.randint(0, 100)

    active["sink"] = compiled_events
    compiled = run_compiled(Target, obj, arg)
    active["sink"] = interpreted_events
    interpreted = run_interpreted(Target, obj, arg)

    assert compiled == interpreted, f"seed {seed}: results diverge"
    assert compiled_events == interpreted_events, (
        f"seed {seed}: advice ordering diverges\n"
        f"compiled:    {compiled_events}\n"
        f"interpreted: {interpreted_events}"
    )


def test_mixed_chain_uses_compiled_path_when_separable():
    """A (before, after, around) mix with befores/afters outermost
    compiles to the mixed plan: a runner folded at compile time."""
    Target = make_target(False)
    weave(Target)
    events: list = []
    deploy(make_aspect("b", "before", 300, events, False))
    deploy(make_aspect("f", "after", 200, events, False))
    deploy(make_aspect("a", "around", 100, events, False))
    impl = vars(Target)["work"]
    cells = impl.__code__.co_freevars
    assert "runner" in cells, f"expected the mixed plan, got freevars {cells}"
    assert Target.__new__(Target).work(2) == 5
    assert [e[0] for e in events] == ["b", "a", "a", "f"]


def test_interleaved_chain_compiles():
    """A before *below* an around (higher-precedence around) is not
    separable.  The segment compiler folds it into the around's tail:
    the impl is a compiled runner tagged ``mixed``, and the interleaved
    ordering is the oracle's."""
    Target = make_target(False)
    weave(Target)
    events: list = []
    deploy(make_aspect("a", "around", 300, events, False))
    deploy(make_aspect("b", "before", 100, events, False))
    impl = vars(Target)["work"]
    assert "runner" in impl.__code__.co_freevars
    assert impl.__aop_plan_kind__ == "mixed"
    assert Target.__new__(Target).work(2) == 5
    # the before runs inside the around's proceed
    assert [(e[0], e[1]) for e in events] == [
        ("a", "enter"), ("b", "before"), ("a", "exit")
    ]


# deliberately non-separable shapes: non-around advice sorted below (and
# between) arounds, including multi-around spines with interleaved
# before/after segments — the chains the segment compiler must fold
INTERLEAVED_CHAINS = [
    ("around", "before"),
    ("around", "after"),
    ("around", "after_returning"),
    ("around", "after_throwing"),
    ("before", "around", "before"),
    ("around", "before", "around"),
    ("around", "after", "around", "before"),
    ("before", "around", "after_returning", "around", "after"),
    ("around", "around", "before", "around", "after_throwing", "around"),
]


@pytest.mark.parametrize("kinds", INTERLEAVED_CHAINS)
@pytest.mark.parametrize("should_raise", [False, True])
@pytest.mark.parametrize("replace_args", [False, True])
def test_non_separable_chains_match_interpreter(
    kinds, should_raise, replace_args
):
    """Compiled non-separable chains must match the oracle
    byte-for-byte: advice ordering, argument substitution through
    ``proceed``, results and exception propagation."""
    Target = make_target(should_raise)
    weave(Target)

    compiled_events: list = []
    interpreted_events: list = []
    active = {"sink": compiled_events}

    class Sink(list):
        pass

    events_proxy = Sink()
    events_proxy.append = lambda item: active["sink"].append(item)  # type: ignore[method-assign]

    # descending precedence pins the chain order to the listed kinds
    for i, kind in enumerate(kinds):
        deploy(
            make_aspect(
                f"a{i}", kind, (len(kinds) - i) * 100, events_proxy,
                replace_args,
            )
        )

    impl = vars(Target)["work"]
    assert "runner" in impl.__code__.co_freevars, (
        f"non-separable chain {kinds} did not compile"
    )

    obj = Target.__new__(Target)
    active["sink"] = compiled_events
    compiled = run_compiled(Target, obj, 7)
    active["sink"] = interpreted_events
    interpreted = run_interpreted(Target, obj, 7)

    assert compiled == interpreted
    assert compiled_events == interpreted_events, (
        f"chain {kinds}: advice ordering diverges\n"
        f"compiled:    {compiled_events}\n"
        f"interpreted: {interpreted_events}"
    )


# -- construction ----------------------------------------------------------


class Widget:
    def __init__(self, x):
        self.x = x


def ctor_view(value):
    """A comparable view of what a construction chain handles: instances
    by their state, packs by their argsets."""
    if isinstance(value, Widget):
        return ("Widget", value.x)
    if isinstance(value, CtorPack):
        return ("pack", value.argsets)
    if isinstance(value, (list, tuple)):
        return [ctor_view(item) for item in value]
    return value


def ctor_aspect(tag, kind, precedence, events, proceeds, raises):
    """One construction advice of ``kind``; the around proceeds once,
    three times or once with a :class:`CtorPack`, and the before raises
    when ``raises``."""

    def body(self, jp):
        if kind == "around":
            events.append((tag, "enter", ctor_view(jp.args)))
            x = jp.args[0]
            if proceeds == "one":
                out = jp.proceed()
            elif proceeds == "three":
                out = [jp.proceed(), jp.proceed(x + 1), jp.proceed()][1]
            else:
                out = jp.proceed(CtorPack([((x,), {}), ((x + 5,), {})]))[1]
            events.append((tag, "exit", ctor_view(out), ctor_view(jp.args)))
            return out
        events.append((tag, kind, ctor_view(jp.args)))
        if kind == "before" and raises:
            raise ValueError(f"refused:{jp.args[0]}")

    decorator = DECORATORS[kind]("initialization(Widget.new(..))")
    return type(
        f"Ctor_{tag}", (Aspect,), {"precedence": precedence, "advice": decorator(body)}
    )()


def ctor_outcome(build):
    try:
        return ("ok", ctor_view(build()))
    except ValueError as exc:
        return ("raise", repr(exc))


def oracle_construct(*args, **kwargs):
    """The interpreter's innermost construction step."""
    with bypassing_construction():
        if len(args) == 1 and not kwargs and isinstance(args[0], CtorPack):
            return [Widget(*a, **k) for a, k in args[0].argsets]
        return Widget(*args, **kwargs)


@pytest.mark.parametrize("order", list(itertools.permutations(("around", "before", "after"))))
@pytest.mark.parametrize("proceeds", ["one", "three", "pack"])
@pytest.mark.parametrize("raises", [False, True])
def test_compiled_construction_matches_oracle(order, proceeds, raises):
    """A woven construction runs its chain through the compiled runner;
    the result, the exception and the advice log are the oracle's."""
    weave(Widget)
    compiled_events: list = []
    oracle_events: list = []
    active = {"sink": compiled_events}

    class Sink(list):
        pass

    events_proxy = Sink()
    events_proxy.append = lambda item: active["sink"].append(item)  # type: ignore[method-assign]
    # descending precedence pins the chain order to ``order``
    for i, kind in enumerate(order):
        deploy(ctor_aspect(f"c{i}", kind, (len(order) - i) * 100,
                           events_proxy, proceeds, raises))
    shadow = default_weaver._shadows[Widget][("__init__", JoinPointKind.INITIALIZATION)]
    assert [e.kind.value for e in shadow.entries] == list(order)

    compiled = ctor_outcome(lambda: Widget(3))
    flow = flow_state()
    assert (flow.advice_depth, flow.construction_bypass) == (0, 0)
    active["sink"] = oracle_events
    jp = JoinPoint(JoinPointKind.INITIALIZATION, Widget, "__init__", None, (3,), {})
    oracle = ctor_outcome(lambda: run_chain(shadow.entries, jp, oracle_construct))

    assert compiled == oracle
    assert compiled_events == oracle_events, (
        f"{order} {proceeds}: advice ordering diverges\n"
        f"compiled: {compiled_events}\n"
        f"oracle:   {oracle_events}"
    )
