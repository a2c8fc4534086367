"""Serving plans: what a woven call runs while a middleware executes a
servant.

Under the ``server_dispatch`` marker every woven call — the call plan,
the batch plan and the construction runner alike, and every call nested
inside a served method — runs its shadow's serving plan: the chain
without the advice of aspects whose ``applies_server_side`` is false.
Parallelisation aspects (partition, concurrency, distribution) are left
out; a plain :class:`~repro.aop.Aspect` and the cost-charging
:class:`~repro.parallel.ComputeCostAspect` still run.  Served code reads
``in_advice()`` / ``jp.from_advice`` as it does under the full chain.
"""

from __future__ import annotations

import pytest

from repro.aop import Aspect, around, deploy, weave
from repro.aop.cflow import in_advice
from repro.aop.plan import MethodTable
from repro.middleware import in_server_dispatch, server_dispatch, use_node
from repro.middleware.base import perform_request
from repro.parallel import ComputeCostAspect
from repro.parallel.concern import LAYER, Concern, ParallelAspect


class Work:
    """The woven core class; ``seen`` records what its body read."""

    seen: list = []

    def __init__(self, size=1):
        self.size = size
        Work.seen.append(("init", in_advice()))

    def run(self, x):
        Work.seen.append(("run", in_advice()))
        return x * self.size


class Servant:
    """An unwoven servant whose method makes nested woven calls."""

    def handle(self, x):
        return Work(3).run(x)


def concern_aspect(concern, log):
    """A parallelisation aspect of ``concern`` around ``Work`` calls and
    constructions, logging each advice run."""

    class Advice(ParallelAspect):
        precedence = LAYER[concern.value]

        @around("call(Work.run(..))")
        def on_call(self, jp):
            log.append((concern.value, "call"))
            return jp.proceed()

        @around("initialization(Work.new(..))")
        def on_new(self, jp):
            log.append((concern.value, "new"))
            return jp.proceed()

    Advice.concern = concern
    return Advice()


class Plain(Aspect):
    """A user aspect: no ``applies_server_side`` of its own."""

    def __init__(self, log):
        self.log = log

    @around("call(Work.run(..)) || initialization(Work.new(..))")
    def observe(self, jp):
        self.log.append(("plain", jp.name, jp.from_advice))
        return jp.proceed()


PARALLEL = (Concern.PARTITION, Concern.CONCURRENCY, Concern.DISTRIBUTION)


@pytest.fixture
def log():
    weave(Work)
    Work.seen = []
    entries: list = []
    for concern in PARALLEL:
        deploy(concern_aspect(concern, entries))
    return entries


def parallel_runs(log):
    return [entry for entry in log if entry[0] != "plain"]


def test_client_side_runs_every_advice(log):
    assert Work(2).run(5) == 10
    assert parallel_runs(log) == [
        ("partition", "new"),
        ("concurrency", "new"),
        ("distribution", "new"),
        ("partition", "call"),
        ("concurrency", "call"),
        ("distribution", "call"),
    ]


def test_call_batch_and_ctor_plans_run_only_server_side_advice(log):
    deploy(Plain(log))
    client = Work(2)
    del log[:]
    with server_dispatch():
        assert in_server_dispatch()
        built = Work(4)
        assert client.run(5) == 10
        pack = [((1,), {}), ((2,), {})]
        assert MethodTable(Work).invoke_batch(built, "run", pack) == [4, 8]
    assert not in_server_dispatch()
    assert log == [
        ("plain", "__init__", False),
        ("plain", "run", False),
        ("plain", "run", False),
    ]


def test_nested_woven_calls_in_a_served_method_run_no_parallel_advice(log):
    servant = Servant()
    outcome = perform_request(MethodTable(Servant), servant, "handle", (5,), {})
    assert outcome == ("ok", 15)
    assert log == []
    # the marker is down again: the same nested calls advise as a client's
    assert servant.handle(5) == 15
    assert len(parallel_runs(log)) == 6


def test_plain_and_cost_aspects_still_run_while_serving(log):
    costed: list = []

    def cost(jp, result):
        costed.append(result)
        return 0.0

    deploy(Plain(log))
    deploy(ComputeCostAspect(cost, work_calls="call(Work.run(..))"))
    servant = Servant()
    with use_node(object()):
        outcome = perform_request(MethodTable(Servant), servant, "handle", (5,), {})
    assert outcome == ("ok", 15)
    assert costed == [15]
    assert log == [("plain", "__init__", False), ("plain", "run", False)]


def test_served_code_reads_in_advice_as_under_the_full_chain(log):
    def calls():
        work = Work(3)
        work.run(1)
        MethodTable(Work).invoke_batch(work, "run", [((1,), {})])

    with server_dispatch():
        calls()
    served = list(Work.seen)
    assert parallel_runs(log) == []
    Work.seen = []
    calls()
    assert len(parallel_runs(log)) == 9
    # the bodies run where the innermost proceed runs them: in advice
    assert served == Work.seen == [("init", True), ("run", True), ("run", True)]


def test_a_nested_call_in_a_served_method_is_from_advice(log):
    deploy(Plain(log))

    class Outer:
        def step(self, x):
            return Work(1).run(x)

    class Split(ParallelAspect):
        @around("call(Outer.step(..))")
        def split(self, jp):
            log.append(("partition", "step"))
            return jp.proceed()

    deploy(Split(), [Outer])
    assert perform_request(MethodTable(Outer), Outer(), "step", (2,), {}) == ("ok", 2)
    # Outer.step's serving plan is empty, yet its body runs one advice
    # level up, as under the full chain: its construction takes the raw
    # path, and the nested call's joinpoint is from advice
    assert parallel_runs(log) == []
    assert log == [("plain", "run", True)]
    assert Work.seen == [("init", True), ("run", True)]
