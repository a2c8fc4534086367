"""Divide-and-conquer partition: object creation at call interception,
and overlapped calls into a deployed composition driven without an app."""

from __future__ import annotations

import random

import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.errors import AdviceError
from repro.parallel import (
    Composition,
    DivideAndConquerAspect,
    ParallelModule,
    concurrency_module,
)
from repro.parallel.partition import CallPiece
from repro.runtime import SimBackend, ThreadBackend, current_dispatch, use_backend
from repro.sim import Simulator

THRESHOLD = 8


def make_sorter():
    class Sorter:
        """Core functionality: a plain insertion sort (fast under the
        threshold; the partition supplies the divide/merge logic)."""

        def __init__(self):
            self.sorted_batches = 0

        def sort(self, values):
            self.sorted_batches += 1
            out = list(values)
            for i in range(1, len(out)):
                key = out[i]
                j = i - 1
                while j >= 0 and out[j] > key:
                    out[j + 1] = out[j]
                    j -= 1
                out[j + 1] = key
            return out

    return Sorter


def merge_sorted(results):
    """Standard two-way merge folded over the branch results."""
    merged = results[0]
    for other in results[1:]:
        out = []
        i = j = 0
        while i < len(merged) and j < len(other):
            if merged[i] <= other[j]:
                out.append(merged[i])
                i += 1
            else:
                out.append(other[j])
                j += 1
        out.extend(merged[i:])
        out.extend(other[j:])
        merged = out
    return merged


def mergesort_module(name="dac"):
    return ParallelModule.of(DivideAndConquerAspect(
        should_divide=lambda args, kwargs, depth: len(args[0]) > THRESHOLD,
        divide=lambda args, kwargs: [
            CallPiece(0, (args[0][: len(args[0]) // 2],)),
            CallPiece(1, (args[0][len(args[0]) // 2 :],)),
        ],
        merge=merge_sorted,
        work="call(Sorter.sort(..))",
    ), name)


class TestDivideAndConquer:
    def test_sorts_correctly_and_creates_branch_workers(self):
        Sorter = make_sorter()
        module = mergesort_module()
        comp = Composition("dac", [module])
        weave(Sorter)
        data = random.Random(42).sample(range(1000), 100)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Sorter]):
                sorter = Sorter()
                result = sorter.sort(data)
        aspect = module.aspects[0]
        assert result == sorted(data)
        # 100 elements, threshold 8 -> a real recursion tree unfolded
        assert aspect.divisions >= 7
        assert aspect.leaves >= 8
        # "perform object creations when intercepting method calls":
        # one branch clone per leaf, none for the inner nodes
        assert aspect.workers_created == aspect.leaves == 16
        assert len(aspect.branches) == aspect.workers_created
        # the original object only sorted nothing directly
        assert sorter.sorted_batches == 0

    def test_below_threshold_runs_directly(self):
        Sorter = make_sorter()
        module = mergesort_module()
        comp = Composition("dac", [module])
        weave(Sorter)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Sorter]):
                sorter = Sorter()
                result = sorter.sort([3, 1, 2])
        assert result == [1, 2, 3]
        assert module.aspects[0].divisions == 0
        assert sorter.sorted_batches == 1

    def test_composes_with_concurrency(self):
        Sorter = make_sorter()
        module = mergesort_module()
        comp = Composition(
            "dac-mt",
            [module, concurrency_module("call(Sorter.sort(..))")],
        )
        weave(Sorter)
        data = random.Random(7).sample(range(5000), 300)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Sorter]):
                result = Sorter().sort(data)
        assert result == sorted(data)

    def test_max_depth_bounds_recursion(self):
        Sorter = make_sorter()
        module = ParallelModule.of(DivideAndConquerAspect(
            should_divide=lambda args, kwargs, depth: True,  # divide forever
            divide=lambda args, kwargs: [
                CallPiece(0, (args[0][: max(1, len(args[0]) // 2)],)),
                CallPiece(1, (args[0][max(1, len(args[0]) // 2) :],)),
            ],
            merge=merge_sorted,
            work="call(Sorter.sort(..))",
            max_depth=3,
        ))
        comp = Composition("bounded", [module])
        weave(Sorter)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Sorter]):
                result = Sorter().sort([5, 4, 3, 2, 1, 0])
        assert result == [0, 1, 2, 3, 4, 5]

    def test_single_piece_division_degrades_to_leaf(self):
        Sorter = make_sorter()
        module = ParallelModule.of(DivideAndConquerAspect(
            should_divide=lambda args, kwargs, depth: True,
            divide=lambda args, kwargs: [CallPiece(0, args)],
            merge=lambda results: results[0],
            work="call(Sorter.sort(..))",
        ))
        comp = Composition("degenerate", [module])
        weave(Sorter)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Sorter]):
                assert Sorter().sort([2, 1]) == [1, 2]

    def test_invalid_max_depth(self):
        with pytest.raises(AdviceError):
            DivideAndConquerAspect(
                should_divide=lambda a, k, d: False,
                divide=lambda a, k: [],
                merge=lambda r: r,
                work="call(X.f(..))",
                max_depth=0,
            )

    def test_custom_worker_factory(self):
        Sorter = make_sorter()
        made = []

        def factory(prototype):
            worker = type(prototype)()
            made.append(worker)
            return worker

        module = ParallelModule.of(DivideAndConquerAspect(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 2,
            divide=lambda args, kwargs: [
                CallPiece(0, (args[0][:2],)),
                CallPiece(1, (args[0][2:],)),
            ],
            merge=merge_sorted,
            work="call(Sorter.sort(..))",
            make_worker=factory,
        ))
        comp = Composition("custom", [module])
        weave(Sorter)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Sorter]):
                assert Sorter().sort([4, 3, 2, 1]) == [1, 2, 3, 4]
        assert len(made) == module.aspects[0].workers_created


class Summer:
    gate = None
    #: the ambient ticket of every leaf that parked at the gate
    parked: list = []

    def total(self, values):
        if Summer.gate is not None:
            Summer.parked.append(current_dispatch())
            Summer.gate.wait(5)
        return sum(values)


@pytest.mark.parametrize("backend", ["thread", "sim"])
def test_overlapped_calls_into_a_bare_composition_keep_their_own_contexts(backend):
    """Without an app, calls made straight into the deployed composition
    from three activities at once each own a dispatch context while
    their leaves park, and each gets its own sum back."""
    sim = Simulator()
    chosen = SimBackend(sim) if backend == "sim" else ThreadBackend()
    module = ParallelModule.of(DivideAndConquerAspect(
        should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
        divide=lambda args, kwargs: [
            CallPiece(0, (args[0][: len(args[0]) // 2],)),
            CallPiece(1, (args[0][len(args[0]) // 2 :],)),
        ],
        merge=sum,
        work="call(Summer.total(..))",
    ))
    payloads = [list(range(i, i + 8)) for i in range(3)]
    results: dict[int, int] = {}

    def tickets():
        return {id(ticket): ticket for ticket in Summer.parked}

    def drive():
        with use_backend(chosen):
            callers = [
                chosen.spawn(
                    lambda i=i: results.__setitem__(i, Summer().total(payloads[i]))
                )
                for i in range(3)
            ]
            for _ in range(1000):  # two seconds, of the backend's clock
                if len(tickets()) >= 2:
                    break
                chosen.sleep(0.002)
            assert len(tickets()) >= 2  # two calls' leaves parked at once
            Summer.gate.set()
            for caller in callers:
                caller.join()

    weave(Summer)
    Summer.gate = chosen.make_event(name="gate")
    Summer.parked = []
    try:
        with Composition("dnc", [module]).deployed(default_weaver, targets=[Summer]):
            if backend == "sim":
                sim.spawn(drive, name="callers")
                sim.run()
            else:
                drive()
    finally:
        Summer.gate = None
        sim.shutdown()
    assert results == {i: sum(payloads[i]) for i in range(3)}
    # each call opened and claimed a ticket of its own
    assert [
        (ticket.name, ticket.claimed) for ticket in tickets().values()
    ] == [("divide-conquer.total", True)] * 3
    assert current_dispatch() is None
