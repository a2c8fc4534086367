"""Partition machinery units: splitters, collectors, strategy aspects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.api import ParallelApp, StackSpec
from repro.cluster import paper_testbed
from repro.errors import AdviceError
from repro.parallel import Composition, ParallelModule
from repro.parallel.partition import (
    CallPiece,
    DynamicFarmAspect,
    FarmAspect,
    PipelineSplitAspect,
    ResultCollector,
    WorkSplitter,
)
from repro.runtime import ThreadBackend, current_backend, current_dispatch, use_backend
from repro.sim import Simulator


class TestWorkSplitter:
    def test_defaults_broadcast_and_identity(self):
        splitter = WorkSplitter(duplicates=3)
        assert splitter.ctor_args((1, 2), {"k": 3}, 1) == ((1, 2), {"k": 3})
        pieces = splitter.split((5,), {})
        assert len(pieces) == 1 and pieces[0].args == (5,)
        assert splitter.combine([1, 2]) == [1, 2]
        assert splitter.forward_args("res", (5,), {}) == (("res",), {})

    def test_custom_hooks(self):
        splitter = WorkSplitter(
            duplicates=2,
            ctor_args=lambda a, k, i, n: ((a[0] + i,), {}),
            split=lambda a, k: [CallPiece(i, (v,)) for i, v in enumerate(a[0])],
            combine=sum,
        )
        assert splitter.ctor_args((10,), {}, 1) == ((11,), {})
        pieces = splitter.split(([1, 2, 3],), {})
        assert [p.args for p in pieces] == [(1,), (2,), (3,)]
        assert splitter.combine([1, 2, 3]) == 6

    def test_invalid_duplicates(self):
        with pytest.raises(AdviceError):
            WorkSplitter(duplicates=0)

    def test_merge_pieces_requires_hook(self):
        splitter = WorkSplitter(duplicates=1)
        with pytest.raises(AdviceError):
            splitter.merge_pieces([CallPiece(0, (1,))])


class TestResultCollector:
    def test_collects_in_deposit_order(self):
        with use_backend(ThreadBackend()):
            collector = ResultCollector(3)
            for v in "abc":
                collector.deposit(v)
            assert collector.wait(timeout=1) == ["a", "b", "c"]

    def test_keyed_deposits_come_back_in_key_order(self):
        with use_backend(ThreadBackend()):
            pieces = ResultCollector(3)
            for key in (2, 0, 1):
                pieces.deposit(f"piece {key}", key=key)
            assert pieces.wait(timeout=1) == ["piece 0", "piece 1", "piece 2"]
            packs = ResultCollector(3)
            for key in ((1, 0), (0, 1), (0, 0)):
                packs.deposit(key, key=key)
            assert packs.wait(timeout=1) == [(0, 0), (0, 1), (1, 0)]

    def test_zero_expected_completes_immediately(self):
        with use_backend(ThreadBackend()):
            assert ResultCollector(0).wait(timeout=1) == []

    def test_timeout_reports_progress(self):
        with use_backend(ThreadBackend()):
            collector = ResultCollector(2)
            collector.deposit("only-one")
            with pytest.raises(TimeoutError, match="1/2"):
                collector.wait(timeout=0.01)

    def test_fail_wakes_untimed_waiter_with_original_exception(self):
        # regression: a worker that raises before depositing used to
        # leave wait() (no timeout) blocked forever
        import threading

        with use_backend(ThreadBackend()):
            collector = ResultCollector(2)
            collector.deposit("partial")
            boom = ValueError("worker exploded")
            threading.Timer(0.02, lambda: collector.fail(boom)).start()
            with pytest.raises(ValueError) as info:
                collector.wait()  # deliberately no timeout
            assert info.value is boom  # the original exception object

    def test_first_failure_wins_and_latches(self):
        with use_backend(ThreadBackend()):
            collector = ResultCollector(3)
            first = RuntimeError("first")
            collector.fail(first)
            collector.fail(RuntimeError("second"))
            with pytest.raises(RuntimeError) as info:
                collector.wait(timeout=1)
            assert info.value is first

    def test_fail_racing_timed_wait_reports_failure_not_timeout(self):
        # regression (lock-ordering): a fail() latching exactly as a
        # timed wait() gives up used to surface as a bare TimeoutError
        # ("collector got n/m results") — the interleaving is forced
        # deterministically by latching the failure from inside the
        # event wait itself, then reporting the wait as timed out
        with use_backend(ThreadBackend()):
            collector = ResultCollector(3)
            collector.deposit("partial")
            boom = ValueError("worker exploded mid-wait")
            real_event = collector._done

            class RacingEvent:
                def set(self, value=None):
                    pass  # swallow fail()'s wakeup: the timeout "wins"

                def wait(self, timeout=None):
                    collector.fail(boom)  # latches during the wait window
                    return False  # ...and the timed wait "times out"

            collector._done = RacingEvent()
            try:
                with pytest.raises(ValueError) as info:
                    collector.wait(timeout=0.01)
            finally:
                collector._done = real_event
            assert info.value is boom

    def test_late_deposits_after_failure_latch_are_dropped(self):
        # regression (lock-ordering): deposits completing after the
        # failure latch used to keep counting toward `expected`,
        # delivering partial results for a call that already failed
        with use_backend(ThreadBackend()):
            collector = ResultCollector(2)
            collector.deposit("first")
            boom = RuntimeError("latched")
            collector.fail(boom)
            collector.deposit("straggler-1")
            collector.deposit("straggler-2")
            assert len(collector) == 1  # stragglers dropped, not counted
            with pytest.raises(RuntimeError) as info:
                collector.wait(timeout=1)
            assert info.value is boom
            # and an untimed wait after the latch fails the same way
            with pytest.raises(RuntimeError):
                collector.wait()


def weave_counter():
    class Counter:
        def __init__(self, base):
            self.base = base
            self.calls = 0
            #: the ambient ticket of every call this stage served
            self.tickets = []

        def bump(self, values):
            self.calls += 1
            self.tickets.append(current_dispatch())
            return [v + self.base for v in values]

    weave(Counter)
    return Counter


def list_splitter(duplicates, chunks):
    def split(args, kwargs):
        (values,) = args
        size = max(1, (len(values) + chunks - 1) // chunks)
        return [
            CallPiece(i, (values[start : start + size],))
            for i, start in enumerate(range(0, len(values), size))
        ]

    def combine(results):
        out = []
        for r in results:
            out.extend(r)
        return sorted(out)

    return WorkSplitter(duplicates=duplicates, split=split, combine=combine)


class TestFarmAspect:
    def test_pieces_route_round_robin(self):
        Counter = weave_counter()
        module = ParallelModule.of(FarmAspect(
            list_splitter(2, 4),
            "initialization(Counter.new(..))",
            "call(Counter.bump(..))",
        ))
        comp = Composition("farm", [module])
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Counter]):
                counter = Counter(10)
                result = counter.bump(list(range(8)))
        aspect = module.aspects[0]
        assert result == [v + 10 for v in range(8)]
        assert len(aspect.workers) == 2
        # 4 pieces over 2 workers round-robin: 2 calls each
        assert [w.calls for w in aspect.workers] == [2, 2]

    def test_no_creation_seen_means_plain_call(self):
        Counter = weave_counter()
        module = ParallelModule.of(FarmAspect(
            list_splitter(2, 4),
            "initialization(Widget.new(..))",  # never matches Counter
            "call(Counter.bump(..))",
        ))
        comp = Composition("farm", [module])
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Counter]):
                counter = Counter(1)
                result = counter.bump([1, 2])
        assert result == [2, 3]
        assert counter.calls == 1


class Dawdler:
    """Pipeline stage: value 1 (piece 0) takes 40 ms, the others 1 ms."""

    def run(self, values):
        current_backend().sleep(0.04 if values == [1] else 0.001)
        return values


class TestPipelineAspect:
    def test_forwarding_counts_and_stage_traversal(self):
        Counter = weave_counter()
        splitter = list_splitter(3, 2)
        module = ParallelModule.of(PipelineSplitAspect(
            splitter,
            "initialization(Counter.new(..))",
            "call(Counter.bump(..))",
        ))
        comp = Composition("pipe", [module])
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Counter]):
                counter = Counter(1)
                result = counter.bump([0, 0, 0, 0])
        split_aspect = module.aspects[0]
        forward_aspect = module.aspects[1]
        # each of 3 stages adds base=1: every element gains 3
        assert result == [3, 3, 3, 3]
        # one call, one ticket, claimed by the split: 2 pieces × (3-1)
        # forwards, each a hop and a forward mark on it
        assert forward_aspect.coordinator is split_aspect
        tickets = {id(t): t for s in split_aspect.instances for t in s.tickets}
        (ticket,) = tickets.values()
        assert (ticket.name, ticket.claimed) == ("pipeline.bump", True)
        trace = ticket.trace_snapshot()
        assert trace["hops"] == 4
        assert [s["name"] for s in trace["spans"]].count("forward") == 4
        # every stage saw every piece
        assert [s.calls for s in split_aspect.instances] == [2, 2, 2]

    @pytest.mark.parametrize("backend", ["thread", "sim"])
    def test_combine_sees_results_in_piece_order(self, backend):
        """However the journeys finish — piece 0 dawdles here — the tail's
        deposits reach ``combine`` in piece order, as the farms' do."""
        spec = dict(backend=backend)
        if backend == "sim":
            spec.update(middleware="mpp", cluster=paper_testbed(Simulator()))
        app = ParallelApp(StackSpec(
            target=Dawdler,
            work="run",
            strategy="pipeline",
            splitter=WorkSplitter(
                duplicates=2,
                split=lambda a, k: [CallPiece(i, ([v],)) for i, v in enumerate(a[0])],
                combine=lambda results: results,
            ),
            **spec,
        ))
        out = {}

        def main():
            app.start()
            out["results"] = app.submit([1, 2, 3, 4]).result(timeout=20)

        try:
            with app:
                if app.sim is None:
                    main()
                else:
                    app.sim.spawn(main, name="ordered")
                    app.sim.run()
        finally:
            if app.sim is not None:
                app.sim.shutdown()
        assert out["results"] == [[1], [2], [3], [4]]

    def test_first_stage_returned_to_client(self):
        Counter = weave_counter()
        module = ParallelModule.of(PipelineSplitAspect(
            list_splitter(3, 2),
            "initialization(Counter.new(..))",
            "call(Counter.bump(..))",
        ))
        comp = Composition("pipe", [module])
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Counter]):
                counter = Counter(1)
                aspect = module.aspects[0]
                assert counter is aspect.first
                assert aspect.next[id(aspect.instances[-1])] is None


class TestDynamicFarmAspect:
    def test_demand_driven_serves_all_pieces(self):
        Counter = weave_counter()
        module = ParallelModule.of(DynamicFarmAspect(
            list_splitter(3, 9),
            "initialization(Counter.new(..))",
            "call(Counter.bump(..))",
        ))
        comp = Composition("dyn", [module])
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Counter]):
                counter = Counter(5)
                result = counter.bump(list(range(9)))
        aspect = module.aspects[0]
        assert result == [v + 5 for v in range(9)]
        assert sum(aspect.served.values()) == 9
        # demand-driven: whichever workers were hungry took the work —
        # with real threads a fast worker may drain the queue alone, so
        # only the ledger total is deterministic.
        assert set(aspect.served) == {0, 1, 2}
