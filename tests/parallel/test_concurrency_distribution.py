"""Concurrency and distribution aspects as units (on the simulator,
where interleavings are deterministic)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.cluster import paper_testbed
from repro.errors import RemoteError
from repro.middleware import (
    BlockPlacement,
    FixedPlacement,
    LeastLoaded,
    MppMiddleware,
    RandomPlacement,
    RmiMiddleware,
    RoundRobin,
    use_node,
)
from repro.parallel import (
    AsyncInvocationAspect,
    MppDistributionAspect,
    RmiDistributionAspect,
    SynchronisationAspect,
)
from repro.runtime import Future, SimBackend, ThreadBackend, use_backend
from repro.sim import Simulator


def make_worker():
    class Worker:
        def __init__(self, wid=0):
            self.wid = wid
            self.log = []

        def slow(self, label, duration):
            from repro.sim import current_simulator

            sim = current_simulator()
            self.log.append((label, "start", sim.now))
            sim.hold(duration)
            self.log.append((label, "end", sim.now))
            return label

        def boom(self):
            raise ValueError("kaboom")

    return Worker


def sim_main(fn):
    """Run fn as a simulated main process; returns its result."""
    sim = Simulator()
    backend = SimBackend(sim)
    out = {}

    def main():
        with use_backend(backend):
            out["result"] = fn(sim, backend)

    sim.spawn(main, name="main")
    sim.run()
    sim.shutdown()
    return out["result"]


class TestAsyncInvocation:
    def test_calls_overlap_in_simulated_time(self):
        Worker = make_worker()
        weave(Worker)
        aspect = AsyncInvocationAspect(async_calls="call(Worker.slow(..))")

        def body(sim, backend):
            default_weaver.deploy(aspect)
            worker_a, worker_b = Worker(1), Worker(2)
            f1 = worker_a.slow("a", 2.0)
            f2 = worker_b.slow("b", 2.0)
            assert isinstance(f1, Future) and isinstance(f2, Future)
            assert f1.result() == "a" and f2.result() == "b"
            return sim.now

        # two 2-second calls overlapping -> 2 simulated seconds total
        assert sim_main(body) == pytest.approx(2.0)
        assert aspect.spawned_calls == 2

    def test_exception_travels_through_future(self):
        Worker = make_worker()
        weave(Worker)
        aspect = AsyncInvocationAspect(async_calls="call(Worker.boom(..))")

        def body(sim, backend):
            default_weaver.deploy(aspect)
            future = Worker().boom()
            with pytest.raises(ValueError, match="kaboom"):
                future.result()
            return True

        assert sim_main(body)


class TestSynchronisation:
    def test_per_target_serialisation(self):
        Worker = make_worker()
        weave(Worker)
        async_aspect = AsyncInvocationAspect(async_calls="call(Worker.slow(..))")
        sync_aspect = SynchronisationAspect(guarded_calls="call(Worker.slow(..))")

        def body(sim, backend):
            default_weaver.deploy(async_aspect)
            default_weaver.deploy(sync_aspect)
            worker = Worker()
            futures = [worker.slow(i, 1.0) for i in range(3)]
            for f in futures:
                f.result()
            return sim.now, worker.log

        total, log = sim_main(body)
        # same target -> serialized: 3 seconds
        assert total == pytest.approx(3.0)
        # no interleaving: each start follows the previous end
        starts = [t for (_, phase, t) in log if phase == "start"]
        ends = [t for (_, phase, t) in log if phase == "end"]
        assert all(s >= e for s, e in zip(starts[1:], ends))

    def test_different_targets_not_serialised(self):
        Worker = make_worker()
        weave(Worker)
        async_aspect = AsyncInvocationAspect(async_calls="call(Worker.slow(..))")
        sync_aspect = SynchronisationAspect(guarded_calls="call(Worker.slow(..))")

        def body(sim, backend):
            default_weaver.deploy(async_aspect)
            default_weaver.deploy(sync_aspect)
            futures = [Worker(i).slow(i, 1.0) for i in range(3)]
            for f in futures:
                f.result()
            return sim.now

        assert sim_main(body) == pytest.approx(1.0)

    def test_racing_first_calls_on_a_fresh_target_share_one_lock(self):
        """32 activities released by one barrier onto a target the
        aspect has never seen must all get the SAME lock: a
        get-then-store insert let each racer keep a lock of its own, and
        all of them entered the "monitor" together."""
        aspect = SynchronisationAspect(guarded_calls="call(Nothing.never(..))")
        racers = 32
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        backend = ThreadBackend()
        try:
            with use_backend(backend):
                for _ in range(150):
                    target = object()
                    barrier = threading.Barrier(racers)
                    seen: list = []

                    def race():
                        barrier.wait(10)
                        seen.append(aspect._lock_for(target))

                    tasks = [backend.spawn(race) for _ in range(racers)]
                    for task in tasks:
                        task.join()
                    assert len(seen) == racers
                    assert len({id(lock) for lock in seen}) == 1
        finally:
            sys.setswitchinterval(interval)


class TestDistributionAspects:
    def make_target(self):
        class Remote:
            def __init__(self, tag):
                self.tag = tag

            def work(self, x):
                return (self.tag, x)

            def fail(self):
                raise RuntimeError("remote boom")

        return Remote

    def test_rmi_aspect_creates_named_servants_and_redirects(self):
        Remote = self.make_target()
        weave(Remote)
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)
        aspect = RmiDistributionAspect(
            rmi,
            RoundRobin(offset=1),
            remote_new="initialization(Remote.new(..))",
            remote_calls="call(Remote.work(..)) || call(Remote.fail(..))",
        )
        backend = SimBackend(sim)
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                default_weaver.deploy(aspect)
                obj = Remote("alpha")
                out["result"] = obj.work(42)
                out["names"] = rmi.registry.names()
                out["ref"] = aspect.ref_of(obj)
                with pytest.raises(RemoteError):
                    obj.fail()
                out["errors"] = aspect.remote_errors

        sim.spawn(main)
        sim.run()
        rmi.shutdown()
        sim.shutdown()
        assert out["result"] == ("alpha", 42)
        assert out["names"] == ("PS1",)
        assert out["ref"].node_id == 1  # RoundRobin(offset=1)
        assert out["errors"] == 1
        assert aspect.redirected == 2

    def test_servant_is_a_state_copy(self):
        Remote = self.make_target()
        weave(Remote)
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)
        aspect = RmiDistributionAspect(
            rmi,
            remote_new="initialization(Remote.new(..))",
            remote_calls="call(Remote.work(..))",
        )
        backend = SimBackend(sim)
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                default_weaver.deploy(aspect)
                obj = Remote("original")
                obj.tag = "mutated-locally"  # must NOT affect the servant
                out["result"] = obj.work(1)

        sim.spawn(main)
        sim.run()
        rmi.shutdown()
        sim.shutdown()
        assert out["result"] == ("original", 1)

    def test_mpp_oneway_methods(self):
        Remote = self.make_target()
        weave(Remote)
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)
        aspect = MppDistributionAspect(
            mpp,
            remote_new="initialization(Remote.new(..))",
            remote_calls="call(Remote.work(..))",
            oneway=("work",),
        )
        backend = SimBackend(sim)
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                default_weaver.deploy(aspect)
                obj = Remote("x")
                out["result"] = obj.work(5)  # oneway -> None
                sim.hold(1.0)

        sim.spawn(main)
        sim.run()
        servant_result = out["result"]
        mpp.shutdown()
        sim.shutdown()
        assert servant_result is None
        assert mpp.oneway_calls == 1


class TestPlacementPolicies:
    def test_round_robin_cycles(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        policy = RoundRobin()
        chosen = [policy.choose(cluster, i).node_id for i in range(9)]
        assert chosen == [0, 1, 2, 3, 4, 5, 6, 0, 1]

    def test_round_robin_offset(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        policy = RoundRobin(offset=2)
        assert policy.choose(cluster, 0).node_id == 2

    def test_random_deterministic_under_seed(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        a = RandomPlacement(seed=7)
        b = RandomPlacement(seed=7)
        seq_a = [a.choose(cluster, i).node_id for i in range(10)]
        seq_b = [b.choose(cluster, i).node_id for i in range(10)]
        assert seq_a == seq_b
        a.reset()
        assert [a.choose(cluster, i).node_id for i in range(10)] == seq_a

    def test_block_placement(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        policy = BlockPlacement(block=3)
        assert [policy.choose(cluster, i).node_id for i in range(7)] == [
            0, 0, 0, 1, 1, 1, 2,
        ]

    def test_block_placement_wraps(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        policy = BlockPlacement(block=1)
        assert policy.choose(cluster, 8).node_id == 1

    def test_least_loaded_follows_resident_objects(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        policy = LeastLoaded()
        first = policy.choose(cluster, 0)
        assert first.node_id == 0
        first.place(object())
        assert policy.choose(cluster, 1).node_id == 1

    def test_fixed_placement(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        assert FixedPlacement(3).choose(cluster, 5).node_id == 3
