"""Concurrency and distribution aspects as units (on the simulator,
where interleavings are deterministic)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.cluster import paper_testbed
from repro.errors import PlacementError, RemoteError
from repro.middleware import (
    BlockPlacement,
    FixedPlacement,
    LeastLoaded,
    LocalMiddleware,
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


class Host:
    """A host that is not a cluster node: what a policy needs of one."""

    def __init__(self, name):
        self.name = name
        self.resident_objects = []


class TestPlacementPolicies:
    """Policies choose out of any sequence of hosts: a simulated
    cluster's nodes, or a plain list such as the process middleware's
    worker slots."""

    hosts = [Host("a"), Host("b"), Host("c")]

    def names(self, policy, count, hosts=None):
        hosts = self.hosts if hosts is None else hosts
        return [policy.choose(hosts, i).name for i in range(count)]

    def test_round_robin_cycles(self):
        nodes = paper_testbed(Simulator()).nodes
        chosen = [RoundRobin().choose(nodes, i).node_id for i in range(9)]
        assert chosen == [0, 1, 2, 3, 4, 5, 6, 0, 1]

    def test_round_robin_over_a_list(self):
        assert self.names(RoundRobin(), 4) == ["a", "b", "c", "a"]

    def test_round_robin_offset(self):
        assert self.names(RoundRobin(offset=2), 2) == ["c", "a"]

    def test_random_deterministic_under_seed(self):
        a = RandomPlacement(seed=7)
        b = RandomPlacement(seed=7)
        seq_a = self.names(a, 10)
        assert seq_a == self.names(b, 10)
        assert set(seq_a) <= {"a", "b", "c"}
        a.reset()
        assert self.names(a, 10) == seq_a

    def test_block_placement(self):
        nodes = paper_testbed(Simulator()).nodes
        policy = BlockPlacement(block=3)
        assert [policy.choose(nodes, i).node_id for i in range(7)] == [
            0, 0, 0, 1, 1, 1, 2,
        ]

    def test_block_placement_wraps(self):
        assert self.names(BlockPlacement(block=2), 7) == [
            "a", "a", "b", "b", "c", "c", "a",
        ]

    def test_least_loaded_follows_resident_objects(self):
        nodes = paper_testbed(Simulator()).nodes
        policy = LeastLoaded()
        first = policy.choose(nodes, 0)
        assert first.node_id == 0
        first.place(object())
        assert policy.choose(nodes, 1).node_id == 1

    def test_least_loaded_over_a_list_takes_the_first_of_a_tie(self):
        hosts = [Host("a"), Host("b"), Host("c")]
        hosts[0].resident_objects.append(object())
        assert LeastLoaded().choose(hosts, 0).name == "b"

    def test_fixed_placement(self):
        nodes = paper_testbed(Simulator()).nodes
        assert FixedPlacement(3).choose(nodes, 5).node_id == 3
        assert self.names(FixedPlacement(1), 2) == ["b", "b"]

    def test_fixed_placement_outside_the_group_is_refused(self):
        with pytest.raises(PlacementError, match="position 3 .* 3 hosts"):
            FixedPlacement(3).choose(self.hosts, 0)


class TestHostGroups:
    """What each middleware offers a construction to be placed on."""

    def test_a_simulated_middleware_offers_its_cluster_nodes(self):
        cluster = paper_testbed(Simulator())
        for middleware in (RmiMiddleware(cluster), MppMiddleware(cluster)):
            for count in (1, 3, 20):
                assert middleware.hosts(count) is cluster.nodes

    def test_the_local_middleware_offers_none_and_exports_hostless(self):
        local = LocalMiddleware()
        assert tuple(local.hosts(4)) == ()
        aspect = MppDistributionAspect(local, placement=FixedPlacement(9))
        built = [make_worker()(wid) for wid in range(2)]
        # no host group: the policy is never asked, so a position no
        # group could hold is not refused
        aspect._associate_all(built)
        refs = [aspect.ref_of(obj) for obj in built]
        assert [local.servant_of(ref).wid for ref in refs] == [0, 1]
