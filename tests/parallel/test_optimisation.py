"""Optimisation aspects: thread pool, packing, caching, replication."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.errors import AdviceError
from repro.parallel import (
    AsyncInvocationAspect,
    CommunicationPackingAspect,
    Composition,
    Concern,
    ObjectCacheAspect,
    ParallelModule,
    PooledSpawner,
    ReplicationAspect,
    SpawnPerCall,
    ThreadPoolAspect,
)
from repro.parallel.partition import FarmAspect, PipelineSplitAspect
from repro.parallel.partition import CallPiece, WorkSplitter
from repro.runtime import (
    Future,
    SimBackend,
    ThreadBackend,
    current_dispatch,
    use_backend,
)
from repro.sim import Simulator


class TestThreadPoolAspect:
    def test_swaps_and_restores_spawner(self):
        async_aspect = AsyncInvocationAspect(async_calls="call(X.f(..))")
        assert isinstance(async_aspect.spawner, SpawnPerCall)
        pool_aspect = ThreadPoolAspect(async_aspect, size=4)
        default_weaver.deploy(pool_aspect)
        assert isinstance(async_aspect.spawner, PooledSpawner)
        assert async_aspect.spawner.size == 4
        default_weaver.undeploy(pool_aspect)
        assert isinstance(async_aspect.spawner, SpawnPerCall)

    def test_pool_bounds_concurrency_in_sim(self):
        class Job:
            def run(self, duration):
                from repro.sim import current_simulator

                current_simulator().hold(duration)
                return duration

        weave(Job)
        async_aspect = AsyncInvocationAspect(async_calls="call(Job.run(..))")
        pool_aspect = ThreadPoolAspect(async_aspect, size=2)
        sim = Simulator()
        backend = SimBackend(sim)
        out = {}

        def main():
            with use_backend(backend):
                default_weaver.deploy(async_aspect)
                default_weaver.deploy(pool_aspect)
                job = Job()
                futures = [job.run(1.0) for _ in range(4)]
                for f in futures:
                    f.result()
                out["t"] = sim.now

        sim.spawn(main)
        sim.run()
        default_weaver.undeploy(pool_aspect)
        sim.shutdown()
        # 4 one-second jobs through 2 workers -> 2 simulated seconds
        assert out["t"] == pytest.approx(2.0)
        assert pool_aspect.pool is None  # stopped on undeploy

    def test_invalid_pool_size(self):
        with pytest.raises(ValueError):
            PooledSpawner(0)


class TestCommunicationPacking:
    def make_farm(self, factor):
        class Adder:
            def __init__(self):
                self.calls = 0

            def add(self, values):
                self.calls += 1
                return [v + 1 for v in values]

        weave(Adder)

        def split(args, kwargs):
            (values,) = args
            return [CallPiece(i, ([v],)) for i, v in enumerate(values)]

        def combine(results):
            return [v for r in results for v in r]

        def merge(pieces):
            merged = [v for p in pieces for v in p.args[0]]
            return CallPiece(pieces[0].index, (merged,))

        splitter = WorkSplitter(
            duplicates=2, split=split, combine=combine, merge_pieces=merge
        )
        module = ParallelModule.of(FarmAspect(
            splitter, "initialization(Adder.new(..))", "call(Adder.add(..))"
        ))
        comp = Composition("farm", [module])
        packing = CommunicationPackingAspect(module.aspects[0], factor)
        comp.plug(ParallelModule("packing", Concern.OPTIMISATION, [packing]))
        return Adder, comp, module.aspects[0], packing

    def test_packing_reduces_messages(self):
        Adder, comp, farm, packing = self.make_farm(factor=3)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Adder]):
                adder = Adder()
                result = adder.add(list(range(6)))
        assert result == [v + 1 for v in range(6)]
        # 6 single-element pieces coalesced by 3 -> 2 calls
        assert sum(w.calls for w in farm.workers) == 2
        assert packing.packed_messages == 2

    def test_unplug_restores_split(self):
        Adder, comp, farm, packing = self.make_farm(factor=3)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Adder]):
                pass
            # after undeploy the splitter is back to per-element pieces
            pieces = farm.splitter.split(([1, 2, 3],), {})
            assert len(pieces) == 3

    def test_invalid_factor(self):
        with pytest.raises(AdviceError):
            CommunicationPackingAspect(object(), 0)


class TestBatchedPacking:
    """Batch-mode packing: packs dispatch through the compiled batched
    entry — one BatchJoinPoint per pack, no merge_pieces required."""

    def make_farm(self, factor, duplicates=2, batch=None, merge=False):
        class Adder:
            def __init__(self):
                self.calls = 0

            def add(self, values):
                self.calls += 1
                return [v + 1 for v in values]

        weave(Adder)

        def split(args, kwargs):
            (values,) = args
            return [CallPiece(i, ([v],)) for i, v in enumerate(values)]

        def combine(results):
            return [v for r in results for v in r]

        def merge_pieces(pieces):
            merged = [v for p in pieces for v in p.args[0]]
            return CallPiece(pieces[0].index, (merged,))

        splitter = WorkSplitter(
            duplicates=duplicates,
            split=split,
            combine=combine,
            merge_pieces=merge_pieces if merge else None,
        )
        module = ParallelModule.of(FarmAspect(
            splitter, "initialization(Adder.new(..))", "call(Adder.add(..))"
        ))
        comp = Composition("farm", [module])
        packing = CommunicationPackingAspect(
            module.aspects[0], factor, batch=batch
        )
        comp.plug(ParallelModule("packing", Concern.OPTIMISATION, [packing]))
        return Adder, comp, module.aspects[0], packing

    def test_batch_mode_is_default_without_merge_pieces(self):
        Adder, comp, farm, packing = self.make_farm(factor=3)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Adder]):
                adder = Adder()
                result = adder.add(list(range(6)))
        # combine sees per-ITEM results in original order (unlike merge
        # mode, which sees pack-granular results)
        assert result == [v + 1 for v in range(6)]
        assert packing.packed_messages == 2
        # the target method still ran once per item
        assert sum(w.calls for w in farm.workers) == 6

    def test_batch_pack_allocates_one_joinpoint(self):
        import repro.aop.plan as plan_mod
        from repro.aop.plan import BatchJoinPoint, JoinPoint

        counts = {"jp": 0, "batch": 0}

        # the call plan allocates its joinpoint via __new__ (no __init__
        # frame), so count allocations there
        class CountingJP(JoinPoint):
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                counts["jp"] += 1
                return super().__new__(cls)

        class CountingBatchJP(BatchJoinPoint):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                counts["batch"] += 1
                super().__init__(*args, **kwargs)

        Adder, comp, farm, packing = self.make_farm(factor=4, batch=True)
        saved = (plan_mod.JoinPoint, plan_mod.BatchJoinPoint)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Adder]):
                adder = Adder()
                plan_mod.JoinPoint = CountingJP
                plan_mod.BatchJoinPoint = CountingBatchJP
                try:
                    result = adder.add(list(range(8)))
                finally:
                    plan_mod.JoinPoint, plan_mod.BatchJoinPoint = saved
        assert result == [v + 1 for v in range(8)]
        # 8 items / factor 4 -> 2 packs -> 2 BatchJoinPoints, plus the
        # single JoinPoint of the client's own split call
        assert counts["batch"] == 2
        assert counts["jp"] == 1

    def test_forced_batch_mode_beats_missing_merge_support(self):
        # a splitter WITH merge support can still opt into batch mode
        Adder, comp, farm, packing = self.make_farm(
            factor=2, batch=True, merge=True
        )
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Adder]):
                result = Adder().add(list(range(4)))
        assert result == [v + 1 for v in range(4)]
        assert sum(w.calls for w in farm.workers) == 4


class TestBatchedPipeline:
    """Packs traverse pipeline stages as single batched hops."""

    def test_pack_forwarded_batched_through_stages(self):
        class Stage:
            def __init__(self, offset=0):
                self.offset = offset
                self.calls = 0
                self.tickets = []

            def work(self, value):
                self.calls += 1
                self.tickets.append(current_dispatch())
                return value + self.offset + 1

        weave(Stage)

        def split(args, kwargs):
            (values,) = args
            return [CallPiece(i, (v,)) for i, v in enumerate(values)]

        splitter = WorkSplitter(
            duplicates=2,
            split=split,
            combine=lambda results: sorted(results),
            forward_args=lambda result, args, kwargs: ((result,), {}),
        )
        module = ParallelModule.of(PipelineSplitAspect(
            splitter, "initialization(Stage.new(..))", "call(Stage.work(..))"
        ))
        comp = Composition("pipe", [module])
        packing = CommunicationPackingAspect(module.aspects[0], 2, batch=True)
        comp.plug(ParallelModule("packing", Concern.OPTIMISATION, [packing]))
        forward = module.aspects[1]
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[Stage]):
                result = Stage().work([10, 20, 30, 40])
        # two stages, each +1 -> every item gains 2
        assert result == [12, 22, 32, 42]
        # 4 items / factor 2 -> 2 packs, each forwarded once (stage1 ->
        # stage2), batched: 2 forwards instead of 4, on the call's ticket
        assert forward.coordinator is module.aspects[0]
        stages = module.aspects[0].instances
        (ticket,) = {id(t): t for s in stages for t in s.tickets}.values()
        spans = ticket.trace_snapshot()["spans"]
        assert [s["name"] for s in spans].count("forward") == 2


class TestObjectCache:
    def make_service(self):
        class Service:
            def __init__(self):
                self.calls = 0

            def compute(self, x):
                self.calls += 1
                return x * 2

        weave(Service)
        return Service

    def test_cache_hits_skip_target(self):
        Service = self.make_service()
        cache = ObjectCacheAspect(cached_calls="call(Service.compute(..))")
        default_weaver.deploy(cache)
        service = Service.__new__(Service)
        service.calls = 0
        assert service.compute(3) == 6
        assert service.compute(3) == 6
        assert service.compute(4) == 8
        assert service.calls == 2
        assert cache.hits == 1 and cache.misses == 2
        assert cache.hit_rate == pytest.approx(1 / 3)

    def test_per_target_mode(self):
        Service = self.make_service()
        cache = ObjectCacheAspect(
            cached_calls="call(Service.compute(..))", per_target=True
        )
        default_weaver.deploy(cache)
        a, b = Service(), Service()
        a.compute(3)
        b.compute(3)  # different target -> miss
        assert cache.misses == 2

    def test_capacity_limit_evicts_lru(self):
        Service = self.make_service()
        cache = ObjectCacheAspect(
            cached_calls="call(Service.compute(..))", max_entries=1
        )
        default_weaver.deploy(cache)
        service = Service()
        service.compute(1)
        service.compute(2)  # evicts 1 (LRU)
        service.compute(2)  # hit
        service.compute(1)  # evicted above -> recomputed
        assert service.calls == 3
        assert cache.hits == 1 and cache.misses == 3

    def test_lru_recency_order(self):
        Service = self.make_service()
        cache = ObjectCacheAspect(
            cached_calls="call(Service.compute(..))", max_entries=2
        )
        default_weaver.deploy(cache)
        service = Service()
        service.compute(1)
        service.compute(2)
        service.compute(1)  # hit: 1 becomes most recently used
        service.compute(3)  # evicts 2, not 1
        service.compute(1)  # still cached
        service.compute(2)  # evicted -> recomputed
        assert service.calls == 4
        assert cache.hits == 2

    def test_clear_and_undeploy(self):
        Service = self.make_service()
        cache = ObjectCacheAspect(cached_calls="call(Service.compute(..))")
        default_weaver.deploy(cache)
        service = Service()
        service.compute(1)
        cache.clear()
        service.compute(1)
        assert cache.misses == 2

    def test_pack_partial_hit_splits_and_reinterleaves(self):
        """Pack-8 with 50% already cached: ONE cache lookup for the
        pack, only the 4 misses reach the target (as a smaller pack),
        and the results come back in piece order."""
        from repro.aop.plan import batched_entry

        Service = self.make_service()
        cache = ObjectCacheAspect(cached_calls="call(Service.compute(..))")
        default_weaver.deploy(cache)
        service = Service()
        for x in (0, 2, 4, 6):  # warm half the pack
            service.compute(x)
        assert service.calls == 4 and cache.pack_lookups == 0
        entry = batched_entry(service, "compute")
        results = entry([((x,), {}) for x in range(8)])
        assert results == [x * 2 for x in range(8)]  # piece order
        assert cache.pack_lookups == 1  # exactly one lookup per pack
        assert service.calls == 8  # only the 4 misses recomputed
        assert cache.hits == 4 and cache.misses == 8

    def test_pack_full_hit_never_proceeds(self):
        from repro.aop.plan import batched_entry

        Service = self.make_service()
        cache = ObjectCacheAspect(cached_calls="call(Service.compute(..))")
        default_weaver.deploy(cache)
        service = Service()
        entry = batched_entry(service, "compute")
        assert entry([((x,), {}) for x in range(4)]) == [0, 2, 4, 6]
        calls_after_first = service.calls
        assert entry([((x,), {}) for x in range(4)]) == [0, 2, 4, 6]
        assert service.calls == calls_after_first  # fully cached pack
        assert cache.pack_lookups == 2

    def test_concurrent_memoisation_is_consistent(self):
        import threading

        Service = self.make_service()
        cache = ObjectCacheAspect(
            cached_calls="call(Service.compute(..))", max_entries=8
        )
        default_weaver.deploy(cache)
        service = Service()
        errors: list = []

        def worker():
            try:
                for _ in range(200):
                    for x in range(12):  # > max_entries: constant churn
                        assert service.compute(x) == x * 2
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.hits + cache.misses == 4 * 200 * 12


class TestReadReplica:
    def make_store(self):
        class Store:
            def __init__(self):
                self.data = {}
                self.reads = 0

            def get(self, key):
                self.reads += 1
                return self.data.get(key)

            def put(self, key, value):
                self.data[key] = value

        weave(Store)
        return Store

    def make_partition(self, *instances):
        from repro.parallel.partition.base import PartitionAspect

        partition = PartitionAspect.__new__(PartitionAspect)
        partition.managed = {}
        partition.instances = []
        for index, obj in enumerate(instances):
            partition.remember(obj, index)
        return partition

    def deploy(self, Store, partition, **kwargs):
        from repro.parallel import ReadReplicaAspect

        aspect = ReadReplicaAspect(
            partition,
            read_calls=f"call({Store.__name__}.get(..))",
            write_calls=f"call({Store.__name__}.put(..))",
            **kwargs,
        )
        default_weaver.deploy(aspect)
        return aspect

    def test_reads_served_by_local_replica(self):
        Store = self.make_store()
        store = Store()
        store.data["k"] = 1
        partition = self.make_partition(store)
        aspect = self.deploy(Store, partition)
        assert store.get("k") == 1
        # the live servant never saw the read: the replica did
        assert store.reads == 0
        assert aspect.local_reads == 1 and aspect.replica_builds == 1
        # replica is detached: a direct (unadvised) state change on the
        # servant is not visible until invalidation
        store.data["k"] = 2
        assert store.get("k") == 1
        aspect.invalidate(store)
        assert store.get("k") == 2
        assert aspect.invalidations == 1 and aspect.replica_builds == 2

    def test_write_through_invalidates(self):
        Store = self.make_store()
        store = Store()
        store.data["k"] = 1
        partition = self.make_partition(store)
        aspect = self.deploy(Store, partition)
        assert store.get("k") == 1
        store.put("k", 9)  # full chain + invalidation
        assert store.data["k"] == 9
        assert store.get("k") == 9  # rebuilt replica sees the write
        assert aspect.invalidations == 1

    def test_batched_reads_answered_as_pack(self):
        from repro.aop.plan import batched_entry

        Store = self.make_store()
        store = Store()
        store.data.update({i: i * 10 for i in range(6)})
        partition = self.make_partition(store)
        aspect = self.deploy(Store, partition)
        entry = batched_entry(store, "get")
        assert entry([((i,), {}) for i in range(6)]) == [
            i * 10 for i in range(6)
        ]
        assert store.reads == 0  # zero chain traversals hit the servant
        assert aspect.local_reads == 6 and aspect.replica_builds == 1

    def test_unmanaged_target_proceeds(self):
        Store = self.make_store()
        managed, stranger = Store(), Store()
        stranger.data["k"] = 7
        partition = self.make_partition(managed)
        aspect = self.deploy(Store, partition)
        assert stranger.get("k") == 7
        assert stranger.reads == 1  # served by the servant itself
        assert aspect.local_reads == 0

    READS = 20

    def remote_read_messages(self, replicated):
        """Messages on the simulated wire for READS reads of a table the
        MPP distribution aspect serves from a remote node of the paper
        testbed, counted after one read that builds any replica."""
        from repro.cluster import paper_testbed
        from repro.middleware import MppMiddleware, use_node
        from repro.parallel import MppDistributionAspect, ReadReplicaAspect

        class Table:
            def __init__(self):
                self.data = {i: i * 2 for i in range(16)}

            def get(self, key):
                return self.data.get(key)

        weave(Table)
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)
        default_weaver.deploy(
            MppDistributionAspect(
                mpp,
                remote_new="initialization(Table.new(..))",
                remote_calls="call(Table.get(..))",
            )
        )
        backend = SimBackend(sim)
        out = {}

        def on_head(body):
            def main():
                with use_backend(backend), use_node(cluster.head):
                    body()

            sim.spawn(main)
            sim.run()

        try:
            on_head(lambda: out.update(table=Table()))
            table = out["table"]
            if replicated:
                default_weaver.deploy(
                    ReadReplicaAspect(
                        self.make_partition(table),
                        read_calls="call(Table.get(..))",
                    )
                )
            on_head(lambda: table.get(0))
            before = cluster.network.messages
            on_head(
                lambda: out.update(
                    reads=[table.get(i % 16) for i in range(self.READS)]
                )
            )
            assert out["reads"] == [(i % 16) * 2 for i in range(self.READS)]
            return cluster.network.messages - before
        finally:
            mpp.shutdown()
            sim.shutdown()

    def test_replica_reads_over_distribution_send_no_message(self):
        assert self.remote_read_messages(replicated=True) == 0

    def test_remote_reads_send_a_request_and_a_reply_each(self):
        assert self.remote_read_messages(replicated=False) == 2 * self.READS

    def test_snapshot_rejects_unmanaged(self):
        Store = self.make_store()
        partition = self.make_partition()
        with pytest.raises(AdviceError):
            partition.snapshot(Store())


class TestReplication:
    def test_first_result_wins_in_sim(self):
        class Node:
            def __init__(self, delay):
                self.delay = delay

            def query(self, key):
                from repro.sim import current_simulator

                current_simulator().hold(self.delay)
                return (self.delay, key)

        weave(Node)

        # a fake partition exposing worker instances
        class FakePartition:
            pass

        partition = FakePartition()
        sim = Simulator()
        backend = SimBackend(sim)
        slow, fast = None, None
        out = {}

        def main():
            nonlocal slow, fast
            with use_backend(backend):
                slow = Node(5.0)
                fast = Node(1.0)
                partition.instances = [slow, fast]
                replication = ReplicationAspect(
                    partition, replicas=2, replicated_calls="call(Node.query(..))"
                )
                default_weaver.deploy(replication)
                out["result"] = slow.query("k")  # replica on fast node wins
                out["t"] = sim.now
                out["count"] = replication.replicated

        sim.spawn(main)
        sim.run()
        sim.shutdown()
        assert out["result"] == (1.0, "k")
        assert out["t"] == pytest.approx(1.0)
        assert out["count"] == 1

    def test_no_peers_proceeds_normally(self):
        class Node:
            def query(self, key):
                return key

        weave(Node)

        class FakePartition:
            instances = []

        replication = ReplicationAspect(
            FakePartition(), replicas=2, replicated_calls="call(Node.query(..))"
        )
        default_weaver.deploy(replication)
        assert Node().query("x") == "x"

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            ReplicationAspect(object(), replicas=0)
