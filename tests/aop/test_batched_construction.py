"""Batched construction: one initialization joinpoint per duplicate set.

Duplication loops ship a :class:`~repro.aop.plan.CtorPack` through a
single ``proceed`` — the inner initialization chain (and the
distribution aspect's create-remote) runs once per set while still
building and exporting one instance per argset.
"""

from __future__ import annotations

import pytest

from repro.aop import Aspect, around, ctor_pack_of, deploy, weave
from repro.aop.plan import CtorPack
from repro.aop.weaver import default_weaver
from repro.parallel import (
    Composition,
    DynamicFarmAspect,
    FarmAspect,
    HeartbeatAspect,
    ParallelModule,
    PipelineSplitAspect,
    WorkSplitter,
)

CREATION = "initialization(Worker.new(..))"
WORK = "call(Worker.step(..))"


def make_worker():
    class Worker:
        def __init__(self, index=0):
            self.index = index

        def step(self, x):
            return (self.index, x)

        def get_boundary(self, side):
            return self.index

        def set_boundary(self, side, value):
            pass

    Worker.__name__ = "Worker"
    return Worker


def indexed_splitter(n):
    return WorkSplitter(
        duplicates=n, ctor_args=lambda a, k, i, count: ((i,), {})
    )


class InitCounter(Aspect):
    """Inner initialization advice: counts chain passes and instances."""

    precedence = 10  # below every partition layer

    def __init__(self, pointcut=CREATION):
        self.pointcut = pointcut
        self.passes = 0
        self.instances_seen = 0
        self.pack_sizes = []

    @around("pointcut")
    def observe(self, jp):
        self.passes += 1
        result = jp.proceed()
        pack = ctor_pack_of(jp)
        if pack is not None:
            self.pack_sizes.append(len(pack))
            self.instances_seen += len(result)
        else:
            self.instances_seen += 1
        return result


@pytest.mark.parametrize(
    "strategy",
    [FarmAspect, DynamicFarmAspect, HeartbeatAspect, PipelineSplitAspect],
    ids=["farm", "dynamic-farm", "heartbeat", "pipeline"],
)
def test_one_init_joinpoint_per_duplicate_set(strategy):
    Worker = make_worker()
    counter = InitCounter()
    aspect = strategy(indexed_splitter(5), CREATION, WORK)
    comp = Composition("t", [ParallelModule.of(aspect)])
    weave(Worker)
    deploy(counter)
    with comp.deployed(default_weaver, targets=[Worker]):
        first = Worker()
        assert counter.passes == 1  # ONE chain pass for the whole set
        assert counter.pack_sizes == [5]
        assert counter.instances_seen == 5
        assert len(aspect.instances) == 5
        assert [w.index for w in aspect.instances] == [0, 1, 2, 3, 4]
        assert first is aspect.instances[0]


def test_plain_construction_not_packed():
    Worker = make_worker()
    counter = InitCounter()
    weave(Worker)
    deploy(counter)
    w = Worker(7)
    assert w.index == 7
    assert counter.passes == 1
    assert counter.pack_sizes == []  # ordinary per-instance construction


def test_ctor_pack_normalises_argsets():
    pack = CtorPack([((1,), {}), ([2], {"a": 3})])
    assert len(pack) == 2
    assert pack.argsets == (((1,), {}), ((2,), {"a": 3}))


def test_ctor_pack_of_rejects_non_pack_joinpoints():
    class FakeJp:
        args = (1, 2)
        kwargs = {}

    assert ctor_pack_of(FakeJp()) is None


def test_distribution_exports_each_pack_instance():
    from repro.cluster import paper_testbed
    from repro.middleware.rmi import RmiMiddleware
    from repro.parallel import RmiDistributionAspect
    from repro.sim import Simulator

    Worker = make_worker()
    sim = Simulator()
    cluster = paper_testbed(sim)
    middleware = RmiMiddleware(cluster)
    counter = InitCounter()
    farm = FarmAspect(indexed_splitter(4), CREATION, WORK)
    aspect = RmiDistributionAspect(middleware, None, CREATION, WORK)
    comp = Composition("dist", [ParallelModule.of(farm), ParallelModule.of(aspect)])
    deploy(counter)
    try:
        with comp.deployed(default_weaver, targets=[Worker]):
            Worker()
            # one batched joinpoint...
            assert counter.passes == 1
            # ...but every worker individually exported, in index order
            assert aspect.count == 4
            refs = [aspect.ref_of(w) for w in farm.workers]
            assert all(ref is not None for ref in refs)
            assert len({ref.object_id for ref in refs}) == 4
            assert len(middleware.registry.names()) == 4
    finally:
        middleware.shutdown()
        sim.shutdown()
