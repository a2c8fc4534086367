"""Module composition: plug/unplug/exchange semantics."""

from __future__ import annotations

import pytest

from repro.aop import Aspect, around
from repro.aop.weaver import default_weaver
from repro.errors import DeploymentError
from repro.parallel import Composition, Concern, ParallelModule


def make_counting_module(name, concern=Concern.PARTITION):
    hits = []

    class Counting(Aspect):
        @around("call(Widget.work(..))")
        def count(self, jp):
            hits.append(name)
            return jp.proceed()

    module = ParallelModule(name, concern, [Counting()])
    return module, hits


def make_widget():
    class Widget:
        def work(self):
            return "done"

    return Widget


class TestParallelModule:
    def test_of_names_the_module_after_the_concern(self):
        from repro.parallel import (
            FarmAspect,
            MppDistributionAspect,
            PipelineSplitAspect,
            WorkSplitter,
        )
        from repro.cluster import paper_testbed
        from repro.middleware import MppMiddleware
        from repro.sim import Simulator

        farm = ParallelModule.of(FarmAspect(WorkSplitter(2)))
        assert (farm.name, farm.concern) == ("partition", Concern.PARTITION)
        distribution = ParallelModule.of(
            MppDistributionAspect(MppMiddleware(paper_testbed(Simulator())))
        )
        assert distribution.name == "distribution"
        assert ParallelModule.of(FarmAspect(WorkSplitter(2)), "farm").name == "farm"
        # the pipeline's split aspect brings its forward aspect along
        split = PipelineSplitAspect(WorkSplitter(2))
        assert ParallelModule.of(split).aspects == (split, split.forward)
        comp = Composition("c", [farm, distribution])
        assert comp.unplug("distribution") is distribution
        assert comp.exchange("partition", ParallelModule.of(split)) is farm

    def test_empty_module_rejected(self):
        with pytest.raises(DeploymentError):
            ParallelModule("empty", Concern.PARTITION, [])

    def test_module_deploys_all_aspects_atomically(self):
        Widget = make_widget()
        module, hits = make_counting_module("m1")
        module.deploy(default_weaver, targets=[Widget])
        assert module.is_deployed(default_weaver)
        Widget().work()
        assert hits == ["m1"]
        module.undeploy(default_weaver)
        Widget().work()
        assert hits == ["m1"]

    def test_failed_module_deploy_rolls_back(self):
        Widget = make_widget()

        class Good(Aspect):
            @around("call(Widget.work(..))")
            def ok(self, jp):
                return jp.proceed()

        class Bad(Aspect):
            @around("no_such_named_pointcut")
            def broken(self, jp):
                return jp.proceed()

        good = Good()
        module = ParallelModule("mixed", Concern.PARTITION, [good, Bad()])
        with pytest.raises(DeploymentError):
            module.deploy(default_weaver, targets=[Widget])
        assert not default_weaver.is_deployed(good)


class TestComposition:
    def test_deploy_undeploy_cycle(self):
        Widget = make_widget()
        m1, h1 = make_counting_module("partition")
        m2, h2 = make_counting_module("concurrency", Concern.CONCURRENCY)
        comp = Composition("combo", [m1, m2])
        with comp.deployed(default_weaver, targets=[Widget]):
            Widget().work()
        Widget().work()
        assert h1 == ["partition"] and h2 == ["concurrency"]

    def test_double_deploy_rejected(self):
        comp = Composition("c", [make_counting_module("m")[0]])
        comp.deploy(default_weaver)
        with pytest.raises(DeploymentError):
            comp.deploy(default_weaver)
        comp.undeploy()

    def test_plug_while_live_deploys_immediately(self):
        Widget = make_widget()
        m1, h1 = make_counting_module("m1")
        comp = Composition("c", [m1])
        with comp.deployed(default_weaver, targets=[Widget]):
            m2, h2 = make_counting_module("m2")
            comp.plug(m2)
            Widget().work()
        assert h2 == ["m2"]

    def test_duplicate_plug_rejected(self):
        m1, _ = make_counting_module("m")
        m2, _ = make_counting_module("m")
        comp = Composition("c", [m1])
        with pytest.raises(DeploymentError):
            comp.plug(m2)

    def test_unplug_while_live(self):
        Widget = make_widget()
        m1, h1 = make_counting_module("m1")
        m2, h2 = make_counting_module("m2")
        comp = Composition("c", [m1, m2])
        with comp.deployed(default_weaver, targets=[Widget]):
            comp.unplug("m2")
            Widget().work()
        assert h1 == ["m1"] and h2 == []

    def test_unplug_unknown_rejected(self):
        comp = Composition("c", [])
        with pytest.raises(DeploymentError):
            comp.unplug("ghost")

    def test_exchange_swaps_modules(self):
        Widget = make_widget()
        m1, h1 = make_counting_module("pipeline")
        m2, h2 = make_counting_module("farm")
        comp = Composition("c", [m1])
        with comp.deployed(default_weaver, targets=[Widget]):
            removed = comp.exchange("pipeline", m2)
            assert removed is m1
            Widget().work()
        assert h1 == [] and h2 == ["farm"]

    def test_by_concern_and_describe(self):
        m1, _ = make_counting_module("part", Concern.PARTITION)
        m2, _ = make_counting_module("conc", Concern.CONCURRENCY)
        comp = Composition("combo", [m1, m2])
        assert comp.by_concern(Concern.PARTITION) == [m1]
        assert comp.by_concern(Concern.DISTRIBUTION) == []
        text = comp.describe()
        assert "combo" in text and "part" in text and "conc" in text

    def test_module_lookup(self):
        m1, _ = make_counting_module("m1")
        comp = Composition("c", [m1])
        assert comp.module("m1") is m1
        with pytest.raises(DeploymentError):
            comp.module("nope")
