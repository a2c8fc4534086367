"""Cross-application distribution: the same reusable distribution
aspects drive the Mandelbrot farm and the Jacobi heartbeat on the
simulated testbed — the paper's reuse claim exercised end-to-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aop.weaver import default_weaver
from repro.apps.jacobi import (
    JACOBI_CREATION,
    JACOBI_WORK,
    JacobiGrid,
    jacobi_splitter,
)
from repro.apps.mandelbrot import (
    MandelbrotRenderer,
    MandelbrotScene,
    mandelbrot_splitter,
)
from repro.apps.mandelbrot.aspects import MANDEL_CREATION, MANDEL_WORK
from repro.cluster import paper_testbed
from repro.middleware import MppMiddleware, RmiMiddleware, use_node
from repro.parallel import (
    Composition,
    FarmAspect,
    HeartbeatAspect,
    MppDistributionAspect,
    ParallelModule,
    RmiDistributionAspect,
    concurrency_module,
)
from repro.runtime import Future, SimBackend, use_backend
from repro.sim import Simulator


class TestMandelbrotOverRMI:
    def test_distributed_farm_renders_identically(self):
        scene = MandelbrotScene(width=24, height=16, max_iter=20)
        sequential = MandelbrotRenderer(scene).render_all()

        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)
        comp = Composition(
            "mandel-rmi",
            [
                ParallelModule.of(
                    FarmAspect(
                        mandelbrot_splitter(workers=3, bands=4),
                        MANDEL_CREATION,
                        MANDEL_WORK,
                    )
                ),
                concurrency_module(MANDEL_WORK, MANDEL_WORK),
                ParallelModule.of(
                    RmiDistributionAspect(rmi, None, MANDEL_CREATION, MANDEL_WORK)
                ),
            ],
        )
        backend = SimBackend(sim)
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                renderer = MandelbrotRenderer(scene)
                image = renderer.render(np.arange(scene.height))
                if isinstance(image, Future):
                    image = image.result()
                out["image"] = image

        try:
            with comp.deployed(default_weaver, targets=[MandelbrotRenderer]):
                sim.spawn(main)
                sim.run()
        finally:
            rmi.shutdown()
            sim.shutdown()
        assert np.array_equal(out["image"], sequential)
        assert rmi.calls >= 4  # at least one per band
        assert cluster.network.remote_messages > 0


class TestJacobiOverMPP:
    def test_distributed_heartbeat_matches_sequential(self):
        rows, cols, iters = 10, 8, 15
        sequential = JacobiGrid(rows, cols)
        sequential.solve(iters)
        expected = sequential.interior()

        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)
        heartbeat = HeartbeatAspect(
            jacobi_splitter(blocks=3), JACOBI_CREATION, JACOBI_WORK
        )
        # boundary accessors travel through the middleware too
        aspect = MppDistributionAspect(
            mpp, None, JACOBI_CREATION, "call(JacobiGrid.*(..))"
        )
        comp = Composition(
            "jacobi-mpp", [ParallelModule.of(heartbeat), ParallelModule.of(aspect)]
        )
        backend = SimBackend(sim)
        out = {}

        def main():
            with use_backend(backend), use_node(cluster.head):
                grid = JacobiGrid(rows, cols)
                out["residual"] = grid.solve(iters)
                # gather the distributed blocks through the middleware
                blocks = []
                for worker in heartbeat.workers:
                    ref = aspect.ref_of(worker)
                    blocks.append(mpp.invoke(ref, "interior"))
                out["field"] = np.vstack(blocks)

        try:
            with comp.deployed(default_weaver, targets=[JacobiGrid]):
                sim.spawn(main)
                sim.run()
        finally:
            mpp.shutdown()
            sim.shutdown()
        assert out["field"].shape == expected.shape
        assert np.allclose(out["field"], expected)
        # every iteration exchanged halos across the network
        assert cluster.network.remote_messages > iters

    def test_heartbeat_exchange_counters(self):
        rows, cols, iters, blocks = 8, 6, 5, 2
        sim = Simulator()
        cluster = paper_testbed(sim)
        mpp = MppMiddleware(cluster)
        aspect = HeartbeatAspect(
            jacobi_splitter(blocks=blocks), JACOBI_CREATION, JACOBI_WORK
        )
        distribution = MppDistributionAspect(
            mpp, None, JACOBI_CREATION, "call(JacobiGrid.*(..))"
        )
        comp = Composition(
            "jacobi-counters",
            [ParallelModule.of(aspect), ParallelModule.of(distribution)],
        )
        backend = SimBackend(sim)

        def main():
            with use_backend(backend), use_node(cluster.head):
                JacobiGrid(rows, cols).solve(iters)

        try:
            with comp.deployed(default_weaver, targets=[JacobiGrid]):
                sim.spawn(main)
                sim.run()
        finally:
            mpp.shutdown()
            sim.shutdown()
        assert aspect.iterations == iters
        # (blocks-1) neighbour pairs x 2 directions x iterations
        assert aspect.exchanges == (blocks - 1) * 2 * iters
