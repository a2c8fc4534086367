"""The three other case studies: Mandelbrot farm, Jacobi heartbeat,
word-count pipeline — sequential core vs woven-parallel equivalence."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.aop import weave
from repro.aop.weaver import default_weaver
from repro.apps.jacobi import (
    JACOBI_CREATION,
    JACOBI_WORK,
    JacobiGrid,
    block_ranges,
    jacobi_splitter,
    stitch_blocks,
)
from repro.apps.mandelbrot import MandelbrotRenderer, MandelbrotScene, mandelbrot_splitter
from repro.apps.mandelbrot.aspects import MANDEL_CREATION, MANDEL_WORK
from repro.apps.wordcount import (
    WC_CREATION,
    WC_WORK,
    TextPipeline,
    wordcount_splitter,
)
from repro.parallel import (
    Composition,
    FarmAspect,
    HeartbeatAspect,
    ParallelModule,
    PipelineSplitAspect,
    concurrency_module,
)
from repro.runtime import Future, ThreadBackend, use_backend

DOCS = [
    "The quick brown fox jumps over the lazy dog",
    "the DOG barks and the Fox runs",
    "Isn't aspect oriented programming fun",
    "parallel programs need partition concurrency and distribution",
    "the fox and the dog are friends",
]


class TestMandelbrotCore:
    def test_render_all_shape_and_interior_set(self):
        scene = MandelbrotScene(width=40, height=30, max_iter=30)
        image = MandelbrotRenderer(scene).render_all()
        assert image.shape == (30, 40)
        # the window contains points inside the set (max_iter reached)
        assert image.max() == 30
        assert image.min() >= 0

    def test_band_render_matches_full_render(self):
        scene = MandelbrotScene(width=30, height=20, max_iter=25)
        full = MandelbrotRenderer(scene).render_all()
        top = MandelbrotRenderer(scene).render(np.arange(0, 10))
        bottom = MandelbrotRenderer(scene).render(np.arange(10, 20))
        assert np.array_equal(np.vstack([top, bottom]), full)

    def test_invalid_scene(self):
        with pytest.raises(ValueError):
            MandelbrotScene(width=0)
        with pytest.raises(ValueError):
            MandelbrotScene(max_iter=0)

    def test_farm_woven_equals_sequential(self):
        scene = MandelbrotScene(width=30, height=24, max_iter=25)
        sequential = MandelbrotRenderer(scene).render_all()

        comp = Composition(
            "mandel-farm",
            [
                ParallelModule.of(
                    FarmAspect(
                        mandelbrot_splitter(workers=3, bands=6),
                        MANDEL_CREATION,
                        MANDEL_WORK,
                    )
                ),
                concurrency_module(MANDEL_WORK, MANDEL_WORK),
            ],
        )
        weave(MandelbrotRenderer)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[MandelbrotRenderer]):
                renderer = MandelbrotRenderer(scene)
                image = renderer.render(np.arange(scene.height))
                if isinstance(image, Future):
                    image = image.result()
        assert np.array_equal(image, sequential)


class TestJacobiCore:
    def test_block_ranges_cover_rows(self):
        ranges = block_ranges(10, 3)
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        covered = sum(hi - lo for lo, hi in ranges)
        assert covered == 10

    def test_sequential_solve_converges_towards_boundary(self):
        grid = JacobiGrid(8, 8, top_value=100.0)
        residual_early = grid.solve(1)
        residual_late = grid.solve(50)
        assert residual_late < residual_early
        interior = grid.interior()
        # heat flows from the hot top edge downwards
        assert interior[0].mean() > interior[-1].mean()

    def test_boundary_accessors(self):
        grid = JacobiGrid(4, 4)
        grid.solve(2)
        top = grid.get_boundary("top")
        assert top.shape == (6,)
        replacement = np.full(6, 7.0)
        grid.set_boundary("bottom", replacement)
        assert np.array_equal(grid.grid[-1], replacement)
        with pytest.raises(ValueError):
            grid.get_boundary("left")
        with pytest.raises(ValueError):
            grid.set_boundary("top", np.zeros(3))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            JacobiGrid(0, 4)
        with pytest.raises(ValueError):
            JacobiGrid(4, 4, row_lo=3, row_hi=2)

    def test_heartbeat_woven_equals_sequential(self):
        """The heartbeat decomposition must reproduce sequential Jacobi
        exactly (synchronous iteration + halo exchange)."""
        rows, cols, iters = 12, 10, 20
        sequential = JacobiGrid(rows, cols)
        sequential.solve(iters)
        expected = sequential.interior()

        heartbeat = HeartbeatAspect(
            jacobi_splitter(blocks=3), JACOBI_CREATION, JACOBI_WORK
        )
        comp = Composition("jacobi-heartbeat", [ParallelModule.of(heartbeat)])
        weave(JacobiGrid)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[JacobiGrid]):
                grid = JacobiGrid(rows, cols)
                grid.solve(iters)
                workers = heartbeat.workers
                assert len(workers) == 3
                stitched = stitch_blocks(workers)
        assert stitched.shape == expected.shape
        assert np.allclose(stitched, expected)

    def test_heartbeat_with_concurrency_still_exact(self):
        rows, cols, iters = 9, 6, 12
        sequential = JacobiGrid(rows, cols)
        sequential.solve(iters)
        expected = sequential.interior()

        heartbeat = HeartbeatAspect(
            jacobi_splitter(blocks=3), JACOBI_CREATION, JACOBI_WORK
        )
        comp = Composition(
            "jacobi-heartbeat-mt",
            [
                ParallelModule.of(heartbeat),
                concurrency_module(JACOBI_WORK, JACOBI_WORK),
            ],
        )
        weave(JacobiGrid)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[JacobiGrid]):
                grid = JacobiGrid(rows, cols)
                result = grid.solve(iters)
                if isinstance(result, Future):
                    result = result.result()
                stitched = stitch_blocks(heartbeat.workers)
        assert np.allclose(stitched, expected)


class TestWordCountCore:
    def test_sequential_counts(self):
        counts = TextPipeline().process(DOCS)
        assert isinstance(counts, Counter)
        assert counts["the"] == 6
        assert counts["fox"] == 3
        assert counts["dog"] == 3
        # single-letter tokens are dropped by normalise
        assert "a" not in counts

    def test_single_role_stages_compose(self):
        tokens = TextPipeline(("tokenise",)).process(DOCS)
        normalised = TextPipeline(("normalise",)).process(tokens)
        counts = TextPipeline(("count",)).process(normalised)
        assert counts == TextPipeline().process(DOCS)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            TextPipeline(("stem",))

    def test_pipeline_woven_equals_sequential(self):
        expected = TextPipeline().process(DOCS)
        comp = Composition(
            "wc-pipeline",
            [
                ParallelModule.of(
                    PipelineSplitAspect(
                        wordcount_splitter(batches=3), WC_CREATION, WC_WORK
                    )
                ),
                concurrency_module(WC_WORK, WC_WORK),
            ],
        )
        weave(TextPipeline)
        with use_backend(ThreadBackend()):
            with comp.deployed(default_weaver, targets=[TextPipeline]):
                pipe = TextPipeline()
                counts = pipe.process(DOCS)
                if isinstance(counts, Future):
                    counts = counts.result()
        assert counts == expected
