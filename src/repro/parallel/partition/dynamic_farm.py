"""Dynamic (demand-driven) farm.

Section 6: "We also present results using a dynamic farm parallelisation
... The dynamic farm is an example where we were not able yet to separate
partition from concurrency issues."  Faithfully, this module merges both
concerns: it spawns one dispatcher activity per worker, and each
dispatcher *pulls* the next piece only after finishing the previous one —
demand-driven load balancing instead of the static round-robin
allocation.

Because the module owns its concurrency, it must NOT be combined with a
separate asynchronous-invocation aspect (the synchronisation aspect is
also unnecessary: one dispatcher per worker means no concurrent calls on
a worker).  :func:`dynamic_farm_module` documents this by carrying the
CONCURRENCY concern alongside PARTITION.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.aop import around
from repro.aop.plan import BatchJoinPoint
from repro.api.registry import register_strategy
from repro.parallel.composition import ParallelModule
from repro.parallel.concern import Concern
from repro.parallel.concurrency.asynchronous import PooledSpawner
from repro.parallel.partition.base import (
    PackedPiece,
    PartitionAspect,
    WorkSplitter,
    dispatch_with_retry,
    piece_results,
)
from repro.runtime.backend import _close_awaitables, current_backend

__all__ = ["DynamicFarmAspect", "dynamic_farm_module"]


class DynamicFarmAspect(PartitionAspect):
    """Worker-pull farm: merged partition + concurrency.

    By default the deployment owns a **resident worker pool**: one
    long-lived dispatcher activity per worker instance (a *pinned*
    :class:`~repro.parallel.concurrency.asynchronous.PooledSpawner`),
    spawned once and fed per call through the call's own piece queue.
    Overlapped submissions therefore amortise the spawn cost the
    original formulation paid on every split (one fresh activity per
    worker per call) — the respawn behaviour is kept behind
    ``resident_pool=False`` for comparison (the
    resident-vs-respawn bench pair in ``BENCH_dispatch.json``).
    """

    #: concerns covered by this single module (see module docstring)
    concern = Concern.PARTITION

    routes_packs = True
    #: like the static farm: pack routing is pure scatter, oneway is sound
    oneway_packs = True

    def __init__(
        self,
        splitter: WorkSplitter,
        creation=None,
        work=None,
        resident_pool: bool = True,
    ):
        super().__init__(splitter, creation, work)
        self.workers: list[Any] = []
        #: pieces served per worker index (load-balance observability)
        self.served: dict[int, int] = {}
        #: amortise spawns: one resident dispatcher activity per worker
        self.resident_pool = resident_pool
        self._pool: PooledSpawner | None = None
        self._internal = threading.local()

    # -- duplication: same broadcast as the static farm ---------------------

    @around("creation")
    def duplicate(self, jp):
        if self.passthrough(jp) or jp.from_advice:
            return jp.proceed()
        # one batched initialization joinpoint builds the whole worker set
        self.workers = self.build_duplicates(jp)
        self.served = {i: 0 for i in range(len(self.workers))}
        if self._pool is not None:  # re-duplication: retire the old pool
            self._pool.stop()
            self._pool = None
        if self.resident_pool:
            # pinned: resident activity i always drives worker i; the
            # activities themselves start lazily on the first dispatch
            # (binding to whatever backend that call runs on)
            self._pool = PooledSpawner(len(self.workers), pinned=True)
        return self.workers[0]

    def on_undeploy(self) -> None:
        """Retire the deployment's resident dispatcher activities."""
        if self._pool is not None:
            self._pool.stop()
            self._pool = None

    # -- demand-driven dispatch ---------------------------------------------

    @around("work")
    def dispatch(self, jp):
        if self.passthrough(jp) or getattr(self._internal, "active", False):
            return jp.proceed()
        if jp.from_advice:
            return jp.proceed()
        if not self.workers:
            return jp.proceed()
        if isinstance(jp, BatchJoinPoint):
            return self.route_pack(jp)
        backend = current_backend()
        with self.dispatch_scope(f"dynamic-farm.{jp.name}", backend=backend) as ctx:
            with ctx.span("split"):
                pieces = self.splitter.split(jp.args, jp.kwargs)
            # the per-ticket queue: THIS call's pieces, pulled on demand
            # by whichever dispatcher activity frees up first
            queue = backend.make_queue(name="dynfarm.work")
            for piece in pieces:
                queue.put(ctx.record(piece))
            results: list[Any] = [None] * len(pieces)
            method_name = jp.name
            done = backend.make_event(name="dynfarm.done")
            state: dict[str, Any] = {
                "remaining": len(self.workers),
                "failure": None,
            }
            state_lock = threading.Lock()

            workers = self.workers

            def pick_from(index: int):
                # attempt 0 stays on the pulling dispatcher's own worker;
                # retries rotate to the neighbours (a killed worker's
                # piece lands on a healthy one)
                def pick(attempt: int):
                    pos = (index + attempt) % len(workers)
                    return workers[pos], pos

                return pick

            def worker_loop(worker: Any, index: int) -> None:
                # Calls from here must skip this advice but still traverse
                # synchronisation/distribution — flagged per-thread.  Each
                # pulled piece re-enters the (remaining) chain through the
                # worker's compiled plan entry (packs go through the compiled
                # batched entry — one advice pass per pack), re-fetched per
                # piece so an aspect (un)plugged mid-run applies to the
                # remaining work.
                self._internal.active = True
                try:
                    # a cancelled ticket (shed / deadline expired) drops
                    # its remaining queued pieces: the dispatcher goes
                    # straight back to serving other calls
                    while not ctx.cancelled:
                        ok, piece = queue.try_get()
                        if not ok:
                            break
                        results[piece.index] = dispatch_with_retry(
                            ctx, pick_from(index), method_name, piece
                        )
                        if ctx.cancelled:  # the gather may be gone already
                            _close_awaitables(results[piece.index])
                        # ledger unit is ITEMS (a k-item pack counts k),
                        # matching route_pack's charge so the demand-aware
                        # pack steering compares like with like
                        with self._dispatch_lock:
                            self.served[index] += (
                                len(getattr(piece, "items", ())) or 1
                            )
                except BaseException as exc:  # noqa: BLE001 - waiter re-raises
                    ctx.fail(exc)
                    with state_lock:
                        if state["failure"] is None:
                            state["failure"] = exc
                    # BaseExceptions (sim shutdown's ProcessKilled,
                    # KeyboardInterrupt) must keep unwinding the hosting
                    # activity — only plain Exceptions are contained so
                    # a resident dispatcher survives a bad piece
                    if not isinstance(exc, Exception):
                        raise
                finally:
                    self._internal.active = False
                    with state_lock:
                        state["remaining"] -= 1
                        drained = state["remaining"] == 0
                    if drained:
                        done.set()

            try:
                with ctx.span("dispatch"):
                    pool = self._pool
                    if pool is not None:
                        # resident mode: the per-call drain reaches the
                        # long-lived dispatcher pinned to each worker — no
                        # spawn on the hot path, overlapped calls amortise
                        # the activities spawned once per deployment
                        for index, worker in enumerate(self.workers):
                            pool.spawn(
                                backend,
                                lambda w=worker, i=index: worker_loop(w, i),
                                index=index,
                            )
                    else:
                        # the paper's literal formulation: one fresh
                        # dispatcher activity per worker per split call
                        for index, worker in enumerate(self.workers):
                            backend.spawn(
                                lambda w=worker, i=index: worker_loop(w, i),
                                name=f"dynfarm.worker{index}",
                            )
                    self._await_drained(done, ctx)
                if state["failure"] is not None:
                    raise state["failure"]
                ctx.check_deadline("gathering dynamic-farm results")
                with ctx.span("merge"):
                    flat: list[Any] = []
                    for piece in pieces:
                        flat.extend(piece_results(piece, results[piece.index]))
                    combined = self.splitter.combine(flat)
            except BaseException:
                # failed, shed or expired: what an async servant handed
                # back and nobody will await any more
                for outcome in results:
                    _close_awaitables(outcome)
                raise
        return combined

    @staticmethod
    def _await_drained(done: Any, ctx: Any) -> None:
        """Deadline-aware wait for the call's queue to drain: a timeout
        expires the ticket (cancelling the drain loops at their next
        pull) and raises DeadlineExceeded with the ticket's trace."""
        if ctx.deadline is None:
            done.wait(None)
            return
        if not done.wait(max(ctx.deadline.remaining(), 0.0)):
            raise ctx.expire("draining the work queue")

    def route_pack(self, jp: BatchJoinPoint) -> Any:
        """Top-level pack routing, demand-aware: one whole submitted pack
        to the worker that has served the fewest pieces so far, through
        the compiled batched entry (one advice pass, one message per
        pack).  The ledger keeps steering later packs away from busy
        workers — the demand-driven idea at pack granularity."""
        pieces = tuple(jp.args[0])
        with self._dispatch_lock:
            # pick-and-charge atomically so overlapped packs spread out
            index = min(self.served, key=lambda i: self.served[i])
            self.served[index] += len(pieces)
        workers = self.workers

        def pick(attempt: int):
            pos = (index + attempt) % len(workers)
            return workers[pos], pos

        with self.dispatch_scope(
            f"dynamic-farm.pack.{jp.name}", backend=current_backend()
        ) as ctx:
            ctx.record_pack(len(pieces))
            with ctx.span("dispatch"):
                ctx.check_deadline("routing the pack")
                return dispatch_with_retry(
                    ctx, pick, jp.name, PackedPiece(index, pieces)
                )


@register_strategy("dynamic-farm")
def dynamic_farm_module(
    splitter: WorkSplitter,
    creation: str,
    work: str,
    name: str = "dynamic-farm",
    resident_pool: bool = True,
) -> ParallelModule:
    """Build the merged partition+concurrency dynamic-farm module.

    ``resident_pool=False`` restores the spawn-per-split dispatchers
    (the bench pair's baseline); the default amortises dispatcher
    spawns across every call served by the deployment.
    """
    aspect = DynamicFarmAspect(
        splitter, creation=creation, work=work, resident_pool=resident_pool
    )
    module = ParallelModule(name, Concern.PARTITION, [aspect])
    module.coordinator = aspect  # type: ignore[attr-defined]
    module.provides_concurrency = True  # type: ignore[attr-defined]
    return module


#: StackSpec reads the pack/oneway capability flags off this class
dynamic_farm_module.coordinator_class = DynamicFarmAspect  # type: ignore[attr-defined]
