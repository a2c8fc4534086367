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
a worker).  :class:`DynamicFarmAspect` declares this with
``provides_concurrency``, and the app plugs no concurrency module beside it.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.aop import around
from repro.aop.plan import BatchJoinPoint
from repro.api.registry import register_strategy
from repro.parallel.concern import Concern
from repro.parallel.concurrency.asynchronous import PooledSpawner
from repro.parallel.partition.base import (
    PackedPiece,
    PartitionAspect,
    WorkSplitter,
    PieceOutcomes,
    dispatch_pack,
    rotating,
)
from repro.runtime.backend import _close_awaitables, current_backend
from repro.runtime.ticket import dispatch_scope

__all__ = ["DynamicFarmAspect"]


@register_strategy("dynamic-farm")
class DynamicFarmAspect(PartitionAspect):
    """Worker-pull farm: merged partition + concurrency.

    The deployment owns a **resident worker pool**: one long-lived
    dispatcher activity per worker instance (a *pinned*
    :class:`~repro.parallel.concurrency.asynchronous.PooledSpawner`),
    spawned once and fed per call through the call's own piece queue.
    Overlapped submissions therefore amortise the spawn cost the
    paper's formulation paid on every split (one fresh activity per
    worker per call).
    """

    #: concerns covered by this single module (see module docstring)
    concern = Concern.PARTITION
    provides_concurrency = True

    routes_packs = True
    #: like the static farm: pack routing is pure scatter, oneway is sound
    oneway_packs = True

    def __init__(self, splitter: WorkSplitter, creation=None, work=None):
        super().__init__(splitter, creation, work)
        self.workers: list[Any] = []
        #: pieces served per worker index (load-balance observability)
        self.served: dict[int, int] = {}
        #: one resident dispatcher activity per worker, per duplication
        self._pool: PooledSpawner | None = None
        self._internal = threading.local()

    # -- duplication: same broadcast as the static farm ---------------------

    @around("creation")
    def duplicate(self, jp):
        if jp.from_advice:
            return jp.proceed()
        # one batched initialization joinpoint builds the whole worker set
        self.workers = self.build_duplicates(jp)
        self.served = {i: 0 for i in range(len(self.workers))}
        self.on_undeploy()  # re-duplication: retire the old pool
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
        if getattr(self._internal, "active", False):
            return jp.proceed()
        if jp.from_advice or not self.workers:
            return jp.proceed()
        if isinstance(jp, BatchJoinPoint):
            return self.route_pack(jp)
        backend = current_backend()
        with dispatch_scope(f"dynamic-farm.{jp.name}", backend=backend) as ctx:
            with ctx.span("split"):
                pieces = self.splitter.split(jp.args, jp.kwargs)
            # the per-ticket queue: THIS call's pieces, pulled on demand
            # by whichever dispatcher activity frees up first
            queue = backend.make_queue(name="dynfarm.work")
            for slot, piece in enumerate(pieces):
                queue.put((slot, ctx.record(piece)))
            outcomes = PieceOutcomes(ctx, jp.name, len(pieces))
            done = backend.make_event(name="dynfarm.done")
            state: dict[str, Any] = {
                "remaining": len(self.workers),
                "failure": None,
            }
            state_lock = threading.Lock()

            workers = self.workers

            def worker_loop(worker: Any, index: int) -> None:
                # Calls from here must skip this advice but still traverse
                # synchronisation/distribution — flagged per-thread.  Each
                # pulled piece re-enters the (remaining) chain through the
                # worker's compiled plan entry (packs go through the compiled
                # batched entry — one advice pass per pack), re-fetched per
                # piece so an aspect (un)plugged mid-run applies to the
                # remaining work.
                self._internal.active = True
                # attempt 0 stays on the pulling dispatcher's own worker
                pick = rotating(workers, index)
                try:
                    # a cancelled ticket (shed / deadline expired) drops
                    # its remaining queued pieces: the dispatcher goes
                    # straight back to serving other calls
                    while not ctx.cancelled:
                        ok, pulled = queue.try_get()
                        if not ok:
                            break
                        slot, piece = pulled
                        # the gather re-dispatches a retryable failure
                        outcome = outcomes.dispatch(pick, piece, slot=slot)
                        if ctx.cancelled:  # the gather may be gone already
                            _close_awaitables(outcome)
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

            # failed, shed or expired: what an async servant handed back
            # and nobody will await any more is closed
            with outcomes:
                with ctx.span("dispatch"):
                    # the per-call drain reaches the long-lived dispatcher
                    # pinned to each worker — no spawn on the hot path,
                    # overlapped calls amortise the activities spawned
                    # once per deployment
                    for index, worker in enumerate(self.workers):
                        self._pool.spawn(
                            backend,
                            lambda w=worker, i=index: worker_loop(w, i),
                            index=index,
                        )
                    # deadline-aware wait for the call's queue to drain: a
                    # timeout expires the ticket (cancelling the drain loops
                    # at their next pull) and raises DeadlineExceeded with
                    # the ticket's trace
                    if ctx.deadline is None:
                        done.wait(None)
                    elif not done.wait(ctx.deadline.remaining()):
                        raise ctx.expire("draining the work queue")
                if state["failure"] is not None:
                    raise state["failure"]
                with ctx.span("merge"):
                    combined = self.splitter.combine(
                        outcomes.results("gathering dynamic-farm results")
                    )
        return combined

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
        pick = rotating(self.workers, index)
        with dispatch_scope(
            f"dynamic-farm.pack.{jp.name}", backend=current_backend()
        ) as ctx:
            ctx.record_pack(len(pieces))
            with ctx.span("dispatch"):
                ctx.check_deadline("routing the pack")
                return dispatch_pack(ctx, pick, jp.name, PackedPiece(index, pieces))
