"""Farm partition (paper Figure 10).

"In a simple farming parallelisation each filter has ALL the primes ...
and each pack of numbers can be processed by ANY PrimeFilter."  Relative
to the pipeline this changes two things (the paper's own diff):

* duplication **broadcasts** the constructor parameters to every worker
  (no ``next`` chain);
* each split piece is **routed to exactly one worker** (static
  round-robin allocation — the "static work allocation" the dynamic farm
  later improves on) instead of being forwarded through every stage.

One aspect suffices: there is no forwarding, so nothing needs to nest
inside the concurrency layer.  The aspect holds only the worker set;
each split call's state (piece accounting, gathered outcomes) lives in
its own per-call
:class:`~repro.parallel.partition.base.DispatchContext`, so overlapped
``submit()``s on one deployed farm never share state.  Whole submitted
packs are routed too (``routes_packs``): one pack → one worker → one
compiled batched dispatch and, under distribution, one message.
"""

from __future__ import annotations

import itertools
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

__all__ = ["FarmAspect", "farm_module"]


class FarmAspect(PartitionAspect):
    """Broadcast duplication + piece-per-worker routing.

    ``resident_pool=True`` gives the static farm the dynamic farm's
    long-lived worker shape: one pinned dispatcher activity per worker
    (a :class:`~repro.parallel.concurrency.asynchronous.PooledSpawner`),
    fed per call with that worker's statically-allocated pieces — so a
    resident can be killed and replaced mid-split (the fault-injection
    axis) while the static allocation stays byte-identical.  Retry: when
    the call's ticket carries a
    :class:`~repro.faults.RetryPolicy`, a failed piece is re-dispatched
    to the next worker round-robin instead of failing the call.
    """

    routes_packs = True
    #: a farm pack is pure scatter (no inter-worker forwarding), so
    #: fire-and-forget packs are well-defined: one message, no gather
    oneway_packs = True

    def __init__(
        self,
        splitter: WorkSplitter,
        creation=None,
        work=None,
        resident_pool: bool = False,
    ):
        super().__init__(splitter, creation, work)
        self.workers: list[Any] = []
        #: round-robin cursor for top-level pack routing (fairness across
        #: overlapped ``map(pack=N)`` submissions; itertools.count is a
        #: thread-safe-enough append-only allocator)
        self._pack_cursor = itertools.count()
        #: long-lived per-worker dispatcher activities (opt-in)
        self.resident_pool = resident_pool
        self._pool: PooledSpawner | None = None
        #: per-thread re-entry flag: pooled piece dispatches re-enter the
        #: woven call from pool activities where jp.from_advice is False
        self._internal = threading.local()

    # -- duplication (constructor parameters broadcast to all workers) ------

    @around("creation")
    def duplicate(self, jp):
        if self.passthrough(jp) or jp.from_advice:
            return jp.proceed()
        # one batched initialization joinpoint builds the whole worker set
        self.workers = self.build_duplicates(jp)
        if self._pool is not None:  # re-duplication: retire the old pool
            self._pool.stop()
            self._pool = None
        if self.resident_pool:
            self._pool = PooledSpawner(len(self.workers), pinned=True)
        return self.workers[0]

    def on_undeploy(self) -> None:
        """Retire the deployment's resident dispatcher activities."""
        if self._pool is not None:
            self._pool.stop()
            self._pool = None

    # -- call split: each piece to a single worker --------------------------

    def _pick(self, piece_index: int):
        """The retry-aware worker picker for one piece: attempt 0 is the
        static allocation, each retry rotates to the next worker
        round-robin — a killed worker's piece lands on a healthy
        neighbour."""
        workers = self.workers

        def pick(attempt: int):
            index = (piece_index + attempt) % len(workers)
            return workers[index], index

        return pick

    @around("work")
    def split(self, jp):
        if self.passthrough(jp) or getattr(self._internal, "active", False):
            return jp.proceed()
        if jp.from_advice:
            return jp.proceed()
        if not self.workers:
            return jp.proceed()  # partition never saw a creation
        if isinstance(jp, BatchJoinPoint):
            return self.route_pack(jp)
        with self.dispatch_scope(
            f"farm.{jp.name}", backend=current_backend()
        ) as ctx:
            with ctx.span("split"):
                pieces = self.splitter.split(jp.args, jp.kwargs)
            if self._pool is not None:
                return self._split_pooled(jp.name, pieces, ctx)
            outcomes: list[Any] = [None] * len(pieces)
            try:
                with ctx.span("dispatch"):
                    for piece in pieces:
                        # deadline/shed boundary: remaining pieces of an
                        # expired or shed call are dropped, the workers move
                        # straight on to other calls' pieces
                        ctx.check_deadline("dispatching farm pieces")
                        # re-enters the chain (concurrency / distribution)
                        # through the worker's compiled plan entry — per-piece
                        # for plain pieces, per-pack through the compiled
                        # batched entry for packs (one BatchJoinPoint per
                        # pack); fetched per piece so an aspect (un)plugged
                        # mid-split applies to the remainder
                        outcomes[piece.index] = dispatch_with_retry(
                            ctx,
                            self._pick(piece.index),
                            jp.name,
                            ctx.record(piece),
                            # this activity would only wait while its last
                            # piece ran on another: it carries that one
                            carried=piece is pieces[-1],
                        )
                with ctx.span("merge"):
                    results: list[Any] = []
                    for piece in pieces:
                        ctx.check_deadline("gathering farm piece results")
                        results.extend(
                            piece_results(piece, outcomes[piece.index])
                        )
            except BaseException:
                # shed or expired mid-split: what an async servant already
                # handed back and nobody will await any more
                for outcome in outcomes:
                    _close_awaitables(outcome)
                raise
            combined = self.splitter.combine(results)
        return combined

    def _split_pooled(self, method_name: str, pieces: list, ctx: Any) -> Any:
        """Resident-pool dispatch: each piece becomes one task on the
        dispatcher pinned to its statically-allocated worker.  The shape
        mirrors the dynamic farm's drain (countdown + first-failure
        latch + deadline-aware wait); allocation stays static."""
        backend = current_backend()
        outcomes: list[Any] = [None] * len(pieces)
        done = backend.make_event(name="farm.pool.done")
        state: dict[str, Any] = {"remaining": len(pieces), "failure": None}
        state_lock = threading.Lock()

        def run_piece(piece: Any) -> None:
            # pool activities re-enter the woven call with from_advice
            # False — the per-thread flag keeps this advice out of the way
            self._internal.active = True
            try:
                if not ctx.cancelled:
                    outcomes[piece.index] = dispatch_with_retry(
                        ctx, self._pick(piece.index), method_name, piece
                    )
            except BaseException as exc:  # noqa: BLE001 - waiter re-raises
                ctx.fail(exc)
                with state_lock:
                    if state["failure"] is None:
                        state["failure"] = exc
                if not isinstance(exc, Exception):
                    raise
            finally:
                self._internal.active = False
                with state_lock:
                    state["remaining"] -= 1
                    drained = state["remaining"] == 0
                if drained:
                    done.set()

        with ctx.span("dispatch"):
            for piece in pieces:
                ctx.check_deadline("dispatching farm pieces")
                index = piece.index % len(self.workers)
                self._pool.spawn(
                    backend,
                    lambda p=ctx.record(piece): run_piece(p),
                    index=index,
                )
            if ctx.deadline is None:
                done.wait(None)
            elif not done.wait(max(ctx.deadline.remaining(), 0.0)):
                raise ctx.expire("draining the farm pool")
        if state["failure"] is not None:
            raise state["failure"]
        ctx.check_deadline("gathering farm piece results")
        with ctx.span("merge"):
            results: list[Any] = []
            for piece in pieces:
                results.extend(piece_results(piece, outcomes[piece.index]))
            return self.splitter.combine(results)

    def route_pack(self, jp: BatchJoinPoint) -> Any:
        """Top-level pack routing: one whole submitted pack to ONE worker
        through the compiled batched entry — one advice pass below the
        partition layer and, under distribution, one message per pack.
        Packs round-robin across workers, so ``map(items, pack=N)``
        spreads its packs over the farm."""
        slot = next(self._pack_cursor)
        pieces = tuple(jp.args[0])
        with self.dispatch_scope(
            f"farm.pack.{jp.name}", backend=current_backend()
        ) as ctx:
            ctx.record_pack(len(pieces))
            with ctx.span("dispatch"):
                ctx.check_deadline("routing the pack")
                return dispatch_with_retry(
                    ctx, self._pick(slot), jp.name, PackedPiece(slot, pieces)
                )


@register_strategy("farm")
def farm_module(
    splitter: WorkSplitter,
    creation: str,
    work: str,
    name: str = "farm",
    resident_pool: bool = False,
) -> ParallelModule:
    """Build the pluggable farm-partition module.

    ``resident_pool=True`` serves each worker's pieces through a
    long-lived pinned dispatcher activity (the dynamic farm's resident
    shape, with the farm's static allocation) — the form the
    fault-injection tests kill and replace mid-split.
    """
    aspect = FarmAspect(
        splitter, creation=creation, work=work, resident_pool=resident_pool
    )
    module = ParallelModule(name, Concern.PARTITION, [aspect])
    module.coordinator = aspect  # type: ignore[attr-defined]
    return module


#: StackSpec reads the pack/oneway capability flags off this class —
#: the aspect's own attributes stay the single source of truth
farm_module.coordinator_class = FarmAspect  # type: ignore[attr-defined]
