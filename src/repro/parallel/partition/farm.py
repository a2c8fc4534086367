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
:class:`~repro.runtime.ticket.DispatchContext`, so overlapped
``submit()``s on one deployed farm never share state.  Whole submitted
packs are routed too (``routes_packs``): one pack → one worker → one
compiled batched dispatch and, under distribution, one message.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.aop import around
from repro.aop.plan import BatchJoinPoint
from repro.api.registry import register_strategy
from repro.parallel.partition.base import (
    PackedPiece,
    PartitionAspect,
    WorkSplitter,
    PieceOutcomes,
    dispatch_pack,
    rotating,
)
from repro.runtime.backend import current_backend
from repro.runtime.ticket import dispatch_scope

__all__ = ["FarmAspect"]


@register_strategy("farm")
class FarmAspect(PartitionAspect):
    """Broadcast duplication + piece-per-worker routing.

    Every piece but the last is answered by whatever concurrency aspect
    is plugged below (a fresh activity per piece, or the resident
    activities of the thread-pool optimisation aspect); the splitting
    activity carries the last one itself.  Retry: when the call's ticket
    carries a :class:`~repro.faults.RetryPolicy`, a failed piece is
    re-dispatched at the gather to the next worker round-robin instead
    of failing the call.
    """

    routes_packs = True
    #: a farm pack is pure scatter (no inter-worker forwarding), so
    #: fire-and-forget packs are well-defined: one message, no gather
    oneway_packs = True

    def __init__(self, splitter: WorkSplitter, creation=None, work=None):
        super().__init__(splitter, creation, work)
        self.workers: list[Any] = []
        #: round-robin cursor for top-level pack routing (fairness across
        #: overlapped ``map(pack=N)`` submissions; itertools.count is a
        #: thread-safe-enough append-only allocator)
        self._pack_cursor = itertools.count()

    # -- duplication (constructor parameters broadcast to all workers) ------

    @around("creation")
    def duplicate(self, jp):
        if jp.from_advice:
            return jp.proceed()
        # one batched initialization joinpoint builds the whole worker set
        self.workers = self.build_duplicates(jp)
        return self.workers[0]

    # -- call split: each piece to a single worker --------------------------

    @around("work")
    def split(self, jp):
        if jp.from_advice:
            return jp.proceed()
        if not self.workers:
            return jp.proceed()  # partition never saw a creation
        if isinstance(jp, BatchJoinPoint):
            return self.route_pack(jp)
        with dispatch_scope(
            f"farm.{jp.name}", backend=current_backend()
        ) as ctx:
            with ctx.span("split"):
                pieces = self.splitter.split(jp.args, jp.kwargs)
            with PieceOutcomes(ctx, jp.name) as outcomes:
                with ctx.span("dispatch"):
                    for piece in pieces:
                        # deadline/shed boundary: remaining pieces of an
                        # expired or shed call are dropped, the workers move
                        # straight on to other calls' pieces
                        ctx.check_deadline("dispatching farm pieces")
                        # re-enters the chain (concurrency / distribution)
                        # through the worker's compiled entry: dispatch_piece
                        outcomes.dispatch(
                            # attempt 0 is the static allocation
                            rotating(self.workers, piece.index),
                            ctx.record(piece),
                            # this activity would only wait while its
                            # last piece ran on another: it carries it
                            carried=piece is pieces[-1],
                        )
                with ctx.span("merge"):
                    results = outcomes.results("gathering farm piece results")
            combined = self.splitter.combine(results)
        return combined

    def route_pack(self, jp: BatchJoinPoint) -> Any:
        """Top-level pack routing: one whole submitted pack to ONE worker
        through the compiled batched entry — one advice pass below the
        partition layer and, under distribution, one message per pack.
        Packs round-robin across workers, so ``map(items, pack=N)``
        spreads its packs over the farm."""
        slot = next(self._pack_cursor)
        pick = rotating(self.workers, slot)
        pieces = tuple(jp.args[0])
        with dispatch_scope(
            f"farm.pack.{jp.name}", backend=current_backend()
        ) as ctx:
            ctx.record_pack(len(pieces))
            with ctx.span("dispatch"):
                ctx.check_deadline("routing the pack")
                return dispatch_pack(ctx, pick, jp.name, PackedPiece(slot, pieces))
