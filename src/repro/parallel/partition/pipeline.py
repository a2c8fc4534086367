"""Pipeline partition (paper Figures 7–9).

Three cooperating pieces of advice, exactly the paper's three blocks:

1. **object duplication** — ``around(creation)`` builds the stages in
   reverse order, recording each stage's ``next`` pointer, and returns
   the first stage to the oblivious client;
2. **method-call split** — ``around(work)``, core calls only: splits the
   client's single call into pieces and feeds each piece to the first
   stage; waits for every piece to fall off the end of the pipeline and
   combines the results;
3. **call forwarding** — ``around(work)``, *all* calls: after a stage
   processes a piece, forward the (transformed) piece to the next stage;
   the last stage deposits into the collector.

Blocks 1–2 live in :class:`PipelineSplitAspect` (partition layer,
outermost); block 3 lives in :class:`PipelineForwardAspect`
(partition-forward layer) so that the concurrency aspect's spawn wraps
*between* them — Figure 11's interleaving, where forwarding happens
inside the per-call thread.  The split aspect builds its forward aspect,
and both plug as one module (:meth:`PipelineSplitAspect.aspects`).

**One activity per piece journey.**  The concurrency aspect spawns one
activity per piece, for the call that feeds it into the head stage.
Block 3 stands inside stage k's synchronisation monitor, so it does not
call stage k+1 from there: it leaves the hop to the activity's body
(:func:`~repro.runtime.dispatch.leave_hop`), which makes it once stage
k's call has unwound, and the concurrency aspect runs a hop in place
instead of spawning.  Monitors are never held across a hop, the stack
does not grow with the stage count, and a split of p pieces costs p
activities, not p × stages.

**Stages that live together forward to each other.**  Duplication
runs inside :func:`~repro.runtime.dispatch.publish_chain`, so a
distribution layer knows the instances are a chain, and block 3 enters
a stage that has a successor through
:func:`~repro.runtime.dispatch.run_ahead`.  The process middleware may
answer such a call with the result of the last stage its worker hosts
in a row and the hops it took; block 3 accounts them to the ticket and
goes on from there — the next hop, or the tail's deposit.  Every other
layer ignores the mark: the journey is stage by stage, as above.

The aspects hold only the *deployed topology* (stages, ``next``
pointers).  Every split call opens its own
:class:`~repro.runtime.ticket.DispatchContext` — the collector
the tail deposits into is the *originating call's*, found through the
ambient ticket (:mod:`repro.runtime.dispatch`) the piece's activity runs
under.  A deployed pipeline therefore serves any number of overlapped
in-flight splits.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable

from repro.aop import around, pointcut
from repro.aop.cflow import entered_advice
from repro.aop.plan import BatchJoinPoint, batched_entry, piece_view
from repro.api.registry import register_strategy
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.parallel.partition.base import (
    CallPiece,
    PackedPiece,
    PartitionAspect,
    WorkSplitter,
    dispatch_piece,
    piece_key,
)
from repro.runtime.backend import current_backend, resolve
from repro.runtime.dispatch import (
    current_dispatch,
    current_piece,
    leave_hop,
    publish_chain,
    run_ahead,
    shield_dispatch,
    use_dispatch,
)
from repro.runtime.ticket import dispatch_scope

__all__ = ["PipelineSplitAspect", "PipelineForwardAspect"]


@register_strategy("pipeline")
class PipelineSplitAspect(PartitionAspect):
    """Blocks 1 (duplication) and 2 (call split) of Figure 8.

    When the call's ticket carries a
    :class:`~repro.faults.RetryPolicy`, the collector's re-dispatch hook
    re-feeds a failed piece into the head stage, and the tail's keyed
    deposits keep delivery exactly-once even when a dropped reply's
    journey later completes.
    """

    routes_packs = True
    #: NOT oneway-capable: stage-to-stage forwarding needs every hop's
    #: reply, so a fire-and-forget pipeline work call is a contradiction
    #: — StackSpec.validate() rejects such oneway declarations
    oneway_packs = False

    def __init__(self, splitter: WorkSplitter, creation=None, work=None):
        super().__init__(splitter, creation, work)
        #: id(stage) -> next stage (None at the tail) — the paper's
        #: ``next`` HashMap
        self.next: dict[int, Any] = {}
        self.first: Any = None
        #: per-thread re-entry flag: retry re-feeds re-enter the woven
        #: call from activities where jp.from_advice is False
        self._internal = threading.local()
        #: block 3, which plugs with this aspect
        self.forward = PipelineForwardAspect(self)

    def aspects(self) -> tuple[ParallelAspect, ...]:
        return (self, self.forward)

    # -- block 1: object duplication ----------------------------------------

    @around("creation")
    def duplicate(self, jp):
        if jp.from_advice:
            return jp.proceed()
        self.next.clear()
        # The paper's sketch creates filters in reverse order because each
        # stage's ``next`` pointer must exist at construction time.  Our
        # ``next`` HashMap is filled after the fact, so stages are created
        # in pipeline order — this also keeps placement policies (which
        # see creations in order) assigning stage i and the hand-coded
        # baseline's stage i to the same node.  The whole stage set is
        # built through one batched initialization joinpoint, as a chain
        # (a distribution layer may host neighbours together).
        stages = publish_chain(
            partial(self.build_duplicates, jp), self.splitter.shipped_forward_args
        )
        for index, stage in enumerate(stages):
            self.next[id(stage)] = (
                stages[index + 1] if index + 1 < len(stages) else None
            )
        self.first = stages[0]
        return self.first  # the first pipeline element goes back to the client

    # -- block 2: method call split ----------------------------------------

    @around("work")
    def split(self, jp):
        # Core-functionality calls only: forwarded (advice-made) calls
        # and retry re-feeds (per-thread flag) pass through untouched.
        if getattr(self._internal, "active", False):
            return jp.proceed()
        if jp.from_advice:
            return jp.proceed()
        head = self.first if self.first is not None else jp.target
        if isinstance(jp, BatchJoinPoint):
            return self.route_pack(jp, head)
        pieces = self.splitter.split(jp.args, jp.kwargs)
        # the per-call collector gathers per-item results: a pack counts
        # once per item (the tail deposits pack results item by item)
        expected = sum(
            len(getattr(piece, "items", ())) or 1 for piece in pieces
        )
        with dispatch_scope(
            f"pipeline.{jp.name}", expected=expected, backend=current_backend()
        ) as ctx:
            self._arm_refeed(ctx, head, jp.name)
            with ctx.span("dispatch"):
                for piece in pieces:
                    # re-enters the chain through the head stage's compiled
                    # plan entry; packs enter through the compiled batched
                    # entry.  The ambient ticket follows the piece onto its
                    # spawned per-call activity, so the tail deposits into
                    # THIS call's collector however many splits are in flight.
                    ctx.check_deadline("feeding the pipeline head")
                    if ctx.collector.failed:
                        break  # the call is lost: stop feeding it
                    # this activity would only wait in the gather while
                    # its last piece ran on another: it carries that one
                    # through the stages itself
                    self._feed(
                        ctx, head, jp.name, ctx.record(piece),
                        carried=piece is pieces[-1],
                    )
            with ctx.span("gather"):
                results = ctx.gather()
            with ctx.span("merge"):
                combined = self.splitter.combine(results)
        return combined

    @staticmethod
    def _feed(
        ctx: Any,
        head: Any,
        name: str,
        piece: CallPiece,
        carried: bool = False,
    ) -> None:
        """Feed one piece into the head stage, routing a feed-side
        failure through the collector's retry plane (latch when none is
        armed) instead of aborting the whole call's feed loop.
        ``carried``: see :func:`dispatch_piece`."""
        try:
            if not ctx.cancelled:
                dispatch_piece(head, name, piece, carried=carried, ctx=ctx)
        except Exception as exc:
            ctx.fail(exc, piece=piece)

    def _arm_refeed(self, ctx: Any, head: Any, name: str) -> None:
        """Install the collector's re-dispatch hook: a failed piece is
        re-fed into the head stage on a fresh activity running under the
        originating ticket (the hook may be invoked from deep inside an
        unwinding stage activity, so the re-feed never runs inline)."""
        if ctx.retry_policy is None or ctx.collector is None:
            return
        backend = current_backend()

        def refeed(piece: CallPiece) -> None:
            def run() -> None:
                self._internal.active = True
                try:
                    with use_dispatch(ctx):
                        self._feed(ctx, head, name, piece)
                finally:
                    self._internal.active = False

            backend.spawn(shield_dispatch(run), name="pipeline.refeed")

        ctx.collector.redispatch = refeed

    def route_pack(self, jp: BatchJoinPoint, head: Any) -> list:
        """Top-level pack routing: feed a whole submitted pack into the
        head stage through the compiled batched entry and gather the
        per-item results falling off the tail.

        One advice pass (and, under distribution, one message) per
        inter-stage hop for the whole pack; results come back in piece
        order because the tail deposits a pack's results item by item
        (keyed per item, so a retried pack cannot double-deposit).
        """
        pieces = tuple(jp.args[0])
        pack = PackedPiece(0, pieces)
        with dispatch_scope(
            f"pipeline.pack.{jp.name}",
            expected=len(pieces),
            backend=current_backend(),
        ) as ctx:
            self._arm_refeed(ctx, head, jp.name)
            ctx.record_pack(len(pieces))
            with ctx.span("dispatch"):
                ctx.check_deadline("feeding the pipeline head")
                self._feed(ctx, head, jp.name, pack)
            with ctx.span("gather"):
                return ctx.gather()


class PipelineForwardAspect(ParallelAspect):
    """Block 3 of Figure 8: forward calls among pipeline elements.

    "This code also applies recursively to the filter method" — it
    advises every call, including the ones it makes itself.  Stateless:
    the collector it deposits into, the forwarding cursor it advances
    and the ``forward`` marks it records belong to the ambient per-call
    :class:`~repro.runtime.ticket.DispatchContext` of whichever split
    originated the piece.
    """

    concern = Concern.PARTITION
    precedence = LAYER["partition-forward"]

    def __init__(self, coordinator: PipelineSplitAspect, work=None):
        self.coordinator = coordinator
        self.work = work if work is not None else coordinator.work
        if isinstance(self.work, str):
            self.work = pointcut(self.work)

    @around("work")
    def forward(self, jp):
        co = self.coordinator
        key = id(jp.target)
        if key not in co.next:
            return jp.proceed()  # not an aspect-managed stage
        ctx = current_dispatch()
        # the originating call may already be gone (shed, or its
        # deadline expired): drop the piece instead of processing it —
        # the collector is latched, the waiter has failed, and this
        # stage goes straight back to serving other calls' pieces
        if ctx is not None and ctx.cancelled:
            return None
        # fail fast on ANY failure this side of the hop — the stage's own
        # processing AND the forwarding step (forward_args, the next
        # stage's dispatch): wake the originating call's waiter with the
        # exception instead of leaving it blocked forever.  A failure in
        # a later hop latches in that hop's activity; re-latching here is
        # a no-op (the first failure wins).
        try:
            # the stage's own processing.  An async stage method's value
            # must exist before it can be forwarded (or deposited), so it
            # is resolved here, inside the fail-fast envelope
            nxt = co.next[key]
            view = None
            if nxt is None:
                result = resolve(jp.proceed())
            else:
                # a distribution layer hosting the stages behind this one
                # together may run them too: go on from the last it ran
                result, run = run_ahead(jp.proceed)
                result = resolve(result)
                if run is not None:
                    hops, view = run
                    for _ in range(hops):
                        nxt = co.next[id(nxt)]
                    if ctx is not None:
                        ctx.mark("forward", hops, remote=True)
            # mid-forward deadline boundary: a deadline that ran out
            # while this stage processed unwinds HERE — the ticket is
            # expired (latching DeadlineExceeded with its trace into the
            # originating collector) and the piece never reaches the
            # next stage
            if ctx is not None:
                if ctx.cancelled:
                    return None
                if ctx.deadline is not None and ctx.deadline.expired:
                    ctx.expire("forwarding between pipeline stages")
                    return None
            if isinstance(jp, BatchJoinPoint):
                return self._forward_batch(
                    jp.name, view[0] if view else jp.args[0], result, nxt, ctx
                )
            if nxt is not None:
                if ctx is not None:
                    ctx.mark("forward", 1)
                args, kwargs = co.splitter.forward_args(
                    result, *(view or (jp.args, jp.kwargs))
                )
                # re-intercepted: the attribute is the next stage's
                # compiled plan (repro.aop.plan) — direct getattr, once
                # per forward
                return self._hand_on(
                    nxt, partial(getattr(nxt, jp.name), *args, **kwargs), ctx
                )
            if ctx is not None and ctx.collector is not None:
                # keyed by the originating head piece (carried here as
                # the ambient piece): a retried piece whose first
                # journey also completes deposits once, not twice
                ctx.deposit(result, key=piece_key(current_piece()))
            return result
        except BaseException as exc:
            if ctx is not None:
                # naming the ambient piece routes the failure through
                # the collector's retry plane when one is armed
                ctx.fail(exc, piece=current_piece())
            raise

    @staticmethod
    def _hand_on(nxt: Any, call: Callable[[], Any], ctx: Any) -> Any:
        """Hand the piece to the next stage ``nxt`` (``call`` enters it):
        left to the body of the per-call activity, which makes the hop once
        this stage's call has unwound — this advice stands inside the stage's
        synchronisation monitor, one advice chain per stage deep.  With
        no such body (concurrency unplugged, the asyncio backend's
        inline calls) the next stage is simply called."""

        def hop() -> None:
            try:
                # deferred advice code: the next stage must still see a
                # forwarded call, not a core one
                with entered_advice():
                    call()
            except Exception as exc:  # noqa: BLE001 - routed to collector
                # short of the next stage's own fail-fast envelope, and
                # the body has no caller to raise to: wake the waiter
                if ctx is not None:
                    ctx.fail(exc, piece=current_piece())

        return None if leave_hop(hop, nxt) else call()

    def _forward_batch(self, name, pack, results, nxt, ctx):
        """Pack-granular block 3: forward a whole pack in one batched
        call.  Per-item forward arguments are computed with the same
        ``forward_args`` hook, but the pack traverses each inter-stage
        hop as one compiled batched dispatch (one BatchJoinPoint, and —
        under distribution — one message) instead of one per item.
        ``pack`` holds what the stage that produced ``results`` was
        called with."""
        co = self.coordinator
        if nxt is not None:
            if ctx is not None:
                ctx.mark("forward", 1)
            items = []
            # the pack at this advice level — an outer around may have
            # substituted it via proceed(new_pieces)
            for index, (piece, result) in enumerate(zip(pack, results)):
                piece_args, piece_kwargs = piece_view(piece)
                args, kwargs = co.splitter.forward_args(
                    result, piece_args, piece_kwargs
                )
                items.append(CallPiece(index, args, kwargs))
            return self._hand_on(
                nxt, partial(batched_entry(nxt, name), items), ctx
            )
        if ctx is not None and ctx.collector is not None:
            pack = current_piece()
            base = getattr(pack, "index", None)
            for offset, result in enumerate(results):
                # per-item keys within the ambient pack: a retried pack
                # deduplicates item by item
                key = None if base is None else (base, offset)
                ctx.deposit(result, key=key)
        return results
