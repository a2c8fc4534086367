"""Heartbeat partition.

The third strategy category the paper reports ("pipeline, farm with
separable dependencies and heartbeat").  A heartbeat computation
partitions the *data* into blocks, then iterates a fixed rhythm:

    compute on every block  →  exchange block boundaries  →  repeat

The aspect intercepts the core object's *iterate* call and re-expresses
it over the aspect-managed block workers.  Between iterations it drives
the data exchange through the workers' boundary accessors — still plain
woven method calls, so the distribution aspect prices them and the whole
exchange shows up in the network counters.

Core-functionality contract (the "adequate joinpoints" of Section 4):
the target class must expose

* a constructor the splitter can re-parameterise per block;
* ``step()``-like method(s) covered by the ``work`` pointcut, returning
  a per-iteration measure (e.g. residual) the splitter combines;
* boundary accessors named by ``exchange_out`` / ``exchange_in``:
  ``get_boundary(side)`` and ``set_boundary(side, data)`` by default.
"""

from __future__ import annotations

from typing import Any

from repro.aop import around
from repro.aop.plan import batched_entry
from repro.api.registry import register_strategy
from repro.parallel.partition.base import (
    CallPiece,
    PartitionAspect,
    WorkSplitter,
    PieceOutcomes,
)
from repro.runtime.backend import resolve
from repro.runtime.ticket import dispatch_scope

__all__ = ["HeartbeatAspect"]


@register_strategy("heartbeat")
class HeartbeatAspect(PartitionAspect):
    """Block data partition + per-iteration boundary exchange.

    The aspect holds the deployed block topology (``workers``) and
    append-only counters; each intercepted iterate call opens a per-call
    :class:`~repro.runtime.ticket.DispatchContext` — the
    compute and exchange phases both run under the originating call's
    ticket (piece accounting per step, forwarding cursor per exchange
    phase), so overlapped iterate calls keep fully separate state.

    ``routes_packs`` stays False: a heartbeat's work call *is* the whole
    iteration loop over the shared block grid, so there is no meaningful
    way to route independent packs per worker — ``app.map(pack=N)``
    rejects heartbeat specs eagerly.
    """

    def __init__(
        self,
        splitter: WorkSplitter,
        creation=None,
        work=None,
        exchange_out: str = "get_boundary",
        exchange_in: str = "set_boundary",
    ):
        super().__init__(splitter, creation, work)
        self.exchange_out = exchange_out
        self.exchange_in = exchange_in
        self.workers: list[Any] = []
        self.iterations = 0
        self.exchanges = 0

    # -- duplication: one worker per data block -----------------------------

    @around("creation")
    def duplicate(self, jp):
        if jp.from_advice:
            return jp.proceed()
        # one batched initialization joinpoint builds the whole block set
        self.workers = self.build_duplicates(jp)
        return self.workers[0]

    # -- the heartbeat -------------------------------------------------------

    @around("work")
    def beat(self, jp):
        if jp.from_advice:
            return jp.proceed()
        if not self.workers:
            return jp.proceed()
        (iterations,) = jp.args or (1,)
        last_combined: Any = None
        steps = [CallPiece(index, (1,)) for index in range(len(self.workers))]
        with dispatch_scope(f"heartbeat.{jp.name}") as ctx:
            for beat in range(iterations):
                # deadline boundary per beat: an expired or shed iterate
                # call stops rhythm here — the ticket unwinds with the
                # expiry (and its trace) while the block workers stay
                # deployed, ready for the next iterate call
                ctx.check_deadline(f"starting heartbeat iteration {beat}")
                with self._dispatch_lock:
                    self.iterations += 1
                with ctx.span(f"compute[{beat}]"):
                    # 1. compute phase: one step on every block (possibly
                    # async).  Each step is a fault-instrumented piece
                    # dispatch; a retry stays on the SAME block index — a
                    # block's state lives with its worker, so recovery
                    # means a refilled worker for that index (the process
                    # middleware re-exports on crash), never a neighbour
                    with PieceOutcomes(ctx, jp.name) as outcomes:
                        for step, worker in zip(steps, self.workers):
                            outcomes.dispatch(
                                lambda attempt, w=worker, i=step.index: (w, i),
                                step,
                            )
                        ctx.record_pack(len(outcomes))  # one step per block
                        results = outcomes.results("gathering heartbeat steps")
                with ctx.span(f"merge[{beat}]"):
                    # only the latest combined value is retained (a long run
                    # must not accumulate per-iteration results)
                    last_combined = self.splitter.combine(results)
                with ctx.span(f"exchange[{beat}]"):
                    # 2. exchange phase: neighbouring blocks swap boundaries
                    self._exchange(ctx)
        return last_combined

    def _exchange(self, ctx) -> None:
        """Swap boundary data between adjacent workers (1-D chain), one
        *batched* accessor call per worker and phase.

        Per iteration an interior worker is read twice (its ``bottom``
        for the pair below, its ``top`` for the pair above) and written
        twice — the gets and sets each go through one compiled batched
        entry (one BatchJoinPoint and, under distribution, one message
        per worker per phase) instead of one call per boundary.  Gathers
        all read pre-exchange state and scatters write disjoint sides,
        so gather-all-then-scatter-all is equivalent to the pairwise
        interleaving of the per-call formulation.
        """
        workers = self.workers
        last = len(workers) - 1
        boundaries: dict[tuple[int, str], Any] = {}
        for index, worker in enumerate(workers):
            # mid-exchange deadline boundary: a deadline that runs out
            # while halos are being gathered stops the exchange before
            # the next worker is touched — the ticket unwinds, the
            # workers' boundary state for OTHER calls is untouched
            ctx.check_deadline("gathering heartbeat boundaries")
            sides = []
            if index < last:
                sides.append("bottom")  # read by the pair below
            if index > 0:
                sides.append("top")  # read by the pair above
            if not sides:
                continue
            values = resolve(  # an async aspect may future the pack
                batched_entry(worker, self.exchange_out)(
                    [CallPiece(i, (side,)) for i, side in enumerate(sides)]
                )
            )
            for side, value in zip(sides, values):
                boundaries[(index, side)] = resolve(value)
        # ONE deadline check before the write phase, not per worker: the
        # block grid is shared state across iterate calls, so a scatter
        # must apply atomically — aborting half-way would leave some
        # blocks with new halos and some with stale ones, corrupting
        # every subsequent call's input.  (The gather checks above are
        # per-worker because reads cannot damage shared state.)
        ctx.check_deadline("scattering heartbeat boundaries")
        for index, worker in enumerate(workers):
            updates = []
            if index > 0:
                updates.append(("top", boundaries[(index - 1, "bottom")]))
            if index < last:
                updates.append(("bottom", boundaries[(index + 1, "top")]))
            if not updates:
                continue
            # resolve the write outcome: a scatter must have LANDED
            # before the next compute phase reads the halos (async
            # boundary accessors would otherwise still be in flight)
            resolve(
                batched_entry(worker, self.exchange_in)(
                    [CallPiece(i, update) for i, update in enumerate(updates)]
                )
            )
        with self._dispatch_lock:
            self.exchanges += 2 * max(last, 0)
        # the forwarding cursor records exchange phases driven on
        # behalf of the originating call (gather + scatter)
        ctx.advance(2 * max(last, 0))
