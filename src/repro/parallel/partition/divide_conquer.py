"""Divide-and-conquer partition.

Section 4.1: "Object duplication is specified by intercepting the
creation of objects and method split calls are specified by intercepting
method calls, but it is also possible to perform object creations when
intercepting method calls (e.g., in divide and conquer algorithms)."

This strategy does exactly that: intercepting a *call*, it creates fresh
aspect-managed workers for the sub-problems, recurses through the woven
call (so division continues until :meth:`should_divide` says stop, and
the concurrency/distribution layers see every sub-call), then merges.

It takes no :class:`~repro.parallel.partition.base.WorkSplitter`
(branch workers are cloned at call time, not built from a creation
joinpoint), so a ``StackSpec`` declares it with ``splitter=None`` and
passes the recursion hooks through ``strategy_options``::

    StackSpec(
        target=Summer,
        work="total",
        strategy="divide-conquer",
        strategy_options=dict(
            should_divide=lambda args, kwargs, depth: len(args[0]) > 4,
            divide=halve, merge=sum,
        ),
    )

Hooks (keyword constructor arguments):

``should_divide(args, kwargs, depth)``
    Predicate deciding whether to split further (e.g. size threshold).
``divide(args, kwargs)``
    Returns the sub-problem :class:`CallPiece` list.
``merge(results)``
    Combines sub-results into the call's result.
``make_worker(prototype)``
    Builds the worker for one branch; default: a state clone of the
    receiver (an aspect-managed object, per Figure 4).
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable, Sequence

from repro.aop import around
from repro.aop.cflow import bypassing_construction
from repro.api.registry import register_strategy
from repro.errors import AdviceError
from repro.parallel.partition.base import (
    CallPiece,
    PartitionAspect,
    PieceOutcomes,
    WorkSplitter,
    dispatch_with_retry,
)
from repro.runtime.dispatch import current_dispatch

__all__ = ["DivideAndConquerAspect"]


@register_strategy("divide-conquer")
class DivideAndConquerAspect(PartitionAspect):
    """Recursive call-split with per-branch worker creation.

    The top-level intercepted call opens one per-call
    :class:`~repro.runtime.ticket.DispatchContext`; every
    recursive division (whatever activity it runs on) records its pieces
    into that originating ticket, so overlapped top-level calls keep
    fully separate accounting.

    ``routes_packs`` stays False: the work call is the recursion itself
    — a submitted pack has no per-worker routing that preserves the
    divide/merge contract, so ``app.map(pack=N)`` rejects these specs
    eagerly.
    """

    #: there is nothing to duplicate up front: no splitter, and the
    #: ``creation`` pointcut is accepted for the shared signature only
    requires_splitter = False

    def __init__(
        self,
        splitter: WorkSplitter | None = None,
        creation: str | None = None,
        work: str | None = None,
        *,
        should_divide: Callable[[tuple, dict, int], bool],
        divide: Callable[[tuple, dict], Sequence[CallPiece]],
        merge: Callable[[list], Any],
        make_worker: Callable[[Any], Any] | None = None,
        max_depth: int = 32,
    ):
        if max_depth < 1:
            raise AdviceError("max_depth must be >= 1")
        super().__init__(splitter, creation, work)
        self.should_divide = should_divide
        self.divide = divide
        self.merge = merge
        self.max_depth = max_depth
        self._make_worker = make_worker
        self._depth = threading.local()
        self.divisions = 0
        self.workers_created = 0
        self.leaves = 0
        #: branch workers in creation order (observability; survives
        #: undeploy so post-run inspection works)
        self.branches: list[Any] = []

    # -- worker creation at call interception --------------------------------

    def make_worker(self, prototype: Any) -> Any:
        with self._dispatch_lock:  # overlapped calls create in parallel
            self.workers_created += 1
        if self._make_worker is not None:
            return self._make_worker(prototype)
        with bypassing_construction():  # a copy, not a woven construction
            return copy.deepcopy(prototype)

    # -- the advice -----------------------------------------------------------

    @around("work")
    def conquer(self, jp):
        if self.passthrough(jp):
            return jp.proceed()
        depth = getattr(self._depth, "value", 0)
        if depth >= self.max_depth or not self.should_divide(
            jp.args, jp.kwargs, depth
        ):
            with self._dispatch_lock:
                self.leaves += 1
            return jp.proceed()
        ambient = current_dispatch()
        reentered = ambient is not None and ambient.context_id in self.contexts
        if depth == 0 and not reentered:
            # the top-level call owns the ticket; recursive divisions
            # (below, possibly on other activities whose thread-local
            # depth restarts at 0) account into it via the ambient ticket
            with self.dispatch_scope(f"divide-conquer.{jp.name}") as ctx:
                return self._divide_and_merge(jp, depth, ctx)
        return self._divide_and_merge(jp, depth, ambient)

    def _divide_and_merge(self, jp, depth: int, ctx) -> Any:
        with self._dispatch_lock:  # overlapped calls divide in parallel
            self.divisions += 1
        if ctx is not None:
            ctx.mark(f"divide[depth={depth}]")
        pieces = self.divide(jp.args, jp.kwargs)
        if len(pieces) <= 1:
            with self._dispatch_lock:
                self.leaves += 1
            return jp.proceed()
        with PieceOutcomes() as outcomes:
            self._depth.value = depth + 1
            try:
                for piece in pieces:
                    if ctx is not None:
                        # deadline/shed boundary per branch: an expired
                        # recursion stops dividing wherever it is in the
                        # tree and unwinds through the top-level ticket
                        ctx.check_deadline("dividing sub-problems")
                        ctx.record(piece)
                    worker = self.make_worker(jp.target)
                    self.remember_branch(worker)

                    def pick(attempt: int, first=worker, proto=jp.target):
                        # attempt 0 uses the branch clone just built; a
                        # retry abandons the (possibly poisoned) clone and
                        # recurses on a FRESH clone of the prototype
                        if attempt == 0:
                            return first, None
                        fresh = self.make_worker(proto)
                        self.remember_branch(fresh)
                        return fresh, None

                    # recurse through the branch worker's compiled plan
                    # entry; a divide() returning PackedPiece groups
                    # recurses through the compiled batched entry (one
                    # advice pass per pack)
                    outcomes.append(
                        dispatch_with_retry(ctx, pick, jp.name, piece)
                    )
            except BaseException as exc:
                if ctx is not None:
                    ctx.fail(exc)
                raise
            finally:
                self._depth.value = depth
            results = outcomes.results(ctx, pieces, "merging sub-results")
        return self.merge(results)

    # -- bookkeeping -------------------------------------------------------------

    def remember_branch(self, worker: Any) -> None:
        with self._dispatch_lock:
            self.branches.append(worker)
