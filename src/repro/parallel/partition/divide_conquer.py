"""Divide-and-conquer partition.

Section 4.1: "Object duplication is specified by intercepting the
creation of objects and method split calls are specified by intercepting
method calls, but it is also possible to perform object creations when
intercepting method calls (e.g., in divide and conquer algorithms)."

This strategy does exactly that: intercepting a *call*, it unfolds the
whole division tree in the caller (dividing until :meth:`should_divide`
says stop), creates one fresh aspect-managed worker per leaf and sends
every leaf through its woven call before awaiting any — so the
concurrency/distribution layers see every leaf call and all of them
run at once — then folds the leaf results bottom-up through ``merge``.

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
    Builds the worker for one leaf; default: a state clone of the
    receiver (an aspect-managed object, per Figure 4).
"""

from __future__ import annotations

import copy
from functools import partial
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from repro.aop import around
from repro.aop.cflow import bypassing_construction
from repro.api.registry import register_strategy
from repro.errors import AdviceError
from repro.parallel.partition.base import (
    CallPiece,
    PartitionAspect,
    PieceOutcomes,
    WorkSplitter,
)
from repro.runtime.ticket import dispatch_scope

__all__ = ["DivideAndConquerAspect"]


@register_strategy("divide-conquer")
class DivideAndConquerAspect(PartitionAspect):
    """Recursive call-split with per-leaf worker creation.

    The intercepted call opens one per-call
    :class:`~repro.runtime.ticket.DispatchContext`, unfolds its
    division tree in the calling activity and gathers every leaf
    through one :class:`~repro.parallel.partition.base.PieceOutcomes`,
    so overlapped calls keep fully separate accounting.

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
        self.divisions = 0
        self.leaves = 0
        #: branch workers in creation order, one per leaf attempt
        #: (observability; survives undeploy so post-run inspection works)
        self.branches: list[Any] = []

    @property
    def workers_created(self) -> int:
        return len(self.branches)

    def branch(self, prototype: Any, attempt: int) -> tuple[Any, None]:
        """A leaf's ``pick_worker``: every attempt on a fresh worker,
        a state clone of the receiver by default — a retry abandons the
        (possibly poisoned) one."""
        if self._make_worker is not None:
            worker = self._make_worker(prototype)
        else:
            with bypassing_construction():  # a copy, not a woven construction
                worker = copy.deepcopy(prototype)
        with self._dispatch_lock:  # overlapped calls create in parallel
            self.branches.append(worker)
        return worker, None

    # -- the advice -----------------------------------------------------------

    @around("work")
    def conquer(self, jp):
        # the leaf calls this advice makes pass through
        if jp.from_advice:
            return jp.proceed()
        with dispatch_scope(f"divide-conquer.{jp.name}") as ctx:
            with PieceOutcomes(ctx, jp.name) as outcomes:
                root = CallPiece(0, jp.args, jp.kwargs)
                pick = partial(self.branch, jp.target)
                tree = self._unfold(ctx, outcomes, pick, root, 0)
                if tree is None:  # the root stays a leaf on the receiver
                    return jp.proceed()
                results = outcomes.results("merging sub-results")
            return self._fold(tree, iter(results))

    def _unfold(self, ctx, outcomes, pick, piece: CallPiece, depth: int) -> Any:
        """The subtree under ``piece``: its children's subtrees while it
        divides, else a leaf dispatched to a fresh branch worker, as its
        result count (a pack's spread) — or ``None``, the root."""
        # deadline/shed boundary per node: an expired call stops
        # dividing wherever it is in the tree
        ctx.check_deadline("dividing sub-problems")
        items = getattr(piece, "items", None)
        if (
            items is None
            and depth < self.max_depth
            and self.should_divide(piece.args, piece.kwargs, depth)
        ):
            with self._dispatch_lock:  # overlapped calls divide in parallel
                self.divisions += 1
            ctx.mark(f"divide[depth={depth}]")
            pieces = self.divide(piece.args, piece.kwargs)
            if len(pieces) > 1:  # else it stays a leaf
                return [
                    self._unfold(ctx, outcomes, pick, sub, depth + 1)
                    for sub in pieces
                ]
        with self._dispatch_lock:
            self.leaves += 1
        if depth == 0:
            return None
        # a PackedPiece leaf enters through the compiled batched entry
        # (one advice pass per pack)
        outcomes.dispatch(pick, ctx.record(piece))
        return 1 if items is None else len(items)

    def _fold(self, tree: list, results: Iterator) -> Any:
        """Merge ``tree`` bottom-up over the leaf results in leaf order."""
        merged: list = []
        for child in tree:
            if isinstance(child, list):
                merged.append(self._fold(child, results))
            else:
                merged.extend(islice(results, child))
        return self.merge(merged)
