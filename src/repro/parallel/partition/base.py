"""Partition mechanisms: object duplication and method-call split.

Section 4.1: "Two base mechanisms work together to achieve these types
of parallelism: object duplication and method call split."  This module
provides the shared machinery:

* :class:`WorkSplitter` — the app-supplied strategy describing how to
  duplicate (per-stage constructor arguments), how to split a call's
  arguments into pieces, how to forward results between stages, and how
  to combine piece results;
* :func:`dispatch_piece` — how a piece enters a worker's woven entry
  point (the ``"dispatch"`` fault site), and :class:`PieceOutcomes` —
  the one dispatch-and-gather of a split: every piece sent before any
  is awaited, the outcomes resolved into the result list ``combine``
  sees, a retryable failure re-dispatched there;
* :class:`PartitionAspect` — base class holding the splitter and the
  aspect-managed object bookkeeping every strategy shares.

The per-call ticket the skeletons claim with
:func:`~repro.runtime.ticket.dispatch_scope` (:class:`DispatchContext`)
and its :class:`ResultCollector` are runtime concepts and live in
:mod:`repro.runtime.ticket`; the two classes are re-exported here under
the names the skeletons have always used.
"""

from __future__ import annotations

import copy
import threading
from functools import partial
from typing import Any, Callable, Sequence

from repro.aop import abstract_pointcut, pointcut
from repro.aop.cflow import bypassing_construction
from repro.aop.plan import CtorPack, batched_entry
from repro.errors import AdviceError, InjectedFault, ReplyDropped, WorkerKilled
from repro.faults.schedule import fire_fault
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.runtime.backend import _close_awaitables, current_backend, resolve
from repro.runtime.dispatch import AMBIENT, carry
from repro.runtime.futures import Future
from repro.runtime.ticket import DispatchContext, ResultCollector

__all__ = [
    "CallPiece",
    "PackedPiece",
    "WorkSplitter",
    "ResultCollector",
    "DispatchContext",
    "PartitionAspect",
    "dispatch_piece",
    "dispatch_pack",
    "rotating",
    "piece_key",
    "PieceOutcomes",
]


class CallPiece:
    """One piece of a split call: ``(args, kwargs)`` plus its index."""

    __slots__ = ("index", "args", "kwargs")

    def __init__(self, index: int, args: tuple, kwargs: dict | None = None):
        self.index = index
        self.args = args
        self.kwargs = kwargs or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CallPiece #{self.index}>"


class PackedPiece(CallPiece):
    """A *pack*: several pieces routed as one unit and dispatched through
    one compiled batched entry point.

    Produced by the communication-packing optimisation in batch mode.
    Skeletons route a pack exactly like a piece (by ``index``) but
    dispatch it via :func:`repro.aop.plan.batched_entry`, so the advice
    chain runs once per pack (one
    :class:`~repro.aop.plan.BatchJoinPoint`) while the target method
    still runs once per item.  ``args``/``kwargs`` stay empty — a pack's
    payload is its ``items``.
    """

    __slots__ = ("items",)

    def __init__(self, index: int, items: Sequence[CallPiece]):
        super().__init__(index, ())
        self.items = tuple(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PackedPiece #{self.index} x{len(self.items)}>"


def dispatch_piece(
    target: Any,
    name: str,
    piece: CallPiece,
    worker_index: int | None = None,
    carried: bool = False,
    ctx: "DispatchContext | None" = None,
) -> Any:
    """Send one split piece into ``target``'s woven entry point.

    Plain pieces go through the compiled plan installed as the class
    attribute (fetched per piece, so an aspect (un)plugged mid-split
    applies to the remaining pieces); packs go through the compiled
    batched entry — one advice pass for the whole pack.

    The ``"dispatch"`` fault site: the schedule the ticket ``ctx``
    carries, if any, is consulted once per piece (keyed by
    ``worker_index``).  ``raise_in_piece``/``kill_worker`` fail the
    piece before the call, ``delay_reply`` stalls it, ``drop_reply``
    discards its outcome (recovery needs keyed deposits).  The piece is
    ambient during the call (:func:`~repro.runtime.dispatch.current_piece`):
    forwarding advice hops away attributes tail results to it.

    ``carried``: the splitter's last piece — the entry call is made as
    the calling activity's tail (:func:`~repro.runtime.dispatch.carry`),
    so a concurrency aspect runs it here instead of spawning.
    """
    faults = ctx is not None and ctx.faults is not None
    event = fire_fault("dispatch", worker_index, ctx) if faults else None
    if event is not None:
        where = f"worker {worker_index}" if worker_index is not None else "dispatch"
        if event.kind == "raise_in_piece":
            raise InjectedFault(
                f"injected failure in piece #{piece.index} ({where})"
            )
        if event.kind == "kill_worker":
            raise WorkerKilled(
                f"injected worker death under piece #{piece.index} ({where})"
            )
        if event.kind == "delay_reply":
            current_backend().sleep(event.delay)
    items = getattr(piece, "items", None)
    pieces = AMBIENT.pieces  # the piece is ambient for the call
    pieces.append(piece)
    try:
        if items is not None:
            enter = partial(batched_entry(target, name), items)
        else:
            enter = partial(getattr(target, name), *piece.args, **piece.kwargs)
        outcome = carry(target, enter) if carried else enter()
    finally:
        pieces.pop()
    if event is not None and event.kind == "drop_reply":
        raise ReplyDropped(
            f"injected reply drop for piece #{piece.index} ({where})"
        )
    return outcome


#: a split's ``pick_worker``: ``attempt -> (worker, index or None)``
Pick = Callable[[int], tuple[Any, int | None]]


def rotating(workers: Sequence[Any], start: int) -> Pick:
    """The farms' ``pick_worker`` for :meth:`PieceOutcomes.dispatch`:
    attempt 0 is worker ``start`` (modulo the worker count), each retry
    rotates to the next worker round-robin — a killed worker's piece
    lands on a healthy neighbour."""

    def pick(attempt: int) -> tuple[Any, int]:
        index = (start + attempt) % len(workers)
        return workers[index], index

    return pick


def piece_key(piece: CallPiece | None) -> Any:
    """The deposit-deduplication key for a piece (``None`` when there is
    no ambient piece — an unkeyed deposit, never deduplicated)."""
    return None if piece is None else piece.index


class PieceOutcomes(list):
    """The one dispatch-and-gather of a split: a ``(piece, pick_worker,
    outcome)`` entry per piece in piece order (``size`` pre-sizes it for
    dispatchers that fill slots), and the ``with`` block around them.
    Every piece is dispatched before any is awaited; the gather
    re-dispatches a retryable failure while the other pieces run on.
    Whatever unwinds the block — a failed piece, a shed or expired
    ticket — closes the coroutines an async servant already handed back
    and nobody will await ("coroutine ... was never awaited" otherwise)."""

    __slots__ = ("ctx", "name")

    def __init__(self, ctx: DispatchContext, name: str, size: int = 0):
        super().__init__([None] * size)
        self.ctx = ctx
        self.name = name

    def __enter__(self) -> "PieceOutcomes":
        return self

    def __exit__(self, kind: Any, exc: Any, tb: Any) -> None:
        if kind is not None:
            for entry in self:
                if entry is not None:
                    _close_awaitables(entry[2])

    def dispatch(
        self,
        pick_worker: Pick,
        piece: CallPiece,
        carried: bool = False,
        slot: int | None = None,
        attempt: int = 0,
    ) -> Any:
        """Send ``piece`` to ``pick_worker(attempt)`` and keep the
        outcome unresolved (at ``slot``, else appended); returns it.
        With a retry policy armed, a failure at dispatch is kept for the
        gather as an already failed :class:`~repro.runtime.futures.Future`.
        ``carried``: see :func:`dispatch_piece`."""
        worker, index = pick_worker(attempt)
        try:
            outcome = dispatch_piece(
                worker, self.name, piece, index, carried, self.ctx
            )
        except Exception as exc:
            if self.ctx.retry_policy is None:
                raise
            outcome = Future(name="piece")
            outcome.set_exception(exc)
        if slot is None:
            self.append((piece, pick_worker, outcome))
        else:
            self[slot] = (piece, pick_worker, outcome)
        return outcome

    def results(self, where: str) -> list:
        """Resolve the outcomes in piece order into the result list
        ``combine`` sees, pack outcomes (per-item lists) spread.  Each
        piece is a deadline/shed boundary (``where`` names it in the
        expiry), checked before its slot is read: a call nobody waits
        for any more is not waited for.  A retryable failure is
        re-dispatched through the piece's ``pick_worker(attempt)``, up
        to the ticket's policy's attempts."""
        ctx = self.ctx
        results: list = []
        for slot in range(len(self)):
            ctx.check_deadline(where)
            piece, pick_worker, outcome = self[slot]
            attempt = 0
            while True:
                try:
                    value = resolve(outcome)
                    break
                except Exception as exc:
                    attempt += 1
                    policy = ctx.retry_policy
                    if (
                        policy is None
                        or not policy.retryable(exc)
                        or attempt >= policy.max_attempts
                    ):
                        raise
                    ctx.record_retry(piece, exc, attempt)
                    ctx.check_deadline("retrying a failed piece")
                    policy.pause(attempt)
                    outcome = self.dispatch(
                        pick_worker, piece, slot=slot, attempt=attempt
                    )
            packed = getattr(piece, "items", None) is not None
            results.extend(value if packed else (value,))
        return results


def dispatch_pack(
    ctx: DispatchContext, pick_worker: Pick, name: str, pack: PackedPiece
) -> Any:
    """Route one whole submitted pack (the farms' ``route_pack``): its
    outcome unresolved when no retry is armed — the submission may
    detach a oneway pack — else gathered, so a failed pack re-dispatches."""
    with PieceOutcomes(ctx, name) as outcomes:
        outcome = outcomes.dispatch(pick_worker, pack)
        if ctx.retry_policy is None:
            return outcome
        return outcomes.results("gathering the pack")


class WorkSplitter:
    """Application-supplied partition strategy.

    Parameters
    ----------
    duplicates:
        How many aspect-managed objects to create (pipeline stages or
        farm workers).
    ctor_args:
        ``(args, kwargs, index, count) -> (args, kwargs)`` — constructor
        arguments for the ``index``-th duplicate.  Default: broadcast the
        original arguments (the farm's behaviour).
    split:
        ``(args, kwargs) -> [CallPiece...]`` — split one core call.
        Default: a single piece (no data split).
    combine:
        ``[piece results in index order] -> result`` — aggregate.
        Default: return the list itself.
    forward_args:
        ``(result, args, kwargs) -> (args, kwargs)`` — arguments for the
        next pipeline stage, given this stage's result.  Default: pass
        the result as the sole argument (the sieve forwards survivors).
    merge_pieces:
        ``(pieces) -> piece`` — used by the communication-packing
        optimisation to coalesce consecutive pieces.  Optional.
    """

    def __init__(
        self,
        duplicates: int,
        ctor_args: Callable[[tuple, dict, int, int], tuple[tuple, dict]] | None = None,
        split: Callable[[tuple, dict], Sequence[CallPiece]] | None = None,
        combine: Callable[[list], Any] | None = None,
        forward_args: Callable[[Any, tuple, dict], tuple[tuple, dict]] | None = None,
        merge_pieces: Callable[[Sequence[CallPiece]], CallPiece] | None = None,
    ):
        if duplicates < 1:
            raise AdviceError("duplicates must be >= 1")
        self.duplicates = duplicates
        self._ctor_args = ctor_args
        self._split = split
        self._combine = combine
        self._forward_args = forward_args
        self._merge_pieces = merge_pieces

    def ctor_args(self, args: tuple, kwargs: dict, index: int) -> tuple[tuple, dict]:
        if self._ctor_args is None:
            return args, kwargs
        return self._ctor_args(args, kwargs, index, self.duplicates)

    def split(self, args: tuple, kwargs: dict) -> list[CallPiece]:
        if self._split is None:
            return [CallPiece(0, args, kwargs)]
        return list(self._split(args, kwargs))

    def combine(self, results: list) -> Any:
        if self._combine is None:
            return results
        return self._combine(results)

    def forward_args(self, result: Any, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        if self._forward_args is None:
            return (result,), {}
        return self._forward_args(result, args, kwargs)

    @property
    def shipped_forward_args(self) -> Callable | None:
        """What a distribution layer that runs stages ahead applies
        between them: ``None`` for the default (the result as the sole
        argument), else the hook — ``forward_args`` itself if replaced."""
        replaced = getattr(self.forward_args, "__func__", None)
        if replaced is not WorkSplitter.forward_args:
            return self.forward_args
        return self._forward_args

    def merge_pieces(self, pieces: Sequence[CallPiece]) -> CallPiece:
        if self._merge_pieces is None:
            raise AdviceError(
                "this splitter does not support piece merging "
                "(communication packing needs merge_pieces)"
            )
        return self._merge_pieces(pieces)


class PartitionAspect(ParallelAspect):
    """Common state for partition strategies.

    Abstract pointcuts every strategy binds (by constructor keyword or in
    a subclass):

    * ``creation`` — the core-functionality construction to duplicate,
      e.g. ``initialization(PrimeFilter.new(..))``;
    * ``work`` — the core call(s) to split, e.g.
      ``call(PrimeFilter.filter(..))``.
    """

    concern = Concern.PARTITION
    precedence = LAYER["partition"]

    #: The strategy registry holds the classes, and ``StackSpec`` reads
    #: these four flags off them — the single source of truth.
    #:
    #: does this aspect implement top-level pack routing (a
    #: ``route_pack`` branch for pack-level BatchJoinPoints)?
    routes_packs: bool = False
    #: can this aspect's work call be fire-and-forget?  Only sound when
    #: pack routing is pure scatter — no reply gathering, no
    #: inter-worker forwarding (farms yes; pipeline routes packs but
    #: needs every hop's reply, so it stays False).
    oneway_packs: bool = False
    #: is a :class:`WorkSplitter` needed to build the aspect?
    requires_splitter: bool = True
    #: does the aspect spawn its pieces itself (no concurrency module)?
    provides_concurrency: bool = False

    creation = abstract_pointcut("construction joinpoint to duplicate")
    work = abstract_pointcut("method call(s) to split")

    def __init__(
        self,
        splitter: WorkSplitter,
        creation: str | None = None,
        work: str | None = None,
    ):
        self.splitter = splitter
        if creation is not None:
            self.creation = pointcut(creation)
        if work is not None:
            self.work = pointcut(work)
        #: id(object) -> index of the aspect-managed duplicates
        self.managed: dict[int, int] = {}
        #: duplicates in creation order (index order)
        self.instances: list[Any] = []
        #: guards a strategy's own counters (heartbeat, divide and
        #: conquer, dynamic farm) against overlapped calls; held only
        #: for the mutation itself, never across a blocking operation
        self._dispatch_lock = threading.Lock()

    # -- shared duplication bookkeeping ------------------------------------

    def build_duplicates(self, jp) -> list[Any]:
        """Construct every duplicate through ONE batched initialization
        joinpoint pass.

        The splitter's per-index constructor arguments are collected into
        a :class:`~repro.aop.plan.CtorPack` and shipped through a single
        ``proceed`` — the remaining initialization chain (and, under
        distribution, the create-remote advice) runs once per duplicate
        *set* instead of once per worker, while still building (and
        exporting) one instance per argset.  Returns the instances in
        index order, already remembered as aspect-managed.
        """
        self.reset_instances()
        splitter = self.splitter
        argsets = [
            splitter.ctor_args(jp.args, jp.kwargs, index)
            for index in range(splitter.duplicates)
        ]
        instances = list(jp.proceed(CtorPack(argsets)))
        for index, obj in enumerate(instances):
            self.remember(obj, index)
        return instances

    def remember(self, obj: Any, index: int) -> None:
        self.managed[id(obj)] = index
        self.instances.append(obj)

    def is_managed(self, obj: Any) -> bool:
        return id(obj) in self.managed

    def snapshot(self, obj: Any, build: Callable[[Any], Any] | None = None) -> Any:
        """A detached local copy of a managed instance — the read-replica
        source used by the optimisation layer
        (:class:`~repro.parallel.optimisation.replication.ReadReplicaAspect`).

        ``build`` converts the live instance into its replica; the
        default is :func:`copy.deepcopy`.  The copy is taken with weaver
        construction bypassed so replicating a woven servant does not
        re-enter the partition's own creation advice.
        """
        if not self.is_managed(obj):
            raise AdviceError(
                f"{type(obj).__name__} instance is not managed by this partition"
            )
        maker = build if build is not None else copy.deepcopy
        with bypassing_construction():
            return maker(obj)

    def reset_instances(self) -> None:
        self.managed.clear()
        self.instances.clear()
