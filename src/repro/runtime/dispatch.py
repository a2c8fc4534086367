"""Ambient per-call dispatch tickets.

A deployed stack is *immutable topology* — workers, stages, exported
servants.  Everything owned by one in-flight call (its result collector,
piece accounting, forwarding cursor) lives on a per-call *ticket*
instead: the partition layer's
:class:`~repro.parallel.partition.base.DispatchContext`.  This module is
the backend-neutral plumbing that makes the ticket *ambient*:

* :func:`use_dispatch` installs a ticket for the current activity;
* :func:`current_dispatch` reads it — the pipeline's forwarding advice
  uses this to deposit a piece result into the collector of the call
  that *originated* the piece, which is what lets one deployed stack
  serve many overlapped ``submit()``s;
* the :meth:`~repro.runtime.backend.ExecutionBackend.spawn` template
  method (shared by EVERY backend, built-in or registered) and the
  pooled spawner capture the ambient ticket at spawn/enqueue time and
  re-install it inside the spawned activity, so the ticket follows the
  call across every activity boundary the stack creates;
* :func:`ride` / :func:`leave_hop` / :func:`take_tail` keep a pipeline
  piece on ONE activity: the forwarder leaves each hop to the activity's
  body, and the concurrency aspect runs a hop in place of spawning;
* :func:`find_dispatch` resolves a ticket by id — the middlewares stamp
  the originating ticket id onto each request and re-install the ticket
  around the servant-side execution, so work performed on behalf of a
  call is attributed to that call even on the server side of the wire.

Tickets register themselves on creation and are dropped automatically
(the registry holds weak references), so a ticket's lifetime is exactly
its call's.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "current_dispatch",
    "use_dispatch",
    "dispatch_id",
    "find_dispatch",
    "register_dispatch",
    "next_dispatch_id",
    "bind_dispatch",
    "shield_dispatch",
    "current_piece",
    "use_piece",
    "ride",
    "leave_hop",
    "take_tail",
]


class _DispatchState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Any] = []
        self.pieces: list[Any] = []
        #: [ticket, pending hop] of the activity body running here (ride)
        self.journey: list[Any] | None = None
        #: one-shot: the next woven call is a hop (take_tail)
        self.tail = False


_STATE = _DispatchState()
_IDS = itertools.count(1)
#: live tickets by id — weak, so a finished call's ticket vanishes with it
_LIVE: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()


def next_dispatch_id() -> int:
    """A fresh process-unique ticket id."""
    return next(_IDS)


def register_dispatch(ticket: Any) -> Any:
    """Make ``ticket`` resolvable via :func:`find_dispatch` by its
    ``context_id`` for as long as it is referenced; returns the ticket."""
    _LIVE[ticket.context_id] = ticket
    return ticket


def current_dispatch() -> Any | None:
    """The innermost ambient ticket for this activity, or ``None``."""
    stack = _STATE.stack
    return stack[-1] if stack else None


def dispatch_id() -> int | None:
    """The ambient ticket's id, or ``None`` outside any dispatch."""
    ticket = current_dispatch()
    return ticket.context_id if ticket is not None else None


def find_dispatch(context_id: Any) -> Any | None:
    """The live ticket registered under ``context_id``, or ``None`` when
    the id is unknown or its call already finished."""
    if context_id is None:
        return None
    return _LIVE.get(context_id)


@contextmanager
def use_dispatch(ticket: Any | None) -> Iterator[Any | None]:
    """Make ``ticket`` the ambient dispatch for this activity within the
    block.  ``None`` is a no-op (so call sites can pass through an
    absent ticket unconditionally)."""
    if ticket is None:
        yield None
        return
    stack = _STATE.stack
    stack.append(ticket)
    try:
        yield ticket
    finally:
        stack.pop()


def current_piece() -> Any | None:
    """The piece the current activity is dispatching, or ``None``.

    Installed by ``dispatch_piece`` around the woven entry call, and
    carried across activity boundaries by :func:`bind_dispatch` — so the
    pipeline's forwarding advice, running hops and threads away from the
    split, can still tell WHICH head piece a tail result belongs to
    (keyed deposits, the dedup retry/re-dispatch needs)."""
    pieces = _STATE.pieces
    return pieces[-1] if pieces else None


@contextmanager
def use_piece(piece: Any | None) -> Iterator[Any | None]:
    """Make ``piece`` the ambient in-flight piece for the block
    (``None`` is a no-op pass-through, like :func:`use_dispatch`)."""
    if piece is None:
        yield None
        return
    pieces = _STATE.pieces
    pieces.append(piece)
    try:
        yield piece
    finally:
        pieces.pop()


def ride(call: Callable[[], Any]) -> None:
    """Body of a spawned per-call activity: run ``call``, then every hop
    a forwarder left behind (:func:`leave_hop`), each after the one
    before it has unwound — the piece stays on this activity for its
    whole journey, no stage's monitor is held while the next stage is
    entered, and the stack is as deep at stage 200 as at stage 1.  A hop
    is run marked as this activity's tail call (:func:`take_tail`)."""
    state = _STATE
    outer = state.journey
    journey = state.journey = [current_dispatch(), None]
    try:
        call()
        while journey[1] is not None:
            hop, journey[1] = journey[1], None
            state.tail = True
            hop()
    finally:
        state.journey, state.tail = outer, False


def leave_hop(hop: Callable[[], Any]) -> bool:
    """Pipeline forwarder only: leave ``hop`` (the call into the next
    stage) to the activity body this call runs in; ``False`` when there
    is none and the caller must make the hop itself.  A body takes hops
    of the ticket it was started under only — a call nested inside a
    stage waits for its own pieces, which must not queue behind it."""
    journey = _STATE.journey
    if journey is None or journey[0] is not current_dispatch():
        return False
    journey[1] = hop
    return True


def take_tail() -> bool:
    """Concurrency aspect: is this woven call the tail a forwarder left
    to this activity (one-shot)?  Calls other advice makes — divide &
    conquer, heartbeat, dynamic farm — are never marked and spawn."""
    state = _STATE
    marked, state.tail = state.tail, False
    return marked


def bind_dispatch(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Capture the ambient ticket *now* and return a thunk running
    ``fn`` under it — the helper backends and spawners use so a spawned
    activity (or a pooled task executed much later, on a long-lived
    worker) still runs under the ticket of the call that created it.
    The ambient piece rides along, so forwarding work spawned mid-piece
    keeps its piece identity too.

    Thunks marked by :func:`shield_dispatch` pass through uncaptured.
    """
    if getattr(fn, "__dispatch_shielded__", False):
        return fn
    ticket = current_dispatch()
    piece = current_piece()
    if ticket is None and piece is None:
        return fn

    def bound() -> Any:
        with use_dispatch(ticket), use_piece(piece):
            return fn()

    return bound


def shield_dispatch(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Mark ``fn`` so :func:`bind_dispatch` does NOT capture the ambient
    ticket for it.  Long-lived activities (pool workers) are spawned
    from inside some call's dispatch, but must not pin that call's
    ticket — and its collector and results — for their whole lifetime,
    nor leak it as the ambient dispatch of unrelated later tasks."""

    def shielded() -> Any:
        return fn()

    shielded.__dispatch_shielded__ = True  # type: ignore[attr-defined]
    return shielded
