"""Ambient per-call dispatch tickets.

A deployed stack is *immutable topology* — workers, stages, exported
servants.  Everything owned by one in-flight call (its result collector,
piece accounting, forwarding cursor) lives on a per-call *ticket*
instead: :class:`~repro.runtime.ticket.DispatchContext`.  This module
is the backend-neutral plumbing that makes the ticket *ambient*:

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
* :func:`ride` / :func:`leave_hop` / :func:`carry` / :func:`take_tail`
  keep a piece on ONE activity (see *The tail mark* below).

**The tail mark.**  One per-thread, one-shot mark names the object whose
next woven call is the *tail* of the running activity: the concurrency
aspect (:func:`take_tail`) answers that call by running it in place and
handing back a resolved future, where it would have spawned.  Two
parties may set it, nobody else:

* the body of a per-call activity (:func:`ride`), for each hop the
  pipeline forwarder left it (:func:`leave_hop`) — a piece crosses all
  its stages on one activity;
* a splitter (:func:`carry`: the farm's dispatch loop and the pipeline's
  feed loop, through ``dispatch_piece``), for the LAST piece of a split —
  the splitting activity would only block in the gather while that piece
  ran elsewhere, so it carries it: p pieces cost p − 1 spawns.

It is cleared by whichever comes first: the concurrency aspect that
reads it (whatever its verdict — a call on another object is not the
tail and spawns), or the ``finally`` of the party that set it, so a
stack with no concurrency aspect leaves nothing behind.

**The chain and the run** let the pipeline talk to a distribution layer
it never imports.  At deploy it builds its stages inside
:func:`publish_chain`, so the aspect exporting them (:func:`chain_built`)
knows they hand on to each other in order — the process middleware links
the neighbours one worker hosts.  Per call, the forwarder enters a stage
inside :func:`run_ahead`; a middleware that takes the mark
(:func:`take_run`) may let the servant side run the stages behind it too
and says how far it got (:func:`leave_run`).
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable

__all__ = [
    "AMBIENT",
    "Ambient",
    "current_dispatch",
    "use_dispatch",
    "next_dispatch_id",
    "bind_dispatch",
    "shield_dispatch",
    "current_piece",
    "ride",
    "leave_hop",
    "carry",
    "take_tail",
    "publish_chain",
    "chain_built",
    "run_ahead",
    "take_run",
    "leave_run",
]


class _DispatchState(threading.local):
    def __init__(self) -> None:
        self.stack: list[Any] = []
        self.pieces: list[Any] = []
        #: [ticket, pending hop, the object the hop calls into] of the
        #: activity body running here (ride)
        self.journey: list[Any] | None = None
        #: one-shot: the object whose next woven call is this activity's
        #: tail (take_tail)
        self.tail: Any = None
        #: ``(forward_args,)`` while a pipeline builds its stages
        self.chain: tuple | None = None
        #: ``True`` while a stage call whose successors may run ahead is
        #: on its way down; ``(hops, view)`` once a middleware ran some
        self.run: Any = None


#: the calling thread's ambient stacks and marks (hot paths push inline)
AMBIENT = _DispatchState()
_IDS = itertools.count(1)


def next_dispatch_id() -> int:
    """A fresh process-unique ticket id."""
    return next(_IDS)


def current_dispatch() -> Any | None:
    """The innermost ambient ticket for this activity, or ``None``."""
    stack = AMBIENT.stack
    return stack[-1] if stack else None


class Ambient:
    """``with`` block that keeps ``value`` on top of one of the calling
    thread's ambient stacks — what every ``use_*`` scope of the runtime
    returns.  ``None`` is a pass-through, so call sites can wrap an
    absent value unconditionally.  A plain push and pop: these scopes
    open a dozen times per submit."""

    __slots__ = ("_stack", "_value")

    def __init__(self, stack: list, value: Any):
        self._stack = stack
        self._value = value

    def __enter__(self) -> Any:
        if self._value is not None:
            self._stack.append(self._value)
        return self._value

    def __exit__(self, *exc: Any) -> None:
        if self._value is not None:
            self._stack.pop()


def use_dispatch(ticket: Any | None) -> Ambient:
    """Make ``ticket`` the ambient dispatch for this activity within the
    block.  ``None`` is a no-op (so call sites can pass through an
    absent ticket unconditionally)."""
    return Ambient(AMBIENT.stack, ticket)


def current_piece() -> Any | None:
    """The piece the current activity is dispatching, or ``None``.

    Installed by ``dispatch_piece`` around the woven entry call, and
    carried across activity boundaries by :func:`bind_dispatch` — so the
    pipeline's forwarding advice, running hops and threads away from the
    split, can still tell WHICH head piece a tail result belongs to
    (keyed deposits, the dedup retry/re-dispatch needs)."""
    pieces = AMBIENT.pieces
    return pieces[-1] if pieces else None


def ride(call: Callable[[], Any]) -> None:
    """Body of a per-call activity — spawned, or the splitting activity
    carrying its last piece: run ``call``, then every hop a forwarder
    left behind (:func:`leave_hop`), each after the one before it has
    unwound — the piece stays on this activity for its whole journey,
    no stage's monitor is held while the next stage is entered, and the
    stack is as deep at stage 200 as at stage 1.  A hop is run marked as
    this activity's tail call (:func:`take_tail`); run as one, ``call``
    is just called — the body under way makes the next hop too."""
    state = AMBIENT
    outer = state.journey
    ticket = current_dispatch()
    if outer is not None and outer[0] is ticket:
        call()
        return
    journey = state.journey = [ticket, None, None]
    try:
        call()
        while journey[1] is not None:
            hop, journey[1] = journey[1], None
            state.tail = journey[2]
            hop()
    finally:
        state.journey, state.tail = outer, None


def leave_hop(hop: Callable[[], Any], target: Any) -> bool:
    """Pipeline forwarder only: leave ``hop`` (the call into the next
    stage, ``target``) to the activity body this call runs in; ``False``
    when there is none and the caller must make the hop itself.  A body
    takes hops of the ticket it was started under only — a call nested
    inside a stage waits for its own pieces, which must not queue behind
    it."""
    journey = AMBIENT.journey
    if journey is None or journey[0] is not current_dispatch():
        return False
    journey[1], journey[2] = hop, target
    return True


def carry(target: Any, enter: Callable[[], Any]) -> Any:
    """Splitters only: make ``enter`` — the call into a woven entry
    point of ``target`` — as the tail of the calling activity, which
    carries the piece instead of waiting for an activity spawned for it."""
    state = AMBIENT
    state.tail = target
    try:
        return enter()
    finally:
        state.tail = None


def take_tail(target: Any) -> bool:
    """Concurrency aspect: is this woven call into ``target`` the tail
    of the running activity (one-shot: reading the mark clears it)?
    Calls other advice makes — divide & conquer, heartbeat, dynamic
    farm — and calls a servant makes are never marked and spawn."""
    state = AMBIENT
    marked, state.tail = state.tail, None
    return marked is not None and marked is target


def publish_chain(build: Callable[[], list], forward_args: Any) -> list:
    """Pipeline only: run ``build``, the batched duplication whose
    instances are the stages in pipeline order, as one a distribution
    layer may recognise (:func:`chain_built`).  ``forward_args`` is the
    splitter's hook, ``None`` for the default."""
    state = AMBIENT
    state.chain = (forward_args,)
    try:
        return build()
    finally:
        state.chain = None


def chain_built() -> tuple | None:
    """Distribution aspects: ``(forward_args,)`` when the batched
    construction under way is a pipeline's chain of stages, else ``None``."""
    return AMBIENT.chain


def run_ahead(enter: Callable[[], Any]) -> tuple[Any, Any]:
    """Pipeline forwarder only: make ``enter`` — the call into a stage
    that has a successor — marked as one whose successors may run ahead.
    Returns ``(result, run)``; ``run`` is ``None`` when that stage alone
    ran, else what :func:`leave_run` left."""
    state = AMBIENT
    state.run = True
    try:
        result = enter()
        run = state.run
    finally:
        state.run = None
    return result, (None if run is True else run)


def take_run() -> bool:
    """Middlewares: was this invocation marked by :func:`run_ahead`?
    One-shot: a second invocation under the same stage call is bare."""
    state = AMBIENT
    marked, state.run = state.run is True, None
    return marked


def leave_run(hops: int, view: Any) -> None:
    """Middlewares: the marked invocation went on through ``hops``
    further stages; its result is the last one's, and ``view`` what that
    stage was called with where the forwarder needs it (a custom
    ``forward_args``)."""
    AMBIENT.run = (hops, view)


def bind_dispatch(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Capture the ambient ticket *now* and return a thunk running
    ``fn`` under it — the helper backends and spawners use so a spawned
    activity (or a pooled task executed much later, on a long-lived
    worker) still runs under the ticket of the call that created it.
    The ambient piece rides along, so forwarding work spawned mid-piece
    keeps its piece identity too.  The thunk names its ticket
    (``.ticket``): a pool resident asks the pulled task's ticket.

    Thunks marked by :func:`shield_dispatch` pass through uncaptured.
    """
    if getattr(fn, "__dispatch_shielded__", False):
        return fn
    ticket = current_dispatch()
    piece = current_piece()
    if ticket is None and piece is None:
        return fn

    def bound() -> Any:
        # use_dispatch + the piece's push, inline: once per activity
        state = AMBIENT
        if ticket is not None:
            state.stack.append(ticket)
        if piece is not None:
            state.pieces.append(piece)
        try:
            return fn()
        finally:
            if piece is not None:
                state.pieces.pop()
            if ticket is not None:
                state.stack.pop()

    bound.ticket = ticket  # type: ignore[attr-defined]
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
