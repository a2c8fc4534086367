"""The per-call core: dispatch ticket and result collector.

A deployed stack is immutable topology; everything ONE in-flight call
owns lives on its *ticket* (:class:`DispatchContext`, made ambient by
:mod:`repro.runtime.dispatch`), with a :class:`ResultCollector` where
results arrive out of band; a skeleton's split claims the ticket with
:func:`dispatch_scope`.  Runtime types:
``ParallelApp.submit`` builds the ticket before it asks for capacity,
the slot tables point their places at it, the middlewares re-install it
on the servant side of the wire, the fault plane retries through it and
every backend carries it across its activities, so they are defined
below all of those.  Of a *piece* this
module reads ``index`` and, on a pack, ``items``.
"""

from __future__ import annotations

import threading
from collections import deque
from operator import itemgetter
from typing import Any, Callable

from repro.errors import DeadlineExceeded
from repro.runtime.admission import AdmissionSlot, Deadline
from repro.runtime.backend import current_backend
from repro.runtime.dispatch import (
    current_dispatch,
    next_dispatch_id,
    use_dispatch,
)

__all__ = ["ResultCollector", "DispatchContext", "dispatch_scope"]


class ResultCollector:
    """Gather point for ``expected`` deposits: keyed deposits come back
    in key order (a piece's index, a pack's ``(base, offset)``), so
    ``combine`` sees piece results in index order whichever journey
    finished first; unkeyed deposits keep their arrival order.

    A worker that raises instead of depositing reports through
    :meth:`fail`: the first failure latches, wakes every waiter, and
    :meth:`wait` re-raises the original exception — so a caller blocked
    with no timeout fails fast with the worker's traceback instead of
    hanging on a deposit that will never come.

    Lock ordering: the failure latch, the item list, and :meth:`wait`'s
    verdict are all resolved under the one collector lock.  A timed
    ``wait`` that races a concurrent :meth:`fail` therefore reports the
    latched failure — never a bare ``TimeoutError`` and never a partial
    result list — and a straggler :meth:`deposit` arriving after the
    latch is dropped instead of completing a call that already failed.

    Retry/re-dispatch (:meth:`arm_retry`): with a
    :class:`~repro.faults.RetryPolicy` armed and a ``redispatch``
    callable installed, a *keyed* :meth:`fail` does not latch — it
    charges the piece's attempt ledger and hands the piece back for
    re-dispatch, latching the piece's ORIGINAL failure only once its
    attempts are exhausted.  Keyed deposits deduplicate, so a dropped
    reply whose work actually completed (and deposits late) cannot
    double-count against a retry's deposit — exactly one result per
    piece, whatever the interleaving.
    """

    def __init__(self, expected: int, backend: Any = None):
        backend = backend if backend is not None else current_backend()
        self.expected = expected
        self._items: list[Any] = []
        self._failure: BaseException | None = None
        self._lock = backend.make_lock(name="collector.lock")
        self._done = backend.make_event(name="collector.done")
        #: recovery plane (absent unless arm_retry is called)
        self.retry: Any = None
        self.redispatch: Callable[[Any], Any] | None = None
        #: told ``(piece, exc, attempt)`` before each hand-back: the
        #: ticket counts the re-dispatch (:meth:`DispatchContext.record_retry`)
        self.on_retry: Callable[[Any, BaseException, int], Any] | None = None
        #: keys already holding a deposited result (dedup)
        self._seen: set = set()
        #: key -> failed attempts so far
        self._attempts: dict = {}
        #: key -> first failure (the one that latches on exhaustion)
        self._first_failure: dict = {}
        if expected == 0:
            self._done.set()

    def arm_retry(
        self,
        policy: Any,
        redispatch: Callable[[Any], Any] | None = None,
    ) -> None:
        """Install the call's retry policy (and optionally the
        re-dispatch hook — strategies that recover by re-feeding, like
        the pipeline, install theirs separately before dispatching)."""
        self.retry = policy
        if redispatch is not None:
            self.redispatch = redispatch

    @property
    def failed(self) -> bool:
        """Whether a failure has latched (the call is lost)."""
        return self._failure is not None

    def deposit(self, item: Any, key: Any = None) -> None:
        with self._lock:
            if self._failure is not None:
                return  # the call already failed: drop the late deposit
            if key is None:
                order = (len(self._items),)  # arrival order
            else:
                if key in self._seen:
                    return  # duplicate delivery (retry after a late reply)
                self._seen.add(key)
                # a piece's index sorts with the pack keys (base, offset)
                order = (key, 0) if type(key) is int else key
            self._items.append((order, item))
            complete = len(self._items) >= self.expected
        if complete:
            self._done.set()

    def _latch(self, exc: BaseException) -> None:
        with self._lock:
            if self._failure is None:
                self._failure = exc
        self._done.set()

    def fail(
        self,
        exc: BaseException,
        piece: Any = None,
        key: Any = None,
    ) -> None:
        """Latch a worker-side failure and release every waiter — unless
        a retry policy is armed, the failure names its ``piece``, and
        the piece has attempts left, in which case the piece is handed
        back to ``redispatch`` instead.  Exhausted pieces latch their
        FIRST recorded failure (the original traceback), not the last."""
        retry = self.retry
        if (
            retry is None
            or piece is None
            or self.redispatch is None
            or not retry.retryable(exc)
        ):
            self._latch(exc)
            return
        if key is None:
            key = piece.index
        with self._lock:
            if self._failure is not None:
                return
            if key in self._seen:
                return  # a result for this piece already landed
            failures = self._attempts.get(key, 0) + 1
            self._attempts[key] = failures
            self._first_failure.setdefault(key, exc)
            exhausted = failures >= retry.max_attempts
            original = self._first_failure[key]
        if exhausted:
            self._latch(original)
            return
        if self.on_retry is not None:
            self.on_retry(piece, exc, failures)
        try:
            retry.pause(failures)
            self.redispatch(piece)
        except BaseException as redispatch_exc:  # noqa: BLE001 - must latch
            self._latch(redispatch_exc)

    def wait(self, timeout: float | None = None) -> list[Any]:
        finished = self._done.wait(timeout)
        # verdict under the lock: a fail() racing the wakeup (or the
        # timeout) must win over both the timeout report and the
        # item snapshot — the old unlocked check-then-read could hand
        # back partial results a latched failure had already disowned
        with self._lock:
            if self._failure is not None:
                raise self._failure
            if not finished and len(self._items) < self.expected:
                raise TimeoutError(
                    f"collector got {len(self._items)}/{self.expected} results"
                )
            return list(map(itemgetter(1), sorted(self._items, key=itemgetter(0))))

    def __len__(self) -> int:
        return len(self._items)


class _Span:
    """``with`` block of :meth:`DispatchContext.span`: stamps the end."""

    __slots__ = ("_entry", "_clock")

    def __init__(self, entry: dict, clock: Callable[[], float]):
        self._entry = entry
        self._clock = clock

    def __enter__(self) -> dict:
        return self._entry

    def __exit__(self, *exc: object) -> None:
        self._entry["end"] = self._clock()


class DispatchContext:
    """Per-call dispatch ticket: everything ONE in-flight call owns,
    from admission to resolved future.

    A deployed partition aspect holds only immutable topology (workers,
    stages, ``next`` pointers).  Each call gets its own ticket instead
    of parking state on the aspect, which is what lets a single deployed
    stack serve many overlapped ``submit()``s.  ``ParallelApp.submit``
    builds it before asking for capacity and runs the call under it; the
    first skeleton to open a scope there *claims* it (:meth:`claim`),
    scopes nested below open tickets of their own:

    * ``collector`` — the call's own :class:`ResultCollector` (present
      when the claiming strategy gathers out-of-band deposits, i.e. the
      pipeline tail; strategies that gather via futures carry none);
    * piece accounting — ``pieces`` dispatched and item-granular
      ``items`` (packs spread), plus the latched failure;
    * ``hops`` — the forwarding cursor: inter-stage forwards taken on
      behalf of this call (pipeline) or exchange phases driven
      (heartbeat);
    * admission state — the optional ``deadline``, the ``retry_policy``,
      the serving deployment's ``faults`` schedule, the ``places`` held
      in slot tables (:meth:`release` gives them back), ONE ``cancelled``
      latch with its cause (deadline expiry or shed) and the
      ``delivered`` latch closing the deliver-vs-cancel race
      (:meth:`finish`);
    * the lightweight ``spans`` timeline (split → piece dispatch →
      merge) that :meth:`trace_snapshot` exports.

    The ticket is made *ambient* (:mod:`repro.runtime.dispatch`) for the
    duration of the call and follows it across spawned activities and
    the middleware request path, so forwarding advice running threads or
    hops away still deposits into the originating call's collector.
    Cancellation is cooperative: skeletons call :meth:`check_deadline`
    at dispatch boundaries and drop the call's remaining work when the
    ticket is cancelled, while the deployed workers keep serving every
    other call.
    """

    #: most spans retained per ticket (newest win — a ring, not a cap)
    SPAN_LIMIT = 256

    __slots__ = (
        "context_id",
        "name",
        "collector",
        "pieces",
        "items",
        "hops",
        "remote_dispatches",
        "deadline",
        "retry_policy",
        "faults",
        "places",
        "retries",
        "claimed",
        "cancelled",
        "cancel_cause",
        "delivered",
        "_cancel_hooks",
        "spans",
        "_clock",
        "_lock",
    )

    def __init__(
        self,
        name: str = "dispatch",
        expected: int | None = None,
        backend: Any = None,
        deadline: Deadline | None = None,
        retry: Any = None,
        faults: Any = None,
    ):
        backend = backend if backend is not None else current_backend()
        self.context_id = next_dispatch_id()
        #: who serves the call: the submission, then the claiming split
        self.name = name
        self.collector: ResultCollector | None = None
        self.pieces = 0
        self.items = 0
        self.hops = 0
        #: servant-side executions the middlewares attributed to this call
        self.remote_dispatches = 0
        #: per-call time budget on the backend's clock
        self.deadline = deadline
        #: per-call :class:`~repro.faults.RetryPolicy`
        self.retry_policy = retry
        #: the serving deployment's fault schedule (``None``: no faults)
        self.faults = faults
        #: capacity held for this call: the cluster's place, then the
        #: deployment's
        self.places: list[AdmissionSlot] = []
        #: piece re-dispatches performed on behalf of this call
        self.retries = 0
        #: a skeleton's split took this ticket for its own
        self.claimed = False
        self.cancelled = False
        self.cancel_cause: BaseException | None = None
        #: the call's result was handed to its future — a later cancel
        #: (shed racing completion) is a no-op
        self.delivered = False
        #: callbacks fired once on cancellation — the asyncio backend
        #: registers one per in-flight loop task so a shed/expired
        #: ticket cancels its awaits mid-flight instead of waiting for
        #: the next cooperative check_deadline boundary
        self._cancel_hooks: list[Callable[[BaseException], Any]] = []
        #: span timeline: {"name", "start", "end"} dicts on the
        #: backend's clock (end == start for point events).  A bounded
        #: ring — a million-beat heartbeat keeps its newest spans, the
        #: ticket does not accumulate per-iteration state (matching the
        #: skeletons' own last-combined-only discipline)
        self.spans: "deque[dict]" = deque(maxlen=self.SPAN_LIMIT)
        self._clock = backend.now
        #: one call's pieces progress on many activities at once — the
        #: lock keeps the ticket's counters exact (never held across a
        #: blocking operation)
        self._lock = threading.Lock()
        if expected is not None:
            self.claim(name, expected, backend)

    @property
    def ticket_id(self) -> int:
        """``context_id``, as ``future.admission.ticket_id`` spells it."""
        return self.context_id

    def claim(self, name: str, expected: int | None, backend: Any) -> bool:
        """A skeleton's split takes this ticket for its own — once: the
        first scope under a submission's ticket gets ``True`` and names
        it, nested ones get ``False``.  ``expected`` installs the
        collector, armed with the retry policy (keyed failures
        re-dispatch instead of latching) and failed on the spot when a
        shed or an expiry came first."""
        if self.claimed:
            return False
        collector = (
            ResultCollector(expected, backend) if expected is not None else None
        )
        with self._lock:
            if self.claimed:  # lost a race to another activity's scope
                return False
            self.claimed = True
            self.name = name
            self.collector = collector
            cause = self.cancel_cause
        if collector is not None:
            if self.retry_policy is not None:
                collector.arm_retry(self.retry_policy)
                collector.on_retry = self.record_retry
            if cause is not None:
                collector.fail(cause)
        return True

    # -- piece accounting ---------------------------------------------------

    def record(self, piece: Any) -> Any:
        """Account one dispatched piece (a pack counts once per item)."""
        with self._lock:
            self.pieces += 1
            self.items += len(getattr(piece, "items", ())) or 1
        return piece

    def record_pack(self, count: int) -> None:
        """Account one routed pack of ``count`` items."""
        with self._lock:
            self.pieces += 1
            self.items += count

    def advance(self, hops: int = 1) -> None:
        """Move the forwarding cursor: ``hops`` inter-stage forwards (or
        exchange phases) were taken on behalf of this call."""
        with self._lock:
            self.hops += hops

    def attribute_remote(self) -> None:
        """Count one servant-side execution performed for this call
        (called by the middlewares, which carry the ticket to the
        servant side)."""
        with self._lock:
            self.remote_dispatches += 1

    # -- admission: deadline, cancellation, delivery, spans -----------------

    def record_retry(self, piece: Any, exc: BaseException, attempt: int) -> None:
        """Account one piece re-dispatch on the ticket (counter + a span
        timeline marker naming the piece, the attempt and the cause)."""
        with self._lock:
            self.retries += 1
        self.mark(
            f"retry[piece={getattr(piece, 'index', None)} "
            f"attempt={attempt} cause={type(exc).__name__}]"
        )

    def cancel(self, exc: BaseException) -> None:
        """Cancel this call: latch the cause, mark the span timeline,
        fire the registered cancel hooks (in-flight loop tasks), and
        fail the collector so any gather-side waiter unwinds with
        ``exc`` instead of blocking on deposits that will never count.
        Idempotent — the first cancellation wins — and a no-op once the
        result was delivered (:meth:`finish`)."""
        with self._lock:
            if self.cancelled or self.delivered:
                return
            # cause first: readers of the latch take no lock
            self.cancel_cause = exc
            self.cancelled = True
            hooks = list(self._cancel_hooks)
            self._cancel_hooks.clear()
            now = self._clock()
            self.spans.append({"name": "cancelled", "start": now, "end": now})
        for hook in hooks:
            try:
                hook(exc)
            except Exception:  # pragma: no cover - hooks must not mask
                pass
        if self.collector is not None:
            self.collector.fail(exc)

    def add_cancel_hook(
        self, hook: Callable[[BaseException], Any]
    ) -> Callable[[BaseException], Any]:
        """Register a callback fired (once) when the ticket is
        cancelled; fires immediately if it already was.  Returns the
        hook as its removal token for :meth:`remove_cancel_hook`."""
        with self._lock:
            if not self.cancelled:
                self._cancel_hooks.append(hook)
                return hook
            cause = self.cancel_cause
        try:
            hook(cause if cause is not None else DeadlineExceeded("cancelled"))
        except Exception:  # pragma: no cover - hooks must not mask
            pass
        return hook

    def remove_cancel_hook(self, hook: Callable[[BaseException], Any]) -> None:
        """Deregister a cancel hook (idempotent — a hook already fired
        or never added is simply ignored)."""
        with self._lock:
            try:
                self._cancel_hooks.remove(hook)
            except ValueError:
                pass

    def expire(self, where: str = "") -> BaseException:
        """Cancel this call with a :class:`DeadlineExceeded` carrying
        the ticket's trace; returns the exception to raise."""
        budget = self.deadline.budget if self.deadline is not None else None
        suffix = f" {where}" if where else ""
        exc = DeadlineExceeded(
            f"{self.name}#{self.context_id}: deadline"
            f"{f' of {budget}s' if budget is not None else ''} "
            f"exceeded{suffix}"
        )
        self.cancel(exc)
        # snapshot AFTER cancelling so the trace shows the
        # cancellation marker at the end of the timeline
        exc.trace = self.trace_snapshot()
        return exc

    def check_deadline(self, where: str = "") -> None:
        """Cooperative cancellation point, called by the skeletons at
        every dispatch boundary: raises the cancellation cause when the
        ticket was cancelled (shed), or expires the ticket when its
        deadline has passed."""
        if self.cancelled and self.cancel_cause is not None:
            raise self.cancel_cause
        if self.deadline is not None and self.deadline.expired:
            raise self.expire(where)

    def finish(self) -> BaseException | None:
        """Atomically close the call for delivery, right before its
        future resolves: the cancellation cause when a cancel won the
        race (the call must fail, not deliver), else ``delivered``
        latches and any later cancel is a no-op.  Deadlines are strict:
        a result that comes after the budget drained expires the ticket
        here, even when no boundary noticed in flight."""
        if self.deadline is not None and self.deadline.expired:
            self.expire("by the time the call completed")
        with self._lock:
            if self.cancelled:
                return self.cancel_cause
            self.delivered = True
            return None

    def release(self) -> None:
        """Give back the places held (idempotent), newest first."""
        places, self.places = self.places, []
        for place in reversed(places):
            place.release()

    def span(self, name: str) -> "_Span":
        """Record one timed span of the call's timeline (split, piece
        dispatch, merge...) on the backend's clock."""
        entry = {"name": name, "start": self._clock(), "end": None}
        with self._lock:
            self.spans.append(entry)
        return _Span(entry, self._clock)

    def mark(self, name: str) -> None:
        """Record one point event (a forwarding hop, an exchange phase)
        on the call's timeline."""
        now = self._clock()
        with self._lock:
            self.spans.append({"name": name, "start": now, "end": now})

    def trace_snapshot(self) -> dict:
        """An immutable copy of the ticket's timeline and accounting,
        live or finished — what :class:`~repro.errors.DeadlineExceeded`
        carries."""
        with self._lock:
            return {
                "context_id": self.context_id,
                "name": self.name,
                "pieces": self.pieces,
                "items": self.items,
                "hops": self.hops,
                "remote_dispatches": self.remote_dispatches,
                "retries": self.retries,
                "cancelled": self.cancelled,
                "deadline": (
                    None if self.deadline is None else self.deadline.budget
                ),
                "spans": [dict(span) for span in self.spans],
            }

    # -- collector face -----------------------------------------------------

    def deposit(self, item: Any, key: Any = None) -> None:
        self.collector.deposit(item, key=key)

    def fail(
        self,
        exc: BaseException,
        piece: Any = None,
        key: Any = None,
    ) -> None:
        """Latch a worker failure so waiters fail fast (no-op without a
        collector: strategies that gather via futures propagate the
        exception through the future instead).  Naming the failing
        ``piece`` routes the failure through the collector's retry
        plane when one is armed."""
        if self.collector is not None:
            self.collector.fail(exc, piece=piece, key=key)

    def wait(self, timeout: float | None = None) -> list[Any]:
        return self.collector.wait(timeout)

    def gather(self) -> list[Any]:
        """Deadline-aware collector wait: bounds the block by the
        ticket's remaining budget and converts a timeout into the
        ticket's expiry (cancelling the call so in-flight forwards drop
        their pieces at the next boundary)."""
        if self.deadline is None:
            return self.collector.wait()
        try:
            return self.collector.wait(self.deadline.remaining())
        except TimeoutError:
            raise self.expire("gathering piece results") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DispatchContext #{self.context_id} {self.name} "
            f"pieces={self.pieces} hops={self.hops}>"
        )


def dispatch_scope(
    name: str,
    expected: int | None = None,
    backend: Any = None,
) -> Any:
    """The ticket of one intercepted call, as the context manager that
    makes it ambient for the block (``with dispatch_scope(..) as ctx``).

    Under a submission's ticket nobody claimed yet this IS that ticket
    (:meth:`DispatchContext.claim`): deadline, retry policy and a cancel
    latch a shed or a drained deadline already set are the
    submission's, and the submitter releases it.  Anywhere else (no
    ambient ticket, or nested inside a claimed one) a fresh ticket
    opens, under the same fault schedule, for the block.
    """
    ctx = current_dispatch()
    if ctx is None or not ctx.claim(name, expected, backend):
        faults = ctx.faults if ctx is not None else None
        ctx = DispatchContext(name, expected, backend, faults=faults)
        ctx.claimed = True
    return use_dispatch(ctx)
