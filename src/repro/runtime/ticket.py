"""The per-call core: dispatch ticket, result collector, ticket owner.

A deployed stack is immutable topology; everything ONE in-flight call
owns lives on its *ticket* (:class:`DispatchContext`, made ambient by
:mod:`repro.runtime.dispatch`), with a :class:`ResultCollector` where
results arrive out of band; :class:`DispatchContextOwner` is the mixin
of aspects that open a ticket per intercepted call.  Runtime types: the
API attaches admission slots to them, the middlewares re-install them on
the servant side of the wire, the fault plane retries through them and
every backend carries them across its activities, so they are defined
below all of those — the skeletons (:mod:`repro.parallel.partition`)
are only their heaviest users.  Of a *piece* this module reads
``index`` and, on a pack, ``items``.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import DeadlineExceeded
from repro.runtime.admission import current_envelope
from repro.runtime.backend import current_backend
from repro.runtime.dispatch import next_dispatch_id, register_dispatch, use_dispatch

__all__ = ["ResultCollector", "DispatchContext", "DispatchContextOwner"]


class ResultCollector:
    """Gather point for ``expected`` deposits, in deposit order.

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
        #: re-dispatches performed on behalf of this call
        self.retries = 0
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
            if key is not None:
                if key in self._seen:
                    return  # duplicate delivery (retry after a late reply)
                self._seen.add(key)
            self._items.append(item)
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
            if not exhausted:
                self.retries += 1
        if exhausted:
            self._latch(original)
            return
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
            return list(self._items)

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
    """Per-call dispatch ticket: everything ONE in-flight split owns.

    A deployed partition aspect holds only immutable topology (workers,
    stages, ``next`` pointers).  Each intercepted call gets its own
    ticket instead of parking state on the aspect, which is what lets a
    single deployed stack serve many overlapped ``submit()``s:

    * ``collector`` — the call's own :class:`ResultCollector` (present
      when the strategy gathers out-of-band deposits, i.e. the pipeline
      tail; strategies that gather via futures carry no collector);
    * piece accounting — ``pieces`` dispatched and item-granular
      ``items`` (packs spread), plus the latched failure;
    * ``hops`` — the forwarding cursor: inter-stage forwards taken on
      behalf of this call (pipeline) or exchange phases driven
      (heartbeat);
    * admission state — an optional :class:`~repro.runtime.admission.Deadline`
      adopted from the submission's admission slot, the ``cancelled``
      latch (deadline expiry or shed), and the lightweight ``spans``
      timeline (split → piece dispatch → merge) that
      ``ParallelApp.trace`` exports.

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
        "retries",
        "cancelled",
        "cancel_cause",
        "_cancel_hooks",
        "spans",
        "_clock",
        "_lock",
        "__weakref__",
    )

    def __init__(
        self,
        name: str = "dispatch",
        expected: int | None = None,
        backend: Any = None,
    ):
        backend = backend if backend is not None else current_backend()
        self.context_id = next_dispatch_id()
        self.name = name
        self.collector = (
            ResultCollector(expected, backend) if expected is not None else None
        )
        self.pieces = 0
        self.items = 0
        self.hops = 0
        #: servant-side executions the middlewares attributed to this call
        self.remote_dispatches = 0
        #: per-call deadline (adopted from the admission slot, if any)
        self.deadline = None
        #: per-call retry policy (adopted from the admission slot)
        self.retry_policy = None
        #: piece re-dispatches performed on behalf of this call
        self.retries = 0
        self.cancelled = False
        self.cancel_cause: BaseException | None = None
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
        register_dispatch(self)

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
        (called by the middlewares after resolving the wire ticket id)."""
        with self._lock:
            self.remote_dispatches += 1

    # -- admission: deadline, cancellation, spans ---------------------------

    def adopt_deadline(self, deadline: Any) -> None:
        """Take on the submission's deadline (set by the admission slot
        at attach time; a no-op for deadline-less submissions)."""
        if deadline is not None:
            self.deadline = deadline

    def adopt_retry(self, policy: Any) -> None:
        """Take on the submission's retry policy (set by the admission
        slot at attach time) and arm the collector with it, so keyed
        failures re-dispatch instead of latching."""
        if policy is None:
            return
        self.retry_policy = policy
        if self.collector is not None:
            self.collector.arm_retry(policy)

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
        Idempotent — the first cancellation wins."""
        with self._lock:
            if self.cancelled:
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
        """An immutable copy of the ticket's timeline and accounting —
        what ``ParallelApp.trace`` returns and what
        :class:`~repro.errors.DeadlineExceeded` carries."""
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


class DispatchContextOwner:
    """Mixin for aspects that open a :class:`DispatchContext` per
    intercepted call.

    Keeps the live-ticket table (observability: ``contexts`` maps
    context id → in-flight ticket) and append-only aggregates
    (``dispatches`` served, ``peak_in_flight`` overlap high-water mark)
    — the only state left on the aspect, none of it coordinating.
    """

    #: completed-ticket trace snapshots retained for ``trace_of``
    TRACE_HISTORY = 64

    def _init_dispatch_state(self) -> None:
        #: live in-flight tickets, context_id -> DispatchContext
        self.contexts: dict[int, DispatchContext] = {}
        #: total split calls served since deployment
        self.dispatches = 0
        #: most tickets ever live at once (overlap high-water mark)
        self.peak_in_flight = 0
        #: bounded ring of completed tickets' trace snapshots, newest
        #: last — ``ParallelApp.trace`` resolves retired ticket ids here
        self.trace_log: deque[dict] = deque(maxlen=self.TRACE_HISTORY)
        #: guards the table and counters above — overlapped submits hit
        #: them from many activities; held only for the mutation itself,
        #: never across a blocking operation (safe on both backends: sim
        #: processes are OS threads)
        self._dispatch_lock = threading.Lock()

    @contextmanager
    def dispatch_scope(
        self,
        name: str,
        expected: int | None = None,
        backend: Any = None,
    ) -> Iterator[DispatchContext]:
        """Open a per-call ticket, make it ambient for the block, and
        retire it afterwards (the ``finally`` runs even when the call
        fails, so the live table never leaks tickets).

        When the submission carries an ambient admission envelope
        (:func:`repro.runtime.admission.current_envelope`), the fresh
        ticket is attached to it: the ticket adopts the submission's
        deadline and a shed/expired slot cancels the ticket — closing
        the race where a call is shed before its ticket even opens.
        """
        ctx = DispatchContext(name, expected=expected, backend=backend)
        envelope = current_envelope()
        if envelope is not None and envelope.ticket_id is None:
            envelope.ticket_id = ctx.context_id
            ctx.adopt_deadline(envelope.deadline)
            ctx.adopt_retry(envelope.retry)
            envelope.attach(ctx)
        with self._dispatch_lock:
            self.contexts[ctx.context_id] = ctx
            self.dispatches += 1
            self.peak_in_flight = max(self.peak_in_flight, len(self.contexts))
        try:
            with use_dispatch(ctx):
                yield ctx
        finally:
            snapshot = ctx.trace_snapshot()
            with self._dispatch_lock:
                self.contexts.pop(ctx.context_id, None)
                self.trace_log.append(snapshot)

    def trace_of(self, context_id: int) -> dict | None:
        """The span timeline of one ticket — live tickets are
        snapshotted on the fly, retired ones come from the bounded
        history (``None`` when the id is unknown or already evicted)."""
        live = self.contexts.get(context_id)
        if live is not None:
            return live.trace_snapshot()
        with self._dispatch_lock:
            for snapshot in reversed(self.trace_log):
                if snapshot["context_id"] == context_id:
                    return snapshot
        return None

    def trace_history(self) -> list[dict]:
        """Recent ticket timelines, oldest first: the retired snapshots
        still in the bounded history followed by every live ticket."""
        with self._dispatch_lock:
            retired = list(self.trace_log)
            live = [ctx.trace_snapshot() for ctx in self.contexts.values()]
        return retired + live

    @property
    def in_flight(self) -> int:
        """Live per-call tickets (calls being served right now)."""
        return len(self.contexts)
