"""Admission control: bounded in-flight calls, deadlines, shedding.

PR 4 gave every split a per-call :class:`DispatchContext` ticket, so one
deployed stack serves overlapped ``submit()``s — but nothing bounded how
many tickets could pile up and no call could time out.  This module is
the backpressure layer on top of :mod:`repro.runtime.dispatch`:

* :class:`AdmissionController` — the bounded per-deployment slot table.
  ``ParallelApp.submit``/``map`` acquire a slot before dispatching and
  release it when the call's future resolves.  When the table is full
  one of three overflow policies applies:

  - ``block`` — the submitter waits (FIFO, direct hand-off) until a
    slot frees; with a deadline, the wait gives up with
    :class:`~repro.errors.AdmissionRejected` when the budget runs out;
  - ``fail``  — the submission raises
    :class:`~repro.errors.AdmissionRejected` immediately;
  - ``shed-oldest`` — the oldest live call is cancelled with
    :class:`~repro.errors.CallShed` and the new call takes its place.

* :class:`Deadline` — a per-call time budget measured on the *backend's*
  clock (wall time on threads, virtual time on the simulator), checked
  cooperatively at every dispatch boundary (split, piece dispatch,
  pipeline forward, heartbeat exchange, collector wait).  Expiry raises
  :class:`~repro.errors.DeadlineExceeded` carrying the ticket's trace.

* :class:`AdmissionSlot` — the envelope linking a submission to the
  dispatch ticket it eventually opens.  The slot is made *ambient*
  (:func:`use_envelope`) for the duration of the submission's activity;
  :meth:`~repro.runtime.ticket.DispatchContextOwner.dispatch_scope`
  reads it (:func:`current_envelope`) and attaches the fresh ticket, so
  cancelling the slot (shed, deadline) cancels the live ticket: the
  collector latches, waiters fail fast, and the skeletons drop the
  call's remaining work at the next boundary while the workers keep
  serving other calls.

The envelope never needs to cross a spawn boundary: the slot is
installed inside the submission's own activity, the skeleton's top-level
advice runs in that same activity, and everything deeper follows the
*ticket* (which the backends already propagate).
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, deque
from typing import Any, Callable

from repro.errors import AdmissionRejected, CallShed, DeadlineExceeded
from repro.runtime.dispatch import Ambient

__all__ = [
    "OVERFLOW_POLICIES",
    "Deadline",
    "AdmissionSlot",
    "AdmissionController",
    "use_envelope",
    "current_envelope",
]

#: the three overflow policies a StackSpec may declare
OVERFLOW_POLICIES = ("block", "fail", "shed-oldest")


class Deadline:
    """A per-call time budget against a backend clock.

    ``clock`` is the owning backend's ``now`` (monotonic seconds —
    wall time on threads, virtual time on the simulator).  The deadline
    is *cooperative*: skeletons call :meth:`check` at dispatch
    boundaries; blocking waits size their timeouts with
    :meth:`remaining`.
    """

    __slots__ = ("budget", "clock", "expires_at")

    def __init__(self, budget: float, clock: Callable[[], float]):
        self.budget = budget
        self.clock = clock
        self.expires_at = clock() + budget

    @property
    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def remaining(self) -> float:
        """Seconds of budget left (clamped at zero)."""
        return max(0.0, self.expires_at - self.clock())

    def check(self, what: str = "", trace: dict | None = None) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired:
            suffix = f" {what}" if what else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget}s exceeded{suffix}", trace=trace
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline {self.remaining():.4f}s of {self.budget}s left>"


class AdmissionSlot:
    """One admitted submission: the link between the app-level admission
    table and the dispatch ticket the call opens.

    ``attach`` is called by ``dispatch_scope`` when the call's
    :class:`DispatchContext` opens: it hands the ticket the slot's
    deadline and records the ticket id (``ticket_id``) so traces can be
    looked up from the future.  ``cancel`` (shed / deadline) marks the
    slot and forwards the cancellation to the live ticket if one is
    attached — a slot cancelled *before* its ticket opens cancels the
    ticket at attach time instead, so the race is closed both ways.
    """

    __slots__ = (
        "slot_id",
        "name",
        "deadline",
        "retry",
        "grant",
        "cancelled",
        "cancel_cause",
        "delivered",
        "ticket_id",
        "_controller",
        "_context",
        "_released",
        "_lock",
    )

    def __init__(
        self,
        slot_id: int,
        name: str,
        deadline: Deadline | None,
        controller: "AdmissionController | None" = None,
        retry: Any = None,
    ):
        self.slot_id = slot_id
        self.name = name
        self.deadline = deadline
        #: per-call retry policy handed to the ticket at attach time
        self.retry = retry
        #: the cluster-level tenant grant riding this slot (a
        #: :class:`repro.tenancy.TenantGrant` when the app routes
        #: through a tenant plane) — released with the slot so the
        #: cluster slot frees exactly when the deployment slot does
        self.grant: Any = None
        self.cancelled = False
        self.cancel_cause: BaseException | None = None
        #: the call's result was handed to its future — a later cancel
        #: (shed racing completion) is a no-op
        self.delivered = False
        #: the dispatch ticket id, filled in when the call's
        #: DispatchContext opens (None until then / for ticket-less calls)
        self.ticket_id: int | None = None
        self._controller = controller
        self._context: Any = None
        self._released = False
        self._lock = threading.Lock()

    # -- ticket linkage ----------------------------------------------------

    def attach(self, context: Any) -> None:
        """Link the freshly opened dispatch ticket to this slot."""
        with self._lock:
            self._context = context
            self.ticket_id = context.context_id
            cancelled, cause = self.cancelled, self.cancel_cause
        context.adopt_deadline(self.deadline)
        context.adopt_retry(self.retry)
        if cancelled and cause is not None:
            context.cancel(cause)

    def cancel(self, exc: BaseException) -> None:
        """Cancel this submission (shed or deadline): latch the cause
        and cancel the live ticket if one is already attached.  A slot
        whose result was already delivered cannot be cancelled."""
        with self._lock:
            if self.cancelled or self.delivered:
                return
            self.cancelled = True
            self.cancel_cause = exc
            context = self._context
        if context is not None:
            context.cancel(exc)

    def finish(self) -> BaseException | None:
        """Atomically close the slot for result delivery: returns the
        cancellation cause when a cancel won the race (the call must
        fail, not deliver), else marks the slot delivered so any later
        cancel is a no-op.  This is the check-and-act the delivering
        activity runs right before resolving its future."""
        with self._lock:
            if self.cancelled:
                return self.cancel_cause
            self.delivered = True
            return None

    def check(self) -> None:
        """Raise the cancellation cause (shed) or a deadline expiry —
        the guard submissions run before entering the woven call."""
        if self.cancelled and self.cancel_cause is not None:
            raise self.cancel_cause
        if self.deadline is not None:
            self.deadline.check(f"before {self.name} was dispatched")

    def release(self) -> None:
        """Return the slot to the controller (idempotent); called when
        the submission's future resolves, however it resolved."""
        with self._lock:
            if self._released:
                return
            self._released = True
            grant = self.grant
        if self._controller is not None:
            self._controller._release(self)
        if grant is not None:
            grant.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"<AdmissionSlot #{self.slot_id} {self.name} {state}>"


class _BlockedSubmitter:
    """FIFO record for one submitter waiting under the ``block`` policy.

    Admission is a direct hand-off: ``_release`` fills ``slot`` and sets
    the event, so a freed slot goes to exactly one waiter (no thundering
    herd, no lost wakeups through event clear/retry races).
    """

    __slots__ = ("event", "name", "deadline", "retry", "slot")

    def __init__(
        self,
        event: Any,
        name: str,
        deadline: Deadline | None,
        retry: Any = None,
    ):
        self.event = event
        self.name = name
        self.deadline = deadline
        self.retry = retry
        self.slot: AdmissionSlot | None = None


class AdmissionController:
    """Bounded per-deployment admission table.

    ``limit`` is the deployment's ``max_in_flight`` (``None`` =
    unbounded: slots are still tracked — for observability and release
    accounting — but admission never blocks, fails, or sheds).
    Primitives come from the app's execution backend so blocked
    submitters park on the right kind of event in both execution modes.
    """

    def __init__(
        self,
        limit: int | None = None,
        policy: str = "block",
        backend: Any = None,
        name: str = "app",
    ):
        if limit is not None and limit < 1:
            raise ValueError("max_in_flight must be >= 1")
        if policy not in OVERFLOW_POLICIES:
            raise ValueError(
                f"unknown overflow policy {policy!r} "
                f"(choose from {', '.join(OVERFLOW_POLICIES)})"
            )
        self.limit = limit
        self.policy = policy
        self.name = name
        self._backend = backend
        self._ids = itertools.count(1)
        #: live slots in admission order (the shed policy's victim
        #: queue) — bounded controllers only; unbounded ones track just
        #: a count (no table churn on the hot path they never police)
        self._slots: "OrderedDict[int, AdmissionSlot]" = OrderedDict()
        self._live = 0
        self._waiters: deque[_BlockedSubmitter] = deque()
        self._lock = threading.Lock()
        # append-only aggregates (observability)
        self.admitted_total = 0
        self.rejected = 0
        self.shed_calls = 0
        self.blocked = 0
        self.peak_admitted = 0

    # -- introspection -----------------------------------------------------

    @property
    def admitted(self) -> int:
        """Slots currently held (admitted, not yet released)."""
        return self._live if self.limit is None else len(self._slots)

    @property
    def waiting(self) -> int:
        """Submitters currently parked by the ``block`` policy."""
        return len(self._waiters)

    def stats(self) -> dict:
        """Read-only snapshot of the table: occupancy, queue depth and
        the append-only counters — the feed for cluster-level placement
        (:meth:`repro.tenancy.ClusterScheduler.observe_admission`) and
        for dashboards, without reaching into private state."""
        with self._lock:
            return {
                "name": self.name,
                "limit": self.limit,
                "policy": self.policy,
                "admitted": self._live if self.limit is None else len(self._slots),
                "waiting": len(self._waiters),
                "admitted_total": self.admitted_total,
                "rejected": self.rejected,
                "shed": self.shed_calls,
                "blocked": self.blocked,
                "peak_admitted": self.peak_admitted,
            }

    # -- admission ---------------------------------------------------------

    def admit(
        self,
        deadline: Deadline | None = None,
        name: str = "call",
        retry: Any = None,
    ) -> AdmissionSlot:
        """Acquire one slot, applying the overflow policy when full.

        Returns the slot; raises :class:`AdmissionRejected` (``fail``
        policy, or a ``block`` wait whose deadline ran out) — the
        ``shed-oldest`` policy never raises here, it cancels the oldest
        live call instead.
        """
        if self.limit is None:
            # unbounded fast path: nothing to police, so no table —
            # just the counters (the slot still carries the deadline /
            # envelope / ticket linkage every submission uses)
            with self._lock:
                self._live += 1
                self.admitted_total += 1
                self.peak_admitted = max(self.peak_admitted, self._live)
            return AdmissionSlot(
                next(self._ids), name, deadline, controller=self, retry=retry
            )
        victim: AdmissionSlot | None = None
        waiter: _BlockedSubmitter | None = None
        with self._lock:
            if len(self._slots) < self.limit:
                return self._admit_locked(name, deadline, retry)
            if self.policy == "fail":
                self.rejected += 1
                raise AdmissionRejected(
                    f"{self.name}: {self.limit} calls already in flight "
                    f"(overflow policy 'fail')"
                )
            if self.policy == "shed-oldest":
                victim = self._pick_victim_locked()
                if victim is not None:
                    self.shed_calls += 1
                slot = self._admit_locked(name, deadline, retry)
            else:  # block
                self.blocked += 1
                waiter = _BlockedSubmitter(
                    self._make_event(), name, deadline, retry
                )
                self._waiters.append(waiter)
        if victim is not None:
            victim.cancel(
                CallShed(
                    f"{self.name}: call {victim.name!r} shed to admit "
                    f"{name!r} (overflow policy 'shed-oldest', "
                    f"max_in_flight={self.limit})"
                )
            )
        if waiter is None:
            return slot
        return self._await_handoff(waiter)

    def _admit_locked(
        self, name: str, deadline: Deadline | None, retry: Any = None
    ) -> AdmissionSlot:
        slot = AdmissionSlot(
            next(self._ids), name, deadline, controller=self, retry=retry
        )
        self._slots[slot.slot_id] = slot
        self.admitted_total += 1
        self.peak_admitted = max(self.peak_admitted, len(self._slots))
        return slot

    def _pick_victim_locked(self) -> AdmissionSlot | None:
        # oldest call still worth shedding — not already cancelled, not
        # already delivered (its result is final; only its release is
        # pending); when every live slot is in teardown, just admit
        for slot in self._slots.values():
            if not slot.cancelled and not slot.delivered:
                # drop it from the table now so repeated sheds do not
                # keep re-cancelling the same dying call (its own
                # release becomes a no-op)
                del self._slots[slot.slot_id]
                return slot
        return None

    def _await_handoff(self, waiter: _BlockedSubmitter) -> AdmissionSlot:
        deadline = waiter.deadline
        while True:
            timeout = deadline.remaining() if deadline is not None else None
            woke = waiter.event.wait(timeout)
            with self._lock:
                if waiter.slot is not None:
                    return waiter.slot
                if not woke:  # timed out without a hand-off
                    try:
                        self._waiters.remove(waiter)
                    except ValueError:  # pragma: no cover - handed off
                        continue  # a hand-off raced the timeout: retry
                    self.rejected += 1
                    raise AdmissionRejected(
                        f"{self.name}: blocked submission {waiter.name!r} "
                        f"ran out of deadline budget "
                        f"({deadline.budget}s) waiting for a slot"
                    )

    def _release(self, slot: AdmissionSlot) -> None:
        if self.limit is None:
            with self._lock:
                self._live -= 1
            return
        handoffs: list[_BlockedSubmitter] = []
        with self._lock:
            self._slots.pop(slot.slot_id, None)
            while self._waiters and len(self._slots) < self.limit:
                waiter = self._waiters.popleft()
                waiter.slot = self._admit_locked(
                    waiter.name, waiter.deadline, waiter.retry
                )
                handoffs.append(waiter)
        for waiter in handoffs:
            waiter.event.set()

    def _make_event(self) -> Any:
        backend = self._backend
        if backend is None:
            from repro.runtime.backend import current_backend

            backend = current_backend()
        return backend.make_event(name=f"{self.name}.admission")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "∞" if self.limit is None else str(self.limit)
        return (
            f"<AdmissionController {self.name} {len(self._slots)}/{bound} "
            f"policy={self.policy}>"
        )


# ---------------------------------------------------------------------------
# The ambient envelope: how a submission's slot reaches dispatch_scope
# ---------------------------------------------------------------------------


class _EnvelopeState(threading.local):
    def __init__(self) -> None:
        self.stack: list[AdmissionSlot] = []


_ENVELOPES = _EnvelopeState()


def use_envelope(slot: AdmissionSlot | None) -> Ambient:
    """Make ``slot`` the ambient admission envelope for this activity.

    ``None`` is a pass-through so call sites can wrap unconditionally.
    """
    return Ambient(_ENVELOPES.stack, slot)


def current_envelope() -> AdmissionSlot | None:
    """The innermost ambient admission slot, or ``None``."""
    stack = _ENVELOPES.stack
    return stack[-1] if stack else None
