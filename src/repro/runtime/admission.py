"""Admission control: one bounded slot table, deadlines, shedding.

PR 4 gave every split a per-call :class:`DispatchContext` ticket, so one
deployed stack serves overlapped ``submit()``s — but nothing bounded how
many tickets could pile up and no call could time out.  This module is
the backpressure layer on top of :mod:`repro.runtime.dispatch`:

* :class:`SlotTable` — the one bounded-admission mechanism: a capacity
  carved into per-:class:`Tenant` quotas, and for a tenant that cannot
  be admitted one of three overflow policies:

  - ``block`` — the submitter waits (FIFO, direct hand-off) until a
    slot frees; with a deadline, the wait gives up with
    :class:`~repro.errors.AdmissionRejected` when the budget runs out;
  - ``fail``  — the submission raises
    :class:`~repro.errors.AdmissionRejected` immediately;
  - ``shed-oldest`` — the tenant's own oldest live call is cancelled
    with :class:`~repro.errors.CallShed` and the new call takes its
    place.

  It is constructed two ways.  :class:`AdmissionController` — the
  per-deployment table ``ParallelApp.submit``/``map`` acquire a slot
  from before dispatching, released when the call's future resolves —
  is the table with exactly one tenant, the deployment itself;
  :class:`repro.tenancy.ClusterScheduler` is the table shared by many
  deployments, with tenant registration and placement feedback on top.

* :class:`Deadline` — a per-call time budget measured on the *backend's*
  clock (wall time on threads, virtual time on the simulator), checked
  cooperatively at every dispatch boundary (split, piece dispatch,
  pipeline forward, heartbeat exchange, collector wait).  Expiry raises
  :class:`~repro.errors.DeadlineExceeded` carrying the ticket's trace.

* :class:`AdmissionSlot` — one held unit of capacity, at either level,
  and the envelope linking a submission to the dispatch ticket it
  eventually opens.  The deployment's slot is made *ambient*
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

from repro.errors import (
    AdmissionRejected,
    CallShed,
    DeadlineExceeded,
    DeploymentError,
)
from repro.runtime.backend import current_backend
from repro.runtime.dispatch import Ambient

__all__ = [
    "OVERFLOW_POLICIES",
    "Deadline",
    "Tenant",
    "AdmissionSlot",
    "SlotTable",
    "AdmissionController",
    "use_envelope",
    "current_envelope",
]

#: the three overflow policies a StackSpec or a Tenant may declare
OVERFLOW_POLICIES = ("block", "fail", "shed-oldest")

#: stride numerator: pass += _STRIDE_UNIT / weight per shared grant
_STRIDE_UNIT = float(1 << 16)


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


class Tenant:
    """One tenant's declared share of a slot table — the quota record.

    * ``reserved`` — slots only this tenant may use.  A tenant below its
      reserve is *always* admissible, so reserved capacity is the
      starvation-freedom guarantee: no amount of higher-priority or
      heavier-weight traffic can take it away.
    * ``burst`` — how far above the reserve the tenant may stretch into
      the shared pool (``None`` = up to whatever the pool has free).
    * ``priority`` — strict ordering for *shared-pool* hand-offs: a
      freed shared slot goes to the highest-priority backlogged tenant.
    * ``weight`` — fair share *within* a priority class, enforced by
      stride scheduling: each shared grant advances the tenant's pass by
      ``stride ∝ 1/weight``, and the backlogged tenant with the smallest
      pass wins the next hand-off.  Over any busy interval the grant
      counts of equal-priority backlogged tenants converge to the
      weight ratio.
    * ``overflow`` — what happens when the tenant cannot be admitted
      (one of :data:`OVERFLOW_POLICIES`).
    """

    __slots__ = ("name", "weight", "reserved", "burst", "priority", "overflow")

    def __init__(
        self,
        name: str,
        weight: float = 1.0,
        reserved: int = 0,
        burst: int | None = None,
        priority: int = 0,
        overflow: str = "block",
    ):
        if not name:
            raise DeploymentError("tenant name must be non-empty")
        if not weight > 0:
            raise DeploymentError(
                f"tenant {name!r}: weight must be > 0, got {weight!r}"
            )
        if reserved < 0:
            raise DeploymentError(
                f"tenant {name!r}: reserved must be >= 0, got {reserved!r}"
            )
        if burst is not None and burst < 0:
            raise DeploymentError(
                f"tenant {name!r}: burst must be >= 0 or None, got {burst!r}"
            )
        if burst is not None and reserved + burst < 1:
            raise DeploymentError(
                f"tenant {name!r}: reserved={reserved!r} + burst={burst!r} "
                f"caps it at 0 slots — it could never be admitted"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise DeploymentError(
                f"tenant {name!r}: unknown overflow policy {overflow!r} "
                f"(choose from {', '.join(OVERFLOW_POLICIES)})"
            )
        self.name = name
        self.weight = float(weight)
        self.reserved = int(reserved)
        self.burst = None if burst is None else int(burst)
        self.priority = int(priority)
        self.overflow = overflow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "∞" if self.burst is None else str(self.reserved + self.burst)
        return (
            f"<Tenant {self.name} w={self.weight} reserved={self.reserved} "
            f"cap={cap} prio={self.priority} overflow={self.overflow}>"
        )


class AdmissionSlot:
    """One unit of capacity held in a :class:`SlotTable` by one
    submission, and the link to what its cancellation must reach.

    ``attach`` links the downstream: ``dispatch_scope`` attaches the
    call's :class:`DispatchContext` to the deployment's slot when the
    ticket opens (handing it the slot's deadline and retry policy, and
    recording ``ticket_id`` so traces can be looked up from the
    future); the deployment's slot is attached to the cluster-level
    slot riding it (``grant``).  ``cancel`` (shed / deadline) marks the
    slot and forwards the cancellation downstream if something is
    attached already — a slot cancelled *before* that forwards it at
    attach time instead, so the race is closed both ways.
    """

    __slots__ = (
        "slot_id",
        "tenant",
        "name",
        "deadline",
        "retry",
        "grant",
        "cancelled",
        "cancel_cause",
        "delivered",
        "ticket_id",
        "_table",
        "_downstream",
        "_released",
        "_lock",
    )

    def __init__(
        self,
        slot_id: int,
        tenant: str,
        name: str,
        deadline: Deadline | None,
        table: "SlotTable",
    ):
        self.slot_id = slot_id
        #: the tenant whose quota this slot is drawn from (a
        #: deployment's own table has one: the deployment)
        self.tenant = tenant
        self.name = name
        self.deadline = deadline
        #: per-call retry policy handed to the ticket at attach time
        #: (the deployment's; admission itself never reads it)
        self.retry: Any = None
        #: the cluster-level slot riding this one (when the app routes
        #: through a tenant plane) — released with this slot so the
        #: cluster capacity frees exactly when the deployment's does
        self.grant: AdmissionSlot | None = None
        self.cancelled = False
        self.cancel_cause: BaseException | None = None
        #: the call's result was handed to its future — a later cancel
        #: (shed racing completion) is a no-op
        self.delivered = False
        #: the dispatch ticket id, filled in when the call's
        #: DispatchContext opens (None until then / for ticket-less calls)
        self.ticket_id: int | None = None
        self._table = table
        #: what a cancel must reach: the dispatch ticket for a
        #: deployment's slot, the deployment's slot for a cluster slot
        self._downstream: Any = None
        self._released = False
        self._lock = threading.Lock()

    def attach(self, downstream: Any) -> None:
        """Link what this slot's cancellation must reach: the freshly
        opened dispatch ticket for a deployment's slot, the deployment's
        slot for a cluster slot."""
        with self._lock:
            self._downstream = downstream
            cause = self.cancel_cause
        if cause is not None:
            downstream.cancel(cause)

    def cancel(self, exc: BaseException) -> None:
        """Cancel this submission (shed or deadline): latch the cause
        and cancel what is linked downstream, if anything is yet.  A
        slot whose result was already delivered cannot be cancelled."""
        with self._lock:
            if self.cancelled or self.delivered:
                return
            self.cancelled = True
            self.cancel_cause = exc
            downstream = self._downstream
        if downstream is not None:
            downstream.cancel(exc)

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
        """Return the slot to its table (idempotent), and the cluster
        slot riding it to the cluster's; called when the submission's
        future resolves, however it resolved."""
        with self._lock:
            if self._released:
                return
            self._released = True
        self._table._release(self)
        if self.grant is not None:
            self.grant.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"<AdmissionSlot #{self.slot_id} {self.tenant}:{self.name} {state}>"


class _Waiter:
    """FIFO record for one submitter parked by its tenant's ``block``
    policy.

    Admission is a direct hand-off: the releasing side fills ``slot``
    and sets the event, so a freed slot goes to exactly one waiter (no
    thundering herd, no lost wakeups through event clear/retry races).
    """

    __slots__ = ("event", "tenant", "name", "deadline", "slot")

    def __init__(
        self, event: Any, tenant: Tenant, name: str, deadline: Deadline | None
    ):
        self.event = event
        self.tenant = tenant
        self.name = name
        self.deadline = deadline
        self.slot: AdmissionSlot | None = None


class SlotTable:
    """A bounded slot table carved into per-tenant quotas.

    ``capacity`` is the table-wide in-flight bound; every registered
    tenant's ``reserved`` slots are carved out of it and the remainder
    forms the shared pool burst traffic competes for.  Blocked
    submitters park on events of ``backend`` when given, else of the
    ambient backend at wait time.
    """

    def __init__(self, capacity: float, backend: Any = None, name: str = "table"):
        self.capacity = capacity
        self.name = name
        self._backend = backend
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}
        #: live slots per tenant in admission order (the shed queue)
        self._held: dict[str, OrderedDict[int, AdmissionSlot]] = {}
        self._waiters: dict[str, deque[_Waiter]] = {}
        #: stride-scheduling pass per tenant (shared-pool fairness meter)
        self._pass: dict[str, float] = {}
        #: append-only aggregates per tenant (observability)
        self._counters: dict[str, dict[str, int]] = {}
        self._reserved_total = 0

    # -- registration --------------------------------------------------------

    def register(self, tenant: Tenant) -> Tenant:
        """Register one tenant; reserves must fit inside ``capacity``
        and leave every zero-reserve tenant a shared pool to draw on."""
        with self._lock:
            if tenant.name in self._tenants:
                raise DeploymentError(
                    f"{self.name}: tenant {tenant.name!r} already registered"
                )
            reserved = self._reserved_total + tenant.reserved
            if reserved > self.capacity:
                raise DeploymentError(
                    f"{self.name}: reserving {tenant.reserved} slots for "
                    f"{tenant.name!r} exceeds capacity "
                    f"({self._reserved_total} of {self.capacity} already "
                    f"reserved)"
                )
            poolless = [
                t.name
                for t in (*self._tenants.values(), tenant)
                if t.reserved == 0
            ]
            if reserved == self.capacity and poolless:
                raise DeploymentError(
                    f"{self.name}: registering {tenant.name!r} "
                    f"(reserved={tenant.reserved}) reserves all "
                    f"{self.capacity} slots, leaving no shared pool — "
                    f"{', '.join(map(repr, poolless))} (reserved=0) could "
                    f"never be admitted"
                )
            self._tenants[tenant.name] = tenant
            self._reserved_total = reserved
            self._held[tenant.name] = OrderedDict()
            self._waiters[tenant.name] = deque()
            self._pass[tenant.name] = self._min_waiting_pass_locked()
            self._counters[tenant.name] = {
                "admitted_total": 0,
                "rejected": 0,
                "shed": 0,
                "blocked": 0,
                "peak_held": 0,
            }
        return tenant

    # -- admission -----------------------------------------------------------

    def _admit(self, t: Tenant, deadline: Deadline | None, name: str) -> AdmissionSlot:
        """Acquire one slot for ``t``, applying its quota and, when it
        cannot be admitted, its overflow policy.  Returns the slot;
        raises :class:`AdmissionRejected` under ``fail`` (or a ``block``
        wait whose deadline drained, or a ``shed-oldest`` tenant with
        nothing of its own to shed, or one that donated the slot)."""
        victim: AdmissionSlot | None = None
        waiter: _Waiter | None = None
        donation: AdmissionRejected | None = None
        handoffs: list[_Waiter] = []
        with self._lock:
            if self._can_admit_locked(t):
                return self._grant_locked(t, name, deadline)
            who = self._who(t)
            held = self._held[t.name]
            counters = self._counters[t.name]
            if t.overflow == "fail":
                counters["rejected"] += 1
                raise AdmissionRejected(
                    f"{who}: at quota with {len(held)} calls already in "
                    f"flight and no shared slot free (overflow policy "
                    f"'fail')"
                )
            if t.overflow == "shed-oldest":
                # ONE rule for both levels.  A tenant that holds only
                # dying slots (cancelled by a deadline, or delivered:
                # each is about to release) is admitted over its quota
                # for that instant — all a deployment's own table ever
                # sees, since its one tenant holds every slot of a full
                # table.  A tenant that holds NONE has nothing of its
                # own to shed, and isolation forbids shedding a
                # neighbour, so it is rejected — a cluster tenant
                # squeezed out of the shared pool.
                if not held:
                    counters["rejected"] += 1
                    raise AdmissionRejected(
                        f"{who}: holds no sheddable call and the shared "
                        f"pool is full (overflow policy 'shed-oldest' "
                        f"never touches other tenants)"
                    )
                victim = self._pick_victim_locked(held)
                if victim is not None:
                    counters["shed"] += 1
                    u = self._next_locked()  # never t: shedders do not park
                    if u is not None and (
                        len(self._held[u.name]) < u.reserved
                        or u.priority > t.priority
                    ):
                        # a below-reserve or strictly-higher-priority
                        # tenant is parked: recycling the slot in place
                        # would let a shed-mode tenant hold its quota
                        # forever (it never *releases*, it swaps) —
                        # instead the freed slot re-enters the fair
                        # queue and the new call is rejected, so
                        # priority and reserves stay meaningful against
                        # shed-mode neighbours
                        handoffs = self._handoff_locked()
                        counters["rejected"] += 1
                        donation = AdmissionRejected(
                            f"{who}: shed its oldest call but donated "
                            f"the slot to a waiting higher-priority (or "
                            f"under-reserve) tenant; {name!r} rejected"
                        )
                if donation is None:
                    slot = self._grant_locked(t, name, deadline)
            else:  # block
                counters["blocked"] += 1
                queue = self._waiters[t.name]
                if not queue:
                    # fresh backlog: clamp the pass forward so idle
                    # time banks no stride credit
                    self._pass[t.name] = max(
                        self._pass[t.name], self._min_waiting_pass_locked()
                    )
                waiter = _Waiter(self._make_event(), t, name, deadline)
                queue.append(waiter)
        if victim is not None:
            victim.cancel(
                CallShed(
                    f"{who}: call {victim.name!r} shed to admit {name!r} "
                    f"(overflow policy 'shed-oldest', quota reached)"
                )
            )
        for woken in handoffs:
            woken.event.set()
        if donation is not None:
            raise donation
        if waiter is None:
            return slot
        return self._await_handoff(waiter)

    def _who(self, t: Tenant) -> str:
        # a one-tenant table named after its tenant reads as itself
        if t.name == self.name:
            return self.name
        return f"{self.name}: tenant {t.name!r}"

    def _can_admit_locked(self, t: Tenant) -> bool:
        held = len(self._held[t.name])
        if t.burst is not None and held >= t.reserved + t.burst:
            return False
        if held < t.reserved:
            return True
        return self._shared_in_use_locked() < self.capacity - self._reserved_total

    def _shared_in_use_locked(self) -> int:
        return sum(
            max(0, len(self._held[name]) - tenant.reserved)
            for name, tenant in self._tenants.items()
        )

    def _grant_locked(
        self, t: Tenant, name: str, deadline: Deadline | None
    ) -> AdmissionSlot:
        held = self._held[t.name]
        slot = AdmissionSlot(next(self._ids), t.name, name, deadline, self)
        held[slot.slot_id] = slot
        counters = self._counters[t.name]
        counters["admitted_total"] += 1
        counters["peak_held"] = max(counters["peak_held"], len(held))
        if len(held) > t.reserved:
            # a shared-pool draw spends fairness credit; reserved draws
            # are entitlements and never touch the meter
            self._pass[t.name] += _STRIDE_UNIT / t.weight
        return slot

    def _pick_victim_locked(self, held: OrderedDict) -> AdmissionSlot | None:
        # the tenant's OWN oldest call still worth shedding — not
        # already cancelled, not already delivered (its result is
        # final; only its release is pending)
        for slot in held.values():
            if not slot.cancelled and not slot.delivered:
                # drop it from the table now so repeated sheds walk
                # forward instead of re-cancelling the same dying call
                # (its own release becomes a no-op for capacity)
                del held[slot.slot_id]
                return slot
        return None

    def _min_waiting_pass_locked(self) -> float:
        waiting = [
            self._pass[name] for name, q in self._waiters.items() if q
        ]
        return min(waiting, default=0.0)

    def _await_handoff(self, waiter: _Waiter) -> AdmissionSlot:
        deadline = waiter.deadline
        while True:
            timeout = deadline.remaining() if deadline is not None else None
            woke = waiter.event.wait(timeout)
            with self._lock:
                if waiter.slot is not None:
                    return waiter.slot
                if not woke:
                    # timed out, and still queued: a hand-off racing the
                    # timeout dequeues and fills ``slot`` in one locked step
                    self._waiters[waiter.tenant.name].remove(waiter)
                    self._counters[waiter.tenant.name]["rejected"] += 1
                    raise AdmissionRejected(
                        f"{self._who(waiter.tenant)}: blocked submission "
                        f"{waiter.name!r} ran out of deadline budget "
                        f"({deadline.budget}s) waiting for a slot"
                    )

    # -- release + hand-off --------------------------------------------------

    def _release(self, slot: AdmissionSlot) -> None:
        with self._lock:
            if self._held[slot.tenant].pop(slot.slot_id, None) is None:
                return  # already shed out of the table: capacity moved on
            handoffs = self._handoff_locked()
        for waiter in handoffs:
            waiter.event.set()

    def _next_locked(self) -> Tenant | None:
        """The parked tenant next in line for freed capacity: tenants
        below their reserve first (the guarantee), then strict priority
        over the shared pool, then smallest stride pass within the
        class."""
        best: Tenant | None = None
        best_rank: tuple | None = None
        for name, queue in self._waiters.items():
            if not queue:
                continue
            t = self._tenants[name]
            if not self._can_admit_locked(t):
                continue
            rank = (
                0 if len(self._held[name]) < t.reserved else 1,
                -t.priority,
                self._pass[name],
                name,
            )
            if best is None or rank < best_rank:
                best, best_rank = t, rank
        return best

    def _handoff_locked(self) -> list[_Waiter]:
        """Hand freed capacity to parked submitters, in rank order;
        returns the waiters to wake once the lock is dropped."""
        handoffs = []
        while (best := self._next_locked()) is not None:
            waiter = self._waiters[best.name].popleft()
            waiter.slot = self._grant_locked(best, waiter.name, waiter.deadline)
            handoffs.append(waiter)
        return handoffs

    def _make_event(self) -> Any:
        backend = self._backend if self._backend is not None else current_backend()
        return backend.make_event(name=f"{self.name}.admission")


def _counter(key: str, doc: str) -> property:
    return property(lambda self: self._counts[key], doc=doc)


class AdmissionController(SlotTable):
    """The per-deployment admission table: a :class:`SlotTable` with
    exactly one tenant — the deployment itself, whole capacity, no
    reserve, ``overflow=policy``.

    ``limit`` is the deployment's ``max_in_flight`` (``None`` =
    unbounded: held slots are still counted — for observability and
    release accounting — but admission never blocks, fails, or sheds).
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
        super().__init__(
            float("inf") if limit is None else limit, backend=backend, name=name
        )
        self.limit = limit
        self.policy = policy
        self._tenant = self.register(Tenant(name, overflow=policy))
        self._counts = self._counters[name]
        #: held slots of an unbounded controller: just a count (no
        #: table churn on the hot path it never polices)
        self._live = 0

    # -- introspection -----------------------------------------------------

    admitted_total = _counter("admitted_total", "Slots ever admitted.")
    rejected = _counter("rejected", "Submissions refused admission.")
    shed_calls = _counter("shed", "Calls cancelled by ``shed-oldest``.")
    blocked = _counter("blocked", "Submissions that had to park.")
    peak_admitted = _counter("peak_held", "Most slots ever held at once.")

    @property
    def admitted(self) -> int:
        """Slots currently held (admitted, not yet released)."""
        return self._live if self.limit is None else len(self._held[self.name])

    @property
    def waiting(self) -> int:
        """Submitters currently parked by the ``block`` policy."""
        return len(self._waiters[self.name])

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
                "admitted": self.admitted,
                "waiting": self.waiting,
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
        if self.limit is not None:
            slot = self._admit(self._tenant, deadline, name)
        else:
            # unbounded fast path: nothing to police, so no table —
            # just the counters (the slot still carries the deadline /
            # envelope / ticket linkage every submission uses)
            counts = self._counts
            with self._lock:
                self._live += 1
                counts["admitted_total"] += 1
                counts["peak_held"] = max(counts["peak_held"], self._live)
            slot = AdmissionSlot(next(self._ids), self.name, name, deadline, self)
        slot.retry = retry
        return slot

    def _release(self, slot: AdmissionSlot) -> None:
        if self.limit is not None:
            return super()._release(slot)
        with self._lock:
            self._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "∞" if self.limit is None else str(self.limit)
        return (
            f"<AdmissionController {self.name} {self.admitted}/{bound} "
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
