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
  deployments, with tenant registration on top.

* :class:`Deadline` — a per-call time budget measured on the *backend's*
  clock (wall time on threads, virtual time on the simulator), checked
  cooperatively at every dispatch boundary (split, piece dispatch,
  pipeline forward, heartbeat exchange, collector wait).  Expiry raises
  :class:`~repro.errors.DeadlineExceeded` carrying the ticket's trace.

* :class:`AdmissionSlot` — one held unit of capacity, at either level:
  a place in a table, pointing at the call's dispatch ticket
  (:class:`~repro.runtime.ticket.DispatchContext`, built by the
  submitter *before* it asks for capacity).  What the call owns is the
  ticket's: its deadline bounds a parked submitter's wait, a shed
  cancels it (the collector latches, waiters fail fast, the skeletons
  drop the call's remaining work at the next boundary while the workers
  keep serving other calls), and a place whose ticket is already
  cancelled or delivered is dying and never shed.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, deque
from typing import Any, Callable

from repro.errors import AdmissionRejected, CallShed, DeploymentError
from repro.runtime.backend import current_backend

__all__ = [
    "OVERFLOW_POLICIES",
    "Deadline",
    "Tenant",
    "AdmissionSlot",
    "SlotTable",
    "AdmissionController",
]

#: the three overflow policies a StackSpec or a Tenant may declare
OVERFLOW_POLICIES = ("block", "fail", "shed-oldest")

#: stride numerator: pass += _STRIDE_UNIT / weight per shared grant
_STRIDE_UNIT = float(1 << 16)


class Deadline:
    """A per-call time budget against a backend clock.

    ``clock`` is the owning backend's ``now`` (monotonic seconds —
    wall time on threads, virtual time on the simulator).  The deadline
    is *cooperative*: skeletons ask the ticket that carries it
    (``check_deadline``) at dispatch boundaries; blocking waits size
    their timeouts with :meth:`remaining`.
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
    """One unit of capacity held in a :class:`SlotTable` for one call:
    the place, and a pointer at the call's ticket (``None`` for a place
    no call stands behind — a probe).  The table reads the ticket's
    deadline to bound a parked wait and its ``cancelled`` / ``delivered``
    latches to tell a dying place from a live one; it cancels it to shed."""

    __slots__ = ("slot_id", "tenant", "name", "ticket", "_table", "_released")

    def __init__(
        self, slot_id: int, tenant: str, name: str, ticket: Any, table: "SlotTable"
    ):
        self.slot_id = slot_id
        #: the tenant whose quota this slot is drawn from (a
        #: deployment's own table has one: the deployment)
        self.tenant = tenant
        self.name = name
        self.ticket = ticket
        self._table = table
        self._released = False

    def release(self) -> None:
        """Return the slot to its table (idempotent); called before the
        submission's future resolves, however it resolves."""
        self._table._release(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AdmissionSlot #{self.slot_id} {self.tenant}:{self.name}>"


class _Waiter:
    """FIFO record for one submitter parked by its tenant's ``block``
    policy.

    Admission is a direct hand-off: the releasing side fills ``slot``
    and sets the event, so a freed slot goes to exactly one waiter (no
    thundering herd, no lost wakeups through event clear/retry races).
    """

    __slots__ = ("event", "tenant", "name", "ticket", "slot")

    def __init__(self, event: Any, tenant: Tenant, name: str, ticket: Any):
        self.event = event
        self.tenant = tenant
        self.name = name
        self.ticket = ticket
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

    def _admit(self, t: Tenant, ticket: Any, name: str) -> AdmissionSlot:
        """Acquire one slot for ``t`` on behalf of the call ``ticket``
        stands for, applying the tenant's quota and, when it cannot be
        admitted, its overflow policy.  Returns the slot;
        raises :class:`AdmissionRejected` under ``fail`` (or a ``block``
        wait whose deadline drained, or a ``shed-oldest`` tenant with
        nothing of its own to shed, or one that donated the slot)."""
        victim: AdmissionSlot | None = None
        waiter: _Waiter | None = None
        donation: AdmissionRejected | None = None
        handoffs: list[_Waiter] = []
        with self._lock:
            if self._can_admit_locked(t):
                return self._grant_locked(t, name, ticket)
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
                    slot = self._grant_locked(t, name, ticket)
            else:  # block
                counters["blocked"] += 1
                queue = self._waiters[t.name]
                if not queue:
                    # fresh backlog: clamp the pass forward so idle
                    # time banks no stride credit
                    self._pass[t.name] = max(
                        self._pass[t.name], self._min_waiting_pass_locked()
                    )
                waiter = _Waiter(self._make_event(), t, name, ticket)
                queue.append(waiter)
        if victim is not None and victim.ticket is not None:
            victim.ticket.cancel(
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

    def _grant_locked(self, t: Tenant, name: str, ticket: Any) -> AdmissionSlot:
        held = self._held[t.name]
        slot = AdmissionSlot(next(self._ids), t.name, name, ticket, self)
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
            ticket = slot.ticket
            if ticket is None or not (ticket.cancelled or ticket.delivered):
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
        ticket = waiter.ticket
        deadline = ticket.deadline if ticket is not None else None
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
            if slot._released:
                return
            slot._released = True
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
            waiter.slot = self._grant_locked(best, waiter.name, waiter.ticket)
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

    # -- admission ---------------------------------------------------------

    def admit(self, ticket: Any = None, name: str = "call") -> AdmissionSlot:
        """Acquire one slot for the call ``ticket`` stands for, applying
        the overflow policy when full.

        Returns the slot; raises :class:`AdmissionRejected` (``fail``
        policy, or a ``block`` wait whose deadline ran out) — the
        ``shed-oldest`` policy never raises here, it cancels the oldest
        live call instead.
        """
        if self.limit is not None:
            return self._admit(self._tenant, ticket, name)
        # unbounded fast path: nothing to police, so no table — just the
        # counters
        counts = self._counts
        with self._lock:
            self._live += 1
            counts["admitted_total"] += 1
            counts["peak_held"] = max(counts["peak_held"], self._live)
        return AdmissionSlot(next(self._ids), self.name, name, ticket, self)

    def _release(self, slot: AdmissionSlot) -> None:
        if self.limit is not None:
            return super()._release(slot)
        with self._lock:
            if not slot._released:
                slot._released = True
                self._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "∞" if self.limit is None else str(self.limit)
        return (
            f"<AdmissionController {self.name} {self.admitted}/{bound} "
            f"policy={self.policy}>"
        )
