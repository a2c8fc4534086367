"""The cluster-level tenant scheduler: quotas, priorities, fair queueing.

:class:`ClusterScheduler` is the runtime's one
:class:`~repro.runtime.admission.SlotTable` shared by every deployment
that names it in its spec, with many
:class:`~repro.runtime.admission.Tenant` s registered on it (a
deployment's own table is the same class with one).  The quota check,
overflow policies, stride-fair hand-off and deadline-bounded park are
the table's; the scheduler adds registration by name.

A cluster slot is an ordinary
:class:`~repro.runtime.admission.AdmissionSlot` pointing at the same
dispatch ticket as the deployment-level one, so a scheduler-level shed
cancels the call exactly like a deployment-level one, and the ticket
gives both places back together.
"""

from __future__ import annotations

from typing import Any

from repro.errors import DeploymentError
from repro.runtime.admission import AdmissionSlot, SlotTable, Tenant

__all__ = ["Tenant", "ClusterScheduler"]


class ClusterScheduler(SlotTable):
    """A shared, bounded slot table carved into per-tenant quotas.

    ``capacity`` is the cluster-wide in-flight bound.  Backend
    primitives come from ``backend`` when given, else from the ambient
    backend at wait time — so one scheduler serves many apps as long as
    they run on the same kind of backend (the sim scenarios share one
    simulator).
    """

    def __init__(
        self, capacity: int, backend: Any = None, name: str = "cluster"
    ):
        if capacity < 1:
            raise DeploymentError(f"capacity must be >= 1, got {capacity!r}")
        super().__init__(int(capacity), backend=backend, name=name)

    # -- registration --------------------------------------------------------

    def tenant(self, name: str, **kwargs: Any) -> Tenant:
        """Construct-and-register convenience: ``sched.tenant("gold",
        weight=5, reserved=2)``."""
        return self.register(Tenant(name, **kwargs))

    def ensure_tenant(self, name: str) -> Tenant:
        """Look a tenant up, failing with the catalogue (deploy-time
        validation for ``StackSpec.tenant``)."""
        with self._lock:
            tenant = self._tenants.get(name)
            known = sorted(self._tenants)
        if tenant is None:
            raise DeploymentError(
                f"{self.name}: unknown tenant {name!r} "
                f"(registered: {', '.join(known) if known else 'none'})"
            )
        return tenant

    # -- admission -----------------------------------------------------------

    def acquire(
        self, tenant: str, ticket: Any = None, name: str = "call"
    ) -> AdmissionSlot:
        """Acquire one cluster slot for ``tenant``, on behalf of the
        call ``ticket`` stands for, under the tenant's quota and
        overflow policy: the slot, or the table's
        :class:`~repro.errors.AdmissionRejected`."""
        return self._admit(self.ensure_tenant(tenant), ticket, name)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Read-only snapshot: capacity, and per-tenant holds, waits,
        credit and counters."""
        with self._lock:
            tenants = {}
            in_use = 0
            for name, t in self._tenants.items():
                held = len(self._held[name])
                in_use += held
                tenants[name] = dict(
                    self._counters[name],
                    held=held,
                    waiting=len(self._waiters[name]),
                    weight=t.weight,
                    reserved=t.reserved,
                    burst=t.burst,
                    priority=t.priority,
                    overflow=t.overflow,
                )
            return {
                "name": self.name,
                "capacity": self.capacity,
                "in_use": in_use,
                "shared_in_use": self._shared_in_use_locked(),
                "reserved_total": self._reserved_total,
                "tenants": tenants,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            in_use = sum(len(t) for t in self._held.values())
        return (
            f"<ClusterScheduler {self.name} {in_use}/{self.capacity} "
            f"tenants={len(self._tenants)}>"
        )
