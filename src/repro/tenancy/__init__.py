"""Multi-tenant cluster scheduling above per-deployment admission.

:class:`~repro.runtime.admission.AdmissionController` bounds one
deployment: a :class:`~repro.runtime.admission.SlotTable` with one
tenant.  This package is the same table shared by *many* deployments,
carved into per-tenant quotas (reserved + burst), with integer
priorities, a weighted-fair queue for blocked submitters (stride
scheduling — starvation-free by construction) and a block/fail/shed-oldest
overflow policy per tenant.  Where a servant lives is the distribution
aspect's decision, not this package's.

Wiring: ``StackSpec(tenant="gold", scheduler=sched)`` routes every
``submit``/``map`` unit of that app through the tenant plane — a cluster
slot is acquired before the deployment's own admission slot, rides it,
and is released with it.
"""

from repro.tenancy.scheduler import ClusterScheduler, Tenant

__all__ = ["ClusterScheduler", "Tenant"]
