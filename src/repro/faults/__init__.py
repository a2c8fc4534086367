"""Deterministic fault injection and retry policies.

The runtime's correctness claims (overlap, admission, deadlines) assume
workers never die and replies never vanish.  This package makes failure
a first-class *test axis*: a seeded :class:`FaultSchedule` of
``kill_worker`` / ``drop_reply`` / ``delay_reply`` / ``raise_in_piece``
events fires at the dispatch boundaries every skeleton already shares —
:func:`~repro.parallel.partition.base.dispatch_piece`, the
:class:`~repro.parallel.concurrency.asynchronous.PooledSpawner` worker
loops, :class:`~repro.middleware.proc.ProcMiddleware`'s round trip and
the asyncio backend's loop tasks — while :class:`RetryPolicy` supplies
the recovery semantics that make those faults survivable (re-dispatch
to a healthy worker instead of latching failure).

See ``docs/ARCHITECTURE.md`` ("Fault injection and recovery") for the
hook point diagram, what each site honours, and the lifecycle.
"""

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultEvent,
    FaultSchedule,
    fire_fault,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultEvent",
    "FaultSchedule",
    "RetryPolicy",
    "fire_fault",
]
