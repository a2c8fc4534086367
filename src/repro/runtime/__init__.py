"""Concurrency substrate: execution backends (threads / simulation),
futures with wait-by-necessity, and active objects."""

from repro.runtime.active import ActiveObject
from repro.runtime.asyncbackend import AsyncioBackend, AsyncioEvent
from repro.runtime.admission import (
    OVERFLOW_POLICIES,
    AdmissionController,
    AdmissionSlot,
    Deadline,
)
from repro.runtime.backend import (
    ExecutionBackend,
    TaskHandle,
    current_backend,
    set_default_backend,
    use_backend,
)
from repro.runtime.dispatch import (
    current_dispatch,
    dispatch_id,
    find_dispatch,
    use_dispatch,
)
from repro.runtime.futures import Future, FutureGroup
from repro.runtime.procbackend import ProcessBackend, ProcWorker
from repro.runtime.simbackend import SimBackend, SimTask
from repro.runtime.threads import ThreadBackend, ThreadTask

__all__ = [
    "ExecutionBackend",
    "TaskHandle",
    "current_backend",
    "use_backend",
    "set_default_backend",
    "ThreadBackend",
    "ThreadTask",
    "SimBackend",
    "SimTask",
    "ProcessBackend",
    "ProcWorker",
    "AsyncioBackend",
    "AsyncioEvent",
    "Future",
    "FutureGroup",
    "ActiveObject",
    "current_dispatch",
    "use_dispatch",
    "dispatch_id",
    "find_dispatch",
    "OVERFLOW_POLICIES",
    "AdmissionController",
    "AdmissionSlot",
    "Deadline",
]
