"""Concurrency substrate: execution backends (threads / simulation /
processes / asyncio) and futures with wait-by-necessity."""

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
    use_backend,
)
from repro.runtime.dispatch import current_dispatch, use_dispatch
from repro.runtime.futures import Future, FutureGroup
from repro.runtime.procbackend import ProcessBackend, ProcWorker
from repro.runtime.simbackend import SimBackend, SimTask
from repro.runtime.threads import ThreadBackend, ThreadTask

__all__ = [
    "ExecutionBackend",
    "TaskHandle",
    "current_backend",
    "use_backend",
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
    "current_dispatch",
    "use_dispatch",
    "OVERFLOW_POLICIES",
    "AdmissionController",
    "AdmissionSlot",
    "Deadline",
]
