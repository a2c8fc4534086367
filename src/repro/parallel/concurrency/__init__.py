"""Concurrency concern: asynchronous invocation (spawn + futures) and
per-target synchronisation."""

from repro.parallel.concurrency.asynchronous import (
    AsyncInvocationAspect,
    PooledSpawner,
    SpawnPerCall,
)
from repro.parallel.concurrency.synchronisation import SynchronisationAspect
from repro.parallel.composition import ParallelModule
from repro.parallel.concern import Concern

__all__ = [
    "AsyncInvocationAspect",
    "SynchronisationAspect",
    "SpawnPerCall",
    "PooledSpawner",
    "concurrency_module",
]


def concurrency_module(
    async_calls: str,
    guarded_calls: str | None = None,
    name: str = "concurrency",
) -> ParallelModule:
    """The paper's concurrency module (Figure 12): spawn-per-call plus —
    unless ``guarded_calls`` is None — per-object synchronisation."""
    aspects = [AsyncInvocationAspect(async_calls=async_calls)]
    if guarded_calls is not None:
        aspects.append(SynchronisationAspect(guarded_calls=guarded_calls))
    module = ParallelModule(name, Concern.CONCURRENCY, aspects)
    module.async_aspect = aspects[0]  # type: ignore[attr-defined]
    return module
