"""Synchronisation (paper Section 4.2, Figure 12 bottom).

"each PrimeFilter object must be protected against concurrent
invocations to avoid data races, since its implementation is not thread
safe" — an around advice serialising calls per *target object*, the
aspect rendition of ``synchronized (target) { proceed; }``.

Declared after the spawn advice in the concurrency module, so it runs
*inside* the spawned activity: many activities may exist per object, but
only one executes the object's method at a time.
"""

from __future__ import annotations

from typing import Any

from repro.aop import abstract_pointcut, around, pointcut
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.runtime.backend import current_backend

__all__ = ["SynchronisationAspect"]


class SynchronisationAspect(ParallelAspect):
    """Per-target mutual exclusion."""

    concern = Concern.CONCURRENCY
    # one step below the spawn advice so it nests inside the new activity
    precedence = LAYER["concurrency"] - 1

    guarded_calls = abstract_pointcut("calls to serialise per target")

    def __init__(self, guarded_calls: str | None = None):
        if guarded_calls is not None:
            self.guarded_calls = pointcut(guarded_calls)
        # id(target) -> (target, lock); the strong reference keeps ids stable
        self._locks: dict[int, tuple[Any, Any]] = {}

    def _lock_for(self, target: Any) -> Any:
        key = id(target)
        entry = self._locks.get(key)
        if entry is None:
            # setdefault, not get-then-store: of two activities reaching
            # a fresh target together exactly one lock survives, and
            # both get that one (the loser's is dropped unused)
            entry = self._locks.setdefault(
                key, (target, current_backend().make_lock(name=f"sync.{key}"))
            )
        return entry[1]

    @around("guarded_calls")
    def serialise(self, jp):
        with self._lock_for(jp.target):
            return jp.proceed()

    def on_undeploy(self) -> None:
        self._locks.clear()
