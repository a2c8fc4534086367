"""Futures with wait-by-necessity.

The related-work section recalls ABCL's model: an asynchronous call with
a return value hands the client a *future*; touching the future before
the value is computed blocks the client transparently.  Our
:class:`Future` implements exactly that on top of whichever execution
backend is current, and :class:`FutureGroup` is the join-all helper the
partition aspects use to gather split-call results.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import FutureError
from repro.runtime.backend import current_backend

__all__ = ["Future", "FutureGroup"]

_PENDING = object()


class Future:
    """Single-assignment result holder with blocking read."""

    def __init__(self, name: str = "future", backend: Any = None):
        self.name = name
        self._backend = backend if backend is not None else current_backend()
        self._event = self._backend.make_event(name=f"{name}.ready")
        self._value: Any = _PENDING
        self._exception: BaseException | None = None

    # -- producer side -----------------------------------------------------

    def set_result(self, value: Any) -> None:
        if self.resolved:
            raise FutureError(f"future {self.name} already resolved")
        self._value = value
        self._event.set()

    def set_exception(self, exc: BaseException) -> None:
        if self.resolved:
            raise FutureError(f"future {self.name} already resolved")
        self._exception = exc
        self._event.set()

    @classmethod
    def completed(cls, value: Any, name: str = "future") -> "Future":
        future = cls(name=name)
        future.set_result(value)
        return future

    def run(self, fn: Callable[[], Any]) -> "Future":
        """Resolve this future from ``fn`` executed inline (producer
        helper for spawn-style aspects)."""
        try:
            self.set_result(fn())
        except BaseException as exc:  # noqa: BLE001 - stored for consumer
            self.set_exception(exc)
            raise
        return self

    # -- consumer side -----------------------------------------------------

    @property
    def resolved(self) -> bool:
        return self._value is not _PENDING or self._exception is not None

    def result(self, timeout: float | None = None) -> Any:
        """Wait-by-necessity read: blocks until resolved."""
        if not self.resolved:
            if not self._event.wait(timeout):
                raise FutureError(f"future {self.name} timed out")
        if self._exception is not None:
            raise self._exception
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resolved" if self.resolved else "pending"
        return f"<Future {self.name} {state}>"


class FutureGroup:
    """A set of futures joined together (split-call gather)."""

    def __init__(self) -> None:
        self._futures: list[Future] = []

    def add(self, future: Future) -> Future:
        self._futures.append(future)
        return future

    def new(self, name: str = "member") -> Future:
        return self.add(Future(name=name))

    def __len__(self) -> int:
        return len(self._futures)

    def __iter__(self) -> Iterator[Future]:
        return iter(self._futures)

    def results(self) -> list[Any]:
        """Block until every member resolves; results in add order."""
        return [future.result() for future in self._futures]

    @classmethod
    def of(cls, futures: Iterable[Future]) -> "FutureGroup":
        group = cls()
        for future in futures:
            group.add(future)
        return group
