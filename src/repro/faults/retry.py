"""Per-call retry policies for failed piece dispatches.

A :class:`RetryPolicy` travels on a call's ticket (``StackSpec.retry``
→ the :class:`~repro.runtime.ticket.DispatchContext` ``submit`` builds)
and tells the per-call :class:`~repro.runtime.ticket.ResultCollector`
and the skeletons' dispatch loops how to respond when a piece fails:
how many attempts a piece gets, how long to back off between them, and
which exception classes are worth retrying at all.

The default ``retry_on`` is deliberately narrow —
:class:`~repro.errors.InjectedFault` and
:class:`~repro.errors.WorkerCrashed` — i.e. infrastructure failures.
A genuine application error raised by servant code (wrapped in a plain
:class:`~repro.errors.RemoteError` by the distribution aspect) is
deterministic: re-running the piece would fail again, so it latches
immediately.  :class:`~repro.errors.AdmissionError` (shed calls, blown
deadlines) is *never* retryable regardless of configuration — those are
verdicts about the call, not the worker.
"""

from __future__ import annotations

from repro.errors import AdmissionError, AdviceError, InjectedFault, WorkerCrashed
from repro.runtime.backend import current_backend

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """How many times a failed piece is re-dispatched, and for what.

    ``max_attempts`` counts *total* attempts (first dispatch included),
    so ``max_attempts=1`` means fail-fast.  ``backoff`` is a linear
    pause in seconds — attempt ``n`` sleeps ``backoff * n`` before the
    re-dispatch.  ``retry_on`` is a tuple of exception classes worth
    retrying; anything else (and any :class:`AdmissionError`) latches
    the original failure immediately.
    """

    __slots__ = ("max_attempts", "backoff", "retry_on")

    def __init__(
        self,
        max_attempts: int = 3,
        backoff: float = 0.0,
        retry_on: tuple[type[BaseException], ...] | None = None,
    ):
        if max_attempts < 1:
            raise AdviceError("max_attempts must be >= 1")
        if backoff < 0:
            raise AdviceError("backoff must be >= 0")
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.retry_on = (
            (InjectedFault, WorkerCrashed) if retry_on is None else tuple(retry_on)
        )
        for cls in self.retry_on:
            if not (isinstance(cls, type) and issubclass(cls, BaseException)):
                raise AdviceError("retry_on entries must be exception classes")

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is worth another attempt.  Admission verdicts
        (shed, deadline, rejected) are never retryable."""
        if isinstance(exc, AdmissionError):
            return False
        return isinstance(exc, self.retry_on)

    def pause(self, attempt: int) -> None:
        """Linear backoff before re-dispatching attempt ``attempt + 1``,
        on the current backend's clock."""
        if self.backoff > 0:
            current_backend().sleep(self.backoff * attempt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(cls.__name__ for cls in self.retry_on)
        return (
            f"<RetryPolicy max_attempts={self.max_attempts} "
            f"backoff={self.backoff} retry_on=({kinds})>"
        )
