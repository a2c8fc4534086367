"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, split
into three families mirroring the three layers of the system:

* the AOP engine (:class:`AopError` and friends),
* the discrete-event simulator (:class:`SimulationError` and friends),
* the distribution middleware (:class:`MiddlewareError` and friends).

Keeping the hierarchy in one module lets callers catch a whole layer with
a single ``except`` clause while tests can assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


# ---------------------------------------------------------------------------
# AOP engine errors
# ---------------------------------------------------------------------------


class AopError(ReproError):
    """Base class for errors raised by the aspect-weaving engine."""


class PointcutSyntaxError(AopError):
    """A pointcut expression string failed to parse.

    Carries the offending ``text`` and the character ``position`` where
    parsing stopped, so tooling can point at the error.
    """

    def __init__(self, message: str, text: str = "", position: int = -1):
        super().__init__(message)
        self.text = text
        self.position = position


class WeaveError(AopError):
    """A class could not be woven or unwoven."""


class DeploymentError(AopError):
    """An aspect could not be deployed (e.g. unresolved abstract pointcut)."""


class AdviceError(AopError):
    """Invalid advice declaration or advice execution failure."""


class ProceedError(AopError):
    """``proceed`` was invoked outside an around advice or after the
    joinpoint completed in a non-reentrant context."""


class IntertypeError(AopError):
    """Invalid inter-type declaration (member introduction or
    ``declare parents``)."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulator errors."""


class SimDeadlockError(SimulationError):
    """The event queue drained while processes were still blocked."""


class SimTimeError(SimulationError):
    """An event was scheduled in the past or with a negative delay."""


class ProcessKilled(BaseException):
    """Raised inside a simulated process when the simulation shuts down.

    Deliberately derives from :class:`BaseException` (like
    ``KeyboardInterrupt``) so application-level ``except Exception``
    blocks cannot swallow it; the kernel uses it to unwind worker
    threads deterministically at the end of a run.
    """


# ---------------------------------------------------------------------------
# Cluster / runtime errors
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Invalid cluster topology or node configuration."""


class BackendError(ReproError):
    """Execution backend misuse (e.g. sim backend outside a simulation)."""


class FutureError(ReproError):
    """Invalid future usage (e.g. reading a cancelled future)."""


# ---------------------------------------------------------------------------
# Admission control (bounded in-flight calls, deadlines, shedding)
# ---------------------------------------------------------------------------


class AdmissionError(ReproError):
    """Base class for admission-control errors (bounded ticket table)."""


class AdmissionRejected(AdmissionError):
    """A submission was refused admission.

    Raised by the ``fail`` overflow policy when the per-deployment
    ticket table is full, and by a ``block``-policy admission wait that
    ran out of deadline budget before a slot freed.
    """


class CallShed(AdmissionError):
    """An in-flight call was cancelled by the ``shed-oldest`` overflow
    policy to make room for a newer submission.  Delivered through the
    shed call's future; the newer call proceeds normally.
    """


class DeadlineExceeded(AdmissionError):
    """A per-call deadline expired before the call completed.

    Carries the ticket's ``trace`` (the span timeline recorded on the
    call's :class:`~repro.runtime.ticket.DispatchContext` up to
    the moment of expiry) so the failure is debuggable post mortem.
    """

    def __init__(self, message: str, trace: dict | None = None):
        super().__init__(message)
        self.trace = trace


# ---------------------------------------------------------------------------
# Middleware errors
# ---------------------------------------------------------------------------


class MiddlewareError(ReproError):
    """Base class for distribution middleware errors."""


class RemoteError(MiddlewareError):
    """A remote invocation failed.

    The Python analogue of Java's ``RemoteException``: the distribution
    aspect is responsible for catching these at redirected call sites,
    exactly like the paper's modification #4.
    """

    def __init__(self, message: str, cause: BaseException | None = None):
        super().__init__(message)
        self.cause = cause


class WorkerCrashed(RemoteError):
    """A resident worker process died with calls in flight.

    Raised by the process backend when a worker is found dead while a
    request awaits its reply (or during a send).  Carries the worker's
    name, pid and exit code in the message so post-mortems can tell a
    SIGKILL from a segfault; in-flight splits fail fast through their
    collectors instead of hanging on a reply that will never arrive.
    """


class RegistryError(MiddlewareError):
    """Name-server lookup/bind failure (unknown or duplicate name)."""


# ---------------------------------------------------------------------------
# Fault injection (deterministic failure schedules — repro.faults)
# ---------------------------------------------------------------------------


class InjectedFault(ReproError):
    """Base class for failures raised by the fault-injection layer.

    Schedules (:class:`~repro.faults.FaultSchedule`) deliver
    ``raise_in_piece`` events as this class directly; the more specific
    subclasses mark the two structured misbehaviours.  Retry policies
    treat the whole family as retryable by default.
    """


class WorkerKilled(InjectedFault):
    """An injected fault killed the worker a piece was routed to.

    On the thread backend this is the *simulation* of a worker death
    (the piece fails before running, best-effort flagging); on the
    process backend the resident worker really is SIGKILLed and the
    failure surfaces as :class:`WorkerCrashed` instead.
    """


class ReplyDropped(InjectedFault):
    """An injected fault discarded a completed call's reply.

    The work ran — possibly with side effects — but the caller never
    sees the result, modelling a lost response message.  Re-dispatch
    therefore needs reply deduplication on the collector (keyed
    deposits) to keep exactly-once result delivery.
    """


class SerializationError(MiddlewareError):
    """An object could not be (de)serialised for transport."""


class PlacementError(MiddlewareError):
    """No node satisfies a placement request."""
