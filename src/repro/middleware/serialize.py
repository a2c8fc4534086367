"""Serialisation with byte-size accounting and the process wire format.

Every remote call pays twice: CPU time to (de)serialise and wire time
proportional to payload size.  This module measures payload sizes and —
in *copy* mode — actually round-trips payloads through pickle so remote
objects observe value semantics (like Java RMI), not shared references.

Beyond the simulated middlewares' accounting, this module is also the
**real wire format** of the out-of-process backend
(:mod:`repro.runtime.procbackend`): :class:`RequestEnvelope` /
:class:`ReplyEnvelope` are the frames that actually cross the process
boundary, carrying the originating dispatch-ticket id (``context_id``)
so per-call collector routing, deadlines and admission accounting keep
working across it.  :func:`encode_envelope` names the offending *field*
when a payload refuses to pickle — a submit with an unpicklable argument
fails with a targeted :class:`~repro.errors.SerializationError` at the
send site, never a hang on a reply that cannot exist.

Two pitfalls handled here:

* unpickling instances of *woven* classes must not re-trigger
  initialization advice — ``loads`` runs under the construction bypass;
* numpy arrays get a fast path (``nbytes`` + header, ``copy()``) so the
  benchmarks don't spend wall-clock time in pickle — when the caller has
  already imported numpy.  This module never imports it: the core is
  stdlib-only, and a payload can only be an ndarray once numpy is loaded.
"""

from __future__ import annotations

import copy
import pickle
import sys
import traceback
from operator import attrgetter
from typing import Any

from repro.aop.cflow import bypassing_construction, flow_state
from repro.errors import SerializationError

__all__ = [
    "Serializer",
    "measure_size",
    "dumps",
    "loads",
    "RequestEnvelope",
    "ReplyEnvelope",
    "ExportEnvelope",
    "LinkEnvelope",
    "encode_envelope",
    "decode_envelope",
    "exception_payload",
]

_HEADER_BYTES = 64  # envelope / framing overhead per message
_PROTOCOL = pickle.HIGHEST_PROTOCOL


def measure_size(payload: Any) -> int:
    """Approximate on-the-wire size of ``payload`` in bytes."""
    return _HEADER_BYTES + _body_size(payload)


def _body_size(payload: Any) -> int:
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8", errors="replace"))
    if isinstance(payload, (int, float, bool)):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(_body_size(item) for item in payload) + 8 * len(payload)
    if isinstance(payload, dict):
        return sum(
            _body_size(k) + _body_size(v) for k, v in payload.items()
        ) + 16 * len(payload)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(f"cannot size {type(payload).__name__}") from exc


def dumps(payload: Any) -> bytes:
    """Pickle ``payload`` for real transport (process boundary)."""
    try:
        return pickle.dumps(payload, protocol=_PROTOCOL)
    except SerializationError:
        raise
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(
            f"cannot pickle {type(payload).__name__} for transport: {exc}"
        ) from exc


def loads(data: bytes) -> Any:
    """Unpickle a transported payload.

    Runs under the construction bypass: instances of woven classes
    materialise without re-running initialization advice (the servant
    copy must not re-trigger duplication or create-remote logic).
    """
    flow = flow_state()
    flow.construction_bypass += 1  # inline: once per frame received
    try:
        return pickle.loads(data)
    except SerializationError:
        raise
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(
            f"cannot unpickle wire payload: {exc}"
        ) from exc
    finally:
        flow.construction_bypass -= 1


class RequestEnvelope:
    """One invocation crossing the process boundary.

    For batched requests ``args`` holds the pack's piece views
    (``(args, kwargs)`` pairs) and ``kwargs`` is unused — the whole pack
    is ONE envelope, so it pays one marshalling pass and one wire frame
    (the process-backend face of communication packing).

    ``budget`` asks for a *run*: the worker goes on through the stages
    linked behind this one (:class:`LinkEnvelope`) until that many
    seconds have passed — what the ticket's deadline had left, ``inf``
    without one.  ``None`` is a bare call: this stage, nothing more.
    """

    kind = "request"

    __slots__ = (
        "call_id",
        "object_id",
        "method",
        "args",
        "kwargs",
        "oneway",
        "batch",
        "context_id",
        "budget",
    )

    def __init__(
        self,
        call_id: int,
        object_id: int,
        method: str,
        args: Any = (),
        kwargs: Any = None,
        oneway: bool = False,
        batch: bool = False,
        context_id: int | None = None,
        budget: float | None = None,
    ):
        self.call_id = call_id
        self.object_id = object_id
        self.method = method
        self.args = args
        self.kwargs = kwargs
        self.oneway = oneway
        self.batch = batch
        #: originating per-call dispatch ticket id — travels the wire as
        #: an id (tickets are process-local objects) and echoes back in
        #: the reply, so the caller side re-associates work with the call
        self.context_id = context_id
        self.budget = budget

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RequestEnvelope #{self.call_id} obj{self.object_id}."
            f"{self.method} batch={self.batch} ctx={self.context_id}>"
        )


class ReplyEnvelope:
    """The reply frame: ``outcome`` is ``"ok"`` or ``"error"`` (payload
    then carries the exception, see :func:`exception_payload`).

    A run's reply says how many stages it went on through (``hops``;
    the payload is the last one's result) and, under a custom
    ``forward_args`` only, what the last one was called with (``view``:
    ``(args, kwargs)``, for a pack ``args`` holds the piece views)."""

    kind = "reply"

    __slots__ = ("call_id", "outcome", "payload", "context_id", "hops", "view")

    def __init__(
        self,
        call_id: int,
        outcome: str,
        payload: Any = None,
        context_id: int | None = None,
        hops: int = 0,
        view: Any = None,
    ):
        self.call_id = call_id
        self.outcome = outcome
        self.payload = payload
        self.context_id = context_id
        self.hops = hops
        self.view = view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReplyEnvelope #{self.call_id} {self.outcome}>"


class ExportEnvelope:
    """Ships one servant instance into its resident worker process."""

    kind = "export"

    __slots__ = ("object_id", "servant", "type_name")

    def __init__(self, object_id: int, servant: Any, type_name: str = ""):
        self.object_id = object_id
        self.servant = servant
        self.type_name = type_name or type(servant).__name__


class LinkEnvelope:
    """Tells a worker that stage ``object_id`` hands on to ``next_id``,
    hosted there too: a run may cross.  ``forward_args`` is the
    splitter's hook when not the default (pickled by reference)."""

    kind = "link"

    __slots__ = ("object_id", "next_id", "forward_args")

    def __init__(self, object_id: int, next_id: int, forward_args: Any = None):
        self.object_id = object_id
        self.next_id = next_id
        self.forward_args = forward_args


#: envelope class per wire kind, and per class the getter that reads its
#: slots in declaration order — which is also its constructor's order
_ENVELOPES = {
    c.kind: c
    for c in (RequestEnvelope, ReplyEnvelope, ExportEnvelope, LinkEnvelope)
}
_FIELDS = {cls: attrgetter(*cls.__slots__) for cls in _ENVELOPES.values()}


def encode_envelope(envelope: Any) -> bytes:
    """Pickle an envelope as the plain tuple ``(kind, *slots)`` (half the
    cost of pickling the instance), naming the offending field on failure.

    A request whose argument cannot pickle (an open file, a lambda, a
    thread lock smuggled into a payload) must fail at the *send site*
    with an error that says which field is at fault — not crash the
    worker's decode loop and hang the caller on a reply.
    """
    cls = type(envelope)
    fields = _FIELDS[cls](envelope)
    try:
        return pickle.dumps((cls.kind, *fields), protocol=_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - re-raised with a culprit
        for slot, value in zip(cls.__slots__, fields):
            try:
                pickle.dumps(value, protocol=_PROTOCOL)
            except Exception:  # noqa: BLE001 - this slot is the culprit
                raise SerializationError(
                    f"{cls.__name__}.{slot} cannot cross the "
                    f"process boundary: {type(value).__name__} is not "
                    f"picklable ({exc})"
                ) from exc
        raise SerializationError(
            f"cannot pickle {cls.__name__} for transport: {exc}"
        ) from exc


def decode_envelope(data: bytes) -> Any:
    """Materialise a wire frame: rebuild the envelope its ``(kind,
    *slots)`` tuple names (construction bypass, see :func:`loads`)."""
    kind, *fields = loads(data)
    return _ENVELOPES[kind](*fields)


def exception_payload(exc: BaseException) -> BaseException:
    """Make ``exc`` shippable as an error-reply payload.

    The remote traceback is rendered to text and attached as
    ``remote_traceback`` (traceback objects never pickle; their text
    does), so the client-side failure stays debuggable.  An exception
    that itself refuses to pickle degrades to a
    :class:`~repro.errors.SerializationError` carrying the rendered
    traceback — the error always crosses the boundary.
    """
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    try:
        exc.remote_traceback = text  # type: ignore[attr-defined]
    except Exception:  # noqa: BLE001 - exotic __slots__ exceptions
        pass
    try:
        pickle.dumps(exc, protocol=_PROTOCOL)
        return exc
    except Exception:  # noqa: BLE001 - degrade, never lose the error
        degraded = SerializationError(
            f"remote call failed with unpicklable "
            f"{type(exc).__name__}: {exc}\n--- remote traceback ---\n{text}"
        )
        degraded.remote_traceback = text  # type: ignore[attr-defined]
        return degraded


class Serializer:
    """Copying serialisation with cumulative accounting."""

    def __init__(self) -> None:
        self.bytes_out = 0
        self.messages = 0

    def pack(self, payload: Any) -> tuple[Any, int]:
        """Prepare ``payload`` for transport; returns ``(wire, size)``,
        the wire object independent of the original."""
        size = measure_size(payload)
        self.bytes_out += size
        self.messages += 1
        return self._deep_copy(payload), size

    def unpack(self, wire: Any) -> Any:
        """Materialise a transported payload on the receiving side."""
        return wire

    def encode(self, envelope: Any) -> bytes:
        """Pickle an envelope for the REAL wire (process boundary) with
        the same cumulative accounting as :meth:`pack` — ``messages``
        counts marshalling passes, which is what the pack-amortisation
        bench asserts on (one marshal per pack)."""
        data = encode_envelope(envelope)
        self.messages += 1
        self.bytes_out += _HEADER_BYTES + len(data)
        return data

    #: materialise a received frame (uncounted: :meth:`pack` bills the sender)
    decode = staticmethod(decode_envelope)

    def clone(self, payload: Any) -> Any:
        """Standalone deep copy with woven-class safety (used to build
        servant instances with value semantics)."""
        return self._deep_copy(payload)

    def _deep_copy(self, payload: Any) -> Any:
        if payload is None or isinstance(payload, (int, float, bool, str, bytes)):
            return payload
        if isinstance(payload, tuple):
            return tuple(self._deep_copy(item) for item in payload)
        if isinstance(payload, list):
            return [self._deep_copy(item) for item in payload]
        if isinstance(payload, dict):
            return {
                self._deep_copy(k): self._deep_copy(v) for k, v in payload.items()
            }
        np = sys.modules.get("numpy")
        if np is not None and isinstance(payload, np.ndarray):
            return payload.copy()
        # Arbitrary objects: value semantics via copy.  ``deepcopy`` (not a
        # pickle round-trip) so module-local classes work in-process; the
        # construction bypass keeps woven classes from re-running
        # initialization advice on the copy.
        try:
            with bypassing_construction():
                return copy.deepcopy(payload)
        except Exception as exc:  # noqa: BLE001
            raise SerializationError(
                f"cannot serialise {type(payload).__name__}: {exc}"
            ) from exc
