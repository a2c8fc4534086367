"""Property-style round-trips for the process wire format.

The envelopes in :mod:`repro.middleware.serialize` are the only things
that cross the process boundary, so their encode/decode must be exact
(``context_id`` included), exceptions must arrive as payloads with their
remote traceback attached, and an unpicklable argument must fail at the
*send site* with a :class:`~repro.errors.SerializationError` naming the
culprit field — never a hang on a reply that cannot exist.
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.errors import SerializationError
from repro.middleware.serialize import (
    ExportEnvelope,
    LinkEnvelope,
    ReplyEnvelope,
    RequestEnvelope,
    Serializer,
    decode_envelope,
    dumps,
    encode_envelope,
    exception_payload,
    loads,
)

# a spread of payload shapes: scalars, containers, nesting, unicode,
# bytes, empties — the "property-style" axis of the round-trip
PAYLOADS = [
    None,
    0,
    -17,
    3.25,
    True,
    "plain",
    "unicode ✓ \N{SNOWMAN}",
    b"\x00\xff bytes",
    (),
    [],
    {},
    [1, [2, [3, [4]]]],
    {"k": (1, 2.5, "v"), "nested": {"deep": [None, False]}},
    tuple(range(50)),
    {i: str(i) for i in range(20)},
]


class Custom:
    """A plain user type that must survive the wire by value."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Custom) and other.value == self.value


class TestDumpLoad:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=repr)
    def test_round_trip_identity(self, payload):
        assert loads(dumps(payload)) == payload

    def test_custom_objects_round_trip_by_value(self):
        original = Custom([1, 2, 3])
        clone = loads(dumps(original))
        assert clone == original
        assert clone is not original

    def test_unpicklable_payload_raises_targeted_error(self):
        with pytest.raises(SerializationError, match="cannot pickle"):
            dumps(threading.Lock())


class TestRequestEnvelope:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=repr)
    def test_args_round_trip(self, payload):
        envelope = RequestEnvelope(
            7, 3, "work", (payload,), {"key": payload}, context_id=42
        )
        back = decode_envelope(encode_envelope(envelope))
        assert back.call_id == 7
        assert back.object_id == 3
        assert back.method == "work"
        assert back.args == (payload,)
        assert back.kwargs == {"key": payload}
        assert back.context_id == 42
        assert back.oneway is False
        assert back.batch is False

    def test_flags_and_absent_context_survive(self):
        envelope = RequestEnvelope(
            1, 2, "fire", ((1,), (2,)), None, oneway=True, batch=True
        )
        back = decode_envelope(encode_envelope(envelope))
        assert back.oneway is True
        assert back.batch is True
        assert back.context_id is None
        assert back.kwargs is None

    def test_unpicklable_argument_names_the_culprit_field(self):
        envelope = RequestEnvelope(1, 2, "work", (threading.Lock(),), {})
        with pytest.raises(SerializationError) as err:
            encode_envelope(envelope)
        message = str(err.value)
        assert "RequestEnvelope.args" in message
        assert "cannot cross the process boundary" in message

    def test_unpicklable_kwarg_names_the_culprit_field(self):
        envelope = RequestEnvelope(
            1, 2, "work", (), {"handle": threading.Condition()}
        )
        with pytest.raises(
            SerializationError, match="RequestEnvelope.kwargs"
        ):
            encode_envelope(envelope)


class TestReplyEnvelope:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=repr)
    def test_ok_reply_round_trip(self, payload):
        back = decode_envelope(
            encode_envelope(ReplyEnvelope(9, "ok", payload, context_id=5))
        )
        assert (back.call_id, back.outcome, back.context_id) == (9, "ok", 5)
        assert back.payload == payload

    def test_exception_travels_as_error_payload(self):
        try:
            raise ValueError("boom at depth")
        except ValueError as exc:
            payload = exception_payload(exc)
        back = decode_envelope(
            encode_envelope(ReplyEnvelope(3, "error", payload))
        )
        assert isinstance(back.payload, ValueError)
        assert "boom at depth" in str(back.payload)
        # the rendered remote traceback crossed the boundary as text
        assert "ValueError: boom at depth" in back.payload.remote_traceback
        assert "raise ValueError" in back.payload.remote_traceback

    def test_unpicklable_exception_degrades_not_lost(self):
        class Sneaky(Exception):
            def __init__(self):
                super().__init__("sneaky")
                self.lock = threading.Lock()  # refuses to pickle

        try:
            raise Sneaky()
        except Sneaky as exc:
            payload = exception_payload(exc)
        # degraded to a SerializationError that still tells the story
        assert isinstance(payload, SerializationError)
        assert "Sneaky" in str(payload)
        assert "sneaky" in str(payload)
        assert "Sneaky" in payload.remote_traceback
        # and the degraded payload itself crosses the boundary fine
        back = decode_envelope(
            encode_envelope(ReplyEnvelope(4, "error", payload))
        )
        assert isinstance(back.payload, SerializationError)


class TestExportEnvelope:
    def test_servant_ships_by_value(self):
        servant = Custom({"state": [1, 2]})
        back = decode_envelope(
            encode_envelope(ExportEnvelope(11, servant, "Custom"))
        )
        assert back.object_id == 11
        assert back.type_name == "Custom"
        assert back.servant == servant
        assert back.servant is not servant

    def test_unpicklable_servant_names_the_field(self):
        bad = Custom(threading.Lock())
        with pytest.raises(
            SerializationError, match="ExportEnvelope.servant"
        ):
            encode_envelope(ExportEnvelope(1, bad))


def every_third(result, args, kwargs):
    """A module-level ``forward_args``: pickled by reference."""
    return (result[::3],), kwargs


class TestRunSlots:
    """The trailing slots a co-located run travels in, and the link
    frame that sets one up: absent means a bare call and a plain reply,
    so constructions that never heard of them keep working."""

    def test_defaults_are_a_bare_call_and_a_plain_reply(self):
        # the spellings the end-to-end benchmark's probes use
        request = decode_envelope(
            encode_envelope(RequestEnvelope(7, 1, "work", ([1],), {}, context_id=7))
        )
        assert (request.budget, request.context_id) == (None, 7)
        reply = decode_envelope(
            encode_envelope(ReplyEnvelope(7, "ok", [2], context_id=7))
        )
        assert (reply.hops, reply.view, reply.context_id) == (0, None, 7)
        assert RequestEnvelope.__slots__[-1] == "budget"
        assert ReplyEnvelope.__slots__[-2:] == ("hops", "view")

    @pytest.mark.parametrize("budget", [0.25, float("inf")])
    def test_a_run_request_and_its_reply_round_trip(self, budget):
        request = decode_envelope(
            encode_envelope(
                RequestEnvelope(8, 2, "work", ([1],), {}, context_id=3, budget=budget)
            )
        )
        assert request.budget == budget
        view = (([5],), {"note": ".."})
        reply = decode_envelope(
            encode_envelope(ReplyEnvelope(8, "ok", [6], 3, hops=2, view=view))
        )
        assert (reply.hops, reply.view, reply.payload) == (2, view, [6])

    def test_link_round_trip_ships_forward_args_by_reference(self):
        link = decode_envelope(encode_envelope(LinkEnvelope(4, 5, every_third)))
        assert (link.object_id, link.next_id) == (4, 5)
        assert link.forward_args is every_third
        assert decode_envelope(encode_envelope(LinkEnvelope(4, 5))).forward_args is None

    def test_unpicklable_forward_args_names_the_field(self):
        with pytest.raises(SerializationError, match="LinkEnvelope.forward_args"):
            encode_envelope(LinkEnvelope(4, 5, lambda result, args, kwargs: args))


class TestSerializerAccounting:
    def test_encode_counts_messages_and_bytes(self):
        serializer = Serializer()
        before = (serializer.messages, serializer.bytes_out)
        data = serializer.encode(RequestEnvelope(1, 1, "m", (1,), {}))
        assert serializer.messages == before[0] + 1
        assert serializer.bytes_out > before[1]
        # decode charges nothing: accounting bills the sender once
        serializer.decode(data)
        assert serializer.messages == before[0] + 1

    def test_corrupt_frame_raises_serialization_error(self):
        with pytest.raises(SerializationError, match="cannot unpickle"):
            loads(b"definitely not a pickle")

    def test_protocol_is_binary_stable(self):
        # frames produced here must be consumable by a forked child
        # running the same interpreter: plain pickle bytes, no wrapper,
        # of a plain tuple — the envelope's kind, then its slots in
        # declaration order (no class instance crosses the pipe)
        frame = encode_envelope(ReplyEnvelope(1, "ok", [1, 2], context_id=9))
        # ... the run's trailing slots included, at their defaults
        assert pickle.loads(frame) == ("reply", 1, "ok", [1, 2], 9, 0, None)
        assert decode_envelope(frame).payload == [1, 2]
        request = RequestEnvelope(7, 3, "work", (1,), {"k": 2}, batch=True)
        wire = pickle.loads(encode_envelope(request))
        assert type(wire) is tuple and wire[0] == RequestEnvelope.kind
        assert wire[1:] == tuple(
            getattr(request, slot) for slot in RequestEnvelope.__slots__
        )
        export = pickle.loads(encode_envelope(ExportEnvelope(11, [4], "list")))
        assert export == ("export", 11, [4], "list")
