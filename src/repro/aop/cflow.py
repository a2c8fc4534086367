"""Per-thread control-flow state of the weaver.

Tracks, per thread (simulated processes are real threads, so
``threading.local`` covers both execution backends):

* the advice-execution depth — stamped on every joinpoint as
  ``jp.from_advice`` (this weaver's ``!adviceexecution()``) and powering
  the default rule that *initialization* joinpoints are not re-matched
  for constructions performed inside advice (the paper: "This pointcut
  only intercepts object creations in the core functionality");
* the construction bypass — woven constructors take the raw path while
  it is up (``proceed`` of an initialization joinpoint, unmarshalling,
  :func:`repro.aop.raw_construct`).

Every attribute read on a ``threading.local`` pays a thread-dictionary
lookup, which adds up on the woven hot path (the compiled dispatch plans
touch flow state on every call).  The state therefore lives in a plain
``__slots__`` object reachable through *one* ``threading.local``
attribute: ``flow_state()`` resolves the thread dictionary once, and
every subsequent field access is an ordinary slot load.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "flow_state",
    "in_advice",
    "entered_advice",
    "construction_bypass",
    "bypassing_construction",
]


class _Flow:
    """Per-thread flow state; plain slots so field access is cheap."""

    __slots__ = ("advice_depth", "construction_bypass")

    def __init__(self) -> None:
        self.advice_depth: int = 0
        self.construction_bypass: int = 0


class _FlowLocal(threading.local):
    def __init__(self) -> None:
        self.flow = _Flow()


_LOCAL = _FlowLocal()


def flow_state() -> _Flow:
    """This thread's flow state; fetch once, then use plain attributes."""
    return _LOCAL.flow


def in_advice() -> bool:
    """Is this thread currently executing advice code?"""
    return _LOCAL.flow.advice_depth > 0


def construction_bypass() -> bool:
    """Is construction currently bypassing the weaver (``proceed`` of an
    initialization joinpoint, or :func:`repro.aop.raw_construct`)?"""
    return _LOCAL.flow.construction_bypass > 0


class entered_advice:
    """``with`` block marking advice execution (``jp.from_advice`` of the
    joinpoints it reaches).  Plain bumps, no generator: every hop opens
    one."""

    __slots__ = ()

    def __enter__(self) -> None:
        _LOCAL.flow.advice_depth += 1

    def __exit__(self, *exc: object) -> None:
        _LOCAL.flow.advice_depth -= 1


@contextmanager
def bypassing_construction() -> Iterator[None]:
    """Run a block during which woven constructors use the raw path."""
    flow = _LOCAL.flow
    flow.construction_bypass += 1
    try:
        yield
    finally:
        flow.construction_bypass -= 1
