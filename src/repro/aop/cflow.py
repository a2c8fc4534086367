"""Control-flow state for dynamic pointcuts.

Tracks, per thread (simulated processes are real threads, so
``threading.local`` covers both execution backends):

* the stack of joinpoints currently executing — powering ``cflow(..)``
  and ``cflowbelow(..)``;
* the advice-execution depth — powering ``adviceexecution()`` and the
  default rule that *initialization* joinpoints are not re-matched for
  constructions performed inside advice (the paper: "This pointcut only
  intercepts object creations in the core functionality").

Every attribute read on a ``threading.local`` pays a thread-dictionary
lookup, which adds up on the woven hot path (the compiled dispatch plans
touch flow state half a dozen times per call).  The state therefore
lives in a plain ``__slots__`` object reachable through *one*
``threading.local`` attribute: ``flow_state()`` resolves the thread
dictionary once, and every subsequent field access is an ordinary slot
load.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aop.joinpoint import JoinPoint

__all__ = [
    "flow_state",
    "current_stack",
    "advice_depth",
    "in_advice",
    "entered_joinpoint",
    "entered_advice",
    "construction_bypass",
    "bypassing_construction",
]


class _Flow:
    """Per-thread flow state; plain slots so field access is cheap."""

    __slots__ = ("stack", "advice_depth", "construction_bypass")

    def __init__(self) -> None:
        self.stack: list["JoinPoint"] = []
        self.advice_depth: int = 0
        self.construction_bypass: int = 0


class _FlowLocal(threading.local):
    def __init__(self) -> None:
        self.flow = _Flow()


_LOCAL = _FlowLocal()


def flow_state() -> _Flow:
    """This thread's flow state; fetch once, then use plain attributes."""
    return _LOCAL.flow


def current_stack() -> list["JoinPoint"]:
    """The joinpoints currently executing on this thread, outermost first."""
    return _LOCAL.flow.stack


def advice_depth() -> int:
    return _LOCAL.flow.advice_depth


def in_advice() -> bool:
    """Is this thread currently executing advice code?"""
    return _LOCAL.flow.advice_depth > 0


def construction_bypass() -> bool:
    """Is construction currently bypassing the weaver (``proceed`` of an
    initialization joinpoint, or :func:`repro.aop.raw_construct`)?"""
    return _LOCAL.flow.construction_bypass > 0


@contextmanager
def entered_joinpoint(jp: "JoinPoint") -> Iterator[None]:
    """Push ``jp`` on the thread's control-flow stack for cflow matching."""
    stack = _LOCAL.flow.stack
    stack.append(jp)
    try:
        yield
    finally:
        stack.pop()


class entered_advice:
    """``with`` block marking advice execution (for ``adviceexecution()``
    pointcuts).  Plain bumps, no generator: every hop opens one."""

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
