"""The advice-chain interpreter, kept as the compiled plans' oracle.

:func:`run_chain` executes a sorted chain of around advice recursively
— ``proceed`` at level *i* continues at level *i + 1*, the innermost
``proceed`` runs ``original`` — with one closure per level armed in the
joinpoint's per-thread proceed map.  Nothing in ``src/`` runs it: the
weaver compiles every chain (:mod:`repro.aop.plan`).  The equivalence
tests run a chain both ways and require the same results, exceptions
and advice ordering.

The compiled plans keep their continuation in the joinpoint's own
slots, so the oracle runs on :class:`OracleJoinPoint` /
:class:`OracleBatchJoinPoint`, which add the proceed map and answer
``proceed`` and ``capture_proceed`` from it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.aop.advice import BoundAdvice
from repro.aop.cflow import entered_advice
from repro.aop.joinpoint import JoinPoint
from repro.aop.plan import BatchJoinPoint
from repro.errors import ProceedError


class _ProceedMap:
    """``proceed`` and ``capture_proceed`` answered by the closure armed
    for the calling thread in ``_proceed_map``."""

    __slots__ = ()

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._proceed_map: dict[int, Callable] = {}

    def _armed(self) -> Callable:
        proceed = self._proceed_map.get(threading.get_ident())
        if proceed is None:
            raise ProceedError(f"no proceed armed for {self.signature}")
        return proceed

    def proceed(self, *args: Any, **kwargs: Any) -> Any:
        return self._armed()(*args, **kwargs)

    def capture_proceed(self) -> Callable[..., Any]:
        """The capturing level's own ``proceed`` closure.  Replaying it
        leaves this joinpoint's argument view as it found it: a capture
        replays on a copy of the compiled joinpoint."""
        proceed = self._armed()

        def replay(*args: Any, **kwargs: Any) -> Any:
            view = self.args, self.kwargs
            try:
                return proceed(*args, **kwargs)
            finally:
                self.args, self.kwargs = view

        return replay


class OracleJoinPoint(_ProceedMap, JoinPoint):
    __slots__ = ("_proceed_map",)


class OracleBatchJoinPoint(_ProceedMap, BatchJoinPoint):
    __slots__ = ("_proceed_map",)


def run_chain(
    entries: Sequence[BoundAdvice],
    jp: OracleJoinPoint | OracleBatchJoinPoint,
    original: Callable[..., Any],
) -> Any:
    """Execute an advice chain around ``original`` for joinpoint ``jp``.

    ``entries`` must already be sorted outermost-first.  Returns whatever
    the outermost advice (or the original code) returns.
    """
    n = len(entries)

    def invoke(i: int, args: tuple, kwargs: dict) -> Any:
        jp.args, jp.kwargs = args, kwargs
        if i == n:
            return original(*args, **kwargs)
        entry = entries[i]

        # Continuations are per-thread: a spawned activity running a
        # captured continuation must not have its proceed clobbered
        # when the spawning thread's advice unwinds (and vice versa).
        def proceed(*new_args: Any, **new_kwargs: Any) -> Any:
            use_args = new_args if new_args else args
            use_kwargs = new_kwargs if new_kwargs else kwargs
            result = invoke(i + 1, use_args, use_kwargs)
            # restore this level's view so a second proceed() or a
            # post-proceed inspection of jp sees consistent state
            jp.args, jp.kwargs = args, kwargs
            jp._proceed_map[threading.get_ident()] = proceed
            return result

        tid = threading.get_ident()
        saved = jp._proceed_map.get(tid)
        jp._proceed_map[tid] = proceed
        try:
            with entered_advice():
                return entry.func(jp)
        finally:
            if saved is None:
                jp._proceed_map.pop(tid, None)
            else:
                jp._proceed_map[tid] = saved

    return invoke(0, jp.args, jp.kwargs)
