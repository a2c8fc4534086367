"""The advice-chain interpreter, kept as the compiled plans' oracle.

:func:`run_chain` executes a sorted chain recursively — ``proceed`` at
level *i* continues at level *i + 1*, the innermost ``proceed`` runs
``original`` — with one closure per around level armed in the
joinpoint's per-thread proceed map.  Nothing in ``src/`` runs it: the
weaver compiles every chain (:mod:`repro.aop.plan`).  The equivalence
tests run a chain both ways and require the same results, exceptions
and advice ordering.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.aop.advice import AdviceKind, BoundAdvice
from repro.aop.cflow import entered_advice
from repro.aop.joinpoint import JoinPoint


def run_chain(
    entries: Sequence[BoundAdvice],
    jp: JoinPoint,
    original: Callable[..., Any],
) -> Any:
    """Execute an advice chain around ``original`` for joinpoint ``jp``.

    ``entries`` must already be sorted outermost-first.  Returns whatever
    the outermost around advice (or the original code) returns.
    """
    n = len(entries)

    def invoke(i: int, args: tuple, kwargs: dict) -> Any:
        jp.args, jp.kwargs = args, kwargs
        if i == n:
            return original(*args, **kwargs)
        entry = entries[i]
        kind = entry.kind
        if kind is AdviceKind.BEFORE:
            with entered_advice():
                entry.func(jp)
            return invoke(i + 1, args, kwargs)
        if kind is AdviceKind.AROUND:
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
        if kind is AdviceKind.AFTER:
            try:
                return invoke(i + 1, args, kwargs)
            finally:
                with entered_advice():
                    entry.func(jp)
        if kind is AdviceKind.AFTER_RETURNING:
            result = invoke(i + 1, args, kwargs)
            jp.result = result
            with entered_advice():
                entry.func(jp)
            return result
        assert kind is AdviceKind.AFTER_THROWING
        try:
            return invoke(i + 1, args, kwargs)
        except BaseException as exc:
            jp.exception = exc
            with entered_advice():
                entry.func(jp)
            raise

    return invoke(0, jp.args, jp.kwargs)
