"""Advice kinds and the advice-chain interpreter.

An advice chain is the ordered list of advice applicable at one joinpoint
shadow.  Ordering follows AspectJ precedence rules: higher-precedence
aspects run *outermost* (their ``before`` runs first, their ``around``
wraps everything below, their ``after`` runs last).  Within one aspect,
declaration order decides.

The interpreter (:func:`run_chain`) executes the chain recursively;
``proceed`` at level *i* continues at level *i + 1*, and the innermost
``proceed`` performs the original behaviour (the method body, or raw
construction for initialization joinpoints).  Around advice may call
``proceed`` any number of times, with or without replacement arguments.
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, Sequence

from repro.aop.cflow import entered_advice
from repro.aop.joinpoint import JoinPoint
from repro.aop.pointcut import Pointcut
from repro.errors import AdviceError

__all__ = ["AdviceKind", "AdviceDecl", "BoundAdvice", "run_chain"]


class AdviceKind(enum.Enum):
    BEFORE = "before"
    AFTER = "after"  # after-finally
    AFTER_RETURNING = "after_returning"
    AFTER_THROWING = "after_throwing"
    AROUND = "around"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AdviceDecl:
    """A single advice declaration inside an aspect class.

    ``pointcut_source`` is kept unresolved (string, :class:`Pointcut`, or
    the *name* of an aspect-level pointcut attribute) until deployment so
    abstract aspects can defer their pointcuts to concrete subclasses.
    """

    __slots__ = ("kind", "pointcut_source", "func", "index", "name")

    def __init__(
        self,
        kind: AdviceKind,
        pointcut_source: Any,
        func: Callable,
        index: int,
    ):
        self.kind = kind
        self.pointcut_source = pointcut_source
        self.func = func
        self.index = index
        self.name = func.__name__

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AdviceDecl {self.kind} {self.name} on {self.pointcut_source!r}>"


class BoundAdvice:
    """Advice resolved against a deployed aspect instance and statically
    matched at one shadow."""

    __slots__ = ("kind", "pointcut", "func", "needs_eval", "aspect", "sort_key")

    def __init__(
        self,
        kind: AdviceKind,
        pointcut: Pointcut,
        func: Callable,
        needs_eval: bool,
        aspect: Any,
        sort_key: tuple,
    ):
        self.kind = kind
        self.pointcut = pointcut
        self.func = func
        self.needs_eval = needs_eval
        self.aspect = aspect
        self.sort_key = sort_key

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BoundAdvice {self.kind} from {type(self.aspect).__name__}>"


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
        if entry.needs_eval and not entry.pointcut.evaluate(jp):
            return invoke(i + 1, args, kwargs)
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
                tid = threading.get_ident()
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
        if kind is AdviceKind.AFTER_THROWING:
            try:
                return invoke(i + 1, args, kwargs)
            except BaseException as exc:
                jp.exception = exc
                with entered_advice():
                    entry.func(jp)
                raise
        raise AdviceError(f"unknown advice kind {kind!r}")  # pragma: no cover

    return invoke(0, jp.args, jp.kwargs)
