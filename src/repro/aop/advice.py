"""Advice kinds, declarations and bound chain entries.

An advice chain is the ordered list of advice applicable at one joinpoint
shadow.  Ordering follows AspectJ precedence rules: higher-precedence
aspects run *outermost* (their ``before`` runs first, their ``around``
wraps everything below, their ``after`` runs last).  Within one aspect,
declaration order decides.

The plan compiler (:mod:`repro.aop.plan`) folds each shadow's chain into
a dispatcher: ``proceed`` at level *i* continues at level *i + 1*, and
the innermost ``proceed`` performs the original behaviour (the method
body, or raw construction for initialization joinpoints).  Around advice
may call ``proceed`` any number of times, with or without replacement
arguments.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

__all__ = ["AdviceKind", "AdviceDecl", "BoundAdvice"]


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
    """Advice resolved against a deployed aspect instance and matched at
    one shadow."""

    __slots__ = ("kind", "func", "aspect", "sort_key")

    def __init__(self, kind: AdviceKind, func: Callable, aspect: Any,
                 sort_key: tuple):
        self.kind = kind
        self.func = func
        self.aspect = aspect
        self.sort_key = sort_key

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BoundAdvice {self.kind} from {type(self.aspect).__name__}>"
