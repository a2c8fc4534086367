"""Advice declarations and bound chain entries.

An advice chain is the ordered list of advice applicable at one joinpoint
shadow.  Every advice is ``around``: ordering follows AspectJ precedence
rules — higher-precedence aspects run *outermost* and wrap everything
below.  Within one aspect, declaration order decides.

The plan compiler (:mod:`repro.aop.plan`) folds each shadow's chain into
a dispatcher: ``proceed`` at level *i* continues at level *i + 1*, and
the innermost ``proceed`` performs the original behaviour (the method
body, or raw construction for initialization joinpoints).  Advice may
call ``proceed`` any number of times, with or without replacement
arguments.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["AdviceDecl", "BoundAdvice"]


class AdviceDecl:
    """A single advice declaration inside an aspect class.

    ``pointcut_source`` is kept unresolved (string, :class:`Pointcut`, or
    the *name* of an aspect-level pointcut attribute) until deployment so
    abstract aspects can defer their pointcuts to concrete subclasses.
    """

    __slots__ = ("pointcut_source", "func", "index", "name")

    def __init__(self, pointcut_source: Any, func: Callable, index: int):
        self.pointcut_source = pointcut_source
        self.func = func
        self.index = index
        self.name = func.__name__

    def __repr__(self) -> str:  # pragma: no cover
        return f"<AdviceDecl {self.name} on {self.pointcut_source!r}>"


class BoundAdvice:
    """Advice resolved against a deployed aspect instance and matched at
    one shadow."""

    __slots__ = ("func", "aspect", "sort_key")

    def __init__(self, func: Callable, aspect: Any, sort_key: tuple):
        self.func = func
        self.aspect = aspect
        self.sort_key = sort_key

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BoundAdvice from {type(self.aspect).__name__}>"
