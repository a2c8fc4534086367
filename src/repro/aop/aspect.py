"""Aspect base class and declaration decorators.

An aspect groups advice, named pointcuts, inter-type declarations and
``declare parents`` into one module — the unit the paper plugs and
unplugs.  Usage mirrors the paper's (simplified AspectJ) sketches::

    class Partition(Aspect):
        filters = 4                                # aspect state

        @around("initialization(PrimeFilter.new(..))")
        def duplicate(self, jp):
            first = prev = None
            for i in range(self.filters):          # "aspect managed objects"
                obj = jp.proceed(...)
                ...
            return first

Abstract reusable aspects (paper Figure 9) declare *abstract pointcuts*
that concrete subclasses must bind::

    class PipelineProtocol(Aspect):
        stage_creation = abstract_pointcut()

        @around("stage_creation")                  # reference by name
        def duplicate(self, jp): ...

    class PrimePipeline(PipelineProtocol):
        stage_creation = pointcut("initialization(PrimeFilter.new(..))")
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable

from repro.aop.advice import AdviceDecl
from repro.aop.parser import parse_pointcut
from repro.aop.pointcut import Pointcut
from repro.errors import AdviceError, DeploymentError

__all__ = [
    "Aspect",
    "around",
    "introduce",
    "pointcut",
    "abstract_pointcut",
    "AbstractPointcut",
    "declare_parents",
    "ParentDeclaration",
]

_ADVICE_ATTR = "_aop_advice_marker"
_INTRODUCE_ATTR = "_aop_introduce_target"
_IDENTIFIER = re.compile(r"^[A-Za-z_]\w*$")


class AbstractPointcut:
    """Placeholder for a pointcut that concrete subclasses must bind."""

    __slots__ = ("doc",)

    def __init__(self, doc: str = ""):
        self.doc = doc

    def __repr__(self) -> str:  # pragma: no cover
        return "<abstract pointcut>"


def abstract_pointcut(doc: str = "") -> AbstractPointcut:
    """Declare an abstract named pointcut on an (abstract) aspect."""
    return AbstractPointcut(doc)


def pointcut(expression: str | Pointcut) -> Pointcut:
    """Declare a named pointcut from an expression string."""
    if isinstance(expression, Pointcut):
        return expression
    return parse_pointcut(expression)


def around(expression: str | Pointcut) -> Callable:
    """Around advice — receives the :class:`JoinPoint`; must call
    ``jp.proceed(..)`` to run the original behaviour.  The only advice
    kind: "before" or "after" is code written around ``proceed()``."""
    if expression is None:
        raise AdviceError("around advice requires a pointcut expression")

    def decorator(func: Callable) -> Callable:
        markers = getattr(func, _ADVICE_ATTR, [])
        setattr(func, _ADVICE_ATTR, list(markers) + [expression])
        return func

    return decorator


def introduce(target: type) -> Callable:
    """Inter-type member introduction: add the decorated function as a
    method of ``target`` while the aspect is deployed (paper Figure 2's
    ``Point.migrate``)."""

    def decorator(func: Callable) -> Callable:
        setattr(func, _INTRODUCE_ATTR, target)
        return func

    return decorator


class ParentDeclaration:
    """One ``declare parents: Target implements Base`` entry."""

    __slots__ = ("target", "base")

    def __init__(self, target: type, base: type):
        self.target = target
        self.base = base

    def __repr__(self) -> str:  # pragma: no cover
        return f"declare_parents({self.target.__name__} -> {self.base.__name__})"


def declare_parents(target: type, base: type) -> ParentDeclaration:
    """Build a parent declaration for an aspect's ``parents`` list."""
    return ParentDeclaration(target, base)


class Aspect:
    """Base class for all aspects.

    Class attributes recognised by the deployment machinery:

    ``precedence``
        Higher values run outermost.  The paper's layering corresponds to
        ``partition > concurrency > distribution > optimisation``.
    ``parents``
        Iterable of :class:`ParentDeclaration` applied at deploy time.
    ``applies_server_side``
        ``False`` leaves this aspect's advice out of every serving plan
        (calls made while a middleware executes a servant).
    named pointcuts
        Any class attribute whose value is a :class:`Pointcut` (from
        :func:`pointcut`) or :class:`AbstractPointcut`.
    """

    precedence: int = 0
    parents: Iterable[ParentDeclaration] = ()
    applies_server_side: bool = True

    # populated by __init_subclass__
    _advice_decls: tuple[AdviceDecl, ...] = ()
    _introductions: tuple[tuple[type, str, Callable], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass re-declaring an advice method overrides the
        # inherited declaration (normal method-override semantics).
        overridden = set(vars(cls))
        decls: list[AdviceDecl] = [
            d for d in cls._advice_decls if d.name not in overridden
        ]
        intros: list[tuple[type, str, Callable]] = [
            entry for entry in cls._introductions if entry[1] not in overridden
        ]
        index = len(decls)
        for name, attr in vars(cls).items():
            markers = getattr(attr, _ADVICE_ATTR, None)
            if markers:
                for expression in markers:
                    decls.append(AdviceDecl(expression, attr, index))
                    index += 1
            intro_target = getattr(attr, _INTRODUCE_ATTR, None)
            if intro_target is not None:
                intros.append((intro_target, name, attr))
        cls._advice_decls = tuple(decls)
        cls._introductions = tuple(intros)

    # -- deployment-time resolution ---------------------------------------

    def resolve_pointcut(self, source: Any) -> Pointcut:
        """Resolve an advice's pointcut source against this instance.

        Accepts a :class:`Pointcut`, an expression string, or the bare
        name of an aspect attribute holding a named pointcut (string or
        :class:`Pointcut`); abstract pointcuts left unbound raise
        :class:`DeploymentError`.
        """
        seen: set[str] = set()
        while True:
            if isinstance(source, Pointcut):
                return source
            if isinstance(source, AbstractPointcut):
                raise DeploymentError(
                    f"aspect {type(self).__name__} leaves an abstract pointcut "
                    f"unbound; concrete subclasses must assign it"
                )
            if isinstance(source, str):
                if _IDENTIFIER.match(source):
                    if source in seen:
                        raise DeploymentError(
                            f"cyclic named-pointcut reference {source!r} in "
                            f"{type(self).__name__}"
                        )
                    seen.add(source)
                    if not hasattr(self, source):
                        raise DeploymentError(
                            f"aspect {type(self).__name__} has no named "
                            f"pointcut {source!r}"
                        )
                    source = getattr(self, source)
                    continue
                return parse_pointcut(source)
            raise DeploymentError(
                f"invalid pointcut source {source!r} in {type(self).__name__}"
            )

    def is_abstract(self) -> bool:
        """True if any advice pointcut resolves to an abstract pointcut."""
        for decl in self._advice_decls:
            try:
                self.resolve_pointcut(decl.pointcut_source)
            except DeploymentError:
                return True
        return False

    # -- lifecycle hooks ----------------------------------------------------

    def on_deploy(self) -> None:
        """Called after the aspect is deployed; override for setup."""

    def on_undeploy(self) -> None:
        """Called after the aspect is undeployed; override for teardown."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<aspect {type(self).__name__}>"
