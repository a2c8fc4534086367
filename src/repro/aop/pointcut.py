"""Pointcut AST.

A pointcut selects a set of joinpoint shadows.  Every pointcut this
weaver supports is decided statically, once per shadow:
:meth:`Pointcut.matches_shadow` answers ``True`` or ``False`` for a
``(class, method-name, kind)`` triple, and the weaver compiles each
shadow's dispatch plan from the answers.  Nothing is evaluated per call.

The supported subset is what the paper's modules intercept — a method
call (``call(PrimeFilter.filter(..))``) and an object creation
(``initialization(PrimeFilter.new(..))``) — combined with ``&&``, ``||``
and ``!`` (:class:`And`, :class:`Or`, :class:`Not`).  AspectJ's dynamic
designators (``within``, ``target``, ``args``, ``cflow``, ...) are not
part of it: the parser refuses them.  Advice that must tell core calls
from calls made by advice reads ``jp.from_advice``, this weaver's
``!adviceexecution()``.
"""

from __future__ import annotations

from repro.aop.joinpoint import JoinPointKind
from repro.aop.signature import SignaturePattern

__all__ = [
    "Pointcut",
    "Call",
    "Initialization",
    "And",
    "Or",
    "Not",
]


class Pointcut:
    """Base class for all pointcut AST nodes."""

    def matches_shadow(self, cls: type, name: str, kind: JoinPointKind) -> bool:
        """Does this pointcut select the shadow ``(cls, name, kind)``?"""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


class _KindedSignature(Pointcut):
    """Common base for call/initialization."""

    kind: JoinPointKind
    label: str

    def __init__(self, signature: SignaturePattern):
        self.signature = signature

    def matches_shadow(self, cls: type, name: str, kind: JoinPointKind) -> bool:
        if kind is not self.kind:
            return False
        if self.kind is JoinPointKind.INITIALIZATION:
            return self.signature.type_pattern.matches_class(cls)
        return self.signature.matches_shadow(cls, name)

    def __str__(self) -> str:
        return f"{self.label}({self.signature})"


class Call(_KindedSignature):
    """``call(Type.method(..))`` — interception of a method call."""

    kind = JoinPointKind.CALL
    label = "call"


class Initialization(_KindedSignature):
    """``initialization(Type.new(..))`` — construction interception."""

    kind = JoinPointKind.INITIALIZATION
    label = "initialization"


class And(Pointcut):
    def __init__(self, left: Pointcut, right: Pointcut):
        self.left = left
        self.right = right

    def matches_shadow(self, cls: type, name: str, kind: JoinPointKind) -> bool:
        return self.left.matches_shadow(cls, name, kind) and (
            self.right.matches_shadow(cls, name, kind)
        )

    def __str__(self) -> str:
        return f"({self.left} && {self.right})"


class Or(Pointcut):
    def __init__(self, left: Pointcut, right: Pointcut):
        self.left = left
        self.right = right

    def matches_shadow(self, cls: type, name: str, kind: JoinPointKind) -> bool:
        return self.left.matches_shadow(cls, name, kind) or (
            self.right.matches_shadow(cls, name, kind)
        )

    def __str__(self) -> str:
        return f"({self.left} || {self.right})"


class Not(Pointcut):
    def __init__(self, inner: Pointcut):
        self.inner = inner

    def matches_shadow(self, cls: type, name: str, kind: JoinPointKind) -> bool:
        return not self.inner.matches_shadow(cls, name, kind)

    def __str__(self) -> str:
        return f"!{self.inner}"
