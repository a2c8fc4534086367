"""Joinpoint model.

A *joinpoint* is a well-defined event in program execution that advice can
intercept.  Mirroring the subset of AspectJ the paper uses (Section 3), we
support two kinds:

* ``CALL`` — invocation of a method on a woven class;
* ``INITIALIZATION`` — construction of an instance of a woven class
  (AspectJ's ``Class.new(..)`` pattern).

The :class:`JoinPoint` object handed to advice carries full reflective
information plus :meth:`JoinPoint.proceed`, which continues with the rest
of the advice chain (and ultimately the original behaviour).  Around advice
may call ``proceed`` zero, one or *many* times — the paper's partition
aspect calls the constructor joinpoint's ``proceed`` once per pipeline
stage to create its "aspect managed objects".
"""

from __future__ import annotations

import enum
from threading import get_ident
from typing import Any, Callable

from repro.errors import ProceedError

__all__ = ["JoinPointKind", "JoinPoint"]

#: The compiled plans' around continuation class, injected by
#: :mod:`repro.aop.plan` at import time (a set-after-import hand-off —
#: ``plan`` imports this module, so it cannot be imported here).
#: :meth:`JoinPoint.proceed` type-checks the armed continuation against
#: it and *inlines* the level step: one Python frame per around level
#: instead of two, and no re-packing of the argument views.
_AROUND_CONT: type | None = None

#: The frozen-continuation class used by :meth:`JoinPoint.capture_proceed`
#: for *fused* all-around plans (see ``_FusedJoinPoint`` in
#: :mod:`repro.aop.plan`); injected the same way as ``_AROUND_CONT``.
_CAPTURED_CONT: type | None = None


class JoinPointKind(enum.Enum):
    """The kinds of interceptable events."""

    CALL = "call"
    INITIALIZATION = "initialization"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class JoinPoint:
    """Reflective description of one intercepted event.

    Attributes
    ----------
    kind:
        :class:`JoinPointKind` of the event.
    cls:
        The woven class owning the intercepted method / constructor.
    name:
        Method name (``"__init__"`` for initialization joinpoints).
    target:
        Receiver instance for ``CALL`` joinpoints, ``None`` for
        ``INITIALIZATION`` (the instance does not exist yet).
    args, kwargs:
        The *current* arguments.  ``proceed`` with no arguments re-uses
        them; ``proceed(x, y)`` replaces the positional arguments, exactly
        like AspectJ's ``proceed``.
    """

    __slots__ = (
        "kind",
        "cls",
        "name",
        "target",
        "args",
        "kwargs",
        "_proceed_map",
        "_armed_tid",
        "from_advice",
    )

    def __init__(
        self,
        kind: JoinPointKind,
        cls: type,
        name: str,
        target: Any,
        args: tuple,
        kwargs: dict,
    ):
        self.kind = kind
        self.cls = cls
        self.name = name
        self.target = target
        self.args = args
        self.kwargs = kwargs
        # Continuations are tracked *per thread*: an async concurrency
        # aspect may hand the rest of the chain to a spawned activity
        # while the original thread unwinds — neither may clobber the
        # other's view of ``proceed``.
        self._proceed_map: dict[int, Callable] = {}
        #: Thread whose around continuation is fused into this
        #: joinpoint (see ``_FusedJoinPoint`` in repro.aop.plan); ``-1``
        #: when dispatch goes through the proceed map instead.
        self._armed_tid: int = -1
        #: Snapshot taken at dispatch: was this joinpoint reached from
        #: advice code?  Advice that must act on core calls only tests
        #: it — this weaver's ``!adviceexecution()``.
        self.from_advice: bool = False

    # -- identity ---------------------------------------------------------

    @property
    def signature(self) -> str:
        """Human-readable ``Class.method`` signature of the joinpoint."""
        if self.kind is JoinPointKind.INITIALIZATION:
            return f"{self.cls.__name__}.new"
        return f"{self.cls.__name__}.{self.name}"

    # -- chain control -----------------------------------------------------

    def proceed(self, *args: Any, **kwargs: Any) -> Any:
        """Continue with the rest of the advice chain / original code.

        With no arguments the current ``args``/``kwargs`` are re-used.
        Passing positional or keyword arguments substitutes them for the
        remainder of the chain (AspectJ ``proceed(..)`` semantics).
        For initialization joinpoints, each invocation constructs and
        returns a *fresh, fully initialised* instance.
        """
        tid = get_ident()
        if self._armed_tid == tid:
            # Fused all-around plan: the continuation state lives in
            # slots on this joinpoint itself (see ``_FusedJoinPoint`` in
            # repro.aop.plan) — no dict lookup, no continuation object.
            i = self._i
            nxt = i + 1
            cargs = self._aargs
            ckwargs = self._akwargs
            if not args and not kwargs:
                self.args = cargs
                self.kwargs = ckwargs
                if nxt == self._n:
                    return self._orig(self.target, *cargs, **ckwargs)
                self._i = nxt
                try:
                    result = self._funcs[nxt](self)
                except BaseException:
                    self._i = i
                    raise
                # an inner level that caught a failure below it left
                # jp.args as the failing level set them
                self.args = cargs
                self.kwargs = ckwargs
                self._i = i
                return result
            use_args = args if args else cargs
            use_kwargs = kwargs if kwargs else ckwargs
            self.args = use_args
            self.kwargs = use_kwargs
            if nxt == self._n:
                result = self._orig(self.target, *use_args, **use_kwargs)
            else:
                self._i = nxt
                self._aargs = use_args
                self._akwargs = use_kwargs
                try:
                    result = self._funcs[nxt](self)
                except BaseException:
                    self._i = i
                    self._aargs = cargs
                    self._akwargs = ckwargs
                    raise
            self.args = cargs
            self.kwargs = ckwargs
            self._i = i
            self._aargs = cargs
            self._akwargs = ckwargs
            return result
        p = self._proceed_map.get(tid)
        if p is None:
            raise ProceedError(
                f"proceed() called outside an active around advice for {self.signature}"
            )
        if p.__class__ is not _AROUND_CONT:
            # a captured continuation replaying on this thread
            return p(*args, **kwargs)
        # The step of the compiled around continuation
        # (``_AroundCont`` in repro.aop.plan), inlined here: the armed
        # level ``i`` proceeds into level ``i + 1`` or, past the
        # last around, into the tail.  On success the armed view
        # is restored so a second ``proceed()`` replays; on an exception
        # it is rolled back to this level (``jp.args`` deliberately
        # stays as the failing level set it).
        i = p.i
        nxt = i + 1
        cargs = p.args
        ckwargs = p.kwargs
        if not args and not kwargs:
            # no substitution: every argument view is already current,
            # only the armed level index moves
            self.args = cargs
            self.kwargs = ckwargs
            if nxt == p.n:
                orig = p.orig
                if orig is not None:  # bare original: skip the tail frame
                    return orig(p.self_obj, *cargs, **ckwargs)
                return p.tail(self, p.self_obj, cargs, ckwargs)
            p.i = nxt
            try:
                result = p.funcs[nxt](self)
            except BaseException:
                p.i = i
                raise
            self.args = cargs
            self.kwargs = ckwargs
            p.i = i
            return result
        use_args = args if args else cargs
        use_kwargs = kwargs if kwargs else ckwargs
        self.args = use_args
        self.kwargs = use_kwargs
        if nxt == p.n:
            orig = p.orig
            if orig is not None:
                result = orig(p.self_obj, *use_args, **use_kwargs)
            else:
                result = p.tail(self, p.self_obj, use_args, use_kwargs)
        else:
            p.i = nxt
            p.args = use_args
            p.kwargs = use_kwargs
            try:
                result = p.funcs[nxt](self)
            except BaseException:
                p.i = i
                p.args = cargs
                p.kwargs = ckwargs
                raise
        self.args = cargs
        self.kwargs = ckwargs
        p.i = i
        p.args = cargs
        p.kwargs = ckwargs
        return result

    def capture_proceed(self) -> Callable[..., Any]:
        """Capture the continuation for *deferred* execution.

        An around advice that hands the rest of the chain to another
        activity (the concurrency aspect spawning a thread) must capture
        the continuation while the advice body is still active — after
        the advice returns, :meth:`proceed` is disarmed.  The returned
        callable stays valid and runs the remainder of the chain on
        whichever thread invokes it.
        """
        tid = get_ident()
        if self._armed_tid == tid:
            # Fused all-around plan: freeze the slot-resident state into
            # a replayable continuation (same shape the non-fused plans
            # capture from their ``_AroundCont``).
            return _CAPTURED_CONT(  # type: ignore[misc]
                self._funcs,
                self._n,
                self._tail,
                self,
                self.target,
                self._i,
                self._aargs,
                self._akwargs,
            )
        proceed = self._proceed_map.get(tid)
        if proceed is None:
            raise ProceedError(
                f"capture_proceed() outside an active around advice for {self.signature}"
            )
        # Construction and pack plans arm one mutable continuation object
        # per run; its state changes as the run unwinds, so capture asks
        # it for a frozen snapshot.
        return proceed.capture()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JoinPoint {self.kind} {self.signature} args={self.args!r}>"
