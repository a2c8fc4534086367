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

The joinpoint is also the chain's only continuation.  Every compiled plan
(call, construction, pack; :mod:`repro.aop.plan`) stores its advice
functions and its innermost callable in the joinpoint's slots and enters
level 0 through :meth:`JoinPoint._enter`, which arms the joinpoint on the
calling thread.  ``proceed`` steps from the armed level to the next with
slot loads and stores; a thread the joinpoint is not armed on gets
:class:`~repro.errors.ProceedError`.  :meth:`JoinPoint.capture_proceed`
hands the rest of the chain to another activity: the capture replays on
a *copy* of the joinpoint, so the replay never shares an argument view or
an armed thread with the run that captured it.
"""

from __future__ import annotations

import enum
from threading import get_ident
from typing import Any, Callable

from repro.aop.cflow import _LOCAL as _FLOW_LOCAL
from repro.errors import ProceedError

__all__ = ["JoinPointKind", "JoinPoint"]


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

    The private slots hold the run: ``_funcs`` (the advice functions,
    outermost first), ``_n`` (their count), ``_orig`` (what runs below
    the innermost level, called ``_orig(target, *args, **kwargs)``),
    ``_i``/``_aargs``/``_akwargs`` (the armed level and its argument
    view) and ``_armed_tid`` (the thread the run is armed on, ``-1``
    when disarmed).
    """

    __slots__ = (
        "kind",
        "cls",
        "name",
        "target",
        "args",
        "kwargs",
        "from_advice",
        "_funcs",
        "_n",
        "_orig",
        "_i",
        "_aargs",
        "_akwargs",
        "_armed_tid",
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
        #: Snapshot taken at dispatch: was this joinpoint reached from
        #: advice code?  Advice that must act on core calls only tests
        #: it — this weaver's ``!adviceexecution()``.
        self.from_advice: bool = False
        self._armed_tid: int = -1

    # -- identity ---------------------------------------------------------

    @property
    def signature(self) -> str:
        """Human-readable ``Class.method`` signature of the joinpoint."""
        if self.kind is JoinPointKind.INITIALIZATION:
            return f"{self.cls.__name__}.new"
        return f"{self.cls.__name__}.{self.name}"

    # -- chain control -----------------------------------------------------

    def _enter(self, i: int, args: tuple, kwargs: dict) -> Any:
        """Run level ``i`` with ``args``/``kwargs`` as the current view.

        The entry of every plan (level 0) and of every captured replay:
        arms this joinpoint on the calling thread and holds the advice
        depth one above the caller's for the whole run (every reader
        treats the depth as "is advice on the stack?").  Past the last
        level it runs the innermost callable at the caller's depth — a
        spawned activity running the original is not "from advice"."""
        self.args = args
        self.kwargs = kwargs
        if i == self._n:
            return self._orig(self.target, *args, **kwargs)
        self._i = i
        self._aargs = args
        self._akwargs = kwargs
        self._armed_tid = get_ident()
        flow = _FLOW_LOCAL.flow
        depth = flow.advice_depth
        flow.advice_depth = depth + 1
        try:
            return self._funcs[i](self)
        finally:
            flow.advice_depth = depth
            self._armed_tid = -1

    def proceed(self, *args: Any, **kwargs: Any) -> Any:
        """Continue with the rest of the advice chain / original code.

        With no arguments the current ``args``/``kwargs`` are re-used.
        Passing positional or keyword arguments substitutes them for the
        remainder of the chain (AspectJ ``proceed(..)`` semantics).
        For initialization joinpoints, each invocation constructs and
        returns a *fresh, fully initialised* instance.

        The armed level ``i`` proceeds into level ``i + 1`` or, past the
        last advice, into the innermost callable.  On success the armed
        view is restored, so a second ``proceed()`` replays; on an
        exception it is rolled back to this level (``jp.args``
        deliberately stays as the failing level set it).
        """
        if self._armed_tid != get_ident():
            raise ProceedError(
                f"proceed() called outside an active around advice for {self.signature}"
            )
        i = self._i
        nxt = i + 1
        cargs = self._aargs
        ckwargs = self._akwargs
        if not args and not kwargs:
            # no substitution: every argument view is already current,
            # only the armed level index moves
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

    def capture_proceed(self) -> Callable[..., Any]:
        """Capture the continuation for *deferred* execution.

        An around advice that hands the rest of the chain to another
        activity (the concurrency aspect spawning a thread) must capture
        the continuation while the advice body is still active — after
        the advice returns, :meth:`proceed` is disarmed.  The returned
        callable stays valid and runs the remainder of the chain on
        whichever thread invokes it, with ``proceed`` semantics for its
        arguments.  Each replay runs on a fresh copy of this joinpoint:
        the capturing run's ``args``/``kwargs`` and armed thread are
        never touched by it, and the copy is disarmed when the replay
        returns.
        """
        if self._armed_tid != get_ident():
            raise ProceedError(
                f"capture_proceed() outside an active around advice for {self.signature}"
            )
        return _Captured(self, self._i, self._aargs, self._akwargs)

    def _clone(self) -> "JoinPoint":
        """A disarmed copy carrying this joinpoint's identity and chain
        (the replay target of a capture)."""
        cls = self.__class__
        jp = cls.__new__(cls)
        jp.kind = self.kind
        jp.cls = self.cls
        jp.name = self.name
        jp.target = self.target
        jp.from_advice = self.from_advice
        jp._funcs = self._funcs
        jp._n = self._n
        jp._orig = self._orig
        jp._armed_tid = -1
        return jp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JoinPoint {self.kind} {self.signature} args={self.args!r}>"


class _Captured:
    """A captured ``proceed``: the level and argument view armed at
    capture time, replayed on a copy of the joinpoint (see
    :meth:`JoinPoint.capture_proceed`)."""

    __slots__ = ("jp", "i", "args", "kwargs")

    def __init__(self, jp: JoinPoint, i: int, args: tuple, kwargs: dict):
        self.jp = jp
        self.i = i
        self.args = args
        self.kwargs = kwargs

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.jp._clone()._enter(
            self.i + 1, args if args else self.args, kwargs if kwargs else self.kwargs
        )
