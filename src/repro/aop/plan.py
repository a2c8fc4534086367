"""Compiled dispatch plans.

The weaver used to install one *generic* dispatcher per woven method:
every call re-fetched the advice chain from an epoch-checked cache, then
interpreted it.  This module replaces interpretation with **compilation**
— per (shadow, deployment-state) the weaver asks :func:`compile_call_impl`
for a closure specialised to exactly the advice that applies there.

Decision tree (applied top-down by :func:`compile_call_impl`; the first
matching shape wins).  Every pointcut is decided once per shadow (see
:mod:`repro.aop.pointcut`), so every chain compiles — there is no
interpreted tier:

1. **inert** — no advice matches: install a *clone* of the original
   function — same code object, so a woven-inert call costs the same as
   a plain call (the clone is a distinct object so weaving stays
   observable and unweave can restore the true original).
2. **compiled** — any chain, whatever the kind mix and ordering: the
   sorted chain is partitioned into alternating segments of non-around
   and around entries.  Each non-around segment folds into compile-time
   try/finally frames (:func:`_wrap_step`, no per-call kind dispatch);
   each around segment becomes one :class:`_AroundCont` run — a single
   mutable continuation object armed **once per segment** in the
   joinpoint's per-thread proceed map, stepping through its levels with
   slot loads/stores instead of allocating one closure per level per
   call.  Segments nest in chain order, so a before/after sorted *below*
   an around (the non-separable shape) simply lands in the try/finally
   frames of the around segment beneath it.  Plans are labelled
   ``single-around`` / ``all-around`` / ``mixed`` for
   :class:`PlanStats`; a chain of arounds only takes the fused
   :func:`_all_around_impl`, the rest share :func:`_static_impl`.

Construction compiles the same way: an initialization shadow's chain
folds with :func:`_compile_static_runner` around a tail that builds the
instance (:func:`compile_ctor_runner`), and the woven ``__new__`` enters
that runner.

Captured continuations (``jp.capture_proceed()``) cannot hand out the
live :class:`_AroundCont` — its level state mutates as the run unwinds —
so capture returns a frozen :class:`_CapturedCont` snapshot that replays
the remainder of the chain on whichever thread invokes it.

Invalidation rules: plans are recompiled only when the deployment state
*at that shadow* changes — the weaver keeps a static shadow→deployment
match index (built from :meth:`Pointcut.matches_shadow`) so deploying an
aspect whose pointcuts can never match a shadow leaves that shadow's
plan untouched.  One change is global: ``declare_parents`` (rewrites the
subtype relation other deployments' ``Base+`` pointcuts match against,
forcing a full re-index).  Unweaving a class prunes every per-class
artifact: its shadows (and with them the cached batch plans), its
:class:`PlanStats` counters (call *and* batch) and its entries in the
deployments' match index.  :class:`PlanStats` counts compilations per
shadow (with a per-kind histogram) and exposes a hook list so tests (and
benchmarks) can assert exactly that.

The same Plan abstraction is what the other layers consume:

* :class:`MethodTable` — the middlewares' per-servant-class dispatch
  table.  Entries are the compiled class attributes, refreshed only when
  the weaver's version moves, so the server side stops resolving methods
  per request; :meth:`MethodTable.invoke_batch` serves batched requests
  through the compiled batch plan.
* the bound attribute — the partition skeletons fetch a woven entry
  point with ``getattr`` once per worker instead of re-walking lookup
  and the advice chain per work item.  Because the compiled plan *is*
  the class attribute, the bound attribute is the whole artifact.
* :func:`batched_entry` — the pack-granular sibling of the bound
  attribute:
  one compiled call dispatches a whole pack of pieces, running the
  advice chain **once per pack** around a :class:`BatchJoinPoint`
  (pack-level args, item count, merged piece view) instead of once per
  item.  Batch plans are compiled lazily per shadow, cached on the
  shadow, and invalidated by the same recompiles as the call plan; they
  follow the same decision tree.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
from itertools import groupby
from threading import get_ident
from typing import TYPE_CHECKING, Any, Callable

from repro.aop import joinpoint as _joinpoint_module
from repro.aop.advice import AdviceKind, BoundAdvice
from repro.aop.cflow import _LOCAL as _FLOW_LOCAL
from repro.aop.joinpoint import JoinPoint, JoinPointKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.aop.weaver import Weaver

__all__ = [
    "Shadow",
    "PlanStats",
    "MethodTable",
    "BatchJoinPoint",
    "CtorPack",
    "ctor_pack_of",
    "compile_call_impl",
    "compile_batch_impl",
    "compile_ctor_runner",
    "batched_entry",
    "piece_view",
]

_CALL = JoinPointKind.CALL
_MISS = object()


def piece_view(piece: Any) -> tuple[tuple, dict]:
    """Normalise one batch item to ``(args, kwargs)``.

    Accepts the partition layer's ``CallPiece``-shaped objects (anything
    with ``args``/``kwargs`` attributes) as well as plain 2-tuples — the
    wire shape middlewares ship for batched requests.  Tuples are
    recognised by exact type so the hot batch paths (the batch runner's
    ``batch_core`` and the pack-aware optimisation aspects, each of
    which view every piece per dispatch) never pay exception-based
    attribute dispatch.
    """
    if type(piece) is tuple:
        args, kwargs = piece
        return args, kwargs or {}
    try:
        return piece.args, piece.kwargs or {}
    except AttributeError:
        args, kwargs = piece
        return args, kwargs or {}


class BatchJoinPoint(JoinPoint):
    """One joinpoint standing for a whole *pack* of calls.

    Where a per-item dispatch allocates one :class:`JoinPoint` per piece
    and runs the advice chain once per piece, a batched dispatch builds a
    single ``BatchJoinPoint`` for the pack and runs the chain **once**:

    * ``pieces`` — the pack items, each a ``CallPiece``-shaped object or
      an ``(args, kwargs)`` pair (see :func:`piece_view`);
    * ``args`` — the pack-level view ``(pieces,)``: around advice may
      call ``proceed(new_pieces)`` to substitute the whole pack, exactly
      like per-call ``proceed`` substitutes arguments;
    * ``proceed()`` (and the innermost original) returns the **list of
      per-item results** in piece order.
    """

    __slots__ = ("pieces",)

    def __init__(self, cls: type, name: str, target: Any, pieces: tuple):
        super().__init__(_CALL, cls, name, target, (pieces,), {})
        self.pieces = pieces

    @property
    def item_count(self) -> int:
        """Number of items in the pack."""
        return len(self.pieces)

    def merged_view(self) -> tuple[tuple, dict]:
        """The merged piece view: concatenated positional arguments and
        merged keyword arguments across all items, in piece order."""
        merged_args: list = []
        merged_kwargs: dict = {}
        for piece in self.pieces:
            args, kwargs = piece_view(piece)
            merged_args.extend(args)
            merged_kwargs.update(kwargs)
        return tuple(merged_args), merged_kwargs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BatchJoinPoint {self.signature} x{len(self.pieces)}>"


class CtorPack:
    """A pack of constructor argument sets — batched *construction*.

    Duplication loops (farm/pipeline worker creation) used to call
    ``jp.proceed(*args_i)`` once per duplicate, paying one traversal of
    the remaining initialization chain — and, under distribution, one
    create-remote advice execution — *per worker*.  Passing a
    ``CtorPack`` to a single ``proceed`` instead runs the inner chain
    **once per duplicate set**: the weaver's innermost construction step
    recognises the pack and builds one fully-initialised instance per
    argset, returning the list in argset order.  Inner advice that cares
    about construction (the distribution aspect) detects the pack via
    :func:`ctor_pack_of` and handles the whole set in its single pass.

    ``argsets`` is a tuple of ``(args, kwargs)`` pairs, one per
    duplicate, in duplicate-index order.
    """

    __slots__ = ("argsets",)

    def __init__(self, argsets: Any):
        self.argsets = tuple(
            (tuple(args), dict(kwargs)) for args, kwargs in argsets
        )

    def __len__(self) -> int:
        return len(self.argsets)

    def __iter__(self) -> Any:
        return iter(self.argsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CtorPack x{len(self.argsets)}>"


def ctor_pack_of(jp: Any) -> "CtorPack | None":
    """The :class:`CtorPack` travelling through an initialization
    joinpoint, or ``None`` for an ordinary per-instance construction.
    Advice on construction joinpoints that needs to act per instance
    (e.g. the distribution aspect's create-remote) calls this to decide
    whether ``proceed`` will hand back one instance or a list."""
    args = jp.args
    if len(args) == 1 and not jp.kwargs and isinstance(args[0], CtorPack):
        return args[0]
    return None


class Shadow:
    """One compiled joinpoint shadow: ``(cls, name, kind)`` plus its
    current plan (advice chain + specialised impl)."""

    __slots__ = ("cls", "name", "kind", "original", "impl", "entries",
                 "compiles", "batch_impl")

    def __init__(self, cls: type, name: str, kind: JoinPointKind,
                 original: Callable | None):
        self.cls = cls
        self.name = name
        self.kind = kind
        self.original = original
        #: the installed callable (class attribute) for CALL shadows; the
        #: compiled chain runner for INITIALIZATION shadows (None = inert)
        self.impl: Callable | None = None
        #: advice chain applicable here, outermost first
        self.entries: tuple[BoundAdvice, ...] = ()
        #: number of times this shadow's plan was compiled
        self.compiles = 0
        #: lazily compiled pack-granular plan (see :func:`batched_entry`);
        #: reset to None whenever the call plan recompiles
        self.batch_impl: Callable | None = None

    @property
    def key(self) -> tuple[type, str, JoinPointKind]:
        return (self.cls, self.name, self.kind)

    @property
    def inert(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "inert" if self.inert else f"{len(self.entries)} advice"
        return f"<Shadow {self.cls.__name__}.{self.name} [{self.kind}] {state}>"


class PlanStats:
    """Compilation counters + hooks for the plan compiler.

    ``hooks`` are called with the :class:`Shadow` on every call-plan
    compilation — the regression tests use this to prove that deploying
    an aspect only recompiles the shadows its pointcuts can match.

    Beyond the per-shadow compile counts, the stats track the *shape*
    each compilation picked (``kinds`` / ``batch_kinds`` histograms over
    the plan-kind labels the compiler stamps on every impl).
    """

    def __init__(self) -> None:
        self.hooks: list[Callable[[Shadow], None]] = []
        #: one keyed counter over call- and batch-plan compilations
        #: (:func:`batched_entry`) alike: ``(batch, "compiles", None)``
        #: totals, ``(batch, "shadow", (cls, name, kind))`` per shadow and
        #: ``(batch, "kind", label)`` the plan-kind histogram
        self.counter: Counter = Counter()

    def record(self, shadow: Shadow, batch: bool = False) -> None:
        counter = self.counter
        counter[batch, "compiles", None] += 1
        counter[batch, "shadow", shadow.key] += 1
        impl = shadow.batch_impl if batch else shadow.impl
        kind = getattr(impl, "__aop_plan_kind__", None)
        if kind is not None:
            counter[batch, "kind", kind] += 1
        if not batch:
            for hook in self.hooks:
                hook(shadow)

    def _view(self, batch: bool, field: str) -> dict:
        return {
            key: n for (b, f, key), n in self.counter.items() if b is batch and f == field
        }

    by_shadow = property(lambda self: self._view(False, "shadow"))
    batch_by_shadow = property(lambda self: self._view(True, "shadow"))

    def count(self, cls: type, name: str,
              kind: JoinPointKind = JoinPointKind.CALL) -> int:
        return self.counter[False, "shadow", (cls, name, kind)]

    def batch_count(self, cls: type, name: str,
                    kind: JoinPointKind = JoinPointKind.CALL) -> int:
        return self.counter[True, "shadow", (cls, name, kind)]

    def snapshot(self) -> dict[tuple[type, str, JoinPointKind], int]:
        return self.by_shadow

    def summary(self) -> dict[str, Any]:
        """Read-only scalar snapshot: compile counts and the per-kind plan
        histograms.  ``interpreter_calls`` is 0 by construction — every
        chain compiles — and stays in the snapshot for its readers."""
        return {
            "compiles": self.counter[False, "compiles", None],
            "batch_compiles": self.counter[True, "compiles", None],
            "kinds": self._view(False, "kind"),
            "batch_kinds": self._view(True, "kind"),
            "interpreter_calls": 0,
        }

    def prune_class(self, cls: type) -> None:
        """Drop counters for an unwoven class so long-lived processes
        weaving ephemeral classes don't pin them (and grow) forever.
        Covers call-plan and batch-plan counters alike."""
        for key in [k for k in self.counter if k[1] == "shadow" and k[2][0] is cls]:
            del self.counter[key]

    def clear(self) -> None:
        self.counter.clear()


# ---------------------------------------------------------------------------
# Impl compilation
# ---------------------------------------------------------------------------


def _mark(impl: Callable, original: Callable, *, inert: bool = False,
          kind: str | None = None) -> Callable:
    impl.__aop_dispatcher__ = True  # type: ignore[attr-defined]
    impl.__wrapped__ = original  # type: ignore[attr-defined]
    if inert:
        impl.__aop_inert__ = True  # type: ignore[attr-defined]
    if kind is not None:
        impl.__aop_plan_kind__ = kind  # type: ignore[attr-defined]
    return impl


def _inert_impl(original: Callable) -> Callable:
    """The woven-inert plan: behaviourally *is* the original.

    For plain functions we clone the function object (same code, globals,
    defaults and closure), so calling it costs exactly a plain call; the
    clone is a distinct object so ``weave`` remains observable and
    ``unweave`` can still restore the genuine original.  Non-function
    callables get a thin trampoline preserving the dispatcher calling
    convention.
    """
    if isinstance(original, types.FunctionType):
        clone = types.FunctionType(
            original.__code__,
            original.__globals__,
            original.__name__,
            original.__defaults__,
            original.__closure__,
        )
        clone.__kwdefaults__ = original.__kwdefaults__
        functools.update_wrapper(clone, original)
        return _mark(clone, original, inert=True, kind="inert")

    @functools.wraps(original)
    def impl(self_obj: Any, *args: Any, **kwargs: Any) -> Any:
        return original(self_obj, *args, **kwargs)

    return _mark(impl, original, inert=True, kind="inert")


class _AroundCont:
    """The live continuation of one *around segment*: a single mutable
    object armed once per segment run in ``jp._proceed_map``, which
    ``JoinPoint.proceed`` steps for whichever level is currently
    executing.

    A closure-per-level design (the test oracle's ``run_chain``)
    allocates one ``proceed`` closure per around level per call and
    re-arms the per-thread proceed map at every level transition.  On a
    five-around stack that is five closure allocations plus ~4 map
    operations and ~20 ``get_ident`` calls per dispatch.  Here the armed map entry never changes
    during the run; stepping a level is a handful of slot loads/stores:

    * ``i``/``args``/``kwargs`` — the *armed* level's index and argument
      view.  ``proceed`` (which inlines the step) invokes level
      ``i + 1`` and, on success, restores the armed view, so a second
      ``proceed()`` replays.  On an exception the armed view is rolled
      back to the caller level and ``jp.args`` is deliberately left as
      the failing level set it.
    * ``tail`` — the compiled remainder below this segment: the original
      call, or folded before/after frames (possibly wrapping the next
      around segment of a non-separable chain).

    ``flow.advice_depth`` is maintained by the segment *run* (±1 for the
    whole segment, see :func:`_around_run`) rather than per level — every
    reader treats it as a boolean ("is advice on the stack?"), and the
    balanced hoist keeps it zero outside dispatch.
    """

    __slots__ = ("funcs", "n", "tail", "orig", "jp", "self_obj", "i",
                 "args", "kwargs")

    def __init__(self, funcs: tuple[Callable, ...], n: int, tail: Callable,
                 jp: JoinPoint, self_obj: Any):
        self.funcs = funcs
        self.n = n
        self.tail = tail
        # when the tail is nothing but the original call, the inlined
        # proceed step skips the tail frame and calls it directly
        self.orig = getattr(tail, "__aop_original__", None)
        self.jp = jp
        self.self_obj = self_obj
        # placeholder armed state; _invoke() sets the real view before
        # any advice body can observe it
        self.i = 0
        self.args: tuple = ()
        self.kwargs: dict = {}

    def _invoke(self, i: int, args: tuple, kwargs: dict) -> Any:
        """Run level ``i`` with ``args``/``kwargs`` as the current view
        (the entry point for level 0 and for captured replays)."""
        jp = self.jp
        jp.args = args
        jp.kwargs = kwargs
        if i == self.n:
            return self.tail(jp, self.self_obj, args, kwargs)
        prev_i, prev_args, prev_kwargs = self.i, self.args, self.kwargs
        self.i = i
        self.args = args
        self.kwargs = kwargs
        try:
            return self.funcs[i](jp)
        except BaseException:
            # unwind: roll the armed view back to the caller level so an
            # outer advice that catches can still proceed()
            self.i = prev_i
            self.args = prev_args
            self.kwargs = prev_kwargs
            raise

    def capture(self) -> "_CapturedCont":
        """A frozen snapshot of the armed level for deferred execution
        (see :meth:`JoinPoint.capture_proceed`) — the live object cannot
        be handed out because its state mutates as the run unwinds."""
        return _CapturedCont(
            self.funcs, self.n, self.tail, self.jp, self.self_obj,
            self.i, self.args, self.kwargs,
        )


# Hand the continuation class to the joinpoint module:
# ``JoinPoint.proceed`` type-checks the armed continuation against it
# and inlines the level step (one frame per level instead of two).
_joinpoint_module._AROUND_CONT = _AroundCont


class _CapturedCont:
    """A captured ``proceed``: the remainder of an around segment frozen
    at capture time, runnable later on any thread.

    Replaying arms the invoking thread's own proceed-map slot (never
    another thread's), the innermost replay runs the tail at the
    invoker's advice depth (a spawned activity running the original is
    *not* "from advice"), and a successful replay leaves ``jp.args``
    restored to the captured view with the capture re-armed on the
    invoking thread — unless that thread still has a *live* continuation
    armed (a synchronous replay from inside the original run), which
    keeps owning ``proceed``.
    """

    __slots__ = ("funcs", "n", "tail", "jp", "self_obj", "i", "args",
                 "kwargs")

    def __init__(self, funcs: tuple[Callable, ...], n: int, tail: Callable,
                 jp: JoinPoint, self_obj: Any, i: int, args: tuple,
                 kwargs: dict):
        self.funcs = funcs
        self.n = n
        self.tail = tail
        self.jp = jp
        self.self_obj = self_obj
        self.i = i
        self.args = args
        self.kwargs = kwargs

    def capture(self) -> "_CapturedCont":
        return self

    def __call__(self, *new_args: Any, **new_kwargs: Any) -> Any:
        jp = self.jp
        use_args = new_args if new_args else self.args
        use_kwargs = new_kwargs if new_kwargs else self.kwargs
        nxt = self.i + 1
        tid = get_ident()
        if nxt >= self.n:
            jp.args = use_args
            jp.kwargs = use_kwargs
            result = self.tail(jp, self.self_obj, use_args, use_kwargs)
        else:
            cont = _AroundCont(self.funcs, self.n, self.tail, jp,
                               self.self_obj)
            pm = jp._proceed_map
            saved = pm.get(tid)
            fused_live = jp._armed_tid == tid
            if fused_live:
                # live fused run on this thread: the replay owns proceed
                # for its duration — the fused fast path must not shadow
                # the replay continuation armed below
                jp._armed_tid = -1
            pm[tid] = cont
            flow = _FLOW_LOCAL.flow
            flow.advice_depth += 1
            try:
                result = cont._invoke(nxt, use_args, use_kwargs)
            finally:
                flow.advice_depth -= 1
                if fused_live:
                    jp._armed_tid = tid
                if saved is None:
                    pm.pop(tid, None)
                else:
                    pm[tid] = saved
        jp.args = self.args
        jp.kwargs = self.kwargs
        if jp._proceed_map.get(tid) is None:
            # deferred (post-run) replay: stay armed so the capture can
            # be replayed again.  During a live run the armed live
            # continuation keeps ownership (its state at this instant is
            # identical to the capture's).
            jp._proceed_map[tid] = self
        return result


# Hand the captured-continuation class to the joinpoint module as well:
# ``JoinPoint.capture_proceed`` builds one directly when the continuation
# state is fused into the joinpoint (no ``_AroundCont`` exists to ask).
_joinpoint_module._CAPTURED_CONT = _CapturedCont


class _FusedJoinPoint(JoinPoint):
    """A joinpoint whose around-segment continuation is *fused into it*.

    The all-around plan is the hot shape, and after inlining the
    continuation step into ``JoinPoint.proceed`` the remaining per-call
    overhead was the continuation object itself: one allocation, one
    proceed-map store + pop, and a dict lookup plus class check on every
    ``proceed``.  For a pure-around chain the continuation holds nothing
    the joinpoint could not hold, so this subclass grows the seven
    continuation slots and the plan arms dispatch by writing the calling
    thread's id into ``_armed_tid`` (a base-class slot, ``-1`` =
    disarmed).  ``proceed`` checks ``_armed_tid == get_ident()`` first —
    a slot load and int compare — and steps on these slots directly.

    The proceed map still exists (empty) for captured replays and for
    cross-thread callers, which take the dict path as before.
    """

    __slots__ = ("_funcs", "_n", "_tail", "_orig", "_i", "_aargs",
                 "_akwargs")


def _around_run(
    funcs: tuple[Callable, ...],
    tail: Callable[[JoinPoint, Any, tuple, dict], Any],
) -> Callable[[JoinPoint, Any, tuple, dict], Any]:
    """One compiled around segment: ``run(jp, self_obj, args, kwargs)``
    arms a fresh :class:`_AroundCont` on the calling thread (one map
    write + one restore for the whole segment), bumps the advice depth
    once, and enters level 0.  ``tail`` runs below the innermost level —
    the original, or the next folded segment of a non-separable chain."""
    n = len(funcs)

    def run(jp: JoinPoint, self_obj: Any, args: tuple, kwargs: dict) -> Any:
        cont = _AroundCont(funcs, n, tail, jp, self_obj)
        pm = jp._proceed_map
        tid = get_ident()
        saved = pm.get(tid)
        pm[tid] = cont
        flow = _FLOW_LOCAL.flow
        flow.advice_depth += 1
        try:
            return cont._invoke(0, args, kwargs)
        finally:
            flow.advice_depth -= 1
            if saved is None:
                pm.pop(tid, None)
            else:
                pm[tid] = saved

    return run


def _wrap_step(kind: AdviceKind, func: Callable, inner: Callable) -> Callable:
    """One compile-time frame of a non-around segment: the before/after
    entry's semantics as a dedicated closure around ``inner``.  The
    try/finally nesting is built here, at compile time, so runtime pays
    neither kind dispatch nor generator-based context managers."""
    if kind is AdviceKind.BEFORE:

        def step(jp: JoinPoint, self_obj: Any, args: tuple, kwargs: dict) -> Any:
            flow = _FLOW_LOCAL.flow
            flow.advice_depth += 1
            try:
                func(jp)
            finally:
                flow.advice_depth -= 1
            return inner(jp, self_obj, args, kwargs)

    elif kind is AdviceKind.AFTER:

        def step(jp: JoinPoint, self_obj: Any, args: tuple, kwargs: dict) -> Any:
            try:
                return inner(jp, self_obj, args, kwargs)
            finally:
                flow = _FLOW_LOCAL.flow
                flow.advice_depth += 1
                try:
                    func(jp)
                finally:
                    flow.advice_depth -= 1

    elif kind is AdviceKind.AFTER_RETURNING:

        def step(jp: JoinPoint, self_obj: Any, args: tuple, kwargs: dict) -> Any:
            result = inner(jp, self_obj, args, kwargs)
            jp.result = result
            flow = _FLOW_LOCAL.flow
            flow.advice_depth += 1
            try:
                func(jp)
            finally:
                flow.advice_depth -= 1
            return result

    else:  # AdviceKind.AFTER_THROWING — arounds never reach _wrap_step

        def step(jp: JoinPoint, self_obj: Any, args: tuple, kwargs: dict) -> Any:
            try:
                return inner(jp, self_obj, args, kwargs)
            except BaseException as exc:
                jp.exception = exc
                flow = _FLOW_LOCAL.flow
                flow.advice_depth += 1
                try:
                    func(jp)
                finally:
                    flow.advice_depth -= 1
                raise

    return step


def _original_tail(original: Callable) -> Callable:
    """The innermost runner frame: invoke the original method.  The
    ``__aop_original__`` tag lets :class:`_AroundCont` (and the inlined
    proceed step) bypass this frame and call the original directly."""

    def tail(jp: JoinPoint, self_obj: Any, args: tuple, kwargs: dict) -> Any:
        return original(self_obj, *args, **kwargs)

    tail.__aop_original__ = original  # type: ignore[attr-defined]
    return tail


def _static_kind(entries: tuple[BoundAdvice, ...]) -> str:
    """The :class:`PlanStats` label for a compiled chain."""
    if all(e.kind is AdviceKind.AROUND for e in entries):
        return "single-around" if len(entries) == 1 else "all-around"
    return "mixed"


def _compile_static_runner(
    entries: tuple[BoundAdvice, ...],
    tail: Callable[[JoinPoint, Any, tuple, dict], Any],
) -> Callable[[JoinPoint, Any, tuple, dict], Any]:
    """Fold a chain (outermost first) into nested runner frames around
    ``tail``.

    The chain is partitioned into maximal segments of consecutive
    around / non-around entries and folded innermost-out: non-around
    segments become compile-time :func:`_wrap_step` frames, around
    segments become :func:`_around_run` continuation runs.  Because the
    fold follows chain order, non-separable shapes — a before or after
    sorted *below* an around — simply land in the tail of the around
    segment above them, in chain order (the segment's ``_invoke``
    refreshes ``jp.args`` before every tail entry, so the lower frames
    always observe the possibly-substituted view).
    """
    segments = [
        (is_around, tuple(group))
        for is_around, group in groupby(
            entries, key=lambda e: e.kind is AdviceKind.AROUND
        )
    ]
    runner = tail
    for is_around, segment in reversed(segments):
        if is_around:
            runner = _around_run(
                tuple(entry.func for entry in segment), runner
            )
        else:
            for entry in reversed(segment):
                runner = _wrap_step(entry.kind, entry.func, runner)
    return runner


def _static_impl(
    cls: type,
    name: str,
    original: Callable,
    runner: Callable[[JoinPoint, Any, tuple, dict], Any],
) -> Callable:
    """The dispatch wrapper shared by compiled mixed-segment plans: build
    the joinpoint and enter the compiled ``runner``."""

    @functools.wraps(original)
    def impl(self_obj: Any, *args: Any, **kwargs: Any) -> Any:
        jp = JoinPoint(_CALL, cls, name, self_obj, args, kwargs)
        jp.from_advice = _FLOW_LOCAL.flow.advice_depth > 0
        return runner(jp, self_obj, args, kwargs)

    return impl


def _all_around_impl(
    cls: type,
    name: str,
    original: Callable,
    entries: tuple[BoundAdvice, ...],
) -> Callable:
    """The fused plan for a chain that is *only* around advice — the
    paper's hot shape (one optimisation/distribution/concurrency stack
    around a compute method, dispatched millions of times).

    Behaviourally identical to ``_static_impl`` over a single
    :func:`_around_run` segment, but flattened into one frame with every
    per-call constant held in closure cells and a single allocation done
    via ``__new__`` + slot stores:

    * the joinpoint is a :class:`_FusedJoinPoint` built inline (no
      ``__init__`` frame) — the continuation state lives in its slots,
      so there is no continuation object to allocate at all;
    * arming is one int store (``jp._armed_tid = get_ident()``) instead
      of a proceed-map store + pop; ``JoinPoint.proceed`` takes its
      slot-compare fast path;
    * level 0 is entered by calling its advice func directly: the fused
      armed view already carries the entry arguments.
    """
    funcs = tuple(entry.func for entry in entries)
    n = len(funcs)
    funcs0 = funcs[0]
    tail = _original_tail(original)

    @functools.wraps(original)
    def impl(self_obj: Any, *args: Any, **kwargs: Any) -> Any:
        jp = _FusedJoinPoint.__new__(_FusedJoinPoint)
        jp.kind = _CALL
        jp.cls = cls
        jp.name = name
        jp.target = self_obj
        jp.args = args
        jp.kwargs = kwargs
        jp._proceed_map = {}
        jp.result = None
        jp.exception = None
        flow = _FLOW_LOCAL.flow
        depth = flow.advice_depth
        jp.from_advice = depth > 0
        jp._funcs = funcs
        jp._n = n
        jp._tail = tail
        jp._orig = original
        jp._i = 0
        jp._aargs = args
        jp._akwargs = kwargs
        jp._armed_tid = get_ident()
        flow.advice_depth = depth + 1
        try:
            return funcs0(jp)
        finally:
            flow.advice_depth = depth
            jp._armed_tid = -1

    return impl


def compile_call_impl(shadow: Shadow) -> Callable:
    """Compile the specialised dispatcher for a CALL shadow's current
    chain (``shadow.entries`` must be fresh): the inert / compiled
    decision tree described in the module docstring."""
    original = shadow.original
    entries = shadow.entries
    if not entries:
        return _inert_impl(original)
    if all(entry.kind is AdviceKind.AROUND for entry in entries):
        # kept because the five-aspect-stack gate pays for it: through
        # the segment-nested path below its numerator read 2.16-2.83 ms
        # against 1.84-2.07 ms per 1000 calls (ROADMAP 3(4), PR 18)
        impl = _all_around_impl(shadow.cls, shadow.name, original, entries)
    else:
        runner = _compile_static_runner(entries, _original_tail(original))
        impl = _static_impl(shadow.cls, shadow.name, original, runner)
    return _mark(impl, original, kind=_static_kind(entries))


def compile_ctor_runner(shadow: Shadow) -> Callable | None:
    """Compile an INITIALIZATION shadow's chain: ``run(jp, None, args,
    kwargs)`` folds the chain with :func:`_compile_static_runner`, the
    same as a call chain, around a tail that builds the instance.
    ``None`` when no advice applies (the woven ``__new__`` then takes
    the raw path).

    The tail builds under the construction bypass, so the inner
    construction is not intercepted again; a :class:`CtorPack` through
    ``proceed`` is a *batched* construction — one chain pass builds one
    instance per argset and returns the list."""
    if not shadow.entries:
        return None
    cls = shadow.cls

    def construct(jp: JoinPoint, self_obj: Any, args: tuple,
                  kwargs: dict) -> Any:
        flow = _FLOW_LOCAL.flow
        flow.construction_bypass += 1
        try:
            if len(args) == 1 and not kwargs and isinstance(args[0], CtorPack):
                return [cls(*pa, **pk) for pa, pk in args[0].argsets]
            return cls(*args, **kwargs)
        finally:
            flow.construction_bypass -= 1

    return _compile_static_runner(shadow.entries, construct)


# ---------------------------------------------------------------------------
# Plan consumers for the other layers
# ---------------------------------------------------------------------------


def _tag_batch(impl: Callable, kind: str) -> Callable:
    impl.__aop_plan_kind__ = kind  # type: ignore[attr-defined]
    return impl


def compile_batch_impl(shadow: Shadow) -> Callable[[Any, Any], list]:
    """Compile the pack-granular plan for a CALL shadow.

    The returned ``impl(self_obj, pieces) -> [results]`` runs the advice
    chain once around a :class:`BatchJoinPoint` whose innermost original
    applies the woven method to every piece.  Specialisation follows the
    call-plan decision tree: inert packs run a bare loop (zero joinpoint
    allocations), and any chain — separable or not — runs the same
    folded segment runner as the call plan.
    """
    original = shadow.original
    cls, name = shadow.cls, shadow.name
    entries = shadow.entries

    def batch_core(self_obj: Any, pieces: Any) -> list:
        results = []
        for piece in pieces:
            args, kwargs = piece_view(piece)
            results.append(original(self_obj, *args, **kwargs))
        return results

    if not entries:
        return _tag_batch(batch_core, "inert")

    # jp.args is (pieces,): the tail unpacks the (possibly
    # proceed-substituted) pack back into the batch core
    def batch_tail(jp: JoinPoint, self_obj: Any, args: tuple,
                   kwargs: dict) -> list:
        return batch_core(self_obj, args[0])

    runner = _compile_static_runner(entries, batch_tail)

    def advised_batch(self_obj: Any, pieces: Any) -> Any:
        jp = BatchJoinPoint(cls, name, self_obj, tuple(pieces))
        jp.from_advice = _FLOW_LOCAL.flow.advice_depth > 0
        return runner(jp, self_obj, jp.args, {})

    return _tag_batch(advised_batch, _static_kind(entries))


def _plain_batch(func: Callable) -> Callable[[Any], list]:
    def entry(pieces: Any) -> list:
        results = []
        for piece in pieces:
            args, kwargs = piece_view(piece)
            results.append(func(*args, **kwargs))
        return results

    return entry


def batched_entry(
    obj: Any, name: str, weaver: "Weaver | None" = None
) -> Callable[[Any], list]:
    """The compiled *batched* entry point for ``obj.name``.

    Returns ``entry(pieces) -> [results]`` dispatching a whole pack of
    pieces (``CallPiece``-shaped objects or ``(args, kwargs)`` pairs)
    through one compiled call: the advice chain runs once per pack with
    a :class:`BatchJoinPoint` instead of once per item.  Batch plans are
    compiled on first request, cached on the shadow, and invalidated by
    the same weave/deploy recompiles as the call plan.

    Objects whose method does not resolve to a shadow of ``weaver``
    (unwoven classes, subclass or instance overrides, classes woven by a
    different weaver) fall back to per-item dispatch through the bound
    attribute — unbatched, but semantically identical.
    """
    if weaver is None:
        from repro.aop.weaver import default_weaver

        weaver = default_weaver
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None and name in instance_dict:
        return _plain_batch(instance_dict[name])
    impl = _resolve_batch_impl(weaver, type(obj), name)
    if impl is None:
        return _plain_batch(getattr(obj, name))
    return functools.partial(impl, obj)


def _resolve_batch_impl(
    weaver: "Weaver", cls: type, name: str
) -> Callable[[Any, Any], list] | None:
    """The (lazily compiled) batch plan for ``cls.name``, or None when
    the method does not resolve to a shadow of ``weaver`` and callers
    must fall back to per-item dispatch."""
    shadow = None
    for klass in cls.__mro__:
        if name in vars(klass):
            shadows = weaver._shadows.get(klass)
            shadow = shadows.get((name, _CALL)) if shadows else None
            break
    if shadow is None or shadow.original is None:
        return None
    impl = shadow.batch_impl
    if impl is None:
        impl = compile_batch_impl(shadow)
        shadow.batch_impl = impl
        weaver.plan_stats.record(shadow, batch=True)
    return impl


class MethodTable:
    """Per-servant-class dispatch table backed by compiled plans.

    The middlewares used to resolve ``getattr(servant, method)`` on every
    request.  A :class:`MethodTable` caches the class-level entry (which,
    for woven classes, is the compiled plan impl) and invalidates only
    when the weaver's version moves — i.e. when weave/unweave/deploy/
    undeploy may have changed class attributes.

    Entries that are not plain functions (properties, descriptors,
    instance attributes) fall back to per-call ``getattr`` so dispatch
    semantics are unchanged.

    Known trade-off: the table observes only *weaver* mutations.  Class
    attributes changed behind the weaver's back — direct monkeypatching
    of a servant class, or weaving it through a non-default
    :class:`~repro.aop.weaver.Weaver` while the table watches another —
    keep serving the cached entry until the watched weaver's version
    moves.  Servants are expected to be (re)woven via the weaver the
    table was built with (the middlewares use the default weaver).
    """

    __slots__ = ("cls", "weaver", "_version", "_cache", "_batch_cache")

    def __init__(self, cls: type, weaver: "Weaver | None" = None):
        if weaver is None:
            from repro.aop.weaver import default_weaver

            weaver = default_weaver
        self.cls = cls
        self.weaver = weaver
        self._version = weaver.version
        self._cache: dict[tuple[int, str], Callable | None] = {}
        self._batch_cache: dict[tuple[int, str], Callable | None] = {}

    def lookup(self, name: str) -> Callable | None:
        """The cached unbound entry for ``name``; ``None`` means "resolve
        dynamically" (non-function attribute or absent).

        Entries are keyed by the weaver version observed *before*
        resolving, so a thread preempted across a deploy can never plant
        a stale pre-deploy entry under the new version (the weaver bumps
        its version only after the recompiled plans are installed).  A
        racing write under an outdated version key is harmless garbage,
        cleared at the next version move.
        """
        version = self.weaver.version
        if version != self._version:
            self._cache.clear()
            self._batch_cache.clear()
            self._version = version
        key = (version, name)
        entry = self._cache.get(key, _MISS)
        if entry is _MISS:
            entry = self._resolve(name)
            self._cache[key] = entry
        return entry

    def _resolve(self, name: str) -> Callable | None:
        for klass in self.cls.__mro__:
            attr = vars(klass).get(name, _MISS)
            if attr is not _MISS:
                if isinstance(attr, types.FunctionType):
                    return attr
                return None  # descriptor/odd attribute: dynamic dispatch
        return None

    def invoke(self, obj: Any, name: str, args: tuple = (),
               kwargs: dict | None = None) -> Any:
        """Dispatch ``obj.name(*args, **kwargs)`` through the table."""
        kwargs = kwargs or {}
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is not None and name in instance_dict:
            return instance_dict[name](*args, **kwargs)
        func = self.lookup(name)
        if func is None:
            return getattr(obj, name)(*args, **kwargs)
        return func(obj, *args, **kwargs)

    def invoke_batch(self, obj: Any, name: str, pieces: Any) -> list:
        """Dispatch a pack of calls through the compiled batch plan.

        The server-side half of a batched request: one advice pass (one
        :class:`BatchJoinPoint`) covers the whole pack, and the list of
        per-item results ships back in a single reply.  The resolved
        batch plan is cached against the weaver version like
        :meth:`lookup` entries, so serving packs stops re-resolving the
        method per request.
        """
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is not None and name in instance_dict:
            return _plain_batch(instance_dict[name])(pieces)
        version = self.weaver.version
        if version != self._version:
            self._cache.clear()
            self._batch_cache.clear()
            self._version = version
        key = (version, name)
        impl = self._batch_cache.get(key, _MISS)
        if impl is _MISS:
            impl = _resolve_batch_impl(self.weaver, self.cls, name)
            self._batch_cache[key] = impl
        if impl is None:
            return _plain_batch(getattr(obj, name))(pieces)
        return impl(obj, pieces)
