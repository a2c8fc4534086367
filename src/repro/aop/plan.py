"""Compiled dispatch plans.

Per (shadow, deployment state) the weaver asks :func:`compile_call_impl`
for a closure specialised to exactly the advice that applies there.

Every advice is ``around`` and every pointcut is decided once per shadow
(see :mod:`repro.aop.pointcut`), so every chain compiles — there is no
interpreted tier.  :func:`compile_call_impl` picks one of two shapes:

1. **inert** — no advice matches: install a *clone* of the original
   function — same code object, so a woven-inert call costs the same as
   a plain call (the clone is a distinct object so weaving stays
   observable and unweave can restore the true original).
2. **around** — any chain: :func:`_all_around_impl`, whose joinpoint
   carries the chain in its own slots and steps through the levels
   with slot loads and stores (``JoinPoint.proceed``) instead of
   allocating one closure per level per call.  Plans are labelled
   ``single-around`` / ``all-around`` for :class:`PlanStats`.

Every advised plan also carries its **serving plan**, the chain without
the aspects whose ``applies_server_side`` is false: a call made while a
middleware executes a servant (:class:`~repro.aop.cflow.server_dispatch`)
runs it (paper Figure 13).  With no advice left it runs the innermost
callable one advice level up, where the innermost ``proceed`` would.

Construction (:func:`compile_ctor_runner`) and packs
(:func:`compile_batch_impl`) run on the same joinpoint: the plan stores
the advice functions and an innermost callable — the construction, or
the batch core that applies the method to every piece — in the
joinpoint's slots and enters level 0 through ``JoinPoint._enter``.  The
call plan is that entry inlined into one frame.  A captured continuation
(``jp.capture_proceed()``) replays through the same entry, on a copy of
the joinpoint.  So there is one continuation and one level step.

Which mutation recompiles or prunes what is the weaver's rule (see
:mod:`repro.aop.weaver`): only the shadows a deployment can match.
:class:`PlanStats` counts compilations per shadow and per plan kind,
with a hook list so tests can assert exactly that.

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
  attribute: one compiled call dispatches a whole pack of pieces, running the
  advice chain **once per pack** around a :class:`BatchJoinPoint`
  (pack-level args, item count, merged piece view) instead of once per
  item.  Batch plans are compiled lazily per shadow, cached on the
  shadow, and invalidated by the same recompiles as the call plan.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
from threading import get_ident
from typing import TYPE_CHECKING, Any, Callable

from repro.aop.advice import BoundAdvice
from repro.aop.cflow import _LOCAL as _FLOW_LOCAL
from repro.aop.cflow import entered_advice
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
_INIT = JoinPointKind.INITIALIZATION
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

    def _clone(self) -> "BatchJoinPoint":
        jp = super()._clone()
        jp.pieces = self.pieces
        return jp

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
                 "batch_impl")

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


def _plan_kind(entries: tuple[BoundAdvice, ...]) -> str:
    """The :class:`PlanStats` label for a compiled chain."""
    return "single-around" if len(entries) == 1 else "all-around"


def _chains(entries: tuple[BoundAdvice, ...]) -> tuple[tuple, tuple]:
    """The advice functions of a chain and of its serving plan (the
    advice of aspects that apply server side), outermost first."""
    return (
        tuple(entry.func for entry in entries),
        tuple(entry.func for entry in entries if entry.aspect.applies_server_side),
    )


def _all_around_impl(
    cls: type,
    name: str,
    original: Callable,
    entries: tuple[BoundAdvice, ...],
) -> Callable:
    """The call plan of an advised shadow — the paper's hot shape (one
    optimisation/distribution/concurrency stack around a compute
    method, dispatched millions of times).

    Behaviourally ``JoinPoint(...)._enter(0, args, kwargs)`` over the
    original, flattened into one frame with every per-call constant held
    in closure cells: the joinpoint is built with ``__new__`` and slot
    stores (no ``__init__`` frame), armed with one int store, and level
    0 is entered by calling its advice function directly.  The flow
    state it loads anyway says whether a servant is being served, and
    so which of the two chains runs.
    """
    funcs, served = _chains(entries)
    n, sn = len(funcs), len(served)

    @functools.wraps(original)
    def impl(self_obj: Any, *args: Any, **kwargs: Any) -> Any:
        flow = _FLOW_LOCAL.flow
        depth = flow.advice_depth
        if flow.serving:
            if not sn:
                flow.advice_depth = depth + 1
                try:
                    return original(self_obj, *args, **kwargs)
                finally:
                    flow.advice_depth = depth
            chain, k = served, sn
        else:
            chain, k = funcs, n
        jp = JoinPoint.__new__(JoinPoint)
        jp.kind = _CALL
        jp.cls = cls
        jp.name = name
        jp.target = self_obj
        jp.args = args
        jp.kwargs = kwargs
        jp.from_advice = depth > 0
        jp._funcs = chain
        jp._n = k
        jp._orig = original
        jp._i = 0
        jp._aargs = args
        jp._akwargs = kwargs
        jp._armed_tid = get_ident()
        flow.advice_depth = depth + 1
        try:
            return chain[0](jp)
        finally:
            flow.advice_depth = depth
            jp._armed_tid = -1

    return impl


def compile_call_impl(shadow: Shadow) -> Callable:
    """Compile the specialised dispatcher for a CALL shadow's current
    chain (``shadow.entries`` must be fresh): inert, or the fused
    around plan (module docstring)."""
    original = shadow.original
    entries = shadow.entries
    if not entries:
        return _inert_impl(original)
    impl = _all_around_impl(shadow.cls, shadow.name, original, entries)
    return _mark(impl, original, kind=_plan_kind(entries))


def compile_ctor_runner(shadow: Shadow) -> Callable | None:
    """Compile an INITIALIZATION shadow's chain: ``run(args, kwargs)``
    enters the chain on a fresh initialization joinpoint whose innermost
    callable builds the instance.  ``None`` when no advice applies (the
    woven ``__new__`` then takes the raw path).

    The innermost builds under the construction bypass, so the inner
    construction is not intercepted again; a :class:`CtorPack` through
    ``proceed`` is a *batched* construction — one chain pass builds one
    instance per argset and returns the list."""
    if not shadow.entries:
        return None
    cls = shadow.cls
    funcs, served = _chains(shadow.entries)

    def construct(_target: None, *args: Any, **kwargs: Any) -> Any:
        flow = _FLOW_LOCAL.flow
        flow.construction_bypass += 1
        try:
            if len(args) == 1 and not kwargs and isinstance(args[0], CtorPack):
                return [cls(*pa, **pk) for pa, pk in args[0].argsets]
            return cls(*args, **kwargs)
        finally:
            flow.construction_bypass -= 1

    def run(args: tuple, kwargs: dict) -> Any:
        chain = served if _FLOW_LOCAL.flow.serving else funcs
        if not chain:
            with entered_advice():
                return construct(None, *args, **kwargs)
        # never from advice: constructions inside advice take the raw
        # path, so jp.from_advice keeps its False default
        jp = JoinPoint(_INIT, cls, "__init__", None, args, kwargs)
        jp._funcs = chain
        jp._n = len(chain)
        jp._orig = construct
        return jp._enter(0, args, kwargs)

    return run


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
    applies the woven method to every piece: inert packs run a bare
    loop (zero joinpoint allocations), any chain one run entered
    through :meth:`JoinPoint._enter` with ``batch_core`` innermost.
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

    funcs, served = _chains(entries)

    def advised_batch(self_obj: Any, pieces: Any) -> Any:
        flow = _FLOW_LOCAL.flow
        chain = served if flow.serving else funcs
        if not chain:
            with entered_advice():
                return batch_core(self_obj, pieces)
        jp = BatchJoinPoint(cls, name, self_obj, tuple(pieces))
        jp.from_advice = flow.advice_depth > 0
        jp._funcs = chain
        jp._n = len(chain)
        # jp.args is (pieces,), so a (possibly proceed-substituted) pack
        # reaches the core as its one argument
        jp._orig = batch_core
        return jp._enter(0, jp.args, {})

    return _tag_batch(advised_batch, _plan_kind(entries))


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
