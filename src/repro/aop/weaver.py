"""The weaver: class instrumentation and the deployment registry.

``weave(cls)`` rewrites a class in place — each plain method is replaced
by a *compiled dispatch plan* (see :mod:`repro.aop.plan`) and
construction is intercepted through ``__new__`` / ``__init__`` patches.
This is the runtime analogue of AspectJ's compile-time weaving, with one
twist: instead of generic dispatchers interpreting an epoch-cached
advice-chain table per call, each shadow's dispatcher is a closure
*specialised* to the advice that applies there (the inert / compiled
decision tree of :mod:`repro.aop.plan` — every pointcut is decided once
per shadow, so every chain compiles, whatever its kind mix and
ordering), recompiled only when a deploy/undeploy actually changes that
shadow's chain.  A static shadow→deployment match index
(built from ``Pointcut.matches_shadow``) keeps "(un)plug on the fly"
cheap under load: deploying an aspect whose pointcuts match ``Jacobi.*``
leaves every ``Primes.*`` plan untouched.

Invalidation rules (what a mutation recompiles or prunes):

* **deploy/undeploy** — only the shadows in the deployment's static
  match set recompile (each recompile also drops the shadow's cached
  batch plan, since batch plans bake the same chain);
* **``declare_parents``** — global: it rewrites the subtype relation
  that *other* deployments' ``Base+`` pointcuts match against, so every
  deployment's match index is rebuilt before recompiling;
* **unweave** — prunes every per-class artifact so long-lived processes
  don't pin ephemeral classes: the class's shadows (taking their call
  and batch plans with them), its ``PlanStats`` counters (call and
  batch), and its entries in live deployments' match sets;
* the weaver ``version`` bumps only *after* recompiled plans are
  installed, so :class:`~repro.aop.plan.MethodTable` consumers can never
  cache a pre-mutation entry under the new version.

Construction semantics (matching paper Section 4.1):

* an initialization chain compiles like a call chain
  (:func:`~repro.aop.plan.compile_ctor_runner`); the woven ``__new__``
  enters the compiled runner;
* around advice on ``initialization(C.new(..))`` may call ``proceed``
  several times — each call builds a **fresh fully-initialised instance**
  (the aspect-managed objects of Figure 4) — and may return any object to
  the client;
* passing a :class:`~repro.aop.plan.CtorPack` to a single ``proceed``
  performs **batched construction**: the innermost step builds one
  instance per argset and returns the list, so a duplication loop pays
  one traversal of the inner initialization chain per duplicate *set*
  instead of one per worker;
* constructions performed *inside advice bodies* (e.g. the partition
  aspect composing its own helpers) take the raw path and are NOT
  re-intercepted — "this pointcut only intercepts object creations in the
  core functionality";
* method **calls** made inside advice ARE re-intercepted — Figure 7's
  block 3 relies on recursive interception of ``filter`` to forward packs
  down the pipeline.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Any, Callable, Iterable

from repro.aop.advice import AdviceKind, BoundAdvice
from repro.aop.aspect import Aspect
from repro.aop.cflow import bypassing_construction, construction_bypass, in_advice
from repro.aop.intertype import IntertypeApplier
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.aop.plan import (
    PlanStats,
    Shadow,
    compile_call_impl,
    compile_ctor_runner,
)
from repro.aop.pointcut import Pointcut
from repro.errors import DeploymentError, WeaveError

__all__ = ["Weaver", "default_weaver", "weave", "unweave", "deploy", "undeploy",
           "undeploy_all", "unweave_all", "raw_construct", "is_woven"]

_MISSING = object()
_ORIGINALS_ATTR = "__aop_originals__"
_WOVEN_FLAG = "__aop_woven__"


# CPython quirk: once a class's ``__new__``/``__init__`` has been assigned
# a Python function, the type's tp_new/tp_init slots are permanently
# de-optimised to the dynamic-lookup wrappers.  Deleting the attribute then
# leaves ``object.__new__`` reachable through ``slot_tp_new``, which makes
# it reject constructor arguments ("object.__new__() takes exactly one
# argument") for every subclass.  Unweaving therefore installs these
# passthrough shims instead of deleting, restoring default construction
# semantics for classes that never defined the dunder themselves.


def _shim_new(cls: type, *args: Any, **kwargs: Any) -> Any:
    return object.__new__(cls)


def _shim_init(self: Any, *args: Any, **kwargs: Any) -> None:
    object.__init__(self)


_shim_new.__aop_shim__ = True  # type: ignore[attr-defined]
_shim_init.__aop_shim__ = True  # type: ignore[attr-defined]


class _ConstructionState(threading.local):
    def __init__(self) -> None:
        self.skip_init_ids: set[int] = set()


_RECONSTRUCTORS = frozenset({"copy", "copyreg", "pickle"})


def _called_from_reconstruction() -> bool:
    """Is ``cls.__new__(cls)`` being invoked by copy/pickle machinery?

    Object *reconstruction* (deepcopy, unpickling) calls ``__new__``
    directly with no arguments and must not run initialization advice —
    AspectJ's deserialization likewise skips constructors.  The Python
    implementations of :mod:`copy`/:mod:`pickle` are visible on the
    stack; the C unpickler is not (the serializer's construction bypass
    covers that path).
    """
    frame = sys._getframe(2)
    for _ in range(5):
        if frame is None:
            return False
        module = frame.f_globals.get("__name__", "")
        if module in _RECONSTRUCTORS:
            return True
        frame = frame.f_back
    return False


def _init_requires_args(init: Callable) -> bool:
    """Does ``init`` have required parameters beyond ``self``?"""
    code = getattr(init, "__code__", None)
    if code is None:
        return False
    required = code.co_argcount - 1 - len(getattr(init, "__defaults__", None) or ())
    return required > 0


class _Deployment:
    """Book-keeping for one deployed aspect instance."""

    __slots__ = ("aspect", "seq", "resolved", "intertype", "matched")

    def __init__(self, aspect: Aspect, seq: int):
        self.aspect = aspect
        self.seq = seq
        # list of (kind, pointcut, bound_func, decl_index)
        self.resolved: list[tuple[AdviceKind, Pointcut, Callable, int]] = []
        self.intertype = IntertypeApplier()
        #: shadows whose chains this deployment can affect (static index)
        self.matched: set[Shadow] = set()


class Weaver:
    """Instrumentation + deployment registry.

    A single :data:`default_weaver` serves normal use (class patches are
    global by nature); independent instances exist for tests that need an
    isolated registry over their own classes.
    """

    def __init__(self) -> None:
        self._woven: dict[type, dict[str, Any]] = {}
        self._deployments: list[_Deployment] = []
        self._epoch = 0
        self._seq = 0
        self._ctor_state = _ConstructionState()
        self._lock = threading.RLock()
        #: live shadows per woven class, keyed (name, kind)
        self._shadows: dict[type, dict[tuple[str, JoinPointKind], Shadow]] = {}
        #: plan-compiler counters + hooks (targeted-invalidation tests)
        self.plan_stats = PlanStats()

    @property
    def version(self) -> int:
        """Monotonic mutation generation: bumped by weave/unweave/deploy/
        undeploy.  Plan consumers (method tables) cache against it."""
        return self._epoch

    # ------------------------------------------------------------------
    # Weaving
    # ------------------------------------------------------------------

    def weave(self, cls: type, methods: Iterable[str] | None = None) -> type:
        """Instrument ``cls`` for interception.  Idempotent.

        ``methods`` restricts which methods get dispatchers; by default
        every plain function defined in the class body (no dunders, no
        static/class methods, no properties) plus construction.
        """
        if not isinstance(cls, type):
            raise WeaveError(f"can only weave classes, got {cls!r}")
        with self._lock:
            if cls in self._woven:
                return cls
            originals: dict[str, Any] = {}
            names = list(methods) if methods is not None else [
                name
                for name, attr in vars(cls).items()
                if not name.startswith("__")
                and isinstance(attr, type(lambda: None))
            ]
            shadows: dict[tuple[str, JoinPointKind], Shadow] = {}
            for name in names:
                attr = vars(cls).get(name, _MISSING)
                if attr is _MISSING:
                    raise WeaveError(f"{cls.__name__}.{name} is not defined in the class body")
                if not callable(attr):
                    raise WeaveError(f"{cls.__name__}.{name} is not callable")
                originals[name] = attr
                shadows[(name, JoinPointKind.CALL)] = Shadow(
                    cls, name, JoinPointKind.CALL, attr
                )
            ctor_shadow = Shadow(
                cls, "__init__", JoinPointKind.INITIALIZATION, None
            )
            shadows[("__init__", JoinPointKind.INITIALIZATION)] = ctor_shadow
            self._weave_construction(cls, originals, ctor_shadow)
            self._woven[cls] = originals
            self._shadows[cls] = shadows
            setattr(cls, _WOVEN_FLAG, True)
            setattr(cls, _ORIGINALS_ATTR, originals)
            for shadow in shadows.values():
                self._recompile_shadow(shadow)
            self._bump_epoch()  # after installs; see _apply_deployment_change
            # extend the static match index of live deployments so a later
            # undeploy knows these shadows may need recompiling
            for deployment in self._deployments:
                for shadow in shadows.values():
                    if self._deployment_matches(deployment, shadow):
                        deployment.matched.add(shadow)
            return cls

    def unweave(self, cls: type) -> None:
        """Restore ``cls`` to its pre-weave definition."""
        with self._lock:
            originals = self._woven.pop(cls, None)
            if originals is None:
                raise WeaveError(f"{cls.__name__} is not woven")
            dead = self._shadows.pop(cls, None)
            if dead:
                # prune the static match index: a long-lived deployment
                # must not pin dead shadows (and their classes) forever
                dead_set = set(dead.values())
                for deployment in self._deployments:
                    deployment.matched -= dead_set
            self.plan_stats.prune_class(cls)
            for name, attr in originals.items():
                if attr is _MISSING:
                    if name == "__new__":
                        cls.__new__ = _shim_new  # type: ignore[assignment]
                    elif name == "__init__":
                        cls.__init__ = _shim_init  # type: ignore[assignment]
                    else:
                        try:
                            delattr(cls, name)
                        except AttributeError:
                            pass
                else:
                    setattr(cls, name, attr)
            for flag in (_WOVEN_FLAG, _ORIGINALS_ATTR):
                try:
                    delattr(cls, flag)
                except AttributeError:
                    pass
            self._bump_epoch()

    def unweave_all(self) -> None:
        for cls in list(self._woven):
            self.unweave(cls)

    def is_woven(self, cls: type) -> bool:
        return cls in self._woven

    @property
    def woven_classes(self) -> tuple[type, ...]:
        return tuple(self._woven)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self, aspect: Aspect, targets: Iterable[type] = ()) -> Aspect:
        """Deploy an aspect instance: resolve its pointcuts, apply its
        inter-type declarations, and make its advice live.

        ``targets`` is a convenience that weaves the listed classes first
        (AspectJ weaves the whole program; we weave what we are told).
        """
        if not isinstance(aspect, Aspect):
            raise DeploymentError(f"expected an Aspect instance, got {aspect!r}")
        with self._lock:
            if any(d.aspect is aspect for d in self._deployments):
                raise DeploymentError(f"{aspect!r} is already deployed")
            for cls in targets:
                self.weave(cls)
            deployment = _Deployment(aspect, self._seq)
            self._seq += 1
            # Resolve all pointcuts up front so abstract aspects fail fast.
            for decl in type(aspect)._advice_decls:
                resolved = aspect.resolve_pointcut(decl.pointcut_source)
                bound = decl.func.__get__(aspect, type(aspect))
                deployment.resolved.append((decl.kind, resolved, bound, decl.index))
            try:
                for target_cls, name, func in type(aspect)._introductions:
                    deployment.intertype.introduce_member(
                        target_cls, name, func.__get__(aspect, type(aspect))
                        if _wants_self(func)
                        else func,
                    )
                for parent_decl in aspect.parents:
                    deployment.intertype.declare_parent(
                        parent_decl.target, parent_decl.base
                    )
            except Exception:
                deployment.intertype.revert()
                raise
            self._deployments.append(deployment)
            deployment.matched = {
                shadow
                for shadows in self._shadows.values()
                for shadow in shadows.values()
                if self._deployment_matches(deployment, shadow)
            }
            self._apply_deployment_change(
                deployment.matched,
                force_global=bool(deployment.intertype.declared_parents),
            )
            aspect.on_deploy()
            return aspect

    def undeploy(self, aspect: Aspect) -> None:
        """Remove a deployed aspect; its advice stops matching and its
        inter-type declarations are reverted."""
        with self._lock:
            for i, deployment in enumerate(self._deployments):
                if deployment.aspect is aspect:
                    del self._deployments[i]
                    had_parents = bool(deployment.intertype.declared_parents)
                    deployment.intertype.revert()
                    self._apply_deployment_change(
                        {s for s in deployment.matched if self._is_live(s)},
                        force_global=had_parents,
                    )
                    aspect.on_undeploy()
                    return
            raise DeploymentError(f"{aspect!r} is not deployed")

    def undeploy_all(self) -> None:
        for deployment in list(reversed(self._deployments)):
            self.undeploy(deployment.aspect)

    @property
    def deployed(self) -> tuple[Aspect, ...]:
        return tuple(d.aspect for d in self._deployments)

    def is_deployed(self, aspect: Aspect) -> bool:
        return any(d.aspect is aspect for d in self._deployments)

    # ------------------------------------------------------------------
    # Chain computation + plan compilation
    # ------------------------------------------------------------------

    def _bump_epoch(self) -> None:
        self._epoch += 1

    def _is_live(self, shadow: Shadow) -> bool:
        """Is ``shadow`` still the current shadow at its site?  (A class
        may have been unwoven — and even rewoven with fresh shadows —
        since a deployment indexed it.)"""
        return self._shadows.get(shadow.cls, {}).get(
            (shadow.name, shadow.kind)
        ) is shadow

    @staticmethod
    def _deployment_matches(deployment: _Deployment, shadow: Shadow) -> bool:
        """Static index test: can any advice of ``deployment`` apply at
        ``shadow``?"""
        return any(
            resolved.matches_shadow(shadow.cls, shadow.name, shadow.kind)
            for _, resolved, _, _ in deployment.resolved
        )

    def _apply_deployment_change(
        self, matched: set[Shadow], force_global: bool = False
    ) -> None:
        """Recompile after a deploy/undeploy: only the statically matched
        shadows — unless the change invalidates the index itself.

        One change is global by nature: intertype ``declare_parents``
        alters the subtype relation that *other* deployments' ``Base+``
        pointcuts match against, so their cached match sets must be
        rebuilt too.
        """
        if force_global:
            all_shadows = [
                shadow
                for shadows in self._shadows.values()
                for shadow in shadows.values()
            ]
            for deployment in self._deployments:
                deployment.matched = {
                    shadow
                    for shadow in all_shadows
                    if self._deployment_matches(deployment, shadow)
                }
            to_recompile: Iterable[Shadow] = all_shadows
        else:
            to_recompile = matched
        for shadow in to_recompile:
            self._recompile_shadow(shadow)
        # bump only after the recompiled plans are installed: a version
        # must never be observable while class attributes still predate
        # it (MethodTable keys its cache entries by observed version)
        self._bump_epoch()

    def _recompile_shadow(self, shadow: Shadow) -> None:
        """Recompute a shadow's chain and install its specialised impl.
        The cached batch plan is invalidated alongside: it bakes the same
        chain, so it must be recompiled lazily on next batched use."""
        shadow.entries = self._compute_chain(shadow)
        shadow.compiles += 1
        shadow.batch_impl = None
        if shadow.kind is JoinPointKind.CALL:
            impl = compile_call_impl(shadow)
            shadow.impl = impl
            setattr(shadow.cls, shadow.name, impl)
        else:
            shadow.impl = compile_ctor_runner(shadow)
        self.plan_stats.record(shadow)

    def _compute_chain(self, shadow: Shadow) -> tuple[BoundAdvice, ...]:
        """The advice matching ``shadow``, outermost first."""
        entries = [
            BoundAdvice(
                advice_kind,
                bound,
                deployment.aspect,
                (-deployment.aspect.precedence, deployment.seq, index),
            )
            for deployment in self._deployments
            for advice_kind, resolved, bound, index in deployment.resolved
            if resolved.matches_shadow(shadow.cls, shadow.name, shadow.kind)
        ]
        entries.sort(key=lambda e: e.sort_key)
        return tuple(entries)

    # ------------------------------------------------------------------
    # Construction weaving
    # ------------------------------------------------------------------

    def _weave_construction(
        self, cls: type, originals: dict[str, Any], ctor_shadow: Shadow
    ) -> None:
        weaver = self
        orig_new = vars(cls).get("__new__", _MISSING)
        orig_init = vars(cls).get("__init__", _MISSING)
        # shims left by a previous unweave count as "not defined"
        if getattr(orig_new, "__aop_shim__", False):
            orig_new = _MISSING
        if getattr(orig_init, "__aop_shim__", False):
            orig_init = _MISSING
        originals["__new__"] = orig_new
        originals["__init__"] = orig_init
        # effective originals (may be inherited; may be a previous
        # unweave's shim, which is behaviourally the object default)
        real_new = cls.__new__
        real_init = cls.__init__

        def raw_new(kls: type, args: tuple, kwargs: dict) -> Any:
            if real_new is object.__new__:
                return object.__new__(kls)
            return real_new(kls, *args, **kwargs)

        init_needs_args = _init_requires_args(real_init)

        def woven_new(kls: type, *args: Any, **kwargs: Any) -> Any:
            if (
                kls is not cls
                or construction_bypass()
                or in_advice()
            ):
                return raw_new(kls, args, kwargs)
            # inert plan: no initialization advice applies here, so skip
            # the reconstruction frame-walk entirely
            runner = ctor_shadow.impl
            if runner is None:
                return raw_new(kls, args, kwargs)
            if not args and not kwargs and (
                init_needs_args or _called_from_reconstruction()
            ):
                # bare __new__(cls): object reconstruction, not a client
                # construction — never an initialization joinpoint
                return raw_new(kls, args, kwargs)
            # never from advice: constructions inside advice took the
            # raw path above, so jp.from_advice keeps its False default
            jp = JoinPoint(
                JoinPointKind.INITIALIZATION, cls, "__init__", None, args, kwargs
            )
            result = runner(jp, None, args, kwargs)
            if isinstance(result, cls):
                weaver._ctor_state.skip_init_ids.add(id(result))
            return result

        def woven_init(self_obj: Any, *args: Any, **kwargs: Any) -> Any:
            skip = weaver._ctor_state.skip_init_ids
            ident = id(self_obj)
            if ident in skip:
                skip.discard(ident)
                return None
            return real_init(self_obj, *args, **kwargs)

        woven_new.__aop_dispatcher__ = True  # type: ignore[attr-defined]
        woven_init.__aop_dispatcher__ = True  # type: ignore[attr-defined]
        if real_init is not object.__init__ or orig_init is not _MISSING:
            functools.update_wrapper(woven_init, real_init)
        cls.__new__ = woven_new  # type: ignore[assignment]
        cls.__init__ = woven_init  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Raw construction helper
    # ------------------------------------------------------------------

    def raw_construct(self, cls: type, *args: Any, **kwargs: Any) -> Any:
        """Construct an instance bypassing initialization interception —
        the explicit way to build "aspect managed objects" outside of
        ``proceed``."""
        with bypassing_construction():
            return cls(*args, **kwargs)

    # ------------------------------------------------------------------
    # Test / lifecycle support
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Undeploy every aspect and unweave every class."""
        self.undeploy_all()
        self.unweave_all()
        self.plan_stats.clear()


def _wants_self(func: Callable) -> bool:
    """Introduced members whose first parameter is named ``self`` become
    methods of the *target* class; if the first parameter is named
    ``aspect`` the member is bound to the aspect instance instead (so the
    introduction can reach aspect state)."""
    code = getattr(func, "__code__", None)
    if code is None or code.co_argcount == 0:
        return False
    return code.co_varnames[0] == "aspect"


# ---------------------------------------------------------------------------
# Default weaver + module-level convenience API
# ---------------------------------------------------------------------------

default_weaver = Weaver()


def weave(cls: type, methods: Iterable[str] | None = None) -> type:
    """Weave ``cls`` with the default weaver (see :meth:`Weaver.weave`)."""
    return default_weaver.weave(cls, methods)


def unweave(cls: type) -> None:
    default_weaver.unweave(cls)


def unweave_all() -> None:
    default_weaver.unweave_all()


def deploy(aspect: Aspect, targets: Iterable[type] = ()) -> Aspect:
    """Deploy with the default weaver (see :meth:`Weaver.deploy`)."""
    return default_weaver.deploy(aspect, targets)


def undeploy(aspect: Aspect) -> None:
    default_weaver.undeploy(aspect)


def undeploy_all() -> None:
    default_weaver.undeploy_all()


def raw_construct(cls: type, *args: Any, **kwargs: Any) -> Any:
    return default_weaver.raw_construct(cls, *args, **kwargs)


def is_woven(cls: type) -> bool:
    return default_weaver.is_woven(cls)
