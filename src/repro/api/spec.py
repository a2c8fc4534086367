"""Declarative stack description: :class:`StackSpec`.

One value object describes a complete parallelisation stack — the
paper's Table-1 rows become data instead of wiring code::

    StackSpec(
        target=PrimeFilter,
        work="filter",                      # or a full call(..) pointcut
        splitter=workload.farm_splitter(8),
        strategy="farm",
        middleware="rmi",
        cluster=cluster,
        backend="sim",
    )

``work`` and ``creation`` accept either bare method names (expanded to
``call(Target.method(..))`` / ``initialization(Target.new(..))``) or
full pointcut expressions.  ``strategy``, ``middleware`` and ``backend``
are names resolved through the open registries of
:mod:`repro.api.registry`; :meth:`StackSpec.validate` resolves them
eagerly, so a typo fails at construction time with the full catalogue
and a nearest-match suggestion instead of deep inside deployment.

A strategy name resolves to a partition-aspect class and a middleware
name to a distribution-aspect class; the spec reads its rules off the
strategy class (``requires_splitter``, ``routes_packs``,
``oneway_packs``, ``provides_concurrency``).  ``"none"``, registered
here in both registries, is the one null entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any

from repro.aop.parser import parse_pointcut
from repro.api.registry import BACKENDS, MIDDLEWARES, STRATEGIES
from repro.errors import DeploymentError
from repro.runtime.admission import OVERFLOW_POLICIES

__all__ = ["StackSpec"]


class _Absent:
    """The null entry, ``"none"`` in the strategy and the middleware
    registry: built by its constructor or ``for_cluster`` it is no
    aspect at all — a stack without partition (service-style stacks
    that only need concurrency/distribution) or without distribution
    (single-machine runs).  Its flags are what a partition-less spec
    can do."""

    routes_packs = oneway_packs = True
    requires_splitter = provides_concurrency = False

    def __new__(cls, *args: Any, **options: Any) -> Any:
        return None

    for_cluster = classmethod(__new__)


STRATEGIES.register("none", _Absent)
MIDDLEWARES.register("none", _Absent)


#: ``Type.method`` captured from ``call(Type.method(..))``-shaped text
_METHOD_RE = re.compile(r"\.\s*([A-Za-z_][\w]*)\s*\(")
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")


@dataclass
class StackSpec:
    """Everything needed to assemble one parallelisation stack.

    Parameters mirror the methodology's decision points; only ``target``
    and ``work`` are mandatory (the null strategy/middleware/backend
    defaults give a plain local stack).
    """

    #: the core-functionality class being parallelised
    target: type
    #: work pointcut — bare method name or full ``call(..)`` expression
    work: str = ""
    #: creation pointcut — defaults to ``initialization(Target.new(..))``
    creation: str | None = None
    #: the application-supplied :class:`~repro.parallel.partition.base.WorkSplitter`
    splitter: Any = None
    #: partition strategy name from the strategy registry
    strategy: str = "farm"
    #: per-strategy builder options (e.g. heartbeat exchange accessors)
    strategy_options: dict[str, Any] = field(default_factory=dict)
    #: plug the asynchronous-invocation concurrency module?
    concurrency: bool = True
    #: distribution middleware name from the middleware registry
    middleware: str = "none"
    #: per-middleware builder options (e.g. RMI remote_interface)
    middleware_options: dict[str, Any] = field(default_factory=dict)
    #: simulated cluster — required by every middleware but ``"none"``
    cluster: Any = None
    #: servant placement policy (middleware default when None)
    placement: Any = None
    #: execution backend: registry name, instance, or None for
    #: auto ("sim" with a cluster, "thread" without)
    backend: Any = None
    #: methods invoked fire-and-forget (no reply wait) where supported
    oneway: tuple[str, ...] = ()
    #: cost-instrumentation aspect for simulated runs
    cost: Any = None
    #: extra optimisation modules/aspects plugged innermost, in order
    optimisations: tuple[Any, ...] = ()
    #: weaver override (tests); default weaver when None
    weaver: Any = None
    #: composition display name; derived from strategy+middleware if None
    name: str | None = None
    #: explicit work-method name for submission when ``work`` is a
    #: pattern a method name cannot be derived from
    work_method: str | None = None
    #: admission control — most submissions allowed in flight at once on
    #: the deployed stack (None = unbounded)
    max_in_flight: int | None = None
    #: overflow policy when ``max_in_flight`` is reached: ``block``
    #: (submitter waits for a slot), ``fail`` (AdmissionRejected), or
    #: ``shed-oldest`` (the oldest live call is cancelled with CallShed)
    overflow: str = "block"
    #: default per-call deadline in seconds (``submit(timeout=...)``
    #: overrides per call; None = no deadline).  Measured on the
    #: backend's clock: wall time on threads, virtual time on sim.
    timeout: float | None = None
    #: per-call retry policy (a :class:`repro.faults.RetryPolicy`):
    #: failed pieces are re-dispatched to healthy workers up to
    #: ``max_attempts`` times before the original failure latches
    #: (None = fail-fast, the pre-fault behaviour)
    retry: Any = None
    #: fault-injection schedule (a :class:`repro.faults.FaultSchedule`)
    #: carried on the ticket of every call this deployment serves — a
    #: TEST knob, never set in production specs
    faults: Any = None
    #: tenant name this deployment submits as — requires ``scheduler``;
    #: every submit/map unit then acquires a slot of the cluster's
    #: table before its own admission slot
    tenant: str | None = None
    #: the shared :class:`~repro.tenancy.ClusterScheduler` (one instance
    #: across the deployments it arbitrates) — requires ``tenant``
    scheduler: Any = None

    # -- derived views ------------------------------------------------------

    @property
    def work_pointcut(self) -> str:
        """The work pointcut, bare method names expanded."""
        return self._expand(self.work, "call", "{target}.{name}(..)")

    @property
    def creation_pointcut(self) -> str:
        """The creation pointcut (defaulted from the target when unset)."""
        if self.creation is None:
            return f"initialization({self.target.__name__}.new(..))"
        return self._expand(self.creation, "initialization", "{target}.{name}(..)")

    @property
    def pack_routable(self) -> bool:
        """Can ``app.map(pack=N)`` route packs through this spec?

        True for partition-less specs and for strategies whose aspect
        class declares ``routes_packs`` (the single source of truth;
        both this check and ``app.map`` consult it) — farm, dynamic-farm
        and pipeline route whole packs per worker through the compiled
        batched entry; heartbeat (an iteration loop over a shared grid)
        genuinely cannot.
        """
        return self._strategy_flag("routes_packs")

    @property
    def oneway_routable(self) -> bool:
        """Can this spec's strategy serve fire-and-forget work at all?

        Stricter than :attr:`pack_routable`: a oneway call produces no
        replies, so the strategy must neither gather per-piece results
        nor forward between workers.  Farm and dynamic-farm packs are
        pure scatter (``oneway_packs`` on their aspect classes); the
        pipeline routes packs but *needs* every hop's reply to forward,
        so it is pack-routable yet not oneway-capable.
        """
        return self._strategy_flag("oneway_packs")

    def _strategy_flag(self, flag: str) -> bool:
        return getattr(STRATEGIES.get(self.strategy), flag)

    def _oneway_covers_work(self) -> bool:
        """Does the ``oneway`` declaration touch the partition's work
        call?  Auxiliary fire-and-forget methods (a ``notify`` beside a
        reply-bearing work call) are the strategy's business only when
        the work call itself goes oneway.  With a work pattern no method
        name can be derived from, assume coverage (conservative)."""
        try:
            work = self.resolved_work_method
        except DeploymentError:
            return True
        return work in self.oneway

    @property
    def resolved_work_method(self) -> str:
        """The concrete method name submissions dispatch to."""
        if self.work_method is not None:
            return self.work_method
        if _IDENT_RE.match(self.work):
            return self.work
        match = _METHOD_RE.search(self.work)
        if match and "*" not in match.group(1):
            return match.group(1)
        raise DeploymentError(
            f"cannot derive a method name from work pointcut {self.work!r}; "
            f"set StackSpec.work_method explicitly"
        )

    def _expand(self, text: str, designator: str, signature: str) -> str:
        if _IDENT_RE.match(text):
            inner = signature.format(target=self.target.__name__, name=text)
            return f"{designator}({inner})"
        return text

    # -- validation ---------------------------------------------------------

    def validate(self) -> "StackSpec":
        """Eager validation with rich errors; returns self for chaining.

        Resolves every registry name (raising
        :class:`~repro.api.registry.UnknownNameError` with the catalogue
        and a typo suggestion), parses the work and creation pointcuts
        (raising :class:`~repro.errors.PointcutSyntaxError`), and checks
        the cross-field rules the assembly step would otherwise fail on
        obscurely.
        """
        if not isinstance(self.target, type):
            raise DeploymentError(
                f"StackSpec.target must be a class, got {self.target!r}"
            )
        if not self.work:
            raise DeploymentError(
                f"StackSpec for {self.target.__name__} needs a work pointcut "
                f"(a method name like 'filter' or a call(..) expression)"
            )
        # a malformed or refused pointcut fails here, not at deploy()
        parse_pointcut(self.work_pointcut)
        parse_pointcut(self.creation_pointcut)
        strategy = STRATEGIES.get(self.strategy)  # raises UnknownNameError
        MIDDLEWARES.get(self.middleware)
        backend = self.backend  # a name, a class's instance, or None (auto)
        if isinstance(backend, str):
            backend = BACKENDS.get(backend)
        host = getattr(backend, "servant_host", None)
        if strategy.requires_splitter and self.splitter is None:
            raise DeploymentError(
                f"strategy {self.strategy!r} needs a splitter "
                f"(a WorkSplitter describing duplication and call split); "
                f"use strategy='none' for a partition-less stack"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise DeploymentError(
                f"max_in_flight must be >= 1 (or None for unbounded), "
                f"got {self.max_in_flight!r}"
            )
        if self.overflow not in OVERFLOW_POLICIES:
            raise DeploymentError(
                f"unknown overflow policy {self.overflow!r}; choose from "
                f"{', '.join(repr(p) for p in OVERFLOW_POLICIES)}"
            )
        if self.timeout is not None and not self.timeout > 0:
            raise DeploymentError(
                f"timeout must be a positive number of seconds "
                f"(or None for no deadline), got {self.timeout!r}"
            )
        # duck-checks, not isinstance: the knobs accept any object with
        # the policy/schedule protocol (test doubles included)
        if self.retry is not None and not (
            hasattr(self.retry, "max_attempts") and hasattr(self.retry, "retryable")
        ):
            raise DeploymentError(
                f"StackSpec.retry must be a RetryPolicy-like object "
                f"(max_attempts + retryable(exc)), got {self.retry!r}"
            )
        if self.faults is not None and not hasattr(self.faults, "fire"):
            raise DeploymentError(
                f"StackSpec.faults must be a FaultSchedule-like object "
                f"(with a fire(site, index) method), got {self.faults!r}"
            )
        # the tenant plane is all-or-nothing: a tenant name without a
        # scheduler has nothing to acquire from, a scheduler without a
        # tenant name has no quota to charge
        if (self.tenant is None) != (self.scheduler is None):
            raise DeploymentError(
                "StackSpec.tenant and StackSpec.scheduler come together: "
                f"got tenant={self.tenant!r}, scheduler={self.scheduler!r}"
            )
        if self.tenant is not None and not isinstance(self.tenant, str):
            raise DeploymentError(
                f"StackSpec.tenant must be a tenant name (str), "
                f"got {self.tenant!r}"
            )
        if self.scheduler is not None and not (
            hasattr(self.scheduler, "acquire")
            and hasattr(self.scheduler, "ensure_tenant")
        ):
            raise DeploymentError(
                f"StackSpec.scheduler must be a ClusterScheduler-like "
                f"object (acquire + ensure_tenant), got {self.scheduler!r}"
            )
        # where servants live decides the pairings: a backend that hosts
        # them itself (worker processes, an event loop) has no use for a
        # transport or the simulated nodes one places them on, and drops
        # a oneway reply without one; anywhere else the middleware moves
        # servants, onto a cluster's nodes
        if host is not None:
            if self.cluster is not None or self.placement is not None or self.middleware != "none":
                raise DeploymentError(
                    f"backend {self.backend!r} hosts its servants itself "
                    f"(servant_host={host!r}) and takes no middleware, "
                    f"cluster or placement: those move servants onto a "
                    f"simulated cluster's nodes (backend='sim'); got "
                    f"middleware={self.middleware!r}, cluster={self.cluster!r}, "
                    f"placement={self.placement!r}"
                )
        elif self.middleware != "none" and self.cluster is None:
            raise DeploymentError(
                f"middleware {self.middleware!r} needs a cluster "
                f"(e.g. repro.cluster.paper_testbed(Simulator()))"
            )
        elif self.oneway and self.middleware == "none":
            raise DeploymentError(
                f"oneway methods need a distribution middleware or a "
                f"backend that hosts servants itself (fire-and-forget "
                f"drops the reply in transit); declared "
                f"oneway={self.oneway!r} with middleware='none' on "
                f"backend {self.backend!r}"
            )
        if (
            self.oneway
            and not self.oneway_routable
            and self._oneway_covers_work()
        ):
            # cross-field rule matching the map(pack=...) capabilities: a
            # strategy whose work call must gather replies (heartbeat,
            # divide-conquer) or forward them between workers (pipeline)
            # has no fire-and-forget story for that call — oneway never
            # produces the replies those strategies depend on.  Oneway
            # declarations on auxiliary (non-work) methods stay legal.
            raise DeploymentError(
                f"strategy {self.strategy!r} cannot serve its work call "
                f"oneway: the call depends on per-piece replies, which "
                f"fire-and-forget never produces (declared "
                f"oneway={list(self.oneway)}); use farm/dynamic-farm or "
                f"a partition-less spec"
            )
        # NOTE: resolved_work_method is deliberately NOT forced here — a
        # wildcard work pattern is deployable, it just cannot back
        # submit(), which raises its own targeted error on first use.
        return self

    # -- convenience --------------------------------------------------------

    def with_(self, **changes: Any) -> "StackSpec":
        """A copy of this spec with ``changes`` applied (sweep helper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human summary of the spec."""
        backend = (
            self.backend
            if isinstance(self.backend, str)
            else ("auto" if self.backend is None else type(self.backend).__name__)
        )
        return (
            f"StackSpec({self.target.__name__}: strategy={self.strategy}, "
            f"middleware={self.middleware}, backend={backend}, "
            f"concurrency={self.concurrency}, oneway={list(self.oneway)})"
        )
