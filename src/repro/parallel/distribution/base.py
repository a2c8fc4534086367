"""Distribution concern (paper Section 4.3 / Figure 13-15).

The distribution aspect intercepts *both sides* of a call:

* at the client, constructions of distributable objects are associated
  with freshly exported remote servants, and calls on those objects are
  redirected through the middleware.  Placement is decided here: the
  middleware offers a host group (``Middleware.hosts``) and this
  aspect's policy chooses a host out of it for each export;
* at the server, the servant executes the call locally — our middlewares
  flag servant execution (``in_server_dispatch``), which is what makes
  every parallelisation aspect step aside there.

Concrete subclasses bind the middleware flavour (RMI, MPP, hybrid,
process); the pattern — create-remote on ``new``, redirect on call,
catch remote errors — is shared and matches the four code modifications
the paper enumerates for RMI.  The middleware registry holds the
subclasses, and :meth:`DistributionAspect.for_cluster` builds one with
its middleware.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.aop import abstract_pointcut, around, pointcut
from repro.aop.plan import BatchJoinPoint, ctor_pack_of
from repro.errors import RemoteError
from repro.middleware.base import Middleware, RemoteRef
from repro.middleware.placement import PlacementPolicy, RoundRobin
from repro.middleware.serialize import Serializer
from repro.parallel.concern import LAYER, Concern, ParallelAspect

__all__ = ["DistributionAspect"]


class DistributionAspect(ParallelAspect):
    """Create-remote + redirect-call, generic over the middleware."""

    concern = Concern.DISTRIBUTION
    precedence = LAYER["distribution"]

    remote_new = abstract_pointcut("constructions to distribute")
    remote_calls = abstract_pointcut("calls to redirect to the servant")

    #: what :meth:`for_cluster` builds over the cluster
    middleware_class: Any = None
    #: a second transport driven beside ``middleware`` (hybrid's MPP
    #: data path), shut down with it
    extra_middleware: Middleware | None = None
    #: servant names are this prefix and the running export count
    name_prefix = "PS"

    def __init__(
        self,
        middleware: Middleware,
        placement: PlacementPolicy | None = None,
        remote_new: str | None = None,
        remote_calls: str | None = None,
        oneway: Iterable[str] = (),
    ):
        self.middleware = middleware
        self.placement = placement if placement is not None else RoundRobin()
        if remote_new is not None:
            self.remote_new = pointcut(remote_new)
        if remote_calls is not None:
            self.remote_calls = pointcut(remote_calls)
        #: methods invoked one-way when the middleware supports it
        self.oneway_methods = frozenset(oneway)
        self._cloner = Serializer()
        #: id(local obj) -> (local obj, RemoteRef)
        self._refs: dict[int, tuple[Any, RemoteRef]] = {}
        self.count = 0
        self.redirected = 0
        self.remote_errors = 0

    @classmethod
    def for_cluster(
        cls,
        cluster: Any,
        creation: str,
        work: str,
        placement: PlacementPolicy | None = None,
        oneway: Iterable[str] = (),
        **options: Any,
    ) -> "DistributionAspect":
        """How the middleware registry builds the aspect: its middleware
        over ``cluster``, exporting the ``creation`` pointcut's instances
        where ``placement`` (the aspect's default when ``None``) puts them
        and redirecting the ``work`` calls on them — ``oneway`` ones
        fire-and-forget."""
        return cls(
            cls.middleware_class(cluster), placement, creation, work,
            oneway=oneway, **options,
        )

    # -- hooks for subclasses -----------------------------------------------

    def register(self, servant: Any, host: Any, name: str) -> RemoteRef:
        """Export ``servant`` on ``host``; returns the client-side ref."""
        return self.middleware.export(servant, host)

    def make_servant(self, obj: Any) -> Any:
        """Server-side instance (a state copy, value semantics)."""
        return self._cloner.clone(obj)

    def is_oneway(self, jp) -> bool:
        return jp.name in self.oneway_methods

    # -- advice -----------------------------------------------------------------

    @around("remote_new")
    def create_remote(self, jp):
        """Client-side 'new' → remote instance association (Fig 14
        lines 09-16).

        Batch-aware: a :class:`~repro.aop.plan.CtorPack` travelling
        through the joinpoint (a partition aspect's batched duplication)
        makes ``proceed`` return the whole duplicate list — each
        instance is exported in index order within this single advice
        execution, so a farm of N workers pays one initialization
        joinpoint, not N.
        """
        if self.passthrough(jp):
            return jp.proceed()
        result = jp.proceed()  # local reference(s) the client will hold
        self._associate_all(result if ctor_pack_of(jp) is not None else [result])
        return result

    def _associate_all(self, objs: list) -> None:
        """Export the instances of one construction, in index order, each
        on the host the policy chooses out of the middleware's host group."""
        hosts = self.middleware.hosts(len(objs))
        policy, first = self.policy_for(len(objs), hosts)
        for index, obj in enumerate(objs, first):
            self._associate(obj, policy.choose(hosts, index, obj))

    def policy_for(self, count: int, hosts: Any) -> tuple[PlacementPolicy, int]:
        """The policy placing a construction of ``count`` instances, and
        the index of its first: the aspect's own, indexed by the running
        export count."""
        return self.placement, self.count

    def _associate(self, obj: Any, host: Any) -> None:
        """Export one freshly built instance on ``host`` and remember its
        ref."""
        self.count += 1
        servant = self.make_servant(obj)
        ref = self.register(servant, host, f"{self.name_prefix}{self.count}")
        self._refs[id(obj)] = (obj, ref)

    def remote_invoke(
        self, middleware: Middleware, ref: RemoteRef, jp, oneway: bool = False
    ) -> Any:
        """One middleware invocation for ``jp`` — batched joinpoints ship
        the whole pack as one request served through the servant's
        :meth:`~repro.aop.plan.MethodTable.invoke_batch` (fire-and-forget
        when the method is declared ``oneway``: one message, no reply
        wait)."""
        if isinstance(jp, BatchJoinPoint):
            # jp.args[0] is the pack at THIS advice level — an outer
            # around may have substituted it via proceed(new_pieces)
            return middleware.invoke_batch(ref, jp.name, jp.args[0], oneway=oneway)
        return middleware.invoke(ref, jp.name, jp.args, jp.kwargs, oneway=oneway)

    @around("remote_calls")
    def redirect(self, jp):
        """Client-side call → middleware invocation (Fig 14 lines 18-23),
        including the RemoteException handler logic."""
        if self.passthrough(jp):
            return jp.proceed()
        entry = self._refs.get(id(jp.target))
        if entry is None or entry[0] is not jp.target:
            return jp.proceed()  # not a distributed object
        self.redirected += 1
        try:
            return self.remote_invoke(
                self.middleware, entry[1], jp, oneway=self.is_oneway(jp)
            )
        except RemoteError:
            self.remote_errors += 1
            raise

    # -- introspection -----------------------------------------------------------

    def ref_of(self, obj: Any) -> RemoteRef | None:
        entry = self._refs.get(id(obj))
        return entry[1] if entry is not None and entry[0] is obj else None

    def on_undeploy(self) -> None:
        self._refs.clear()
