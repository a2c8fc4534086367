"""Hybrid distribution.

"It is also possible to develop a hybrid implementation, using MPP and
RMI" — performance-critical (data) methods travel over MPP while the
remaining (control) methods use RMI.  The servant object is shared by
both middlewares' server activities on the same node, so state stays
consistent regardless of which transport carried the call.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.aop import around
from repro.api.registry import register_middleware
from repro.errors import DeploymentError, RemoteError
from repro.middleware.mpp import MppMiddleware
from repro.middleware.placement import PlacementPolicy
from repro.middleware.rmi import RmiMiddleware
from repro.parallel.distribution.base import DistributionAspect

__all__ = ["HybridDistributionAspect"]


@register_middleware("hybrid")
class HybridDistributionAspect(DistributionAspect):
    """RMI for control calls, MPP for the listed data methods."""

    name_prefix = "HY"

    def __init__(
        self,
        rmi: RmiMiddleware,
        mpp: MppMiddleware,
        data_methods: Iterable[str],
        placement: PlacementPolicy | None = None,
        remote_new: str | None = None,
        remote_calls: str | None = None,
        oneway: Iterable[str] = (),
    ):
        super().__init__(rmi, placement, remote_new, remote_calls, oneway)
        self.mpp = self.extra_middleware = mpp
        self.data_methods = frozenset(data_methods)
        #: id(local obj) -> MPP ref for the same servant
        self._mpp_refs: dict[int, Any] = {}

    @classmethod
    def for_cluster(
        cls,
        cluster: Any,
        creation: str,
        work: str,
        placement: PlacementPolicy | None = None,
        oneway: Iterable[str] = (),
        data_methods: Iterable[str] = (),
    ) -> "HybridDistributionAspect":
        """RMI control and MPP data transports over ``cluster``.

        ``data_methods`` names the calls that travel over MPP; everything
        else uses RMI.  Only the MPP path supports fire-and-forget, so a
        ``oneway`` method that is not also a data method is refused
        eagerly — its declaration would otherwise be silently ignored on
        the blocking RMI control path.
        """
        missing = set(oneway) - set(data_methods)
        if missing:
            raise DeploymentError(
                f"hybrid oneway methods must travel the MPP data path; "
                f"{sorted(missing)} missing from data_methods={list(data_methods)}"
            )
        return cls(
            RmiMiddleware(cluster), MppMiddleware(cluster), data_methods,
            placement, creation, work, oneway,
        )

    def register(self, servant: Any, host: Any, name: str) -> Any:
        self.middleware.export_and_bind(name, servant, host)
        # the SAME servant exported to MPP: both transports reach one state
        self._pending_mpp_ref = self.mpp.export(servant, host)
        return self.middleware.lookup(name)

    def _associate(self, obj: Any, host: Any) -> None:
        # extends the base association (which is pack-aware and calls
        # this once per instance) with the MPP export bookkeeping
        super()._associate(obj, host)
        self._mpp_refs[id(obj)] = self._pending_mpp_ref

    @around("remote_calls")
    def redirect(self, jp):
        entry = self._refs.get(id(jp.target))
        if entry is None or entry[0] is not jp.target:
            return jp.proceed()
        self.redirected += 1
        try:
            if jp.name in self.data_methods:
                return self.remote_invoke(
                    self.mpp,
                    self._mpp_refs[id(jp.target)],
                    jp,
                    oneway=self.is_oneway(jp),
                )
            return self.remote_invoke(self.middleware, entry[1], jp)
        except RemoteError:
            self.remote_errors += 1
            raise

    def on_undeploy(self) -> None:
        super().on_undeploy()
        self._mpp_refs.clear()
