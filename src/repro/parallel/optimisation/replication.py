"""Replicated-computation optimisation aspects.

Two replication shapes from the paper's optimisation class:

* :class:`ReplicationAspect` — *racing* replication: issue the same
  call to ``replicas`` targets and take the first answer (latency
  hiding against slow/overloaded nodes);
* :class:`ReadReplicaAspect` — *read-mostly servant* replication: reads
  are answered by a local replica of the servant (built on demand from
  the partition's managed instance), writes go through the full chain
  and invalidate the replica.  Deployed above the distribution layer,
  read-heavy traffic stops paying per-item advice and per-item remote
  messages entirely.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.aop import abstract_pointcut, around, pointcut
from repro.aop.plan import piece_view
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.parallel.partition.base import PartitionAspect
from repro.runtime.backend import current_backend
from repro.runtime.futures import Future

__all__ = ["ReplicationAspect", "ReadReplicaAspect"]


class ReplicationAspect(ParallelAspect):
    """First-of-N replicated execution."""

    concern = Concern.OPTIMISATION
    precedence = LAYER["optimisation"] + 5

    replicated_calls = abstract_pointcut("calls to replicate")

    def __init__(
        self,
        partition: PartitionAspect,
        replicas: int = 2,
        replicated_calls: str | None = None,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if replicated_calls is not None:
            self.replicated_calls = pointcut(replicated_calls)
        self.partition = partition
        self.replicas = replicas
        self.replicated = 0
        self._local = threading.local()

    @around("replicated_calls")
    def replicate(self, jp):
        if getattr(self._local, "racing", False):
            return jp.proceed()
        peers = [w for w in self.partition.instances if w is not jp.target]
        if not peers or self.replicas < 2:
            return jp.proceed()
        backend = current_backend()
        first = backend.make_event(name="replica.first")
        continuation = jp.capture_proceed()
        extra = peers[: self.replicas - 1]
        self.replicated += 1

        def run_primary() -> None:
            try:
                first.set(("ok", continuation()))
            except Exception as exc:  # noqa: BLE001 - raced result
                first.set(("error", exc))

        method = jp.name
        args, kwargs = jp.args, jp.kwargs

        def run_replica(peer: Any) -> None:
            # replica calls must not re-replicate (flag is per thread)
            self._local.racing = True
            try:
                first.set(("ok", getattr(peer, method)(*args, **kwargs)))
            except Exception as exc:  # noqa: BLE001 - raced result
                first.set(("error", exc))
            finally:
                self._local.racing = False

        backend.spawn(run_primary, name="replica.primary")
        for peer in extra:
            backend.spawn(lambda p=peer: run_replica(p), name="replica.peer")
        first.wait()
        outcome, payload = first.value
        if outcome == "error":
            raise payload
        if isinstance(payload, Future):
            payload = payload.result()
        return payload


class ReadReplicaAspect(ParallelAspect):
    """Read-mostly servant replication with write invalidation.

    Matched *reads* on a partition-managed servant are served by a
    process-local replica — the original (unwoven) method body runs on a
    detached copy of the servant, so neither the remaining advice chain
    nor the wire is traversed.  Matched *writes* proceed through the
    full chain and then invalidate the target's replica; the next read
    rebuilds it from the live instance via
    :meth:`~repro.parallel.partition.base.PartitionAspect.snapshot`.

    The aspect is **pack-aware**: a batched read pack is answered by one
    replica lookup and a plain loop over the pieces — per-item results
    in piece order, zero chain traversals.

    Deployed *above* the distribution layer (``LAYER["distribution"] +
    25``) so a read short-circuits before the call would be shipped to a
    remote servant.  Under true remote distribution pass ``build`` to
    fetch replica state explicitly; the default ``deepcopy`` snapshot
    copies the local instance.
    """

    concern = Concern.OPTIMISATION
    # above distribution: reads must short-circuit before going remote
    precedence = LAYER["distribution"] + 25

    read_calls = abstract_pointcut("read-only calls to serve from replicas")
    write_calls = abstract_pointcut("mutating calls that invalidate replicas")

    def __init__(
        self,
        partition: PartitionAspect,
        read_calls: str | None = None,
        write_calls: str | None = None,
        build: Callable[[Any], Any] | None = None,
    ):
        if read_calls is not None:
            self.read_calls = pointcut(read_calls)
        if write_calls is not None:
            self.write_calls = pointcut(write_calls)
        else:
            # read-only servant: bind the write pointcut to a pattern no
            # woven class can match so deployment does not reject the
            # aspect for leaving an abstract pointcut unbound
            self.write_calls = pointcut("call(__NoWrites__.__none__(..))")
        self.partition = partition
        self.build = build
        #: id(servant) -> detached replica
        self._replicas: dict[int, Any] = {}
        self._lock = threading.Lock()
        self.local_reads = 0
        self.replica_builds = 0
        self.invalidations = 0

    # -- replica bookkeeping ----------------------------------------------

    def _replica_for(self, target: Any) -> Any:
        key = id(target)
        with self._lock:
            replica = self._replicas.get(key)
        if replica is None:
            replica = self.partition.snapshot(target, self.build)
            with self._lock:
                self._replicas.setdefault(key, replica)
                self.replica_builds += 1
                replica = self._replicas[key]
        return replica

    def invalidate(self, target: Any | None = None) -> None:
        """Drop the replica of ``target`` (or all replicas)."""
        with self._lock:
            if target is None:
                self.invalidations += len(self._replicas)
                self._replicas.clear()
            elif self._replicas.pop(id(target), None) is not None:
                self.invalidations += 1

    # -- advice ------------------------------------------------------------

    @around("read_calls")
    def serve_read(self, jp):
        target = jp.target
        if target is None or not self.partition.is_managed(target):
            return jp.proceed()
        replica = self._replica_for(target)
        originals = getattr(type(target), "__aop_originals__", {})
        func = originals.get(jp.name)
        if func is None:  # unwoven method: plain bound call on the copy
            func = getattr(type(replica), jp.name)
        pieces = getattr(jp, "pieces", None)
        if pieces is not None:  # batched read pack: loop, no chain
            self.local_reads += len(pieces)
            results = []
            for piece in pieces:
                args, kwargs = piece_view(piece)
                results.append(func(replica, *args, **kwargs))
            return results
        self.local_reads += 1
        return func(replica, *jp.args, **jp.kwargs)

    @around("write_calls")
    def write_through(self, jp):
        result = jp.proceed()
        self.invalidate(jp.target)
        return result

    def on_undeploy(self) -> None:
        with self._lock:
            self._replicas.clear()
