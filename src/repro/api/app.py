"""`ParallelApp`: assemble, deploy, and drive a stack — futures first.

Where :class:`~repro.api.spec.StackSpec` *describes* a stack, a
:class:`ParallelApp` *is* one: it builds the aspect classes the spec's
registry names resolve to, plugs each as a module of the
:class:`~repro.parallel.composition.Composition`,
resolves the execution backend, and exposes a submission API built on
:mod:`repro.runtime.futures`:

* :meth:`ParallelApp.start` constructs the woven target (running the
  duplication advice) inside the app's execution context;
* :meth:`ParallelApp.submit` dispatches one work call and returns a
  :class:`~repro.runtime.futures.Future` immediately;
* :meth:`ParallelApp.map` dispatches many payloads — per item, or as
  *packs* through the compiled batched entry point
  (:func:`repro.aop.plan.batched_entry`): one advice pass and, under
  distribution, one message per pack.  Packs to methods declared
  ``oneway`` in the spec are fire-and-forget — the middleware sends one
  message and never waits for a reply.

On the simulation backend, calls made from *outside* the simulator are
transparently wrapped in a simulated process and driven to completion
(the returned future is already resolved); calls made from *inside* a
simulated process spawn sibling activities and return genuinely pending
futures.  On the thread backend every submission is a spawned activity
with a thread of its own; the OS thread under it is a recycled carrier
(:mod:`repro.runtime.threads`), so a submit pays a hand-off, not a
``Thread.start``.
The same application code therefore runs functionally and on the
simulated cluster — the paper's pluggable-platform claim, applied to the
API itself.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable

from repro.aop.plan import batched_entry
from repro.aop.weaver import Weaver, default_weaver
from repro.api.registry import BACKENDS, MIDDLEWARES, STRATEGIES
from repro.api.spec import StackSpec
from repro.errors import AdmissionError, DeploymentError, FutureError
from repro.middleware.context import use_node
from repro.parallel.composition import Composition, ParallelModule
from repro.parallel.concern import Concern
from repro.parallel.concurrency import concurrency_module
from repro.parallel.distribution.proc_aspect import ProcDistributionAspect
from repro.parallel.partition.base import CallPiece
from repro.runtime.admission import AdmissionController, Deadline
from repro.runtime.backend import ExecutionBackend, use_backend
from repro.runtime.dispatch import use_dispatch
from repro.runtime.futures import Future, FutureGroup
from repro.runtime.ticket import DispatchContext
from repro.runtime.simbackend import SimBackend
from repro.sim import current_process

__all__ = ["ParallelApp"]


class ParallelApp:
    """One assembled, deployable, submittable parallel application."""

    def __init__(self, spec: StackSpec):
        spec.validate()
        self.spec = spec
        self.weaver: Weaver = spec.weaver if spec.weaver is not None else default_weaver
        self.instance: Any = None
        self.async_aspect: Any = None
        self.middleware: Any = None
        self.extra_middleware: Any = None
        creation = spec.creation_pointcut
        work = spec.work_pointcut
        name = spec.name if spec.name is not None else f"{spec.strategy}+{spec.middleware}"
        self.composition = Composition(name)

        # -- partition -----------------------------------------------------
        strategy = STRATEGIES.get(spec.strategy)
        self.partition: Any = strategy(
            spec.splitter, creation, work, **spec.strategy_options
        )
        if self.partition is not None:
            self.composition.plug(ParallelModule.of(self.partition, spec.strategy))

        # -- concurrency (unless the partition spawns its pieces itself) ---
        if spec.concurrency and not strategy.provides_concurrency:
            module = concurrency_module(work, work)
            self.composition.plug(module)
            self.async_aspect = module.aspects[0]

        # -- execution backend, then distribution: servants a backend
        # hosts in worker processes get there through the process
        # distribution (the spec names no middleware for such a backend)
        self.backend = self._resolve_backend(spec)
        if self.backend.servant_host == "process":
            distribution, name = ProcDistributionAspect, "process"
        else:
            distribution, name = MIDDLEWARES.get(spec.middleware), spec.middleware
        self.distribution: Any = distribution.for_cluster(
            spec.cluster,
            creation,
            work,
            placement=spec.placement,
            oneway=spec.oneway,
            **spec.middleware_options,
        )
        if self.distribution is not None:
            self.middleware = self.distribution.middleware
            self.extra_middleware = self.distribution.extra_middleware
            self.composition.plug(
                ParallelModule.of(self.distribution, f"distribution-{name}")
            )

        # -- instrumentation + optimisations -------------------------------
        if spec.cost is not None:
            self.composition.plug(
                ParallelModule("cost-model", Concern.INSTRUMENTATION, [spec.cost])
            )
        for index, extra in enumerate(spec.optimisations):
            if isinstance(extra, ParallelModule):
                self.composition.plug(extra)
            else:  # a bare aspect: wrap it as its own module
                concern = getattr(extra, "concern", Concern.OPTIMISATION)
                self.composition.plug(
                    ParallelModule(f"optimisation-{index}", concern, [extra])
                )

        #: the simulator driving a sim-backend app (None on threads)
        self.sim = getattr(self.backend, "sim", None)
        #: bounded admission table — submit()/map() acquire a slot per
        #: call and the spec's overflow policy applies beyond
        #: max_in_flight (an unbounded table still tracks slots for
        #: observability when max_in_flight is None)
        self.admission = AdmissionController(
            limit=spec.max_in_flight,
            policy=spec.overflow,
            backend=self.backend,
            name=self.composition.name,
        )
        #: the cluster-level tenant plane (spec.tenant/spec.scheduler):
        #: when installed, every submission unit acquires a cluster slot
        #: before its admission slot; the tenant must already be
        #: registered, so typos fail at construction time
        self.scheduler = spec.scheduler
        self.tenant = spec.tenant
        if self.scheduler is not None:
            self.scheduler.ensure_tenant(self.tenant)
        #: the spec's fault schedule while in force (deploy to undeploy);
        #: it rides every ticket built meanwhile
        self._faults_active: Any = None

    @staticmethod
    def _resolve_backend(spec: StackSpec) -> ExecutionBackend:
        backend = spec.backend
        if backend is None:
            backend = "sim" if spec.cluster is not None else "thread"
        if isinstance(backend, str):
            return BACKENDS.get(backend).for_cluster(spec.cluster)
        if not isinstance(backend, ExecutionBackend):
            raise DeploymentError(
                f"StackSpec.backend must be a registry name or an "
                f"ExecutionBackend, got {backend!r}"
            )
        return backend

    # -- lifecycle ----------------------------------------------------------

    def deploy(self) -> "ParallelApp":
        """Weave the target and deploy every module.  A spec-level fault
        schedule goes into force here, for this deployment's calls only
        (it rides their tickets), and comes down at :meth:`undeploy` —
        the deployment's lifetime IS the schedule's."""
        self.composition.deploy(self.weaver, targets=[self.spec.target])
        self._faults_active = self.spec.faults
        return self

    def undeploy(self) -> None:
        """Undeploy every module (the target class stays woven)."""
        self._faults_active = None
        self.composition.undeploy()

    def shutdown(self) -> None:
        """Stop middleware server activities (end of run)."""
        for mw in (self.middleware, self.extra_middleware):
            if mw is not None:
                mw.shutdown()

    def __enter__(self) -> "ParallelApp":
        return self.deploy()

    def __exit__(self, *exc: Any) -> None:
        self.undeploy()
        self.shutdown()

    def describe(self) -> str:
        """Table-1-style description of the assembled composition."""
        return self.composition.describe()

    @property
    def in_flight(self) -> int:
        """Calls this deployment is serving right now: its admission
        slots held, from admit until each call's future resolves (every
        spec, with or without a partition strategy)."""
        return self.admission.admitted

    @property
    def peak_in_flight(self) -> int:
        """Most calls ever in flight at once on this deployment (the
        overlap high-water mark the stress tests assert on)."""
        return self.admission.peak_admitted

    def plan_stats(self) -> dict:
        """Compiler visibility for this app's weaver: a read-only
        snapshot of :class:`~repro.aop.plan.PlanStats` — compile counts
        and the per-kind plan histograms (``kinds`` / ``batch_kinds``).
        ``interpreter_calls`` is 0 by construction: every pointcut is
        decided per shadow, so every chain compiles.
        """
        return self.weaver.plan_stats.summary()

    # -- execution context ---------------------------------------------------

    def _contextualise(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap ``fn`` so it runs under this app's backend (and, when a
        cluster exists, placed on its head node)."""
        cluster = self.spec.cluster

        def body() -> Any:
            with use_backend(self.backend):
                if cluster is not None:
                    with use_node(cluster.head):
                        return fn()
                return fn()

        return body

    def _outside_simulation(self) -> bool:
        return isinstance(self.backend, SimBackend) and current_process() is None

    def execute(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` inside the app's execution context and return its
        result — driving the simulator when called from outside it."""
        body = self._contextualise(fn)
        if self._outside_simulation():
            out: dict[str, Any] = {}

            def main() -> None:
                out["result"] = body()

            self.sim.spawn(main, name="api.execute")
            self.sim.run()
            return out["result"]
        return body()

    def _dispatch(
        self,
        ticket: DispatchContext,
        futures: list[Future],
        produce: Callable[[], Any],
        name: str,
        packed: bool = False,
        detach: bool = False,
    ) -> None:
        """Run one admitted unit asynchronously in context: a spawned
        activity inside a live execution (the backend's spawn runs it
        under the backend), a driven simulation run from outside."""
        body = partial(self._run_admitted, ticket, futures, produce, packed, detach)
        outside = self._outside_simulation()
        if outside or self.spec.cluster is not None:
            body = self._contextualise(body)
        try:
            if outside:
                self.sim.spawn(body, name=name)
                self.sim.run()
            else:
                self.backend.spawn(body, name=name)
        except BaseException:
            # an activity that never started will never close its call
            ticket.release()
            raise

    # -- submission ----------------------------------------------------------

    def start(self, *args: Any, **kwargs: Any) -> Any:
        """Construct the (woven) target instance — the client-visible
        object whose calls the stack intercepts.  Runs the duplication
        advice, so workers/stages exist afterwards."""
        target = self.spec.target

        def build() -> Any:
            return target(*args, **kwargs)

        self.instance = self.execute(build)
        return self.instance

    def _entry_instance(self) -> Any:
        if self.instance is None:
            raise DeploymentError(
                "no target instance yet — call app.start(*ctor_args) "
                "inside the deployed context first"
            )
        return self.instance

    def _check_oneway(self, oneway: bool) -> None:
        if oneway and self.spec.resolved_work_method not in self.spec.oneway:
            raise DeploymentError(
                f"method {self.spec.resolved_work_method!r} is not declared "
                f"oneway in the spec (oneway={list(self.spec.oneway)}); "
                f"fire-and-forget must be declared so the transport knows"
            )

    def _admit(self, name: str, timeout: float | None) -> DispatchContext:
        """Open one call's ticket — name, backend clock, deadline (the
        explicit ``timeout=`` wins over the spec's default), retry
        policy, fault schedule — and acquire its capacity: the cluster's
        place first (when a scheduler is installed — quotas, fairness
        and the tenant's own overflow policy apply there), then the
        deployment's.  Both point at the ticket and go back together; a
        deployment-level rejection refunds the cluster's place before
        propagating."""
        budget = timeout if timeout is not None else self.spec.timeout
        ticket = DispatchContext(
            name,
            backend=self.backend,
            deadline=None if budget is None else Deadline(budget, self.backend.now),
            retry=self.spec.retry,
            faults=self._faults_active,
        )
        try:
            if self.scheduler is not None:
                ticket.places.append(
                    self.scheduler.acquire(self.tenant, ticket, name=name)
                )
            ticket.places.append(self.admission.admit(ticket, name=name))
        except BaseException:
            ticket.release()
            raise
        return ticket

    def submit(
        self,
        *args: Any,
        oneway: bool = False,
        timeout: float | None = None,
        **kwargs: Any,
    ) -> Future:
        """Dispatch one work call; returns a :class:`Future` immediately.

        The call enters the woven method (running the full advice chain:
        split, spawn, redirect...); nested futures produced by the
        concurrency aspect are transparently unwrapped.  With
        ``oneway=True`` (the method must be declared in
        ``spec.oneway``) the future resolves to ``None`` as soon as the
        send completes.

        Admission control: the call's ticket is built and then acquires
        a slot in the app's bounded admission table.  Beyond
        ``spec.max_in_flight`` the spec's overflow policy applies —
        ``block`` parks THIS caller until a slot frees, ``fail`` raises
        :class:`~repro.errors.AdmissionRejected` here, ``shed-oldest``
        cancels the oldest in-flight call (its future raises
        :class:`~repro.errors.CallShed`).  ``timeout=`` (or the spec's
        default) arms a per-call deadline: expiry cancels the ticket at
        the next boundary (an await on the loop: mid-flight), unwinds
        its collector, and the future raises
        :class:`~repro.errors.DeadlineExceeded` carrying the ticket's
        trace.  The ticket rides on the returned future as
        ``future.admission``, the call's one record: its
        ``trace_snapshot()`` is the call's timeline, live or finished.

        Like ``oneway``, the ``timeout`` keyword is reserved by the
        submission API and never forwarded to the work method — a work
        method with its own ``timeout`` parameter must receive it
        positionally (or via a payload tuple through :meth:`map`).
        """
        self._check_oneway(oneway)
        instance = self._entry_instance()
        method = self.spec.resolved_work_method
        # acquire before dispatching: this is where backpressure (block),
        # rejection (fail) and shedding happen — in the submitter
        ticket = self._admit(f"submit.{method}", timeout)
        name = f"submit.{method}.{ticket.context_id}"
        future = Future(name=name, backend=self.backend)
        future.admission = ticket  # type: ignore[attr-defined]
        self._dispatch(
            ticket,
            [future],
            lambda: getattr(instance, method)(*args, **kwargs),
            name,
            # oneway on the loop: no transport drops the reply, so the
            # backend detaches the outcome itself — a fire-and-forget task
            detach=oneway and self.backend.servant_host == "loop",
        )
        return future

    def _run_admitted(
        self,
        ticket: DispatchContext,
        futures: list[Future],
        produce: Callable[[], Any],
        packed: bool,
        detach: bool,
    ) -> None:
        """The lifecycle shared by every dispatched unit (single submits
        and whole packs): re-check the ticket (shed or expired while the
        activity waited to run?), run the woven call under it — the
        first skeleton to open a scope claims it, a loop await is
        bounded and cancelled by it — close the deliver-vs-cancel race
        atomically (a unit shed mid-flight must not deliver: its place
        went to someone else; a delivered one cannot be shed) and —
        crucially — give the places back *before* resolving the futures,
        so a submitter waking from ``result()`` never finds the finished
        call still counted against ``max_in_flight``.

        ``packed``: ``produce`` answers with one result per future (none
        at all for a oneway pack).  ``detach=True`` is oneway on a loop
        host: the outcome goes to the backend fire-and-forget (an
        unawaited loop task) and the future resolves to ``None`` once the
        send completed."""
        failure: Exception | None = None
        try:
            ticket.check_deadline("before the call was dispatched")
            with use_dispatch(ticket):
                result = produce()
                if detach:
                    self.backend.detach(result)
                    result = None
                else:
                    if isinstance(result, Future):
                        # unwrapped within the deadline: how a spec with
                        # no partition honours ``timeout=`` off the loop
                        budget = ticket.deadline
                        try:
                            result = result.result(
                                None if budget is None else budget.remaining()
                            )
                        except FutureError:
                            ticket.check_deadline("awaiting the call's result")
                            raise
                    # an async servant's coroutine (raw, or carried
                    # through a thread-spawned future untouched) runs to
                    # completion on the backend's loop here — a targeted
                    # error on backends without one
                    result = self.backend.finish(result)
            cancelled = ticket.finish()
            if cancelled is not None:
                raise cancelled
        except Exception as exc:  # noqa: BLE001 - delivered via futures
            failure = exc
        finally:
            ticket.release()  # capacity first, then the waiters
        if failure is not None:
            for future in futures:
                future.set_exception(failure)
            return
        if not packed:
            result = [result]
        elif result is None:
            result = [None] * len(futures)
        for future, value in zip(futures, result):
            future.set_result(value)

    def map(
        self,
        items: Iterable[Any],
        pack: bool | int = False,
        oneway: bool = False,
        timeout: float | None = None,
    ) -> FutureGroup:
        """Dispatch one work call per payload; returns a
        :class:`FutureGroup` of per-item futures in payload order.

        Each item is the work method's positional argument (pass tuples
        for multi-argument calls).  ``pack`` switches to *batched*
        submission: payloads are grouped (``True`` = one pack, an int =
        packs of that size) and each pack rides the compiled batched
        entry point — the advice chain runs once per pack around a
        :class:`~repro.aop.plan.BatchJoinPoint` and, under distribution,
        the whole pack is one message.  On partitioned specs the
        partition layer routes each whole pack at the top level
        (``routes_packs`` strategies: farm and dynamic-farm send a pack
        to one worker, the pipeline streams it through the stages) — one
        advice pass and one message per pack per worker.  Strategies
        whose work call cannot carry independent packs (heartbeat's
        iteration loop, divide-and-conquer's recursion) are rejected
        eagerly.  With ``oneway=True`` packs are sent fire-and-forget
        and every future resolves to ``None``.

        Admission control applies per submission unit: one slot per
        item unpacked, one slot per pack when packing — so a bounded
        ``max_in_flight`` backpressures (or rejects / sheds) a large
        ``map`` exactly like a burst of submits.  ``timeout=`` arms the
        same per-call deadline as :meth:`submit` on every unit.
        """
        payloads = [item if isinstance(item, tuple) else (item,) for item in items]
        if not pack:
            # each unit is admitted independently; a rejected unit
            # fails ITS OWN future instead of aborting the map — the
            # caller always gets the full group back, so handles to
            # already-dispatched in-flight work are never stranded
            group = FutureGroup()
            for index, payload in enumerate(payloads):
                try:
                    group.add(
                        self.submit(*payload, oneway=oneway, timeout=timeout)
                    )
                except AdmissionError as exc:
                    rejected = Future(
                        name=f"map.rejected.{index}", backend=self.backend
                    )
                    rejected.set_exception(exc)
                    group.add(rejected)
            return group
        if self.partition is not None and not self.spec.pack_routable:
            raise DeploymentError(
                f"pack submission is not routable on strategy "
                f"{self.spec.strategy!r}: its work call cannot carry "
                f"independent packs (only strategies that route whole "
                f"packs per worker — farm, dynamic-farm, pipeline — or "
                f"partition-less specs support map(pack=...)); use plain "
                f"map()/submit() or the CommunicationPackingAspect for "
                f"split-level packing"
            )
        self._check_oneway(oneway)
        instance = self._entry_instance()
        method = self.spec.resolved_work_method
        if not payloads:
            return FutureGroup()  # nothing to pack
        size = len(payloads) if pack is True else int(pack)
        if size < 1:
            raise DeploymentError(f"pack size must be >= 1, got {size}")
        group = FutureGroup()
        # futures must live on the app's backend (like submit's), not the
        # ambient one — a sim-process caller waiting on a thread-event
        # future would deadlock the simulation's only OS thread
        futures = [
            group.add(Future(name=f"map.{method}.{i}", backend=self.backend))
            for i in range(len(payloads))
        ]

        for start in range(0, len(payloads), size):
            unit = futures[start : start + size]
            pieces = [
                CallPiece(index, payload)
                for index, payload in enumerate(payloads[start : start + size])
            ]
            # one admission unit per pack: blocking/failing/shedding
            # happens HERE, in the mapping caller, pack by pack — a
            # rejected pack fails its own futures and the map goes on,
            # keeping every handle in the returned group reachable
            try:
                ticket = self._admit(f"map.pack.{method}", timeout)
            except AdmissionError as exc:
                for future in unit:
                    future.set_exception(exc)
                continue
            for future in unit:
                future.admission = ticket  # type: ignore[attr-defined]
            self._dispatch(
                ticket,
                unit,
                lambda p=pieces: batched_entry(instance, method, self.weaver)(p),
                f"map.pack.{method}.{start}",
                packed=True,
                detach=oneway and self.backend.servant_host == "loop",
            )
        return group

    def call(self, *args: Any, **kwargs: Any) -> Any:
        """Synchronous convenience: ``submit(...).result()``."""
        return self.submit(*args, **kwargs).result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ParallelApp {self.composition.name} target={self.spec.target.__name__}>"
