"""Seeded fault schedules and the ambient fault plane.

A :class:`FaultSchedule` is a *deterministic* description of when the
runtime misbehaves: a list of explicit :class:`FaultEvent` entries
(keyed by hook site, worker index and per-site call count) and/or a
seeded random event stream (``rates=``) drawn from one
``random.Random(seed)`` in fire order — the same schedule replayed over
the same deterministic workload (the sim backend's virtual time)
produces the identical event trace, which is what the golden-trace
regression test pins down.

A deployment's schedule (``StackSpec.faults``) rides the dispatch
tickets of that deployment's calls (``ticket.faults``): a hook site
hands :func:`fire_fault` the ticket of the call it is working for, so
two deployments never see each other's events.  A call whose ticket
carries none — a skeleton driven without an app, an app deployed
without ``faults=`` — is answered by the *plane*: a process-global stack
(like the ambient backend, and NOT thread-local on purpose: resident
pool workers, per-call spawned activities and middleware reply waits
share no thread with whoever installed it).  With neither,
:func:`fire_fault` is a no-op costing a truthiness check or two, so the
production hot path stays unpriced.

Hook sites (the ``site`` key):

* ``"dispatch"`` — :func:`~repro.parallel.partition.base.dispatch_piece`,
  the boundary every skeleton's piece crosses (``index`` = the worker
  index the piece was routed to, when the strategy knows one);
* ``"pool"``     — the :class:`~repro.parallel.concurrency.asynchronous.PooledSpawner`
  worker loop, between pulling a task and running it (``index`` = the
  resident worker's pin index);
* ``"proc"``     — :class:`~repro.middleware.proc.ProcMiddleware`'s
  request/reply round trip (``index`` = the resident worker process
  index);
* ``"loop"``     — the :class:`~repro.runtime.asyncbackend.AsyncioBackend`'s
  bridged event-loop tasks, once per task before its coroutine is
  awaited (``index`` is unused — loop tasks have no stable worker
  identity).  ``delay_reply`` here is an ``await asyncio.sleep`` (the
  loop keeps serving every other task while the reply stalls).
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

from repro.errors import AdviceError

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultEvent",
    "FaultSchedule",
    "current_faults",
    "fire_fault",
    "install_faults",
    "remove_faults",
    "use_faults",
]

#: the four injectable misbehaviours
FAULT_KINDS = ("kill_worker", "drop_reply", "delay_reply", "raise_in_piece")
#: the four hook sites (see module docstring)
FAULT_SITES = ("dispatch", "pool", "proc", "loop")


class FaultEvent:
    """One scheduled misbehaviour.

    ``site`` names the hook point, ``index`` pins the event to one
    worker index (``None`` matches any), and exactly one of ``on_call``
    (fire on the N-th matching consultation, once) or ``every`` (fire on
    every N-th consultation, repeatedly) selects *when*.  Counts are
    kept per ``(site, index)`` when the event is index-pinned and per
    site otherwise, so "kill worker 0's first call" and "drop every 50th
    dispatch" are both one event.
    """

    __slots__ = ("kind", "site", "index", "on_call", "every", "delay", "fired")

    def __init__(
        self,
        kind: str,
        site: str = "dispatch",
        index: int | None = None,
        on_call: int = 1,
        every: int | None = None,
        delay: float = 0.0,
    ):
        if kind not in FAULT_KINDS:
            raise AdviceError(
                f"unknown fault kind {kind!r} (choose from "
                f"{', '.join(FAULT_KINDS)})"
            )
        if site not in FAULT_SITES:
            raise AdviceError(
                f"unknown fault site {site!r} (choose from "
                f"{', '.join(FAULT_SITES)})"
            )
        if on_call < 1:
            raise AdviceError("on_call counts from 1")
        if every is not None and every < 1:
            raise AdviceError("every must be >= 1")
        if delay < 0:
            raise AdviceError("delay must be >= 0")
        self.kind = kind
        self.site = site
        self.index = index
        self.on_call = on_call
        self.every = every
        self.delay = delay
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"{self.site}[{self.index}]" if self.index is not None else self.site
        when = f"every={self.every}" if self.every else f"on_call={self.on_call}"
        return f"<FaultEvent {self.kind}@{where} {when}>"


class FaultSchedule:
    """A deterministic plan of injected faults, with an event trace.

    Two event sources compose:

    * ``events`` — explicit :class:`FaultEvent` entries, matched in
      declaration order (the first unexhausted match per consultation
      wins);
    * ``rates`` — a ``{kind: probability}`` map drawn from one seeded
      ``random.Random``; the RNG is consumed once per consultation in
      fire order, so over a deterministic workload (virtual time, or a
      concurrency-free run) the drawn events replay identically.

    Every fired event is appended to :attr:`trace` as a
    ``[sequence, site, index, count, kind]`` row — plain data, suitable
    for committing as a golden trace.
    """

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        seed: int | None = None,
        rates: dict[str, float] | None = None,
        name: str = "faults",
    ):
        self.events = list(events)
        self.seed = seed
        self.rates = dict(rates) if rates else {}
        for kind in self.rates:
            if kind not in FAULT_KINDS:
                raise AdviceError(f"unknown fault kind {kind!r} in rates")
        self.name = name
        self._rng = random.Random(seed)
        self._counts: dict[Any, int] = {}
        #: fired events as [sequence, site, index, count, kind] rows
        self.trace: list[list[Any]] = []
        self._lock = threading.Lock()

    def fire(self, site: str, index: int | None = None) -> FaultEvent | None:
        """Consult the schedule at a hook site: bump the site's call
        counters, return the matching event (at most one per
        consultation) and record it in the trace, or ``None``."""
        with self._lock:
            site_count = self._counts.get(site, 0) + 1
            self._counts[site] = site_count
            pinned_count = None
            if index is not None:
                key = (site, index)
                pinned_count = self._counts.get(key, 0) + 1
                self._counts[key] = pinned_count
            event = self._match_locked(site, index, site_count, pinned_count)
            if event is None and self.rates:
                event = self._draw_locked(site, index)
            if event is not None:
                count = pinned_count if event.index is not None else site_count
                self.trace.append(
                    [len(self.trace), site, index, count, event.kind]
                )
            return event

    def _match_locked(
        self,
        site: str,
        index: int | None,
        site_count: int,
        pinned_count: int | None,
    ) -> FaultEvent | None:
        for event in self.events:
            if event.site != site:
                continue
            if event.index is not None:
                if index is None or event.index != index:
                    continue
                count = pinned_count
            else:
                count = site_count
            if event.every is not None:
                if count % event.every == 0:
                    return event
            elif not event.fired and count == event.on_call:
                event.fired = True
                return event
        return None

    def _draw_locked(self, site: str, index: int | None) -> FaultEvent | None:
        # one draw per consultation, whatever the outcome: the RNG
        # consumption order IS the determinism contract
        draw = self._rng.random()
        floor = 0.0
        for kind, rate in self.rates.items():
            if floor <= draw < floor + rate:
                return FaultEvent(kind, site=site, index=index)
            floor += rate
        return None

    def fired_count(self) -> int:
        """Events fired so far (trace length)."""
        with self._lock:
            return len(self.trace)

    def trace_snapshot(self) -> list[list[Any]]:
        """An immutable copy of the fired-event trace."""
        with self._lock:
            return [list(row) for row in self.trace]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultSchedule {self.name} events={len(self.events)} "
            f"fired={len(self.trace)}>"
        )


# ---------------------------------------------------------------------------
# The ambient fault plane
# ---------------------------------------------------------------------------

#: the plane: installed schedules, innermost last — deliberately
#: process-global (NOT thread-local): pool residents and spawned
#: activities must see the schedule the installing thread pushed
_ACTIVE: list[FaultSchedule] = []
_PLANE_LOCK = threading.Lock()


def install_faults(schedule: FaultSchedule) -> FaultSchedule:
    """Push ``schedule`` onto the fault plane (innermost wins); returns
    the schedule as the removal token."""
    with _PLANE_LOCK:
        _ACTIVE.append(schedule)
    return schedule


def remove_faults(schedule: FaultSchedule) -> None:
    """Remove one installation of ``schedule`` (idempotent)."""
    with _PLANE_LOCK:
        for position in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[position] is schedule:
                del _ACTIVE[position]
                return


@contextmanager
def use_faults(schedule: FaultSchedule | None) -> Iterator[FaultSchedule | None]:
    """Install ``schedule`` for the block (``None`` is a pass-through)."""
    if schedule is None:
        yield None
        return
    install_faults(schedule)
    try:
        yield schedule
    finally:
        remove_faults(schedule)


def current_faults() -> FaultSchedule | None:
    """The innermost installed schedule, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def fire_fault(
    site: str, index: int | None = None, ticket: Any = None
) -> FaultEvent | None:
    """Consult, at a hook site, the schedule of the call being worked
    for: the one ``ticket`` carries, else the innermost on the plane.
    The fast path — neither — makes no call, so instrumented boundaries
    cost nothing in production."""
    if ticket is None or ticket.faults is None:
        if not _ACTIVE:
            return None
        return _ACTIVE[-1].fire(site, index)
    return ticket.faults.fire(site, index)
