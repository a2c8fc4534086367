"""The submit path's budget, as counts instead of timings.

200 sequential submits of a 4-piece thread farm with a trivial servant,
counted four ways.  Counts repeat where timings do not, so this runs in
tier-1 on every lane; the four numbers are printed (``pytest -s``) so
the next diet of the submit path has its baseline.

* activities spawned per op — the submission's own plus one per piece
  but the last, which the splitting activity carries;
* ``contextlib._GeneratorContextManager`` objects built, by any code —
  none: the ambient scopes (``use_dispatch``, ``use_backend``, the
  piece's) and the split's ``dispatch_scope`` are plain push/pop;
* ``threading.Event`` builds per op — none: a waiter that finds a
  future pending parks on a lock of its own (``threading.Thread``'s
  own start handshake, when a carrier is born, is not counted);
* Python-level ``call`` events per op, over every thread, printed with
  their breakdown by ``repro`` package (stdlib and this file apart), so
  a diet of the path shows where its count moved;
* of those, calls into ``weakref.py`` — none: no ticket registers in a
  weak table, and none enters a live table either;
* and none into ``repro/faults/`` (no schedule is armed: a fault site
  tests the ticket's schedule inline), to ``Future.resolved``, to
  ``JoinPoint.signature`` (a piece future is named only when its name
  is read) or to a Python-level ``now`` (a clock read is
  ``time.monotonic`` itself).
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from collections import Counter

from repro.aop.joinpoint import JoinPoint
from repro.api import ParallelApp, StackSpec
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece
from repro.runtime import Future, asyncbackend
from repro.runtime.threads import CARRIER_LIFETIME

OPS = 200
PIECES = 4
#: 1 % above what the submit path measures: 263 per op on CPython 3.11,
#: 263.2-263.4 over runs (326 while a blocking wait parked on a
#: threading.Event, the clock, the resolved test, the piece scope, the
#: fault sites and the piece futures' names were Python calls and the
#: submission body ran under the app's backend twice; 339 while every parallelisation advice
#: asked whether a servant was being served, a ticket in the
#: partition's table, opened by a generator scope, read 343, in three
#: tables 353, the carried-piece path 371, and the one before it 631,
#: with 5 spawns, 20 generator scopes and 5 threading.Event builds per
#: op, failing all four assertions)
CALLS_PER_OP_CEILING = 266
REPRO_DIR = f"{os.sep}repro{os.sep}"
#: the wrappers the submit path no longer calls, by name
UNCALLED = {
    "Future.resolved": Future.resolved.fget.__code__,
    "JoinPoint.signature": JoinPoint.signature.fget.__code__,
}


def package_of(filename: str) -> str:
    """The ``repro`` package a code object lives in ("stdlib" outside
    ``repro``, "test" for this file's servant and splitter)."""
    if filename == __file__:
        return "test"
    _, found, rest = filename.rpartition(REPRO_DIR)
    if not found:
        return "stdlib"
    head, sep, _ = rest.partition(os.sep)
    return head if sep else "repro"


class Doubler:
    def run(self, values):
        return [v * 2 for v in values]


class AsyncDoubler:
    async def run(self, values):
        return [v * 2 for v in values]


def quarters(args, kwargs):
    values = args[0]
    return [CallPiece(i, (values[i::PIECES],)) for i in range(PIECES)]


def counting_events(monkeypatch) -> list:
    """Count the ``threading.Event`` objects built from here on, but
    those ``threading`` builds for itself (a thread's start handshake)."""
    built: list = []

    class CountedEvent(threading.Event):
        def __init__(self):
            if sys._getframe(1).f_code.co_filename != threading.__file__:
                built.append(self)
            super().__init__()

    monkeypatch.setattr(threading, "Event", CountedEvent)
    return built


def farm(target, backend):
    return ParallelApp(
        StackSpec(
            target=target,
            work="run",
            splitter=WorkSplitter(
                duplicates=PIECES,
                split=quarters,
                combine=lambda rs: sorted(v for r in rs for v in r),
            ),
            strategy="farm",
            backend=backend,
        )
    )


def test_submit_path_budget(monkeypatch):
    app = farm(Doubler, "thread")
    values = list(range(16))
    expected = sorted(v * 2 for v in values)

    scopes_built: list[str] = []
    generator_cm_init = contextlib._GeneratorContextManager.__init__

    def counting_init(self, func, args, kwds):
        scopes_built.append(func.__name__)
        generator_cm_init(self, func, args, kwds)

    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    with app:
        app.start()
        for _ in range(20):  # warm: plans compiled, carriers parked
            assert app.submit(values).result(timeout=10) == expected
        monkeypatch.setattr(
            contextlib._GeneratorContextManager, "__init__", counting_init
        )
        events_built = counting_events(monkeypatch)
        spawned_before = app.backend.spawned
        for _ in range(OPS):
            assert app.submit(values).result(timeout=10) == expected
        spawned = app.backend.spawned - spawned_before
        monkeypatch.undo()
        # the profile hooks slow every call, so they get a pass of their
        # own: the three counts above are taken at full speed.  A thread
        # takes its hook when it starts, so let the parked carriers retire
        time.sleep(3 * CARRIER_LIFETIME)
        threading.setprofile(profiler)
        sys.setprofile(profiler)
        try:
            for _ in range(OPS):
                assert app.submit(values).result(timeout=10) == expected
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    assert app.in_flight == 0
    by_package: Counter = Counter()
    for code, n in calls.items():
        by_package[package_of(code.co_filename)] += n
    total = sum(by_package.values())
    weakref_calls = sum(
        n for code, n in calls.items()
        if os.path.basename(code.co_filename) == "weakref.py"
    )
    uncalled = {name: calls[code] for name, code in UNCALLED.items()}
    uncalled["now"] = sum(
        n for code, n in calls.items()
        if code.co_name == "now" and package_of(code.co_filename) != "stdlib"
    )

    print(
        f"\nsubmit path budget, per op over {OPS} ops: "
        f"spawned {spawned / OPS:.2f}, "
        f"generator scopes {len(scopes_built) / OPS:.2f}, "
        f"threading.Event builds {len(events_built) / OPS:.2f}, "
        f"python calls {total / OPS:.1f} ("
        + ", ".join(
            f"{package} {n / OPS:.0f}" for package, n in by_package.most_common()
        )
        + f"), weakref.py calls {weakref_calls / OPS:.2f}, "
        + ", ".join(f"{name} {n / OPS:.2f}" for name, n in uncalled.items())
    )
    assert spawned == PIECES * OPS
    assert scopes_built == []
    assert events_built == []
    assert total / OPS <= CALLS_PER_OP_CEILING
    assert weakref_calls == 0
    assert by_package["faults"] == 0
    assert uncalled == dict.fromkeys(uncalled, 0)


def test_asyncio_host_event_budget(monkeypatch):
    """The same farm on the asyncio host, its servant ``async def``:
    no ``threading.Event`` is built, as on the thread host — the
    caller's wait and the gather's park on locks of their own (1.99
    per op while a waiter that found the flag down built a
    ``threading.Event`` face, five while the asyncio event built its
    face eagerly).  Once the loop thread runs, bridging a piece onto it
    takes no lock and asks no thread whether it is alive."""
    app = farm(AsyncDoubler, "asyncio")
    values = list(range(16))
    expected = sorted(v * 2 for v in values)
    host_locks = [0]
    alive_asked = [0]

    class CountedLock:
        def __init__(self, lock):
            self.lock = lock

        def __enter__(self):
            host_locks[0] += 1
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    is_alive = threading.Thread.is_alive

    def counted_is_alive(thread):
        alive_asked[0] += 1
        return is_alive(thread)

    with app:
        app.start()
        for _ in range(20):  # warm: plans compiled, the loop thread up
            assert app.submit(values).result(timeout=10) == expected
        events_built = counting_events(monkeypatch)
        monkeypatch.setattr(threading.Thread, "is_alive", counted_is_alive)
        host = asyncbackend._HOST
        monkeypatch.setattr(host, "_lock", CountedLock(host._lock))
        tasks_before = app.backend.tasks_started
        for _ in range(OPS):
            assert app.submit(values).result(timeout=10) == expected
        tasks = app.backend.tasks_started - tasks_before
        monkeypatch.undo()
    assert app.in_flight == 0
    print(
        f"\nasyncio host, per op over {OPS} ops: loop tasks {tasks / OPS:.2f}, "
        f"threading.Event builds {len(events_built) / OPS:.2f}, "
        f"loop host locks {host_locks[0] / OPS:.2f}, "
        f"is_alive calls {alive_asked[0] / OPS:.2f}"
    )
    assert tasks == PIECES * OPS
    assert events_built == []
    assert host_locks[0] == 0
    assert alive_asked[0] == 0
