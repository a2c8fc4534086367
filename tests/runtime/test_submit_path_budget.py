"""The submit path's budget, as counts instead of timings.

200 sequential submits of a 4-piece thread farm with a trivial servant,
counted four ways.  Counts repeat where timings do not, so this runs in
tier-1 on every lane; the four numbers are printed (``pytest -s``) so
the next diet of the submit path has its baseline.

* activities spawned per op — the submission's own plus one per piece
  but the last, which the splitting activity carries;
* ``contextlib._GeneratorContextManager`` objects built by the three
  ambient scopes (``use_dispatch``/``use_piece``/``use_backend``) —
  none: they are plain push/pop;
* ``threading.Event`` builds per op — only a future somebody waits on
  before it resolves may build one;
* Python-level ``call`` events per op, over every thread, printed with
  their breakdown by ``repro`` package (stdlib and this file apart), so
  a diet of the path shows where its count moved.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time
from collections import Counter

from repro.api import ParallelApp, StackSpec
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece
from repro.runtime.threads import CARRIER_LIFETIME

OPS = 200
PIECES = 4
AMBIENT_SCOPES = {"use_dispatch", "use_piece", "use_backend"}
#: 5 % above what the submit path measures: 352 per op on CPython 3.11,
#: the same on every run (the carried-piece path read 371, and the one
#: before it 631, with 5 spawns, 20 generator scopes and 5
#: threading.Event builds per op, failing all four assertions)
CALLS_PER_OP_CEILING = 369
REPRO_DIR = f"{os.sep}repro{os.sep}"


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


def quarters(args, kwargs):
    values = args[0]
    return [CallPiece(i, (values[i::PIECES],)) for i in range(PIECES)]


def test_submit_path_budget(monkeypatch):
    app = ParallelApp(
        StackSpec(
            target=Doubler,
            work="run",
            splitter=WorkSplitter(
                duplicates=PIECES,
                split=quarters,
                combine=lambda rs: sorted(v for r in rs for v in r),
            ),
            strategy="farm",
            backend="thread",
        )
    )
    values = list(range(16))
    expected = sorted(v * 2 for v in values)

    scopes_built: list[str] = []
    generator_cm_init = contextlib._GeneratorContextManager.__init__

    def counting_init(self, func, args, kwds):
        if func.__name__ in AMBIENT_SCOPES:
            scopes_built.append(func.__name__)
        generator_cm_init(self, func, args, kwds)

    events_built = [0]

    class CountedEvent(threading.Event):
        def __init__(self):
            events_built[0] += 1
            super().__init__()

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
        monkeypatch.setattr(threading, "Event", CountedEvent)
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

    print(
        f"\nsubmit path budget, per op over {OPS} ops: "
        f"spawned {spawned / OPS:.2f}, "
        f"ambient generator scopes {len(scopes_built) / OPS:.2f}, "
        f"threading.Event builds {events_built[0] / OPS:.2f}, "
        f"python calls {total / OPS:.0f} ("
        + ", ".join(
            f"{package} {n / OPS:.0f}" for package, n in by_package.most_common()
        )
        + ")"
    )
    assert spawned == PIECES * OPS
    assert scopes_built == []
    assert events_built[0] <= 2 * OPS
    assert total / OPS <= CALLS_PER_OP_CEILING
