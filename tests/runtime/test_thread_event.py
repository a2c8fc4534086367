"""ThreadBackend's event: the flag is the truth, the ``threading.Event``
under it is built by the first waiter that finds the flag down."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.runtime import Future, ThreadBackend

PATIENCE = 10.0


@pytest.fixture
def events_built(monkeypatch):
    """Counts the ``threading.Event`` objects built during the test."""
    built = []

    class Counted(threading.Event):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(threading, "Event", Counted)
    return built


def test_set_before_wait_builds_no_threading_event(events_built):
    event = ThreadBackend().make_event()
    assert not event.is_set and event.value is None
    event.set("ready")
    assert event.is_set and event.value == "ready"
    assert event.wait() is True and event.wait(0.01) is True
    event.set("late")  # the first value wins
    assert event.value == "ready"
    event.clear()
    assert not event.is_set and event.value is None
    assert events_built == []


def test_future_resolved_before_it_is_read_builds_none(events_built):
    future = Future(backend=ThreadBackend())
    future.set_result(7)
    assert future.result() == 7
    assert events_built == []


def test_wait_with_a_timeout_returns_false(events_built):
    event = ThreadBackend().make_event()
    assert event.wait(0.01) is False
    assert event.wait(0) is False
    assert len(events_built) == 1  # racing or repeated waiters share it


def test_every_waiter_wakes():
    """Racing first waiters must end up parked on ONE face: a waiter on
    a face of its own would never hear the set."""
    event = ThreadBackend().make_event()
    woken = []
    parked = threading.Barrier(9)

    def waiter():
        parked.wait(PATIENCE)
        woken.append(event.wait(PATIENCE))

    threads = [threading.Thread(target=waiter) for _ in range(8)]
    for thread in threads:
        thread.start()
    parked.wait(PATIENCE)
    event.set("go")
    for thread in threads:
        thread.join(PATIENCE)
    assert woken == [True] * 8


def test_wait_after_clear_parks_again():
    event = ThreadBackend().make_event()
    assert event.wait(0.01) is False  # the face exists from here on
    event.set()
    assert event.wait(0.01) is True
    event.clear()
    assert event.wait(0.01) is False  # no stale face lets it through


ROUNDS = 3000


def run_rounds(waiter, setter):
    """Run the two sides of a race under a 10 µs switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=waiter)
    try:
        thread.start()
        setter()
        thread.join(PATIENCE)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


def test_first_wait_racing_the_set_loses_no_wakeup():
    """A fresh event per round, ONE set per event, no second chance:
    the first waiter builds the face while the set looks for it.  A
    waiter that missed both the flag and the set strands, and shows as
    a timeout."""
    backend = ThreadBackend()
    events = [backend.make_event() for _ in range(ROUNDS)]
    about_to_wait = threading.Semaphore(0)
    stranded = []

    def waiter():
        for round_, event in enumerate(events):
            about_to_wait.release()
            if not event.wait(2.0):
                stranded.append(round_)

    def setter():
        for event in events:
            assert about_to_wait.acquire(timeout=PATIENCE)
            event.set()

    run_rounds(waiter, setter)
    assert stranded == []


def test_clear_racing_the_set_does_not_strand_a_parked_waiter():
    """One event, a third thread clearing it without pause.  Each round
    the waiter is seen parked, then the event is set ONCE: the set must
    wake it even when a clear overtakes the set half way — the flag is
    down again by the time anyone looks, the wakeup still happened."""
    event = ThreadBackend().make_event()
    about_to_wait = threading.Semaphore(0)
    woke = threading.Semaphore(0)
    stranded = []
    storming = [True]

    def waiter():
        for _ in range(ROUNDS):
            about_to_wait.release()
            event.wait(PATIENCE)
            woke.release()

    def storm():
        while storming[0]:
            event.clear()

    def parked():
        face = event._face
        return face is not None and len(face._cond._waiters) == 1

    def setter():
        for round_ in range(ROUNDS):
            assert about_to_wait.acquire(timeout=PATIENCE)
            # a flag the storm had not cleared yet lets the waiter
            # straight through: nothing to see this round
            while not woke.acquire(blocking=False):
                if parked():
                    event.set()
                    if not woke.acquire(timeout=2.0):
                        stranded.append(round_)
                        event.set()  # let the waiter go on
                        assert woke.acquire(timeout=PATIENCE)
                    break

    clearer = threading.Thread(target=storm)
    clearer.start()
    try:
        run_rounds(waiter, setter)
    finally:
        storming[0] = False
        clearer.join(PATIENCE)
    assert stranded == []
