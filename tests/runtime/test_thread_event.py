"""ThreadBackend's event is a latch: the flag is the truth, and a waiter
that finds it down parks on a lock of its own, published in the event's
list of parked waiters, which ``set()`` releases.  No
``threading.Event`` is built, by any test here."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.runtime import Future, ThreadBackend, threads

PATIENCE = 10.0


@pytest.fixture(autouse=True)
def events_built(monkeypatch):
    """Counts the ``threading.Event`` objects built during the test,
    and requires there to be none (``threading.Thread`` builds one per
    thread for its own start handshake: those are not counted)."""
    built = []

    class Counted(threading.Event):
        def __init__(self):
            if sys._getframe(1).f_code.co_filename != threading.__file__:
                built.append(self)
            super().__init__()

    monkeypatch.setattr(threading, "Event", Counted)
    yield built
    assert built == []


def parked(event) -> int:
    """How many waiters are parked on ``event`` now."""
    return len(event._parked)


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
    assert parked(event) == 0


def test_future_resolved_before_it_is_read_builds_none(events_built):
    future = Future(backend=ThreadBackend())
    future.set_result(7)
    assert future.result() == 7
    assert parked(future._event) == 0


def test_wait_with_a_timeout_returns_false(events_built):
    event = ThreadBackend().make_event()
    assert event.wait(0.01) is False
    assert event.wait(0) is False
    assert event.wait(-1) is False
    assert parked(event) == 0  # an expired waiter takes its lock back


def test_every_waiter_wakes():
    """Racing first waiters must all be published in ONE list: a waiter
    missing from it would never hear the set."""
    event = ThreadBackend().make_event()
    woken = []
    ready = threading.Barrier(9)

    def waiter():
        ready.wait(PATIENCE)
        woken.append(event.wait(PATIENCE))

    threads = [threading.Thread(target=waiter, daemon=True) for _ in range(8)]
    for thread in threads:
        thread.start()
    ready.wait(PATIENCE)
    event.set("go")
    for thread in threads:
        thread.join(PATIENCE)
    assert woken == [True] * 8
    assert parked(event) == 0


def test_wait_after_clear_parks_again():
    event = ThreadBackend().make_event()
    assert event.wait(0.01) is False
    event.set()
    assert event.wait(0.01) is True
    event.clear()
    assert event.wait(0.01) is False  # no stale lock lets it through
    assert parked(event) == 0


ROUNDS = 3000


def run_rounds(waiter, setter):
    """Run the two sides of a race under a 10 µs switch interval.  The
    waiter is a daemon: a failing setter must not leave it holding the
    interpreter open."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=waiter, daemon=True)
    try:
        thread.start()
        setter()
        thread.join(PATIENCE)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()


class YieldingLock:
    """The events' list lock, handing the GIL over before each entry: a
    thread switch between a waiter's first look at the flag and the
    publishing of its lock."""

    def __init__(self, lock):
        self.lock = lock

    def __enter__(self):
        time.sleep(0)
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class YieldingList(list):
    """An event's list of parked waiters, handing the GIL over when
    looked at: a thread switch between a set's raising the flag and its
    look for waiters."""

    def __len__(self):
        length = super().__len__()
        time.sleep(0)
        return length


def test_first_wait_racing_the_set_loses_no_wakeup(monkeypatch):
    """A fresh event per round, ONE set per event, no second chance:
    the first waiter publishes its lock while the set looks for
    waiters.  A waiter that missed both the flag and the set strands,
    and shows as a timeout.  A thread switch is put on each side of the
    race, so the set runs between the waiter's first look at the flag
    and its publishing, and the waiter publishes between the set's
    raising the flag and its look: a latch that reads either side in
    the wrong order loses wakeups here, not once in a million rounds."""
    monkeypatch.setattr(threads, "_face_lock", YieldingLock(threads._face_lock))
    backend = ThreadBackend()
    events = [backend.make_event() for _ in range(ROUNDS)]
    for event in events:
        event._parked = YieldingList()
    about_to_wait = threading.Semaphore(0)
    stranded = []

    def waiter():
        for round_, event in enumerate(events):
            about_to_wait.release()
            if not event.wait(2.0):
                stranded.append(round_)
                return  # the setter stops at the next round

    def setter():
        for event in events:
            assert about_to_wait.acquire(timeout=PATIENCE)
            event.set()

    run_rounds(waiter, setter)
    assert stranded == []
    assert [round_ for round_, e in enumerate(events) if parked(e)] == []


def test_clear_racing_the_set_does_not_strand_a_parked_waiter():
    """One event, a third thread clearing it without pause.  Each round
    the waiter is seen parked, a clear runs, then the event is set ONCE
    while the clears go on: the set must wake it even when a clear
    overtakes the set half way — the flag is down again by the time
    anyone looks, the wakeup still happened."""
    event = ThreadBackend().make_event()
    about_to_wait = threading.Semaphore(0)
    woke = threading.Semaphore(0)
    stranded = []
    storming = [True]

    def waiter():
        for round_ in range(ROUNDS):
            if not storming[0]:
                return
            about_to_wait.release()
            started = time.monotonic()
            # a set comes as soon as the waiter shows parked: a wait of
            # seconds was stranded, whatever it returned in the end
            if not event.wait(PATIENCE) or time.monotonic() - started > 2.0:
                stranded.append(round_)
            woke.release()

    clears = [0]

    def storm():
        while storming[0]:
            event.clear()
            clears[0] += 1

    def setter():
        for round_ in range(ROUNDS):
            if stranded:
                return
            assert about_to_wait.acquire(timeout=PATIENCE)
            # a flag the storm had not cleared yet lets the waiter
            # straight through: nothing to see this round
            while not woke.acquire(blocking=False):
                if parked(event) == 1:
                    seen = clears[0]
                    while clears[0] == seen:  # a clear while it is parked
                        time.sleep(0)
                    event.set()
                    if not woke.acquire(timeout=2.0):
                        stranded.append(round_)
                        event.set()  # let the waiter go on
                        assert woke.acquire(timeout=PATIENCE)
                    break

    clearer = threading.Thread(target=storm, daemon=True)
    clearer.start()
    try:
        run_rounds(waiter, setter)
    finally:
        # whatever failed above, the storm stops: a storm left running
        # clears the event forever and the waiter never gets through
        storming[0] = False
        event.set()
        clearer.join(PATIENCE)
    assert stranded == []


def test_timed_wait_expiring_while_the_set_runs():
    """A fresh event per round, its waiter's 100 µs wait running out
    about when the ONE set comes (the setter holds back 0-390 µs,
    round by round).  Whichever wins, the waiter returns: woken by the
    set, which unpublished its lock, or expired, having taken the lock
    back itself — so no lock is left in the list for a later set to
    release."""
    backend = ThreadBackend()
    events = [backend.make_event() for _ in range(ROUNDS)]
    about_to_wait = threading.Semaphore(0)
    returned = []

    def waiter():
        for event in events:
            about_to_wait.release()
            returned.append(event.wait(1e-4))

    def setter():
        for round_, event in enumerate(events):
            assert about_to_wait.acquire(timeout=PATIENCE)
            held_until = time.perf_counter() + (round_ % 40) * 1e-5
            while time.perf_counter() < held_until:
                pass
            event.set()

    run_rounds(waiter, setter)
    assert len(returned) == ROUNDS
    assert [round_ for round_, e in enumerate(events) if parked(e)] == []
    assert all(event.is_set for event in events)
    # the race ran both ways: some waits were woken, some expired
    assert True in returned and False in returned
