"""Load generators: a closed loop for saturation, an open loop for pacing.

Both drive a ``submit(index, op) -> future`` callable and a clock, so the
self-tests run them on stub apps and a fake clock.  The generators only
stamp times and keep replies; judging a reply right or wrong happens
after the clock stops.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

__all__ = [
    "Sample",
    "WallClock",
    "InlineReaper",
    "ThreadReaper",
    "closed_loop",
    "open_loop",
]

#: a reply that takes longer than this is a failed operation, not a hang
RESULT_TIMEOUT_S = 30.0


class Sample:
    """One operation: when it was due, sent, accepted and answered."""

    __slots__ = ("index", "due", "start", "returned", "done", "future", "reply", "error")

    def __init__(self, index: int, due: float, start: float):
        self.index = index
        self.due = due
        self.start = start
        self.returned = start
        self.done = start
        self.future: Any = None
        self.reply: Any = None
        self.error: BaseException | None = None

    def settle(self, clock: Any) -> None:
        """Wait for the reply (or the failure) and stamp its arrival."""
        if self.error is None:
            try:
                self.reply = self.future.result(timeout=RESULT_TIMEOUT_S)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                self.error = exc
        self.future = None
        self.done = clock.now()


class WallClock:
    """The real clock: ``perf_counter`` and a sleeping wait.  The wait
    never spins: on one pinned CPU a spinning generator would take the
    interpreter from the threads it is measuring."""

    now = staticmethod(time.perf_counter)

    @staticmethod
    def sleep_until(when: float) -> None:
        remaining = when - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)


def _send(
    submit: Callable, index: int, op: Any, due: float | None, clock: Any
) -> Sample:
    start = clock.now()
    sample = Sample(index, start if due is None else due, start)
    try:
        sample.future = submit(index, op)
    except Exception as exc:  # noqa: BLE001 - a refused call is a failed op
        sample.error = exc
    sample.returned = clock.now()
    return sample


def closed_loop(
    submit: Callable,
    ops: Sequence,
    clients: int,
    seconds: float,
    clock: Any,
    first_index: int = 0,
    checkpoint: Callable[[], Any] | None = None,
    every: int = 20,
) -> tuple:
    """Keep ``clients`` calls in flight for ``seconds``: the next call
    goes out when the oldest is answered.  Returns ``(samples, marks)``
    after the last reply, so every sample is settled.  ``marks`` holds
    ``(replies so far, now, checkpoint())`` at the start and after every
    ``every`` replies: the fine groups the summaries are cut into.  The
    replies after the last full group are left out of the groups: they
    come back while the loop drains, faster than the loop sustains."""
    samples: list = []
    pending: deque = deque()
    index = first_index
    read = checkpoint if checkpoint is not None else (lambda: None)
    marks = [(0, clock.now(), read())]
    end = marks[0][1] + seconds
    while True:
        if clock.now() < end:
            while len(pending) < clients:
                pending.append(
                    _send(submit, index, ops[index % len(ops)], None, clock)
                )
                index += 1
        if not pending:
            if len(marks) == 1 and samples:  # too short for one full group
                marks.append((len(samples), clock.now(), read()))
            return samples, marks
        oldest = pending.popleft()
        oldest.settle(clock)
        samples.append(oldest)
        if len(samples) % every == 0:
            marks.append((len(samples), clock.now(), read()))


class InlineReaper:
    """Settles each sample in the generator's thread (self-tests)."""

    def __init__(self, clock: Any):
        self.clock = clock
        self.samples: list = []

    def put(self, sample: Sample) -> None:
        sample.settle(self.clock)
        self.samples.append(sample)

    def close(self) -> list:
        return self.samples


class ThreadReaper:
    """One thread that waits for replies in send order and stamps each
    as it arrives, so the generator never blocks on a reply."""

    _STOP = object()

    def __init__(self, clock: Any):
        self.clock = clock
        self.samples: list = []
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._run, name="e2ebench.reaper", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            sample = self._queue.get()
            if sample is self._STOP:
                return
            sample.settle(self.clock)
            self.samples.append(sample)

    def put(self, sample: Sample) -> None:
        self._queue.put(sample)

    def close(self) -> list:
        self._queue.put(self._STOP)
        self._thread.join()
        return self.samples


def open_loop(
    submit: Callable,
    ops: Sequence,
    due: Sequence[float],
    clock: Any,
    reaper: Any,
    first_index: int = 0,
) -> tuple:
    """Send one call at each due time, whatever happened to the earlier
    ones.  A generator that falls behind sends at once, and latency still
    runs from the due time, so a stall is charged to every call it
    delayed.  Returns ``(samples, origin)`` with every sample settled."""
    origin = clock.now()
    for position, offset in enumerate(due):
        when = origin + offset
        clock.sleep_until(when)
        index = first_index + position
        reaper.put(_send(submit, index, ops[index % len(ops)], when, clock))
    return reaper.close(), origin
