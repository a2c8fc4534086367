"""Property-style tests for ``ResultCollector`` retry accounting.

Seeded ``random.Random`` interleavings of deposits, duplicate
deliveries, and keyed failures drive the collector from worker threads;
whatever the schedule, three invariants must hold:

* exactly one result is deposited per piece (keyed dedup — a dropped
  reply whose work completed late never double-counts);
* re-dispatches never exceed ``max_attempts - 1`` per piece;
* exhausted pieces latch the piece's ORIGINAL failure (first recorded
  traceback), not the last retry's.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.errors import AdmissionError, InjectedFault, RemoteError
from repro.faults import RetryPolicy
from repro.parallel.partition import CallPiece
from repro.parallel.partition.base import ResultCollector
from repro.runtime import ThreadBackend


def make_collector(expected, policy=None, redispatch=None):
    collector = ResultCollector(expected, backend=ThreadBackend())
    if policy is not None:
        collector.arm_retry(policy, redispatch)
    return collector


class TestRetryPolicy:
    def test_defaults_retry_infrastructure_failures_only(self):
        policy = RetryPolicy()
        assert policy.retryable(InjectedFault("injected"))
        assert not policy.retryable(RemoteError("app error"))
        assert not policy.retryable(ValueError("app error"))

    def test_admission_errors_never_retry(self):
        # even when explicitly listed: a shed/deadline verdict is about
        # the call, not the worker
        policy = RetryPolicy(retry_on=(AdmissionError,))
        assert not policy.retryable(AdmissionError("shed"))

    def test_validation(self):
        from repro.errors import AdviceError

        with pytest.raises(AdviceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(AdviceError):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(AdviceError):
            RetryPolicy(retry_on=("not a class",))


class TestCollectorRetryUnit:
    def test_keyed_fail_redispatches_instead_of_latching(self):
        redispatched: list = []
        collector = make_collector(
            1, RetryPolicy(max_attempts=3), redispatched.append
        )
        piece = CallPiece(0, (1,))
        collector.fail(InjectedFault("boom"), piece=piece)
        assert not collector.failed
        assert redispatched == [piece]

    def test_exhaustion_latches_original_failure(self):
        redispatched: list = []
        collector = make_collector(
            1, RetryPolicy(max_attempts=3), redispatched.append
        )
        piece = CallPiece(0, ())
        first = InjectedFault("original")
        collector.fail(first, piece=piece)
        collector.fail(InjectedFault("second"), piece=piece)
        assert not collector.failed
        collector.fail(InjectedFault("last straw"), piece=piece)
        assert collector.failed
        with pytest.raises(InjectedFault, match="original"):
            collector.wait(timeout=1)
        assert len(redispatched) == 2  # never exceeds max_attempts - 1

    def test_non_retryable_failure_latches_immediately(self):
        redispatched: list = []
        collector = make_collector(
            1, RetryPolicy(max_attempts=5), redispatched.append
        )
        collector.fail(ValueError("app bug"), piece=CallPiece(0, ()))
        assert collector.failed
        assert redispatched == []

    def test_unkeyed_fail_latches_even_with_policy(self):
        # a failure that names no piece cannot be re-dispatched
        collector = make_collector(
            1, RetryPolicy(max_attempts=5), lambda piece: None
        )
        collector.fail(InjectedFault("anonymous"))
        assert collector.failed

    def test_fail_after_result_landed_is_ignored(self):
        # drop_reply journey: the work completed (deposited late), then
        # the dispatcher reports the drop — no attempt may be charged
        redispatched: list = []
        collector = make_collector(
            2, RetryPolicy(max_attempts=2), redispatched.append
        )
        piece = CallPiece(0, ())
        collector.deposit("done", key=piece.index)
        collector.fail(InjectedFault("late drop"), piece=piece)
        assert not collector.failed
        assert redispatched == []

    def test_duplicate_keyed_deposits_count_once(self):
        collector = make_collector(2)
        collector.deposit("a", key=0)
        collector.deposit("a-again", key=0)
        collector.deposit("b", key=1)
        assert collector.wait(timeout=1) == ["a", "b"]

    def test_redispatch_hook_exception_latches(self):
        def broken(piece):
            raise RuntimeError("refeed path is gone")

        collector = make_collector(1, RetryPolicy(max_attempts=3), broken)
        collector.fail(InjectedFault("boom"), piece=CallPiece(0, ()))
        with pytest.raises(RuntimeError, match="refeed path is gone"):
            collector.wait(timeout=1)


@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_keep_retry_invariants(seed):
    """The property run: N pieces, each failing a random number of times
    before (maybe) succeeding, driven by concurrent worker threads whose
    redispatches re-enter the same collector."""
    rng = random.Random(seed)
    pieces = 6
    policy = RetryPolicy(max_attempts=3)
    # per piece: how many injected failures before the piece succeeds
    # (max_attempts or more means the piece exhausts its attempts)
    failures_before_success = [rng.randint(0, 4) for _ in range(pieces)]
    should_fail = any(
        n >= policy.max_attempts for n in failures_before_success
    )
    first_errors = {}

    collector = make_collector(pieces, policy)
    deposits_attempted = [0] * pieces
    lock = threading.Lock()

    def attempt(piece):
        index = piece.index
        with lock:
            # how many failures this piece has already recorded
            charged = collector._attempts.get(index, 0)
        if charged < failures_before_success[index]:
            exc = InjectedFault(f"piece {index} failure #{charged + 1}")
            with lock:
                first_errors.setdefault(index, exc if charged == 0 else first_errors.get(index))
            collector.fail(exc, piece=piece)
        else:
            with lock:
                deposits_attempted[index] += 1
            collector.deposit(("ok", index), key=index)
            if rng.random() < 0.3:
                # duplicate delivery: a dropped-reply journey that
                # completed anyway reports the same result again
                collector.deposit(("dup", index), key=index)

    # redispatch re-enters attempt() on a fresh thread (like a refeed);
    # completion is tracked with a counter + event (threads spawn
    # threads, so a join list would race its own appends)
    pending = [0]
    idle = threading.Event()

    def run(piece):
        try:
            attempt(piece)
        finally:
            with lock:
                pending[0] -= 1
                if pending[0] == 0:
                    idle.set()

    def redispatch(piece):
        with lock:
            pending[0] += 1
            idle.clear()
        threading.Thread(target=lambda: run(piece)).start()

    collector.redispatch = redispatch
    for index in rng.sample(range(pieces), pieces):
        redispatch(CallPiece(index, ()))
    assert idle.wait(timeout=20), "interleaving never drained"

    if should_fail:
        exhausted = [
            i
            for i, n in enumerate(failures_before_success)
            if n >= policy.max_attempts
        ]
        with pytest.raises(InjectedFault) as err:
            collector.wait(timeout=10)
        # the latched failure is some exhausted piece's FIRST failure
        assert "failure #1" in str(err.value)
        assert any(f"piece {i} " in str(err.value) for i in exhausted)
    else:
        results = collector.wait(timeout=10)
        # exactly one result per piece, no duplicates, despite the 30%
        # duplicate-delivery injection
        assert sorted(index for _, index in results) == list(range(pieces))
        assert all(tag == "ok" for tag, _ in results)
    # re-dispatches never exceed the cap on any piece
    for index in range(pieces):
        assert collector._attempts.get(index, 0) <= policy.max_attempts
