"""Layer probes: each calls one layer's public entry point, alone, with
the workload's real inputs, and reports microseconds per call.

A probe says what a layer costs when nothing else runs; the traced run
says how often an operation calls it.  Their product over the saturated
operation time is the layer's share of the budget.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable

from repro.middleware import server_dispatch
from repro.middleware.serialize import (
    ReplyEnvelope,
    RequestEnvelope,
    decode_envelope,
    encode_envelope,
)

from .stats import undisturbed

__all__ = ["run_probes", "op_calls"]

#: wall seconds one probe may take
_BUDGET_S = 0.08


def _batched_us(fn: Callable[[], Any], budget_s: float = _BUDGET_S) -> float:
    """Microseconds per call of a cheap ``fn``: timed in batches, the
    undisturbed quartile of the batch means."""
    batch = 1
    while True:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        took = time.perf_counter() - start
        if took >= 0.002 or batch >= 1 << 16:
            break
        batch *= 4
    means = [took / batch]
    end = time.perf_counter() + budget_s
    while time.perf_counter() < end:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        means.append((time.perf_counter() - start) / batch)
    return undisturbed(means, "lower") * 1e6


def _each_us(
    fn: Callable[[], Any],
    after: Callable[[Any], None] | None = None,
    budget_s: float = _BUDGET_S,
    least: int = 5,
) -> float:
    """Microseconds per call of ``fn`` timed call by call; ``after``
    runs outside the clock (joining what the call started)."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < least or time.perf_counter() < end:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        if after is not None:
            after(result)
    return undisturbed(times, "lower") * 1e6


def _noop() -> None:
    return None


def _stage_cores(workload: Any, splitter: Any) -> list:
    """One unwoven instance per duplicate, built with the constructor
    arguments the partition layer would hand each."""
    cores = []
    for index in range(splitter.duplicates):
        args, kwargs = splitter.ctor_args((), {}, index)
        cores.append(workload.core(*args, **kwargs))
    return cores


def op_calls(workload: Any, cores: list, splitter: Any, op: Any, call: Callable) -> list:
    """The servant calls one op turns into, as ``(bound method, args,
    result)``: one per piece on a farm, one per piece and stage on a
    pipeline.  ``call(bound, args)`` runs one unwoven servant method."""
    pipeline = workload.spec().strategy == "pipeline"
    calls = []
    for piece in splitter.split((op,), {}):
        args = piece.args
        stages = cores if pipeline else [cores[piece.index % len(cores)]]
        for core in stages:
            bound = getattr(core, workload.method)
            result = call(bound, args)
            calls.append((bound, args, result))
            args, _ = splitter.forward_args(result, args, {})
    return calls


def run_probes(app: Any, workload: Any, ops: list) -> dict:
    """Every probe the workload's stack has a layer for; a layer the
    workload does not use reports 0."""
    out: dict = {}
    backend = app.backend
    splitter = app.spec.splitter
    method = workload.method
    loop = asyncio.new_event_loop()
    is_async = asyncio.iscoroutinefunction(getattr(workload.core, method))

    def call(bound: Callable, args: tuple) -> Any:
        if is_async:
            return loop.run_until_complete(bound(*args))
        return bound(*args)

    # -- machine and runtime ------------------------------------------------
    def start_join() -> None:
        thread = threading.Thread(target=_noop)
        thread.start()
        thread.join()

    out["machine.thread_start_join_us"] = _each_us(start_join)
    out["runtime.threads.spawn_join_us"] = _each_us(
        lambda: backend.spawn(_noop, name="probe").join()
    )
    out["runtime.threads.spawn_us"] = _each_us(
        lambda: backend.spawn(_noop, name="probe"), after=lambda task: task.join()
    )

    def admit_release() -> None:
        app.admission.admit(name="probe").release()

    out["runtime.admission.admit_release_us"] = _batched_us(admit_release)

    cursor = iter(range(1 << 62))
    out["api.submit_return_us"] = _each_us(
        lambda: app.submit(ops[next(cursor) % len(ops)]),
        after=lambda future: future.result(30.0),
    )

    # -- aop: the woven method with every aspect stepping aside ---------------
    partition = app.partition
    worker = getattr(partition, "first", None) or partition.workers[0]
    woven = getattr(worker, method)
    cores = _stage_cores(workload, splitter)
    plain = getattr(cores[0], method)
    empty = ([],)

    def finish(outcome: Any) -> None:
        if is_async:
            outcome.close()

    def woven_call() -> None:
        with server_dispatch():
            finish(woven(*empty))

    def plain_call() -> None:
        with server_dispatch():
            finish(plain(*empty))

    out["aop.woven_call_us"] = max(
        0.0, _batched_us(woven_call) - _batched_us(plain_call)
    )

    # -- partition ------------------------------------------------------------
    out["parallel.partition.split_us"] = _each_us(
        lambda: splitter.split((ops[next(cursor) % len(ops)],), {})
    )
    calls = [c for op in ops[:4] for c in op_calls(workload, cores, splitter, op, call)]
    per_op = len(calls) // 4
    # what combine sees: each piece's last result (a pipeline's tail stage)
    per_piece = per_op // len(splitter.split((ops[0],), {}))
    piece_results = [result for _, _, result in calls[per_piece - 1 : per_op : per_piece]]
    out["parallel.partition.combine_us"] = _each_us(
        lambda: splitter.combine(list(piece_results))
    )

    # -- concurrency ----------------------------------------------------------
    spawner = getattr(app.async_aspect, "spawner", None)
    if spawner is not None and not getattr(backend, "native_async", False):

        def concurrent_spawn() -> threading.Event:
            done = threading.Event()
            spawner.spawn(backend, done.set)
            return done

        out["parallel.concurrency.spawn_us"] = _each_us(
            concurrent_spawn, after=lambda done: done.wait(5.0)
        )
    else:
        out["parallel.concurrency.spawn_us"] = 0.0

    # -- servant ----------------------------------------------------------------
    wall = cpu = 0.0
    for bound, args, _ in calls:
        w0, c0 = time.perf_counter(), time.thread_time()
        call(bound, args)
        wall += time.perf_counter() - w0
        cpu += time.thread_time() - c0
    out["servant.call_us"] = wall / len(calls) * 1e6
    out["servant.cpu_us"] = cpu / len(calls) * 1e6

    # -- middleware ---------------------------------------------------------------
    serialize = ("encode_us", "decode_us", "request_bytes", "reply_bytes")
    if app.middleware is None:
        for name in serialize:
            out[f"middleware.serialize.{name}"] = 0.0
        out["middleware.proc.round_trip_us"] = 0.0
    else:
        requests = [
            RequestEnvelope(7, 1, method, tuple(args), {}, context_id=7)
            for _, args, _ in calls[:per_op]
        ]
        replies = [
            ReplyEnvelope(7, "ok", result, context_id=7)
            for _, _, result in calls[:per_op]
        ]
        frames = [encode_envelope(e) for e in requests + replies]
        count = per_op
        out["middleware.serialize.request_bytes"] = float(
            sum(len(frame) for frame in frames[:count])
        )
        out["middleware.serialize.reply_bytes"] = float(
            sum(len(frame) for frame in frames[count:])
        )
        # per round trip: the request and the reply are each encoded once
        # and decoded once, and on one CPU all four are paid in line
        out["middleware.serialize.encode_us"] = (
            _each_us(lambda: [encode_envelope(e) for e in requests + replies])
            / count
        )
        out["middleware.serialize.decode_us"] = (
            _each_us(lambda: [decode_envelope(f) for f in frames]) / count
        )
        ref = app.distribution.ref_of(worker)
        out["middleware.proc.round_trip_us"] = _each_us(
            lambda: app.middleware.invoke(ref, method, empty)
        )

    # -- event loop ---------------------------------------------------------------
    if hasattr(backend, "bridge"):

        async def nothing() -> None:
            return None

        out["runtime.asyncbackend.bridge_us"] = _each_us(
            lambda: backend.bridge(nothing()).result(5.0)
        )
    else:
        out["runtime.asyncbackend.bridge_us"] = 0.0
    loop.close()
    return out
