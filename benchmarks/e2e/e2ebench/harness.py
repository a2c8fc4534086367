"""One benchmark run: deploy, drive two phases, verify, summarise.

A run has a *saturated* phase (closed loop, the workload's fixed number
of clients) and a *paced* phase (open loop at the workload's fixed rate),
taken a block of each in turn.  Replies are checked against the unwoven
core class only after the clock of a block or a phase has stopped.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.aop import is_woven, unweave
from repro.api import ParallelApp

from . import machine, tracing
from .loadgen import ThreadReaper, WallClock, closed_loop, open_loop
from .probes import run_probes
from .stats import (
    disturbed_share,
    percentile,
    sliding_windows,
    spread_share,
    tail_percentile,
    undisturbed,
)
from .workloads import WORKLOADS, Workload, arrival_schedule

__all__ = ["Deployment", "run_workload", "setup_probe"]

#: seconds of wall clock per saturated block (reference slice included)
#: and per paced block
BLOCK_S = 1.0
#: arrivals per window of the paced phase: a window's p50 has 25 samples
#: beyond it, a window's p90 ten; windows overlap, a quarter apart
P50_WINDOW_OPS = 50
P90_WINDOW_OPS = 100


class Deployment:
    """One deployed, started app plus what teardown must put back."""

    def __init__(self, workload: Workload, tracer: Any = None):
        self.workload = workload
        self.tracer = tracer
        self._restore: Callable[[], None] | None = None
        if tracer is not None and workload.backend != "process":
            # the servant runs in this process: span it too
            self._restore = tracing.traced_servant(
                tracer, workload.target, workload.method
            )
        start = time.perf_counter()
        self.app = ParallelApp(workload.spec())
        self.app.deploy()
        self.app.start()
        self.deploy_s = time.perf_counter() - start
        if tracer is not None:
            tracing.install(tracer, self.app)
        self.pids = machine.worker_pids()

    def submit(self, index: int, op: Any) -> Any:
        if self.tracer is not None:
            self.tracer.begin_op(index)
        return self.app.submit(op)

    def close(self) -> float:
        """Undeploy, stop the workers, unweave; returns the seconds."""
        start = time.perf_counter()
        self.app.undeploy()
        self.app.shutdown()
        took = time.perf_counter() - start
        if is_woven(self.workload.target):
            unweave(self.workload.target)
        if self._restore is not None:
            self._restore()
        return took


@dataclass
class Tally:
    """Operations attempted and failed (failed, wrong or refused)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def judge(self, samples: list, expected: list) -> list:
        """Mark each sample right or wrong against the reference, drop
        its reply, and return the samples that were answered correctly."""
        good = []
        for sample in samples:
            self.attempted += 1
            if sample.error is not None:
                self.failed += 1
            elif sample.reply != expected[sample.index % len(expected)]:
                self.failed += 1
                self.wrong += 1
            else:
                good.append(sample)
            sample.reply = None
        return good


@dataclass
class Saturated:
    """Per fine group of replies: throughput and CPU; per block: the
    interleaved sequential reference."""

    throughput: list = field(default_factory=list)
    cpu_ms: list = field(default_factory=list)
    reference_ms: list = field(default_factory=list)
    sent: int = 0


def saturated_block(
    deployment: Deployment,
    ops: list,
    reference: Callable,
    expected: list,
    tally: Tally,
    block: int,
    block_s: float,
    first_index: int,
    out: Saturated,
) -> None:
    """One closed-loop block, cut into groups of the workload's
    ``group_ops`` replies.  The sequential reference is timed just before
    it, so both sides of the speed-up ratio sample the same moods of the
    box."""
    workload = deployment.workload
    clock = WallClock
    block_start = clock.now()
    offset = block * workload.reference_ops
    slice_ops = [ops[(offset + i) % len(ops)] for i in range(workload.reference_ops)]
    for op in slice_ops:
        reference(op)
    loop_start = clock.now()
    out.reference_ms.append((loop_start - block_start) / len(slice_ops) * 1e3)
    samples, marks = closed_loop(
        deployment.submit,
        ops,
        workload.clients,
        block_s - (loop_start - block_start),
        clock,
        first_index=first_index,
        checkpoint=lambda: machine.cpu_seconds(deployment.pids),
        every=workload.group_ops,
    )
    # the clock has stopped: judge the replies, then let them go
    failed_before = tally.failed
    tally.judge(samples, expected)
    out.sent += len(samples)
    if tally.failed != failed_before:
        return  # a block with a failed op measures nothing
    for (n0, t0, c0), (n1, t1, c1) in zip(marks, marks[1:]):
        out.throughput.append((n1 - n0) / (t1 - t0))
        out.cpu_ms.append((c1 - c0) / (n1 - n0) * 1e3)


@dataclass
class Paced:
    offered: int = 0
    p50_ms: list = field(default_factory=list)
    p90_ms: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    within_limit: int = 0
    lag_us: list = field(default_factory=list)
    submit_return_us: list = field(default_factory=list)


def summarise_paced(
    samples: list, expected: list, tally: Tally, limit_ms: float
) -> Paced:
    """Latency from the due time, correct replies only; a failed, wrong
    or refused call is offered load that missed the limit."""
    out = Paced(offered=len(samples))
    out.lag_us = [(s.start - s.due) * 1e6 for s in samples]
    out.submit_return_us = [(s.returned - s.start) * 1e6 for s in samples]
    good = tally.judge(samples, expected)
    out.latencies_ms = [(s.done - s.due) * 1e3 for s in good]
    out.within_limit = sum(1 for ms in out.latencies_ms if ms <= limit_ms)
    for q, size, into in (
        (50, P50_WINDOW_OPS, out.p50_ms),
        (90, P90_WINDOW_OPS, out.p90_ms),
    ):
        for window in sliding_windows(out.latencies_ms, size, size // 4):
            into.append(percentile(window, q))
    return out


def _first_call(deployment: Deployment, op: Any, reference: Callable) -> float:
    """Seconds to the first verified reply; a wrong one ends the run."""
    start = time.perf_counter()
    reply = deployment.app.submit(op).result(timeout=60)
    took = time.perf_counter() - start
    if reply != reference(op):
        raise SystemExit(f"{deployment.workload.name}: first reply is wrong")
    return took


def setup_probe(name: str, seed: int, import_s: float) -> dict:
    """What a fresh interpreter pays from import to first verified reply
    (``import_s`` is measured by the caller, around its imports).  Making
    the inputs is the benchmark's cost, not the program's: not timed."""
    workload = WORKLOADS[name]
    deployment = Deployment(workload)
    first_s = _first_call(deployment, workload.ops(seed)[0], workload.reference())
    teardown_s = deployment.close()
    return {
        "setup_s": import_s + deployment.deploy_s + first_s,
        "setup.import_s": import_s,
        "setup.deploy_ms": deployment.deploy_s * 1e3,
        "setup.first_call_ms": first_s * 1e3,
        "setup.teardown_ms": teardown_s * 1e3,
    }


def _end_to_end(
    saturated: Saturated, paced: Paced, rss_mb: float, setup_s: float
) -> dict:
    throughput = undisturbed(saturated.throughput, "higher")
    return {
        "setup_s": setup_s,
        "throughput_ops_s": throughput,
        "speedup_vs_sequential_x": throughput
        * undisturbed(saturated.reference_ms, "lower")
        / 1e3,
        "cpu_ms_per_op": undisturbed(saturated.cpu_ms, "lower"),
        "latency_p50_ms": undisturbed(paced.p50_ms, "lower"),
        "within_limit_share": paced.within_limit / paced.offered,
        "peak_rss_mb": rss_mb,
    }


def _traced_counts(deployment: Deployment, sent: int, interpreter_before: int) -> dict:
    """Exact per-op counts of the traced phases: spans by name plus the
    program's own public counters.  ``_``-prefixed entries feed the
    budget only."""
    tracer = deployment.tracer
    app = deployment.app
    spans = Counter(span.name for span in tracer.spans)
    messages = spans["middleware.invoke"] + spans["middleware.invoke_batch"]
    counts = {
        "api.calls_per_op": spans["api.submit"],
        "runtime.admission.blocked_per_op": app.admission.blocked,
        "runtime.threads.spawns_per_op": spans["runtime.threads.spawn"],
        "aop.interpreter_calls_per_op": app.plan_stats()["interpreter_calls"]
        - interpreter_before,
        "parallel.partition.pieces_per_op": tracer.counts["parallel.partition.split"],
        "parallel.concurrency.spawns_per_op": spans["parallel.concurrency.spawn"],
        "middleware.proc.messages_per_op": messages,
        "runtime.asyncbackend.tasks_per_op": getattr(app.backend, "tasks_started", 0),
        # process workers run the servant out of sight: one call per message
        "servant.calls_per_op": spans["servant"] or messages,
        "trace.spans_per_op": len(tracer.spans),
        "_splits_per_op": spans["parallel.partition.split"],
        "_admits_per_op": spans["runtime.admission.admit"],
    }
    layer = {name: count / sent for name, count in counts.items()}
    layer["api.peak_in_flight"] = float(app.peak_in_flight)
    layer["middleware.proc.worker_respawns"] = float(
        getattr(app.middleware, "worker_respawns", 0)
    )
    layer["runtime.asyncbackend.tasks_expired"] = float(
        getattr(app.backend, "tasks_expired", 0)
    )
    return layer


def _budget(layer: dict, op_us: float, submit_self_us: float) -> dict:
    """Calls per op times probe time over the saturated op time.  Nested
    entry points are charged their own cost only: the per-piece spawner
    without the thread it starts, and ``submit`` by the traced self time
    of its span (``submit_self_us`` per op), because the wall time of a
    lone ``submit`` includes whatever the thread it started ran before
    handing the interpreter back."""
    thread_start = layer["runtime.threads.spawn_us"]
    messages = layer["middleware.proc.messages_per_op"]
    own = {
        "api": submit_self_us,
        "admission": layer["_admits_per_op"]
        * layer["runtime.admission.admit_release_us"],
        "threads": layer["runtime.threads.spawns_per_op"]
        * layer["runtime.threads.spawn_join_us"],
        "aop": (layer["servant.calls_per_op"] + layer["api.calls_per_op"])
        * layer["aop.woven_call_us"],
        "partition": layer["_splits_per_op"]
        * (
            layer["parallel.partition.split_us"]
            + layer["parallel.partition.combine_us"]
        ),
        "concurrency": layer["parallel.concurrency.spawns_per_op"]
        * max(0.0, layer["parallel.concurrency.spawn_us"] - thread_start),
        "serialize": messages
        * (
            layer["middleware.serialize.encode_us"]
            + layer["middleware.serialize.decode_us"]
        ),
        "transport": messages * layer["middleware.proc.round_trip_us"],
        "loop": layer["runtime.asyncbackend.tasks_per_op"]
        * layer["runtime.asyncbackend.bridge_us"],
        "servant": layer["servant.calls_per_op"] * layer["servant.cpu_us"],
    }
    shares = {f"budget.{name}_share": us / op_us for name, us in own.items()}
    shares["budget.unattributed_share"] = 1.0 - sum(shares.values())
    return shares


class _Run:
    """What the passes of one run share: op pool, reference, the tally
    and the leak baseline taken before anything deployed."""

    def __init__(self, workload: Workload, seed: int, phase_s: float, block_s: float):
        self.workload = workload
        self.seed = seed
        self.phase_s = phase_s
        self.block_s = block_s
        self.ops = workload.ops(seed)
        self.reference = workload.reference()
        self.expected = workload.expected(self.ops)
        self.tally = Tally()
        self.baseline = (machine.live_threads(), len(machine.worker_pids()))
        self.leaked = [0, 0]

    def drive(self, deployment: Deployment) -> tuple:
        """Both phases on one deployment, a block of each in turn: a mood
        of the box that lasts ten seconds then takes a part of both
        phases and the whole of neither.  The paced blocks follow one
        schedule, cut at the block ends; one reaper thread per block."""
        workload = self.workload
        rounds = max(1, int(self.phase_s / self.block_s + 0.5))
        due = arrival_schedule(self.seed, workload.rate_ops_s, rounds * self.block_s)
        saturated = Saturated()
        samples: list = []
        for block in range(rounds):
            saturated_block(
                deployment,
                self.ops,
                self.reference,
                self.expected,
                self.tally,
                block,
                self.block_s,
                saturated.sent + len(samples),
                saturated,
            )
            start = block * self.block_s
            samples += open_loop(
                deployment.submit,
                self.ops,
                [t - start for t in due if start <= t < start + self.block_s],
                WallClock,
                ThreadReaper(WallClock),
                saturated.sent + len(samples),
            )[0]
        paced = summarise_paced(
            samples, self.expected, self.tally, workload.limit_ms
        )
        return saturated, paced

    def close(self, deployment: Deployment) -> float:
        """Tear down and count what did not go away."""
        teardown_s = deployment.close()
        threads, processes = machine.wait_for_baseline(*self.baseline)
        self.leaked[0] += threads
        self.leaked[1] += processes
        return teardown_s


def _traced_pass(run: _Run, untraced_p50_ms: float) -> tuple:
    """The same two phases on a second deployment with the wrappers
    installed; returns the layer metrics it yields and the per-op self
    time of every span name."""
    tracer = tracing.Tracer()
    deployment = Deployment(run.workload, tracer)
    interpreter_before = deployment.app.plan_stats()["interpreter_calls"]
    saturated, paced = run.drive(deployment)
    sent = saturated.sent + paced.offered
    layer = _traced_counts(deployment, sent, interpreter_before)
    run.close(deployment)
    layer["trace.overhead_share"] = (
        undisturbed(paced.p50_ms, "lower") / untraced_p50_ms - 1.0
    )
    self_us = {
        name: total / sent * 1e6
        for name, total in tracing.self_times(tracer.spans).items()
    }
    return layer, self_us


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: list,
    block_s: float = BLOCK_S,
) -> tuple:
    """One run.  Returns ``(metrics, tally, record)``; ``setups`` holds
    the fresh-interpreter probes taken before this process got busy.
    Untraced, the two phases share ``seconds``; traced, four do."""
    workload = WORKLOADS[name]
    spin_before = machine.spin_ms()
    run = _Run(workload, seed, seconds / (4 if trace else 2), block_s)
    setup = {
        key: statistics.median(probe[key] for probe in setups) for key in setups[0]
    }

    deployment = Deployment(workload)
    _first_call(deployment, run.ops[0], run.reference)
    layer = run_probes(deployment.app, workload, run.ops) if trace else {}
    saturated, paced = run.drive(deployment)
    rss_mb = machine.peak_rss_mb(deployment.pids)
    teardown_s = run.close(deployment)
    self_us: dict = {}
    if trace:
        counts, self_us = _traced_pass(run, undisturbed(paced.p50_ms, "lower"))
        layer.update(counts)
    spin_after = machine.spin_ms()

    tally = run.tally
    record = machine.environment()
    record.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        clients=workload.clients,
        rate_ops_s=workload.rate_ops_s,
        limit_ms=workload.limit_ms,
        spin_ms_before=spin_before,
        spin_ms_after=spin_after,
        groups={"saturated": len(saturated.throughput), "paced": len(paced.p50_ms)},
        ops={"saturated": saturated.sent, "paced": paced.offered},
        paced_latency_ms={
            f"p{q:g}": percentile(paced.latencies_ms, q)
            for q in (50, 90, 99, 99.9, 100)
        },
        group_spread_share=spread_share(saturated.throughput),
        wrong=tally.wrong,
        leaked_threads=run.leaked[0],
        leaked_processes=run.leaked[1],
    )
    if not trace:
        metrics = _end_to_end(saturated, paced, rss_mb, setup["setup_s"])
        return metrics, tally, record

    record["self_us_per_op"] = self_us
    latencies = paced.latencies_ms
    layer.update(
        {
            "reference.sequential_ms_per_op": undisturbed(
                saturated.reference_ms, "lower"
            ),
            "setup.import_s": setup["setup.import_s"],
            "setup.deploy_ms": setup["setup.deploy_ms"],
            "setup.first_call_ms": setup["setup.first_call_ms"],
            "setup.teardown_ms": teardown_s * 1e3,
            "loadgen.latency_p90_ms": undisturbed(paced.p90_ms, "lower"),
            "loadgen.latency_p99_ms": percentile(
                latencies, min(99.0, tail_percentile(len(latencies)))
            ),
            "loadgen.submit_return_p50_us": percentile(paced.submit_return_us, 50),
            "loadgen.lag_p90_us": percentile(paced.lag_us, 90),
            "loadgen.lag_max_ms": max(paced.lag_us) / 1e3,
            "loadgen.offered_ops": float(paced.offered),
            "loadgen.failed_share": tally.failed / tally.attempted,
            "loadgen.block_spread_share": spread_share(saturated.throughput),
            "loadgen.disturbed_block_share": disturbed_share(
                saturated.throughput, "higher"
            ),
            "machine.spin_ms": spin_before,
            "machine.spin_drift_share": abs(spin_after - spin_before) / spin_before,
            "runtime.leaked_threads": float(run.leaked[0]),
            "runtime.leaked_processes": float(run.leaked[1]),
        }
    )
    op_us = 1e6 / undisturbed(saturated.throughput, "higher")
    layer.update(_budget(layer, op_us, self_us.get("api.submit", 0.0)))
    metrics = {k: v for k, v in layer.items() if not k.startswith("_")}
    return metrics, tally, record
