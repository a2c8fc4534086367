"""Self-tests of the end-to-end harness: stub apps, a fake clock, no
wall-clock assertions."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from e2ebench import harness, tracing
from e2ebench.agreement import compare_sets
from e2ebench.loadgen import InlineReaper, closed_loop, open_loop
from e2ebench.metrics import END_TO_END, PER_LAYER
from e2ebench.stats import (
    percentile,
    sliding_windows,
    tail_percentile,
    undisturbed,
)
from e2ebench.workloads import WORKLOADS, arrival_schedule

ROOT = Path(__file__).resolve().parents[3]


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def sleep_until(self, when: float) -> None:
        self.t = max(self.t, when)


class StubFuture:
    def __init__(self, clock: FakeClock, service_s: float, reply=None, error=None):
        self.clock, self.service_s, self.reply, self.error = clock, service_s, reply, error

    def result(self, timeout=None):
        self.clock.t += self.service_s
        if self.error is not None:
            raise self.error
        return self.reply


class StubApp:
    """Echoes the op after ``service_s``; can stall one submit, fail some
    ops and answer some wrongly."""

    def __init__(self, clock, service_s=0.001, stall=None, failing=(), wrong=()):
        self.clock, self.service_s = clock, service_s
        self.stall = stall or {}
        self.failing, self.wrong = set(failing), set(wrong)
        self.in_flight = self.peak = 0

    def submit(self, index, op):
        self.clock.t += self.stall.get(index, 0.0)
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        app = self

        class Future(StubFuture):
            def result(self, timeout=None):
                app.in_flight -= 1
                return super().result(timeout)

        error = RuntimeError("boom") if index in self.failing else None
        reply = "nonsense" if index in self.wrong else op
        return Future(self.clock, self.service_s, reply, error)


def test_open_loop_latency_runs_from_the_due_time_when_the_app_stalls():
    clock = FakeClock()
    app = StubApp(clock, service_s=0.001, stall={2: 0.5})
    due = [0.1 * k for k in range(1, 11)]
    samples, origin = open_loop(
        app.submit, ["op"], due, clock, InlineReaper(clock)
    )
    latency = [s.done - s.due for s in samples]
    lag = [s.start - s.due for s in samples]
    assert latency[0] == pytest.approx(0.001)
    # the stalled call itself, and the next one, which was due during it
    assert latency[2] == pytest.approx(0.501)
    assert latency[3] == pytest.approx(0.402)
    assert lag[3] == pytest.approx(0.401)
    # measured from the send instead, the stall would have vanished
    assert samples[3].done - samples[3].start == pytest.approx(0.001)
    # once the generator has caught up the schedule holds again
    assert lag[-1] == pytest.approx(0.0)
    assert [s.due - origin for s in samples] == pytest.approx(due)


def test_closed_loop_keeps_the_fixed_number_of_clients_in_flight():
    clock = FakeClock()
    app = StubApp(clock, service_s=0.01)
    samples, marks = closed_loop(app.submit, ["a", "b"], 3, 1.0, clock, every=20)
    assert app.peak == 3 and app.in_flight == 0
    assert [s.index for s in samples] == list(range(len(samples)))
    assert [s.reply for s in samples[:4]] == ["a", "b", "a", "b"]
    # one reply per service time, and the loop drains what it started
    assert len(samples) == pytest.approx(100, abs=3)
    # groups of 20 replies; the replies of the drain belong to no group
    assert [count for count, _, _ in marks] == [0, 20, 40, 60, 80, 100]
    assert marks[1][1] - marks[0][1] == pytest.approx(0.2)


def test_a_failure_is_a_miss_in_within_limit_share():
    clock = FakeClock()
    ops = ["x", "y"]
    app = StubApp(clock, service_s=0.002, stall={5: 0.2}, failing={1}, wrong={3})
    due = [0.01 * k for k in range(1, 11)]
    samples, _ = open_loop(app.submit, ops, due, clock, InlineReaper(clock))
    tally = harness.Tally()
    paced = harness.summarise_paced(samples, ops, tally, limit_ms=50.0)
    assert (tally.attempted, tally.failed, tally.wrong) == (10, 2, 1)
    # 10 offered: one raised, one answered wrongly, and the stalled call
    # plus the four due behind it came back later than 50 ms
    assert paced.offered == 10
    assert paced.within_limit == 3
    assert len(paced.latencies_ms) == 8  # correct replies only


def test_undisturbed_decile_ignores_the_disturbed_blocks():
    blocks = [100.0 + 0.1 * k for k in range(-10, 11)]
    quiet_low = undisturbed(blocks, "lower")
    quiet_high = undisturbed(blocks, "higher")
    assert quiet_low < percentile(blocks, 50) < quiet_high
    # a neighbour takes a third of the run: the decile barely moves...
    slow = [300.0 + k for k in range(10)]
    assert undisturbed(blocks + slow, "lower") == pytest.approx(quiet_low, rel=0.01)
    starved = [20.0 + k for k in range(10)]
    assert undisturbed(blocks + starved, "higher") == pytest.approx(
        quiet_high, rel=0.01
    )
    # ...while a change to the program moves every block, and it with them
    assert undisturbed([b * 1.1 for b in blocks], "lower") == pytest.approx(
        quiet_low * 1.1
    )
    assert undisturbed([7.0], "lower") == 7.0
    with pytest.raises(ValueError):
        undisturbed(blocks, "sideways")
    with pytest.raises(ValueError):
        undisturbed([], "lower")


def test_tail_rule_wants_ten_samples_beyond_the_percentile():
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(9_999) == 99.0
    assert tail_percentile(1_000) == 99.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(99) == 50.0
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([0.0, 10.0], 90) == pytest.approx(9.0)


def test_sliding_windows_overlap_and_never_run_short():
    values = list(range(10))
    assert sliding_windows(values, 4, 2) == [
        [0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [6, 7, 8, 9]
    ]  # fmt: skip
    assert sliding_windows(values, 20, 5) == [values]
    assert sliding_windows([], 4, 2) == []


def test_same_seed_same_inputs_and_schedule():
    for workload in WORKLOADS.values():
        assert workload.ops(3) == workload.ops(3)
        assert workload.ops(3) != workload.ops(4)
    first = arrival_schedule(5, 200.0, 10.0)
    assert first == arrival_schedule(5, 200.0, 10.0)
    assert first != arrival_schedule(6, 200.0, 10.0)
    assert 0.0 <= first[0] and first[-1] < 10.0
    assert len(first) == pytest.approx(2000, rel=0.05)
    # bounded gaps: no two arrivals closer than half the mean gap
    gaps = [b - a for a, b in zip(first, first[1:])]
    assert 0.0025 <= min(gaps) and max(gaps) <= 0.0075


def test_every_seed_offers_the_webhook_the_same_mix():
    for seed in (1, 2, 3):
        ops = WORKLOADS["webhook_mix_asyncio"].ops(seed)
        for group in range(0, len(ops), 5):
            kinds = [kind for op in ops[group : group + 5] for kind, _ in op]
            assert len(kinds) == 40 and kinds.count("geocode") == 4


def test_reference_is_the_unwoven_core_class():
    for workload in WORKLOADS.values():
        assert workload.core is not workload.target
        assert "__aop_woven__" not in vars(workload.core)
        ops = workload.ops(1)
        assert workload.reference()(ops[0]) == workload.expected(ops)[0]


def test_self_time_is_duration_minus_child_coverage():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.begin_op(7)
    with tracer.span("outer"):  # 0 .. 10
        with tracer.span("inner"):  # 1 .. 3
            pass
        with tracer.span("inner"):  # 4 .. 6
            pass
    assert tracing.self_times(tracer.spans) == {"inner": 4.0, "outer": 6.0}
    outer = tracer.spans[-1]
    assert outer.op_id == 7 and outer.parent_id is None
    assert {s.parent_id for s in tracer.spans[:2]} == {outer.span_id}


def test_spawn_wrapper_carries_the_op_into_the_new_thread():
    tracer = tracing.Tracer()

    def spawn(thunk, name=None):
        thread = threading.Thread(target=thunk)
        thread.start()
        thread.join(5.0)

    traced_spawn = tracer.wrap_spawn("spawn", spawn, 0)
    tracer.begin_op(42)
    traced_spawn(tracer.wrap("child", lambda: None))
    child, parent = tracer.spans
    assert (child.name, child.op_id, child.parent_id) == ("child", 42, parent.span_id)


def test_two_sets_agree_only_within_the_bound():
    metric = {"name": "latency_p50_ms", "better": "lower", "bound": 0.05}
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare_sets(metric, steady, [v * 1.02 for v in steady])["agree"]
    assert not compare_sets(metric, steady, [v * 1.08 for v in steady])["agree"]
    # better is never a disagreement; a spread wider than the bound is
    better = compare_sets(metric, steady, [v * 0.97 for v in steady])
    assert better["agree"] and better["second_worse_by"] == pytest.approx(-0.03)
    noisy = [9.0, 10.0, 11.0, 12.0, 8.0]
    assert not compare_sets(metric, noisy, noisy)["agree"]
    assert compare_sets(dict(metric, name="setup_s"), noisy, noisy)["agree"]
    higher = dict(metric, name="throughput_ops_s", better="higher")
    assert not compare_sets(higher, steady, [v * 0.9 for v in steady])["agree"]


def test_benchmark_json_names_equal_the_names_a_run_emits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    declared = {
        key: {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        for key in ("end_to_end", "per_layer")
    }
    assert declared == {"end_to_end": END_TO_END, "per_layer": PER_LAYER}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    # a real, tiny, in-process run of the one workload that forks nothing
    setups = [
        {
            "setup_s": 0.3,
            "setup.import_s": 0.2,
            "setup.deploy_ms": 1.0,
            "setup.first_call_ms": 1.0,
            "setup.teardown_ms": 1.0,
        }
    ]
    for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
        metrics, tally, record = harness.run_workload(
            "submit_farm_thread", 1, 0.4, trace, setups, block_s=0.1
        )
        assert set(metrics) == set(table)
        assert tally.attempted > 0 and tally.failed == 0
        # two rounds of a saturated and a paced block each
        assert record["ops"]["saturated"] > 0 and record["ops"]["paced"] > 0
        assert record["leaked_threads"] == 0 and record["leaked_processes"] == 0
        assert record["affinity"] and record["cpu_count"]
