"""Committed multi-tenant overload scenario (virtual time, seeded).

Three tenants with asymmetric weights share one cluster slot table
while an open-loop, Zipf-skewed million-user population offers 10x the
cluster's throughput.  Everything runs on the simulator, so minutes of
cluster time replay in seconds of wall time and every number below is
bit-stable.  Each scenario records its numbers in :data:`METRICS`;
``tests/bench/test_tenancy_record.py`` requires them to equal
``tests/bench/tenancy_record.json`` bit for bit:

* ``tenancy_p99_overload`` / ``tenancy_p99_light`` — the completed-
  request p99 under 10x overload vs the same cluster at half load (the
  price of saturation, bounded by the admission deadline);
* ``tenancy_shed_overload`` / ``tenancy_offered_overload`` — the
  shed-oldest scenario's cluster-wide shed rate.

The scenarios also assert the tenancy layer's two headline properties
inline: grant shares converge to the configured weights within 10%,
and a reserved high-priority tenant is never starved by a hot
low-priority neighbour.
"""

from __future__ import annotations

from conftest import register_report

from repro.api import ParallelApp, StackSpec
from repro.runtime.simbackend import SimBackend
from repro.sim import Simulator, current_simulator
from repro.tenancy import ClusterScheduler
from repro.traffic import (
    PercentileRecorder,
    PoissonArrivals,
    TenantPopulation,
    TrafficGenerator,
    open_loop,
)

USERS = 1_000_000

#: metric name -> value, filled by the scenarios below
METRICS: dict[str, float] = {}


class VirtualService:
    """Servant whose work is a pure virtual-time hold."""

    def __init__(self):
        pass

    def handle(self, user, cost):
        current_simulator().hold(cost)
        return user


def deploy_apps(backend, sched, tenants):
    apps = {}
    for name in tenants:
        app = ParallelApp(
            StackSpec(
                target=VirtualService,
                work="handle",
                strategy="none",
                concurrency=False,
                backend=backend,
                tenant=name,
                scheduler=sched,
                name=f"svc-{name}",
            )
        )
        app.deploy()
        app.start()
        apps[name] = app
    return apps


def tenant_table(title, report):
    rows = [
        f"{title}",
        f"{'tenant':<8} {'offered':>7} {'done':>5} {'shed':>5} "
        f"{'rej':>5} {'miss':>5} {'p50':>6} {'p95':>6} {'p99':>6}",
    ]
    for tenant in sorted(report):
        row = report[tenant]

        def fmt(value):
            return f"{value:6.2f}" if value is not None else "     -"

        rows.append(
            f"{tenant:<8} {row['offered']:>7} {row['completed']:>5} "
            f"{row['shed']:>5} {row['rejected']:>5} "
            f"{row['deadline_missed']:>5} {fmt(row['p50'])} "
            f"{fmt(row['p95'])} {fmt(row['p99'])}"
        )
    return "\n".join(rows)


def weighted_cluster(capacity, weights):
    sim = Simulator()
    backend = SimBackend(sim)
    sched = ClusterScheduler(capacity=capacity, backend=backend, name="bench")
    for name, weight in weights.items():
        sched.tenant(name, weight=weight, overflow="block")
    apps = deploy_apps(backend, sched, weights)
    return sim, sched, apps


WEIGHTS = {"gold": 5.0, "silver": 3.0, "bronze": 2.0}
BANDS = {"gold": 0.001, "silver": 0.05, "bronze": 0.949}


def run_weighted(rate, service, horizon, timeout):
    sim, sched, apps = weighted_cluster(10, WEIGHTS)
    generator = TrafficGenerator(
        PoissonArrivals(rate=rate, seed=42),
        TenantPopulation(BANDS, users=USERS, exponent=1.1),
        seed=43,
        service=lambda rng: service,
    )
    recorder = PercentileRecorder()
    report = open_loop(
        sim, generator, apps, recorder, timeout=timeout, horizon=horizon
    )
    return sched, recorder, report


def test_light_load_tail_latency():
    # same cluster at ~0.5x: 10 slots serving 0.2s calls = 50/s of
    # throughput, offered 25/s — the no-contention p99 baseline
    sched, recorder, report = run_weighted(
        rate=25.0, service=0.2, horizon=20.0, timeout=2.5
    )
    assert recorder.total("rejected") == 0, report
    assert recorder.total("completed") == recorder.total("offered")
    p99 = recorder.percentile(0.99)
    assert p99 is not None and p99 < 0.5
    METRICS["tenancy_p99_light"] = float(p99)
    register_report(tenant_table("tenancy: light load (0.5x)", report))


def test_overload_fairness_and_tail():
    # 10x overload: 10 slots x 1.0s service = 10/s of throughput,
    # offered 100/s with the Zipf mix (gold ~69% of traffic on 0.1% of
    # users).  Cluster grants must track the WEIGHTS, not the skew.
    sched, recorder, report = run_weighted(
        rate=100.0, service=1.0, horizon=8.0, timeout=2.5
    )
    tenants = sched.stats()["tenants"]
    granted = {name: tenants[name]["admitted_total"] for name in WEIGHTS}
    total = sum(granted.values())
    assert total > 80, report
    total_weight = sum(WEIGHTS.values())
    for name, weight in WEIGHTS.items():
        share = granted[name] / total
        expected = weight / total_weight
        assert abs(share - expected) <= 0.10 * expected, (name, granted)
    assert recorder.total("offered") > 5 * total  # overload was real
    p99 = recorder.percentile(0.99)
    assert p99 is not None
    METRICS["tenancy_p99_overload"] = float(p99)
    register_report(tenant_table("tenancy: 10x overload", report))


def test_overload_shedding_and_no_starvation():
    # "paid" reserves 1 of 4 slots (priority 5, cold: 0.5/s of 0.5s
    # calls); "free" (priority 0, hot, shed-oldest) floods the shared
    # slots at ~10x their throughput.  Paid must complete everything;
    # free pays for its own overload in sheds.
    sim = Simulator()
    backend = SimBackend(sim)
    sched = ClusterScheduler(capacity=4, backend=backend, name="bench-shed")
    sched.tenant("paid", weight=1.0, reserved=1, priority=5)
    sched.tenant("free", weight=10.0, priority=0, overflow="shed-oldest")
    apps = deploy_apps(backend, sched, ("paid", "free"))
    recorder = PercentileRecorder()

    def handle(arrival):
        recorder.offered(arrival.tenant)
        started = sim.now
        exc = None
        try:
            apps[arrival.tenant].submit(
                arrival.user, arrival.cost, timeout=2.5
            ).result()
        except Exception as caught:  # noqa: BLE001 - classified
            exc = caught
        recorder.observe(arrival.tenant, exc, sim.now - started)

    generators = [
        TrafficGenerator(
            PoissonArrivals(rate=0.5, seed=7),
            TenantPopulation({"paid": 1.0}, users=1_000),
            seed=8,
            service=lambda rng: 0.5,
        ),
        TrafficGenerator(
            PoissonArrivals(rate=30.0, seed=9),
            TenantPopulation({"free": 1.0}, users=USERS),
            seed=10,
            service=lambda rng: 1.0,
        ),
    ]
    for generator in generators:
        generator.run(sim, handle, horizon=10.0)
    sim.run()
    report = recorder.report()
    paid = report["paid"]
    assert paid["offered"] >= 3
    assert paid["completed"] == paid["offered"], report
    assert paid["shed"] == 0 and paid["deadline_missed"] == 0
    free = report["free"]
    assert free["offered"] > 200
    assert free["shed"] > 50, report
    assert sched.stats()["in_use"] == 0
    METRICS["tenancy_shed_overload"] = float(recorder.total("shed"))
    METRICS["tenancy_offered_overload"] = float(recorder.total("offered"))
    register_report(tenant_table("tenancy: shed-oldest overload", report))
