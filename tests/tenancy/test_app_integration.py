"""The tenant plane wired through StackSpec/ParallelApp: spec
validation, cross-app capacity, grant↔slot linkage, scheduler-level
shedding of a live call, and the stats() surfaces."""

from __future__ import annotations

import threading

import pytest

from repro.api import ParallelApp, StackSpec
from repro.errors import AdmissionRejected, CallShed, DeploymentError
from repro.runtime import ThreadBackend
from repro.tenancy import ClusterScheduler


class Echo:
    """Identity worker (optionally gated to park calls in flight)."""

    gate: "threading.Event | None" = None

    def __init__(self):
        pass

    def handle(self, value):
        if Echo.gate is not None:
            Echo.gate.wait(timeout=10)
        return value


def plain_spec(**overrides):
    fields = dict(
        target=Echo,
        work="handle",
        strategy="none",
        backend="thread",
        concurrency=False,
    )
    fields.update(overrides)
    return StackSpec(**fields)


def make_scheduler(capacity, **tenants):
    sched = ClusterScheduler(capacity=capacity, backend=ThreadBackend())
    for name, kwargs in tenants.items():
        sched.tenant(name, **kwargs)
    return sched


class TestSpecValidation:
    def test_tenant_and_scheduler_come_together(self):
        with pytest.raises(DeploymentError, match="come together"):
            plain_spec(tenant="gold").validate()
        with pytest.raises(DeploymentError, match="come together"):
            plain_spec(scheduler=make_scheduler(2, gold={})).validate()

    def test_scheduler_is_duck_checked(self):
        with pytest.raises(DeploymentError, match="ClusterScheduler-like"):
            plain_spec(tenant="gold", scheduler=object()).validate()

    def test_unknown_tenant_fails_at_construction(self):
        sched = make_scheduler(2, gold={})
        with pytest.raises(DeploymentError, match="unknown tenant 'silver'"):
            ParallelApp(plain_spec(tenant="silver", scheduler=sched))

    def test_spec_sets_the_tenant_plane(self):
        sched = make_scheduler(2, gold={})
        app = ParallelApp(plain_spec(tenant="gold", scheduler=sched))
        assert app.tenant == "gold"
        assert app.scheduler is sched


class TestCrossAppCapacity:
    def test_two_apps_share_one_slot_table(self):
        # both tenants overflow 'fail': the THIRD in-flight call across
        # the two apps is rejected by the cluster, not by either app's
        # (unbounded) own admission table
        Echo.gate = threading.Event()
        sched = make_scheduler(
            2, gold={"overflow": "fail"}, silver={"overflow": "fail"}
        )
        gold = ParallelApp(plain_spec(tenant="gold", scheduler=sched))
        silver = ParallelApp(plain_spec(tenant="silver", scheduler=sched))
        try:
            with gold, silver:
                gold.start()
                silver.start()
                f1 = gold.submit(1)
                f2 = silver.submit(2)
                with pytest.raises(AdmissionRejected, match="shared"):
                    gold.submit(3)
                assert sched.stats()["in_use"] == 2
                Echo.gate.set()
                assert f1.result() == 1
                assert f2.result() == 2
            assert sched.stats()["in_use"] == 0
            assert sched.stats()["tenants"]["gold"]["rejected"] == 1
        finally:
            Echo.gate = None

    def test_grant_releases_exactly_once_with_the_slot(self):
        sched = make_scheduler(1, gold={"overflow": "fail"})
        app = ParallelApp(plain_spec(tenant="gold", scheduler=sched))
        with app:
            app.start()
            for value in range(5):  # sequential reuse of the one slot
                assert app.submit(value).result() == value
        stats = sched.stats()["tenants"]["gold"]
        assert stats["admitted_total"] == 5
        assert sched.stats()["in_use"] == 0

    def test_rejected_admission_refunds_the_grant(self):
        # the DEPLOYMENT admission (max_in_flight=1, fail) rejects while
        # the cluster would admit: the grant must be refunded
        Echo.gate = threading.Event()
        sched = make_scheduler(4, gold={"overflow": "fail"})
        app = ParallelApp(
            plain_spec(
                tenant="gold",
                scheduler=sched,
                max_in_flight=1,
                overflow="fail",
            )
        )
        try:
            with app:
                app.start()
                first = app.submit(1)
                with pytest.raises(AdmissionRejected, match="in flight"):
                    app.submit(2)
                assert sched.stats()["in_use"] == 1  # refunded, not leaked
                Echo.gate.set()
                assert first.result() == 1
            assert sched.stats()["in_use"] == 0
        finally:
            Echo.gate = None


class TestSchedulerShed:
    def test_cluster_shed_cancels_the_live_call(self):
        Echo.gate = threading.Event()
        sched = make_scheduler(1, hot={"overflow": "shed-oldest"})
        app = ParallelApp(plain_spec(tenant="hot", scheduler=sched))
        try:
            with app:
                app.start()
                victim = app.submit(1)
                fresh = app.submit(2)
                Echo.gate.set()
                with pytest.raises(CallShed, match="shed to admit"):
                    victim.result(timeout=10)
                assert fresh.result(timeout=10) == 2
            assert sched.stats()["tenants"]["hot"]["shed"] == 1
            assert sched.stats()["in_use"] == 0
        finally:
            Echo.gate = None


class TestStatsSurfaces:
    def test_app_stats_snapshot(self):
        app = ParallelApp(plain_spec(max_in_flight=3, overflow="fail"))
        with app:
            app.start()
            app.submit(1).result()
            table = app.admission
        assert table.limit == 3
        assert table.policy == "fail"
        assert table.admitted == 0
        assert table.admitted_total == 1
        assert table.rejected == 0
        assert app.tenant is None

    def test_app_stats_names_its_tenant(self):
        sched = make_scheduler(2, gold={})
        app = ParallelApp(plain_spec(tenant="gold", scheduler=sched))
        assert app.tenant == "gold"
