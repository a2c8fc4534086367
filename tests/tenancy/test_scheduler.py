"""ClusterScheduler units, the multi-tenant-only properties: quotas,
priorities, stride fairness, isolation and donation under shedding —
all on the thread backend (no simulator needed;
hand-offs are exercised by releasing held slots directly).  What one
tenant alone can show — the three overflow policies, hand-off order,
release, the downstream link — is the case table in
tests/runtime/test_admission.py, run there against this class too."""

from __future__ import annotations

import threading

import pytest

from repro.errors import AdmissionRejected, DeploymentError
from repro.runtime import ThreadBackend
from repro.runtime.ticket import DispatchContext
from repro.tenancy import ClusterScheduler, Tenant


def make(capacity, **tenants):
    sched = ClusterScheduler(capacity=capacity, backend=ThreadBackend())
    for name, kwargs in tenants.items():
        sched.tenant(name, **kwargs)
    return sched


class TestRegistration:
    def test_tenant_validation(self):
        with pytest.raises(DeploymentError, match="weight must be > 0"):
            Tenant("a", weight=0)
        with pytest.raises(DeploymentError, match="reserved must be >= 0"):
            Tenant("a", reserved=-1)
        with pytest.raises(DeploymentError, match="unknown overflow"):
            Tenant("a", overflow="explode")

    def test_reserves_must_fit_capacity(self):
        sched = make(4, a={"reserved": 3})
        with pytest.raises(DeploymentError, match="exceeds capacity"):
            sched.tenant("b", reserved=2)

    def test_a_tenant_that_could_never_hold_a_slot_is_rejected(self):
        # reserved=0 + burst=0 caps the tenant at zero slots: a `block`
        # submission would park forever
        with pytest.raises(DeploymentError, match="reserved=0 . burst=0"):
            Tenant("z", reserved=0, burst=0)
        with pytest.raises(DeploymentError, match="never be admitted"):
            ClusterScheduler(4).tenant("z", reserved=0, burst=0)
        Tenant("ok", reserved=1, burst=0)  # its reserve is a cap of 1

    def test_reserves_must_leave_zero_reserve_tenants_a_pool(self):
        # capacity == sum(reserved) means an empty shared pool, the
        # only place a zero-reserve tenant can draw from — whichever
        # of the two registers last
        sched = make(4, paid={"reserved": 4})
        with pytest.raises(DeploymentError, match="all 4 slots.*'free'"):
            sched.tenant("free")
        sched = make(4, free={}, paid={"reserved": 3})
        with pytest.raises(DeploymentError, match="all 4 slots.*'free'"):
            sched.tenant("more", reserved=1)
        assert sorted(sched.stats()["tenants"]) == ["free", "paid"]
        make(4, a={"reserved": 2}, b={"reserved": 2})  # nobody poolless

    def test_duplicate_and_unknown_tenants(self):
        sched = make(2, a={})
        with pytest.raises(DeploymentError, match="already registered"):
            sched.tenant("a")
        with pytest.raises(DeploymentError, match="unknown tenant 'nope'"):
            sched.acquire("nope")


class TestQuotas:
    def test_reserved_slots_are_exclusive(self):
        # capacity 3, 1 reserved for "paid": "free" can only ever hold 2
        sched = make(3, paid={"reserved": 1}, free={"overflow": "fail"})
        g1, g2 = sched.acquire("free"), sched.acquire("free")
        with pytest.raises(AdmissionRejected):
            sched.acquire("free")
        # the reserved slot still admits its owner instantly
        paid = sched.acquire("paid")
        stats = sched.stats()
        assert stats["in_use"] == 3
        assert stats["shared_in_use"] == 2
        for grant in (g1, g2, paid):
            grant.release()
        assert sched.stats()["in_use"] == 0

    def test_burst_caps_a_tenant_below_pool_capacity(self):
        sched = make(8, capped={"burst": 2, "overflow": "fail"})
        sched.acquire("capped"), sched.acquire("capped")
        with pytest.raises(AdmissionRejected):
            sched.acquire("capped")


class TestShedOldest:
    def test_never_sheds_another_tenants_work(self):
        # the pool is full of "other"'s calls; "hot" owns nothing to
        # shed, so isolation demands rejection — not a cross-tenant kill
        sched = make(
            2, other={"overflow": "fail"}, hot={"overflow": "shed-oldest"}
        )
        calls = [DispatchContext("other.call") for _ in range(2)]
        for call in calls:
            sched.acquire("other", call)
        with pytest.raises(AdmissionRejected, match="no sheddable call"):
            sched.acquire("hot")
        assert not any(call.cancelled for call in calls)


class TestHandoffOrdering:
    """Hand-off policy, observed by releasing grants one at a time and
    watching which parked tenant wins.  Waiters park in real threads."""

    def parked(self, sched, tenant, results):
        def submit():
            try:
                grant = sched.acquire(tenant)
                results.append((tenant, grant))
            except AdmissionRejected:  # pragma: no cover - not expected
                results.append((tenant, None))

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        return thread

    def wait_for_waiters(self, sched, count):
        for _ in range(2000):
            stats = sched.stats()
            if sum(t["waiting"] for t in stats["tenants"].values()) >= count:
                return
            threading.Event().wait(0.001)
        raise AssertionError("waiters never parked")

    def test_priority_wins_shared_handoffs(self):
        sched = make(
            1, low={"priority": 0}, high={"priority": 5}
        )
        held = sched.acquire("low")
        results: list = []
        t_low = self.parked(sched, "low", results)
        self.wait_for_waiters(sched, 1)
        t_high = self.parked(sched, "high", results)
        self.wait_for_waiters(sched, 2)
        held.release()
        t_high.join(timeout=5)
        assert results and results[0][0] == "high"
        results[0][1].release()
        t_low.join(timeout=5)

    def test_reserve_outranks_priority(self):
        # "guaranteed" is below its reserve: it beats a higher-priority
        # shared-pool waiter to the freed slot
        sched = make(
            2,
            loud={"priority": 9},
            guaranteed={"priority": 0, "reserved": 1},
        )
        # fill: loud takes the shared slot, guaranteed's reserve is held
        # by its own first call
        shared = sched.acquire("loud")
        reserve = sched.acquire("guaranteed")
        results: list = []
        t_loud = self.parked(sched, "loud", results)
        self.wait_for_waiters(sched, 1)
        t_guaranteed = self.parked(sched, "guaranteed", results)
        self.wait_for_waiters(sched, 2)
        reserve.release()  # frees capacity; guaranteed is below reserve
        t_guaranteed.join(timeout=5)
        assert results and results[0][0] == "guaranteed"
        shared.release()
        t_loud.join(timeout=5)

    def test_shed_donates_the_slot_to_a_higher_priority_waiter(self):
        # a shed-mode tenant never *releases* under backlog — it swaps
        # calls in place.  When an outranking tenant is parked, the
        # recycled slot must re-enter the fair queue instead, and the
        # shedding call itself is rejected.
        sched = make(
            2,
            hot={"overflow": "shed-oldest", "priority": 0},
            vip={"priority": 5},
        )
        oldest = DispatchContext("old")
        sched.acquire("hot", oldest, name="old")
        sched.acquire("hot", name="newer")
        results: list = []
        thread = self.parked(sched, "vip", results)
        self.wait_for_waiters(sched, 1)
        with pytest.raises(AdmissionRejected, match="donated"):
            sched.acquire("hot", name="greedy")
        thread.join(timeout=5)
        assert oldest.cancelled  # the shed itself still happened
        assert results and results[0][0] == "vip"
        assert sched.stats()["tenants"]["hot"]["shed"] == 1
        assert sched.stats()["tenants"]["hot"]["rejected"] == 1

    def test_shed_recycles_in_place_without_outranking_waiters(self):
        # an equal-priority waiter does NOT capture the recycled slot:
        # the shed-mode tenant is churning its own quota, not stealing
        sched = make(
            2,
            hot={"overflow": "shed-oldest", "priority": 1},
            peer={"priority": 1},
        )
        first = DispatchContext("a")
        sched.acquire("hot", first, name="a")
        second = sched.acquire("hot", name="b")
        results: list = []
        thread = self.parked(sched, "peer", results)
        self.wait_for_waiters(sched, 1)
        third = sched.acquire("hot", name="c")
        assert first.cancelled
        assert not results  # peer is still parked
        for grant in (second, third):
            grant.release()
        thread.join(timeout=5)
        assert results and results[0][0] == "peer"
        results[0][1].release()

    def test_stride_shares_converge_to_weights(self):
        # one slot, two equal-priority tenants with 3:1 weights, both
        # permanently backlogged: count hand-offs over many cycles
        sched = make(1, heavy={"weight": 3.0}, light={"weight": 1.0})
        held = sched.acquire("heavy")
        order: list = []
        lock = threading.Lock()
        rounds = 40
        done = threading.Semaphore(0)

        def submitter(tenant):
            grant = sched.acquire(tenant)
            with lock:
                order.append(tenant)
            grant.release()
            done.release()

        threads = []
        for _ in range(rounds):
            for tenant in ("heavy", "light"):
                thread = threading.Thread(
                    target=submitter, args=(tenant,), daemon=True
                )
                thread.start()
                threads.append(thread)
        self.wait_for_waiters(sched, 2 * rounds)
        held.release()  # the single slot now cycles through the backlog
        for _ in range(2 * rounds):
            assert done.acquire(timeout=5)
        for thread in threads:
            thread.join(timeout=5)
        assert len(order) == 2 * rounds
        # while BOTH tenants stayed backlogged (the first `rounds`
        # hand-offs at most), stride scheduling allocates 3:1 — the
        # heavy tenant gets ~30 of the first 40 grants, within O(1)
        window = order[:rounds]
        heavy_share = window.count("heavy") / len(window)
        assert abs(heavy_share - 0.75) <= 0.05, window

