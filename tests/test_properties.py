"""Property-based tests (hypothesis) on core invariants.

Each property pins an invariant the rest of the system leans on:
determinism of the kernel, conservation in the CPU model, correctness of
partitioned sieving for arbitrary shapes, and the pattern-matching
algebra of the pointcut language.
"""

from __future__ import annotations

import fnmatch
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aop import weave
from repro.aop.signature import TypePattern
from repro.aop.weaver import default_weaver
from repro.apps.primes import (
    PrimeFilter,
    SieveWorkload,
    sieve_app,
    primes_up_to,
)
from repro.apps.primes.reference import expected_sieve_output
from repro.middleware.serialize import measure_size
from repro.runtime import Future, ThreadBackend, use_backend
from repro.sim import ProcessorSharingCPU, Simulator, total_rate

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestSieveProperties:
    @COMMON
    @given(
        maximum=st.integers(min_value=100, max_value=4000),
        packs=st.integers(min_value=1, max_value=8),
        filters=st.integers(min_value=1, max_value=5),
        strategy=st.sampled_from(["FarmThreads", "PipeThreads"]),
    )
    def test_partitioned_sieve_equals_reference(
        self, maximum, packs, filters, strategy
    ):
        """Any workload shape × strategy must produce the exact primes."""
        default_weaver.reset()
        workload = SieveWorkload(maximum, packs)
        stack = sieve_app(strategy, workload, filters)
        weave(PrimeFilter)
        try:
            with use_backend(ThreadBackend()):
                with stack.composition.deployed(
                    default_weaver, targets=[PrimeFilter]
                ):
                    prime_filter = PrimeFilter(2, workload.sqrt)
                    result = prime_filter.filter(workload.candidates)
                    if isinstance(result, Future):
                        result = result.result()
        finally:
            default_weaver.reset()
        assert np.array_equal(
            np.sort(np.asarray(result)), expected_sieve_output(maximum)
        )

    @COMMON
    @given(maximum=st.integers(min_value=10, max_value=5000))
    def test_reference_sieve_matches_trial_division(self, maximum):
        primes = primes_up_to(maximum).tolist()
        for candidate in range(2, maximum + 1):
            is_prime = all(
                candidate % d != 0 for d in range(2, math.isqrt(candidate) + 1)
            )
            assert (candidate in primes) == is_prime or candidate > maximum

    @COMMON
    @given(
        maximum=st.integers(min_value=100, max_value=50_000),
        packs=st.integers(min_value=1, max_value=64),
    )
    def test_packs_recombine_to_candidates(self, maximum, packs):
        workload = SieveWorkload(maximum, packs)
        joined = np.concatenate(workload.pack_list())
        assert np.array_equal(joined, workload.candidates)
        assert len(workload.pack_list()) == packs

    @COMMON
    @given(
        maximum=st.integers(min_value=150, max_value=50_000),
        stages=st.integers(min_value=1, max_value=20),
    )
    def test_stage_ranges_partition_base_primes(self, maximum, stages):
        workload = SieveWorkload(maximum, 2)
        ranges = workload.stage_ranges(stages)
        assert len(ranges) == stages
        covered = []
        for lo, hi in ranges:
            covered.extend(int(p) for p in workload.base if lo <= p <= hi)
        assert covered == [int(p) for p in workload.base]


class TestSimProperties:
    @COMMON
    @given(
        plan=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),  # spawn delay
                st.lists(
                    st.floats(min_value=0.0, max_value=2.0),
                    min_size=1,
                    max_size=4,
                ),  # holds
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_kernel_is_deterministic(self, plan):
        def run_once():
            sim = Simulator()
            log = []

            def worker(wid, holds):
                for h in holds:
                    sim.hold(h)
                    log.append((wid, round(sim.now, 9)))

            for wid, (delay, holds) in enumerate(plan):
                sim.spawn(
                    lambda wid=wid, holds=holds: worker(wid, holds), delay=delay
                )
            sim.run()
            return log

        assert run_once() == run_once()

    @COMMON
    @given(
        jobs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3.0),  # arrival
                st.floats(min_value=0.01, max_value=5.0),  # work
            ),
            min_size=1,
            max_size=8,
        ),
        cores=st.integers(min_value=1, max_value=4),
        ht=st.floats(min_value=1.0, max_value=1.5),
    )
    def test_processor_sharing_conserves_work(self, jobs, cores, ht):
        """The CPU's busy-time integral equals the total work served, and
        every job takes at least work/speed."""
        sim = Simulator()
        cpu = ProcessorSharingCPU(sim, cores=cores, ht_factor=ht)
        spans = {}

        def job(jid, arrival, work):
            sim.hold(arrival)
            start = sim.now
            cpu.execute(work)
            spans[jid] = (start, sim.now)

        for jid, (arrival, work) in enumerate(jobs):
            sim.spawn(lambda jid=jid, a=arrival, w=work: job(jid, a, w))
        sim.run()
        total_work = sum(work for _, work in jobs)
        assert cpu.jobs_completed == len(jobs)
        assert cpu.busy_time == pytest.approx(total_work, rel=1e-6)
        for jid, (arrival, work) in enumerate(jobs):
            start, end = spans[jid]
            assert end - start >= work - 1e-9

    @COMMON
    @given(
        n=st.integers(min_value=1, max_value=50),
        cores=st.integers(min_value=1, max_value=8),
        ht=st.floats(min_value=1.0, max_value=2.0),
    )
    def test_total_rate_monotone_and_bounded(self, n, cores, ht):
        rate = total_rate(n, cores, ht)
        assert 0 < rate <= cores * ht + 1e-9
        assert rate <= total_rate(n + 1, cores, ht) + 1e-9
        if n <= cores:
            assert rate == pytest.approx(n)


class TestPatternProperties:
    NAMES = st.text(
        alphabet=st.sampled_from("abcXYZ_"), min_size=1, max_size=8
    )

    @COMMON
    @given(name=NAMES, pattern=st.text(alphabet=st.sampled_from("abcXYZ_*"), min_size=1, max_size=8))
    def test_type_pattern_agrees_with_fnmatch(self, name, pattern):
        cls = type(name, (), {})
        assert TypePattern(pattern).matches_class(cls) == bool(
            fnmatch.fnmatch(name, pattern)
        )

    @COMMON
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=20))
    def test_measure_size_superadditive_for_lists(self, values):
        whole = measure_size(values)
        assert whole >= measure_size([])
        if values:
            assert whole > measure_size(values[:-1])


class TestSerializerProperties:
    @COMMON
    @given(
        payload=st.recursive(
            st.integers() | st.text(max_size=8) | st.booleans() | st.none(),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=4), children, max_size=4),
            max_leaves=12,
        )
    )
    def test_clone_is_deep_and_equal(self, payload):
        from repro.middleware.serialize import Serializer

        clone = Serializer().clone(payload)
        assert clone == payload
        if isinstance(payload, (list, dict)) and payload:
            assert clone is not payload
