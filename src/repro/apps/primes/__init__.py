"""The paper's case study: a prime-number sieve (Section 5)."""

from repro.apps.primes.aspects import (
    SIEVE_CREATION,
    SIEVE_WORK,
    TABLE1_COMBINATIONS,
    IPrimeFilter,
    sieve_app,
    sieve_cost_aspect,
    sieve_spec,
)
from repro.apps.primes.core import PrimeFilter, base_primes
from repro.apps.primes.handcoded import (
    CostedPrimeFilter,
    HandCodedFarmRMI,
    HandCodedPipelineRMI,
)
from repro.apps.primes.reference import expected_sieve_output, primes_up_to
from repro.apps.primes.workload import SieveWorkload

__all__ = [
    "PrimeFilter",
    "base_primes",
    "SieveWorkload",
    "primes_up_to",
    "expected_sieve_output",
    "SIEVE_CREATION",
    "SIEVE_WORK",
    "TABLE1_COMBINATIONS",
    "IPrimeFilter",
    "sieve_spec",
    "sieve_app",
    "sieve_cost_aspect",
    "CostedPrimeFilter",
    "HandCodedFarmRMI",
    "HandCodedPipelineRMI",
]
