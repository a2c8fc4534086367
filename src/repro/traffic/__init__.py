"""Replayable open-loop traffic for the simulated cluster.

The sim backend's virtual clock makes load testing a *computation*: a
seeded arrival process (:mod:`repro.traffic.arrivals`), a Zipf tenant
population over millions of simulated users
(:mod:`repro.traffic.population`), and a per-tenant percentile recorder
(:mod:`repro.traffic.recorder`) feed the open-loop generator
(:mod:`repro.traffic.generator`), which holds virtual time to each
arrival instant and spawns one handler activity per request — arrivals
never wait for completions, so overload builds exactly as it would
against a real service.  Everything is driven by ``random.Random``
seeds: the same scenario replays bit-identically, which is what lets
latency percentiles and shed rates under overload live in a committed
golden record instead of being anecdotes.
"""

from repro.traffic.arrivals import (
    ArrivalProcess,
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.traffic.generator import Arrival, TrafficGenerator, open_loop
from repro.traffic.population import TenantPopulation
from repro.traffic.recorder import PercentileRecorder

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DiurnalArrivals",
    "BurstArrivals",
    "TenantPopulation",
    "PercentileRecorder",
    "Arrival",
    "TrafficGenerator",
    "open_loop",
]
