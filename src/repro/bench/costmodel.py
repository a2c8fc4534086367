"""Calibrated cost-model constants for the simulated testbed.

The aim is the paper's *shape*, anchored by literature-plausible
magnitudes for a 2005-era dual Xeon 3.2 GHz / JDK 1.5 / Gigabit setup:

* ``ns_per_op = 16.5 ns`` — one remainder operation in the JIT-compiled
  inner filter loop (~50 cycles at 3.2 GHz including loop/bounds
  overhead).  With the paper workload (max = 10 M ⇒ ~380 M counted
  divisions) the sequential sieve lands near the ~6.3 s the figures
  show for one filter.
* ``aop_factor = 1.03``, ``dispatch_cost = 2 µs`` — the "<5 %" Figure 16
  gap: advice bodies are out-of-line calls the JIT no longer inlines,
  plus a small per-joinpoint dispatch cost.
* middleware profiles live with the middlewares (``RMI_COSTS``,
  ``MPP_COSTS``); the network preset is ``GIGABIT_ETHERNET``.

Nothing here is fitted to the paper's exact numbers — ``make reproduce``
checks shapes, not absolutes (``benchmarks/README.md``, "Running").
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "PAPER_COST_MODEL", "HANDCODED_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Application-level compute cost constants."""

    #: seconds per counted division in the filter inner loop
    ns_per_op: float = 16.5e-9
    #: multiplicative compute overhead of woven vs hand-inlined code
    aop_factor: float = 1.03
    #: additive per-joinpoint interception cost (seconds)
    dispatch_cost: float = 2e-6


#: the woven (AspectJ-analogue) configuration
PAPER_COST_MODEL = CostModel()

#: the hand-coded (Figure 16 "Java") configuration: same work, no AOP tax
HANDCODED_COST_MODEL = CostModel(aop_factor=1.0, dispatch_cost=0.0)
