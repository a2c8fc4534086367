"""Distribution concern: RMI, MPP, hybrid and process distribution
aspects."""

from repro.parallel.distribution.base import DistributionAspect
from repro.parallel.distribution.hybrid import HybridDistributionAspect
from repro.parallel.distribution.mpp_aspect import MppDistributionAspect
from repro.parallel.distribution.proc_aspect import ProcDistributionAspect
from repro.parallel.distribution.rmi_aspect import RmiDistributionAspect

__all__ = [
    "DistributionAspect",
    "RmiDistributionAspect",
    "MppDistributionAspect",
    "HybridDistributionAspect",
    "ProcDistributionAspect",
]
