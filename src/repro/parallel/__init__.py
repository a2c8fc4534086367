"""The paper's contribution: parallelisation concerns as pluggable
aspect modules — partition, concurrency, distribution, optimisation —
plus module composition (Table 1 stacks) and cost instrumentation."""

from repro.parallel.composition import Composition, ParallelModule
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.parallel.concurrency import (
    AsyncInvocationAspect,
    PooledSpawner,
    SpawnPerCall,
    SynchronisationAspect,
    concurrency_module,
)
from repro.parallel.distribution import (
    DistributionAspect,
    HybridDistributionAspect,
    MppDistributionAspect,
    RmiDistributionAspect,
)
from repro.parallel.instrumentation import ComputeCostAspect
from repro.parallel.optimisation import (
    CommunicationPackingAspect,
    ObjectCacheAspect,
    ReadReplicaAspect,
    ReplicationAspect,
    ThreadPoolAspect,
)
from repro.parallel.partition import (
    CallPiece,
    DispatchContext,
    DivideAndConquerAspect,
    DynamicFarmAspect,
    FarmAspect,
    HeartbeatAspect,
    PartitionAspect,
    PipelineForwardAspect,
    PipelineSplitAspect,
    ResultCollector,
    WorkSplitter,
)

__all__ = [
    "Concern",
    "LAYER",
    "ParallelAspect",
    "ParallelModule",
    "Composition",
    # partition
    "CallPiece",
    "WorkSplitter",
    "ResultCollector",
    "DispatchContext",
    "PartitionAspect",
    "PipelineSplitAspect",
    "PipelineForwardAspect",
    "FarmAspect",
    "DynamicFarmAspect",
    "HeartbeatAspect",
    "DivideAndConquerAspect",
    # concurrency
    "AsyncInvocationAspect",
    "SynchronisationAspect",
    "SpawnPerCall",
    "PooledSpawner",
    "concurrency_module",
    # distribution
    "DistributionAspect",
    "RmiDistributionAspect",
    "MppDistributionAspect",
    "HybridDistributionAspect",
    # optimisation + instrumentation
    "ThreadPoolAspect",
    "CommunicationPackingAspect",
    "ObjectCacheAspect",
    "ReadReplicaAspect",
    "ReplicationAspect",
    "ComputeCostAspect",
]
