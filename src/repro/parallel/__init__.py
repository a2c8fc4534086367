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
    hybrid_distribution_module,
    mpp_distribution_module,
    rmi_distribution_module,
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
    divide_and_conquer_module,
    dynamic_farm_module,
    farm_module,
    heartbeat_module,
    pipeline_module,
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
    "pipeline_module",
    "FarmAspect",
    "farm_module",
    "DynamicFarmAspect",
    "dynamic_farm_module",
    "HeartbeatAspect",
    "heartbeat_module",
    "DivideAndConquerAspect",
    "divide_and_conquer_module",
    # concurrency
    "AsyncInvocationAspect",
    "SynchronisationAspect",
    "SpawnPerCall",
    "PooledSpawner",
    "concurrency_module",
    # distribution
    "DistributionAspect",
    "RmiDistributionAspect",
    "rmi_distribution_module",
    "MppDistributionAspect",
    "mpp_distribution_module",
    "HybridDistributionAspect",
    "hybrid_distribution_module",
    # optimisation + instrumentation
    "ThreadPoolAspect",
    "CommunicationPackingAspect",
    "ObjectCacheAspect",
    "ReadReplicaAspect",
    "ReplicationAspect",
    "ComputeCostAspect",
]
