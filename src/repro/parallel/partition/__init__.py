"""Partition concern: pipeline, farm, dynamic farm, heartbeat and
divide-and-conquer strategies built from object duplication +
method-call split."""

from repro.parallel.partition.base import (
    CallPiece,
    DispatchContext,
    PackedPiece,
    PartitionAspect,
    ResultCollector,
    WorkSplitter,
    dispatch_piece,
)
from repro.parallel.partition.divide_conquer import DivideAndConquerAspect
from repro.parallel.partition.dynamic_farm import DynamicFarmAspect
from repro.parallel.partition.farm import FarmAspect
from repro.parallel.partition.heartbeat import HeartbeatAspect
from repro.parallel.partition.pipeline import (
    PipelineForwardAspect,
    PipelineSplitAspect,
)

__all__ = [
    "CallPiece",
    "PackedPiece",
    "dispatch_piece",
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
]
