"""Communication-packing optimisation aspect.

"Examples are: thread pools, cache objects, communication packing and
replicated computation."  Packing coalesces every ``factor`` consecutive
split pieces into one larger unit — fewer, bigger messages, trading
pipeline/farm concurrency for per-message overhead.  It works by
wrapping the partition module's splitter, so it composes with any
partition strategy.

Two packing modes:

* **merge mode** (default when the splitter provides ``merge_pieces``):
  each group of pieces is merged into one bigger :class:`CallPiece` —
  the target method runs once per pack on the merged arguments and
  ``combine`` sees pack-granular results.  This is the paper's original
  formulation.
* **batch mode** (default when the splitter has no ``merge_pieces``;
  forced with ``batch=True``): each group becomes a
  :class:`~repro.parallel.partition.base.PackedPiece` that the skeletons
  dispatch through the compiled batched entry point
  (:func:`repro.aop.plan.batched_entry`).  The advice chain — and, under
  distribution, the wire — is traversed **once per pack** with a single
  :class:`~repro.aop.plan.BatchJoinPoint`, while the target method still
  runs once per item, so ``combine`` keeps seeing piece-granular results
  in the original order.  Batch mode therefore needs no merge/unmerge
  logic from the application at all.
"""

from __future__ import annotations

from repro.errors import AdviceError
from repro.parallel.concern import LAYER, Concern, ParallelAspect
from repro.parallel.partition.base import CallPiece, PackedPiece, PartitionAspect

__all__ = ["CommunicationPackingAspect"]


class CommunicationPackingAspect(ParallelAspect):
    """Coalesce every ``factor`` consecutive pieces of the split."""

    concern = Concern.OPTIMISATION
    precedence = LAYER["optimisation"]

    def __init__(
        self,
        partition: PartitionAspect,
        factor: int,
        batch: bool | None = None,
    ):
        if factor < 1:
            raise AdviceError("packing factor must be >= 1")
        self.partition = partition
        self.factor = factor
        #: None = auto (merge when the splitter supports it, else batch)
        self.batch = batch
        self._original_split = None
        self.packed_messages = 0

    def on_deploy(self) -> None:
        splitter = self.partition.splitter
        self._original_split = splitter.split
        factor = self.factor
        aspect = self
        use_batch = self.batch
        if use_batch is None:
            use_batch = splitter._merge_pieces is None

        def packed_split(args: tuple, kwargs: dict) -> list[CallPiece]:
            pieces = aspect._original_split(args, kwargs)
            merged: list[CallPiece] = []
            for start in range(0, len(pieces), factor):
                group = pieces[start : start + factor]
                if use_batch:
                    piece: CallPiece = PackedPiece(len(merged), group)
                else:
                    bundle = group[0] if len(group) == 1 else splitter.merge_pieces(group)
                    piece = CallPiece(len(merged), bundle.args, bundle.kwargs)
                merged.append(piece)
            aspect.packed_messages += len(merged)
            return merged

        splitter.split = packed_split  # type: ignore[method-assign]

    def on_undeploy(self) -> None:
        if self._original_split is not None:
            self.partition.splitter.split = self._original_split  # type: ignore[method-assign]
            self._original_split = None
