"""Sieve workload generator and partition strategy descriptions.

Reproduces the evaluation workload of Section 6: "The maximum prime
number was set to 10.000.000 and there are 50 messages of 100.000
numbers (only odd numbers are sent to the pipeline)."

The :class:`SieveWorkload` also builds the :class:`WorkSplitter`
instances the partition aspects consume:

* **pipeline** — constructor duplication carves the base-prime range
  ``[2, sqrt(max)]`` into contiguous chunks, one per stage; each stage
  forwards its survivors to the next;
* **farm / dynamic farm** — constructor arguments are broadcast (every
  worker owns *all* base primes) and each pack is routed to one worker.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.primes.core import base_primes
from repro.parallel.partition.base import CallPiece, WorkSplitter

__all__ = ["SieveWorkload"]


class SieveWorkload:
    """Candidates, packs, and splitters for one sieve experiment."""

    def __init__(self, maximum: int = 10_000_000, packs: int = 50):
        if maximum < 9:
            raise ValueError("maximum must be >= 9")
        if packs < 1:
            raise ValueError("packs must be >= 1")
        self.maximum = maximum
        self.packs = packs
        self.sqrt = math.isqrt(maximum)
        #: the pre-calculated primes up to sqrt(max) (paper: "pre-calculates
        #: the primes up to the square root of the largest number")
        self.base = base_primes(self.sqrt)
        first_odd = self.sqrt + 1 if (self.sqrt + 1) % 2 == 1 else self.sqrt + 2
        #: only odd numbers are sent through the sieve
        self.candidates = np.arange(first_odd, maximum + 1, 2, dtype=np.int64)

    # -- packs -------------------------------------------------------------

    def pack_list(self) -> list[np.ndarray]:
        """The candidate array as ``packs`` near-equal messages."""
        return [np.ascontiguousarray(p) for p in np.array_split(self.candidates, self.packs)]

    # -- splitter building blocks ----------------------------------------------

    def split_call(self, args: tuple, kwargs: dict) -> list[CallPiece]:
        """Split a ``filter(candidates)`` call into per-pack pieces."""
        (candidates,) = args
        chunks = np.array_split(np.asarray(candidates), self.packs)
        return [
            CallPiece(i, (np.ascontiguousarray(chunk),))
            for i, chunk in enumerate(chunks)
            if len(chunk) > 0
        ]

    @staticmethod
    def combine(results: list) -> np.ndarray:
        """Aggregate survivors (pipeline deposits arrive unordered)."""
        parts = [np.asarray(r) for r in results if r is not None and len(r) > 0]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    @staticmethod
    def merge_pieces(pieces) -> CallPiece:
        """Coalesce consecutive packs (communication packing)."""
        arrays = [piece.args[0] for piece in pieces]
        return CallPiece(pieces[0].index, (np.concatenate(arrays),))

    def stage_ranges(self, stages: int) -> list[tuple[int, int]]:
        """Carve ``[2, sqrt]`` into ``stages`` contiguous prime ranges.

        Range boundaries follow the base-prime *list* so stages hold
        near-equal prime counts (the paper's "range of prime numbers").
        """
        chunks = np.array_split(self.base, stages)
        ranges: list[tuple[int, int]] = []
        previous_hi = 1
        for chunk in chunks:
            if len(chunk) == 0:
                # more stages than primes: give an empty range
                ranges.append((previous_hi + 1, previous_hi))
                continue
            lo, hi = int(chunk[0]), int(chunk[-1])
            ranges.append((lo, hi))
            previous_hi = hi
        return ranges

    # -- splitters -----------------------------------------------------------

    def pipeline_splitter(self, stages: int) -> WorkSplitter:
        ranges = self.stage_ranges(stages)

        def ctor_args(args, kwargs, index, count):
            lo, hi = ranges[index]
            return (lo, hi), {}

        return WorkSplitter(
            duplicates=stages,
            ctor_args=ctor_args,
            split=self.split_call,
            combine=self.combine,
            merge_pieces=self.merge_pieces,
        )

    def farm_splitter(self, workers: int) -> WorkSplitter:
        # constructor parameters broadcast: every worker gets [2, sqrt]
        return WorkSplitter(
            duplicates=workers,
            split=self.split_call,
            combine=self.combine,
            merge_pieces=self.merge_pieces,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SieveWorkload max={self.maximum} packs={self.packs} "
            f"candidates={len(self.candidates)} base={len(self.base)}>"
        )
