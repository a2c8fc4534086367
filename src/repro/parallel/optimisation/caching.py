"""Object-cache optimisation aspect.

Memoises matched calls: a repeated invocation with identical arguments
returns the cached result without touching the (possibly remote) target
— the paper's "cache objects".  Keys combine the method name with a
caller-supplied argument digest (default: ``repr``; numpy-heavy apps
pass a bytes-hash).

The cache is **pack-aware**: when the joinpoint is a
:class:`~repro.aop.plan.BatchJoinPoint` (communication packing in batch
mode), the whole pack is digested and looked up under **one** lock
acquisition, cached items are answered locally, and only the miss
subset proceeds — as a *smaller pack* through the one remaining chain
traversal — before the results are re-interleaved in piece order.  A
fully-cached pack never touches the target (or, under distribution, the
wire) at all.

Eviction is LRU over a bounded :class:`~collections.OrderedDict`, and
every cache/statistics mutation is serialised by a lock: the aspect
memoises calls served concurrently by pooled workers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.aop import abstract_pointcut, around, pointcut
from repro.aop.plan import piece_view
from repro.parallel.concern import LAYER, Concern, ParallelAspect

__all__ = ["ObjectCacheAspect"]

#: distinguishes "not cached" from a cached ``None`` result
_MISS = object()


def _default_digest(args: tuple, kwargs: dict) -> str:
    return repr((args, tuple(sorted(kwargs.items()))))


class ObjectCacheAspect(ParallelAspect):
    """Around-advice memoisation with hit/miss statistics.

    Statistics: ``hits`` / ``misses`` count *items* (pack items count
    individually); ``pack_lookups`` counts batched dispatches — each one
    is a single locked lookup pass regardless of pack size.
    """

    concern = Concern.OPTIMISATION
    precedence = LAYER["optimisation"] + 10  # outside other optimisations

    cached_calls = abstract_pointcut("calls to memoise")

    def __init__(
        self,
        cached_calls: str | None = None,
        digest: Callable[[tuple, dict], Any] | None = None,
        per_target: bool = False,
        max_entries: int = 4096,
    ):
        if cached_calls is not None:
            self.cached_calls = pointcut(cached_calls)
        self.digest = digest if digest is not None else _default_digest
        self.per_target = per_target
        self.max_entries = max_entries
        self._cache: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.pack_lookups = 0

    # -- keying / storage --------------------------------------------------

    def _key(self, name: str, target: Any, args: tuple, kwargs: dict) -> Any:
        return (
            name,
            id(target) if self.per_target else None,
            self.digest(args, kwargs),
        )

    def _admit(self, key: Any, result: Any) -> None:
        """Store under the (already held) lock with LRU eviction."""
        cache = self._cache
        if key in cache:
            cache.move_to_end(key)
        elif len(cache) >= self.max_entries:
            cache.popitem(last=False)  # evict least recently used
        cache[key] = result

    # -- advice ------------------------------------------------------------

    @around("cached_calls")
    def memoise(self, jp):
        pieces = getattr(jp, "pieces", None)
        if pieces is not None:
            return self._memoise_pack(jp, pieces)
        key = self._key(jp.name, jp.target, jp.args, jp.kwargs)
        with self._lock:
            cached = self._cache.get(key, _MISS)
            if cached is not _MISS:
                self.hits += 1
                self._cache.move_to_end(key)
                return cached
            self.misses += 1
        result = jp.proceed()
        with self._lock:
            self._admit(key, result)
        return result

    def _memoise_pack(self, jp, pieces) -> list:
        """One digest + lookup pass for the whole pack; partial hits
        split the pack: cached items are answered locally, the miss
        subset proceeds as a smaller pack, and the per-item results are
        re-interleaved in the original piece order."""
        name = jp.name
        target = jp.target
        keys = []
        for piece in pieces:
            args, kwargs = piece_view(piece)
            keys.append(self._key(name, target, args, kwargs))
        results: list = [None] * len(keys)
        miss_indices: list[int] = []
        with self._lock:  # ONE locked pass per pack
            self.pack_lookups += 1
            cache = self._cache
            for i, key in enumerate(keys):
                cached = cache.get(key, _MISS)
                if cached is not _MISS:
                    self.hits += 1
                    cache.move_to_end(key)
                    results[i] = cached
                else:
                    self.misses += 1
                    miss_indices.append(i)
        if not miss_indices:
            return results  # fully cached: the pack never proceeds
        miss_results = jp.proceed(tuple(pieces[i] for i in miss_indices))
        with self._lock:
            for i, result in zip(miss_indices, miss_results):
                self._admit(keys[i], result)
                results[i] = result
        return results

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def on_undeploy(self) -> None:
        self.clear()
