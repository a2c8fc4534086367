"""`repro.api` — the declarative, futures-first application surface.

This package is the front door the paper's pitch deserves: one
:class:`~repro.api.spec.StackSpec` describes a complete parallelisation
stack (target, pointcuts, splitter, strategy, middleware, backend,
optimisations), a :class:`~repro.api.app.ParallelApp` assembles and
deploys it, and :meth:`~repro.api.app.ParallelApp.submit` /
:meth:`~repro.api.app.ParallelApp.map` hand back futures on whichever
execution backend the spec names::

    from repro.api import ParallelApp, StackSpec

    app = ParallelApp(StackSpec(
        target=PrimeFilter,
        work="filter",
        splitter=workload.farm_splitter(8),
        strategy="farm",
    ))
    with app:
        app.start(2, workload.sqrt)
        future = app.submit(workload.candidates)
        primes = future.result()

Strategies, middlewares, and backends live in open registries
(:mod:`repro.api.registry`) — built-ins register themselves on import
and applications add their own with ``@register_strategy(...)`` et al.,
so new scenarios plug in without editing any facade.

Re-exports are resolved lazily (PEP 562): the partition / distribution /
runtime modules import :mod:`repro.api.registry` at class-definition
time to register themselves, and an eager ``__init__`` here would turn
that into an import cycle.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "Registry": "repro.api.registry",
    "UnknownNameError": "repro.api.registry",
    "STRATEGIES": "repro.api.registry",
    "MIDDLEWARES": "repro.api.registry",
    "BACKENDS": "repro.api.registry",
    "register_strategy": "repro.api.registry",
    "register_middleware": "repro.api.registry",
    "register_backend": "repro.api.registry",
    "StackSpec": "repro.api.spec",
    "ParallelApp": "repro.api.app",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Lazy re-export: resolve the named symbol from its home module."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Include the lazy re-exports in ``dir(repro.api)``."""
    return sorted(set(globals()) | set(_EXPORTS))
