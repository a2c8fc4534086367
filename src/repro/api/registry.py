"""Open registries for strategies, middlewares, and execution backends.

Three :class:`Registry` instances that any package — the built-in
modules or an application — can extend, so adding a partition strategy
edits no front door::

    from repro.api.registry import register_strategy

    @register_strategy("wavefront")
    class WavefrontAspect(FarmAspect):
        ...

Every entry is a class:

* **strategies** — partition-aspect classes, built by their constructor
  ``(splitter, creation, work, **strategy_options)`` (the partition
  aspects register themselves on import);
* **middlewares** — distribution-aspect classes, built by
  ``for_cluster(cluster, creation, work, placement=None, oneway=(),
  **middleware_options)`` (the distribution aspects register
  themselves);
* **backends** — :class:`~repro.runtime.backend.ExecutionBackend`
  classes, built by ``for_cluster(cluster)`` (the built-in backends
  register themselves).

``"none"``, in the strategy and the middleware registry, is the one
null entry (:mod:`repro.api.spec`): it builds no aspect.

Unknown names raise :class:`UnknownNameError`, a
:class:`~repro.errors.DeploymentError` that lists every registered name
and suggests the nearest match for a typo — the error a user actually
needs when they type ``strategy="frm"``.

This module deliberately imports nothing heavier than the error
hierarchy, so any layer (runtime backends, partition skeletons,
distribution aspects) can register itself without an import cycle.
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Iterator

from repro.errors import DeploymentError

__all__ = [
    "UnknownNameError",
    "Registry",
    "STRATEGIES",
    "MIDDLEWARES",
    "BACKENDS",
    "register_strategy",
    "register_middleware",
    "register_backend",
]


class UnknownNameError(DeploymentError):
    """An unregistered name was requested from a :class:`Registry`.

    Carries the requested ``name``, the registry ``kind``, the tuple of
    ``known`` names, and the nearest-match ``suggestion`` (or ``None``)
    so tooling can render the hint however it likes; ``str(exc)``
    already includes all of it.
    """

    def __init__(self, kind: str, name: str, known: tuple[str, ...]):
        self.kind = kind
        self.name = name
        self.known = known
        matches = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
        self.suggestion: str | None = matches[0] if matches else None
        message = f"unknown {kind} {name!r}; registered: {', '.join(known) or '(none)'}"
        if self.suggestion is not None:
            message += f" — did you mean {self.suggestion!r}?"
        super().__init__(message)


class Registry:
    """A named, openly extensible name → entry table."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Any] = {}
        #: lazy loader for the built-in entries — cleared before it runs
        #: so a bootstrap that registers entries cannot recurse
        self._bootstrap: Callable[[], None] | None = None

    def ensure(self) -> None:
        """Run the pending bootstrap (if any) exactly once.

        Lookups and listings call this first so an
        :class:`UnknownNameError` always carries the FULL built-in
        catalogue — historically ``BACKENDS.get("typo")`` before any
        ``repro.runtime`` import reported "registered: (none)", which
        pointed users at a packaging problem instead of their typo.
        """
        bootstrap, self._bootstrap = self._bootstrap, None
        if bootstrap is not None:
            bootstrap()

    def register(
        self, name: str, entry: Any = None, *, replace: bool = False
    ) -> Any:
        """Register ``entry`` under ``name``.

        With ``entry`` omitted, returns a decorator — the
        ``@register_strategy("farm")`` form.  Re-registering an existing
        name requires ``replace=True`` (guards against accidental
        shadowing of a built-in).
        """
        if entry is None:
            def decorator(obj: Any) -> Any:
                self.register(name, obj, replace=replace)
                return obj

            return decorator
        if not replace and name in self._entries:
            raise DeploymentError(
                f"{self.kind} {name!r} is already registered "
                f"(pass replace=True to override)"
            )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> Any:
        """Remove and return the entry under ``name``."""
        self.ensure()
        if name not in self._entries:
            raise UnknownNameError(self.kind, name, self.names())
        return self._entries.pop(name)

    def get(self, name: str) -> Any:
        """The entry under ``name``; raises :class:`UnknownNameError`
        (with the full catalogue and a nearest-match suggestion) when
        absent."""
        self.ensure()
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def names(self) -> tuple[str, ...]:
        """Registered names, sorted."""
        self.ensure()
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        self.ensure()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names())}>"


#: partition-aspect classes, e.g. ``"farm"`` → ``FarmAspect``
STRATEGIES = Registry("strategy")
#: distribution-aspect classes, e.g. ``"rmi"`` → ``RmiDistributionAspect``
MIDDLEWARES = Registry("middleware")
#: execution-backend classes, e.g. ``"thread"`` → ThreadBackend
BACKENDS = Registry("backend")


def register_strategy(name: str, aspect: type | None = None, **kw: Any) -> Any:
    """Register a partition-aspect class (decorator form when
    ``aspect`` is omitted)."""
    return STRATEGIES.register(name, aspect, **kw)


def register_middleware(name: str, aspect: type | None = None, **kw: Any) -> Any:
    """Register a distribution-aspect class (decorator form when
    ``aspect`` is omitted)."""
    return MIDDLEWARES.register(name, aspect, **kw)


def register_backend(name: str, backend: type | None = None, **kw: Any) -> Any:
    """Register an execution-backend class (decorator form when
    ``backend`` is omitted)."""
    return BACKENDS.register(name, backend, **kw)


def _builtin_bootstrap() -> None:
    """Import every package whose modules self-register built-ins.

    Installed as each registry's ``_bootstrap`` so the catalogues are
    complete from the first lookup, however the caller reached them.
    """
    import repro.api.spec  # noqa: F401 - registers the null entry "none"
    import repro.parallel  # noqa: F401 - partition + distribution aspects
    import repro.runtime  # noqa: F401 - the built-in backends


for _registry in (STRATEGIES, MIDDLEWARES, BACKENDS):
    _registry._bootstrap = _builtin_bootstrap
