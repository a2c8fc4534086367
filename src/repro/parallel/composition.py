"""Module composition: plugging and unplugging parallelisation concerns.

A :class:`ParallelModule` is the unit the paper plugs/unplugs: one
concern implemented by one or more cooperating aspects (the pipeline
partition is two aspects — split and forward — because its forwarding
must nest inside the concurrency layer, see ``concern.LAYER``).

A :class:`Composition` is an ordered set of modules deployed together —
the rows of Table 1 are compositions.  Compositions support::

    comp = Composition("FarmRMI", [partition, concurrency, distribution])
    with comp.deployed(weaver, targets=[PrimeFilter]):
        ...run...

    comp.unplug("distribution")   # the paper's debugging story
    comp.exchange("partition", ParallelModule.of(farm))   # pipeline -> farm

:meth:`ParallelModule.of` plugs one concern aspect as a module named
after its concern (the aspects it brings along included), which is how
the registry entries become modules.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.aop import Aspect
from repro.aop.weaver import Weaver, default_weaver
from repro.errors import DeploymentError
from repro.parallel.concern import Concern, ParallelAspect

__all__ = ["ParallelModule", "Composition"]


class ParallelModule:
    """A named, atomically (un)pluggable group of aspects."""

    def __init__(self, name: str, concern: Concern, aspects: Iterable[Aspect]):
        self.name = name
        self.concern = concern
        self.aspects = tuple(aspects)
        if not self.aspects:
            raise DeploymentError(f"module {name!r} has no aspects")

    @classmethod
    def of(cls, aspect: ParallelAspect, name: str | None = None) -> "ParallelModule":
        """``aspect`` and the aspects it brings (:meth:`ParallelAspect.aspects`)
        as one module, named ``name`` or after the aspect's concern."""
        concern = aspect.concern
        name = name if name is not None else concern.value
        return cls(name, concern, aspect.aspects())

    def deploy(self, weaver: Weaver, targets: Iterable[type] = ()) -> None:
        deployed: list[Aspect] = []
        try:
            for aspect in self.aspects:
                weaver.deploy(aspect, targets=targets)
                deployed.append(aspect)
        except Exception:
            for aspect in reversed(deployed):
                weaver.undeploy(aspect)
            raise

    def undeploy(self, weaver: Weaver) -> None:
        for aspect in reversed(self.aspects):
            if weaver.is_deployed(aspect):
                weaver.undeploy(aspect)

    def is_deployed(self, weaver: Weaver) -> bool:
        return all(weaver.is_deployed(a) for a in self.aspects)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ParallelModule {self.name} [{self.concern}] x{len(self.aspects)}>"


class Composition:
    """An ordered stack of modules — one Table-1 configuration."""

    def __init__(self, name: str, modules: Iterable[ParallelModule] = ()):
        self.name = name
        self.modules: list[ParallelModule] = list(modules)
        self._live_weaver: Weaver | None = None
        self._live_targets: tuple[type, ...] = ()

    # -- structure ---------------------------------------------------------

    def plug(self, module: ParallelModule) -> "Composition":
        """Add a module (deploys immediately if the composition is live)."""
        if any(m.name == module.name for m in self.modules):
            raise DeploymentError(f"module {module.name!r} already plugged")
        self.modules.append(module)
        if self._live_weaver is not None:
            module.deploy(self._live_weaver, targets=self._live_targets)
        return self

    def unplug(self, name: str) -> ParallelModule:
        """Remove a module by name (undeploys if live)."""
        for i, module in enumerate(self.modules):
            if module.name == name:
                del self.modules[i]
                if self._live_weaver is not None:
                    module.undeploy(self._live_weaver)
                return module
        raise DeploymentError(f"no module named {name!r} in {self.name}")

    def exchange(self, name: str, replacement: ParallelModule) -> ParallelModule:
        """Swap one module for another (the pipeline→farm move)."""
        removed = self.unplug(name)
        self.plug(replacement)
        return removed

    def module(self, name: str) -> ParallelModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise DeploymentError(f"no module named {name!r} in {self.name}")

    def by_concern(self, concern: Concern) -> list[ParallelModule]:
        return [m for m in self.modules if m.concern is concern]

    # -- deployment ---------------------------------------------------------

    def deploy(
        self, weaver: Weaver | None = None, targets: Iterable[type] = ()
    ) -> None:
        weaver = weaver if weaver is not None else default_weaver
        if self._live_weaver is not None:
            raise DeploymentError(f"composition {self.name!r} is already deployed")
        self._live_targets = tuple(targets)
        deployed: list[ParallelModule] = []
        try:
            for module in self.modules:
                module.deploy(weaver, targets=self._live_targets)
                deployed.append(module)
        except Exception:
            for module in reversed(deployed):
                module.undeploy(weaver)
            raise
        self._live_weaver = weaver

    def undeploy(self) -> None:
        if self._live_weaver is None:
            return
        for module in reversed(self.modules):
            module.undeploy(self._live_weaver)
        self._live_weaver = None
        self._live_targets = ()

    @contextmanager
    def deployed(
        self, weaver: Weaver | None = None, targets: Iterable[type] = ()
    ) -> Iterator["Composition"]:
        self.deploy(weaver, targets)
        try:
            yield self
        finally:
            self.undeploy()

    def describe(self) -> str:
        """Table-1-style row: which concern is filled by which module."""
        cells = []
        for concern in (Concern.PARTITION, Concern.CONCURRENCY, Concern.DISTRIBUTION, Concern.OPTIMISATION):
            modules = self.by_concern(concern)
            cells.append(
                f"{concern}: " + (", ".join(m.name for m in modules) if modules else "-")
            )
        return f"{self.name}  |  " + "  |  ".join(cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Composition {self.name} modules={[m.name for m in self.modules]}>"
