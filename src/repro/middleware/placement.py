"""Object-placement policies.

"Distribution aspect is also responsible by the selection of the most
adequate node for a particular object instance.  Several policies can be
implemented in this aspect (e.g., random, round-robin)."  — Section 4.3.

A policy maps the *i*-th placement request onto one host of a *host
group*: any sequence the middleware offers (``Middleware.hosts``) — a
simulated cluster's nodes, or the process middleware's worker slots.
The distribution aspect asks; the middleware only offers.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Sequence

from repro.errors import PlacementError

__all__ = [
    "PlacementPolicy",
    "RoundRobin",
    "RandomPlacement",
    "BlockPlacement",
    "LeastLoaded",
    "FixedPlacement",
]


class PlacementPolicy(abc.ABC):
    """Chooses the host for each successive exported object."""

    @abc.abstractmethod
    def choose(self, hosts: Sequence, index: int, obj: Any = None) -> Any:
        """Host out of ``hosts`` for the ``index``-th placement (0-based)."""

    def reset(self) -> None:
        """Forget placement history (new experiment run)."""


class RoundRobin(PlacementPolicy):
    """Cycle through the hosts, optionally starting at an offset.

    The default (offset 0) also uses the head node: the paper's client
    mostly waits, so its machine hosts filters too.
    """

    def __init__(self, offset: int = 0):
        self.offset = offset

    def choose(self, hosts: Sequence, index: int, obj: Any = None) -> Any:
        return hosts[(self.offset + index) % len(hosts)]


class RandomPlacement(PlacementPolicy):
    """Uniform random host, deterministic under a fixed seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, hosts: Sequence, index: int, obj: Any = None) -> Any:
        return self._rng.choice(hosts)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class BlockPlacement(PlacementPolicy):
    """First ``block`` objects on host 0, next ``block`` on host 1, ...

    Natural for heartbeat data partitions and pipeline stages, where
    neighbours should share a host.
    """

    def __init__(self, block: int):
        if block < 1:
            raise PlacementError("block size must be >= 1")
        self.block = block

    def choose(self, hosts: Sequence, index: int, obj: Any = None) -> Any:
        return hosts[index // self.block % len(hosts)]


class LeastLoaded(PlacementPolicy):
    """Host currently holding the fewest placed objects (ties → first)."""

    def choose(self, hosts: Sequence, index: int, obj: Any = None) -> Any:
        return min(hosts, key=lambda host: len(host.resident_objects))


class FixedPlacement(PlacementPolicy):
    """Everything on one host (degenerate case; useful in tests)."""

    def __init__(self, position: int = 0):
        self.position = position

    def choose(self, hosts: Sequence, index: int, obj: Any = None) -> Any:
        if not 0 <= self.position < len(hosts):
            raise PlacementError(
                f"fixed placement at position {self.position} is outside "
                f"a group of {len(hosts)} hosts"
            )
        return hosts[self.position]
