"""Tenant population model: a Zipf over N simulated users.

Real multi-tenant traffic is heavy-tailed: a few users generate most of
the requests.  :class:`TenantPopulation` models N users (a million is
cheap — sampling is O(1) per draw) whose request frequency follows a
bounded Zipf law with exponent ``s``, sampled by Hörmann's
rejection-inversion (no per-rank tables, so the population size costs
nothing).  Tenants own contiguous *rank bands*: giving a tenant the top
0.1% of ranks makes it *hot* (it receives a disproportionate share of
the traffic), the middle bands are *warm*, and the long tail is *cold*
— the hot/warm/cold mix falls out of the band boundaries and the Zipf
exponent alone.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterable

__all__ = ["TenantPopulation"]


class _ZipfSampler:
    """Bounded Zipf(s) over ``{1..n}`` via rejection-inversion.

    One or two ``rng.random()`` draws per sample (the expected number of
    rejections is below one for every exponent); the draw order is part
    of the determinism contract the golden-trace test pins.
    """

    __slots__ = ("n", "s", "_h_x1", "_h_n", "_threshold")

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError(f"population must have >= 1 user, got {n!r}")
        if not s > 0:
            raise ValueError(f"Zipf exponent must be > 0, got {s!r}")
        self.n = int(n)
        self.s = float(s)
        self._h_x1 = self._h_integral(1.5) - 1.0
        self._h_n = self._h_integral(self.n + 0.5)
        self._threshold = 2.0 - self._h_integral_inverse(
            self._h_integral(2.5) - self._h(2.0)
        )

    def _h(self, x: float) -> float:
        return x ** -self.s

    def _h_integral(self, x: float) -> float:
        if self.s == 1.0:
            return math.log(x)
        return (x ** (1.0 - self.s) - 1.0) / (1.0 - self.s)

    def _h_integral_inverse(self, x: float) -> float:
        if self.s == 1.0:
            return math.exp(x)
        t = x * (1.0 - self.s)
        if t < -1.0:
            t = -1.0
        return (1.0 + t) ** (1.0 / (1.0 - self.s))

    def sample(self, rng: random.Random) -> int:
        while True:
            u = self._h_n + rng.random() * (self._h_x1 - self._h_n)
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._threshold or u >= (
                self._h_integral(k + 0.5) - self._h(k)
            ):
                return k


class TenantPopulation:
    """N Zipf-distributed users carved into per-tenant rank bands.

    ``bands`` maps tenant names to population *fractions* (must sum to
    1 within rounding); band order matters — earlier tenants own lower
    (hotter) ranks.  ``draw(rng)`` samples one request's user and
    returns ``(rank, tenant)``.
    """

    def __init__(
        self,
        bands: "dict[str, float] | Iterable[tuple[str, float]]",
        users: int = 1_000_000,
        exponent: float = 1.1,
    ):
        pairs = list(bands.items()) if isinstance(bands, dict) else list(bands)
        if not pairs:
            raise ValueError("need at least one tenant band")
        total = sum(fraction for _, fraction in pairs)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(
                f"band fractions must sum to 1, got {total!r} "
                f"from {pairs!r}"
            )
        for name, fraction in pairs:
            if not fraction > 0:
                raise ValueError(
                    f"band {name!r}: fraction must be > 0, got {fraction!r}"
                )
        self.users = int(users)
        self.exponent = float(exponent)
        self._sampler = _ZipfSampler(self.users, self.exponent)
        self._names = [name for name, _ in pairs]
        # cumulative upper rank bound per band; the last band absorbs
        # rounding so every rank maps to exactly one tenant
        self._bounds: list[int] = []
        cumulative = 0.0
        for _, fraction in pairs:
            cumulative += fraction
            self._bounds.append(min(self.users, round(cumulative * self.users)))
        self._bounds[-1] = self.users

    @property
    def tenants(self) -> tuple:
        """Tenant names, hot band first."""
        return tuple(self._names)

    def band(self, tenant: str) -> tuple[int, int]:
        """The inclusive rank range ``(lo, hi)`` a tenant owns."""
        index = self._names.index(tenant)
        lo = 1 if index == 0 else self._bounds[index - 1] + 1
        return lo, self._bounds[index]

    def tenant_of(self, rank: int) -> str:
        """The tenant owning user ``rank`` (1-based)."""
        if not 1 <= rank <= self.users:
            raise ValueError(
                f"rank must be in [1, {self.users}], got {rank!r}"
            )
        return self._names[bisect.bisect_left(self._bounds, rank)]

    def draw(self, rng: random.Random) -> tuple[int, str]:
        """One request's ``(user_rank, tenant)``."""
        rank = self._sampler.sample(rng)
        return rank, self.tenant_of(rank)

    def expected_share(self, tenant: str) -> float:
        """The tenant's expected fraction of total traffic (continuous
        approximation of the partial generalized-harmonic sum — exact
        enough for scenario design at millions of users)."""
        lo, hi = self.band(tenant)
        h = self._sampler._h_integral
        total = h(self.users + 0.5) - h(0.5)
        return (h(hi + 0.5) - h(lo - 0.5)) / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TenantPopulation {self.users} users s={self.exponent} "
            f"bands={self._names}>"
        )
