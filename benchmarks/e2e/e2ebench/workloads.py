"""The four workloads: servant classes, seeded inputs, stack specs.

Each workload names the layers it stresses (see the README table).  The
numbers in ``clients``, ``rate_ops_s`` and ``limit_ms`` are constants of
the benchmark, sized once on the reference box and never derived at run
time: a run that computed its own offered load would hide a regression
behind a lower rate.

Servant classes are module-level so forked workers resolve them, and
each work function is also bound to a ``*Core`` class that is never
woven: that class is the reference every reply is verified against.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.api import StackSpec
from repro.apps.wordcount import TextPipeline, wordcount_spec
from repro.parallel import WorkSplitter
from repro.parallel.partition import CallPiece

__all__ = ["Workload", "WORKLOADS", "arrival_schedule"]


# -- servants ---------------------------------------------------------------

STREETS = (
    "rua da assembleia",
    "avenida presidente vargas",
    "rua sao clemente",
    "avenida rio branco",
)

#: stand-in for the geocode round trip of the SNIPPETS webhook
GEOCODE_S = 0.004


def _bigrams(text: str) -> frozenset:
    return frozenset(text[i : i + 2] for i in range(len(text) - 1))


def _street_index(streets: Sequence[str]) -> list:
    return [(_bigrams(street), len(street) - 1) for street in streets]


def _lookup(index: list, query: str) -> tuple:
    """Best street for ``query`` by Dice coefficient over bigrams."""
    grams = _bigrams(query)
    size = len(grams)
    best, best_score = -1, 0.0
    for position, (street_grams, street_size) in enumerate(index):
        score = 2.0 * len(grams & street_grams) / (size + street_size)
        if score > best_score:
            best, best_score = position, score
    return best, round(best_score, 6)


def _matcher_init(self, streets=STREETS):
    self.index = _street_index(streets)


def _match(self, queries):
    index = self.index
    return [_lookup(index, query) for query in queries]


class StreetMatcher:
    """Fuzzy street-name lookup, the cheap class of the webhook."""

    __init__ = _matcher_init
    match = _match


class StreetMatcherCore:
    __init__ = _matcher_init
    match = _match


def _cruncher_init(self, rounds=2):
    self.rounds = rounds


def _crunch(self, values):
    """Additive checksum, so piece results combine to the sequential
    answer whatever the split."""
    acc = 0
    for shift in range(self.rounds):
        for value in values:
            acc += (value >> shift) & 0xFFFF
    return acc & 0xFFFFFFFF, len(values)


class Cruncher:
    """CPU-bound checksum over a large list of ints."""

    __init__ = _cruncher_init
    crunch = _crunch


class CruncherCore:
    __init__ = _cruncher_init
    crunch = _crunch


async def _handle(self, events):
    index = self.index
    out = []
    for kind, text in events:
        if kind == "geocode":
            await asyncio.sleep(GEOCODE_S)
            out.append(("geocode", len(text)))
        else:
            out.append(_lookup(index, text))
    return out


class WebhookGateway:
    """Two-class webhook mix: cheap lookups and awaited geocode calls."""

    __init__ = _matcher_init
    handle = _handle


class WebhookGatewayCore:
    __init__ = _matcher_init
    handle = _handle


#: unwoven twin of the repo's word counter, taken before anything weaves it
TextPipelineCore = type(
    "TextPipelineCore",
    (),
    {
        "__init__": TextPipeline.__dict__["__init__"],
        "process": TextPipeline.__dict__["process"],
    },
)


# -- seeded inputs ------------------------------------------------------------


def _typo(rng: random.Random, street: str) -> str:
    """One street name as a user would mistype it."""
    chars = list(street)
    for _ in range(2):
        spot = rng.randrange(len(chars))
        roll = rng.random()
        if roll < 0.4:
            chars[spot] = rng.choice("abcdefghijklmnopqrstuvwxyz")
        elif roll < 0.7 and len(chars) > 4:
            del chars[spot]
        else:
            chars.insert(spot, rng.choice("aeiou "))
    return "".join(chars)


def _queries(rng: random.Random, count: int) -> list:
    return [_typo(rng, rng.choice(STREETS)) for _ in range(count)]


def _ranges(total: int, parts: int) -> list:
    step = (total + parts - 1) // parts
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _chunk_splitter(workers: int) -> WorkSplitter:
    """Split one list payload into ``workers`` contiguous chunks and
    concatenate the per-chunk result lists."""

    def split(args: tuple, kwargs: dict) -> list:
        (items,) = args
        return [
            CallPiece(index, (items[lo:hi],))
            for index, (lo, hi) in enumerate(_ranges(len(items), workers))
        ]

    def combine(results: list) -> list:
        return [item for chunk in results for item in chunk]

    return WorkSplitter(duplicates=workers, split=split, combine=combine)


def _crunch_combine(results: list) -> tuple:
    acc = sum(piece_acc for piece_acc, _ in results) & 0xFFFFFFFF
    return acc, sum(count for _, count in results)


def _crunch_splitter(workers: int) -> WorkSplitter:
    chunks = _chunk_splitter(workers)
    return WorkSplitter(
        duplicates=workers,
        split=chunks.split,
        combine=_crunch_combine,
    )


_VOCABULARY = (
    "the quick brown fox jumps over lazy dog and runs away from a very "
    "loud barking hound while Foxes don't mix with dogs in the afternoon "
    "sun near river bank where water flows under old stone bridge"
).split()


def _documents(rng: random.Random, count: int) -> list:
    return [
        " ".join(rng.choice(_VOCABULARY) for _ in range(rng.randint(8, 14)))
        for _ in range(count)
    ]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployed stack."""

    name: str
    why: str
    backend: str
    #: closed-loop calls in flight during the saturated phase
    clients: int
    #: open-loop offered load, 0.2 to 0.3 of saturated throughput
    rate_ops_s: float
    #: latency limit of the paced phase, from the due time
    limit_ms: float
    #: ops timed per interleaved sequential reference slice
    reference_ops: int
    #: replies per fine group of the saturated phase (15 to 80 ms of work)
    group_ops: int
    #: the woven target class and its never-woven twin
    target: type
    core: type
    method: str
    make_ops: Callable[[random.Random], list]
    make_spec: Callable[[], StackSpec]

    def ops(self, seed: int) -> list:
        """The op pool of ``seed`` (same seed, same pool); the generator
        cycles through it in order."""
        return self.make_ops(random.Random(f"{self.name}:{seed}"))

    def spec(self) -> StackSpec:
        """A fresh spec (fresh splitter, so trace wrappers never stack)."""
        return self.make_spec()

    def reference(self) -> Callable[[Any], Any]:
        """The sequential program: the unwoven core class, one call per
        op, no framework anywhere."""
        method = getattr(self.core(), self.method)
        if asyncio.iscoroutinefunction(method):
            loop = asyncio.new_event_loop()
            return lambda op: loop.run_until_complete(method(op))
        return method

    def expected(self, ops: list) -> list:
        """The right reply to every op of the pool, from the unwoven core
        class.  An async core answers the whole pool at once: the awaits
        overlap, the replies are the same."""
        method = getattr(self.core(), self.method)
        if asyncio.iscoroutinefunction(method):

            async def everything() -> list:
                return list(await asyncio.gather(*map(method, ops)))

            return asyncio.run(everything())
        return [method(op) for op in ops]


def _farm_spec(target: type, work: str, splitter: WorkSplitter, backend: str):
    return StackSpec(
        target=target,
        work=work,
        splitter=splitter,
        strategy="farm",
        concurrency=True,
        backend=backend,
    )


def _webhook_ops(rng: random.Random) -> list:
    """Groups of 5 ops hold exactly 4 geocode events among 40, one in
    each of four ops, so every seed and every reference slice sees the
    same 90/10 mix and the same awaits per op; the seed picks which op
    goes without and where in an op the geocode event sits."""
    ops = []
    for _ in range(40):
        plain = rng.randrange(5)
        for position in range(5):
            kinds = ["lookup"] * 8
            if position != plain:
                kinds[rng.randrange(8)] = "geocode"
            ops.append(list(zip(kinds, _queries(rng, 8))))
    return ops


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="submit_farm_thread",
            why="tiny ops on the thread backend, so submit, admission, "
            "thread spawn, split and per-piece spawn do nearly all the work",
            backend="thread",
            clients=1,
            rate_ops_s=280.0,
            limit_ms=40.0,
            reference_ops=200,
            group_ops=20,
            target=StreetMatcher,
            core=StreetMatcherCore,
            method="match",
            make_ops=lambda rng: [_queries(rng, 16) for _ in range(256)],
            make_spec=lambda: _farm_spec(
                StreetMatcher, "match", _chunk_splitter(4), "thread"
            ),
        ),
        Workload(
            name="cpu_farm_process",
            why="few 128 KB messages and 4 ms of servant CPU on the process "
            "backend, so marshalling, the pipe and the servant dominate",
            backend="process",
            clients=2,
            rate_ops_s=45.0,
            limit_ms=100.0,
            reference_ops=8,
            group_ops=10,
            target=Cruncher,
            core=CruncherCore,
            method="crunch",
            make_ops=lambda rng: [
                [rng.randrange(1 << 31) for _ in range(26_000)]
                for _ in range(8)
            ],
            make_spec=lambda: _farm_spec(
                Cruncher, "crunch", _crunch_splitter(2), "process"
            ),
        ),
        Workload(
            name="webhook_mix_asyncio",
            why="async servant, 90 % cheap lookups and 10 % 4 ms awaits, so "
            "the loop bridge and framework CPU per op set the limit",
            backend="asyncio",
            clients=8,
            rate_ops_s=380.0,
            limit_ms=50.0,
            reference_ops=10,
            group_ops=100,
            target=WebhookGateway,
            core=WebhookGatewayCore,
            method="handle",
            make_ops=_webhook_ops,
            make_spec=lambda: _farm_spec(
                WebhookGateway, "handle", _chunk_splitter(4), "asyncio"
            ),
        ),
        Workload(
            name="wordcount_pipeline_process",
            why="many messages under 2 KB through the staged word counter "
            "on the process backend, so per-message cost dominates",
            backend="process",
            clients=4,
            rate_ops_s=105.0,
            limit_ms=60.0,
            reference_ops=400,
            group_ops=20,
            target=TextPipeline,
            core=TextPipelineCore,
            method="process",
            make_ops=lambda rng: [_documents(rng, 8) for _ in range(256)],
            make_spec=lambda: wordcount_spec(batches=2, backend="process"),
        ),
    )
}


def arrival_schedule(seed: int, rate_ops_s: float, seconds: float) -> list:
    """Due times (seconds from phase start) of the seeded open-loop
    schedule: every gap is drawn uniformly between half and one and a half
    times the mean gap.  Generated here, not by ``repro.traffic``, so a
    change to that module cannot move the offered load.

    Not Poisson: at a third of saturation a Poisson stream leaves only
    four requests in ten alone with the program (no arrival while the one
    before is in service, none during their own), so the median sat on
    the edge between the two kinds and moved by 8 to 14 % between runs of
    the same code as the box sped up and slowed down.  Bounded gaps keep
    requests apart while the box is quiet, and a stall still queues the
    calls behind it, which latency from the due time charges."""
    rng = random.Random(f"schedule:{seed}")
    gap = 1.0 / rate_ops_s
    due = []
    clock = gap * rng.random()
    while clock < seconds:
        due.append(clock)
        clock += gap * rng.uniform(0.5, 1.5)
    return due
