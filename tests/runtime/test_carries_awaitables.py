"""``_carries_awaitables`` tells plain builtin values by their exact
type before it asks ``inspect.isawaitable``: the shortcut must not change
a single verdict."""

from __future__ import annotations

import inspect
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.backend import _carries_awaitables


def reference(outcome):
    """The predicate as it was defined before the shortcut."""
    if inspect.isawaitable(outcome):
        return True
    return isinstance(outcome, list) and any(
        inspect.isawaitable(item) for item in outcome
    )


class ListSubclass(list):
    pass


class TupleSubclass(tuple):
    pass


class Awaitable:
    def __await__(self):
        return iter(())


class AwaitableList(list):
    """A list that can itself be awaited."""

    def __await__(self):
        return iter(())


async def _coroutine():
    return 1


@types.coroutine
def _generator_coroutine():
    yield


def _plain_generator():
    yield


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.binary(max_size=4).map(bytearray),
)
hashables = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
containers = st.one_of(
    st.lists(scalars, max_size=4),
    st.lists(scalars, max_size=4).map(tuple),
    st.dictionaries(hashables, scalars, max_size=3),
    st.sets(hashables, max_size=3),
    st.frozensets(hashables, max_size=3),
    st.lists(scalars, max_size=4).map(ListSubclass),
    st.lists(scalars, max_size=4).map(TupleSubclass),
)


class Make:
    """Stands for ``factory()`` until the test body runs: hypothesis may
    drop a generated value unseen, and a coroutine object dropped that
    way warns that it was never awaited."""

    def __init__(self, factory):
        self.factory = factory

    def __repr__(self):
        return f"Make({self.factory.__name__})"


made = st.sampled_from(
    [_coroutine, _generator_coroutine, Awaitable, AwaitableList,
     _plain_generator, object]
).map(Make)
items = st.one_of(scalars, containers, made)
outcomes = st.one_of(
    items,
    st.lists(items, max_size=5),
    st.lists(items, max_size=5).map(tuple),  # awaitables a tuple hides
    st.lists(items, max_size=5).map(ListSubclass),
    st.lists(items, max_size=5).map(TupleSubclass),
)


def materialise(outcome):
    """``outcome`` with every :class:`Make` replaced by what it makes."""
    if isinstance(outcome, Make):
        return outcome.factory()
    if isinstance(outcome, (list, tuple)):
        return type(outcome)(materialise(item) for item in outcome)
    return outcome


def close_all(outcome):
    """No generated coroutine is ever awaited: close them quietly."""
    for item in outcome if isinstance(outcome, (list, tuple)) else [outcome]:
        if inspect.iscoroutine(item) or inspect.isgenerator(item):
            item.close()


@settings(max_examples=400, deadline=None)
@given(outcomes)
def test_same_verdict_as_the_definition_without_the_shortcut(outcome):
    outcome = materialise(outcome)
    try:
        assert _carries_awaitables(outcome) is reference(outcome)
    finally:
        close_all(outcome)


def test_verdicts_at_the_corners():
    coroutine = _coroutine()
    try:
        assert _carries_awaitables(coroutine)
        assert _carries_awaitables([1, coroutine])
        assert _carries_awaitables(ListSubclass([coroutine]))
        assert not _carries_awaitables((coroutine,))  # only lists are packs
        assert not _carries_awaitables({"k": coroutine})
        assert not _carries_awaitables([[coroutine]])  # one level deep
    finally:
        coroutine.close()
    assert _carries_awaitables(AwaitableList())
    assert not _carries_awaitables([])
    assert not _carries_awaitables([1, "a", None, (2,), [3]])
    assert not _carries_awaitables(ListSubclass([1]))
