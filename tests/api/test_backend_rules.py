"""The backend pairing rules as one case table.

Every backend — by registry name, and an instance of each real one —
meets each knob that moves servants onto simulated nodes (``cluster=``,
``placement=``, a middleware) and a ``oneway`` declaration with
``middleware="none"``.  One rule decides every row: a backend that hosts
its servants itself (``servant_host`` set: worker processes, an event
loop) takes none of those knobs and drops a oneway reply on its own;
any other backend needs a middleware, on a cluster, for both.
"""

from __future__ import annotations

import pytest

from repro.api import ParallelApp, StackSpec
from repro.api.registry import UnknownNameError
from repro.errors import DeploymentError
from repro.runtime import AsyncioBackend, ProcessBackend, ThreadBackend

ACCEPTED = None

BACKENDS = ["thread", "sim", "process", "asyncio", ThreadBackend(), ProcessBackend(), AsyncioBackend()]
#: the backends above whose servant_host is set
HOSTING = {"process", "asyncio"}

#: case -> (spec fields, expected without a servant host, expected with one)
CASES = {
    "cluster": (dict(cluster=object()), ACCEPTED, "takes no .* cluster=<object"),
    "placement": (dict(placement=object()), ACCEPTED, "takes no .* placement=<object"),
    "middleware": (dict(middleware="rmi"), "needs a cluster", "takes no .* middleware='rmi'"),
    "oneway": (dict(oneway=("put",)), "oneway methods need a distribution middleware", ACCEPTED),
}


class Store:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)

    def size(self):
        return len(self.items)


def _spec(backend, **fields):
    return StackSpec(target=Store, work="put", strategy="none", backend=backend, **fields)


def _name(backend) -> str:
    return backend if isinstance(backend, str) else backend.name


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize(
    "backend", BACKENDS, ids=lambda b: b if isinstance(b, str) else f"{type(b).__name__}()"
)
def test_backend_rules(backend, case):
    fields, plain, hosting = CASES[case]
    expected = hosting if _name(backend) in HOSTING else plain
    spec = _spec(backend, **fields)
    if expected is ACCEPTED:
        assert spec.validate() is spec
    else:
        with pytest.raises(DeploymentError, match=expected):
            spec.validate()


def test_process_is_a_backend_not_a_middleware():
    with pytest.raises(UnknownNameError):
        _spec(None, middleware="process").validate()


def test_oneway_on_the_process_backend_deploys():
    """The worker process is the transport: a oneway submit resolves to
    ``None`` once sent, and the servant still sees the call."""
    with ParallelApp(_spec("process", oneway=("put",))) as app:
        app.start()
        assert app.submit(1, oneway=True).result(timeout=10) is None
        assert app.middleware.oneway_calls == 1
        ref = app.distribution.ref_of(app.instance)
        assert app.middleware.invoke(ref, "size") == 1  # served in order
