"""Batched middleware requests: one message per pack, served through the
servant's MethodTable batch plan."""

from __future__ import annotations

import pytest

from repro.aop import Aspect, BatchJoinPoint, around, deploy, weave
from repro.cluster import paper_testbed
from repro.errors import MiddlewareError, RemoteError
from repro.middleware import MppMiddleware, RmiMiddleware, use_node
from repro.sim import Simulator


class Calc:
    def __init__(self):
        self.calls = 0

    def add(self, a, b=0):
        self.calls += 1
        return a + b

    def boom(self, x):
        raise ValueError(f"bad:{x}")


PIECES = [((1,), {}), ((2,), {"b": 5}), ((3,), {})]
EXPECTED = [1, 7, 3]


def run_main(sim, fn):
    out = {}

    def main():
        out["result"] = fn()

    sim.spawn(main, name="main")
    sim.run()
    return out["result"]


class TestSimBatched:
    def test_rmi_batch_is_one_message_pair(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)
        servant = Calc()

        def client():
            ref = rmi.export(servant, cluster.node(1))
            before = cluster.network.remote_messages
            with use_node(cluster.head):
                result = rmi.invoke_batch(ref, "add", PIECES)
            messages = cluster.network.remote_messages - before
            rmi.shutdown()
            return result, messages

        result, messages = run_main(sim, client)
        assert result == EXPECTED
        assert servant.calls == 3
        # request + reply: the pack crossed the wire exactly once each way
        assert messages == 2
        assert rmi.batched_calls == 1

    def test_rmi_batch_error_wrapped(self):
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export(Calc(), cluster.node(1))
            with use_node(cluster.head):
                try:
                    rmi.invoke_batch(ref, "boom", [((7,), {})])
                except RemoteError as exc:
                    return str(exc)
                finally:
                    rmi.shutdown()
            return None

        message = run_main(sim, client)
        assert message is not None and "bad:7" in message

    def test_batch_runs_servant_advice_once_per_pack(self):
        weave(Calc)
        seen = []

        class Observe(Aspect):
            @around("call(Calc.add(..))")
            def observe(self, jp):
                seen.append(
                    jp.item_count if isinstance(jp, BatchJoinPoint) else 1
                )
                return jp.proceed()

        deploy(Observe())
        sim = Simulator()
        cluster = paper_testbed(sim)
        rmi = RmiMiddleware(cluster)

        def client():
            ref = rmi.export(Calc(), cluster.node(1))
            with use_node(cluster.head):
                result = rmi.invoke_batch(ref, "add", PIECES)
            rmi.shutdown()
            return result

        assert run_main(sim, client) == EXPECTED
        assert seen == [3]


CALLS = {
    "invoke": lambda mw, ref: mw.invoke(ref, "add", (1,)),
    "invoke_batch": lambda mw, ref: mw.invoke_batch(ref, "add", PIECES),
    "oneway": lambda mw, ref: mw.invoke(ref, "add", (1,), oneway=True),
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("middleware", [RmiMiddleware, MppMiddleware], ids=["rmi", "mpp"])
def test_a_call_after_shutdown_raises(middleware, call):
    """Shutdown forgets the servants: a later call is refused at once,
    neither sent into a stopped accept loop (a wait that never ends) nor
    dropped silently (a oneway send)."""
    sim = Simulator()
    cluster = paper_testbed(sim)
    mw = middleware(cluster)

    def client():
        ref = mw.export(Calc(), cluster.node(1))
        with use_node(cluster.head):
            assert mw.invoke(ref, "add", (2,), {"b": 3}) == 5
            mw.shutdown()
            with pytest.raises(MiddlewareError):
                CALLS[call](mw, ref)
        return True

    assert run_main(sim, client)
