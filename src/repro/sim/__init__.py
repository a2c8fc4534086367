"""Deterministic discrete-event simulation kernel.

Thread-backed simulated processes (plain code, no coroutines), virtual
time, FIFO synchronisation primitives, delayed-delivery channels, and a
processor-sharing CPU model with hyper-threading — the substrate standing
in for the paper's 7-node Xeon cluster.
"""

from repro.sim.channel import Channel, Message
from repro.sim.kernel import SimProcess, Simulator, current_process, current_simulator
from repro.sim.resources import ProcessorSharingCPU, total_rate
from repro.sim.sync import SimEvent, SimLock, SimQueue

__all__ = [
    "Simulator",
    "SimProcess",
    "current_process",
    "current_simulator",
    "SimEvent",
    "SimLock",
    "SimQueue",
    "Channel",
    "Message",
    "ProcessorSharingCPU",
    "total_rate",
]
