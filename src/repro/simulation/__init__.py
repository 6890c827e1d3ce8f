"""Synchronous CONGEST-model simulation substrate.

The paper (Section III, "Self-Adjusting model for Skip Graphs") assumes a
synchronous computation model in which communication occurs in rounds, and a
node can send and receive at most one message per link per round, with each
message limited to ``O(log n)`` bits (the CONGEST model).  This subpackage
provides that substrate: a round-based, message-passing discrete simulator
with explicit accounting of rounds, message sizes (in bits), per-link
congestion and churn-induced message drops (a separate counter, so
conformance checks survive churn), so that the distributed protocols in
:mod:`repro.distributed` can be executed and checked against the model's
constraints.  The engine is churn-first: processes join (``on_start`` at
their first round) and retire mid-run, scheduled callbacks rewire the
network between rounds, and the per-round cost follows the *active set*
(not-done processes plus delivery receivers) rather than the population.

Failures are first-class alongside churn: ``Simulator.crash`` kills a node
crash-stop (links dark, in-flight messages counted as drops, no
``on_retire`` goodbye, no re-entry), and protocol-level request failures
reported through ``RoundContext.report_failure`` are counted separately
from per-message drops (``failed_requests`` vs ``dropped_messages``).

Public classes
--------------
``Simulator``
    The synchronous round engine.
``NodeProcess``
    Base class for per-node protocol logic.
``Message``
    An addressed message with bit-size accounting.
``RoundContext``
    The per-round API handed to each process (send, timers, RNG).
``MetricsCollector``
    Rounds / messages / bits / congestion bookkeeping.
"""

from repro.simulation.errors import (
    CongestionError,
    LinkError,
    SimulationError,
)
from repro.simulation.message import Message, payload_size_bits
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import Network
from repro.simulation.node_process import NodeProcess, RoundContext
from repro.simulation.engine import Simulator, SimulatorConfig
from repro.simulation.rng import make_rng, spawn_rng

__all__ = [
    "CongestionError",
    "LinkError",
    "Message",
    "MetricsCollector",
    "Network",
    "NodeProcess",
    "RoundContext",
    "SimulationError",
    "Simulator",
    "SimulatorConfig",
    "make_rng",
    "payload_size_bits",
    "spawn_rng",
]
