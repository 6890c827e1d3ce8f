"""Message-level protocol implementations on the CONGEST simulator.

The structural DSG engine (:mod:`repro.core`) charges round costs using
closed-form accounting.  The protocols here execute the primitives that
dominate those costs as genuine message-passing programs on
:class:`repro.simulation.Simulator`, which serves two purposes:

* **CONGEST conformance** (experiment E11): every message the protocols send
  is measured in bits and checked against ``O(log n)``, and the per-link
  per-round constraint is enforced by the simulator;
* **calibration**: the rounds the protocols take are compared against the
  rounds the structural engine charges for the same primitive (routing,
  broadcast, aggregation, AMF), so the cost model used in the experiments is
  anchored to an executable artefact.

Protocols
---------
``run_routing_protocol``
    Standard skip graph routing, one greedy hop per round (Appendix B).
``run_list_broadcast``
    Broadcast along one linked list (the transformation notification).
``run_sum_protocol``
    Convergecast + broadcast over the balanced skip list (Appendix D).
``run_amf_protocol``
    The gather-sample-decide pipeline of AMF (Algorithm 2).
``run_distributed_dsg`` / ``DistributedDSG``
    The full self-adjusting DSG: greedy routing plus the local-op plans of
    the kernel executed as O(log n)-bit messages, churn and crashes
    included (:mod:`repro.distributed.dsg_protocol`).  One driver, one
    serve loop: ``window=1`` (the default) is the paper's one-request-at-a-
    time model; a deeper window keeps up to ``window`` requests in flight,
    admitted FIFO when their read/write conflict sets
    (:mod:`repro.distributed.pipeline`) are disjoint.  ``PipelinedDSG`` is
    the same class under its former name.

Each ``run_*`` entry point builds a fresh network and simulator and
returns the protocol's outcome (a path, the members reached, a total, a
median) with the run's ``metrics``: the engine's
:class:`~repro.simulation.MetricsCollector`, whose counters (``rounds``,
``messages``, ``total_bits``, ...) carry the same names in its
``summary()`` and ``window()`` dicts.  The matching ``install_*`` function
registers a new process generation on an *existing* engine instead
(retire the previous one first), which is how the churn arena
(``benchmarks/bench_e11_congest.py``) restarts protocols across membership
changes replayed by :func:`repro.distributed.bridge.replay_scenario` — and
how the lifecycle property tests show a post-churn rerun on a reused
engine reproduces a fresh simulator.  An ``install_*`` call checks its
input before it registers any process.

The aggregation protocols communicate over the balanced skip list's
*segment* links (each node talks to the promoted node owning its segment).
In a real deployment those exchanges are relayed over at most ``2a``
consecutive level links; the relay cost is part of the structural
accounting, while the message-level version uses a direct logical link per
segment for clarity.  This simplification is row 8 of docs/DEVIATIONS.md.
"""

from repro.distributed.routing_protocol import (
    NeighborTable,
    RoutingProtocolResult,
    apply_network_delta,
    install_routing,
    make_router,
    networks_equal,
    patch_network,
    rejoin_crash_links,
    repair_crash_links,
    RouteLedger,
    run_routing_protocol,
    skip_graph_network,
    trace_route,
)
from repro.distributed.bridge import (
    ScenarioReplay,
    apply_crash,
    apply_join,
    apply_local_op,
    apply_recovery,
    repair_crashes,
    replay_scenario,
)
from repro.distributed.failover import (
    FailureArenaReport,
    FailureWaveReport,
    Wave,
    run_failure_arena,
    segment_waves,
)
from repro.distributed.dsg_protocol import (
    DistributedDSG,
    DistributedDSGReport,
    DistributedRequestOutcome,
    DSGProcess,
    PipelinedDSG,
    run_distributed_dsg,
)
from repro.distributed.pipeline import AdmissionRecord, ConflictSet, PipelineWindow
from repro.distributed.broadcast_protocol import BroadcastResult, install_broadcast, run_list_broadcast
from repro.distributed.sum_protocol import (
    SumProtocolResult,
    install_sum,
    run_sum_protocol,
    segment_network,
)
from repro.distributed.amf_protocol import AMFProtocolResult, install_amf, run_amf_protocol

__all__ = [
    "AMFProtocolResult",
    "BroadcastResult",
    "ScenarioReplay",
    "apply_crash",
    "apply_join",
    "apply_local_op",
    "apply_network_delta",
    "apply_recovery",
    "repair_crashes",
    "replay_scenario",
    "networks_equal",
    "patch_network",
    "rejoin_crash_links",
    "repair_crash_links",
    "RouteLedger",
    "Wave",
    "DSGProcess",
    "DistributedDSG",
    "DistributedDSGReport",
    "DistributedRequestOutcome",
    "AdmissionRecord",
    "ConflictSet",
    "PipelineWindow",
    "PipelinedDSG",
    "FailureArenaReport",
    "FailureWaveReport",
    "NeighborTable",
    "RoutingProtocolResult",
    "SumProtocolResult",
    "install_amf",
    "install_broadcast",
    "install_routing",
    "install_sum",
    "make_router",
    "run_amf_protocol",
    "run_distributed_dsg",
    "run_failure_arena",
    "run_list_broadcast",
    "run_routing_protocol",
    "run_sum_protocol",
    "segment_network",
    "segment_waves",
    "skip_graph_network",
    "trace_route",
]
