"""Communication-request workloads.

The paper's motivation is that "most real-world communication patterns are
skewed"; the generators here cover the spectrum the evaluation (experiments
E3, E8, E9) sweeps:

* ``uniform`` — independent uniform pairs (no skew; the case static skip
  graphs are optimised for),
* ``hot-pairs`` — a few fixed pairs dominate the traffic,
* ``zipf`` — endpoints drawn from a Zipf distribution over a *random
  permutation* of the keys (popularity skew uncorrelated with key order),
* ``temporal`` — a sliding working set: requests are drawn from a small
  active group that drifts over time (temporal locality),
* ``community`` — nodes are partitioned into communities and traffic is
  intra-community with high probability (spatial locality in the
  communication graph, the paper's VM-migration motivation),
* ``repeated-pair`` — a single pair repeated (the best case for any
  self-adjusting design, worst case relative advantage for static),
* ``adversarial-static`` — pairs chosen to be far apart in the *static*
  topology (max-distance pairs), showing the gap between worst-case static
  routing and self-adjusted routing,
* ``zipf-drift`` — Zipf skew whose popularity ranking drifts over time
  (trending content / migrating hotspots),
* ``flash-crowd`` — background traffic punctuated by phases in which a
  crowd of nodes hammers a single hotspot.

Every generator is deterministic given its seed and returns a list of
``(source, destination)`` tuples.  :func:`generate_workload` is the single
entry point used by the experiments and the CLI.

:mod:`repro.workloads.scenarios` lifts workloads to churn-capable *event
schedules* (requests interleaved with node joins/leaves) executed against a
live DSG instance (or any baseline), request by request; see
:func:`churn_scenario`, :func:`scale_scenario` and :func:`run_scenario`.
Replaying a schedule on a live CONGEST simulator is the message-passing
layer's job (:func:`repro.distributed.bridge.replay_scenario`); nothing
here imports it.
"""

from repro.workloads.sequences import (
    WORKLOADS,
    adversarial_for_static,
    community_traffic,
    flash_crowd,
    generate_workload,
    hot_pairs,
    repeated_pair,
    temporal_locality,
    uniform_pairs,
    zipf_pairs,
    zipf_with_drift,
)
from repro.workloads.scenarios import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    ScenarioReport,
    churn_scenario,
    failure_scenario,
    run_scenario,
    scale_scenario,
    scenario_requests,
    workload_scenario,
)
from repro.workloads.paper_examples import (
    fig2_access_pattern,
    fig3_communication_graph,
    fig4_membership_s8,
    fig4_setup,
)
from repro.workloads.traces import load_trace, save_trace

__all__ = [
    "CrashEvent",
    "JoinEvent",
    "LeaveEvent",
    "RecoveryEvent",
    "RequestEvent",
    "Scenario",
    "ScenarioReport",
    "WORKLOADS",
    "adversarial_for_static",
    "churn_scenario",
    "failure_scenario",
    "community_traffic",
    "fig2_access_pattern",
    "fig3_communication_graph",
    "fig4_membership_s8",
    "fig4_setup",
    "flash_crowd",
    "generate_workload",
    "hot_pairs",
    "load_trace",
    "repeated_pair",
    "run_scenario",
    "save_trace",
    "scale_scenario",
    "scenario_requests",
    "temporal_locality",
    "workload_scenario",
    "uniform_pairs",
    "zipf_pairs",
    "zipf_with_drift",
]
