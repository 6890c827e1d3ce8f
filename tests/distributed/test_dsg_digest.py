"""The distributed DSG driver's observable output, pinned as SHA-256 digests.

:class:`repro.distributed.DistributedDSG` is held to the sequential
reference driver by ``test_pipeline.py`` on topology, costs and messages,
but at ``window > 1`` its round-level timing has no second implementation
to agree with.  This test runs the driver over fixed seeded schedules and
hashes everything a caller can observe: every request outcome, the
admission trace (admit / complete / apply rounds and window occupancy),
the engine's traffic counters, the pipeline's ``conflict_stalls`` and
``max_in_flight``, the failure bookkeeping and the final live links
(``network.rows``).

* **churn** — a request / join / leave mix, at windows 1 and 16;
* **faults** — a dark crash settled by the next event, crash and recovery
  events inside the schedule and a ``mid_request_fault`` crash landing
  between a request's route and its dissemination, at windows 1 and 4.

A change to the driver or to the round engine under it must reproduce the
pins bit for bit.  Everything hashed is ``repr`` of ints, strings and
sorted tuples of them, so the digests do not depend on the Python version
or on hash seeds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.dsg import DSGConfig
from repro.distributed import DistributedDSG
from repro.workloads import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    churn_scenario,
)

pytestmark = pytest.mark.pipeline

#: Final digest per (schedule, window), recorded before the driver stopped
#: handing work to its processes through scheduled engine callbacks.
PINNED = {
    ("churn", 1): "a1d8d9b9970dc9fb42d747dddfb70c6b7577ecdea9caa8d6db0445d34dc838d1",
    ("churn", 16): "5df8941a0201d6db678b7fdebf943eb2bbaad81c0119c0c6edfe5f66debf0fc0",
    ("faults", 1): "77b7f2833664d5178969578dfc6d3f38c0dcc4006a911b6d768de2297ff9e34a",
    ("faults", 4): "5d9dd51bf82c2230874103fb5a9f96ad130b5dc82d24b47be2ebacd16134244f",
}

#: Report fields hashed besides the outcomes and the admission trace.
COUNTERS = ("requests", "joins", "leaves", "crashes", "recoveries", "total_cost",
            "planner_total_cost", "rounds", "messages", "total_bits", "max_message_bits",
            "congestion_violations", "dropped_messages", "abandoned_plans",
            "reanchored_plans", "admitted", "conflict_stalls", "max_in_flight")


def _driver(keys, seed, window):
    return DistributedDSG(keys, config=DSGConfig(seed=seed), seed=seed, strict=True, window=window)


def _churn(window):
    for seed, base, n, length in ((21, "temporal", 64, 60), (8, "hot-pairs", 48, 80)):
        scenario = churn_scenario(n=n, length=length, seed=seed, churn_rate=0.1, base=base)
        driver = _driver(scenario.initial_keys, seed, window)
        yield driver, driver.run_scenario(scenario)


def _faults(window):
    keys = list(range(1, 41))
    driver = _driver(keys, 9, window)
    driver.crash_dark(16)
    events = [
        JoinEvent(100),
        RequestEvent(3, 30),
        RequestEvent(5, 28),
        RequestEvent(100, 2),
        CrashEvent(21),
        RequestEvent(7, 35),
        LeaveEvent(9),
        RequestEvent(3, 30),
        RecoveryEvent(21),
        RequestEvent(21, 38),
        RequestEvent(4, 21),
        RequestEvent(11, 33),
    ]
    yield driver, driver.run_scenario(Scenario(name="faults", initial_keys=keys, events=events))
    for victim in (25, 3):
        # A bystander dies mid-request (the plan is re-anchored), then the
        # disseminating source itself (the plan is abandoned).
        driver.mid_request_fault = lambda victim=victim: driver.crash_dark(victim)
        pairs = [(12, 36), (5, 28), (14, 31)]
        events = [RequestEvent(3, 30)] + [RequestEvent(u, v) for u, v in pairs if victim not in (u, v)]
        scenario = Scenario(name="mid-request", initial_keys=keys, events=events)
        yield driver, driver.run_scenario(scenario)


SCHEDULES = {"churn": _churn, "faults": _faults}


def _records(driver, report):
    for outcome in report.outcomes:
        yield ("outcome", outcome.source, outcome.destination, outcome.alpha,
               outcome.measured_distance, outcome.planned_distance,
               outcome.transformation_rounds, outcome.ops_executed, outcome.rounds)
    for record in report.admission_trace:
        yield ("admission", tuple(record))
    yield ("counters", tuple(getattr(report, name) for name in COUNTERS))
    rows = driver.sim.network.rows
    for node in sorted(rows):
        row = rows[node]
        yield ("row", node, tuple((neighbour, tuple(sorted(row[neighbour]))) for neighbour in sorted(row)))


def digest(name: str, window: int) -> str:
    hasher = hashlib.sha256()
    for driver, report in SCHEDULES[name](window):
        for record in _records(driver, report):
            hasher.update(repr(record).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("name, window", sorted(PINNED))
def test_driver_output_matches_the_pinned_digest(name, window):
    assert digest(name, window) == PINNED[name, window]


if __name__ == "__main__":  # re-record: python tests/distributed/test_dsg_digest.py
    for name, window in sorted(PINNED):
        print(f'    ("{name}", {window}): "{digest(name, window)}",')
