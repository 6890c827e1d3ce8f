"""Sequential two-phase DSG driver (test oracle).

The paper's model (Section III) serves one request at a time: route to
quiescence, then transform to quiescence.  Until PR 16 that loop shipped in
``src/`` beside the pipelined one; it now lives here as the executable
specification the single shipped loop
(:meth:`repro.distributed.DistributedDSG._serve`) is held to.

:class:`SequentialReferenceDSG` subclasses the shipped driver and replaces
its serve loop — no production parameter, hook or branch exists for its
sake.  What it shares with the shipped driver is the part that is not a
*loop*: the processes, the structural op bridge (``_apply_ops``), the crash
entry points and the report.  What it owns is everything the differential
suite (``tests/distributed/test_pipeline.py``, ``-m pipeline``) is meant to
catch a regression in: the order events are served in, when each phase
starts and ends (``Simulator.run()`` to quiescence, never ``step()``), how
completions are read, and the whole mid-request fault path — abandon or
re-anchor, refund, reseat — written out independently below.

On any schedule the shipped driver at ``window=1`` must equal this one on
topology, per-request ``(source, destination, measured_distance,
ops_executed, rounds)``, total Equation-1 cost, rounds and messages; deeper
windows on everything but rounds.
"""

from __future__ import annotations

from repro.core.local_ops import op_anchor, op_to_payload, stale_op_keys
from repro.distributed import DistributedDSG, DistributedRequestOutcome
from repro.simulation.errors import SimulationError
from repro.workloads.scenarios import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
)

__all__ = ["SequentialReferenceDSG"]


class SequentialReferenceDSG(DistributedDSG):
    """One event at a time, each phase run to quiescence with ``sim.run()``."""

    def __init__(self, keys, config=None, seed=None, max_rounds=200_000, strict=False):
        super().__init__(keys, config=config, seed=seed, max_rounds=max_rounds, strict=strict)
        self._next_rid = 0

    def _serve(self, events) -> None:
        for event in events:
            # Every event enters over a repaired overlay: the planner must
            # plan against the topology the messages will see.
            self.repair_dark()
            if isinstance(event, RequestEvent):
                self._request(event.source, event.destination)
            elif isinstance(event, JoinEvent):
                if event.key in self.sim.crashed:
                    raise SimulationError(f"key {event.key!r} crashed and cannot re-join")
                self.planner.add_node(event.key)
                self._apply_ops(self.planner.last_churn_ops)
                self.joins += 1
            elif isinstance(event, LeaveEvent):
                self.planner.remove_node(event.key)
                self._apply_ops(self.planner.last_churn_ops)
                self.leaves += 1
            elif isinstance(event, CrashEvent):
                self.crash(event.key)
            elif isinstance(event, RecoveryEvent):
                self.recover(event.key)
            else:
                raise TypeError(f"unknown scenario event {event!r}")

    def _request(self, source, destination) -> None:
        plan = self.planner.request(source, destination, keep_result=False)
        first_round = self.sim.round
        rid = self._next_rid
        self._next_rid += 1

        # Phase A: the route message crosses the pre-request topology S_t.
        initiator = self.processes[source]
        self.sim.schedule(self.sim.round, lambda sim: initiator.initiate_route(destination, rid))
        self.sim.run()
        hops = self._route_done.pop(rid, None)
        if hops is None:
            raise SimulationError(
                f"route ({source!r}, {destination!r}) never reached its destination"
            )
        measured = hops - 1

        # The vulnerability window: the plan exists, nothing executed yet.
        hook, self.mid_request_fault = self.mid_request_fault, None
        if hook is not None:
            hook()

        ops = list(plan.ops or [])
        transformation_rounds = plan.transformation_rounds
        needs_reseat = False
        if self.dark_keys:
            dark = frozenset(self.dark_keys)
            if not ops:
                self.repair_dark()
            else:
                self._repair_dark_structural()
                needs_reseat = True
                if stale_op_keys(ops, dark) or source in dark:
                    ops = []
                    transformation_rounds = 0
                    self.abandoned_plans += 1
                    self._planner_cost_base -= plan.transformation_rounds
                else:
                    self.reanchored_plans += 1

        # Phase B: disseminate the (possibly re-anchored) plan, then rewire.
        if ops:
            payloads = []
            for op in ops:
                anchor = op_anchor(op, self.topology)
                payloads.append((anchor, {"to": anchor, "rid": rid, **op_to_payload(op)}))
            self.sim.schedule(self.sim.round, lambda sim: initiator.initiate_ops(payloads))
            self.sim.run()
            executed = self._ops_done.pop(rid, 0)
            if executed != len(ops):
                raise SimulationError(
                    f"op dissemination lost work: {executed}/{len(ops)} ops executed"
                )
            self._apply_ops(ops)
        if needs_reseat:
            self._reseat_planner()

        outcome = DistributedRequestOutcome(
            source=source,
            destination=destination,
            alpha=plan.alpha,
            measured_distance=measured,
            planned_distance=plan.routing.distance,
            transformation_rounds=transformation_rounds,
            ops_executed=len(ops),
            rounds=self.sim.round - first_round,
        )
        self.outcomes.append(outcome)
        self.total_cost += outcome.cost
        self.total_routing += measured
