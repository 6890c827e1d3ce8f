"""Crash-stop fault-injection lifecycle tests for the engine (PR 6).

:meth:`~repro.simulation.Simulator.crash` is the failure half of the
churn API; these tests pin the semantics that distinguish it from a
graceful :meth:`~repro.simulation.Simulator.retire`:

* a crash mid-route turns the in-flight message into a counted
  ``dropped_messages`` entry — never a :class:`LinkError`, even in
  strict mode;
* crashed nodes are permanently banned from re-entry, and a crash is
  exactly-once;
* the ``on_retire`` goodbye fires for graceful departures only — in
  particular the auto-retire sweep for nodes that left the network can
  never fire it for a crashed node (the regression pinned here);
* protocol-level failures reported through
  :meth:`RoundContext.report_failure` land in ``failed_requests``,
  separate from ``dropped_messages``;
* a fresh protocol generation installed on a quiesced engine *after*
  crashes reproduces a fresh simulator's counters (the rerun's own, from
  ``Simulator.reset_metrics``), so failure experiments can reuse arenas.
"""

from typing import List

import pytest

from repro.simulation import (
    Message,
    Network,
    NodeProcess,
    RoundContext,
    Simulator,
    SimulatorConfig,
)
from repro.simulation.errors import SimulationError

pytestmark = [pytest.mark.failure, pytest.mark.engine]


def line_network(n: int) -> Network:
    net = Network()
    for i in range(n - 1):
        net.add_link(i, i + 1, label="line")
    return net


class TokenForwarder(NodeProcess):
    """Forwards a token to the right neighbour; the last node keeps it."""

    def __init__(self, node_id, n, start=False):
        super().__init__(node_id)
        self.n = n
        self.start = start
        self.token = None
        self.goodbyes = 0
        if not start:
            self.done = True

    def on_start(self, ctx: RoundContext) -> None:
        if self.start:
            ctx.send(self.node_id + 1, "token", payload=self.node_id)
            self.done = True

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        for msg in inbox:
            if msg.kind != "token":
                continue
            if self.node_id == self.n - 1:
                self.token = msg.payload
                self.done = True
            else:
                ctx.send(self.node_id + 1, "token", payload=msg.payload)
                self.done = True

    def on_retire(self) -> None:
        self.goodbyes += 1


class TestCrashSemantics:
    def test_crash_mid_route_is_a_counted_drop_not_a_link_error(self):
        """The token is in flight towards node 2 when node 2 crashes: the
        message drops and is recorded; strict mode never raises (the send
        was legal when it happened)."""
        n = 4
        sim = Simulator(line_network(n), SimulatorConfig(seed=1, strict=True))
        procs = [TokenForwarder(i, n, start=(i == 0)) for i in range(n)]
        sim.add_processes(procs)
        # Round 0 delivers 0 -> 1; node 1 sends 1 -> 2; crash node 2 at the
        # top of round 1, while that message is in flight.
        sim.schedule(1, lambda s: s.crash(2))
        metrics = sim.run()
        assert metrics.dropped_messages == 1
        assert procs[n - 1].token is None  # token never arrived
        assert procs[2].goodbyes == 0  # crash-stop: no goodbye

    def test_crashed_node_cannot_reenter(self):
        n = 3
        sim = Simulator(line_network(n), SimulatorConfig(seed=1))
        sim.add_processes(TokenForwarder(i, n) for i in range(n))
        sim.crash(1)
        assert 1 in sim.crashed
        with pytest.raises(SimulationError, match="cannot re-enter"):
            sim.add_process(TokenForwarder(1, n))

    def test_crash_is_exactly_once(self):
        sim = Simulator(line_network(3), SimulatorConfig(seed=1))
        sim.crash(1)
        with pytest.raises(SimulationError, match="already crashed"):
            sim.crash(1)

    def test_crash_of_a_processless_node_darkens_its_links(self):
        net = line_network(3)
        sim = Simulator(net, SimulatorConfig(seed=1))
        assert sim.crash(1) is None  # no process existed; still a crash
        assert not net.has_node(1)
        assert 1 in sim.crashed


class TestGoodbyeOrdering:
    def test_retire_fires_goodbye_crash_does_not(self):
        n = 4
        sim = Simulator(line_network(n), SimulatorConfig(seed=1))
        procs = [TokenForwarder(i, n) for i in range(n)]
        sim.add_processes(procs)
        retired = sim.retire(1)
        crashed = sim.crash(2)
        assert retired.goodbyes == 1
        assert crashed.goodbyes == 0

    def test_auto_retire_never_fires_goodbye_for_a_crashed_node(self):
        """Regression: the auto-retire sweep runs after scheduled callbacks
        and retires processes whose node left the network — a node that
        left because it *crashed* must not be swept into the graceful path
        (crash pops the process before removing the node)."""
        n = 5
        sim = Simulator(line_network(n), SimulatorConfig(seed=1))
        procs = [TokenForwarder(i, n, start=(i == 0)) for i in range(n)]
        sim.add_processes(procs)

        def churn(s: Simulator) -> None:
            s.crash(3)  # crash-stop: no goodbye, ever
            s.network.remove_node(1)  # graceful departure via the sweep

        sim.schedule(1, churn)
        sim.run()
        assert procs[3].goodbyes == 0
        assert procs[1].goodbyes == 1
        assert 3 in sim.crashed and 1 not in sim.crashed

    def test_crash_before_initialization_round_cancels_the_start(self):
        n = 3
        sim = Simulator(line_network(n), SimulatorConfig(seed=1))
        sim.add_processes(TokenForwarder(i, n, start=(i == 0)) for i in range(n))
        sim.run()
        joiner = TokenForwarder(1, n)
        sim.retire(1)
        sim.add_process(joiner)  # queued for its initialization round
        sim.crash(1)
        sim.run()
        assert joiner.goodbyes == 0


class FailingProcess(NodeProcess):
    """Reports ``failures`` protocol-level request failures, then quiesces."""

    def __init__(self, node_id, failures=1):
        super().__init__(node_id)
        self.failures = failures

    def on_start(self, ctx: RoundContext) -> None:
        pass

    def on_round(self, ctx: RoundContext, inbox) -> None:
        ctx.report_failure(self.failures)
        self.done = True


class TestFailedRequestAccounting:
    def test_report_failure_counts_separately_from_drops(self):
        sim = Simulator(line_network(2), SimulatorConfig(seed=1))
        sim.add_process(FailingProcess(0, failures=2))
        sim.add_process(FailingProcess(1, failures=1))
        metrics = sim.run()
        assert metrics.failed_requests == 3
        assert metrics.dropped_messages == 0
        assert metrics.summary()["failed_requests"] == 3

    def test_failures_land_in_the_counters_of_their_run(self):
        sim = Simulator(line_network(2), SimulatorConfig(seed=1))
        sim.add_process(FailingProcess(0))
        sim.add_process(FailingProcess(1))
        sim.run()
        sim.retire_all()
        sim.add_process(FailingProcess(0, failures=3))
        first = sim.reset_metrics()
        second = sim.run()
        assert (first.failed_requests, second.failed_requests) == (2, 3)


class TestRerunAfterCrashes:
    def test_rerun_on_crashed_engine_matches_fresh_run(self):
        """After crashes (and their repairs, here: none needed on a line
        with edge nodes crashed), a fresh generation on the reused engine
        reproduces a fresh simulator's counters."""
        n = 6

        def install(sim, n, offset=0):
            sim.add_process(TokenForwarder(offset, n, start=True))
            for i in range(offset + 1, n):
                sim.add_process(TokenForwarder(i, n))

        # Reused engine: crash the head node after a full run, then rerun
        # the protocol over the surviving suffix 1..n-1.
        sim = Simulator(line_network(n), SimulatorConfig(seed=3))
        install(sim, n)
        sim.run()
        sim.retire_all()
        sim.crash(0)
        sim.reset_metrics()
        # Survivors re-run: same token protocol starting at node 1.
        sim.add_process(TokenForwarder(1, n, start=True))
        for i in range(2, n):
            sim.add_process(TokenForwarder(i, n))
        second = sim.run().summary()

        # Fresh engine over the surviving topology.
        fresh_net = line_network(n)
        fresh_net.remove_node(0)
        fresh = Simulator(fresh_net, SimulatorConfig(seed=3))
        fresh.add_process(TokenForwarder(1, n, start=True))
        for i in range(2, n):
            fresh.add_process(TokenForwarder(i, n))
        fresh_metrics = fresh.run()
        assert second == fresh_metrics.summary()
        assert sim.process(n - 1).token == fresh.process(n - 1).token == 1
