"""Unit and integration tests for the synchronous CONGEST engine."""

import random
import tracemalloc
from typing import List

import pytest

from repro.simulation import (
    CongestionError,
    LinkError,
    Message,
    Network,
    NodeProcess,
    RoundContext,
    Simulator,
    SimulatorConfig,
)
from repro.simulation.errors import SimulationError
from repro.simulation.rng import make_rng, spawn_rng

pytestmark = pytest.mark.engine


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
        if not start:
            self.done = True  # passive until a token arrives

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


class Chatterbox(NodeProcess):
    """Sends two messages over the same link in one round (CONGEST violation)."""

    def on_start(self, ctx: RoundContext) -> None:
        ctx.send(1, "a")
        ctx.send(1, "b")
        self.done = True

    def on_round(self, ctx, inbox):
        self.done = True


class Sink(NodeProcess):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received: List[Message] = []
        self.done = True

    def on_round(self, ctx, inbox):
        self.received.extend(inbox)
        self.done = True


class TestTokenPassing:
    def test_token_reaches_last_node_in_n_minus_1_rounds(self):
        n = 6
        net = line_network(n)
        sim = Simulator(net)
        sim.add_process(TokenForwarder(0, n, start=True))
        for i in range(1, n):
            sim.add_process(TokenForwarder(i, n))
        metrics = sim.run()
        assert sim.process(n - 1).token == 0
        # one hop per round: the token crosses n-1 links in n-1 rounds
        assert metrics.rounds == n - 1
        assert metrics.messages == n - 1

    def test_metrics_summary_keys(self):
        n = 3
        net = line_network(n)
        sim = Simulator(net)
        sim.add_process(TokenForwarder(0, n, start=True))
        for i in range(1, n):
            sim.add_process(TokenForwarder(i, n))
        summary = sim.run().summary()
        for key in ("rounds", "messages", "total_bits", "max_message_bits", "congestion_violations"):
            assert key in summary
        assert summary["congestion_violations"] == 0


class PingPong(NodeProcess):
    """Returns the ball to the other node of a two-node line until it has
    crossed the link ``hits`` times; node 0 serves."""

    def __init__(self, node_id, hits):
        super().__init__(node_id)
        self.hits = hits
        self.done = True

    def on_start(self, ctx: RoundContext) -> None:
        if self.node_id == 0:
            ctx.send(1, "ball", payload=1)

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        for msg in inbox:
            if msg.payload < self.hits:
                ctx.send(1 - self.node_id, "ball", payload=msg.payload + 1)


class TestBoundedState:
    def test_a_long_run_retains_no_per_round_state(self):
        """The engine keeps run totals, not a per-round log: a 20 000-round
        ping-pong leaves at most 64 KB allocated once it has quiesced."""
        sim = Simulator(line_network(2), SimulatorConfig(max_rounds=30_000))
        sim.add_processes(PingPong(node, 20_000) for node in range(2))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            metrics = sim.run()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert metrics.rounds == metrics.messages == sim.round == 20_000
        assert retained <= 64 * 1024, retained

    def test_departed_processes_leave_nothing_behind(self):
        """The engine holds live processes only: 20 000 join/retire cycles,
        each a fresh node, leave at most 64 KB allocated behind."""
        network = Network()
        sim = Simulator(network, SimulatorConfig(seed=5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for node in range(20_000):
                network.add_node(node)
                sim.add_process(Idle(node))
                sim.step()
                sim.retire(node)
                network.remove_node(node)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sim.round == 20_000 and not sim.processes
        assert retained <= 64 * 1024, retained

    def test_crashed_and_recovered_processes_leave_nothing_behind(self):
        """A crash keeps only the node's re-entry ban, and recovery lifts it:
        20 000 crash/recover cycles leave at most 64 KB allocated behind."""
        network = Network()
        sim = Simulator(network, SimulatorConfig(seed=5))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for node in range(20_000):
                network.add_node(node)
                sim.add_process(Idle(node))
                sim.step()
                sim.crash(node)
                sim.recover(node)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sim.round == 20_000 and not sim.processes and not sim.crashed
        assert retained <= 64 * 1024, retained


class TestCongestEnforcement:
    def test_strict_mode_raises_on_double_send(self):
        net = Network()
        net.add_link(0, 1)
        sim = Simulator(net, SimulatorConfig(strict=True))
        sim.add_process(Chatterbox(0))
        sim.add_process(Sink(1))
        with pytest.raises(CongestionError):
            sim.run()

    def test_lenient_mode_defers_and_counts(self):
        net = Network()
        net.add_link(0, 1)
        sim = Simulator(net, SimulatorConfig(strict=False))
        sim.add_process(Chatterbox(0))
        sink = Sink(1)
        sim.add_process(sink)
        metrics = sim.run()
        assert metrics.congestion_violations == 1
        assert len(sink.received) == 2  # second message arrives a round later

    def test_missing_link_strict_raises(self):
        net = Network()
        net.add_node(0)
        net.add_node(1)

        class Bad(NodeProcess):
            def on_start(self, ctx):
                ctx.send(1, "x")
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

        sim = Simulator(net, SimulatorConfig(strict=True))
        sim.add_process(Bad(0))
        sim.add_process(Sink(1))
        with pytest.raises(LinkError):
            sim.run()

    def test_missing_link_lenient_drops(self):
        net = Network()
        net.add_node(0)
        net.add_node(1)

        class Bad(NodeProcess):
            def on_start(self, ctx):
                ctx.send(1, "x")
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

        sim = Simulator(net, SimulatorConfig(strict=False))
        sim.add_process(Bad(0))
        sink = Sink(1)
        sim.add_process(sink)
        metrics = sim.run()
        # A missing-link drop is a *drop*, not a CONGEST violation: the two
        # counters are distinct so E11's zero-violation check stays valid.
        assert metrics.dropped_messages == 1
        assert metrics.congestion_violations == 0
        assert sink.received == []
        # A rerun's start-phase drop lands in the counters of that rerun.
        sim.retire_all()
        sim.add_processes([Bad(0), Sink(1)])
        sim.reset_metrics()
        assert sim.run().dropped_messages == 1


class TestEngineLifecycle:
    def test_duplicate_process_rejected(self):
        net = line_network(2)
        sim = Simulator(net)
        sim.add_process(Sink(0))
        with pytest.raises(SimulationError):
            sim.add_process(Sink(0))

    def test_process_for_unknown_node_rejected(self):
        net = line_network(2)
        sim = Simulator(net)
        with pytest.raises(LinkError):
            sim.add_process(Sink(99))

    def test_timeout_raises_by_default(self):
        net = line_network(2)

        class Restless(NodeProcess):
            def on_start(self, ctx):
                ctx.send(1 - self.node_id, "ping")

            def on_round(self, ctx, inbox):
                ctx.send(1 - self.node_id, "ping")

        sim = Simulator(net, SimulatorConfig(max_rounds=10))
        sim.add_process(Restless(0))
        sim.add_process(Restless(1))
        with pytest.raises(SimulationError):
            sim.run()

    def test_memory_reporting(self):
        net = line_network(2)

        class Reporter(NodeProcess):
            def on_start(self, ctx):
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

            def memory_words(self):
                return 7

        sim = Simulator(net)
        sim.add_process(Reporter(0))
        sim.add_process(Reporter(1))
        sim.step()
        assert sim.metrics.max_memory_words == 7

    def test_deterministic_rng_per_node(self):
        net = line_network(3)

        class Sampler(NodeProcess):
            def on_start(self, ctx):
                self.result = ctx.rng.random()
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

        values = []
        for _ in range(2):
            sim = Simulator(net, SimulatorConfig(seed=7))
            procs = [Sampler(i) for i in range(3)]
            sim.add_processes(procs)
            sim.run()
            values.append(tuple(p.result for p in procs))
        assert values[0] == values[1]
        assert len(set(values[0])) == 3  # distinct streams per node


class Idle(NodeProcess):
    """A process with nothing to do (passive from the start)."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.done = True

    def on_round(self, ctx, inbox):
        pass


class TestChurnLifecycle:
    """Process lifecycle under churn: join -> on_start, leave -> retire."""

    def test_join_mid_run_triggers_on_start(self):
        started = []

        class Joiner(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.done = True

            def on_start(self, ctx):
                started.append((self.node_id, ctx.round))

            def on_round(self, ctx, inbox):
                pass

        net = Network()
        net.add_node("a")
        sim = Simulator(net, SimulatorConfig(max_rounds=50))
        sim.add_process(Joiner("a"))

        def join(s):
            s.network.add_node("b")
            s.network.add_link("a", "b")
            s.add_process(Joiner("b"))

        sim.schedule(3, join)
        sim.run()
        # "a" started before round 0; "b" was initialized in its join round.
        assert started == [("a", 0), ("b", 3)]

    def test_joiner_on_start_sends_are_delivered_next_round(self):
        class Greeter(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.done = True

            def on_start(self, ctx):
                ctx.send("a", "hello")

            def on_round(self, ctx, inbox):
                pass

        net = Network()
        net.add_node("a")
        sink = Sink("a")
        sim = Simulator(net, SimulatorConfig(max_rounds=50))
        sim.add_process(sink)

        def join(s):
            s.network.add_node("b")
            s.network.add_link("a", "b")
            s.add_process(Greeter("b"))

        sim.schedule(2, join)
        sim.run()
        assert [m.kind for m in sink.received] == ["hello"]
        assert sim.metrics.dropped_messages == 0

    def test_leave_mid_run_still_quiesces(self):
        class Waiter(NodeProcess):
            """Never done: would block quiescence forever if not retired."""

            said_goodbye = False

            def on_retire(self):
                self.said_goodbye = True

            def on_round(self, ctx, inbox):
                pass

        net = Network()
        net.add_link("a", "b")
        sim = Simulator(net, SimulatorConfig(max_rounds=50))
        sim.add_process(Idle("a"))
        waiter = Waiter("b")
        sim.add_process(waiter)
        sim.schedule(2, lambda s: s.network.remove_node("b"))
        sim.run()  # must terminate: the orphaned process is retired
        assert "b" not in sim.processes
        assert waiter.said_goodbye

    def test_explicit_retire_allows_rejoin(self):
        net = Network()
        net.add_node("a")
        sim = Simulator(net, SimulatorConfig(max_rounds=10))
        first = Idle("a")
        sim.add_process(first)
        sim.run()
        assert sim.retire("a") is first
        second = Idle("a")
        sim.add_process(second)
        sim.run()
        assert sim.process("a") is second
        with pytest.raises(SimulationError):
            sim.retire("missing")

    def test_in_flight_link_removal_drops_instead_of_raising(self):
        """A legally-sent message whose link churns away is a recorded drop
        (never a LinkError), even under strict links."""

        class Sender(NodeProcess):
            def on_start(self, ctx):
                ctx.send(1, "x")
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

        net = Network()
        net.add_link(0, 1)
        sim = Simulator(net, SimulatorConfig(strict=True, max_rounds=10))
        sim.add_process(Sender(0))
        sink = Sink(1)
        sim.add_process(sink)
        sim.schedule(0, lambda s: s.network.remove_link(0, 1))
        metrics = sim.run()
        assert sink.received == []
        assert metrics.dropped_messages == 1
        assert metrics.congestion_violations == 0

    def test_drop_and_congestion_counters_are_distinct(self):
        net = Network()
        net.add_link(0, 1)
        net.add_node(2)

        class Both(NodeProcess):
            def on_start(self, ctx):
                ctx.send(1, "a")
                ctx.send(1, "b")  # CONGEST violation (second on the link)
                ctx.send(2, "c")  # drop (no link)
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

        sim = Simulator(net, SimulatorConfig(strict=False))
        sim.add_process(Both(0))
        sim.add_process(Sink(1))
        sim.add_process(Sink(2))
        metrics = sim.run()
        assert metrics.congestion_violations == 1
        assert metrics.dropped_messages == 1
        summary = metrics.summary()
        assert summary["congestion_violations"] == 1
        assert summary["dropped_messages"] == 1

    def test_deferred_messages_drain_fifo_under_sustained_congestion(self):
        """Lenient congestion overflow is a FIFO queue: the backlog drains in
        send order even while the sender keeps over-sending."""

        class Burst(NodeProcess):
            def __init__(self, node_id, bursts):
                super().__init__(node_id)
                self.bursts = bursts
                self.sent = 0

            def _burst(self, ctx):
                if self.bursts:
                    for _ in range(2):  # two per round on one link
                        ctx.send(1, "seq", payload=self.sent)
                        self.sent += 1
                    self.bursts -= 1
                self.done = not self.bursts

            def on_start(self, ctx):
                self._burst(ctx)

            def on_round(self, ctx, inbox):
                self._burst(ctx)

        net = Network()
        net.add_link(0, 1)
        sim = Simulator(net, SimulatorConfig(strict=False, max_rounds=50))
        sim.add_process(Burst(0, bursts=4))
        sink = Sink(1)
        sim.add_process(sink)
        metrics = sim.run()
        payloads = [m.payload for m in sink.received]
        assert payloads == list(range(8))  # FIFO: exactly send order
        assert metrics.congestion_violations > 0
        assert metrics.dropped_messages == 0

    def test_message_to_process_less_node_is_a_drop(self):
        net = Network()
        net.add_link(0, 1)

        class Sender(NodeProcess):
            def on_start(self, ctx):
                ctx.send(1, "x")
                self.done = True

            def on_round(self, ctx, inbox):
                self.done = True

        sim = Simulator(net, SimulatorConfig(max_rounds=10))
        sim.add_process(Sender(0))  # node 1 exists but runs no process
        metrics = sim.run()
        assert metrics.dropped_messages == 1

    def test_join_retire_rejoin_in_one_round_starts_once(self):
        """A node that joins, retires, and re-joins before its initialization
        round must not inherit the stale start-queue entry (on_start would
        run twice on the new process)."""
        started = []

        class Starter(NodeProcess):
            def __init__(self, node_id, tag):
                super().__init__(node_id)
                self.tag = tag
                self.done = True

            def on_start(self, ctx):
                started.append((self.tag, ctx.round))

            def on_round(self, ctx, inbox):
                pass

        net = Network()
        net.add_node("a")
        sim = Simulator(net, SimulatorConfig(max_rounds=20))
        sim.add_process(Idle("a"))

        def churn(s):
            s.network.add_node("b")
            s.add_process(Starter("b", "gen-1"))
            s.retire("b")
            s.add_process(Starter("b", "gen-2"))

        sim.schedule(2, churn)
        sim.run()
        assert started == [("gen-2", 2)]

    def test_starter_is_not_also_invoked_for_same_round_deliveries(self):
        """A message sent before a node's process existed drops; the joiner
        gets exactly one invocation (on_start) in its initialization round."""
        calls = []

        class Tracker(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.done = True

            def on_start(self, ctx):
                calls.append(("start", ctx.round))

            def on_round(self, ctx, inbox):
                calls.append(("round", ctx.round, len(inbox)))

        class SendOnce(NodeProcess):
            def on_round(self, ctx, inbox):
                if ctx.round == 1:
                    ctx.send("b", "hello")  # 'b' runs no process yet
                    self.done = True

        net = Network()
        net.add_link("a", "b")
        sim = Simulator(net, SimulatorConfig(max_rounds=20))
        sim.add_process(SendOnce("a"))
        sim.schedule(2, lambda s: s.add_process(Tracker("b")))
        metrics = sim.run()
        # The round-1 send targeted a process that materialised in round 2:
        # it drops (sent before the process existed) and 'b' is invoked
        # exactly once that round, via on_start.
        assert calls == [("start", 2)]
        assert metrics.dropped_messages == 1

    def test_rerun_on_reused_engine_matches_fresh_run(self):
        """Installing a fresh protocol generation on a quiesced engine
        reproduces a fresh simulator's behaviour (its own counters, from
        ``reset_metrics``)."""
        n = 5

        def install(sim):
            sim.add_process(TokenForwarder(0, n, start=True))
            for i in range(1, n):
                sim.add_process(TokenForwarder(i, n))

        sim = Simulator(line_network(n), SimulatorConfig(seed=3))
        install(sim)
        first = sim.run().summary()
        sim.retire_all()
        install(sim)
        assert sim.reset_metrics().summary() == first
        second = sim.run().summary()
        assert second == first
        assert sim.process(n - 1).token == 0

    def test_run_budget_is_per_call_on_reused_engine(self):
        n = 4
        sim = Simulator(line_network(n), SimulatorConfig(seed=1, max_rounds=2 * n))
        sim.add_process(TokenForwarder(0, n, start=True))
        for i in range(1, n):
            sim.add_process(TokenForwarder(i, n))
        sim.run()
        rounds_used = sim.round
        sim.retire_all()
        sim.add_process(TokenForwarder(0, n, start=True))
        for i in range(1, n):
            sim.add_process(TokenForwarder(i, n))
        sim.run()  # would exceed an absolute budget, but budgets are per call
        assert sim.round >= 2 * rounds_used


class TestScheduledEvents:
    """Simulator.schedule: churn-style event injection at round boundaries."""

    def test_scheduled_callback_runs_at_its_round(self):
        from repro.simulation.network import Network
        from repro.simulation.node_process import NodeProcess

        class Idle(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.done = True

            def on_round(self, ctx, inbox):
                pass

        network = Network()
        network.add_node("a")
        sim = Simulator(network, SimulatorConfig(max_rounds=50))
        sim.add_process(Idle("a"))
        fired = []
        sim.schedule(3, lambda s: fired.append(s.round))
        sim.run()
        assert fired == [3]
        assert sim.round >= 4  # the run kept stepping until the event fired

    def test_scheduled_join_adds_node_and_process(self):
        from repro.simulation.network import Network
        from repro.simulation.node_process import NodeProcess

        class Idle(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.done = True

            def on_round(self, ctx, inbox):
                pass

        network = Network()
        network.add_node("a")
        sim = Simulator(network, SimulatorConfig(max_rounds=50))
        sim.add_process(Idle("a"))

        def join(s):
            s.network.add_node("b")
            s.network.add_link("a", "b")
            s.add_process(Idle("b"))

        sim.schedule(2, join)
        sim.run()
        assert sim.network.has_node("b")
        assert "b" in sim.processes

    def test_scheduling_in_the_past_rejected(self):
        from repro.simulation.network import Network

        network = Network()
        network.add_node("a")
        sim = Simulator(network, SimulatorConfig(max_rounds=10))
        sim.step()
        sim.step()
        with pytest.raises(SimulationError):
            sim.schedule(0, lambda s: None)

    def test_same_round_scheduling_from_callback_does_not_deadlock(self):
        from repro.simulation.network import Network
        from repro.simulation.node_process import NodeProcess

        class Idle(NodeProcess):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.done = True

            def on_round(self, ctx, inbox):
                pass

        network = Network()
        network.add_node("a")
        sim = Simulator(network, SimulatorConfig(max_rounds=20))
        sim.add_process(Idle("a"))
        fired = []

        def outer(s):
            fired.append(("outer", s.round))
            s.schedule(s.round, lambda s2: fired.append(("inner", s2.round)))

        sim.schedule(2, outer)
        sim.run()  # must quiesce; the inner event fires in the same round
        assert fired == [("outer", 2), ("inner", 2)]


class Streamer(NodeProcess):
    """Sends its queued items right, one per round, and relays arrivals;
    the last node of the line records ``(round, item)`` per arrival."""

    def __init__(self, node_id, n):
        super().__init__(node_id)
        self.n = n
        self.queue: List[str] = []
        self.arrivals = []
        self.done = True

    def give(self, items):
        """Driver hook: hand the process self-driven work between rounds."""
        self.queue.extend(items)
        self.done = not self.queue

    def on_round(self, ctx, inbox):
        for message in inbox:
            if self.node_id == self.n - 1:
                self.arrivals.append((ctx.round, message.payload))
            else:
                self.queue.append(message.payload)
        if self.queue:
            ctx.send(self.node_id + 1, "item", self.queue.pop(0))
        self.done = not self.queue


class TestWake:
    """Simulator.wake: handing a live process work between rounds."""

    def _streamers(self, n=6):
        sim = Simulator(line_network(n), SimulatorConfig(seed=2))
        processes = [Streamer(i, n) for i in range(n)]
        sim.add_processes(processes)
        return sim, processes

    def test_wake_matches_a_same_round_callback(self):
        """The same work handed by ``wake`` or by a ``schedule(sim.round, ...)``
        callback gives the same rounds, traffic and arrivals, round for round."""

        def run(handoff):
            sim, processes = self._streamers()
            counters = []  # the collector's summary after every round
            step = sim.step

            def logged_step():
                step()
                counters.append(sim.metrics.summary())

            sim.step = logged_step
            sim.run()

            def give(node, items):
                if handoff == "wake":
                    processes[node].give(items)
                    sim.wake(node)
                else:
                    sim.schedule(sim.round, lambda s: processes[node].give(items))

            give(0, ["a", "b", "c"])
            sim.step()
            sim.step()
            give(2, ["d", "e"])  # node 2 is also relaying "a" this round
            give(3, ["f"])
            sim.run()
            give(1, ["g"])  # on a quiesced engine
            sim.run()
            return counters, [process.arrivals for process in processes]

        counters, arrivals = run("wake")
        assert (counters, arrivals) == run("schedule")
        assert sorted(item for _, item in arrivals[5]) == list("abcdefg")

    def test_wake_before_the_first_start_raises(self):
        sim, processes = self._streamers()
        processes[0].give(["a"])
        with pytest.raises(SimulationError, match="before the engine has started"):
            sim.wake(0)

    def test_wake_of_a_node_without_a_live_process_raises(self):
        sim, _ = self._streamers()
        sim.run()
        sim.retire(4)
        sim.crash(5)
        for node in ("unknown", 4, 5):
            with pytest.raises(SimulationError, match="no live process"):
                sim.wake(node)

    def test_waking_a_done_process_leaves_the_run_quiescent(self):
        sim, _ = self._streamers()
        sim.run()
        before = (sim.round, sim.metrics.rounds)
        sim.wake(0)
        sim.run()
        assert (sim.round, sim.metrics.rounds) == before


class LateSampler(NodeProcess):
    """Stays active until round ``read_round``, then draws three values
    from ``ctx.rng`` (``read_round=None``: never reads it)."""

    def __init__(self, node_id, read_round=None):
        super().__init__(node_id)
        self.read_round = read_round
        self.draws = None
        self.done = read_round is None

    def on_round(self, ctx, inbox):
        if ctx.round == self.read_round:
            self.draws = [ctx.rng.random() for _ in range(3)]
            self.done = True


def eager_streams(seed, nodes):
    """What one ``spawn_rng`` per registration, in order, would draw."""
    root = make_rng(seed)
    return {node: [rng.random() for _ in range(3)]
            for node, rng in ((node, spawn_rng(root, label=repr(node))) for node in nodes)}


class TestNodeRngs:
    """A node's RNG is seeded at registration and built on its first read."""

    def test_a_first_read_in_round_3_draws_the_eager_stream(self):
        sim = Simulator(line_network(5), SimulatorConfig(seed=9))
        processes = [LateSampler(node, read_round=3 if node % 2 else 1) for node in range(5)]
        sim.add_processes(processes)
        sim.run()
        assert {process.node_id: process.draws for process in processes} == eager_streams(9, range(5))
        assert sim.round == 4

    def test_never_read_processes_build_no_generator(self):
        sim = Simulator(line_network(5), SimulatorConfig(seed=9))
        sim.add_processes(LateSampler(node, read_round=2 if node == 3 else None) for node in range(5))
        sim.run()
        built = [node for node, rng in sim._rngs.items() if isinstance(rng, random.Random)]
        assert built == [3]

    def test_retiring_or_crashing_unread_processes_shifts_no_later_stream(self):
        sim = Simulator(line_network(6), SimulatorConfig(seed=4))
        sim.add_processes(LateSampler(node) for node in range(4))
        sim.run()
        sim.retire(1)
        sim.crash(2)
        # 1 re-joins fresh; 4 and 5 join for the first time.  Each draws the next child
        # seed in registration order, as eager generators would have.
        joiners = {node: LateSampler(node, read_round=sim.round + 2) for node in (4, 1, 5)}
        sim.add_processes(joiners.values())
        sim.run()
        expected = eager_streams(4, [0, 1, 2, 3, 4, 1, 5])
        assert {node: process.draws for node, process in joiners.items()} == {
            4: expected[4], 1: expected[1], 5: expected[5],
        }
