"""Crash-stop failure-arena tests: route-around, repair exactness, determinism (PR 6),
recovery, mid-wave crashes and retry accounting (PR 10).

Covers the distributed half of the failure model:

* a request injected during the dark window (after a crash, before the
  repair wave) is still delivered by routing *around* the dark hop via
  the k-redundant neighbour table;
* a request to a crashed key strands and is counted as a
  ``failed_request`` — never as a message drop;
* :func:`repair_crash_links` is exact: after any crash sequence the live
  network equals a from-scratch ``skip_graph_network(graph, k)`` rebuild;
* :func:`rejoin_crash_links` is its exact inverse: a crashed key rejoins
  as a fresh identity and the network again equals the rebuild;
* the engine's crash/recover lifecycle: re-entry is banned after a crash
  and accepted again after :meth:`Simulator.recover`;
* :func:`segment_waves` carves a schedule into
  recovery/crash-burst/request-batch :class:`Wave`\\ s (mid-wave crashes
  carry their in-flight offset) and rejects join/leave churn;
* a crashed-then-recovered key serves requests again as a destination;
* mid-wave crashes drop in-flight messages into the conservation ledger
  and bounded retries re-deliver the casualties
  (``delivered + failed + retried_delivered == injected``);
* same-seed arena runs are bit-for-bit deterministic in their
  delivered/failed/route-around accounting (the flaky-seed hardening
  satellite), for the recovery and mid-wave shapes too.
"""

import pytest

from repro.distributed import (
    Wave,
    apply_crash,
    apply_recovery,
    networks_equal,
    rejoin_crash_links,
    repair_crash_links,
    run_failure_arena,
    segment_waves,
    skip_graph_network,
)
from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph
from repro.skipgraph.build import draw_membership_bits
from repro.workloads import (
    CrashEvent,
    JoinEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    failure_scenario,
)

pytestmark = pytest.mark.failure


def _links(network):
    """A deep snapshot of ``network``'s links and their level labels."""
    return {key: {peer: set(labels) for peer, labels in row.items()} for key, row in network.rows.items()}


def _hand_scenario(events, n=16, name="hand"):
    return Scenario(name=name, initial_keys=list(range(1, n + 1)), events=list(events))


class TestRouteAround:
    def test_requests_route_around_a_dark_hop(self):
        """Crash 8, then route across the hole from sources whose level-1
        hop towards the destination *is* 8: the stale tables still point at
        it, so the forward finds the link dark and re-routes via the k=2
        fallback."""
        scenario = _hand_scenario(
            [
                CrashEvent(8),
                RequestEvent(6, 9),
                RequestEvent(12, 7),
                RequestEvent(2, 14),
            ]
        )
        report = run_failure_arena(scenario, k=2, seed=11)
        assert report.delivered == 3
        assert report.failed == 0
        assert report.route_arounds >= 1
        assert report.conserved and report.integrity_clean
        assert report.dropped_messages == 0

    def test_stale_destination_fails_cleanly(self):
        """A request *to* the crashed key cannot be delivered; it must be
        counted as a failed request — not dropped, not raised."""
        scenario = _hand_scenario(
            [
                CrashEvent(8),
                RequestEvent(5, 8),
                RequestEvent(5, 6),
            ]
        )
        report = run_failure_arena(scenario, k=2, seed=11)
        assert report.delivered == 1
        assert report.failed == 1
        assert report.conserved
        assert report.dropped_messages == 0
        assert report.congestion_violations == 0

    def test_repair_wave_restores_exact_network(self):
        scenario = _hand_scenario([CrashEvent(8), CrashEvent(12), RequestEvent(7, 9)], n=24)
        report = run_failure_arena(scenario, k=2, seed=11)
        assert report.repair_links > 0
        assert report.tables_refreshed > 0
        assert report.integrity_clean  # sweep compares network to the rebuild


class TestRepairExactness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_repair_matches_rebuild_after_crash_sequence(self, k):
        """After any (tolerance-respecting) crash sequence, incremental
        repair leaves ``network == skip_graph_network(graph, k)`` exactly."""
        graph = build_balanced_skip_graph(range(1, 49))
        network = skip_graph_network(graph, k=k)
        rng = make_rng(k)
        crashed = []
        for _ in range(6):
            survivors = [key for key in graph.keys if key not in crashed]
            key = survivors[rng.randrange(1, len(survivors) - 1)]
            network.remove_node(key)  # the crash: links go dark first
            repair_crash_links(network, graph, key, k=k)
            crashed.append(key)
            assert networks_equal(network, skip_graph_network(graph, k=k))

    def test_repair_reports_affected_survivors_only(self):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph, k=2)
        network.remove_node(16)
        affected, links_added = repair_crash_links(network, graph, 16, k=2)
        assert 16 not in affected
        assert affected and links_added > 0
        assert all(graph.has_node(key) for key in affected)


class TestSegmentWaves:
    def test_leading_requests_form_a_crash_free_baseline_wave(self):
        scenario = _hand_scenario(
            [
                RequestEvent(1, 2),
                CrashEvent(3),
                CrashEvent(4),
                RequestEvent(1, 2),
                CrashEvent(5),
            ]
        )
        waves = segment_waves(scenario)
        assert waves == [
            Wave(requests=[(1, 2)]),
            Wave(crashes=[3, 4], requests=[(1, 2)]),
            Wave(crashes=[5]),
        ]

    def test_recovery_closes_the_open_wave(self):
        scenario = _hand_scenario(
            [
                CrashEvent(3),
                RequestEvent(1, 2),
                RecoveryEvent(3),
                RequestEvent(4, 3),
            ]
        )
        waves = segment_waves(scenario)
        assert waves == [
            Wave(crashes=[3], requests=[(1, 2)]),
            Wave(recoveries=[3], requests=[(4, 3)]),
        ]

    def test_mid_wave_crash_keeps_its_in_flight_offset(self):
        scenario = _hand_scenario(
            [
                RequestEvent(1, 2),
                RequestEvent(5, 6),
                CrashEvent(8, mid_wave=True),
                RequestEvent(9, 10),
            ]
        )
        waves = segment_waves(scenario)
        assert waves == [
            Wave(requests=[(1, 2), (5, 6), (9, 10)], mid_wave=[(2, 8)]),
        ]
        assert waves[0].crash_keys == [8]

    def test_mid_wave_crash_without_requests_degrades_to_boundary(self):
        scenario = _hand_scenario([CrashEvent(8, mid_wave=True), RequestEvent(1, 2)])
        assert segment_waves(scenario) == [Wave(crashes=[8], requests=[(1, 2)])]

    def test_membership_churn_is_rejected(self):
        scenario = _hand_scenario([RequestEvent(1, 2), JoinEvent(99)])
        with pytest.raises(ValueError):
            segment_waves(scenario)


class TestEngineRecovery:
    """The simulator-level crash/recover lifecycle behind rejoin."""

    def _arena(self, n=16, k=2, seed=3):
        graph = build_balanced_skip_graph(range(1, n + 1))
        network = skip_graph_network(graph, k=k)
        from repro.distributed import install_routing

        sim = Simulator(network)
        install_routing(sim, graph)
        sim.run()
        return sim, graph

    def test_crash_bans_reentry_until_recover(self):
        from repro.distributed import make_router

        sim, graph = self._arena()
        stale_router = make_router(sim.network, 8)  # built pre-crash
        sim.crash(8)
        repair_crash_links(sim.network, graph, 8, k=2)
        with pytest.raises(SimulationError):
            sim.add_process(stale_router)
        sim.recover(8)
        bits = draw_membership_bits(graph, 8, make_rng(5))
        rejoin_crash_links(sim.network, graph, 8, tuple(bits), k=2)
        sim.add_process(make_router(sim.network, 8))  # accepted again
        assert 8 not in sim.crashed
        # A recovered node may crash again.
        sim.crash(8)
        assert 8 in sim.crashed

    def test_recover_without_crash_raises(self):
        sim, _graph = self._arena()
        with pytest.raises(SimulationError):
            sim.recover(8)

    def test_recovery_of_an_unrepaired_crash_is_rejected_before_anything_changes(self):
        """A recovery is a join: while the crashed key is still in the graph
        the bridge refuses it before lifting the engine's re-entry ban, so
        the engine, the graph and the network all stay as they were."""
        sim, graph = self._arena()
        apply_crash(sim, graph, 5)  # no repair: the graph still holds 5
        table, links = graph.membership_table(), _links(sim.network)
        with pytest.raises(ValueError, match="repair"):
            apply_recovery(sim, graph, 5, make_rng(7), k=2)
        assert 5 in sim.crashed
        assert graph.membership_table() == table and 5 in graph
        assert _links(sim.network) == links
        assert not sim.network.has_node(5)
        with pytest.raises(SimulationError):  # a key that never crashed
            apply_recovery(sim, graph, 6, make_rng(7), k=2)
        assert 6 not in sim.crashed and sim.network.has_node(6)


class TestRejoinExactness:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rejoin_matches_rebuild_after_crash_repair_cycles(self, k):
        """``rejoin_crash_links`` is the exact inverse of
        ``repair_crash_links``: after each crash → repair → rejoin cycle the
        live network equals a from-scratch ``skip_graph_network(graph, k)``."""
        graph = build_balanced_skip_graph(range(1, 49))
        network = skip_graph_network(graph, k=k)
        rng = make_rng(100 + k)
        for _ in range(5):
            keys = graph.keys
            key = keys[rng.randrange(1, len(keys) - 1)]
            network.remove_node(key)
            repair_crash_links(network, graph, key, k=k)
            assert networks_equal(network, skip_graph_network(graph, k=k))
            bits = draw_membership_bits(graph, key, rng)
            affected, links_added = rejoin_crash_links(network, graph, key, tuple(bits), k=k)
            assert key not in affected and links_added > 0
            assert networks_equal(network, skip_graph_network(graph, k=k))


class TestRecoveryArena:
    def test_recovered_key_serves_as_destination_again(self):
        """Crash 8, strand one request at it, recover it, then route to it:
        the rejoined fresh identity must deliver."""
        scenario = _hand_scenario(
            [
                CrashEvent(8),
                RequestEvent(5, 8),
                RecoveryEvent(8),
                RequestEvent(5, 8),
                RequestEvent(8, 12),
            ]
        )
        report = run_failure_arena(scenario, k=2, seed=11)
        assert report.recoveries == 1
        assert report.rejoin_links > 0
        assert report.delivered == 2  # post-recovery both directions serve
        assert report.failed == 1  # only the dark-window request
        assert report.conserved and report.integrity_clean
        assert report.dropped_messages == 0

    def test_recovery_shape_conserves_and_stays_clean(self):
        scenario = failure_scenario(
            n=64, length=200, seed=21, mode="independent", crash_rate=0.03,
            recovery_fraction=0.8, adjacent_crash_limit=1,
        )
        assert scenario.recovery_count > 0
        report = run_failure_arena(scenario, k=2, seed=21)
        assert report.recoveries == scenario.recovery_count
        assert report.conserved and report.integrity_clean
        assert report.congestion_violations == 0
        assert report.dropped_messages == 0


class TestMidWaveArena:
    def _mid_scenario(self):
        return failure_scenario(
            n=64, length=240, seed=17, mode="independent", crash_rate=0.02,
            mid_wave_fraction=0.05, adjacent_crash_limit=1,
        )

    def test_in_flight_casualties_are_conserved_via_retry(self):
        scenario = self._mid_scenario()
        assert any(
            isinstance(event, CrashEvent) and event.mid_wave for event in scenario.events
        )
        report = run_failure_arena(scenario, k=2, seed=17)
        assert report.mid_wave_crashes > 0
        assert report.conserved and report.integrity_clean
        assert report.congestion_violations == 0
        # Drops are confined to waves that fired an in-flight crash.
        assert all(
            wave.dropped_messages == 0 for wave in report.waves if wave.mid_wave_crashes == 0
        )
        # Every drop is ledger-accounted: retried, then delivered or failed.
        assert report.retried >= report.retried_delivered

    def test_lost_requests_are_retried_over_the_repaired_overlay(self):
        """A denser mid-wave schedule whose crashes do catch requests in
        flight: the casualties are re-injected after the repair wave and
        delivered, and the ledger still balances wave by wave."""
        scenario = failure_scenario(
            n=64, length=240, seed=1, mode="independent", crash_rate=0.02,
            mid_wave_fraction=0.1, adjacent_crash_limit=1,
        )
        report = run_failure_arena(scenario, k=2, seed=1)
        assert report.dropped_messages > 0
        assert report.retried > 0 and report.retried_delivered > 0
        assert report.conserved and report.integrity_clean
        for wave in report.waves:
            if wave.retried:
                assert wave.mid_wave_crashes > 0 and wave.dropped_messages > 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "extra",
        [
            {},
            dict(recovery_fraction=0.7),
            dict(mid_wave_fraction=0.05),
        ],
        ids=["classic", "recovery", "midwave"],
    )
    def test_seed_and_explicit_rng_agree(self, extra):
        by_seed = failure_scenario(n=64, length=200, seed=7, mode="independent", **extra)
        by_rng = failure_scenario(n=64, length=200, rng=make_rng(7), mode="independent", **extra)
        assert by_seed.events == by_rng.events
        assert by_seed.initial_keys == by_rng.initial_keys

    def test_new_knobs_off_leave_classic_streams_untouched(self):
        """``recovery_fraction=0.0`` / ``mid_wave_fraction=0.0`` draw no
        extra coins: pre-PR-10 schedules are reproduced bit for bit."""
        classic = failure_scenario(n=64, length=200, seed=7, mode="independent")
        explicit = failure_scenario(
            n=64, length=200, seed=7, mode="independent",
            recovery_fraction=0.0, mid_wave_fraction=0.0,
        )
        assert classic.events == explicit.events

    @pytest.mark.parametrize("mode", ["independent", "racks", "flash"])
    def test_same_seed_arena_runs_are_identical(self, mode):
        """The flaky-seed hardening gate: two runs from the same seed agree
        on every delivered/failed/route-around count, wave by wave."""
        kwargs = dict(n=64, length=160, seed=13, mode=mode, adjacent_crash_limit=1)
        reports = [
            run_failure_arena(failure_scenario(**kwargs), k=2, seed=13) for _ in range(2)
        ]
        first, second = reports
        assert first.delivered == second.delivered
        assert first.failed == second.failed
        assert first.route_arounds == second.route_arounds
        assert first.repair_links == second.repair_links
        assert first.rounds == second.rounds
        assert first.messages == second.messages
        assert [w.__dict__ for w in first.waves] == [w.__dict__ for w in second.waves]

    @pytest.mark.parametrize(
        "extra",
        [dict(recovery_fraction=0.7), dict(mid_wave_fraction=0.05)],
        ids=["recovery", "midwave"],
    )
    def test_same_seed_recovery_and_midwave_arenas_are_identical(self, extra):
        kwargs = dict(
            n=64, length=160, seed=13, mode="independent", adjacent_crash_limit=1, **extra
        )
        reports = [
            run_failure_arena(failure_scenario(**kwargs), k=2, seed=13) for _ in range(2)
        ]
        first, second = reports
        assert first.recoveries == second.recoveries
        assert first.rejoin_links == second.rejoin_links
        assert first.retried == second.retried
        assert first.retried_delivered == second.retried_delivered
        assert [w.__dict__ for w in first.waves] == [w.__dict__ for w in second.waves]
