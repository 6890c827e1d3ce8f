"""Dynamic Skip Graphs — the DSG front end (paper, Algorithm 1).

:class:`DynamicSkipGraph` owns a skip graph, the per-node DSG state
(timestamps, group-ids, dominating flags, group-bases) and the request
history.  For every communication request ``(u, v)`` it:

1. establishes the communication with standard skip graph routing and
   records the routing distance ``d_{S_t}(σ_t)``;
2. finds ``alpha`` (the highest common level) and the linked list
   ``l_alpha``; dummy nodes inside ``l_alpha`` destroy themselves when the
   transformation notification reaches them;
3. computes priorities (P1-P3), merges the communicating groups at level
   ``alpha`` and, if needed, runs the ``G_lower`` alignment of Appendix C;
4. transforms the subtree of ``l_alpha`` level by level
   (:func:`repro.core.transformation.transform`), which leaves ``u`` and
   ``v`` in a linked list of size two (a dummy that survived between them
   destroys itself, ``docs/DEVIATIONS.md`` row 4);
5. updates group-bases and applies timestamp rules T1-T6;
6. charges the costs: ``routing distance + transformation rounds + 1``
   (Equation 1 of the paper), recorded in the instance's
   :class:`~repro.core.costs.CostLedger` (:attr:`DynamicSkipGraph.costs`).

:meth:`DynamicSkipGraph.request` is the only way a request is served — the
cost model is per request and nothing in Algorithm 1 amortizes across
requests — so every runner above it (adapter, scenario runner, distributed
planner) times and counts the same loop.  The class also implements node
addition/removal (Section IV-G) and the bookkeeping needed by the
experiments: running cost and plan-size counters (no per-request log),
working-set statistics, height tracking and memory auditing.

The front end threads no kernel state: the a-balance dirty marks belong to
the graph (it attaches a :class:`~repro.skipgraph.balance.BalanceTracker`
as ``graph.tracker`` when a-balance is maintained, and the graph's own
mutators feed it), and the time spent in bulk splices belongs to each
plan's :class:`~repro.core.local_ops.OpRecorder` (``apply_seconds``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.costs import CostLedger, RequestCost
from repro.core.groups import (
    glower_update,
    initial_group_base,
    merge_groups_at_alpha,
    update_group_bases_after_transformation,
)
from repro.core.local_ops import OpRecorder, Plan
from repro.core.priorities import compute_priorities
from repro.core.state import DSGNodeState
from repro.core.timestamps import TimestampContext, apply_timestamp_rules
from repro.core.transformation import _pick_dummy_key, transform
from repro.core.working_set import CommunicationHistory
from repro.simulation.rng import make_rng
from repro.skipgraph.balance import BalanceTracker, a_balance_violations
from repro.skipgraph.build import build_balanced_skip_graph, draw_membership_bits
from repro.skipgraph.routing import RoutingResult, route
from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["DSGConfig", "DynamicSkipGraph", "RequestResult"]

Key = Hashable


@dataclass
class DSGConfig:
    """Tunable parameters of a :class:`DynamicSkipGraph` instance.

    Attributes
    ----------
    a:
        The balance parameter (a-balance property, AMF construction).
    seed:
        Seed of the instance's random source (AMF coin flips, dummy keys).
    use_exact_median:
        Replace AMF with an exact median (ablation; changes the cost model).
    maintain_a_balance:
        Insert dummy nodes to preserve the a-balance property (Section IV-F).
    track_working_set:
        Maintain the communication history and per-request working set
        numbers (a first contact costs O(1), a repeated pair O(working set
        edges); disable for large speed runs).
    """

    a: int = 4
    seed: Optional[int] = None
    use_exact_median: bool = False
    maintain_a_balance: bool = True
    track_working_set: bool = True


@dataclass
class RequestResult:
    """Per-request outcome and cost breakdown (Equation 1 of the paper)."""

    time: int
    source: Key
    destination: Key
    alpha: int
    routing: RoutingResult
    transformation_rounds: int = 0
    total_work_rounds: int = 0
    notification_rounds: int = 0
    working_set_number: Optional[int] = None
    amf_calls: int = 0
    levels_rebuilt: int = 0
    d_prime: int = 0
    dummies_added: int = 0
    dummies_removed: int = 0
    height_after: int = 0
    #: The request's full local-operation plan (dummy self-destructions in
    #: ``l_alpha`` followed by the transformation's ops), in application
    #: order.  Replaying it on a copy of the pre-request graph reproduces
    #: the post-request topology (see :mod:`repro.core.local_ops`); the
    #: distributed protocol executes exactly this sequence as messages.  A
    #: read-only :class:`~repro.core.local_ops.Plan`: one record per bulk run.
    ops: Optional[Plan] = None

    @property
    def routing_cost(self) -> int:
        """``d_{S_t}(σ_t)`` — intermediate nodes on the routing path."""
        return self.routing.distance

    @property
    def cost(self) -> int:
        """``d_{S_t}(σ_t) + ρ(A, S_t, σ_t) + 1`` (Equation 1)."""
        return self.routing_cost + self.transformation_rounds + 1


class DynamicSkipGraph:
    """A self-adjusting skip graph driven by the DSG algorithm.

    ``keys`` start from the balanced construction; any other start topology
    is passed pre-built as ``graph`` (random membership vectors:
    ``graph=build_skip_graph(keys, rng)``).
    """

    def __init__(
        self,
        keys: Optional[Iterable[Key]] = None,
        graph: Optional[SkipGraph] = None,
        config: Optional[DSGConfig] = None,
    ) -> None:
        self.config = config or DSGConfig()
        if self.config.a < 2:
            raise ValueError("the balance parameter a must be at least 2")
        self._rng = make_rng(self.config.seed)
        if graph is None and keys is None:
            raise ValueError("provide either keys or a pre-built skip graph")
        keys = list(keys) if graph is None else graph.real_keys
        self._check_keys(keys)  # once: the keys given, or the graph's real keys
        self.graph = build_balanced_skip_graph(keys) if graph is None else graph

        # Each real key's group-base starts at its singleton level, read in
        # one pass over the prefix counts: one past the deepest prefix of its
        # vector that two or more nodes carry (``SkipGraph.singleton_level``).
        nodes, counts = self.graph._nodes, self.graph._prefix_counts
        lone = len(nodes) <= 1
        self.states: Dict[Key, DSGNodeState] = {}
        for key in self.graph.real_keys:
            bits = nodes[key].membership.bits
            shared = len(bits)
            while shared and counts.get(bits[:shared], 0) < 2:
                shared -= 1
            singleton = 0 if lone else shared + 1
            state = DSGNodeState(key=key)
            state.group_base = initial_group_base(singleton)
            self.states[key] = state

        self._time = 0
        self.history = CommunicationHistory(total_nodes=self.graph.real_count)
        #: Local-op plan of the most recent :meth:`add_node` / :meth:`remove_node`.
        self.last_churn_ops = Plan()
        #: Equation-1 totals of every request served.
        self.costs = CostLedger("dsg", keep_costs=False)
        # The graph marks its own dirty lists once a tracker is attached;
        # without a-balance maintenance nothing would ever consume the marks
        # (feeding them would only accumulate memory), so none is attached.
        # The balanced build holds no violation, so its tracker starts clean;
        # a caller's graph may, so that one starts all-dirty.
        balanced = self.graph if graph is None else None
        self.graph.tracker = BalanceTracker(balanced) if self.config.maintain_a_balance else None
        #: Request-plan size distribution: ``len(result.ops) -> requests``.
        self._plan_size_hist: Dict[int, int] = {}
        #: Wall-clock per serving phase: routing, planning maths, bulk plan
        #: application, and churn-path a-balance repair.  "apply" is what
        #: the request's recorder spent inside bulk splices and "plan" the
        #: rest of the adjustment, so the four keys (plus build/overhead
        #: outside them) decompose the serving time.
        self.phase_seconds: Dict[str, float] = {
            "route": 0.0,
            "plan": 0.0,
            "apply": 0.0,
            "repair": 0.0,
        }

    # ------------------------------------------------------------------ misc
    @staticmethod
    def _check_keys(keys: Sequence[Key]) -> None:
        for key in keys:
            if isinstance(key, bool) or not isinstance(key, int) or key <= 0:
                raise ValueError(
                    "DSG requires node identifiers to be positive integers "
                    f"(priority rule P3); got {key!r}"
                )

    @property
    def time(self) -> int:
        return self._time

    @property
    def n(self) -> int:
        return self.graph.real_count

    def height(self) -> int:
        return self.graph.height()

    def state(self, key: Key) -> DSGNodeState:
        return self.states[key]

    def routing_distance(self, u: Key, v: Key) -> int:
        return route(self.graph, u, v).distance

    def are_adjacent(self, u: Key, v: Key) -> bool:
        """Whether ``u`` and ``v`` are directly linked.

        After DSG serves a request ``(u, v)`` the pair shares a linked list
        in which they are neighbours (a list of size two unless a dummy node
        had to be placed on the same side to preserve the a-balance
        property, in which case the list is slightly larger but the pair is
        still adjacent in it).
        """
        return self.graph.are_adjacent(u, v, self.graph.common_level(u, v))

    def memory_words_per_node(self) -> Dict[Key, int]:
        """Words of DSG state per node (E11 memory audit)."""
        height = self.height()
        return {key: state.memory_words(height) for key, state in self.states.items()}

    # --------------------------------------------------------------- requests
    def request(self, source: Key, destination: Key) -> RequestResult:
        """Serve one communication request (route, then self-adjust).

        This is the only way a request is served; endpoints are validated
        here, before any state changes (a-balance dummies are in the graph
        but are not peers, so membership means having DSG state).  The
        :class:`RequestResult` is returned, not kept: the instance records
        only the O(1) running counters of :attr:`costs`.
        """
        if source == destination:
            raise ValueError("source and destination must differ")
        if source not in self.states or destination not in self.states:
            raise KeyError(f"unknown endpoint in request ({source!r}, {destination!r})")
        self._time += 1
        t = self._time

        phases = self.phase_seconds
        began = time.perf_counter()
        routing = route(self.graph, source, destination)
        phases["route"] += time.perf_counter() - began
        working_set = (
            self.history.record(source, destination) if self.config.track_working_set else None
        )

        result = RequestResult(
            time=t,
            source=source,
            destination=destination,
            alpha=self.graph.common_level(source, destination),
            routing=routing,
            working_set_number=working_set,
        )

        began = time.perf_counter()
        apply_seconds = self._adjust(result, source, destination, t)
        phases["plan"] += time.perf_counter() - began - apply_seconds
        phases["apply"] += apply_seconds

        result.height_after = self.height()
        self.costs.record(
            RequestCost(source, destination, routing.distance, result.transformation_rounds)
        )
        return result

    def _adjust(self, result: RequestResult, u: Key, v: Key, t: int) -> float:
        """Steps 2-12 of Algorithm 1; returns the seconds spent in bulk splices.

        Structurally this is a *planner* over the local-op kernel: every
        mutation flows through one :class:`~repro.core.local_ops.OpRecorder`
        (applied eagerly, recorded in order) and the request's plan is kept
        on ``result.ops``.
        """
        graph = self.graph
        recorder = self._recorder()
        result.ops = recorder.ops
        alpha = result.alpha
        members_all = graph.list_of(u, alpha)

        # Dummy nodes destroy themselves on receiving the notification.  A
        # dummy whose membership vector stops exactly at level ``alpha`` is
        # protecting the split of l_{alpha-1} (one level *above* the subtree
        # being rebuilt), so it stays alive; only dummies inside the rebuilt
        # subtree are destroyed (they would otherwise hold stale bits).
        doomed_dummies: List[Key] = []
        members: List[Key] = []
        for key in members_all:
            node = graph.node(key)
            if node.is_dummy:
                if len(node.membership) > alpha:
                    doomed_dummies.append(key)
            else:
                members.append(key)
        if doomed_dummies:
            recorder.remove_run(doomed_dummies)
        result.dummies_removed = len(doomed_dummies)

        height = graph.height()

        # Snapshot of the pre-transformation state (several timestamp rules
        # refer to S_t rather than S_{t+1}; vectors are immutable, so the
        # snapshot holds references instead of copies).
        old_membership = {key: graph.membership(key) for key in members}
        old_timestamps = {key: dict(self.states[key].timestamps) for key in members}
        old_group_ids_alpha = {key: self.states[key].group_id(alpha) for key in members}
        old_group_u = self.states[u].group_id(alpha)
        old_group_v = self.states[v].group_id(alpha)

        # Notification broadcast: u and v ship O(H_t) words (their vectors,
        # timestamps, group-ids and group-bases) to every node of l_alpha.
        notification_rounds = (height - alpha) + max(1, math.ceil(math.log2(max(2, len(members)))))
        result.notification_rounds = notification_rounds

        priorities = compute_priorities(self.states, members, u, v, alpha, t, height)
        merged = merge_groups_at_alpha(self.states, members, u, v, alpha)

        # The G_lower alignment is only needed when the pair's groups
        # disagreed below alpha (Appendix C); mirroring glower_update's own
        # early exits here keeps the wider-list scan off the hot path — in
        # the steady state (repeated pairs, shared group) no node ever has to
        # enumerate the wider list.
        glower_rounds = 0
        glower_participants: set = set()
        needs_glower = alpha > 0 and (
            self.states[u].group_id(alpha - 1) != self.states[v].group_id(alpha - 1)
        )
        if needs_glower:
            wide_level = min(max(self.states[u].group_base, self.states[v].group_base), alpha)
            wider_members = [
                key for key in graph.list_of(u, wide_level) if not graph.node(key).is_dummy
            ]
            glower_participants = glower_update(
                states=self.states,
                alpha_members=members,
                wider_members=wider_members,
                u=u,
                v=v,
                alpha=alpha,
            )
            if glower_participants:
                glower_rounds = height + max(1, math.ceil(math.log2(max(2, len(wider_members)))))

        # After the merge, the (large) merged group at level ``alpha`` is the
        # biggest group its members belong to, so their group-base drops to
        # ``alpha`` (definition of the group-base, Appendix C; see the
        # group-bases of the merged group in Fig. 4(c)).
        for key in merged:
            state = self.states[key]
            if state.group_base > alpha:
                state.group_base = alpha

        outcome = transform(
            graph=graph,
            states=self.states,
            members=members,
            priorities=priorities,
            u=u,
            v=v,
            alpha=alpha,
            t=t,
            a=self.config.a,
            rng=self._rng,
            use_exact_median=self.config.use_exact_median,
            maintain_a_balance=self.config.maintain_a_balance,
            recorder=recorder,
        )

        # A dummy that outlived an earlier request (its vector stops at
        # ``alpha``, so the notification spared it) can still sit between the
        # pair in their common list.  It destroys itself on the pair step's
        # link message, in the transformation's last round (DEVIATIONS row 4).
        level = graph.common_level(u, v)
        if not graph.are_adjacent(u, v, level):
            low, high = sorted((u, v))
            between = [key for key in graph.list_of(u, level) if low < key < high]
            real = [key for key in between if not graph.node(key).is_dummy]
            if real:
                raise RuntimeError(f"real keys {real!r} sit between the served pair ({u!r}, {v!r})")
            recorder.remove_run(between)
            result.dummies_removed += len(between)

        update_group_bases_after_transformation(
            states=self.states,
            members=members,
            split_levels_per_key=outcome.split_levels,
            alpha=alpha,
        )

        new_membership = {key: graph.membership(key) for key in members}
        ctx = TimestampContext(
            u=u,
            v=v,
            t=t,
            alpha=alpha,
            d_prime=outcome.d_prime,
            members=members,
            old_membership=old_membership,
            new_membership=new_membership,
            received_medians=outcome.received_medians,
            old_group_u=old_group_u,
            old_group_v=old_group_v,
            old_group_ids_alpha=old_group_ids_alpha,
            split_levels=outcome.split_levels,
            glower_participants=glower_participants,
            old_timestamps=old_timestamps,
        )
        apply_timestamp_rules(self.states, ctx)

        result.transformation_rounds = notification_rounds + glower_rounds + outcome.rounds
        result.total_work_rounds = notification_rounds + glower_rounds + outcome.total_work_rounds
        result.amf_calls = outcome.amf_calls
        result.levels_rebuilt = outcome.levels_rebuilt
        result.d_prime = outcome.d_prime
        result.dummies_added = len(outcome.dummies_added)
        plan_size = len(recorder.ops)
        self._plan_size_hist[plan_size] = self._plan_size_hist.get(plan_size, 0) + 1
        return recorder.apply_seconds

    def run_sequence(self, requests: Sequence[Tuple[Key, Key]]) -> List[RequestResult]:
        """Serve every request of ``requests`` in order; returns their results."""
        return [self.request(u, v) for u, v in requests]

    touched: Optional[set] = None  #: where plans' recorders collect touched keys

    def _recorder(self) -> OpRecorder:
        """The recorder one plan of this instance is emitted through."""
        recorder = OpRecorder(self.graph)
        recorder.touched = self.touched
        return recorder

    # ------------------------------------------------------------ node churn
    def add_node(self, key: Key) -> None:
        """Add a peer with a random membership vector (Section IV-G).

        The structural effect (the join itself plus any a-balance dummies it
        forced) is recorded as a local-op plan on :attr:`last_churn_ops` —
        the same contract request plans follow (``RequestResult.ops``), and
        what the distributed protocol replays for churn events.

        Membership bits come from the indexed
        :func:`~repro.skipgraph.build.draw_membership_bits` (O(height) per
        draw).
        """
        self._check_keys([key])
        if self.graph.has_node(key):
            raise ValueError(f"key {key!r} already present")
        recorder = self._recorder()
        bits = draw_membership_bits(self.graph, key, self._rng)
        recorder.join(key, bits)
        state = DSGNodeState(key=key)
        state.group_base = initial_group_base(self.graph.singleton_level(key))
        self.states[key] = state
        self.history.total_nodes = self.graph.real_count
        if self.config.maintain_a_balance:
            began = time.perf_counter()
            self.restore_a_balance(recorder)
            self.phase_seconds["repair"] += time.perf_counter() - began
        self.last_churn_ops = recorder.ops

    def remove_node(self, key: Key) -> None:
        """Remove a peer (Section IV-G); the plan lands on :attr:`last_churn_ops`."""
        if not self.graph.has_node(key):
            raise KeyError(f"no node with key {key!r}")
        if self.graph.node(key).is_dummy:
            raise ValueError("dummy nodes are managed internally")
        recorder = self._recorder()
        recorder.leave(key)
        self.states.pop(key, None)
        self.history.total_nodes = self.graph.real_count
        if self.config.maintain_a_balance:
            began = time.perf_counter()
            self.restore_a_balance(recorder)
            self.phase_seconds["repair"] += time.perf_counter() - began
        self.last_churn_ops = recorder.ops

    def restore_a_balance(self, recorder: Optional[OpRecorder] = None) -> int:
        """Insert dummy nodes until no a-balance violation remains.

        Returns the number of dummies inserted.  Used after node addition or
        removal (Section IV-G); per-transformation maintenance happens inside
        :func:`repro.core.transformation.transform`.  Each insertion is
        emitted through ``recorder`` (one over :attr:`graph` is created when
        not supplied), so callers chaining a churn plan capture the fix-ups.

        Every violation reported by one scan is repaired before rescanning:
        the runs of a scan are disjoint, so their repairs are independent,
        and a dummy can only create *new* runs in ancestor lists — which the
        next scan round picks up.  This keeps the number of scan rounds
        proportional to the cascade depth instead of the dummy count.

        Each round's violations come from the graph's own tracker
        (:attr:`SkipGraph.tracker <repro.skipgraph.skipgraph.SkipGraph.tracker>`)
        — only the lists dirtied since the last consumption are rescanned,
        in the full-rescan order, so repairs (and their RNG draws) are
        identical to rescanning the whole graph every round (what a graph
        without a tracker gets).  A violation whose dummy key could not be
        placed has its list re-marked whole, so the next churn event
        retries it exactly like a full rescan would.  The graph feeds the
        tracker from its own mutators, so no recorder over :attr:`graph`
        can bypass the marks; one over a *different* graph is rejected.
        """
        if recorder is None:
            recorder = self._recorder()
        elif recorder.graph is not self.graph:
            raise ValueError("the recorder must write to this instance's graph")
        tracker = self.graph.tracker
        inserted = 0
        for _ in range(2 * len(self.graph) + 1):
            if tracker is None:
                violations = a_balance_violations(self.graph, self.config.a)
            else:
                violations = tracker.violations(self.graph, self.config.a)
            if not violations:
                break
            # One round's repairs are independent (the runs are disjoint),
            # so the placements are computed first — with the key draws
            # rejecting keys claimed earlier in the round, exactly as the
            # ``has_node`` probe would after an immediate insertion — and
            # landed as one batch.
            pending: List[Tuple[Key, Tuple[int, ...]]] = []
            claimed: set = set()
            for violation in violations:
                run = violation.run_keys
                lower, upper = run[self.config.a - 1], run[self.config.a]
                dummy_key = _pick_dummy_key(self.graph, lower, upper, self._rng, claimed)
                if dummy_key is None:
                    if tracker is not None:
                        tracker.mark_list(violation.level, violation.prefix)
                    continue
                prefix = self.graph.membership(lower).prefix(violation.level)
                pending.append((dummy_key, prefix.bits + (1 - violation.bit,)))
                claimed.add(dummy_key)
            recorder.insert_dummy_run(pending)
            inserted += len(pending)
            if not pending:
                break
        return inserted

    # --------------------------------------------------------------- analysis
    def total_cost(self) -> int:
        """Equation-1 cost of every request served so far (``costs.total_cost``)."""
        return self.costs.total_cost

    def working_set_bound(self) -> float:
        """``WS(σ)`` of the sequence served so far (Theorem 1 lower bound)."""
        return self.history.working_set_bound()

    def dummy_count(self) -> int:
        return self.graph.dummy_node_count

    def plan_size_histogram(self) -> Dict[int, int]:
        """Distribution of request-plan sizes: ``len(ops) -> request count``.

        Maintained as an O(1)-per-request running histogram, so the artifact
        pipeline can report per-workload plan-size percentiles — the
        empirical face of the paper's locality claim (most requests emit
        tiny plans).
        """
        return dict(self._plan_size_hist)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicSkipGraph(n={self.n}, height={self.height()}, "
            f"requests={self.costs.requests}, a={self.config.a})"
        )
