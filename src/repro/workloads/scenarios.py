"""Churn-capable scenario layer: event schedules over a live DSG instance.

A plain workload (:mod:`repro.workloads.sequences`) is a fixed request list
over a fixed node population.  A :class:`Scenario` generalises it to an
*event schedule*: an initial key population plus an ordered stream of

* :class:`RequestEvent` — a communication request ``(source, destination)``,
* :class:`JoinEvent` — a new peer enters (Section IV-G node addition),
* :class:`LeaveEvent` — a peer departs (Section IV-G node removal),
* :class:`CrashEvent` — a peer fails crash-stop: no goodbye, links dark,
  repaired only by the survivors (:func:`failure_scenario` generates
  these; the semantic difference from a leave exists only at the
  message-passing layer, where the dark window is observable).  A crash
  may be flagged ``mid_wave``: it lands while the current wave's requests
  are still in flight instead of at a quiescent wave boundary,
* :class:`RecoveryEvent` — a previously crashed peer comes back.  Recovery
  is *rejoin as a fresh identity*: the engine's re-entry ban is lifted and
  the key re-enters through the kernel's join path with newly drawn
  membership bits — never a resurrection of its old tables (which the
  survivors' repair wave already excised),

which is what production overlays actually look like: traffic interleaved
with membership churn.  Because joins and leaves change the population the
later traffic may draw from, scenarios are generated *online* — the
samplers track the alive set as the schedule is produced — and replayed
deterministically.

:func:`run_scenario` — the one scenario runner — executes a scenario
against any :class:`~repro.baselines.adapter.ServingAlgorithm` (by default
a :class:`~repro.baselines.adapter.DSGAdapter` over a fresh
:class:`~repro.core.dsg.DynamicSkipGraph`), one
:meth:`~repro.baselines.adapter.ServingAlgorithm.request` per request
event, and returns a :class:`ScenarioReport` with the cost/throughput
accounting.  Passing ``algorithm=`` drives a baseline (static skip graph,
offline-static, SplayNet, oracle) through the *same* schedule, which is how
E9 and ``benchmarks/bench_e09_comparison.py`` make churn-capable
comparisons at scale.

:func:`churn_scenario` builds general traffic-plus-churn schedules;
:func:`scale_scenario` builds the 10k-node/100k-request shape used by the
E13 experiment and ``benchmarks/bench_e13_scale.py``: heavy-hitter pairs
placed with key-space locality, a trickle of far "cross" pairs that force
deep transformations, periodic flash crowds around hotspots, and steady
background churn.

This module is the schedule side only — event types, :class:`Scenario`,
:func:`run_scenario` and three generators — and imports nothing from the
message-passing layers.  The same schedules replay against a live CONGEST
simulator through :func:`repro.distributed.bridge.replay_scenario`.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.adapter import DSGAdapter, ServingAlgorithm
from repro.baselines.base import BaselineRun, RequestCost
from repro.core.dsg import DSGConfig
from repro.simulation.rng import make_rng
from repro.skipgraph.node import Key

__all__ = [
    "CrashEvent",
    "JoinEvent",
    "LeaveEvent",
    "RecoveryEvent",
    "RequestEvent",
    "Scenario",
    "ScenarioReport",
    "churn_scenario",
    "failure_scenario",
    "run_scenario",
    "scale_scenario",
    "scenario_requests",
    "workload_scenario",
]

Request = Tuple[Key, Key]


@dataclass(frozen=True)
class RequestEvent:
    """A communication request between two alive peers."""

    source: Key
    destination: Key


@dataclass(frozen=True)
class JoinEvent:
    """A new peer with ``key`` enters the overlay."""

    key: Key


@dataclass(frozen=True)
class LeaveEvent:
    """The peer with ``key`` departs the overlay."""

    key: Key


@dataclass(frozen=True)
class CrashEvent:
    """The peer with ``key`` fails crash-stop (no goodbye, links go dark).

    ``mid_wave`` marks a crash generated to land while the current wave's
    requests are still in flight (the failure arena fires it between
    request injections instead of at the quiescent wave boundary); the
    default ``False`` keeps every pre-existing schedule's semantics.
    """

    key: Key
    mid_wave: bool = False


@dataclass(frozen=True)
class RecoveryEvent:
    """The previously crashed peer with ``key`` rejoins as a fresh identity."""

    key: Key


Event = Union[RequestEvent, JoinEvent, LeaveEvent, CrashEvent, RecoveryEvent]


@dataclass
class Scenario:
    """An initial population plus a deterministic event schedule."""

    name: str
    initial_keys: List[Key]
    events: List[Event]
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def request_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, RequestEvent))

    @property
    def join_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, JoinEvent))

    @property
    def leave_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, LeaveEvent))

    @property
    def crash_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, CrashEvent))

    @property
    def recovery_count(self) -> int:
        return sum(1 for event in self.events if isinstance(event, RecoveryEvent))


@dataclass
class ScenarioReport:
    """Outcome of one :func:`run_scenario` execution.

    ``algorithm`` names the :class:`~repro.baselines.adapter.ServingAlgorithm`
    that served the schedule (``"dsg"`` for the default adapter).
    ``working_set_bound`` is the bound accumulated over *this scenario's*
    requests (a delta of the algorithm's running sum, so reports stay
    scoped when an adapter serves several scenarios) and ``dummy_count``
    the structure's current auxiliary nodes; both are 0 for algorithms
    that do not track them (only DSG does).  ``costs`` holds one
    :class:`~repro.baselines.base.RequestCost` per request when the run
    kept them.  ``max_height`` is display-only: the structure's height
    sampled at the start, after every churn event and at the end — not per
    request (the height lemma is checked per request from
    ``RequestResult.height_after``).
    """

    scenario: str
    initial_nodes: int
    final_nodes: int
    requests: int
    joins: int
    leaves: int
    total_cost: int
    total_routing_cost: int
    average_cost: float
    working_set_bound: float
    final_height: int
    max_height: int
    dummy_count: int
    elapsed_seconds: float
    costs: Optional[List[RequestCost]] = None
    algorithm: str = "dsg"
    crashes: int = 0
    recoveries: int = 0

    @property
    def requests_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.requests / self.elapsed_seconds


# --------------------------------------------------------------------- runner
def run_scenario(
    scenario: Scenario,
    config: Optional[DSGConfig] = None,
    keep_costs: bool = False,
    algorithm: Optional[ServingAlgorithm] = None,
) -> ScenarioReport:
    """Execute ``scenario`` on any :class:`ServingAlgorithm`.

    With no ``algorithm`` a fresh :class:`~repro.core.dsg.DynamicSkipGraph`
    is built over ``scenario.initial_keys`` (``config`` applies to it) and
    driven through a :class:`~repro.baselines.adapter.DSGAdapter`.  Pass a
    pre-built adapter — a baseline, or a ``DSGAdapter`` around a customised
    instance — to replay the identical schedule on a different algorithm.

    Every request event is one
    :meth:`~repro.baselines.adapter.ServingAlgorithm.request`, recorded
    into a run scoped to this scenario; joins and leaves call the
    membership operations (Section IV-G for the skip-graph structures).
    ``keep_costs=True`` returns the per-request costs on the report.
    """
    if algorithm is None:
        algorithm = DSGAdapter(keys=scenario.initial_keys, config=config)
    elif config is not None:
        raise ValueError("config applies to the default DSG algorithm only")
    run = BaselineRun(name=algorithm.name, keep_costs=keep_costs)
    # working_set_bound() is a running sum over the request stream, so its
    # delta is exactly this scenario's contribution — keeping every report
    # field scoped to the scenario even when the adapter is reused.
    base_ws = algorithm.working_set_bound()
    joins = leaves = crashes = recoveries = 0
    max_height = algorithm.height()
    started = time.perf_counter()
    for event in scenario.events:
        if isinstance(event, RequestEvent):
            run.record(algorithm.request(event.source, event.destination))
            continue
        if isinstance(event, JoinEvent):
            algorithm.join(event.key)
            joins += 1
        elif isinstance(event, CrashEvent):
            # A centralized structure has no dark window: the crash
            # degenerates to an immediate repair, i.e. a leave minus the
            # goodbye (which only the message-passing layer can observe).
            algorithm.leave(event.key)
            crashes += 1
        elif isinstance(event, RecoveryEvent):
            # Rejoin as a fresh identity: the crash already removed the key
            # (above), so recovery is exactly a join with new bits.
            algorithm.join(event.key)
            recoveries += 1
        else:
            algorithm.leave(event.key)
            leaves += 1
        max_height = max(max_height, algorithm.height())
    elapsed = time.perf_counter() - started

    final_height = algorithm.height()
    return ScenarioReport(
        scenario=scenario.name,
        initial_nodes=len(scenario.initial_keys),
        final_nodes=algorithm.population(),
        requests=run.requests,
        joins=joins,
        leaves=leaves,
        total_cost=run.total_cost,
        total_routing_cost=run.total_routing,
        average_cost=run.average_cost,
        working_set_bound=algorithm.working_set_bound() - base_ws,
        final_height=final_height,
        max_height=max(max_height, final_height),
        dummy_count=algorithm.dummy_count(),
        elapsed_seconds=elapsed,
        costs=run.costs if keep_costs else None,
        algorithm=algorithm.name,
        crashes=crashes,
        recoveries=recoveries,
    )


def scenario_requests(scenario: Scenario) -> List[Request]:
    """The scenario's request events as plain ``(source, destination)`` pairs.

    This is what the offline-static baseline optimises over and what the
    working-set bound of Theorem 1 is computed from (the bound depends only
    on the request sequence, never on the serving algorithm).
    """
    return [
        (event.source, event.destination)
        for event in scenario.events
        if isinstance(event, RequestEvent)
    ]


def workload_scenario(
    name: str,
    keys: List[Key],
    length: int,
    seed: Optional[int] = None,
    **kwargs,
) -> Scenario:
    """Lift a churn-free workload into a :class:`Scenario`.

    Wraps :func:`repro.workloads.sequences.generate_workload` so that plain
    request sequences and churn schedules flow through the same
    scenario-driven comparison machinery (E9 runs both kinds).
    """
    from repro.workloads.sequences import generate_workload

    requests = generate_workload(name, keys, length, seed=seed, **kwargs)
    return Scenario(
        name=name,
        initial_keys=list(keys),
        events=[RequestEvent(u, v) for u, v in requests],
        params={"workload": name, "n": len(keys), "length": length, "seed": seed, **kwargs},
    )


# ----------------------------------------------------------------- generators
def churn_scenario(
    n: int = 256,
    length: int = 2000,
    seed: Optional[int] = None,
    base: str = "temporal",
    churn_rate: float = 0.005,
    working_set_size: int = 8,
    drift_probability: float = 0.02,
    pairs: int = 8,
    hot_fraction: float = 0.9,
    name: Optional[str] = None,
    initial_keys: Optional[Sequence[Key]] = None,
    next_key: Optional[Key] = None,
) -> Scenario:
    """Traffic interleaved with node join/leave churn.

    The schedule has ``length`` slots.  Each slot is, with probability
    ``churn_rate``, a churn event — alternating between a :class:`JoinEvent`
    of a fresh key and a :class:`LeaveEvent` of a uniformly chosen inactive
    peer, keeping the population near ``n`` — and a request from the base
    sampler otherwise.  Samplers draw only from peers alive at that point of
    the schedule, and the actively communicating nodes are shielded from
    departure (a request to a departed peer would be invalid).

    Parameters
    ----------
    n:
        Initial population: keys ``1..n``; joined peers get fresh keys above.
    length:
        Number of schedule slots.
    seed:
        RNG seed; the whole schedule is deterministic given it.
    base:
        Traffic model between churn events: ``"temporal"`` (sliding working
        set of ``working_set_size`` nodes with ``drift_probability`` drift),
        ``"hot-pairs"`` (``pairs`` fixed pairs taking ``hot_fraction`` of
        traffic) or ``"uniform"``.
    churn_rate:
        Per-slot probability of a churn event.
    initial_keys:
        Explicit starting population (default: keys ``1..n``; ``n`` is
        ignored when given).  Lets a second churn wave start from the
        population a first wave left behind.
    next_key:
        First key issued to joining peers (default: one above the current
        population's maximum).  When chaining waves, pass the previous
        wave's high-water mark — ``max(alive)`` alone cannot know about an
        earlier joiner that has already departed, so relying on the
        default across waves may re-issue such a key.
    """
    rng = make_rng(seed)
    alive = list(initial_keys) if initial_keys is not None else list(range(1, n + 1))
    n = len(alive)
    if n < max(2 * pairs, working_set_size, 2) + 1:
        raise ValueError("population too small for the requested sampler")
    if next_key is None:
        next_key = max(alive) + 1
    start_keys = list(alive)

    if base == "temporal":
        active = rng.sample(alive, working_set_size)
    elif base == "hot-pairs":
        sampled = rng.sample(alive, 2 * pairs)
        hot = [(sampled[2 * i], sampled[2 * i + 1]) for i in range(pairs)]
        active = [key for pair in hot for key in pair]
    elif base == "uniform":
        active = []
    else:
        raise KeyError(f"unknown base sampler {base!r}")

    def draw_request() -> Request:
        if base == "temporal":
            if rng.random() < drift_probability:
                outsiders = [key for key in alive if key not in active]
                if outsiders:
                    active[rng.randrange(len(active))] = rng.choice(outsiders)
            u, v = rng.sample(active, 2)
            return (u, v)
        if base == "hot-pairs" and rng.random() < hot_fraction:
            return hot[rng.randrange(len(hot))]
        u = rng.choice(alive)
        v = rng.choice(alive)
        while v == u:
            v = rng.choice(alive)
        return (u, v)

    events: List[Event] = []
    join_next = True
    for _ in range(length):
        if rng.random() < churn_rate:
            if join_next:
                events.append(JoinEvent(next_key))
                alive.append(next_key)
                next_key += 1
            else:
                protected = set(active)
                candidates = [key for key in alive if key not in protected]
                if candidates:
                    victim = rng.choice(candidates)
                    alive.remove(victim)
                    events.append(LeaveEvent(victim))
            join_next = not join_next
        else:
            u, v = draw_request()
            events.append(RequestEvent(u, v))

    return Scenario(
        name=name or f"churn-{base}",
        initial_keys=start_keys,
        events=events,
        params={
            "n": n,
            "length": length,
            "seed": seed,
            "base": base,
            "churn_rate": churn_rate,
        },
    )


def scale_scenario(
    n: int = 10_000,
    length: int = 100_000,
    seed: Optional[int] = None,
    hot_pair_count: int = 64,
    cross_pair_count: int = 8,
    cross_fraction: float = 0.01,
    flash_count: int = 2,
    flash_fraction: float = 0.1,
    crowd_size: int = 12,
    churn_rate: float = 0.0005,
    name: Optional[str] = None,
) -> Scenario:
    """The 10k-node scale shape: skewed local traffic, far pairs, flashes, churn.

    Traffic composition (motivated by datacenter measurement studies: a few
    heavy-hitter flows carry most bytes, most flows stay within their
    neighbourhood, hotspots flare up and churn is constant):

    * ``hot_pair_count`` heavy-hitter pairs placed with *overlay locality* —
      each pair shares a deep linked list of the balanced start topology
      (in that construction, bit ``i`` of a node is bit ``i`` of its rank in
      LSB-first binary, so topological neighbours are ranks equal modulo a
      power of two).  Think services deployed next to each other in the
      overlay; DSG serves their steady state at O(1) per request.
    * ``cross_pair_count`` topologically far pairs get a ``cross_fraction``
      trickle; their first contacts trigger deep multi-level
      transformations, exercising the expensive end of the cost model at
      full scale (and re-clustering part of the structure each time).
    * ``flash_count`` flash phases concentrate ``flash_fraction`` of the
      traffic on crowd -> hotspot requests, the crowd drawn from the
      hotspot's topological neighbourhood (a mid-level list of the start
      topology, so a flash exercises bounded mid-size transformations).
    * churn joins/leaves arrive at ``churn_rate`` per slot, alternating, on
      peers outside the active sets.

    The schedule opens with a warmup prologue touching every pair the body
    will request — heavy hitters first, then the flash crowds, then the far
    pairs.  Ordering matters at scale: a level-0 transformation rewrites
    the membership vector of *every* node, so a far pair served before the
    local pairs have clustered would turn each of their first contacts into
    a full rebuild as well.  Warming local pairs on the pristine topology
    keeps the deep transformations limited to the ``cross_pair_count``
    first contacts; after each one, every active pair re-sinks with a
    single mid-size transformation on its next request.

    Every endpoint a request may draw is protected from departure, so the
    schedule is valid by construction.
    """
    rng = make_rng(seed)
    if n < 16 * crowd_size:
        raise ValueError("scale scenario expects a large population")
    alive = list(range(1, n + 1))
    next_key = n + 1

    # Heavy hitters: pairs of ranks (r, r + stride) where the stride is the
    # largest power of two below n.  In the balanced start topology the two
    # nodes share every membership bit except the top one, i.e. they sit in
    # a list of size two — maximal overlay locality.
    stride = 1 << ((n - 1).bit_length() - 1)
    starts = rng.sample(range(n - stride), min(hot_pair_count, n - stride))
    hot = [(start + 1, start + stride + 1) for start in starts]
    hot_nodes = {key for pair in hot for key in pair}

    non_hot = [key for key in alive if key not in hot_nodes]
    if cross_pair_count > 0 and len(non_hot) < 2 * cross_pair_count:
        raise ValueError(
            "not enough keys outside the hot pairs for the requested cross pairs; "
            "lower hot_pair_count or cross_pair_count"
        )
    cross: List[Request] = []
    while len(cross) < cross_pair_count:
        u, v = rng.sample(non_hot, 2)
        cross.append((u, v))
    cross_nodes = {key for pair in cross for key in pair}

    # Flash phases: fixed windows of the schedule.  The crowd shares a
    # mid-level list with the hotspot: ranks equal to the hotspot's modulo
    # 2^m, with m chosen so that the shared list holds a few crowds' worth
    # of nodes.
    flash_slots = int(length * flash_fraction)
    per_flash = flash_slots // max(flash_count, 1)
    flash_windows: List[Tuple[int, int, Key, List[Key]]] = []
    protected = set(hot_nodes) | cross_nodes
    modulus = 1
    while n // (2 * modulus) > 4 * crowd_size:
        modulus *= 2
    for index in range(flash_count):
        window_start = int((index + 0.5) * length / (flash_count + 0.5))
        hotspot_rank = rng.randrange(n)
        hotspot = hotspot_rank + 1
        neighbourhood = [
            rank + 1 for rank in range(hotspot_rank % modulus, n, modulus) if rank != hotspot_rank
        ]
        crowd = rng.sample(neighbourhood, min(crowd_size, len(neighbourhood)))
        flash_windows.append((window_start, window_start + per_flash, hotspot, crowd))
        protected.add(hotspot)
        protected.update(crowd)

    events: List[Event] = [RequestEvent(u, v) for u, v in rng.sample(hot, len(hot))]
    for _, _, hotspot, crowd in flash_windows:
        events.extend(RequestEvent(member, hotspot) for member in crowd)
    events.extend(RequestEvent(u, v) for u, v in cross)
    join_next = True
    for slot in range(length - len(events)):
        if rng.random() < churn_rate:
            if join_next:
                events.append(JoinEvent(next_key))
                alive.append(next_key)
                next_key += 1
            else:
                victim = rng.choice(alive)
                if victim not in protected:
                    alive.remove(victim)
                    events.append(LeaveEvent(victim))
            join_next = not join_next
            continue
        flash = next(
            (window for window in flash_windows if window[0] <= slot < window[1]), None
        )
        if flash is not None and rng.random() < 0.9:
            _, _, hotspot, crowd = flash
            events.append(RequestEvent(rng.choice(crowd), hotspot))
        elif cross and rng.random() < cross_fraction:
            u, v = cross[rng.randrange(len(cross))]
            events.append(RequestEvent(u, v))
        else:
            u, v = hot[rng.randrange(len(hot))]
            events.append(RequestEvent(u, v))

    return Scenario(
        name=name or "scale-mix",
        initial_keys=list(range(1, n + 1)),
        events=events,
        params={
            "n": n,
            "length": length,
            "seed": seed,
            "hot_pairs": hot_pair_count,
            "cross_pairs": cross_pair_count,
            "flashes": flash_count,
            "churn_rate": churn_rate,
        },
    )


def failure_scenario(
    n: int = 256,
    length: int = 2000,
    seed: Optional[int] = None,
    rng=None,
    mode: str = "independent",
    crash_rate: float = 0.01,
    rack_count: int = 16,
    rack_failures: int = 2,
    flash_size: int = 8,
    stale_fraction: float = 0.05,
    adjacent_crash_limit: Optional[int] = None,
    recovery_fraction: float = 0.0,
    recovery_delay: Tuple[int, int] = (8, 64),
    mid_wave_fraction: float = 0.0,
    name: Optional[str] = None,
) -> Scenario:
    """Traffic interleaved with crash-stop failures (no joins, no goodbyes).

    The schedule has ``length`` slots over keys ``1..n``.  Failures never
    take the population below ``n // 2`` (half the overlay survives, the
    regime the route-around machinery is built for), and arrive in one of
    three shapes:

    * ``"independent"`` — each slot is a :class:`CrashEvent` of a uniform
      alive peer with probability ``crash_rate`` (fail-stop background
      attrition);
    * ``"racks"`` — keys are dealt into ``rack_count`` racks by a random
      shuffle (so rack placement is uncorrelated with key order, i.e. a
      rack failure punches scattered holes in every level list), and
      ``rack_failures`` whole racks crash at evenly spaced points of the
      schedule, every member in consecutive events (a correlated burst);
    * ``"flash"`` — a single burst of ``flash_size`` simultaneous crashes
      at the schedule's midpoint (a flash disconnect).

    Every other slot is a :class:`RequestEvent` whose source is always
    alive; with probability ``stale_fraction`` (once anyone has crashed)
    the destination is a *crashed* peer — a request issued by a client
    holding a stale reference.  Those are the schedule's intended
    failures: the message-passing arena counts them as ``failed_requests``
    while every surviving-key request must still be delivered.  Because
    stale destinations are no longer in a centralized structure after the
    crash-as-leave repair, :func:`run_scenario` accepts failure scenarios
    only with ``stale_fraction = 0``; the dark-window semantics live in
    :mod:`repro.distributed.failover`.

    ``adjacent_crash_limit`` encodes the tolerance assumption of a
    k-redundant overlay: between two repair waves it survives at most
    ``k - 1`` *consecutive* (in key order) failures — a wider hole has no
    surviving list member within stepping distance, and routes to keys
    beyond it legitimately strand.  When set, a victim whose crash would
    produce a run longer than the limit within the current unrepaired
    burst is skipped (it survives); ``None`` leaves failures unguarded.
    The arena benchmark passes ``k - 1`` so its every-survivor-delivered
    gate holds by the redundancy guarantee, not by luck.

    ``recovery_fraction`` gives every victim an independent chance to come
    back: a :class:`RecoveryEvent` is scheduled ``rng.randint(*recovery_delay)``
    slots after the crash (dropped if that falls past the schedule's end) —
    the key rejoins as a fresh identity and re-enters the alive pool, the
    stale-destination pool forgets it.  Once any key has recovered, request
    slots steer their destination to a recovered key with the same
    ``stale_fraction`` probability (mirroring the stale steering), so the
    schedule provably routes *to* rejoined identities even when they are a
    vanishing fraction of a large arena — those requests must be delivered,
    which is exactly the recovered-keys-serve gate.  ``mid_wave_fraction`` makes request
    slots fire a crash *mid-wave* with that probability (victim drawn from
    alive peers that are not an endpoint of the current wave's requests, so
    survivor-delivery accounting stays statically checkable); the event
    carries ``mid_wave=True`` so the arena injects it between in-flight
    requests instead of at the quiescent boundary.  Both default to ``0.0``,
    which leaves the classic shapes' rng stream byte-identical — the extra
    coins are only drawn when the feature is on.

    Pass ``rng`` (any :mod:`random`-compatible generator) to draw from an
    existing deterministic stream; otherwise one is built from ``seed``
    via :func:`~repro.simulation.rng.make_rng`.  Given the same stream the
    schedule — recovery timing and mid-wave offsets included — and
    therefore every delivered/failed count downstream is identical.
    """
    if mode not in ("independent", "racks", "flash"):
        raise KeyError(f"unknown failure mode {mode!r}")
    if n < 4:
        raise ValueError("failure scenario expects at least 4 peers")
    if rng is None:
        rng = make_rng(seed)
    alive = list(range(1, n + 1))
    crashed: List[Key] = []
    floor = max(2, n // 2)

    # Correlated modes pre-place their bursts; crashes beyond the survivor
    # floor are dropped (never reordered), keeping the schedule valid.
    burst_slots: Dict[int, List[Key]] = {}
    if mode == "racks":
        shuffled = list(alive)
        rng.shuffle(shuffled)
        racks = [shuffled[index::rack_count] for index in range(rack_count)]
        doomed = rng.sample(range(rack_count), min(rack_failures, rack_count))
        for index, rack in enumerate(doomed):
            slot = int((index + 0.5) * length / (len(doomed) + 0.5))
            burst_slots[slot] = list(racks[rack])
    elif mode == "flash":
        burst_slots[length // 2] = rng.sample(alive, min(flash_size, n - floor))

    # Guard state: a burst is the run of unrepaired crashes — everything
    # since the last wave boundary (exactly what one repair wave later
    # closes up; with mid-wave crashes on, the burst spans the wave's
    # requests too, since mid victims share the boundary victims' repair).
    # ``snapshot`` is the alive order at burst start, ``recent`` the
    # victims taken so far.  ``requests_in_wave`` / ``wave_endpoints``
    # track the current wave's traffic so a mid-wave victim never is (or
    # becomes) an endpoint of a request already in flight.
    snapshot: List[Key] = []
    positions: Dict[Key, int] = {}
    recent: set = set()
    in_burst = False
    requests_in_wave = 0
    wave_endpoints: set = set()
    pending_recoveries: Dict[int, List[Key]] = {}
    recovered: List[Key] = []

    def take_victim(key: Key, slot: int, mid: bool = False) -> bool:
        nonlocal in_burst, requests_in_wave
        if not in_burst or (not mid and requests_in_wave):
            # Wave boundary: the previous burst's holes are repaired before
            # this crash lands, so the adjacency guard starts fresh.
            snapshot[:] = alive
            positions.clear()
            positions.update((member, index) for index, member in enumerate(snapshot))
            recent.clear()
            in_burst = True
        if not mid:
            requests_in_wave = 0
            wave_endpoints.clear()
        if adjacent_crash_limit is not None:
            run = 1
            index = positions[key] - 1
            while index >= 0 and snapshot[index] in recent:
                run += 1
                index -= 1
            index = positions[key] + 1
            while index < len(snapshot) and snapshot[index] in recent:
                run += 1
                index += 1
            if run > adjacent_crash_limit:
                return False
        recent.add(key)
        alive.remove(key)
        crashed.append(key)
        if key in recovered:
            recovered.remove(key)
        events.append(CrashEvent(key, mid_wave=mid))
        if recovery_fraction > 0.0 and rng.random() < recovery_fraction:
            due = slot + rng.randint(recovery_delay[0], recovery_delay[1])
            if due < length:
                pending_recoveries.setdefault(due, []).append(key)
        return True

    events: List[Event] = []
    for slot in range(length):
        due = pending_recoveries.pop(slot, None)
        if due:
            for key in due:
                events.append(RecoveryEvent(key))
                insort(alive, key)
                crashed.remove(key)
                recovered.append(key)
            # A recovery is a wave boundary: the arena repairs every open
            # hole before the key rejoins, so the burst and wave reset.
            in_burst = False
            requests_in_wave = 0
            wave_endpoints.clear()
        burst = burst_slots.get(slot)
        if burst is not None:
            for key in burst:
                if len(alive) <= floor:
                    break
                take_victim(key, slot)
            continue
        if mode == "independent" and len(alive) > floor and rng.random() < crash_rate:
            take_victim(rng.choice(alive), slot)
            continue
        if (
            mid_wave_fraction > 0.0
            and requests_in_wave
            and len(alive) > floor
            and rng.random() < mid_wave_fraction
        ):
            candidates = [key for key in alive if key not in wave_endpoints]
            if candidates and take_victim(rng.choice(candidates), slot, mid=True):
                continue
        source = rng.choice(alive)
        destination: Optional[Key] = None
        if crashed and rng.random() < stale_fraction:
            destination = rng.choice(crashed)
        elif recovered and rng.random() < stale_fraction:
            # Steer toward a rejoined identity (coin drawn only once a
            # recovery happened, so recovery-free streams are untouched).
            pool = [key for key in recovered if key != source]
            if pool:
                destination = rng.choice(pool)
        if destination is None:
            destination = rng.choice(alive)
            while destination == source:
                destination = rng.choice(alive)
        events.append(RequestEvent(source, destination))
        requests_in_wave += 1
        wave_endpoints.add(source)
        wave_endpoints.add(destination)

    return Scenario(
        name=name or f"failures-{mode}",
        initial_keys=list(range(1, n + 1)),
        events=events,
        params={
            "n": n,
            "length": length,
            "seed": seed,
            "mode": mode,
            "crash_rate": crash_rate,
            "rack_count": rack_count,
            "rack_failures": rack_failures,
            "flash_size": flash_size,
            "stale_fraction": stale_fraction,
            "adjacent_crash_limit": adjacent_crash_limit,
            "recovery_fraction": recovery_fraction,
            "recovery_delay": recovery_delay,
            "mid_wave_fraction": mid_wave_fraction,
        },
    )
