"""Request-sequence generators (see the package docstring for the catalogue).

Every generator shares the same contract:

* it takes the key population, the sequence ``length`` and a ``seed`` plus
  generator-specific keyword parameters;
* it is fully deterministic given its seed (same seed, same sequence);
* it returns a list of ``(source, destination)`` tuples with
  ``source != destination`` whose endpoints are all drawn from ``keys``.

:data:`WORKLOADS` registers each generator under the name the experiments
and the ``dsg-experiments`` CLI use; :func:`generate_workload` is the single
dispatch point.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.simulation.rng import make_rng
from repro.skipgraph.node import Key

__all__ = [
    "WORKLOADS",
    "community_traffic",
    "flash_crowd",
    "generate_workload",
    "hot_pairs",
    "repeated_pair",
    "temporal_locality",
    "uniform_pairs",
    "zipf_pairs",
    "zipf_with_drift",
]

Request = Tuple[Key, Key]


def _distinct_pair(rng: random.Random, population: Sequence[Key]) -> Request:
    u = rng.choice(population)
    v = rng.choice(population)
    while v == u:
        v = rng.choice(population)
    return (u, v)


def uniform_pairs(keys: Sequence[Key], length: int, seed: Optional[int] = None) -> List[Request]:
    """Independent uniformly random source/destination pairs.

    Every request draws source and destination independently and uniformly
    from ``keys`` (rejecting self-pairs), so there is no skew of any kind —
    the distribution static skip graphs are optimised for and the worst case
    for any self-adjusting scheme (working set numbers stay near ``n``).

    Parameters
    ----------
    keys:
        Key population (at least two keys).
    length:
        Number of requests to generate.
    seed:
        RNG seed; the sequence is a deterministic function of it.
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < 2:
        raise ValueError("need at least two keys")
    return [_distinct_pair(rng, keys) for _ in range(length)]


def repeated_pair(keys: Sequence[Key], length: int, seed: Optional[int] = None) -> List[Request]:
    """The same (randomly chosen) pair repeated ``length`` times.

    Maximal temporal locality: after the first request the pair's working
    set number is 2 forever, so any algorithm with the working set property
    must serve the tail at O(1) per request — the best case for DSG and the
    worst *relative* case for a static structure whose pair happens to be
    far apart.

    Parameters
    ----------
    keys:
        Key population (at least two keys); the pair is drawn uniformly.
    length:
        Number of repetitions.
    seed:
        RNG seed deciding which pair is drawn.
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < 2:
        raise ValueError("need at least two keys")
    pair = _distinct_pair(rng, keys)
    return [pair] * length


def hot_pairs(
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    pairs: int = 4,
    hot_fraction: float = 0.9,
) -> List[Request]:
    """A few fixed "hot" pairs receive ``hot_fraction`` of the traffic.

    ``2 * pairs`` distinct endpoints are sampled once and paired up; each
    request is one of those hot pairs with probability ``hot_fraction``
    (chosen uniformly among them) and an independent uniform pair otherwise.
    Models the heavy-hitter flows of datacenter traffic: most of the load
    concentrates on a fixed, small set of communicating pairs.

    Parameters
    ----------
    keys:
        Key population (at least ``2 * pairs`` keys).
    length:
        Number of requests to generate.
    seed:
        RNG seed.
    pairs:
        Number of hot pairs (endpoints are disjoint across pairs).
    hot_fraction:
        Probability that a request is hot traffic rather than background.
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < 2 * pairs:
        raise ValueError("need at least 2*pairs keys")
    sampled = rng.sample(keys, 2 * pairs)
    hot = [(sampled[2 * i], sampled[2 * i + 1]) for i in range(pairs)]
    requests: List[Request] = []
    for _ in range(length):
        if rng.random() < hot_fraction:
            requests.append(hot[rng.randrange(pairs)])
        else:
            requests.append(_distinct_pair(rng, keys))
    return requests


def zipf_pairs(
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    exponent: float = 1.2,
) -> List[Request]:
    """Endpoints drawn Zipf-distributed over a random permutation of the keys.

    The node of popularity rank ``r`` (1-based) is drawn with probability
    proportional to ``1 / r**exponent``; source and destination are drawn
    independently (self-pairs redrawn).  The permutation decouples
    popularity rank from key order, so the skew is purely a *communication*
    skew and not a key-space locality artefact.

    Parameters
    ----------
    keys:
        Key population (at least two keys).
    length:
        Number of requests to generate.
    seed:
        RNG seed (drives both the rank permutation and the draws).
    exponent:
        Zipf exponent; larger means heavier concentration on the top ranks
        (1.2 is in the range reported for real communication graphs).
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < 2:
        raise ValueError("need at least two keys")
    permuted = list(keys)
    rng.shuffle(permuted)
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(len(permuted))]
    requests: List[Request] = []
    for _ in range(length):
        u, v = rng.choices(permuted, weights=weights, k=2)
        while v == u:
            v = rng.choices(permuted, weights=weights, k=1)[0]
        requests.append((u, v))
    return requests


def temporal_locality(
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    working_set_size: int = 8,
    drift_probability: float = 0.05,
) -> List[Request]:
    """A small active set generates the traffic; it drifts slowly over time.

    Requests are uniform pairs *within* an active set of
    ``working_set_size`` nodes.  With probability ``drift_probability`` per
    request one member of the active set is replaced by a uniformly chosen
    outsider before the request is drawn, producing the sliding working sets
    the paper's yardstick (the working set number) is designed to capture.

    Parameters
    ----------
    keys:
        Key population (at least ``working_set_size`` keys).
    length:
        Number of requests to generate.
    seed:
        RNG seed.
    working_set_size:
        Size of the active set (the expected working set number of the
        steady state).
    drift_probability:
        Per-request probability of rotating one member out of the active
        set; ``1 / drift_probability`` is the expected lifetime of a member.
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < working_set_size:
        raise ValueError("working_set_size larger than the key population")
    active = rng.sample(keys, working_set_size)
    requests: List[Request] = []
    for _ in range(length):
        if rng.random() < drift_probability:
            leaving = rng.randrange(working_set_size)
            candidates = [key for key in keys if key not in active]
            if candidates:
                active[leaving] = rng.choice(candidates)
        requests.append(_distinct_pair(rng, active))
    return requests


def community_traffic(
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    communities: int = 4,
    intra_probability: float = 0.9,
) -> List[Request]:
    """Partition the nodes into communities; traffic is mostly intra-community.

    The keys are shuffled and dealt round-robin into ``communities`` equal
    groups.  Each request is a uniform pair inside one uniformly chosen
    community with probability ``intra_probability``, and a global uniform
    pair otherwise — the spatial locality of the paper's VM-migration
    motivation (tenants talk within their own cluster).

    Parameters
    ----------
    keys:
        Key population (at least two keys per community).
    length:
        Number of requests to generate.
    seed:
        RNG seed (drives the partition and the draws).
    communities:
        Number of equal-size communities.
    intra_probability:
        Probability that a request stays inside one community.
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < 2 * communities:
        raise ValueError("need at least two keys per community")
    shuffled = list(keys)
    rng.shuffle(shuffled)
    groups: List[List[Key]] = [shuffled[i::communities] for i in range(communities)]
    requests: List[Request] = []
    for _ in range(length):
        if rng.random() < intra_probability:
            group = groups[rng.randrange(communities)]
            requests.append(_distinct_pair(rng, group))
        else:
            requests.append(_distinct_pair(rng, keys))
    return requests


def zipf_with_drift(
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    exponent: float = 1.2,
    drift_every: Optional[int] = None,
    rotate_fraction: float = 0.1,
) -> List[Request]:
    """Zipf-skewed endpoints whose popularity ranking drifts over time.

    Like :func:`zipf_pairs`, endpoints are drawn with probability
    proportional to ``1 / rank**exponent`` over a random permutation of the
    keys — but every ``drift_every`` requests a ``rotate_fraction`` of the
    population, sampled uniformly, is promoted to the top ranks (pushing
    everyone else down).  Models trending content / migrating hotspots: the
    skew is stable in shape but the identity of the popular nodes changes,
    which forces a self-adjusting structure to keep re-clustering.

    Parameters
    ----------
    keys:
        Key population (at least two keys).
    length:
        Number of requests to generate.
    seed:
        RNG seed (permutation, drift times and draws).
    exponent:
        Zipf exponent of the popularity distribution.
    drift_every:
        Requests between two drift events; defaults to ``max(length // 10,
        1)`` (ten drifts over the sequence).
    rotate_fraction:
        Fraction of the population promoted to the top at each drift
        (at least one node).
    """
    rng = make_rng(seed)
    keys = list(keys)
    if len(keys) < 2:
        raise ValueError("need at least two keys")
    if drift_every is None:
        drift_every = max(length // 10, 1)
    if drift_every < 1:
        raise ValueError("drift_every must be positive")
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(len(ranked))]
    promoted = max(1, int(rotate_fraction * len(ranked)))
    requests: List[Request] = []
    for index in range(length):
        if index and index % drift_every == 0:
            risers = rng.sample(ranked, promoted)
            risers_set = set(risers)
            ranked = risers + [key for key in ranked if key not in risers_set]
        u, v = rng.choices(ranked, weights=weights, k=2)
        while v == u:
            v = rng.choices(ranked, weights=weights, k=1)[0]
        requests.append((u, v))
    return requests


def flash_crowd(
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    flashes: int = 3,
    flash_fraction: float = 0.5,
    crowd_size: int = 12,
    crowd_span: Optional[int] = None,
    flash_intensity: float = 0.9,
) -> List[Request]:
    """Background traffic punctuated by flash crowds around single hotspots.

    The sequence is split into ``2 * flashes + 1`` alternating phases of
    background and flash traffic (flash phases together cover
    ``flash_fraction`` of the requests).  Background requests are uniform
    pairs.  During a flash, a hotspot node is chosen and a crowd of
    ``crowd_size`` nodes from a window of ``crowd_span`` keys around it
    (key-space locality: the crowd shares the hotspot's neighbourhood)
    sends it requests with probability ``flash_intensity``, with uniform
    background traffic in between.  Models a suddenly popular item in a
    P2P overlay: load concentrates on one node and its surroundings, then
    disperses again.

    Parameters
    ----------
    keys:
        Key population (at least ``crowd_size + 1`` keys).
    length:
        Number of requests to generate.
    seed:
        RNG seed (hotspots, crowds and draws).
    flashes:
        Number of flash phases.
    flash_fraction:
        Fraction of all requests belonging to flash phases.
    crowd_size:
        Number of distinct nodes sending to the hotspot during one flash.
    crowd_span:
        Size of the key-window (in sort positions) around the hotspot the
        crowd is sampled from; defaults to ``4 * crowd_size``.
    flash_intensity:
        Within a flash phase, the probability that a request is crowd ->
        hotspot rather than background.
    """
    rng = make_rng(seed)
    keys = sorted(set(keys))
    if len(keys) < crowd_size + 1:
        raise ValueError("need at least crowd_size + 1 keys")
    if flashes < 1:
        raise ValueError("need at least one flash")
    if crowd_span is None:
        crowd_span = 4 * crowd_size
    flash_total = int(length * flash_fraction)
    flash_lengths = [flash_total // flashes] * flashes
    background_total = length - sum(flash_lengths)
    background_lengths = [background_total // (flashes + 1)] * (flashes + 1)
    background_lengths[0] += background_total - sum(background_lengths)

    requests: List[Request] = []
    for phase in range(flashes):
        requests.extend(_distinct_pair(rng, keys) for _ in range(background_lengths[phase]))
        hotspot_index = rng.randrange(len(keys))
        hotspot = keys[hotspot_index]
        window_low = max(0, hotspot_index - crowd_span // 2)
        window = [key for key in keys[window_low : window_low + crowd_span + 1] if key != hotspot]
        crowd = rng.sample(window, min(crowd_size, len(window)))
        for _ in range(flash_lengths[phase]):
            if crowd and rng.random() < flash_intensity:
                requests.append((rng.choice(crowd), hotspot))
            else:
                requests.append(_distinct_pair(rng, keys))
    requests.extend(_distinct_pair(rng, keys) for _ in range(background_lengths[flashes]))
    return requests


#: Registry used by the experiments and the CLI.
WORKLOADS: Dict[str, Callable[..., List[Request]]] = {
    "uniform": uniform_pairs,
    "repeated-pair": repeated_pair,
    "hot-pairs": hot_pairs,
    "zipf": zipf_pairs,
    "zipf-drift": zipf_with_drift,
    "temporal": temporal_locality,
    "community": community_traffic,
    "flash-crowd": flash_crowd,
}


def generate_workload(
    name: str,
    keys: Sequence[Key],
    length: int,
    seed: Optional[int] = None,
    **params,
) -> List[Request]:
    """Generate the workload ``name`` (see :data:`WORKLOADS`) deterministically."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOADS)}")
    return WORKLOADS[name](keys, length, seed=seed, **params)
