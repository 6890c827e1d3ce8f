"""The churn and scale schedule generators' event lists, pinned as SHA-256 digests.

:func:`repro.workloads.churn_scenario` and :func:`repro.workloads.scale_scenario`
draw every schedule the central benches, the E9 experiment and the
measurement spine serve, and have no second implementation to agree with;
these pins are what holds a rewrite of either generator to the one it
replaces.  A pin hashes ``repr`` of the initial keys and of every event, for
every parameter set a caller uses:

* the spine's ``central-aligned`` and ``central-churn`` workloads at the
  default seed: the quick shapes at all three epochs of the default run,
  the full shapes at epoch 0;
* ``bench_e09_comparison.py`` and ``bench_e15_100k.py`` at full size and
  under ``BENCH_QUICK``;
* the E9 experiment at its defaults, the CLI's ``--quick`` shape and the
  bench's;
* ``benchmarks/conftest.py::shielded_churn`` as e11's and e15's arenas call
  it: the first wave over keys ``1..n`` and (e11) the broadcast wave over
  the population the first one leaves.

What is hashed is ``repr`` of ints and strings, so the digests depend
neither on the Python version nor on hash seeds.  Re-record only for an
intended behaviour change::

    PYTHONPATH=src:tests python tests/workloads/test_generator_digest.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.simulation.rng import make_rng
from repro.workloads import JoinEvent, LeaveEvent, churn_scenario, scale_scenario

#: The spine's two ``scale_scenario`` workloads: ``(full, quick)`` shapes.
SPINE_ALIGNED = (
    dict(n=8192, length=8000, hot_pair_count=64, flash_count=2, crowd_size=12),
    dict(n=256, length=250, hot_pair_count=8, flash_count=1, crowd_size=8),
)
SPINE_CHURN = (
    dict(n=16384, length=16000, hot_pair_count=64),
    dict(n=512, length=200, hot_pair_count=8),
)
#: Epoch ``e`` of a spine run at seed 42 draws seed ``42 * 1000 + e``; the
#: default run has three epochs.  The full shapes pin epoch 0 only: one
#: ``central-churn`` draw there takes about 0.45 s, and the file keeps
#: within 2 s.
SPINE_EPOCH_SEEDS = {"full": (42_000,), "quick": (42_000, 42_001, 42_002)}


def _spine(shapes, **fixed):
    full, quick = shapes
    return [dict(shape, seed=seed, cross_pair_count=0, **fixed)
            for size, shape in (("full", full), ("quick", quick)) for seed in SPINE_EPOCH_SEEDS[size]]


def _shielded_waves(n, churn_length, route_pairs, seed, broadcast):
    """``shielded_churn``'s ``churn_scenario`` calls in ``routing_under_churn``
    and, with ``broadcast``, e11's second wave: its start population is what
    the first wave leaves once the routed endpoints' leaves are dropped."""
    keys = list(range(1, n + 1))
    rng = make_rng(seed)
    protected = {key for _ in range(route_pairs) for key in rng.sample(keys, 2)}
    first = dict(length=churn_length, seed=seed, churn_rate=0.5, initial_keys=keys)
    calls = [(churn_scenario, first)]
    if broadcast:
        alive, joins = set(keys), 0
        for event in churn_scenario(**first).events:
            if isinstance(event, JoinEvent):
                alive.add(event.key)
                joins += 1
            elif isinstance(event, LeaveEvent) and event.key not in protected:
                alive.discard(event.key)
        members = sorted(alive)
        calls.append((churn_scenario, dict(length=churn_length, seed=seed + 1, churn_rate=0.5,
                                           initial_keys=members,
                                           next_key=max(max(members), n + joins) + 1)))
    return calls


def _scale(*shapes):
    return [(scale_scenario, shape) for shape in shapes]


def _churn(*shapes):
    return [(churn_scenario, shape) for shape in shapes]


#: Every pinned generator call, by caller: ``[(generator, kwargs), ...]``.
EVENT_SETS = {
    "spine-central-aligned": _scale(*_spine(SPINE_ALIGNED, churn_rate=0.0005, name="central-aligned")),
    "spine-central-churn": _scale(*_spine(SPINE_CHURN, flash_count=0, churn_rate=0.5, name="central-churn")),
    "bench-e09": _scale(
        dict(n=4096, length=50_500, seed=42, hot_pair_count=64, cross_pair_count=4, flash_count=2,
             crowd_size=12, churn_rate=0.0005),
        dict(n=256, length=2_000, seed=42, hot_pair_count=16, cross_pair_count=2, flash_count=1,
             crowd_size=8, churn_rate=0.004),
    ),
    "bench-e15-scale": _scale(
        dict(n=100_000, length=101_000, seed=42, hot_pair_count=64, cross_pair_count=2,
             flash_count=2, crowd_size=12, churn_rate=0.0005),
        dict(n=100_000, length=6_000, seed=9, hot_pair_count=64, cross_pair_count=0,
             flash_count=0, crowd_size=12, churn_rate=0.01),
        dict(n=512, length=3_000, seed=42, hot_pair_count=16, cross_pair_count=2,
             flash_count=1, crowd_size=8, churn_rate=0.004),
        dict(n=512, length=800, seed=9, hot_pair_count=16, cross_pair_count=0,
             flash_count=0, crowd_size=8, churn_rate=0.02),
    ),
    "bench-e15-churn": _churn(
        dict(n=4_096, length=4_000, seed=7, churn_rate=0.01),
        dict(n=1_024, length=2_000, seed=5, churn_rate=0.01),
        dict(n=256, length=600, seed=7, churn_rate=0.02),
        dict(n=128, length=400, seed=5, churn_rate=0.02),
    ),
    "experiment-e9": _churn(*(
        dict(n=n, length=length, seed=5, base="temporal", churn_rate=0.02)
        for n, length in ((64, 250), (48, 180), (32, 100))
    )),
    "shielded-churn": (
        _shielded_waves(4096, 400, 16, 42, broadcast=True)
        + _shielded_waves(256, 60, 4, 42, broadcast=True)
    ),
}

PINNED = {
    "bench-e09": "9886c5936753d892339ab7efc0edc28f6ca8199efe9308ad665792df50a3b1eb",
    "bench-e15-churn": "9525f640824aee119cbf37c1b0c93b2016bf8c4bc213c71f2e6cb7d50ff39033",
    "bench-e15-scale": "b213e50ec8c6695a7a32cb48e59ee7fae80153b5a101d6ee26ddecf092e39a32",
    "experiment-e9": "0ec6f6371dca56705994d0fa51bce10abb406f13377da8f9df68e1f64d074a8d",
    "shielded-churn": "22b36b24224ac61e1f677386df2424f2c6d42d66611ee0e866ab7f4539956496",
    "spine-central-aligned": "9e3f8f33117849c4a485aea750c3fe04f2afaa4a85d2dafe0a93f1e170916c98",
    "spine-central-churn": "5db5311a0cba78172b489fdeb7ee8cfbabd879a727a5a499977c7f5f2e3534ac",
}


def event_digest(name: str) -> str:
    hasher = hashlib.sha256()
    for generator, kwargs in EVENT_SETS[name]:
        scenario = generator(**kwargs)
        hasher.update(repr(("initial", tuple(scenario.initial_keys))).encode())
        hasher.update("".join(map(repr, scenario.events)).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(EVENT_SETS))
def test_generator_events_match_the_pinned_digest(name):
    assert event_digest(name) == PINNED[name]


if __name__ == "__main__":  # re-record: python tests/workloads/test_generator_digest.py
    print("PINNED = {")
    for name in sorted(EVENT_SETS):
        print(f'    "{name}": "{event_digest(name)}",')
    print("}")
