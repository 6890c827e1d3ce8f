"""The crash-stop failure arena's observable output, pinned as SHA-256 digests.

:func:`repro.distributed.run_failure_arena` has no second implementation
to agree with, and the crash-stop model is this repository's own
extension of the paper's graceful joins and leaves, so these pins are what
holds a rewrite of the failure layer to the program it replaces.  Two kinds
of pin:

* **arena** — the five ``bench_e16_failures.py`` shapes (independent,
  racks, flash, recovery, midwave) at its ``BENCH_QUICK`` size (n = 256,
  400 slots, seed 42), each at k = 2 and k = 3 with the bench's
  ``adjacent_crash_limit = k - 1``.  A pin hashes every
  :class:`~repro.distributed.failover.FailureWaveReport` field of every
  wave, the report's engine counters, the arena's
  :class:`~repro.distributed.routing_protocol.RouteLedger` delivered and
  failed request ids (and the order they reached those outcomes in) and
  the final live links (``network.rows``).  One
  more pin runs the spine's quick ``failure-waves`` schedule (seed 42,
  epoch 0) at k = 3, where recovery, mid-wave crashes, retries and stale
  destinations meet in one arena;
* **events** — :func:`repro.workloads.failure_scenario`'s event list for
  every shape and parameter set that e16 (both sizes), the spine's
  ``failure-waves`` workload (both shapes, every schedule its seed search
  draws at the default and smoke-test seeds) and the failure tests use.

A change to the failure layer must reproduce every pin bit for bit.  What
is hashed is ``repr`` of ints, strings, bools and sorted tuples of them,
so the digests depend neither on the Python version nor on hash seeds.
Re-record only for an intended behaviour change::

    PYTHONPATH=src:tests python tests/distributed/test_failover_digest.py
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

import repro.distributed.failover as failover
from repro.workloads import failure_scenario

pytestmark = pytest.mark.failure

#: ``bench_e16_failures.py``'s shapes at both of its sizes.
E16_QUICK = dict(n=256, length=400, seed=42, stale_fraction=0.05)
E16_FULL = dict(n=4096, length=3000, seed=42, stale_fraction=0.05)
E16_SHAPES = {
    "quick": dict(
        independent=dict(mode="independent", crash_rate=0.02),
        racks=dict(mode="racks", rack_count=16, rack_failures=2),
        flash=dict(mode="flash", flash_size=8),
        recovery=dict(mode="independent", crash_rate=0.02, recovery_fraction=0.6),
        midwave=dict(mode="independent", crash_rate=0.02, mid_wave_fraction=0.03),
    ),
    "full": dict(
        independent=dict(mode="independent", crash_rate=0.004),
        racks=dict(mode="racks", rack_count=64, rack_failures=3),
        flash=dict(mode="flash", flash_size=48),
        recovery=dict(mode="independent", crash_rate=0.004, recovery_fraction=0.6),
        midwave=dict(mode="independent", crash_rate=0.004, mid_wave_fraction=0.02),
    ),
}

#: The spine's ``failure-waves`` shapes; its seed search draws seed
#: ``epoch_seed * 10_000 + attempt`` for attempt 0, 1, ... until a schedule
#: has the target wave count.  The ranges cover every attempt it draws at
#: the default seed (42, full shape) and the smoke test's (7, quick shape).
SPINE = {
    "full": (dict(n=2048, length=600, crash_rate=0.005, mid_wave_fraction=0.004),
             (42_000, 42_001, 42_002), 32),
    "quick": (dict(n=128, length=150, crash_rate=0.02, mid_wave_fraction=0.02),
              (42_000, 42_001, 42_002, 7_000, 7_001, 7_002), 8),
}


def _e16(size, shape, k):
    base = E16_QUICK if size == "quick" else E16_FULL
    return dict(base, adjacent_crash_limit=k - 1, name=shape, **E16_SHAPES[size][shape])


def _spine(shape):
    params, epoch_seeds, attempts = SPINE[shape]
    for epoch_seed in epoch_seeds:
        for attempt in range(attempts):
            yield dict(
                params, seed=epoch_seed * 10_000 + attempt, mode="independent", recovery_fraction=0.6,
                stale_fraction=0.05, adjacent_crash_limit=2, name="failure-waves",
            )


#: Every ``failure_scenario`` call whose event list is pinned, by name.
EVENT_SETS = {
    **{f"e16-{size}-{shape}": [_e16(size, shape, 2 if size == "quick" else 3)]
       for size in E16_SHAPES for shape in E16_SHAPES[size]},
    "e16-quick-k3": [_e16("quick", shape, 3) for shape in E16_SHAPES["quick"]],
    "spine-full": list(_spine("full")),
    "spine-quick": list(_spine("quick")),
    "test-failover": [
        dict(n=64, length=200, seed=21, mode="independent", crash_rate=0.03, recovery_fraction=0.8,
             adjacent_crash_limit=1),
        dict(n=64, length=240, seed=17, mode="independent", crash_rate=0.02, mid_wave_fraction=0.05,
             adjacent_crash_limit=1),
        dict(n=64, length=240, seed=1, mode="independent", crash_rate=0.02, mid_wave_fraction=0.1,
             adjacent_crash_limit=1),
        dict(n=64, length=200, seed=7, mode="independent"),
        dict(n=64, length=200, seed=7, mode="independent", recovery_fraction=0.7),
        dict(n=64, length=200, seed=7, mode="independent", mid_wave_fraction=0.05),
        *(dict(n=64, length=160, seed=13, mode=mode, adjacent_crash_limit=1)
          for mode in ("independent", "racks", "flash")),
        dict(n=64, length=160, seed=13, mode="independent", adjacent_crash_limit=1, recovery_fraction=0.7),
        dict(n=64, length=160, seed=13, mode="independent", adjacent_crash_limit=1, mid_wave_fraction=0.05),
    ],
    "test-adapter": [
        dict(n=32, length=300, seed=7, crash_rate=0.03, stale_fraction=0.0, recovery_fraction=0.7),
    ],
    "test-integrity": [
        dict(n=2048, length=600, seed=11, mode="independent", crash_rate=0.005, recovery_fraction=0.6,
             mid_wave_fraction=0.004, adjacent_crash_limit=2),
    ],
}

PINNED_EVENTS = {
    "e16-full-flash": "16ec0a5049dc325f8740f48817e4933dd3bebc58650c390778ef551c6922ba97",
    "e16-full-independent": "bbbcaefe3c2aa9aa1d40c0f09703a163919a4e5cb16c08a30f7fee90905055fa",
    "e16-full-midwave": "32d485f1a8633b2f1ef49b6ed3479f29c70157ac0f4bd765414b6eeae64fc70b",
    "e16-full-racks": "372544409d4797a63ecf9e172a104cf723f9ce8290445fce02baa369784089a5",
    "e16-full-recovery": "dae96f930cb2ae48430496a182ae8facec40cfbe636cebc2f84d56c5b9dd0249",
    "e16-quick-flash": "3e259a3cf2b923444eb5f4d0746943573b06fe5c418d28a48371e73ae0b5a603",
    "e16-quick-independent": "b1cd1d3b15f346fbfabcda0511168825692cc79ffb46656e402d6c48dcc8ee7c",
    "e16-quick-k3": "47d0591ce8dbb0ea0a10b575eda0a04cea994eb935bc865c7a1fe98f6c4f3b7a",
    "e16-quick-midwave": "6281ae3891ae1664f073233938ddedda2f51a22c47be99e6ad71b7c1cb3deab0",
    "e16-quick-racks": "2e33f6d71eb8f78913bba973aaa621c06edda23f7b5e338f6a35a7238df73cb1",
    "e16-quick-recovery": "e25409624f4fc93dae1a97527e71d4779110d48eb88311240974f87e9ea1664e",
    "spine-full": "ecd072b0f369fad437e731464bf0da2d5b0b94bd173ae8b07df69139318acc11",
    "spine-quick": "8e40d5575c23b49837309df17d72f07ccb0ed66d196db5ab8e40fc4708a1825f",
    "test-adapter": "a76d8bc46a70cbc20af9dbbd783fab2f1c9e8a065212f343e7aafdaabc62cb2b",
    "test-failover": "bcc9af6789ca7797faf78a2b57f41270cc88131f6d11673bd54a039a3ecc59f6",
    "test-integrity": "c2030f5b8ad97ea7876f4a33617bd41403913e6a8289ad7e2e3643c2f0150670",
}

PINNED_ARENAS = {
    ("independent", 2): "74f2b0f2c7d861862afac3290f2353d622ae43bdd36a35cbd858c0f38f622f26",
    ("independent", 3): "dec4caf80e18f7f3d3afa7ec0b0768611a7adf83741f96aca88017f0c2f502d5",
    ("racks", 2): "bb523e14e31cae3444b7531a21e68aa24e1e556bdc878476bdfd55b23e420563",
    ("racks", 3): "d7555e837fb95294fe19327314fc4ee6c387b33e4e4810b992e11557e58dcf36",
    ("flash", 2): "f86cd517cc92f3523103ff220a2dc07509669829260762d7c079b875d48beacc",
    ("flash", 3): "c97e9af25b4c2f48afa18d3d32bda5461a85762543fef577098d2936266ed391",
    ("recovery", 2): "2eb471947556cc7a221e59da93c4a34a2ab29c6dd47767887660f72f035be276",
    ("recovery", 3): "5a6832a7511fb60e04ca6935414959917655471ab889c02de5c3a85278bdf781",
    ("midwave", 2): "1136b0ae3896f207309642804231ce35a9a34b8ca9e7b6d289ae946cba2508ff",
    ("midwave", 3): "30e920d19bb6e550038c6802828dc248dba98f41b1f026105bd5ae9784b2fc62",
    ("spine-quick", 3): "913fc0940946049ccdeb74bd1c5392ddabd27398630cef954cc43f5734a50982",
}


def event_digest(name: str) -> str:
    hasher = hashlib.sha256()
    for kwargs in EVENT_SETS[name]:
        scenario = failure_scenario(**kwargs)
        hasher.update(repr(("initial", tuple(scenario.initial_keys))).encode())
        for event in scenario.events:
            hasher.update(repr(event).encode())
    return hasher.hexdigest()


class _LoggedSet(set):
    """A set that logs every ``add`` as ``(label, item)``, in call order."""

    def __init__(self, label: str, log: list) -> None:
        super().__init__()
        self.label, self.log = label, log

    def add(self, item) -> None:
        self.log.append((self.label, item))
        super().add(item)


class _RecordingLedger(failover.RouteLedger):
    """The arena's ledger, kept where the digest can read it afterwards,
    with the order in which request ids reached an outcome."""

    made: list = []

    def __init__(self) -> None:
        super().__init__()
        self.log: list = []
        self.delivered = _LoggedSet("delivered", self.log)
        self.failed = _LoggedSet("failed", self.log)
        _RecordingLedger.made.append(self)


def _arena_schedule(shape: str, k: int) -> dict:
    if shape == "spine-quick":
        return next(_spine("quick"))
    return _e16("quick", shape, k)


def arena_digest(shape: str, k: int) -> str:
    scenario = failure_scenario(**_arena_schedule(shape, k))
    swept = []
    verify, ledger_class = failover.verify_skip_graph_integrity, failover.RouteLedger

    def recording_verify(graph, network, **kwargs):
        swept.append(network)
        return verify(graph, network, **kwargs)

    _RecordingLedger.made = []
    failover.verify_skip_graph_integrity = recording_verify
    failover.RouteLedger = _RecordingLedger
    try:
        report = failover.run_failure_arena(scenario, k=k, seed=42)
    finally:
        failover.verify_skip_graph_integrity, failover.RouteLedger = verify, ledger_class
    (ledger,) = _RecordingLedger.made
    hasher = hashlib.sha256()

    def put(record) -> None:
        hasher.update(repr(record).encode())

    for wave in report.waves:
        put(("wave",) + tuple(
            tuple(value) if isinstance(value, list) else value
            for value in (getattr(wave, item.name) for item in fields(wave))
        ))
    put(("report", report.scenario, report.n, report.k, report.rounds, report.messages,
         report.total_bits, report.max_message_bits, report.congestion_violations,
         report.dropped_messages))
    put(("delivered", tuple(sorted(ledger.delivered))))
    put(("failed", tuple(sorted(ledger.failed))))
    put(("outcome order", tuple(ledger.log)))
    rows = swept[-1].rows
    for node in sorted(rows):
        row = rows[node]
        put(("row", node, tuple((peer, tuple(sorted(row[peer]))) for peer in sorted(row))))
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(EVENT_SETS))
def test_failure_scenario_events_match_the_pinned_digest(name):
    assert event_digest(name) == PINNED_EVENTS[name]


@pytest.mark.parametrize("shape, k", sorted(PINNED_ARENAS))
def test_failure_arena_output_matches_the_pinned_digest(shape, k):
    assert arena_digest(shape, k) == PINNED_ARENAS[shape, k]


if __name__ == "__main__":  # re-record: python tests/distributed/test_failover_digest.py
    print("PINNED_EVENTS = {")
    for name in sorted(EVENT_SETS):
        print(f'    "{name}": "{event_digest(name)}",')
    print("}")
    print()
    print("PINNED_ARENAS = {")
    for shape, k in [(shape, k) for shape in E16_SHAPES["quick"] for k in (2, 3)] + [("spine-quick", 3)]:
        print(f'    ("{shape}", {k}): "{arena_digest(shape, k)}",')
    print("}")
