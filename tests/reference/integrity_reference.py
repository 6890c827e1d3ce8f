"""Reference integrity verifier (test oracle).

The PR-6/PR-10 implementation of
:func:`repro.skipgraph.integrity.verify_skip_graph_integrity`, moved here
unchanged when the production sweep was rewritten as a single derivation
pass with row-wise network comparison.  It re-derives the level lists per
check, keys links by ``frozenset`` and reads the network through its public
per-link API only — slow, and obviously correct.  The differential test in
``tests/skipgraph/test_integrity_differential.py`` holds the production
sweep to this one's violation report on clean and corrupted structures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph

if TYPE_CHECKING:  # the distributed layer sits above this one
    from repro.simulation.network import Network

__all__ = ["verify_skip_graph_integrity"]

Prefix = Tuple[int, ...]


def _derived_lists(graph: SkipGraph) -> Dict[Tuple[int, Prefix], List[Key]]:
    """Every level list (singletons included), from raw membership bits only."""
    lists: Dict[Tuple[int, Prefix], List[Key]] = {}
    for node in graph.nodes():
        bits = node.membership.bits
        for level in range(1, len(bits) + 1):
            lists.setdefault((level, bits[:level]), []).append(node.key)
    return lists


def _expected_links(graph: SkipGraph, redundancy: int = 1) -> Dict[FrozenSet[Key], Set[str]]:
    """Expected network links with their level labels (one per adjacency).

    Mirrors the :func:`~repro.distributed.routing_protocol.skip_graph_network`
    convention without importing it (the distributed layer sits above this
    one): members of every list — the base list and each multi-node level
    list — within list distance ``redundancy`` of each other are linked
    with label ``level<d>`` (consecutive members only at the default
    ``redundancy = 1``).
    """
    links: Dict[FrozenSet[Key], Set[str]] = {}
    base = graph.keys
    for distance in range(1, redundancy + 1):
        for index in range(len(base) - distance):
            links.setdefault(frozenset((base[index], base[index + distance])), set()).add("level0")
    for (level, _prefix), members in _derived_lists(graph).items():
        if len(members) < 2:
            continue
        ordered = sorted(members)
        for distance in range(1, redundancy + 1):
            for index in range(len(ordered) - distance):
                links.setdefault(
                    frozenset((ordered[index], ordered[index + distance])), set()
                ).add(f"level{level}")
    return links


def verify_skip_graph_integrity(
    graph: SkipGraph,
    network: Optional["Network"] = None,  # noqa: F821 - forward ref, see import below
    max_violations: int = 20,
    redundancy: int = 1,
) -> List[str]:
    """Return violation descriptions; an empty list means the graph is clean.

    ``network``, when given, is additionally audited against the graph
    (node set, adjacency symmetry, links, level labels) under the given
    link ``redundancy`` (the ``k`` the network was built with).  The
    caller is responsible for only passing a network that is *supposed*
    to mirror the graph — during a deferred-repair window the two
    legitimately diverge and the check should be run after the repair
    wave.
    """
    violations: List[str] = []

    def report(message: str) -> bool:
        """Record one violation; return ``False`` once the cap is reached."""
        if len(violations) >= max_violations:
            return False
        violations.append(message)
        if len(violations) == max_violations:
            violations.append(f"... report capped at {max_violations} violations")
            return False
        return True

    nodes = {node.key: node for node in graph.nodes()}
    base = graph.keys

    # 1. Base list: strictly sorted, exactly the node population.
    for first, second in zip(base, base[1:]):
        if not first < second:
            if not report(f"base list not strictly sorted: {first!r} !< {second!r}"):
                return violations
    if set(base) != set(nodes):
        missing = set(nodes) - set(base)
        extra = set(base) - set(nodes)
        report(f"base list / node set mismatch (missing={sorted(missing)!r}, extra={sorted(extra)!r})")

    # 2. Level lists: sorted, and the cache-backed neighbour walk agrees.
    derived = _derived_lists(graph)
    for (level, prefix), members in sorted(derived.items()):
        if len(members) < 2:
            continue
        ordered = sorted(members)
        for index, key in enumerate(ordered):
            try:
                left, right = graph.neighbors(key, level)
            except Exception as exc:  # corrupted cache/position map
                if not report(f"neighbors({key!r}, {level}) raised {exc!r}"):
                    return violations
                continue
            want_left = ordered[index - 1] if index > 0 else None
            want_right = ordered[index + 1] if index + 1 < len(ordered) else None
            if (left, right) != (want_left, want_right):
                if not report(
                    f"level {level} list {prefix!r}: node {key!r} has neighbours "
                    f"({left!r}, {right!r}), expected ({want_left!r}, {want_right!r})"
                ):
                    return violations

    # 3a. Cached lists: membership-prefix consistency against the derivation.
    # Merge lazy insertion buffers first: a pending key is structurally
    # present (node table, prefix counts) but not yet in its cached list.
    graph._flush_pending()
    for (level, prefix), cached in sorted(graph._list_cache.items()):
        expected = sorted(derived.get((level, prefix), []))
        if list(cached) != expected:
            if not report(
                f"cached list (level={level}, prefix={prefix!r}) is {list(cached)!r}, "
                f"expected {expected!r}"
            ):
                return violations

    # 3b. Incremental indexes: recount prefixes from scratch.
    prefix_counts: Dict[Prefix, int] = {}
    dummy_prefix_counts: Dict[Prefix, int] = {}
    dummy_count = 0
    for node in nodes.values():
        bits = node.membership.bits
        if node.is_dummy:
            dummy_count += 1
        for level in range(1, len(bits) + 1):
            prefix = bits[:level]
            prefix_counts[prefix] = prefix_counts.get(prefix, 0) + 1
            if node.is_dummy:
                dummy_prefix_counts[prefix] = dummy_prefix_counts.get(prefix, 0) + 1
    multi: Dict[int, int] = {}
    for prefix, count in prefix_counts.items():
        if count >= 2:
            multi[len(prefix)] = multi.get(len(prefix), 0) + 1
    if graph._prefix_counts != prefix_counts:
        report("prefix-count index does not match a from-scratch recount")
    if graph._dummy_prefix_counts != dummy_prefix_counts:
        report("dummy-prefix index does not match a from-scratch recount")
    if graph._dummy_count != dummy_count:
        report(f"dummy count is {graph._dummy_count}, recount says {dummy_count}")
    if graph._multi_prefixes_per_level != multi:
        report("multi-prefix-per-level index does not match a from-scratch recount")

    # 4. Vector uniqueness (and the structure's own invariants).
    try:
        graph.validate()
    except ValueError as exc:
        report(f"graph.validate(): {exc}")

    # 5. Network mirror: nodes, adjacency symmetry, links, level labels.
    if network is not None:
        graph_keys = set(nodes)
        net_nodes = set(network.nodes)
        if graph_keys != net_nodes:
            report(
                f"network node set mismatch (graph-only={sorted(graph_keys - net_nodes)!r}, "
                f"network-only={sorted(net_nodes - graph_keys)!r})"
            )
        for u in net_nodes:
            for v in network.neighbors(u):
                if not network.has_link(v, u):
                    if not report(f"asymmetric adjacency: {u!r} -> {v!r} but not back"):
                        return violations
        expected_links = _expected_links(graph, redundancy)
        actual_links = {frozenset(edge) for edge in network.edges()}
        for link in sorted(
            (link for link in expected_links if link not in actual_links),
            key=sorted,
        ):
            if not report(f"missing link {sorted(link)!r}"):
                return violations
        for link in sorted((link for link in actual_links if link not in expected_links), key=sorted):
            if not report(f"unexpected link {sorted(link)!r}"):
                return violations
        for link, labels in sorted(expected_links.items(), key=lambda item: sorted(item[0])):
            if link not in actual_links:
                continue
            u, v = tuple(link)
            actual_labels = network.labels(u, v)
            if actual_labels != labels:
                if not report(
                    f"link {sorted(link)!r} carries labels {sorted(map(str, actual_labels))!r}, "
                    f"expected {sorted(labels)!r}"
                ):
                    return violations

    return violations
