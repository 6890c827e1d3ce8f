"""Whole-structure integrity verification for skip graphs.

The failure arena (``bench_e16_failures``) runs crashes against a live
topology and needs a *standing invariant*: after every repair wave, the
skip graph — and the :class:`~repro.simulation.network.Network` mirroring
it — must still be a skip graph.  :func:`verify_skip_graph_integrity` is
that invariant, modelled on the checker the bami skip-graph simulation runs
after every churn batch (SNIPPETS.md §1): recompute what the structure
*should* look like from the raw node data (keys + membership vectors, the
canonical state) and compare it against every derived view the hot paths
trust — the sorted base list, the cached level lists and their position
maps (via :meth:`SkipGraph.neighbors`), the incremental prefix-count
indexes, and (optionally) the live network's links and level labels.

The checker is deliberately *redundant* with the caches it audits: it
derives each level list by filtering membership bits directly, never
through ``_list_cache``, so a corrupted cache entry, an unsorted base
list, or a membership vector rewritten behind the index's back each
produce a distinct violation instead of silently steering routes astray.
Nothing is incremental — every call recomputes every expectation — but it
derives once: the node table is walked in ascending key order (its own
sort, never the base list check 1 audits), so every level list comes out
sorted, and that one derivation feeds checks 2, 3 and 5 alike.

Checks performed (each yields human-readable violation strings):

1. **base list** — ``keys`` strictly ascending and exactly the keys of the
   node map (``_nodes``).  A *split* between the two — a key one holds
   and the other lacks — is reported here, and the checks that look one
   structure up by the other (2 and 4) are skipped, so the sweep reports
   it instead of raising;
2. **level lists** — walking every multi-node derived list through
   :meth:`SkipGraph.neighbors` (the cache-backed path routing uses)
   reproduces it with symmetric left/right pointers (doubly-linked
   consistency).  The walk is decided once per list first, on the two
   structures ``neighbors`` reads: the cached members
   (``_members_internal``) and their position map (``_positions``).  If
   the members are the derived list and each member's position is its
   index, every ``neighbors`` answer is right, so the list is clean; any
   other outcome, an exception included, walks that list node by node;
3. **membership-prefix consistency** — every cached list contains exactly
   the keys whose vectors carry its prefix, and the incremental prefix
   counts (total, dummy, multi-per-level) match a from-scratch recount;
4. **vector uniqueness** — no two real nodes share a full membership
   vector (delegates to :meth:`SkipGraph.validate`);
5. **network symmetry** (when a network is given) — the network's node
   set, adjacency symmetry, links and per-level labels equal the
   expectation derived from the graph (the
   :func:`~repro.distributed.routing_protocol.skip_graph_network`
   convention: one link per level-adjacent pair, labelled ``level<d>``).
   "Clean" is decided by counting, without building the expectation.  Let
   E be the expected directed triples ``(u, v, "level<d>")`` and A the
   triples :attr:`Network.rows <repro.simulation.network.Network.rows>`
   holds.  Every triple of E is probed in ``rows[u][v]``, in both
   directions (a label present on one side only is damage too), so
   E ⊆ A; if also |A| = |E|, no row holds an empty label set and the node
   sets agree, then ``rows`` equals the expected table.  (|E| is twice the
   link count only when check 1 passed, so a dirty base list skips the
   count.)  Otherwise the expectation is built in the network's own shape
   and compared row for row; only differing rows are taken apart link by
   link and sorted for the report.

The report path is the same whether or not a fast decision ran first, so
the sweep returns the same violation strings in the same order.  An empty
return value means the structure is clean.  The report is capped
(``max_violations``, at least 1) so a badly corrupted 4096-node arena does
not drown the caller in output; the cap is noted in the last entry when
hit.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import contains
from typing import TYPE_CHECKING, AbstractSet, Dict, List, Mapping, Optional, Set, Tuple

from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph

if TYPE_CHECKING:  # the distributed layer sits above this one
    from repro.simulation.network import Network

__all__ = ["IntegrityError", "assert_skip_graph_integrity", "verify_skip_graph_integrity"]

Prefix = Tuple[int, ...]


class IntegrityError(ValueError):
    """Raised by :func:`assert_skip_graph_integrity` when violations exist."""


def _rows_match(
    rows: Mapping[Key, Dict[Key, AbstractSet[str]]],
    pairs: Dict[int, Tuple[List[Key], List[Key]]],
) -> bool:
    """Whether ``rows`` is exactly the link table ``pairs`` describes.

    ``pairs[level]`` holds a level's links as two aligned endpoint columns.
    The caller guarantees the rows' node set is the columns' node set and
    that a level's links join distinct keys, each pair once, so the
    expected directed triples ``(u, v, "level<d>")`` number twice the
    links.  Every one of them is probed in ``rows[u][v]``, in both
    directions; if all are present, the rows hold no empty label set and
    their labels add up to the same count, the rows carry nothing else —
    so they equal the expected table.
    """
    row_of = rows.__getitem__
    absent = repeat(())
    expected_triples = 0
    for level, (us, vs) in pairs.items():
        label = repeat(f"level{level}")
        expected_triples += 2 * len(us)
        if not all(map(contains, map(dict.get, map(row_of, us), vs, absent), label)):
            return False
        if not all(map(contains, map(dict.get, map(row_of, vs), us, absent), label)):
            return False
    sizes = list(map(len, chain.from_iterable(map(dict.values, rows.values()))))
    return 0 not in sizes and sum(sizes) == expected_triples


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
    wave.  ``max_violations`` and ``redundancy`` below 1 raise
    ``ValueError``: the first would hide every violation, the second would
    flag every correct link.
    """
    if max_violations < 1:
        raise ValueError(f"max_violations must be at least 1, got {max_violations!r}")
    if redundancy < 1:
        raise ValueError(f"redundancy must be at least 1, got {redundancy!r}")
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

    nodes = graph._nodes
    base = graph.keys

    # 1. Base list: strictly sorted, exactly the keys of the node map.
    for first, second in zip(base, base[1:]):
        if not first < second:
            if not report(f"base list not strictly sorted: {first!r} !< {second!r}"):
                return violations
    split = nodes.keys() != set(base)
    if split:
        missing = nodes.keys() - set(base)
        extra = set(base) - nodes.keys()
        report(f"base list / node set mismatch (missing={sorted(missing)!r}, extra={sorted(extra)!r})")
    base_clean = not violations

    # The one derivation, from raw bits only: every level list (singletons
    # included) keyed by its prefix — the level is the prefix's length —
    # plus the dummy recount for 3b.
    lists: Dict[Prefix, List[Key]] = {}
    dummy_prefix_counts: Dict[Prefix, int] = {}
    dummy_count = 0
    for key in sorted(nodes):
        node = nodes[key]
        bits = node.membership.bits
        dummy_count += node.is_dummy
        for level in range(1, len(bits) + 1):
            prefix = bits[:level]
            lists.setdefault(prefix, []).append(key)
            if node.is_dummy:
                dummy_prefix_counts[prefix] = dummy_prefix_counts.get(prefix, 0) + 1
    multi_lists = sorted(
        (len(prefix), prefix, members) for prefix, members in lists.items() if len(members) >= 2
    )

    # 2. Level lists: the cache-backed neighbour walk agrees with the derivation.
    # A list whose cached members and position map are exactly the derived
    # list and its indexes would pass the walk; only the others are walked.
    # A split skips it: cached lists derive from the base list through the
    # node map, and would fail on the keys only one of them holds.
    for level, prefix, ordered in [] if split else multi_lists:
        try:
            members = graph._members_internal(level, prefix)
            positions = graph._positions(level, prefix, members)
            if members == ordered and list(map(positions.get, ordered)) == list(range(len(ordered))):
                continue
        except Exception:  # the walk below reports it node by node
            pass
        last = len(ordered) - 1
        for index, key in enumerate(ordered):
            try:
                left, right = graph.neighbors(key, level)
            except Exception as exc:  # corrupted cache/position map
                if not report(f"neighbors({key!r}, {level}) raised {exc!r}"):
                    return violations
                continue
            want_left = ordered[index - 1] if index > 0 else None
            want_right = ordered[index + 1] if index < last else None
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

    def derived(level: int, prefix: Prefix) -> List[Key]:
        return lists.get(prefix, []) if len(prefix) == level else []

    stale = [(entry, cached) for entry, cached in graph._list_cache.items() if cached != derived(*entry)]
    for (level, prefix), cached in sorted(stale):
        if not report(
            f"cached list (level={level}, prefix={prefix!r}) is {list(cached)!r}, "
            f"expected {derived(level, prefix)!r}"
        ):
            return violations

    # 3b. Incremental indexes: a prefix's count is its derived list's length.
    multi: Dict[int, int] = {}
    for level, _prefix, _members in multi_lists:
        multi[level] = multi.get(level, 0) + 1
    if graph._prefix_counts != {prefix: len(members) for prefix, members in lists.items()}:
        report("prefix-count index does not match a from-scratch recount")
    if graph._dummy_prefix_counts != dummy_prefix_counts:
        report("dummy-prefix index does not match a from-scratch recount")
    if graph._dummy_count != dummy_count:
        report(f"dummy count is {graph._dummy_count}, recount says {dummy_count}")
    if graph._multi_prefixes_per_level != multi:
        report("multi-prefix-per-level index does not match a from-scratch recount")

    # 4. Vector uniqueness (and the structure's own invariants); it walks
    # the base list through the node map, so a split skips it too.
    if not split:
        try:
            graph.validate()
        except ValueError as exc:
            report(f"graph.validate(): {exc}")

    # 5. Network mirror: nodes, adjacency symmetry, links, level labels.
    if network is None:
        return violations
    rows = network.rows
    nodes_agree = rows.keys() == nodes.keys()
    if not nodes_agree:
        report(
            f"network node set mismatch (graph-only={sorted(nodes.keys() - rows.keys())!r}, "
            f"network-only={sorted(rows.keys() - nodes.keys())!r})"
        )
    # Every list within distance ``redundancy``, gathered per level as the
    # two endpoint columns of its links: ``us[i]`` and ``vs[i]`` are linked.
    pairs: Dict[int, Tuple[List[Key], List[Key]]] = {}
    for level, _prefix, ordered in [(0, (), base), *multi_lists]:
        us, vs = pairs.setdefault(level, ([], []))
        for distance in range(1, redundancy + 1):
            us += ordered[:-distance]
            vs += ordered[distance:]
    if nodes_agree and base_clean and _rows_match(rows, pairs):
        return violations
    # Something differs: build the expected links in the network's storage
    # shape (one label set shared by a link's two rows) and take it apart.
    expected: Dict[Key, Dict[Key, Set[str]]] = {key: {} for key in (*nodes, *base)}
    for level, (us, vs) in pairs.items():
        label = f"level{level}"
        for u, v in zip(us, vs):
            row = expected[u]
            labels = row.get(v)
            if labels is None:
                row[v] = expected[v][u] = {label}
            else:
                labels.add(label)
    # The expectation is symmetric by construction, so a network whose
    # every row equals it is symmetric too.
    differing = [] if rows == expected else [
        key for key in rows.keys() | expected.keys() if rows.get(key) != expected.get(key)
    ]
    if differing:
        for u, row in rows.items():
            for v in row:
                if u not in rows.get(v, ()):
                    if not report(f"asymmetric adjacency: {u!r} -> {v!r} but not back"):
                        return violations
    missing_links, unexpected_links, relabelled = set(), set(), {}
    for u in differing:
        actual_row, expected_row = rows.get(u, {}), expected.get(u, {})
        for v in actual_row.keys() | expected_row.keys():
            link = tuple(sorted((u, v)))
            if v not in actual_row:
                missing_links.add(link)
            elif v not in expected_row:
                unexpected_links.add(link)
            elif actual_row[v] != expected_row[v]:
                relabelled[link] = (actual_row[v], expected_row[v])
    for link in sorted(missing_links):
        if not report(f"missing link {list(link)!r}"):
            return violations
    for link in sorted(unexpected_links):
        if not report(f"unexpected link {list(link)!r}"):
            return violations
    for link, (actual_labels, labels) in sorted(relabelled.items()):
        if not report(
            f"link {list(link)!r} carries labels {sorted(map(str, actual_labels))!r}, "
            f"expected {sorted(labels)!r}"
        ):
            return violations
    return violations


def assert_skip_graph_integrity(
    graph: SkipGraph,
    network: Optional["Network"] = None,  # noqa: F821
    max_violations: int = 20,
    redundancy: int = 1,
) -> None:
    """Raise :class:`IntegrityError` listing every violation found."""
    violations = verify_skip_graph_integrity(
        graph, network, max_violations=max_violations, redundancy=redundancy
    )
    if violations:
        raise IntegrityError(
            "skip graph integrity violated:\n  " + "\n  ".join(violations)
        )
