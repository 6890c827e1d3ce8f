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
derives once.  One partition walk splits the node table, in ascending key
order (its own sort, never the base list check 1 audits), by each node's
next bit, level by level.  So every level list comes out sorted, in
``(level, prefix)`` order, and feeds checks 2, 3 and 5 as the walk reaches
it.  Only two levels' lists are held at a time, besides check 5's link
columns when a network is given.

The sweep reads the structure and keeps nothing it did not find.  It
builds no position map: it audits each map already in ``_pos_cache`` and
leaves the absent ones absent, since an absent map cannot be stale and
:meth:`SkipGraph.neighbors` builds one from the members the sweep has just
matched.  What it does leave: the lazy insertion buffers merged (as any
read would), a cached list for every multi-node list check 2 reads
(derived from its cached parent, as ``neighbors`` would), and the position
maps that ``neighbors`` builds while a damaged list is walked node by node.

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
   (``_members_internal``) and their position map, if ``_pos_cache`` holds
   one.  If the members are the derived list and each member's position
   (when a map exists) is its index, every ``neighbors`` answer is right,
   so the list is clean; any other outcome, an exception included, walks
   that list node by node;
3. **membership-prefix consistency** — every cached list contains exactly
   the keys whose vectors carry its prefix, and the incremental prefix
   counts (total, dummy, multi-per-level) match a from-scratch recount.
   Each cached list and each count is compared as the walk reaches its
   prefix; the walk then checks that no indexed or cached prefix went
   unvisited;
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
from operator import contains, itemgetter
from typing import TYPE_CHECKING, AbstractSet, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.skipgraph.node import Key, SkipGraphNode
from repro.skipgraph.skipgraph import SkipGraph

if TYPE_CHECKING:  # the distributed layer sits above this one
    from repro.simulation.network import Network

__all__ = ["IntegrityError", "assert_skip_graph_integrity", "verify_skip_graph_integrity"]

Prefix = Tuple[int, ...]


class IntegrityError(ValueError):
    """Raised by :func:`assert_skip_graph_integrity` when violations exist."""


def _partition(nodes: Mapping[Key, SkipGraphNode]) -> Iterator[Tuple[int, Prefix, List[Key], int]]:
    """Every level list, derived from raw bits, as ``(level, prefix, members, dummies)``.

    The node table, in ascending key order, is split by each node's next
    bit, level by level; a node leaves the walk below its vector's last
    level.  Each list comes out in key order, with its count of dummy
    members, and the lists come out in ``(level, prefix)`` order: a level's
    lists in the order of their parents, each parent's 0-list first.
    Singletons are lists too.
    """
    dummy_keys = {key for key, node in nodes.items() if node.is_dummy}
    in_dummies = dummy_keys.__contains__
    ordered = sorted(nodes)
    groups = [((), ordered, [nodes[key].membership.bits for key in ordered], len(dummy_keys))]
    level = 0
    while groups:
        depth, level = level, level + 1
        children = []
        for prefix, keys, vectors, dummies in groups:
            if len(keys) == 1:  # half the lists of a balanced graph: no split to make
                bits = vectors[0]
                if len(bits) > depth:
                    child_prefix = prefix + (bits[depth],)
                    yield level, child_prefix, keys, dummies
                    children.append((child_prefix, keys, vectors, dummies))
                continue
            zeros: List[Key] = []
            ones: List[Key] = []
            zero_vectors: List[Tuple[int, ...]] = []
            one_vectors: List[Tuple[int, ...]] = []
            for key, bits in zip(keys, vectors):
                if len(bits) > depth:
                    if bits[depth]:
                        ones.append(key)
                        one_vectors.append(bits)
                    else:
                        zeros.append(key)
                        zero_vectors.append(bits)
            for bit, members, member_vectors in ((0, zeros, zero_vectors), (1, ones, one_vectors)):
                if members:
                    child_prefix = prefix + (bit,)
                    child_dummies = dummies and sum(map(in_dummies, members))
                    yield level, child_prefix, members, child_dummies
                    children.append((child_prefix, members, member_vectors, child_dummies))
        groups = children


def _settled(graph: SkipGraph, level: int, prefix: Prefix, ordered: List[Key]) -> bool:
    """Whether every ``neighbors`` answer in the list ``ordered`` is right.

    They are when the cached members are ``ordered`` and the list's position
    map, if ``_pos_cache`` holds one, maps each member to its index.  No map
    is built: without one, ``neighbors`` builds it from those same members.
    """
    try:
        if graph._members_internal(level, prefix) != ordered:
            return False
        positions = graph._pos_cache.get((level, prefix))
        return positions is None or list(map(positions.get, ordered)) == list(range(len(ordered)))
    except Exception:  # the caller walks the list and reports it node by node
        return False


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

    def label_sets():  # streamed twice: no empty set, then the count
        return chain.from_iterable(map(dict.values, rows.values()))

    return all(label_sets()) and sum(map(len, label_sets())) == expected_triples


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

    # Merge lazy insertion buffers first: a pending key is structurally
    # present (node table, prefix counts) but not yet in its cached list.
    graph._flush_pending()
    list_cache = graph._list_cache
    prefix_counts, dummy_prefix_counts = graph._prefix_counts, graph._dummy_prefix_counts
    counts_agree = dummies_agree = True
    prefixes = dummy_prefixes = cached_lists = 0
    multi: Dict[int, int] = {}
    stale: List[Tuple[Tuple[int, Prefix], List[Key], List[Key]]] = []
    # For check 5, every list within distance ``redundancy``, gathered per
    # level as the two endpoint columns of its links: ``us[i]`` and
    # ``vs[i]`` are linked.
    pairs: Dict[int, Tuple[List[Key], List[Key]]] = {}

    def gather_links(level: int, ordered: List[Key]) -> None:
        us, vs = pairs.setdefault(level, ([], []))
        for distance in range(1, redundancy + 1):
            us += ordered[:-distance]
            vs += ordered[distance:]

    if network is not None:
        gather_links(0, base)
    for level, prefix, ordered, dummies in _partition(nodes):
        # 2. Level lists: the cache-backed neighbour walk agrees with the
        # derivation.  A list whose cached members are exactly the derived
        # list, and whose position map (if one is cached) holds their
        # indexes, would pass the walk; only the others are walked.  A split
        # skips it: cached lists derive from the base list through the node
        # map, and would fail on the keys only one of them holds.
        if len(ordered) >= 2:
            multi[level] = multi.get(level, 0) + 1
            if network is not None:
                gather_links(level, ordered)
            if not split and not _settled(graph, level, prefix, ordered):
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
        # 3a/3b, as the walk reaches the prefix: its cached list, its count
        # and its dummy count against the derivation.
        cached = list_cache.get((level, prefix))
        if cached is not None:
            cached_lists += bool(cached)
            if cached != ordered:
                stale.append(((level, prefix), cached, ordered))
        prefixes += 1
        counts_agree &= prefix_counts.get(prefix) == len(ordered)
        if dummies:
            dummy_prefixes += 1
            dummies_agree &= dummy_prefix_counts.get(prefix) == dummies
    # No cached list the walk did not reach may hold a key.
    if cached_lists != sum(map(bool, list_cache.values())):
        carried = {
            (level, bits[:level])
            for bits in (node.membership.bits for node in nodes.values())
            for level in range(1, len(bits) + 1)
        }
        stale += [
            (entry, cached, []) for entry, cached in list_cache.items() if cached and entry not in carried
        ]
    for (level, prefix), cached, expected in sorted(stale, key=itemgetter(0)):
        if not report(
            f"cached list (level={level}, prefix={prefix!r}) is {list(cached)!r}, "
            f"expected {expected!r}"
        ):
            return violations

    # 3b. Incremental indexes: every prefix the walk reached agreed, and no
    # indexed prefix went unvisited.
    if not counts_agree or prefixes != len(prefix_counts):
        report("prefix-count index does not match a from-scratch recount")
    if not dummies_agree or dummy_prefixes != len(dummy_prefix_counts):
        report("dummy-prefix index does not match a from-scratch recount")
    dummy_count = sum(node.is_dummy for node in nodes.values())
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
