"""The skip graph data structure.

The canonical state of a :class:`SkipGraph` is the set of nodes (ordered by
key) together with their membership vectors.  Every linked list of the skip
graph is *derived*: the list containing node ``x`` at level ``d`` is the set
of nodes whose membership vectors share ``x``'s first ``d`` bits, in key
order (paper, Section III).  Level 0 is the single base list containing all
nodes.

Because DSG's transformations only rewrite membership bits of the nodes in
one subtree (the linked list ``l_alpha`` shared by the communicating pair),
storing the state this way makes "local and partial reconstruction" a matter
of editing those nodes' vectors; the level lists of untouched subtrees are
unaffected, which mirrors the locality argument of the paper.

Scaling machinery (the request hot path relies on all four):

* **Hierarchical list cache** — a list at level ``d`` is materialised by
  filtering its *parent* list at level ``d - 1`` (recursively down to the
  base list), never by scanning all nodes.  Rebuilding the lists of a
  subtree after a transformation therefore costs ``O(|subtree| * depth)``,
  not ``O(n)`` per list.
* **Position maps** — every cached list lazily grows a ``key -> index`` map
  so :meth:`neighbors` is O(1) amortized instead of an O(list) scan per
  routing hop.
* **Targeted patching** — node insertion/removal and membership rewrites
  patch (a bulk promote or demote: evict) only the cache entries whose prefix
  the affected vector matches; untouched subtrees stay warm across requests.
* **Incremental height** — a per-level count of multi-member prefixes is
  maintained on every mutation, making :meth:`height` O(height) instead of
  an O(n log n) rescan (the DSG front end queries the height after every
  request).
* **Real-prefix index** — alongside the total per-prefix carrier counts, a
  per-prefix count of *dummy* carriers (dummies are rare, so the hot-path
  membership rewrites of real nodes never touch it) makes
  :meth:`real_prefix_count` / :meth:`shares_real_prefix` O(1) per query.
  This is what lets :func:`~repro.skipgraph.build.draw_membership_bits`
  answer "does any other real node share this prefix?" in O(1) per drawn
  bit instead of scanning ``real_keys`` — the join rule at 100k nodes.

Each derived index has one writer, shared by the seven mutators
(``add_node``, ``remove_node``, ``set_membership`` and the four ``*_run``
bulk entry points) and by ``_load``, which fills an empty graph in one pass
for the builders and :meth:`copy`: ``_count`` writes the prefix,
multi-prefix and dummy-prefix counts (``_load`` calls it once per list, with
``start = len(prefix)``); ``_insert_keys`` / ``_delete_keys`` patch the base
list and the cached lists, and own the lazy-buffer rule (``_PENDING_MIN``);
``_evict`` drops a cached list together with its position map and pending
buffer.  A mutator checks its whole input before its first write and
raises on bad input, so a failed call leaves the graph as it was.

The structure also owns its a-balance bookkeeping: when a
:class:`~repro.skipgraph.balance.BalanceTracker` is attached as
:attr:`SkipGraph.tracker`, each of the seven mutators marks the lists it
is about to rewrite, after its checks and before the write — so "which
lists changed" is a fact about the structure, not a courtesy of whoever
mutates it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.skipgraph.membership import MembershipVector, common_prefix_length
from repro.skipgraph.node import Key, SkipGraphNode

if TYPE_CHECKING:  # balance.py imports this module
    from repro.skipgraph.balance import BalanceTracker

__all__ = ["SkipGraph"]

Prefix = Tuple[int, ...]


def _merge_sorted(dst: List, added: List) -> None:
    """Merge sorted ``added`` into sorted ``dst`` in place.

    Three regimes.  Dense batches append and re-sort: timsort sees exactly
    two sorted runs and gallops, one comparison-bounded merge pass for the
    whole batch.  Tiny batches (or small lists) use ``insort`` — one C
    memmove per key.  In between — a handful of keys into a huge list —
    the list is rebuilt with one slice copy per gap, so every element is
    copied once instead of shifted once per inserted key.
    """
    size = len(dst)
    batch = len(added)
    if batch * 24 >= size:
        dst.extend(added)
        dst.sort()
        return
    if batch < 4 or size < 16384:
        for key in added:
            insort(dst, key)
        return
    # Middle regime — a handful of keys into a huge list: k insort memmoves
    # would each shift ~size/2 slots, so rebuild instead with k+1 slice
    # copies (every element copied once, all in C).
    out: List = []
    position = 0
    for key in added:
        index = bisect_left(dst, key, position)
        out.extend(dst[position:index])
        out.append(key)
        position = index
    out.extend(dst[position:])
    dst[:] = out


def _delete_sorted(dst: List, removed: List) -> None:
    """Delete every key of ``removed`` from sorted ``dst`` in place.

    The removal mirror of :func:`_merge_sorted`: sparse batches pay one
    bisect plus one C memmove per key, a handful of keys in a huge list
    get the slice-rebuild treatment, dense batches one rebuild pass with
    an O(1) set probe per surviving element.  Keys absent from ``dst``
    are ignored in every regime.
    """
    size = len(dst)
    batch = len(removed)
    if batch * 24 >= size:
        doomed = set(removed)
        dst[:] = [key for key in dst if key not in doomed]
        return
    if batch < 4 or size < 16384:
        for key in removed:
            index = bisect_left(dst, key)
            if index < len(dst) and dst[index] == key:
                del dst[index]
        return
    out: List = []
    position = 0
    for key in sorted(removed):
        index = bisect_left(dst, key, position)
        if index < len(dst) and dst[index] == key:
            out.extend(dst[position:index])
            position = index + 1
    out.extend(dst[position:])
    dst[:] = out


#: Lists at least this long take insertions through a lazy pending buffer
#: (merged on the next read) instead of an eager ``insort``: each insort
#: into a six-figure list is an O(n) memmove, and the churn path lands
#: dozens of dummies per request.  Shorter lists are patched eagerly.
_PENDING_MIN = 4096


class SkipGraph:
    """A skip graph over totally ordered keys."""

    def __init__(self, nodes: Optional[Iterable[SkipGraphNode]] = None) -> None:
        #: Incremental a-balance dirty marks, fed by every mutator below;
        #: ``None`` (the default, never copied) when nobody consumes them.
        self.tracker: Optional["BalanceTracker"] = None
        self._nodes: Dict[Key, SkipGraphNode] = {}
        self._sorted_keys: List[Key] = []
        # Lazy insertion buffers for long lists (see _PENDING_MIN): sorted
        # keys inserted into the structure but not yet merged into the base
        # list / a cached list.  Every read path flushes before exposing the
        # list; an entry in _pending_inserts implies the cache entry exists.
        self._base_pending: List[Key] = []
        self._pending_inserts: Dict[Tuple[int, Prefix], List[Key]] = {}
        # Cache: (level, prefix bits) -> keys of that list, in key order.
        self._list_cache: Dict[Tuple[int, Prefix], List[Key]] = {}
        # Lazily built key -> index maps for cached lists (O(1) neighbours).
        self._pos_cache: Dict[Tuple[int, Prefix], Dict[Key, int]] = {}
        # Incremental height bookkeeping: how many nodes carry each prefix,
        # and per level, how many prefixes have >= 2 carriers.
        self._prefix_counts: Dict[Prefix, int] = {}
        self._multi_prefixes_per_level: Dict[int, int] = {}
        # Real-prefix index: per-prefix count of *dummy* carriers plus the
        # total dummy population.  Real carriers of a prefix are then
        # ``_prefix_counts[p] - _dummy_prefix_counts.get(p, 0)`` — O(1), and
        # the hot path (membership rewrites of real nodes) never pays for it.
        self._dummy_prefix_counts: Dict[Prefix, int] = {}
        self._dummy_count = 0
        if nodes is not None:
            for node in nodes:
                self.add_node(node)

    # --------------------------------------------------- lazy insert buffers
    def _base_list(self) -> List[Key]:
        """The base (level-0) list with any pending insertions merged."""
        pending = self._base_pending
        if pending:
            self._base_pending = []
            _merge_sorted(self._sorted_keys, pending)
        return self._sorted_keys

    def _flush_list(self, cache_key: Tuple[int, Prefix], cached: List[Key]) -> None:
        pending = self._pending_inserts.pop(cache_key, None)
        if pending is not None:
            _merge_sorted(cached, pending)

    def _flush_pending(self) -> None:
        """Merge every outstanding lazy insertion buffer (integrity hook)."""
        self._base_list()
        for cache_key in list(self._pending_inserts):
            self._flush_list(cache_key, self._list_cache[cache_key])

    # ------------------------------------------------------------- population
    def add_node(self, node: SkipGraphNode) -> None:
        """Insert ``node``; keys must be unique.

        Cached lists the node belongs to are patched in place (sorted
        insertion) rather than evicted: evicting would force the next query
        to rebuild the whole ancestor chain from the base list, which made
        per-transformation dummy insertion O(n).  Position maps cannot be
        patched cheaply (an insertion shifts every later index) and are
        rebuilt lazily.
        """
        key = node.key
        if key in self._nodes:
            raise ValueError(f"duplicate key {key!r}")
        bits = node.membership.bits
        if self.tracker is not None:
            self.tracker.mark_insert(key, bits)
        self._nodes[key] = node
        self._dummy_count += node.is_dummy
        self._count(bits, 1, 1, node.is_dummy)
        self._insert_keys(bits, [key])

    def remove_node(self, key: Key) -> SkipGraphNode:
        """Remove and return the node with ``key``.

        Cached lists are patched in place, mirroring :meth:`add_node`.
        """
        node = self._nodes.get(key)
        if node is None:
            raise KeyError(f"no node with key {key!r}")
        if self.tracker is not None:
            self.tracker.mark_remove(self, key)  # needs the pre-departure vector
        del self._nodes[key]
        bits = node.membership.bits
        self._dummy_count -= node.is_dummy
        self._count(bits, 1, -1, -node.is_dummy)
        self._delete_keys(bits, [key])
        return node

    def node(self, key: Key) -> SkipGraphNode:
        return self._nodes[key]

    def has_node(self, key: Key) -> bool:
        return key in self._nodes

    def __contains__(self, key: Key) -> bool:
        return key in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[SkipGraphNode]:
        for key in self._base_list():
            yield self._nodes[key]

    @property
    def keys(self) -> List[Key]:
        """All keys in ascending order (including dummy nodes)."""
        return list(self._base_list())

    @property
    def real_keys(self) -> List[Key]:
        """Keys of non-dummy nodes in ascending order."""
        return [k for k in self._base_list() if not self._nodes[k].is_dummy]

    @property
    def real_count(self) -> int:
        """Number of non-dummy nodes — O(1), no ``real_keys`` scan."""
        return len(self._nodes) - self._dummy_count

    @property
    def dummy_node_count(self) -> int:
        """Number of dummy nodes — O(1), no ``dummy_keys`` scan."""
        return self._dummy_count

    def nodes(self) -> List[SkipGraphNode]:
        return [self._nodes[key] for key in self._base_list()]

    def dummy_keys(self) -> List[Key]:
        return [k for k in self._base_list() if self._nodes[k].is_dummy]

    # ------------------------------------------------------------ level lists
    def membership(self, key: Key) -> MembershipVector:
        return self._nodes[key].membership

    def set_membership(self, key: Key, membership: MembershipVector | Iterable[int] | str) -> None:
        """Replace the membership vector of ``key`` and patch caches.

        The cached lists the node leaves or enters (levels >= 1 past the
        prefix the old and new vectors share) are patched in place, as in
        :meth:`add_node`; the base list is key-order only.
        """
        node = self._nodes[key]
        old = node.membership
        new = MembershipVector(membership) if not isinstance(membership, MembershipVector) else membership
        old_bits = old.bits
        new_bits = new.bits
        if self.tracker is not None:
            self.tracker.mark_rewrite(key, old_bits, new_bits)
        node.membership = new
        dummy = node.is_dummy
        if len(new_bits) == len(old_bits) + 1 and new_bits[:-1] == old_bits:
            # The transformation's one-bit append: the node enters one list
            # (the one ``new_bits`` names) and leaves none.
            self._count(new_bits, len(new_bits), 1, dummy)
            self._insert_keys(new_bits, [key], len(new_bits))
            return
        keep = common_prefix_length(old, new)
        self._count(old_bits, keep + 1, -1, -dummy)
        self._count(new_bits, keep + 1, 1, dummy)
        self._delete_keys(old_bits, [key], keep + 1)
        self._insert_keys(new_bits, [key], keep + 1)

    # ------------------------------------------------ derived-index writers
    def _count(self, bits: Prefix, start: int, carriers: int, dummies: int = 0) -> None:
        """Add ``carriers`` carriers, ``dummies`` of them dummies, to every
        prefix of ``bits`` from length ``start`` up (negative: remove them).

        The one writer of the three prefix indexes: the carrier count per
        prefix, the count per level of prefixes with two or more carriers
        (behind :meth:`height`) and the dummy-carrier count per prefix
        (behind :meth:`real_prefix_count`).  ``start`` lets a rewrite skip
        the prefix its old and new vector share, whose counts do not change,
        so a one-bit append costs one prefix instead of the whole depth.
        """
        if carriers:
            counts = self._prefix_counts
            multi = self._multi_prefixes_per_level
            for level in range(start, len(bits) + 1):
                prefix = bits[:level]
                old = counts.get(prefix, 0)
                new = old + carriers
                if new:
                    counts[prefix] = new
                else:
                    del counts[prefix]
                if (old >= 2) != (new >= 2):
                    lists = multi.get(level, 0) + (1 if new >= 2 else -1)
                    if lists:
                        multi[level] = lists
                    else:
                        del multi[level]
        if dummies:
            dummy_counts = self._dummy_prefix_counts
            for level in range(start, len(bits) + 1):
                prefix = bits[:level]
                remaining = dummy_counts.get(prefix, 0) + dummies
                if remaining:
                    dummy_counts[prefix] = remaining
                else:
                    del dummy_counts[prefix]

    def _evict(self, cache_key: Tuple[int, Prefix]) -> None:
        """Drop the cached list at ``cache_key`` with its position map and
        pending buffer; the next read derives it again from its parent."""
        self._list_cache.pop(cache_key, None)
        self._pos_cache.pop(cache_key, None)
        self._pending_inserts.pop(cache_key, None)

    def _insert_keys(self, bits: Prefix, keys: List[Key], start: int = 0) -> None:
        """Merge the sorted ``keys`` into the list of every prefix of
        ``bits`` from length ``start`` up (the empty prefix: the base list).

        A list above the base list is patched only when cached, and loses
        its position map.  A list of ``_PENDING_MIN`` keys or more takes the
        keys into its pending buffer instead, merged on the next read.
        """
        if not start:
            base = self._sorted_keys
            _merge_sorted(base if len(base) < _PENDING_MIN else self._base_pending, keys)
        list_cache = self._list_cache
        pop_positions = self._pos_cache.pop
        for level in range(max(start, 1), len(bits) + 1):
            cache_key = (level, bits[:level])
            cached = list_cache.get(cache_key)
            if cached is not None:
                pop_positions(cache_key, None)
                if len(cached) < _PENDING_MIN:
                    _merge_sorted(cached, keys)
                else:
                    _merge_sorted(self._pending_inserts.setdefault(cache_key, []), keys)

    def _delete_keys(self, bits: Prefix, keys: Iterable[Key], start: int = 0) -> None:
        """Delete ``keys`` from the list of every prefix of ``bits`` from
        length ``start`` up, flushing its pending buffer first (the same
        lists as :meth:`_insert_keys`)."""
        if not start:
            _delete_sorted(self._base_list(), keys)
        list_cache = self._list_cache
        pop_positions = self._pos_cache.pop
        for level in range(max(start, 1), len(bits) + 1):
            cache_key = (level, bits[:level])
            cached = list_cache.get(cache_key)
            if cached is not None:
                if self._pending_inserts:
                    self._flush_list(cache_key, cached)
                _delete_sorted(cached, keys)
                pop_positions(cache_key, None)

    def _count_run(self, run: List[SkipGraphNode], sign: int) -> Dict[Tuple[int, Prefix], List[Key]]:
        """Count the nodes of ``run`` in (``sign`` 1) or out (-1) and group
        their keys by the lists above the base list that they belong to.

        The prefix indexes are written once per distinct vector, not once
        per node: a chain pass lands its dummies with two vectors at most,
        and the dummies a notification destroys share most of their bits.
        """
        by_vector: Dict[Tuple[Prefix, bool], List[Key]] = {}
        for node in run:
            by_vector.setdefault((node.membership.bits, node.is_dummy), []).append(node.key)
        by_list: Dict[Tuple[int, Prefix], List[Key]] = {}
        for (bits, dummy), carriers in by_vector.items():
            count = sign * len(carriers)
            dummies = count if dummy else 0
            self._dummy_count += dummies
            self._count(bits, 1, count, dummies)
            for level in range(1, len(bits) + 1):
                by_list.setdefault((level, bits[:level]), []).extend(carriers)
        return by_list

    def _load(self, nodes: List[SkipGraphNode], lists: Iterable[Tuple[Prefix, int, int]]) -> None:
        """Fill this empty graph in one pass: the two builders and :meth:`copy`.

        Trusted input: ``nodes`` ascend by key, and ``lists`` names every
        list above the base list once, as ``(prefix, carriers, dummy
        carriers)``; each prefix is counted once, not once per node and level.
        """
        self._nodes = {node.key: node for node in nodes}
        self._dummy_count = sum(node.is_dummy for node in nodes)
        for prefix, carriers, dummies in lists:
            self._count(prefix, len(prefix), carriers, dummies)
        self._insert_keys((), list(self._nodes))

    # ------------------------------------------------------------ bulk kernel
    def promote_run(self, keys, level: int, bit: int) -> None:
        """Append ``bit`` at ``level`` for every key of ``keys`` in one splice.

        The transformation's split loop promotes a whole 0- or 1-sublist at
        once: every promoted key carries the identical ``level - 1``-bit
        parent vector and the keys ascend (they are a filtered key-ordered
        list).  Under that precondition the run shares ONE immutable
        membership vector, registers the new prefix once with the carrier
        count, and — when the new prefix had no prior carriers — installs
        the run directly as the cached list at ``(level, new prefix)``
        instead of invalidating it ``len(keys)`` times.

        A broken precondition raises ``ValueError`` before any mark or
        write.  The tracker receives the same dirty marks the per-op path
        would emit, before the mutation.
        """
        if not keys:
            return
        nodes = self._nodes
        first = nodes.get(keys[0])
        if first is None or len(first.membership.bits) != level - 1:
            raise ValueError(f"promote_run: key {keys[0]!r} is absent or not {level - 1} bits long")
        parent = first.membership
        parent_bits = parent.bits
        dummy_count = 0
        previous = None
        for key in keys:
            node = nodes.get(key)
            # The previous split (or the subtree's demote) usually gave the
            # whole run one shared vector object: identity settles it.
            if node is None or (node.membership is not parent and node.membership.bits != parent_bits):
                raise ValueError(f"promote_run: key {key!r} does not share the run's parent vector")
            if previous is not None and not previous < key:
                raise ValueError(f"promote_run: keys must ascend, got {key!r} after {previous!r}")
            previous = key
            if node.is_dummy:
                dummy_count += 1
        new_bits = parent_bits + (bit,)
        tracker = self.tracker
        if tracker is not None:
            tracker.mark_run(level - 1, parent_bits, keys)
            tracker.mark_run(level, new_bits, keys)
        fresh = new_bits not in self._prefix_counts
        shared = MembershipVector._from_trusted(new_bits)
        for key in keys:
            nodes[key].membership = shared
        self._count(new_bits, level, len(keys), dummy_count)
        cache_key = (level, new_bits)
        self._evict(cache_key)
        if fresh:
            # The run is the complete new list: install it rather than
            # forcing the next read to re-derive it from the parent list.
            self._list_cache[cache_key] = list(keys)

    def demote_run(self, keys, length: int) -> None:
        """Truncate every key of ``keys`` to ``length`` bits in one pass.

        The keys must ascend, share their first ``length`` bits (they come
        from one list of the subtree being rebuilt) and all be longer than
        ``length``; a broken precondition raises ``ValueError`` before any
        mark or write.  Prefix-count updates and cache evictions are
        aggregated per distinct abandoned prefix — the subtree below the cut
        is a trie, so the distinct prefixes number far fewer than the
        per-key total.
        """
        if not keys:
            return
        nodes = self._nodes
        shared_bits: Optional[Prefix] = None
        entries = []
        previous = None
        for key in keys:
            node = nodes.get(key)
            bits = node.membership.bits if node is not None else ()
            if len(bits) <= length:
                raise ValueError(f"demote_run: key {key!r} is absent or has no bit past {length}")
            if shared_bits is None:
                shared_bits = bits[:length]
            elif bits[:length] != shared_bits:
                raise ValueError(f"demote_run: key {key!r} does not share the run's first {length} bits")
            if previous is not None and not previous < key:
                raise ValueError(f"demote_run: keys must ascend, got {key!r} after {previous!r}")
            previous = key
            entries.append((node, bits))
        # Bucket the keys by abandoned list.  The walk tracks each prefix as
        # an int (a leading 1, then the bits) grown by one bit per level, so it
        # neither slices nor hashes a tuple per key and level; a bucket's
        # prefix tuple is sliced once, off its first carrier's vector.
        shared_code = 1
        for bit in shared_bits:
            shared_code = 2 * shared_code + bit
        buckets: Dict[int, Tuple[Prefix, List[Key]]] = {}
        for (node, bits), key in zip(entries, keys):
            code = shared_code
            for depth in range(length, len(bits)):
                code = 2 * code + bits[depth]
                bucket = buckets.get(code)
                if bucket is None:
                    buckets[code] = (bits, [key])
                else:
                    bucket[1].append(key)
        affected: Dict[Tuple[int, Prefix], List[Key]] = {}
        for code, (bits, abandoned) in buckets.items():
            level = code.bit_length() - 1
            affected[(level, bits[:level])] = abandoned
        tracker = self.tracker
        if tracker is not None:
            tracker.mark_run(length, shared_bits, keys)
            for (level, prefix), marked in affected.items():
                tracker.mark_run(level, prefix, marked)
        shared = MembershipVector._from_trusted(shared_bits)
        for node, bits in entries:
            node.membership = shared
            if node.is_dummy:
                self._count(bits, length + 1, 0, -1)
        for (level, prefix), abandoned in affected.items():
            self._count(prefix, level, -len(abandoned))
            self._evict((level, prefix))

    def remove_run(self, keys) -> None:
        """Remove every node in ``keys`` (the bulk form of :meth:`remove_node`).

        End state identical to removing one by one; the prefix-index and
        cache bookkeeping is aggregated per distinct vector and per list, so
        the dictionary traffic collapses from O(keys * depth) to roughly
        O(distinct prefixes).  An absent key, or a key named twice, raises
        ``KeyError`` before any mark or write.  The tracker's marks are
        emitted for every key before any node is removed (marks need
        pre-departure vectors).
        """
        nodes = self._nodes
        run: List[SkipGraphNode] = []
        named = set()
        for key in keys:
            node = nodes.get(key)
            if node is None or key in named:
                raise KeyError(f"no node with key {key!r}")
            named.add(key)
            run.append(node)
        tracker = self.tracker
        if tracker is not None:
            for key in keys:
                tracker.mark_remove(self, key)
        for key in keys:
            del nodes[key]
        by_list = self._count_run(run, -1)
        self._delete_keys((), keys)
        for (level, prefix), removed in by_list.items():
            self._delete_keys(prefix, removed, level)

    def insert_run(self, new_nodes) -> None:
        """Insert every node of ``new_nodes`` (the bulk form of :meth:`add_node`).

        End state identical to adding one by one.  The base list and each
        affected cached list are patched with one merge instead of one
        ``insort`` memmove per node — the win that matters when a repair
        round lands hundreds of dummies into a six-figure base list.
        Membership vectors may differ between the nodes; keys need not be
        ordered but must be fresh and distinct, or ``ValueError`` is raised
        before any mark or write.  The tracker receives the same
        ``mark_insert`` calls the per-op path would emit.
        """
        nodes = self._nodes
        fresh = set()
        for node in new_nodes:
            if node.key in nodes or node.key in fresh:
                raise ValueError(f"duplicate key {node.key!r}")
            fresh.add(node.key)
        tracker = self.tracker
        if tracker is not None:
            for node in new_nodes:
                tracker.mark_insert(node.key, node.membership.bits)
        for node in new_nodes:
            nodes[node.key] = node
        by_list = self._count_run(new_nodes, 1)
        self._insert_keys((), sorted(fresh))
        for (level, prefix), added in by_list.items():
            added.sort()
            self._insert_keys(prefix, added, level)

    # ------------------------------------------------------ real-prefix index
    def prefix_count(self, prefix: Prefix) -> int:
        """How many nodes (dummies too) carry the non-empty ``prefix`` — O(1)."""
        return self._prefix_counts.get(prefix, 0)

    def real_prefix_count(self, prefix: Prefix) -> int:
        """How many *real* (non-dummy) nodes carry ``prefix`` — O(1).

        The empty prefix counts the whole real population.  Derived from
        the incremental height bookkeeping: total carriers minus dummy
        carriers, both maintained on every mutation.
        """
        if not prefix:
            return self.real_count
        return self._prefix_counts.get(prefix, 0) - self._dummy_prefix_counts.get(prefix, 0)

    def shares_real_prefix(self, prefix: Prefix, exclude: Optional[Key] = None) -> bool:
        """Whether any real node other than ``exclude`` carries ``prefix``.

        This is the join-rule predicate of Section IV-G ("does some existing
        real node share the joiner's prefix?") answered from the prefix
        index in O(|prefix|) instead of an O(n) ``real_keys`` scan —
        semantically identical to the scan, including the treatment of a
        node already present under ``exclude``.
        """
        count = self.real_prefix_count(prefix)
        if exclude is not None:
            node = self._nodes.get(exclude)
            if node is not None and not node.is_dummy:
                bits = node.membership.bits
                if len(bits) >= len(prefix) and bits[: len(prefix)] == prefix:
                    count -= 1
        return count > 0

    # ---------------------------------------------------------- list building
    def _members_internal(self, level: int, prefix_bits: Prefix) -> List[Key]:
        """The cached (live, do-not-mutate) list at ``level`` / ``prefix_bits``.

        On a miss the list is derived from the deepest cached ancestor list
        (ultimately the base list), so a rebuild costs O(ancestor size) per
        missing level rather than a scan over all nodes.
        """
        if level == 0:
            return self._base_list()
        cache = self._list_cache
        cached = cache.get((level, prefix_bits))
        if cached is not None:
            if self._pending_inserts:
                self._flush_list((level, prefix_bits), cached)
            return cached
        base_level = level - 1
        while base_level > 0 and (base_level, prefix_bits[:base_level]) not in cache:
            base_level -= 1
        if base_level == 0:
            members = self._base_list()
        else:
            members = cache[(base_level, prefix_bits[:base_level])]
            if self._pending_inserts:
                self._flush_list((base_level, prefix_bits[:base_level]), members)
        nodes = self._nodes
        for depth in range(base_level + 1, level + 1):
            wanted = prefix_bits[depth - 1]
            members = [
                key
                for key in members
                if len(bits := nodes[key].membership.bits) >= depth and bits[depth - 1] == wanted
            ]
            cache_key = (depth, prefix_bits[:depth])
            cache[cache_key] = members
            self._pos_cache.pop(cache_key, None)
        return members

    def _positions(self, level: int, prefix_bits: Prefix, members: List[Key]) -> Dict[Key, int]:
        cache_key = (level, prefix_bits)
        positions = self._pos_cache.get(cache_key)
        if positions is None:
            positions = {key: index for index, key in enumerate(members)}
            self._pos_cache[cache_key] = positions
        return positions

    def list_members(self, level: int, prefix: MembershipVector | Iterable[int] | str) -> List[Key]:
        """Keys of the linked list at ``level`` identified by ``prefix``.

        ``prefix`` must have exactly ``level`` bits.  Nodes whose membership
        vectors are shorter than ``level`` belong to no multi-node list at
        that level and are excluded unless their (full) vector equals the
        prefix of the same length.
        """
        prefix_vec = prefix if isinstance(prefix, MembershipVector) else MembershipVector(prefix)
        if len(prefix_vec) != level:
            raise ValueError(f"prefix must have exactly {level} bits, got {len(prefix_vec)}")
        return list(self._members_internal(level, prefix_vec.bits))

    def list_at(self, level: int, prefix_bits: Prefix) -> List[Key]:
        """The live (do-not-mutate) list at ``level`` / ``prefix_bits``.

        Trusted fast path for in-package scanners (the balance tracker walks
        dirtied lists through it): no prefix re-validation, no defensive
        copy.  ``prefix_bits`` must be a tuple of exactly ``level`` bits;
        an unknown prefix yields an empty list.
        """
        return self._members_internal(level, prefix_bits)

    def list_of(self, key: Key, level: int) -> List[Key]:
        """Keys of the linked list containing ``key`` at ``level`` (key order)."""
        if level == 0:
            return list(self._base_list())
        node = self._nodes[key]
        if len(node.membership) < level:
            return [key]
        return list(self._members_internal(level, node.membership.bits[:level]))

    def lists_at_level(self, level: int) -> Dict[Prefix, List[Key]]:
        """All linked lists at ``level``, keyed by their prefix bits.

        Nodes with membership vectors shorter than ``level`` appear as
        singleton lists keyed by their full vector (padded marker lists).
        """
        if level == 0:
            return {(): list(self._base_list())}
        lists: Dict[Prefix, List[Key]] = {}
        for key in self._base_list():
            bits = self._nodes[key].membership.bits
            # Nodes shorter than the level are singletons beyond their depth.
            prefix = bits[:level] if len(bits) >= level else bits
            lists.setdefault(prefix, []).append(key)
        return lists

    # ------------------------------------------------------------- neighbours
    def neighbors(self, key: Key, level: int) -> Tuple[Optional[Key], Optional[Key]]:
        """Left and right neighbour of ``key`` in its list at ``level``.

        O(1) amortized: cached lists carry a lazily built ``key -> index``
        map; the base list is searched by bisection.
        """
        if level == 0:
            keys = self._base_list()
            if key not in self._nodes:
                raise KeyError(f"no node with key {key!r}")
            index = bisect_left(keys, key)
            left = keys[index - 1] if index > 0 else None
            right = keys[index + 1] if index + 1 < len(keys) else None
            return left, right
        bits = self._nodes[key].membership.bits
        if len(bits) < level:
            return None, None
        prefix_bits = bits[:level]
        members = self._members_internal(level, prefix_bits)
        index = self._positions(level, prefix_bits, members)[key]
        left = members[index - 1] if index > 0 else None
        right = members[index + 1] if index + 1 < len(members) else None
        return left, right

    def are_adjacent(self, u: Key, v: Key, level: int) -> bool:
        """Whether ``u`` and ``v`` sit next to each other in a list at ``level``.

        O(1) amortized; ``False`` when either node does not belong to a
        multi-node list at that level (or they belong to different lists).
        """
        if u == v:
            return False
        if level == 0:
            keys = self._base_list()
            index = bisect_left(keys, u)
            if index >= len(keys) or keys[index] != u:
                return False
            return (index > 0 and keys[index - 1] == v) or (
                index + 1 < len(keys) and keys[index + 1] == v
            )
        node_u = self._nodes.get(u)
        node_v = self._nodes.get(v)
        if node_u is None or node_v is None:
            return False
        bits_u = node_u.membership.bits
        bits_v = node_v.membership.bits
        if len(bits_u) < level or len(bits_v) < level:
            return False
        prefix_bits = bits_u[:level]
        if bits_v[:level] != prefix_bits:
            return False
        members = self._members_internal(level, prefix_bits)
        positions = self._positions(level, prefix_bits, members)
        return abs(positions[u] - positions[v]) == 1

    # ------------------------------------------------------------- structure
    def singleton_level(self, key: Key) -> int:
        """Lowest level at which ``key`` is the only member of its list."""
        if len(self._nodes) <= 1:
            return 0
        bits = self._nodes[key].membership.bits
        counts = self._prefix_counts
        deepest_shared = 0
        for level in range(len(bits), 0, -1):
            if counts.get(bits[:level], 0) >= 2:
                deepest_shared = level
                break
        return deepest_shared + 1

    def common_level(self, u: Key, v: Key) -> int:
        """Highest level at which ``u`` and ``v`` share a linked list (``alpha``)."""
        return common_prefix_length(self._nodes[u].membership, self._nodes[v].membership)

    def height(self) -> int:
        """Number of levels: 1 + the highest level holding a list of size >= 2.

        An empty or single-node skip graph has height 1 (just the base list).
        Maintained incrementally from the per-level count of prefixes carried
        by two or more nodes, so the query is O(height).
        """
        if len(self._nodes) <= 1:
            return 1
        multi = self._multi_prefixes_per_level
        if not multi:
            return 2
        return max(multi) + 2

    def max_list_level(self) -> int:
        """Highest level at which some list still has two or more nodes."""
        return self.height() - 1 if len(self._nodes) > 1 else 0

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise ``ValueError`` if the structure is internally inconsistent.

        Checks that every node eventually becomes singleton (no two nodes
        share a complete membership vector of equal length where one is a
        prefix of the other and equal) and that keys are unique and sorted.
        Dummy nodes are exempt: they deliberately stop at the level where
        they were inserted (paper, Section IV-F) and never need to become
        singletons.
        """
        seen_vectors: Dict[Tuple[int, ...], Key] = {}
        sorted_keys = self._base_list()
        for key in sorted_keys:
            node = self._nodes[key]
            if node.is_dummy:
                continue
            vector = node.membership.bits
            if vector in seen_vectors:
                other = seen_vectors[vector]
                raise ValueError(
                    f"nodes {other!r} and {key!r} share the full membership vector "
                    f"{''.join(map(str, vector))!r}; neither becomes singleton"
                )
            seen_vectors[vector] = key
        for first, second in zip(sorted_keys, sorted_keys[1:]):
            if not first < second:
                raise ValueError(f"keys not strictly sorted: {first!r} !< {second!r}")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------ misc
    def copy(self) -> "SkipGraph":
        """A copy with fresh nodes sharing the immutable vectors, and no tracker."""
        dummies = self._dummy_prefix_counts
        clone = SkipGraph()
        clone._load(
            [SkipGraphNode(node.key, node.membership, node.is_dummy) for node in self.nodes()],
            [(prefix, carriers, dummies.get(prefix, 0)) for prefix, carriers in self._prefix_counts.items()],
        )
        return clone

    def membership_table(self) -> Dict[Key, str]:
        """Mapping key -> membership vector string (for display and tests)."""
        return {key: str(self._nodes[key].membership) for key in self._base_list()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipGraph(n={len(self)}, height={self.height()})"
