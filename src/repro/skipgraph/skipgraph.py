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
* **Targeted invalidation** — node insertion/removal and membership rewrites
  only evict the cache entries whose prefix the affected vector matches;
  untouched subtrees stay warm across requests.
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

The structure also owns its a-balance bookkeeping: when a
:class:`~repro.skipgraph.balance.BalanceTracker` is attached as
:attr:`SkipGraph.tracker`, each of the seven mutators (``add_node``,
``remove_node``, ``set_membership`` and the four ``*_run`` bulk entry
points) marks the lists it is about to rewrite, before the write — so
"which lists changed" is a fact about the structure, not a courtesy of
whoever mutates it.
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
        if self._pending_inserts:
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
        if node.key in self._nodes:
            raise ValueError(f"duplicate key {node.key!r}")
        bits = node.membership.bits
        if self.tracker is not None:
            self.tracker.mark_insert(node.key, bits)
        self._nodes[node.key] = node
        if len(self._sorted_keys) >= _PENDING_MIN:
            insort(self._base_pending, node.key)
        else:
            insort(self._sorted_keys, node.key)
        if node.is_dummy:
            self._dummy_count += 1
        self._register_vector(bits, dummy=node.is_dummy)
        list_cache = self._list_cache
        pending_inserts = self._pending_inserts
        pop_pos = self._pos_cache.pop
        for level in range(1, len(bits) + 1):
            cache_key = (level, bits[:level])
            cached = list_cache.get(cache_key)
            if cached is not None:
                if len(cached) >= _PENDING_MIN:
                    bucket = pending_inserts.get(cache_key)
                    if bucket is None:
                        pending_inserts[cache_key] = [node.key]
                    else:
                        insort(bucket, node.key)
                else:
                    insort(cached, node.key)
                pop_pos(cache_key, None)

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
        base = self._base_list()
        index = bisect_left(base, key)
        del base[index]
        bits = node.membership.bits
        if node.is_dummy:
            self._dummy_count -= 1
        self._unregister_vector(bits, dummy=node.is_dummy)
        list_cache = self._list_cache
        pending_inserts = self._pending_inserts
        pop_pos = self._pos_cache.pop
        for level in range(1, len(bits) + 1):
            cache_key = (level, bits[:level])
            cached = list_cache.get(cache_key)
            if cached is not None:
                if pending_inserts:
                    self._flush_list(cache_key, cached)
                member_index = bisect_left(cached, key)
                if member_index < len(cached) and cached[member_index] == key:
                    del cached[member_index]
                pop_pos(cache_key, None)
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
        """Replace the membership vector of ``key`` and invalidate caches.

        Only the cache entries that could contain the node (levels >= 1 whose
        prefix matches either the old or the new vector) need invalidation,
        plus nothing at level 0 since the base list is key-order only.
        """
        node = self._nodes[key]
        old = node.membership
        new = MembershipVector(membership) if not isinstance(membership, MembershipVector) else membership
        if self.tracker is not None:
            self.tracker.mark_rewrite(key, old.bits, new.bits)
        node.membership = new
        keep_prefix = common_prefix_length(old, new)
        self._unregister_vector(old.bits, start=keep_prefix + 1, dummy=node.is_dummy)
        self._register_vector(new.bits, start=keep_prefix + 1, dummy=node.is_dummy)
        self._invalidate_for_change(old, new, keep_prefix)

    def _invalidate_for_change(self, old: MembershipVector, new: MembershipVector, keep_prefix: int) -> None:
        longest = max(len(old), len(new))
        pop_list = self._list_cache.pop
        pop_pos = self._pos_cache.pop
        pop_pending = self._pending_inserts.pop
        for level in range(keep_prefix + 1, longest + 1):
            for vector in (old, new):
                if len(vector) >= level:
                    cache_key = (level, vector.bits[:level])
                    pop_list(cache_key, None)
                    pop_pos(cache_key, None)
                    pop_pending(cache_key, None)

    # ------------------------------------------------- incremental height data
    def _register_vector(self, bits: Prefix, start: int = 1, dummy: bool = False) -> None:
        """Count the prefixes of ``bits`` from length ``start`` upward.

        ``start`` lets :meth:`set_membership` skip the prefix shared between
        the old and the new vector, whose counts are unchanged — the
        transformation's one-bit appends then cost O(1) here instead of
        O(depth).  ``dummy`` carriers are additionally counted in the
        dummy-prefix index so :meth:`real_prefix_count` stays exact.
        """
        counts = self._prefix_counts
        multi = self._multi_prefixes_per_level
        for level in range(start, len(bits) + 1):
            prefix = bits[:level]
            count = counts.get(prefix, 0) + 1
            counts[prefix] = count
            if count == 2:
                multi[level] = multi.get(level, 0) + 1
        if dummy:
            dummy_counts = self._dummy_prefix_counts
            for level in range(start, len(bits) + 1):
                prefix = bits[:level]
                dummy_counts[prefix] = dummy_counts.get(prefix, 0) + 1

    def _unregister_vector(self, bits: Prefix, start: int = 1, dummy: bool = False) -> None:
        counts = self._prefix_counts
        multi = self._multi_prefixes_per_level
        for level in range(start, len(bits) + 1):
            prefix = bits[:level]
            count = counts[prefix] - 1
            if count:
                counts[prefix] = count
            else:
                del counts[prefix]
            if count == 1:
                remaining = multi[level] - 1
                if remaining:
                    multi[level] = remaining
                else:
                    del multi[level]
        if dummy:
            dummy_counts = self._dummy_prefix_counts
            for level in range(start, len(bits) + 1):
                prefix = bits[:level]
                remaining = dummy_counts[prefix] - 1
                if remaining:
                    dummy_counts[prefix] = remaining
                else:
                    del dummy_counts[prefix]

    # ------------------------------------------------------------ bulk kernel
    def _register_vectors(self, bits: Prefix, count: int, start: int = 1, dummy_count: int = 0) -> None:
        """Count ``count`` new carriers of every prefix of ``bits`` at once.

        The bulk form of :meth:`_register_vector`: one dictionary update per
        prefix instead of one per carrier, with the multi-prefix transition
        taken when the carrier count crosses two in either direction of the
        batch.
        """
        counts = self._prefix_counts
        multi = self._multi_prefixes_per_level
        for level in range(start, len(bits) + 1):
            prefix = bits[:level]
            old = counts.get(prefix, 0)
            counts[prefix] = old + count
            if old < 2 <= old + count:
                multi[level] = multi.get(level, 0) + 1
        if dummy_count:
            dummy_counts = self._dummy_prefix_counts
            for level in range(start, len(bits) + 1):
                prefix = bits[:level]
                dummy_counts[prefix] = dummy_counts.get(prefix, 0) + dummy_count

    def promote_run(self, keys, level: int, bit: int) -> bool:
        """Append ``bit`` at ``level`` for every key of ``keys`` in one splice.

        The transformation's split loop promotes a whole 0- or 1-sublist at
        once: every promoted key carries the identical ``level - 1``-bit
        parent vector and the keys ascend (they are a filtered key-ordered
        list).  Under that precondition the run shares ONE immutable
        membership vector, registers the new prefix once with the carrier
        count, and — when the new prefix had no prior carriers — installs
        the run directly as the cached list at ``(level, new prefix)``
        instead of invalidating it ``len(keys)`` times.

        Returns ``False`` (graph untouched) when the precondition does not
        hold, so callers can fall back to per-op application.  The tracker
        receives the same dirty marks the per-op path would emit, before
        the mutation.
        """
        if not keys:
            return True
        nodes = self._nodes
        first = nodes.get(keys[0])
        if first is None:
            return False
        parent_bits = first.membership.bits
        if len(parent_bits) != level - 1:
            return False
        dummy_count = 0
        previous = None
        for key in keys:
            node = nodes.get(key)
            if node is None or node.membership.bits != parent_bits:
                return False
            if previous is not None and not previous < key:
                return False
            previous = key
            if node.is_dummy:
                dummy_count += 1
        new_bits = parent_bits + (bit,)
        tracker = self.tracker
        if tracker is not None:
            tracker.mark_run(level - 1, parent_bits, keys)
            tracker.mark_run(level, new_bits, keys)
        prior_carriers = self._prefix_counts.get(new_bits, 0)
        shared = MembershipVector._from_trusted(new_bits)
        for key in keys:
            nodes[key].membership = shared
        self._register_vectors(new_bits, len(keys), start=level, dummy_count=dummy_count)
        cache_key = (level, new_bits)
        if prior_carriers == 0:
            # The run is the complete new list: install it rather than
            # forcing the next read to re-derive it from the parent list.
            self._list_cache[cache_key] = list(keys)
        else:
            self._list_cache.pop(cache_key, None)
        self._pos_cache.pop(cache_key, None)
        self._pending_inserts.pop(cache_key, None)
        return True

    def demote_run(self, keys, length: int) -> bool:
        """Truncate every key of ``keys`` to ``length`` bits in one pass.

        The keys must ascend, share their first ``length`` bits (they come
        from one list of the subtree being rebuilt) and all be longer than
        ``length``.  Prefix-count updates and cache evictions are aggregated
        per distinct abandoned prefix — the subtree below the cut is a trie,
        so the distinct prefixes number far fewer than the per-key total.

        Returns ``False`` (graph untouched) when a precondition fails.
        """
        if not keys:
            return True
        nodes = self._nodes
        shared_bits: Optional[Prefix] = None
        entries = []
        previous = None
        for key in keys:
            node = nodes.get(key)
            if node is None:
                return False
            bits = node.membership.bits
            if len(bits) <= length:
                return False
            if shared_bits is None:
                shared_bits = bits[:length]
            elif bits[:length] != shared_bits:
                return False
            if previous is not None and not previous < key:
                return False
            previous = key
            entries.append((node, bits))
        affected: Dict[Tuple[int, Prefix], List[Key]] = {}
        for (node, bits), key in zip(entries, keys):
            for level in range(length + 1, len(bits) + 1):
                entry = (level, bits[:level])
                bucket = affected.get(entry)
                if bucket is None:
                    affected[entry] = [key]
                else:
                    bucket.append(key)
        tracker = self.tracker
        if tracker is not None:
            tracker.mark_run(length, shared_bits, keys)
            for (level, prefix), marked in affected.items():
                tracker.mark_run(level, prefix, marked)
        shared = MembershipVector._from_trusted(shared_bits)
        dummy_counts = self._dummy_prefix_counts
        for node, bits in entries:
            node.membership = shared
            if node.is_dummy:
                for level in range(length + 1, len(bits) + 1):
                    prefix = bits[:level]
                    remaining = dummy_counts[prefix] - 1
                    if remaining:
                        dummy_counts[prefix] = remaining
                    else:
                        del dummy_counts[prefix]
        counts = self._prefix_counts
        multi = self._multi_prefixes_per_level
        pop_list = self._list_cache.pop
        pop_pos = self._pos_cache.pop
        pop_pending = self._pending_inserts.pop
        for (level, prefix), abandoned in affected.items():
            old = counts[prefix]
            new = old - len(abandoned)
            if new:
                counts[prefix] = new
            else:
                del counts[prefix]
            if old >= 2 > new:
                remaining = multi[level] - 1
                if remaining:
                    multi[level] = remaining
                else:
                    del multi[level]
            pop_list((level, prefix), None)
            pop_pos((level, prefix), None)
            pop_pending((level, prefix), None)
        return True

    def remove_run(self, keys) -> None:
        """Remove every node in ``keys`` (the bulk form of :meth:`remove_node`).

        End state identical to removing one by one; the prefix-index and
        cache bookkeeping is aggregated per distinct prefix — the dummies a
        transformation clears share their deep prefixes almost entirely, so
        the dictionary traffic collapses from O(keys * depth) to roughly
        O(distinct prefixes).  The tracker's marks are emitted for every key
        before any node is removed (marks need pre-departure vectors).
        """
        tracker = self.tracker
        if tracker is not None:
            for key in keys:
                tracker.mark_remove(self, key)
        nodes = self._nodes
        affected: Dict[Tuple[int, Prefix], List[Key]] = {}
        dummy_affected: Dict[Tuple[int, Prefix], int] = {}
        for key in keys:
            node = nodes.pop(key, None)
            if node is None:
                raise KeyError(f"no node with key {key!r}")
            bits = node.membership.bits
            if node.is_dummy:
                self._dummy_count -= 1
            for level in range(1, len(bits) + 1):
                entry = (level, bits[:level])
                bucket = affected.get(entry)
                if bucket is None:
                    affected[entry] = [key]
                else:
                    bucket.append(key)
                if node.is_dummy:
                    dummy_affected[entry] = dummy_affected.get(entry, 0) + 1
        _delete_sorted(self._base_list(), list(keys))
        counts = self._prefix_counts
        multi = self._multi_prefixes_per_level
        dummy_counts = self._dummy_prefix_counts
        list_cache = self._list_cache
        pending_inserts = self._pending_inserts
        pop_pos = self._pos_cache.pop
        for (level, prefix), removed in affected.items():
            old = counts[prefix]
            new = old - len(removed)
            if new:
                counts[prefix] = new
            else:
                del counts[prefix]
            if old >= 2 > new:
                remaining = multi[level] - 1
                if remaining:
                    multi[level] = remaining
                else:
                    del multi[level]
            dummies_gone = dummy_affected.get((level, prefix), 0)
            if dummies_gone:
                remaining = dummy_counts[prefix] - dummies_gone
                if remaining:
                    dummy_counts[prefix] = remaining
                else:
                    del dummy_counts[prefix]
            cached = list_cache.get((level, prefix))
            if cached is not None:
                if pending_inserts:
                    self._flush_list((level, prefix), cached)
                _delete_sorted(cached, removed)
                pop_pos((level, prefix), None)

    def insert_run(self, new_nodes) -> None:
        """Insert every node of ``new_nodes`` (the bulk form of :meth:`add_node`).

        End state identical to adding one by one.  The base list and each
        affected cached list are patched with one merge instead of one
        ``insort`` memmove per node — the win that matters when a repair
        round lands hundreds of dummies into a six-figure base list.
        Membership vectors may differ between the nodes; keys need not be
        ordered but must be fresh and distinct.  The tracker receives the
        same ``mark_insert`` calls the per-op path would emit.
        """
        if not new_nodes:
            return
        tracker = self.tracker
        if tracker is not None:
            for node in new_nodes:
                tracker.mark_insert(node.key, node.membership.bits)
        nodes = self._nodes
        new_keys: List[Key] = []
        by_list: Dict[Tuple[int, Prefix], List[Key]] = {}
        list_cache = self._list_cache
        for node in new_nodes:
            key = node.key
            if key in nodes:
                raise ValueError(f"duplicate key {key!r}")
            nodes[key] = node
            new_keys.append(key)
            bits = node.membership.bits
            if node.is_dummy:
                self._dummy_count += 1
            self._register_vector(bits, dummy=node.is_dummy)
            for level in range(1, len(bits) + 1):
                cache_key = (level, bits[:level])
                if cache_key in list_cache:
                    bucket = by_list.get(cache_key)
                    if bucket is None:
                        by_list[cache_key] = [key]
                    else:
                        bucket.append(key)
        new_keys.sort()
        if len(self._sorted_keys) >= _PENDING_MIN:
            _merge_sorted(self._base_pending, new_keys)
        else:
            _merge_sorted(self._sorted_keys, new_keys)
        pending_inserts = self._pending_inserts
        pop_pos = self._pos_cache.pop
        for cache_key, added in by_list.items():
            added.sort()
            cached = list_cache[cache_key]
            if len(cached) >= _PENDING_MIN:
                bucket = pending_inserts.get(cache_key)
                if bucket is None:
                    pending_inserts[cache_key] = added
                else:
                    _merge_sorted(bucket, added)
            else:
                _merge_sorted(cached, added)
            pop_pos(cache_key, None)

    # ------------------------------------------------------ real-prefix index
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

    def singleton_levels(self) -> Dict[Key, int]:
        """Singleton level of every node (bulk convenience, O(n * height))."""
        return {key: self.singleton_level(key) for key in self._base_list()}

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
        clone = SkipGraph()
        for key in self._base_list():
            node = self._nodes[key]
            clone.add_node(
                SkipGraphNode(
                    key=node.key,
                    membership=MembershipVector(node.membership.bits),
                    payload=node.payload,
                    is_dummy=node.is_dummy,
                )
            )
        return clone

    def membership_table(self) -> Dict[Key, str]:
        """Mapping key -> membership vector string (for display and tests)."""
        return {key: str(self._nodes[key].membership) for key in self._base_list()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkipGraph(n={len(self)}, height={self.height()})"
