"""Reference a-balance rescan (test oracle).

The tuple-prefix implementation of
:func:`repro.skipgraph.balance.a_balance_violations`, moved here verbatim
when the production rescan switched to integer prefix codes and one stable
sort per level.  It slices a prefix tuple per surviving node per level and
groups the runs in a dict keyed by that tuple: plain, and obviously in the
canonical order (level, then list by the first appearance of its prefix in
key order, then runs left to right).  ``tests/skipgraph/test_balance_rescan.py``
holds the production rescan to this one's exact violation list.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.skipgraph.balance import BalanceViolation
from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["a_balance_violations_reference"]

Prefix = Tuple[int, ...]


def _record_run(
    violations: List["BalanceViolation"],
    level: int,
    prefix: Prefix,
    run_bit: Optional[int],
    run_keys: List,
    a: int,
) -> None:
    """Append the run as a violation if it exceeds ``a`` (single source)."""
    if run_bit is not None and len(run_keys) > a:
        violations.append(
            BalanceViolation(level=level, prefix=prefix, bit=run_bit, run_keys=tuple(run_keys))
        )


def _close_run(found: dict, level: int, prefix: Prefix, state: list, a: int) -> None:
    """Record ``state``'s run into the per-prefix ``found`` map."""
    _record_run(found.setdefault(prefix, []), level, prefix, state[0], state[1], a)


def a_balance_violations_reference(graph: SkipGraph, a: int) -> List[BalanceViolation]:
    """Return every a-balance violation in ``graph`` (full rescan).

    A violation is reported once per maximal offending run, in list order
    (lists by first appearance of their prefix in key order, runs left to
    right), level by level.  The per-level pass only walks the keys whose
    membership vectors still reach the level — the survivor list shrinks as
    the levels climb, so the whole scan costs O(total membership bits)
    rather than O(n * height) — and the run-closing helper is hoisted to
    module level instead of being rebound per level.
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    violations: List[BalanceViolation] = []
    survivors = [(node.key, node.membership.bits) for node in graph]
    max_level = graph.max_list_level()
    for level in range(max_level + 1):
        if level:
            survivors = [entry for entry in survivors if len(entry[1]) >= level]
        # prefix -> [run_bit, run_keys]; the run resets on bit changes.
        runs: dict = {}
        order: List[Prefix] = []
        found: dict = {}
        for key, bits in survivors:
            prefix = bits[:level]
            bit = bits[level] if len(bits) > level else None
            state = runs.get(prefix)
            if state is None:
                runs[prefix] = [bit, [key]]
                order.append(prefix)
                continue
            if bit is not None and bit == state[0]:
                state[1].append(key)
            else:
                _close_run(found, level, prefix, state, a)
                state[0] = bit
                state[1] = [key]
        for prefix in order:
            _close_run(found, level, prefix, runs[prefix], a)
        for prefix in order:
            violations.extend(found.get(prefix, ()))
    return violations
