"""Messages and message-size accounting.

The CONGEST model allows messages of at most ``O(log n)`` bits.  To check
conformance empirically (experiment E11) every message carries a conservative
estimate of its payload size in bits, computed by :func:`payload_size_bits`.

The estimate charges:

* ``word_bits`` bits per integer (an integer that fits in a key/identifier/
  timestamp/level counter — i.e. one ``O(log n)``-bit word),
* 1 bit per boolean,
* 8 bits per character of a string (tags such as ``"last-node"``),
* the sum of the element costs for tuples/lists/dicts, plus one word for the
  length,
* one word for ``None`` (a type tag).

Floats are charged one word as well; protocols in this repository only ship
integers, booleans and short tags, so the estimate is tight enough for the
purpose of flagging non-constant payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["Message", "congest_budget_bits", "payload_size_bits"]

#: Number of bits charged for a single machine word (one identifier,
#: timestamp, level number, ...).  32 bits comfortably covers every value the
#: protocols ship for the network sizes exercised here, and is the constant
#: against which the ``O(log n)`` checks in E11 are normalised.
WORD_BITS = 32

#: Words allowed per message by the CONGEST budget ``c * log2(n)``: the
#: paper's constant ``c``, shared by experiment E11 and the scale benches so
#: their conformance checks can never disagree.
BUDGET_WORDS = 8


def congest_budget_bits(n: int, words: int = BUDGET_WORDS) -> int:
    """The ``c * log2(n)`` CONGEST message-size budget in bits.

    ``words`` is the constant ``c`` in machine words (:data:`WORD_BITS`
    bits each); the default is the budget E11 and the benchmark arenas
    check protocols against.
    """
    return words * WORD_BITS * max(1, math.ceil(math.log2(max(n, 2))))


def payload_size_bits(payload: Any, word_bits: int = WORD_BITS) -> int:
    """Conservatively estimate the size of ``payload`` in bits.

    See the module docstring for the charging rules.  Unknown object types
    are charged ``word_bits`` per attribute-free repr character as a safe
    upper bound; protocols should stick to plain data.
    """
    if isinstance(payload, dict):
        total = word_bits
        for key, value in payload.items():
            total += 8 * len(key) if type(key) is str else payload_size_bits(key, word_bits)
            kind = type(value)
            if kind is int or kind is float or value is None:
                total += word_bits
            elif kind is str:
                total += 8 * len(value)
            else:
                total += payload_size_bits(value, word_bits)
        return total
    if payload is None:
        return word_bits
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return word_bits
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return word_bits + sum(payload_size_bits(item, word_bits) for item in payload)
    # Fallback: charge by repr length, which over-counts and therefore never
    # hides a CONGEST violation.
    return 8 * len(repr(payload))


@dataclass(frozen=True)
class Message:
    """A single addressed message exchanged in one round.

    Attributes
    ----------
    sender, receiver:
        Node identifiers (any hashable; in this repository they are node
        keys, i.e. integers).
    kind:
        A short string naming the protocol message type (e.g. ``"route"``,
        ``"value"``, ``"median"``).  Counted as part of the payload size.
    payload:
        Plain-data content of the message.
    size_bits:
        Total size estimate, filled in automatically.
    """

    sender: Hashable
    receiver: Hashable
    kind: str
    payload: Any = None
    size_bits: int = field(default=0)

    def __post_init__(self) -> None:
        size = 8 * len(self.kind) + payload_size_bits(self.payload)
        object.__setattr__(self, "size_bits", size)

    def reply(self, kind: str, payload: Any = None) -> "Message":
        """Convenience constructor for a message back to the sender."""
        return Message(sender=self.receiver, receiver=self.sender, kind=kind, payload=payload)
