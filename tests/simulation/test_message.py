"""Unit tests for message construction and size accounting."""

import pytest

from repro.simulation import Message, payload_size_bits
from repro.simulation.message import WORD_BITS

pytestmark = pytest.mark.engine


class TestPayloadSizeBits:
    def test_none_costs_one_word(self):
        assert payload_size_bits(None) == WORD_BITS

    def test_int_costs_one_word(self):
        assert payload_size_bits(7) == WORD_BITS
        assert payload_size_bits(-123456) == WORD_BITS

    def test_bool_costs_one_bit(self):
        assert payload_size_bits(True) == 1
        assert payload_size_bits(False) == 1

    def test_float_costs_one_word(self):
        assert payload_size_bits(3.14) == WORD_BITS

    def test_string_costs_eight_bits_per_char(self):
        assert payload_size_bits("abc") == 24
        assert payload_size_bits("") == 0

    def test_list_costs_length_word_plus_elements(self):
        assert payload_size_bits([1, 2, 3]) == WORD_BITS + 3 * WORD_BITS

    def test_tuple_and_set_same_rule_as_list(self):
        assert payload_size_bits((1, 2)) == WORD_BITS + 2 * WORD_BITS
        assert payload_size_bits({1, 2}) == WORD_BITS + 2 * WORD_BITS

    def test_nested_structure(self):
        payload = {"k": [1, True]}
        expected = WORD_BITS + 8 + (WORD_BITS + WORD_BITS + 1)
        assert payload_size_bits(payload) == expected

    def test_dict_counts_keys_and_values(self):
        assert payload_size_bits({1: 2}) == WORD_BITS + WORD_BITS + WORD_BITS

    def test_custom_word_bits(self):
        assert payload_size_bits(5, word_bits=16) == 16

    def test_unknown_object_charged_by_repr(self):
        class Weird:
            def __repr__(self):
                return "xx"

        assert payload_size_bits(Weird()) == 16


class TestMessage:
    def test_size_includes_kind(self):
        msg = Message(sender=1, receiver=2, kind="ab", payload=None)
        assert msg.size_bits == 16 + WORD_BITS

    def test_reply_swaps_endpoints(self):
        msg = Message(sender=1, receiver=2, kind="ping", payload=7)
        reply = msg.reply("pong", payload=8)
        assert reply.sender == 2
        assert reply.receiver == 1
        assert reply.kind == "pong"
        assert reply.payload == 8

    def test_message_is_frozen(self):
        msg = Message(sender=1, receiver=2, kind="x")
        with pytest.raises(AttributeError):
            msg.kind = "y"  # type: ignore[misc]

    def test_payload_with_list_of_ints_is_linear_in_length(self):
        short = Message(sender=0, receiver=1, kind="v", payload=[1])
        long = Message(sender=0, receiver=1, kind="v", payload=list(range(10)))
        assert long.size_bits > short.size_bits
