"""Unit and property tests for the Message object (header stack + iovec)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.message import Message
from repro.errors import MessageError


class TestHeaderStack:
    def test_push_pop_roundtrip(self):
        msg = Message(b"body")
        msg.push_header("NAK", {"seq": 7})
        header = msg.pop_header("NAK")
        assert header == {"seq": 7}
        assert msg.header_depth == 0

    def test_pop_checks_ownership(self):
        msg = Message()
        msg.push_header("NAK", {"seq": 1})
        with pytest.raises(MessageError):
            msg.pop_header("FRAG")

    def test_pop_empty_stack_raises(self):
        with pytest.raises(MessageError):
            Message().pop_header("NAK")

    def test_lifo_order(self):
        msg = Message()
        msg.push_header("TOTAL", {"g": 1})
        msg.push_header("MBRSHIP", {"vid": 2})
        msg.push_header("NAK", {"seq": 3})
        assert msg.pop_header("NAK") == {"seq": 3}
        assert msg.pop_header("MBRSHIP") == {"vid": 2}
        assert msg.pop_header("TOTAL") == {"g": 1}

    def test_peek_does_not_pop(self):
        msg = Message()
        msg.push_header("NAK", {"seq": 1})
        assert msg.peek_header("NAK") == {"seq": 1}
        assert msg.peek_header("FRAG") is None
        assert msg.header_depth == 1

    def test_peek_any(self):
        msg = Message()
        assert msg.peek_header() is None
        msg.push_header("NAK", {"seq": 1})
        assert msg.peek_header() == {"seq": 1}
        assert msg.top_owner() == "NAK"

    def test_pushed_header_is_copied(self):
        original = {"seq": 1}
        msg = Message()
        msg.push_header("NAK", original)
        original["seq"] = 99
        assert msg.pop_header("NAK") == {"seq": 1}


class TestBodySegments:
    def test_single_segment(self):
        msg = Message(b"hello")
        assert msg.body_size == 5
        assert msg.body_bytes() == b"hello"

    def test_multi_segment_no_copy_until_flatten(self):
        msg = Message(b"ab")
        msg.add_segment(b"cd")
        msg.add_segment(b"ef")
        assert msg.body_size == 6
        assert msg.body_bytes() == b"abcdef"

    def test_empty_segments_dropped(self):
        msg = Message()
        msg.add_segment(b"")
        assert msg.segments == []

    def test_slice_body_within_one_segment(self):
        msg = Message(b"abcdef")
        assert b"".join(msg.slice_body(1, 4)) == b"bcd"

    def test_slice_body_across_segments(self):
        msg = Message(b"abc")
        msg.add_segment(b"def")
        msg.add_segment(b"ghi")
        assert b"".join(msg.slice_body(2, 7)) == b"cdefg"

    def test_slice_whole_segment_shares_reference(self):
        seg = b"x" * 100
        msg = Message(b"ab")
        msg.add_segment(seg)
        parts = msg.slice_body(2, 102)
        assert parts[0] is seg  # zero copy for whole segments

    def test_a_fragment_shares_its_parents_buffer(self):
        parent = bytes(range(200))
        msg = Message(parent)
        msg.add_segment(b"tail")
        first, second = msg.slice_body(0, 100), msg.slice_body(100, 202)
        assert first[0].obj is parent and second[0].obj is parent
        assert bytes(first[0]) == parent[:100]
        assert second[1] == b"ta"
        # A cut of a cut stays a view of the same buffer.
        carrier = Message()
        carrier.add_segment(first[0])
        assert carrier.slice_body(10, 20)[0].obj is parent

    def test_slice_bad_range(self):
        with pytest.raises(MessageError):
            Message(b"abc").slice_body(2, 1)


class TestCopy:
    def test_copy_is_independent_for_headers(self):
        msg = Message(b"data")
        msg.push_header("NAK", {"seq": 1})
        clone = msg.copy()
        clone.pop_header("NAK")
        assert msg.header_depth == 1

    def test_copy_shares_body_bytes(self):
        msg = Message(b"data")
        clone = msg.copy()
        assert clone.segments[0] is msg.segments[0]


@given(chunks=st.lists(st.binary(min_size=1, max_size=64), max_size=10))
def test_property_body_roundtrip(chunks):
    msg = Message()
    for chunk in chunks:
        msg.add_segment(chunk)
    assert msg.body_bytes() == b"".join(chunks)
    assert msg.body_size == sum(len(c) for c in chunks)


@given(
    chunks=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=8),
    data=st.data(),
)
def test_property_slice_matches_flat_bytes(chunks, data):
    msg = Message()
    for chunk in chunks:
        msg.add_segment(chunk)
    flat = msg.body_bytes()
    start = data.draw(st.integers(min_value=0, max_value=len(flat)))
    end = data.draw(st.integers(min_value=start, max_value=len(flat)))
    assert b"".join(msg.slice_body(start, end)) == flat[start:end]


@given(
    headers=st.lists(
        st.tuples(
            st.sampled_from(["NAK", "FRAG", "MBRSHIP", "TOTAL"]),
            st.dictionaries(st.text(max_size=5), st.integers(), max_size=3),
        ),
        max_size=8,
    )
)
def test_property_header_stack_lifo(headers):
    msg = Message()
    for owner, header in headers:
        msg.push_header(owner, header)
    for owner, header in reversed(headers):
        assert msg.pop_header(owner) == header
    assert msg.header_depth == 0
