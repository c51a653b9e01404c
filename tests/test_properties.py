"""Property-based tests (hypothesis) for core invariants."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designated import DesignatedCoreMap
from repro.metrics.fairness import jain_index
from repro.metrics.reordering import ReorderingTracker
from repro.net import FiveTuple, Packet, make_tcp_packet
from repro.net.checksum import internet_checksum, tcp_checksum, verify_checksum
from repro.net.tcp_flags import is_connection_packet
from repro.nfs.dpi import AhoCorasick
from repro.nic.flow_director import FlowDirectorTable, build_checksum_spray_rules
from repro.nic.rss import (
    DEFAULT_RSS_KEY,
    SYMMETRIC_RSS_KEY,
    RssHasher,
    ToeplitzTable,
    rss_input_bytes,
    toeplitz_hash,
)

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)


@st.composite
def five_tuples(draw, protocol=st.just(6)):
    return FiveTuple(draw(ips), draw(ips), draw(ports), draw(ports), draw(protocol))


class TestChecksumProperties:
    @given(st.binary(min_size=0, max_size=256))
    def test_internet_checksum_verifies_itself(self, data):
        """Appending the checksum makes the ones'-complement sum zero."""
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        assert internet_checksum(data + struct.pack("!H", checksum)) == 0

    @given(ips, ips, st.binary(min_size=20, max_size=200))
    def test_tcp_checksum_makes_segment_verify(self, src, dst, segment):
        # The checksum is computed over the segment with a zeroed
        # checksum field, then embedded at bytes 16..18.
        zeroed = segment[:16] + b"\x00\x00" + segment[18:]
        checksum = tcp_checksum(src, dst, zeroed)
        full = zeroed[:16] + struct.pack("!H", checksum) + zeroed[18:]
        assert verify_checksum(src, dst, 6, full)

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 63), st.integers(1, 255))
    def test_corruption_is_detected(self, data, position, delta):
        if len(data) % 2:
            data += b"\x00"
        position %= len(data)
        checksum = internet_checksum(data)
        corrupted = bytearray(data)
        corrupted[position] = (corrupted[position] + delta) % 256
        if bytes(corrupted) != data:
            total = internet_checksum(bytes(corrupted) + struct.pack("!H", checksum))
            assert total != 0


class TestHashProperties:
    @given(five_tuples())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_key_direction_invariance(self, flow):
        forward = toeplitz_hash(SYMMETRIC_RSS_KEY, rss_input_bytes(flow))
        backward = toeplitz_hash(SYMMETRIC_RSS_KEY, rss_input_bytes(flow.reversed()))
        assert forward == backward

    @given(five_tuples(), st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_designated_core_in_range_and_symmetric(self, flow, num_cores):
        dmap = DesignatedCoreMap(num_cores)
        core = dmap.core_for(flow)
        assert 0 <= core < num_cores
        assert dmap.core_for(flow.reversed()) == core

    @given(five_tuples())
    @settings(max_examples=50, deadline=None)
    def test_canonical_form_is_stable(self, flow):
        assert flow.canonical() == flow.canonical().canonical()
        assert flow.canonical() == flow.reversed().canonical()


class TestHashCacheEquivalence:
    """The table-driven/memoized fast paths equal the bit-serial reference.

    The hot path never calls :func:`toeplitz_hash` — it goes through
    :class:`ToeplitzTable` partials and per-flow memos. These properties
    pin the whole stack to the reference implementation, for both
    standard keys, including memo hits and forced memo resets.
    """

    @given(st.sampled_from([DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY]),
           st.binary(min_size=0, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_table_driven_equals_bit_serial(self, key, data):
        table = ToeplitzTable(key, len(data))
        assert table.hash(data) == toeplitz_hash(key, data)

    @given(st.sampled_from([DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY]), five_tuples())
    @settings(max_examples=80, deadline=None)
    def test_cached_rss_hash_equals_reference(self, key, flow):
        hasher = RssHasher(num_queues=8, key=key)
        reference = toeplitz_hash(key, rss_input_bytes(flow))
        assert hasher.hash(flow) == reference  # cold: table-driven path
        assert hasher.hash(flow) == reference  # warm: memo hit

    @given(st.sampled_from([DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY]),
           st.lists(five_tuples(), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_memo_reset_does_not_change_hashes(self, key, flows):
        # A cache_limit of 2 forces constant clear-on-overflow resets;
        # results must still match an unbounded hasher's, and neither
        # memo may ever hold more than cache_limit entries.
        tiny = RssHasher(num_queues=8, key=key, cache_limit=2)
        unbounded = RssHasher(num_queues=8, key=key)
        for flow in flows + flows:
            assert tiny.hash(flow) == unbounded.hash(flow)
            assert len(tiny._cache) <= 2
            assert tiny.queue_for(flow) == unbounded.queue_for(flow)
            assert len(tiny._cache) <= 2 and len(tiny._queue_cache) <= 2

    @given(five_tuples(), st.integers(min_value=1, max_value=16),
           st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_cached_designated_core_equals_reference(self, flow, num_cores, symmetric):
        dmap = DesignatedCoreMap(num_cores, symmetric=symmetric)
        key = SYMMETRIC_RSS_KEY if symmetric else DEFAULT_RSS_KEY
        reference = toeplitz_hash(key, rss_input_bytes(flow)) % num_cores
        assert dmap.core_for(flow) == reference  # cold
        assert dmap.core_for(flow) == reference  # memo hit
        tiny = DesignatedCoreMap(num_cores, symmetric=symmetric, cache_limit=1)
        assert tiny.core_for(flow) == reference  # forced-reset path
        assert tiny.cache_size() <= 1
        reverse_core = tiny.core_for(flow.reversed())
        assert tiny.cache_size() <= 1  # the memo stays within cache_limit
        if symmetric:
            assert reverse_core == reference


class TestSprayRuleProperties:
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_tcp_checksum_matches_some_rule(self, num_queues, checksum):
        table = FlowDirectorTable()
        table.add_rules(build_checksum_spray_rules(num_queues))
        flow = FiveTuple(1, 2, 3, 4, 6)
        packet = make_tcp_packet(flow, tcp_checksum=checksum)
        queue = table.match(packet)
        assert queue is not None
        assert 0 <= queue < num_queues


class TestPacketProperties:
    @given(five_tuples(), st.integers(0, 0x3F), st.integers(0, 1460))
    @settings(max_examples=50, deadline=None)
    def test_serialization_roundtrip(self, flow, flags, payload_len):
        packet = make_tcp_packet(flow, flags=flags, payload_len=payload_len)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.five_tuple == flow
        assert parsed.flags == flags
        assert parsed.payload_len == payload_len

    @given(st.integers(0, 0x3F))
    def test_connection_classification_matches_flag_bits(self, flags):
        assert is_connection_packet(flags) == bool(flags & 0x07)


class TestMetricProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    def test_jain_bounds(self, values):
        index = jain_index(values)
        assert 1 / len(values) - 1e-9 <= index <= 1.0 + 1e-9

    @given(st.permutations(list(range(12))))
    def test_reordering_tracker_counts_at_most_n_minus_1(self, order):
        tracker = ReorderingTracker()
        for seq in order:
            tracker.observe("flow", seq)
        assert 0 <= tracker.reordered_packets <= len(order) - 1
        if list(order) == sorted(order):
            assert tracker.reordered_packets == 0


class TestAhoCorasickProperties:
    @given(
        st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=5, unique=True),
        st.binary(min_size=0, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_agree_with_naive_search(self, patterns, text):
        ac = AhoCorasick(patterns)
        _state, matches = ac.scan(0, text)
        got = sorted(matches)
        expected = sorted(
            (offset + len(pattern) - 1, index)
            for index, pattern in enumerate(patterns)
            for offset in range(len(text) - len(pattern) + 1)
            if text[offset: offset + len(pattern)] == pattern
        )
        assert got == expected

    @given(
        st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=3, unique=True),
        st.binary(min_size=0, max_size=80),
        st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_scan_equals_whole_scan(self, patterns, text, split):
        """Carrying automaton state across packets preserves matches —
        the exact property DPI loses when packets go to different cores."""
        split = min(split, len(text))
        ac = AhoCorasick(patterns)
        _state, whole = ac.scan(0, text)
        state, first = ac.scan(0, text[:split])
        _state, second = ac.scan(state, text[split:])
        combined = sorted(first + [(offset + split, index) for offset, index in second])
        assert sorted(whole) == combined
