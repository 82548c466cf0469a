"""Tests for seeded randomness helpers (repro.sim.rng)."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fabric.routing import EcmpSelector, FlowletSelector
from repro.net.traffic import make_coflow_packet
from repro.sim.rng import fmix64, fnv1a64, make_rng, split_rng, stable_hash64
from repro.telemetry.sampler import SpanSampler


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7)
        b = make_rng(7)
        assert list(a.integers(0, 100, 10)) == list(b.integers(0, 100, 10))

    def test_different_seeds_differ(self):
        a = make_rng(1)
        b = make_rng(2)
        assert list(a.integers(0, 2**31, 10)) != list(b.integers(0, 2**31, 10))

    def test_default_seed_is_stable(self):
        assert list(make_rng().integers(0, 100, 5)) == list(
            make_rng().integers(0, 100, 5)
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            make_rng(-1)


class TestSplitRng:
    def test_children_are_independent_but_deterministic(self):
        children_a = split_rng(make_rng(5), 3)
        children_b = split_rng(make_rng(5), 3)
        for a, b in zip(children_a, children_b):
            assert list(a.integers(0, 100, 5)) == list(b.integers(0, 100, 5))

    def test_children_differ_from_each_other(self):
        children = split_rng(make_rng(5), 2)
        assert list(children[0].integers(0, 2**31, 10)) != list(
            children[1].integers(0, 2**31, 10)
        )

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            split_rng(make_rng(), 0)


class TestStableHash64:
    def test_deterministic_known_values(self):
        # FNV-1a must not drift between versions: pin a few values.
        assert stable_hash64(0) == stable_hash64(0)
        assert stable_hash64("abc") == stable_hash64("abc")
        assert stable_hash64(b"abc") == stable_hash64("abc")

    def test_distinct_inputs_rarely_collide(self):
        hashes = {stable_hash64(i) for i in range(10000)}
        assert len(hashes) == 10000

    def test_pinned_values(self):
        assert stable_hash64(0) == 0xA5E0DBA6C385580A
        assert stable_hash64(-1) == 0xB985182D97D9D96F
        assert stable_hash64("") == 0xEFD01F60BA992926
        assert stable_hash64("abc") == 0x33EBAF9927CBC5BD
        assert stable_hash64("span/1/0") == 0xB0D78CC09E3286AA

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_fits_in_64_bits(self, value):
        assert 0 <= stable_hash64(value) < 2**64

    @given(st.integers(min_value=0, max_value=2**31))
    def test_spread_over_small_modulus(self, value):
        # Placement uses hash % n; result must always be a valid index.
        assert 0 <= stable_hash64(value) % 4 < 4


_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_U32 = st.integers(min_value=0, max_value=2**32 - 1)
_KEYS = st.tuples(_U32, _U32, _U32, _U32)
# Candidate-set sizes whose product exceeds 2**36: a selector whose
# hash string differed from the reference would have to agree modulo
# every one of them to pass.
_MODULI = (2, 3, 5, 7, 251, 4093, 65521)


class TestPrefixSplitHash:
    """Hashing a fixed prefix once and walking only the tail is
    bit-identical to ``stable_hash64`` of the whole string."""

    @given(st.text(max_size=40), st.text(max_size=40))
    @example("", "")
    def test_walk_composes_over_a_split(self, prefix, tail):
        state = fnv1a64(prefix.encode())
        assert fmix64(fnv1a64(tail.encode(), state)) == stable_hash64(
            prefix + tail
        )

    @given(_U64, _KEYS)
    @example(0, (0, 0, 0, 0))
    def test_ecmp_matches_full_string_hash(self, salt, key):
        coflow_id, flow_id, src_ip, dst_ip = key
        packet = make_coflow_packet(
            coflow_id, flow_id, 0, [(0, 0)], src_ip=src_ip, dst_ip=dst_ip
        )
        reference = stable_hash64(f"{salt}:{key}")
        selector = EcmpSelector(salt=salt)
        for m in _MODULI:
            assert selector.choose(packet, tuple(range(m)), 0.0) == (
                reference % m
            )

    @given(_U64, _KEYS)
    @example(0, (0, 0, 0, 0))
    def test_flowlet_matches_full_string_hash(self, salt, key):
        coflow_id, flow_id, src_ip, dst_ip = key
        packet = make_coflow_packet(
            coflow_id, flow_id, 0, [(0, 0)], src_ip=src_ip, dst_ip=dst_ip
        )
        for m in _MODULI:
            selector = FlowletSelector(gap_s=1.0, salt=salt)
            # Each pick is 2 s after the last, so every one starts a new
            # flowlet: 0, 1, 2.
            for flowlet in range(3):
                port = selector.choose(packet, tuple(range(m)), 2.0 * flowlet)
                assert port == stable_hash64(f"{salt}:{key}:{flowlet}") % m
            assert selector.flowlets_started == 3

    @given(
        _U64,
        st.integers(min_value=0, max_value=2**40),
        st.lists(st.integers(min_value=0, max_value=2**20), max_size=20),
    )
    @example(0, 0, [0, 1, 2])
    def test_span_sampler_matches_full_string_hash(self, seed, base, offsets):
        ids = [base] + [base + offset for offset in offsets]
        for sample in _MODULI[:5]:
            sampler = SpanSampler(seed, sample)
            for packet_id in ids:
                key = f"span/{seed}/{packet_id - base}"
                expected = stable_hash64(key) % sample == 0
                assert sampler.admits(packet_id) == expected
        sampler = SpanSampler(seed, 2)
        for offset in [0, *offsets]:
            assert fmix64(
                fnv1a64(f"{offset}".encode(), sampler._prefix)
            ) == stable_hash64(f"span/{seed}/{offset}")
