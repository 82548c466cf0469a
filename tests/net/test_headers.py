"""Tests for header formats (repro.net.headers)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.net.headers import (
    COFLOW_HEADER,
    ETHERNET,
    IPV4,
    UDP,
    FieldSpec,
    Header,
    HeaderType,
    coflow_header,
    standard_stack,
)


class TestFieldSpec:
    def test_max_value(self):
        assert FieldSpec("f", 8).max_value == 255
        assert FieldSpec("f", 1).max_value == 1

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            FieldSpec("", 8)
        with pytest.raises(ConfigError):
            FieldSpec("f", 0)


class TestHeaderType:
    def test_width_sums_fields(self):
        assert ETHERNET.width_bits == 112
        assert ETHERNET.width_bytes == 14
        assert IPV4.width_bytes == 20
        assert UDP.width_bytes == 8

    def test_field_lookup(self):
        assert ETHERNET.field("ethertype").width_bits == 16
        with pytest.raises(ConfigError):
            ETHERNET.field("missing")
        assert "dst_mac" in ETHERNET
        assert "nope" not in ETHERNET

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ConfigError):
            HeaderType("h", (FieldSpec("a", 8), FieldSpec("a", 8)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            HeaderType("h", ())


class TestHeader:
    def test_defaults_to_zero(self):
        header = ETHERNET.instantiate()
        assert header["dst_mac"] == 0

    def test_set_and_get(self):
        header = UDP.instantiate(dst_port=53)
        assert header["dst_port"] == 53
        header["src_port"] = 1000
        assert header["src_port"] == 1000

    def test_range_check(self):
        header = UDP.instantiate()
        with pytest.raises(ConfigError):
            header["dst_port"] = 1 << 16
        with pytest.raises(ConfigError):
            header["dst_port"] = -1

    def test_unknown_field(self):
        header = UDP.instantiate()
        with pytest.raises(ConfigError):
            _ = header["nope"]
        with pytest.raises(ConfigError):
            header["nope"] = 1

    def test_copy_is_independent(self):
        a = UDP.instantiate(dst_port=1)
        b = a.copy()
        b["dst_port"] = 2
        assert a["dst_port"] == 1

    def test_equality(self):
        assert UDP.instantiate(dst_port=5) == UDP.instantiate(dst_port=5)
        assert UDP.instantiate(dst_port=5) != UDP.instantiate(dst_port=6)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_any_in_range_value_roundtrips(self, value):
        header = UDP.instantiate()
        header["length"] = value
        assert header["length"] == value


_UDP_FIELDS = [f.name for f in UDP.fields]

# One step of a copy/write history over a growing list of headers: copy
# header i (appending the copy), or write value v to field f of header i.
# Indices are taken modulo the list length when the step is applied.
_COW_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("copy"), st.integers(0, 63)),
        st.tuples(
            st.just("write"),
            st.integers(0, 63),
            st.sampled_from(_UDP_FIELDS),
            st.integers(0, (1 << 16) - 1),
        ),
    ),
    max_size=40,
)


class TestCopyOnWrite:
    """``Header.copy`` shares values until a write; no write ever shows
    in another header."""

    def test_write_to_copy_never_shows_in_source(self):
        source = UDP.instantiate(src_port=1, dst_port=2)
        copy = source.copy()
        copy["dst_port"] = 9
        assert source["dst_port"] == 2
        assert copy["dst_port"] == 9
        assert copy["src_port"] == 1

    def test_write_to_source_never_shows_in_earlier_copy(self):
        source = UDP.instantiate(src_port=1, dst_port=2)
        copy = source.copy()
        source["dst_port"] = 9
        assert copy["dst_port"] == 2
        assert source["dst_port"] == 9

    def test_chain_of_copies_stays_isolated(self):
        first = UDP.instantiate(length=10)
        second = first.copy()
        third = second.copy()
        second["length"] = 20
        assert (first["length"], second["length"], third["length"]) == (
            10, 20, 10,
        )
        first["length"] = 30
        third["length"] = 40
        assert (first["length"], second["length"], third["length"]) == (
            30, 20, 40,
        )

    def test_rejected_write_leaves_shared_values_alone(self):
        source = UDP.instantiate(dst_port=2)
        copy = source.copy()
        with pytest.raises(ConfigError):
            copy["dst_port"] = 1 << 16
        assert copy["dst_port"] == source["dst_port"] == 2

    @given(_COW_STEPS)
    def test_any_copy_write_history_matches_private_dicts(self, steps):
        """Every header always reads exactly what a deep-copying model
        predicts, whatever chain of copies and writes produced it."""
        headers = [UDP.instantiate(src_port=1, dst_port=2, length=3)]
        model = [dict(headers[0].items())]
        for step in steps:
            i = step[1] % len(headers)
            if step[0] == "copy":
                headers.append(headers[i].copy())
                model.append(dict(model[i]))
            else:
                _, _, name, value = step
                headers[i][name] = value
                model[i][name] = value
            for header, expected in zip(headers, model):
                assert dict(header.items()) == expected


class TestStandardStack:
    def test_stack_is_wired(self):
        eth, ip, udp = standard_stack(dst_ip=0x0A000001)
        assert eth["ethertype"] == 0x0800
        assert ip["protocol"] == 17
        assert ip["dst_ip"] == 0x0A000001
        assert udp["dst_port"] == 0x4D43

    def test_coflow_header_fields(self):
        header = coflow_header(5, 2, seq=9, opcode=1, element_count=16, round_=3)
        assert header["coflow_id"] == 5
        assert header["flow_id"] == 2
        assert header["seq"] == 9
        assert header["opcode"] == 1
        assert header["element_count"] == 16
        assert header["round"] == 3

    def test_coflow_header_width(self):
        # 32+32+32+8+8+8+16+16 = 152 bits = 19 bytes
        assert COFLOW_HEADER.width_bytes == 19
