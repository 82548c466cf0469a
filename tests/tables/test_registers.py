"""Tests for stateful registers (repro.tables.registers)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError, TableError
from repro.tables.registers import RegisterArray


class TestBasics:
    def test_initially_zero(self):
        reg = RegisterArray("r", 8)
        assert reg.read(0) == 0
        assert len(reg) == 8

    def test_write_read(self):
        reg = RegisterArray("r", 8)
        reg.write(3, 42)
        assert reg.read(3) == 42

    def test_out_of_range_index(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(TableError):
            reg.read(4)
        with pytest.raises(TableError):
            reg.write(-1, 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RegisterArray("r", 0)
        with pytest.raises(ConfigError):
            RegisterArray("r", 4, width_bits=65)

    def test_bits_accounting(self):
        assert RegisterArray("r", 1024, 32).bits == 32768


class TestWrapping:
    def test_width_mask_on_write(self):
        reg = RegisterArray("r", 2, width_bits=8)
        reg.write(0, 0x1FF)
        assert reg.read(0) == 0xFF

    def test_add_wraps_at_width(self):
        reg = RegisterArray("r", 2, width_bits=8)
        reg.write(0, 250)
        assert reg.add(0, 10) == 4  # (250 + 10) mod 256

    def test_one_bit_register_behaves_as_flag(self):
        reg = RegisterArray("r", 4, width_bits=1)
        reg.write(2, 1)
        assert reg.read(2) == 1
        reg.write(2, 2)  # masked
        assert reg.read(2) == 0


class TestRmwOps:
    def test_add_returns_new_value(self):
        reg = RegisterArray("r", 2)
        assert reg.add(0, 5) == 5
        assert reg.add(0, 7) == 12

    def test_merge_min_max(self):
        reg = RegisterArray("r", 1)
        reg.write(0, 10)
        assert reg.merge_min(0, 5) == 5
        assert reg.merge_max(0, 20) == 20
        assert reg.merge_min(0, 100) == 20

    def test_read_write_counters(self):
        reg = RegisterArray("r", 2)
        reg.read(0)
        reg.write(0, 1)
        reg.add(0, 1)
        assert reg.reads == 2
        assert reg.writes == 2


class TestBulkOps:
    def test_read_many(self):
        reg = RegisterArray("r", 4)
        reg.write(1, 10)
        reg.write(3, 30)
        assert reg.read_many([1, 3, 0]) == [10, 30, 0]

    def test_add_many_accumulates_duplicates_in_order(self):
        reg = RegisterArray("r", 4)
        results = reg.add_many([0, 0, 1], [1, 2, 5])
        assert results == [1, 3, 5]
        assert reg.read(0) == 3

    def test_add_many_length_mismatch(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(TableError):
            reg.add_many([0, 1], [1])

    def test_snapshot_and_load(self):
        reg = RegisterArray("r", 4)
        reg.load([1, 2, 3, 4])
        snap = reg.snapshot()
        assert list(snap) == [1, 2, 3, 4]
        reg.write(0, 99)
        assert snap[0] == 1  # snapshot is a copy

    def test_load_shape_checked(self):
        reg = RegisterArray("r", 4)
        with pytest.raises(ConfigError):
            reg.load([1, 2])

    def test_load_masks_width(self):
        reg = RegisterArray("r", 2, width_bits=4)
        reg.load([0xFF, 0x0F])
        assert reg.read(0) == 0x0F

    def test_reset(self):
        reg = RegisterArray("r", 2)
        reg.write(0, 5)
        reg.reset()
        assert reg.read(0) == 0


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=2**31), min_size=1, max_size=64))
    def test_sum_of_adds_equals_total_mod_width(self, values):
        """Aggregation correctness: the accumulator equals the sum of all
        contributions modulo the register width."""
        reg = RegisterArray("r", 1, width_bits=64)
        for value in values:
            reg.add(0, value)
        assert reg.read(0) == sum(values) & ((1 << 64) - 1)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50)
    )
    def test_merge_max_is_running_maximum(self, values):
        reg = RegisterArray("r", 1, width_bits=32)
        for value in values:
            reg.merge_max(0, value)
        assert reg.read(0) == max(values)


class _Reference:
    """A numpy ``uint64`` model of a register array: the representation
    the cells used to live in, with the same masking and wrap rules."""

    def __init__(self, size, width_bits):
        self.mask = (1 << width_bits) - 1
        self.cells = np.zeros(size, dtype=np.uint64)

    def _store(self, index, value):
        self.cells[index] = np.uint64(value & self.mask)
        return int(self.cells[index])

    def write(self, index, value):
        return self._store(index, value)

    def add(self, index, value):
        return self._store(index, int(self.cells[index]) + value)

    def merge_min(self, index, value):
        return self._store(index, min(int(self.cells[index]), value & self.mask))

    def merge_max(self, index, value):
        return self._store(index, max(int(self.cells[index]), value & self.mask))


_WIDTHS = st.sampled_from([1, 32, 63, 64])
_VALUES = st.integers(min_value=-(2**64), max_value=2**65)
_OPS = st.sampled_from(["write", "add", "merge_min", "merge_max"])


class TestAgainstNumpyReference:
    @given(
        width=_WIDTHS,
        ops=st.lists(
            st.tuples(_OPS, st.integers(0, 3), _VALUES), min_size=1, max_size=40
        ),
    )
    def test_single_cell_ops_match(self, width, ops):
        reg = RegisterArray("r", 4, width_bits=width)
        ref = _Reference(4, width)
        for op, index, value in ops:
            got = getattr(reg, op)(index, value)
            assert got == getattr(ref, op)(index, value)
            assert type(got) is int
            assert reg.read(index) == int(ref.cells[index])
        assert reg.snapshot().tolist() == ref.cells.tolist()

    @given(
        width=_WIDTHS,
        pairs=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2**64 - 1)),
            min_size=1,
            max_size=30,
        ),
    )
    def test_add_many_with_duplicate_indices(self, width, pairs):
        reg = RegisterArray("r", 3, width_bits=width)
        ref = _Reference(3, width)
        indices = [index for index, _ in pairs]
        values = [value for _, value in pairs]
        expected = [ref.add(i, v) for i, v in pairs]
        assert reg.add_many(indices, values) == expected
        assert reg.snapshot().tolist() == ref.cells.tolist()
        assert reg.reads == reg.writes == len(pairs)

    @given(
        width=_WIDTHS,
        values=st.lists(st.integers(0, 2**64 - 1), min_size=5, max_size=5),
    )
    def test_load_masks_to_width(self, width, values):
        reg = RegisterArray("r", 5, width_bits=width)
        reg.load(values)
        mask = (1 << width) - 1
        assert reg.read_many(list(range(5))) == [v & mask for v in values]
        reg.load(np.array(values, dtype=np.uint64))
        assert reg.snapshot().tolist() == [v & mask for v in values]

    @given(width=_WIDTHS, size=st.integers(1, 16))
    def test_snapshot_dtype_shape_and_reset(self, width, size):
        reg = RegisterArray("r", size, width_bits=width)
        reg.write(size - 1, 2**64 - 1)
        snap = reg.snapshot()
        assert snap.dtype == np.uint64
        assert snap.shape == (size,)
        assert int(snap[-1]) == (1 << width) - 1
        reg.reset()
        assert reg.snapshot().tolist() == [0] * size
        assert int(snap[-1]) == (1 << width) - 1  # the snapshot is a copy

    @given(
        op=st.sampled_from(
            ["read", "write", "add", "merge_min", "merge_max", "read_many",
             "add_many"]
        ),
        index=st.one_of(st.integers(max_value=-1), st.integers(min_value=4)),
    )
    def test_out_of_range_index_raises(self, op, index):
        reg = RegisterArray("r", 4)
        with pytest.raises(TableError):
            if op == "read":
                reg.read(index)
            elif op == "read_many":
                reg.read_many([0, index])
            elif op == "add_many":
                reg.add_many([0, index, 1], [5, 5, 5])
            else:
                getattr(reg, op)(index, 1)
        assert reg.reads == reg.writes == 0
        assert reg.snapshot().tolist() == [0] * 4
