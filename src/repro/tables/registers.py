"""Stateful registers: data that survives across packets.

"Limited amounts of data lifted from prior-forwarded packets could be kept
on the switch ... known as stateful processing" (paper, section 1).  A
:class:`RegisterArray` is an indexed array of fixed-width cells supporting
the read-modify-write operations hardware register ALUs provide (add, min,
max, overwrite).  Values wrap at the cell width, as silicon does.
"""

from __future__ import annotations

from array import array

import numpy as np

from ..errors import ConfigError, TableError


class RegisterArray:
    """A fixed-size array of fixed-width stateful cells.

    Cells live in a compact ``array('Q')`` of plain ints: register ALUs
    touch one cell per element, and plain-int reads and writes cost far
    less than indexing a numpy array per element.  All single-cell
    mutators return the post-operation value, matching the "read the new
    value into the PHV" semantics of register ALUs.
    """

    def __init__(self, name: str, size: int, width_bits: int = 32) -> None:
        if size <= 0:
            raise ConfigError(f"register {name!r} size must be positive, got {size}")
        if not 1 <= width_bits <= 64:
            raise ConfigError(
                f"register {name!r} width must be in [1, 64], got {width_bits}"
            )
        self.name = name
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._cells = array("Q", bytes(8 * size))
        self.reads = 0
        self.writes = 0

    @property
    def access_count(self) -> int:
        """Total state accesses (reads plus writes) since construction.

        The resource monitor samples this per pipeline to expose how
        central-bank / register pressure evolves over a run.
        """
        return self.reads + self.writes

    def _out_of_range(self, index: int) -> TableError:
        return TableError(
            f"register {self.name!r} index {index} out of range "
            f"[0, {self.size})"
        )

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        return self._cells[index]

    def write(self, index: int, value: int) -> int:
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.writes += 1
        new = self._cells[index] = value & self._mask
        return new

    def add(self, index: int, value: int) -> int:
        """Wrapping add; returns the new value."""
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        self.writes += 1
        cells = self._cells
        new = cells[index] = (cells[index] + value) & self._mask
        return new

    def merge_min(self, index: int, value: int) -> int:
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        self.writes += 1
        cells = self._cells
        new = cells[index] = min(cells[index], value & self._mask)
        return new

    def merge_max(self, index: int, value: int) -> int:
        if not 0 <= index < self.size:
            raise self._out_of_range(index)
        self.reads += 1
        self.writes += 1
        cells = self._cells
        new = cells[index] = max(cells[index], value & self._mask)
        return new

    # --- bulk operations (array MAU path) ------------------------------------

    def read_many(self, indices: list[int]) -> list[int]:
        for index in indices:
            if not 0 <= index < self.size:
                raise self._out_of_range(index)
        self.reads += len(indices)
        cells = self._cells
        return [cells[i] for i in indices]

    def add_many(self, indices: list[int], values: list[int]) -> list[int]:
        """Element-wise wrapping adds; duplicate indices accumulate in order.

        Indices are checked before any cell changes, so a bad index
        leaves the array untouched.
        """
        if len(indices) != len(values):
            raise TableError(
                f"register {self.name!r}: {len(indices)} indices vs "
                f"{len(values)} values"
            )
        if indices and (min(indices) < 0 or max(indices) >= self.size):
            for index in indices:
                if not 0 <= index < self.size:
                    raise self._out_of_range(index)
        mask = self._mask
        cells = self._cells
        results = []
        for index, value in zip(indices, values):
            new = cells[index] = (cells[index] + value) & mask
            results.append(new)
        self.reads += len(results)
        self.writes += len(results)
        return results

    def snapshot(self) -> np.ndarray:
        """Copy of the raw cell contents, as a ``uint64`` array."""
        return np.frombuffer(self._cells, dtype=np.uint64).copy()

    def load(self, values: np.ndarray | list[int]) -> None:
        """Bulk-initialize cells (control-plane download)."""
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (self.size,):
            raise ConfigError(
                f"register {self.name!r} expects {self.size} values, "
                f"got shape {values.shape}"
            )
        self._cells = array("Q", (values & np.uint64(self._mask)).tobytes())

    def reset(self) -> None:
        self._cells = array("Q", bytes(8 * self.size))
    @property
    def bits(self) -> int:
        """Total storage the array occupies."""
        return self.size * self.width_bits

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RegisterArray {self.name} {self.size}x{self.width_bits}b>"
