"""The program dependency graph.

Tables have ordering constraints: a *match* dependency means table B reads
a field table A's actions write (B must be in a strictly later stage); an
*action* dependency means both write the same field (B may share A's stage
only if the hardware sequences actions, which RMT does not — we treat it as
a later-stage constraint too, the conservative reading).  The graph's
longest path therefore lower-bounds the stages a program needs, which is
why "delaying computations until the egress pipeline ... reduc[es] the
total stages involved in the flow's computation by half" matters.
"""

from __future__ import annotations

from enum import Enum

from ..errors import CompileError, ConfigError
from .spec import TableSpec


class DependencyKind(Enum):
    """Why one table must follow another."""

    MATCH = "match"    # successor matches on a field the predecessor writes
    ACTION = "action"  # both write the same field
    CONTROL = "control"  # successor's applicability depends on predecessor's result


class ProgramGraph:
    """Tables plus dependencies, with stage-level scheduling queries.

    Tables and each table's predecessors keep their insertion order.  A
    table's *depth* is the longest dependency chain ending at it.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._specs: dict[str, TableSpec] = {}
        self._preds: dict[str, dict[str, DependencyKind]] = {}

    # --- construction ---------------------------------------------------------

    def add_table(self, spec: TableSpec) -> None:
        if spec.name in self._specs:
            raise ConfigError(f"duplicate table {spec.name!r}")
        self._specs[spec.name] = spec
        self._preds[spec.name] = {}

    def add_dependency(
        self, before: str, after: str, kind: DependencyKind = DependencyKind.MATCH
    ) -> None:
        for name in (before, after):
            if name not in self._specs:
                raise ConfigError(f"unknown table {name!r}")
        if before == after:
            raise ConfigError(f"table {before!r} cannot depend on itself")
        # The edge closes a cycle iff ``after`` already reaches ``before``.
        seen, stack = {before}, [before]
        while stack:
            for pred in self._preds[stack.pop()].keys() - seen:
                if pred == after:
                    raise CompileError(
                        f"dependency {before!r} -> {after!r} creates a cycle"
                    )
                seen.add(pred)
                stack.append(pred)
        self._preds[after][before] = kind

    # --- queries ----------------------------------------------------------------

    def tables(self) -> list[TableSpec]:
        return list(self._specs.values())

    def table(self, name: str) -> TableSpec:
        if name not in self._specs:
            raise ConfigError(f"unknown table {name!r}")
        return self._specs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def dependencies(self, name: str) -> list[tuple[str, DependencyKind]]:
        """Tables that must precede ``name``."""
        return list(self._preds[name].items())

    def _depths(self) -> dict[str, int]:
        depths: dict[str, int] = {}
        for name in self._specs:
            stack = [name]  # depth-first without recursion: chains may be long
            while stack:
                preds = self._preds[stack[-1]]
                pending = [p for p in preds if p not in depths]
                if pending:
                    stack.extend(pending)
                else:
                    depths[stack.pop()] = 1 + max(
                        (depths[p] for p in preds), default=-1
                    )
        return depths

    def levels(self) -> list[list[TableSpec]]:
        """Stage levels: tables in level i depend only on levels < i.

        Level i holds the tables of depth i, sorted by name.  This is the
        minimal-stage schedule ignoring resource limits; the compiler then
        packs levels into physical stages subject to MAU and memory
        constraints.
        """
        depths = self._depths()
        order: list[list[TableSpec]] = [
            [] for _ in range(max(depths.values(), default=-1) + 1)
        ]
        for name in sorted(self._specs):
            order[depths[name]].append(self._specs[name])
        return order

    @property
    def depth(self) -> int:
        """Length of the longest dependency chain (minimum stages needed)."""
        return len(self.levels())

    def critical_path(self) -> list[str]:
        """Table names along the longest dependency chain.

        Ties go to insertion order: the chain ends at the first-added
        table of maximal depth, and each step back takes the first-added
        dependency one level shallower.
        """
        depths = self._depths()
        if not depths:
            return []
        name = max(self._specs, key=depths.__getitem__)
        path = [name]
        while depths[name]:
            name = next(
                p for p in self._preds[name] if depths[p] == depths[name] - 1
            )
            path.append(name)
        return path[::-1]
