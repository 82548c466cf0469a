"""Tests for program dependency graphs (repro.program.graph)."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import CompileError, ConfigError
from repro.program.graph import DependencyKind, ProgramGraph
from repro.program.spec import ActionSpec, TableSpec
from repro.tables.mat import MatchKind


def _table(name: str, **kwargs) -> TableSpec:
    defaults = dict(kind=MatchKind.EXACT, key_width_bits=32, capacity=1024)
    defaults.update(kwargs)
    return TableSpec(name, **defaults)  # type: ignore[arg-type]


class TestTableSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _table("")
        with pytest.raises(ConfigError):
            _table("t", capacity=0)
        with pytest.raises(ConfigError):
            _table("t", keys_per_packet=0)
        with pytest.raises(ConfigError):
            _table("t", stateful_bits=-1)

    def test_max_action_slots(self):
        spec = _table(
            "t", actions=(ActionSpec("a", 2), ActionSpec("b", 5))
        )
        assert spec.max_action_slots == 5
        assert _table("t").max_action_slots == 0


class TestProgramGraph:
    def test_add_and_lookup(self):
        program = ProgramGraph()
        program.add_table(_table("t1"))
        assert "t1" in program
        assert program.table("t1").name == "t1"
        assert len(program) == 1

    def test_duplicate_rejected(self):
        program = ProgramGraph()
        program.add_table(_table("t"))
        with pytest.raises(ConfigError):
            program.add_table(_table("t"))

    def test_dependency_on_unknown_rejected(self):
        program = ProgramGraph()
        program.add_table(_table("a"))
        with pytest.raises(ConfigError):
            program.add_dependency("a", "ghost")

    def test_self_dependency_rejected(self):
        program = ProgramGraph()
        program.add_table(_table("a"))
        with pytest.raises(ConfigError):
            program.add_dependency("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        program = ProgramGraph()
        for name in "abc":
            program.add_table(_table(name))
        program.add_dependency("a", "b")
        program.add_dependency("b", "c")
        with pytest.raises(CompileError):
            program.add_dependency("c", "a")
        # Graph unchanged by the failed edge:
        assert program.depth == 3

    def test_levels_respect_dependencies(self):
        program = ProgramGraph()
        for name in ("parse", "route", "acl", "stats"):
            program.add_table(_table(name))
        program.add_dependency("parse", "route")
        program.add_dependency("parse", "acl")
        program.add_dependency("route", "stats")
        levels = program.levels()
        names = [[t.name for t in level] for level in levels]
        assert names[0] == ["parse"]
        assert set(names[1]) == {"acl", "route"}
        assert names[2] == ["stats"]

    def test_depth_and_critical_path(self):
        program = ProgramGraph()
        for name in "abcd":
            program.add_table(_table(name))
        program.add_dependency("a", "b")
        program.add_dependency("b", "c")
        assert program.depth == 3
        assert program.critical_path() == ["a", "b", "c"]

    def test_dependencies_query(self):
        program = ProgramGraph()
        program.add_table(_table("a"))
        program.add_table(_table("b"))
        program.add_dependency("a", "b", DependencyKind.ACTION)
        deps = program.dependencies("b")
        assert deps == [("a", DependencyKind.ACTION)]

    def test_empty_graph(self):
        program = ProgramGraph()
        assert program.depth == 0
        assert program.critical_path() == []
        assert program.levels() == []


@st.composite
def _dags(draw):
    """Tables in insertion order, plus acyclic edges in insertion order.

    Edges run forward in a random permutation of the tables, so the graph
    is a DAG whatever order they are added in.
    """
    names = [f"t{i}" for i in range(draw(st.integers(0, 12)))]
    rank = draw(st.permutations(names))
    pairs = [
        (rank[i], rank[j])
        for i in range(len(rank))
        for j in range(i + 1, len(rank))
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    kinds = draw(
        st.lists(st.sampled_from(DependencyKind), min_size=len(edges),
                 max_size=len(edges))
    )
    return names, list(zip(edges, kinds))


def _build(names, edges) -> ProgramGraph:
    program = ProgramGraph()
    for name in names:
        program.add_table(_table(name))
    for (before, after), kind in edges:
        program.add_dependency(before, after, kind)
    return program


def _snapshot(program: ProgramGraph, names):
    return (
        [[t.name for t in level] for level in program.levels()],
        program.depth,
        {name: program.dependencies(name) for name in names},
    )


class TestProgramGraphProperties:
    @settings(deadline=None, max_examples=150)
    @given(_dags())
    def test_levels_are_longest_path_generations(self, dag):
        names, edges = dag
        program = _build(names, edges)
        levels = [[t.name for t in level] for level in program.levels()]
        level_of = {n: i for i, level in enumerate(levels) for n in level}
        assert sorted(level_of) == sorted(names)
        for i, level in enumerate(levels):
            assert level == sorted(level)
            for name in level:
                preds = [p for p, _ in program.dependencies(name)]
                assert all(level_of[p] < i for p in preds)
                if i > 0:
                    assert any(level_of[p] == i - 1 for p in preds)
                else:
                    assert preds == []
        assert program.depth == len(levels)

    @settings(deadline=None, max_examples=150)
    @given(_dags())
    def test_critical_path_is_a_chain_of_depth_tables(self, dag):
        names, edges = dag
        program = _build(names, edges)
        path = program.critical_path()
        assert len(path) == program.depth
        for before, after in zip(path, path[1:]):
            assert before in [p for p, _ in program.dependencies(after)]
        assert program.critical_path() == path  # deterministic

    @settings(deadline=None, max_examples=150)
    @given(_dags(), st.data())
    def test_rejected_cycle_edge_changes_nothing(self, dag, data):
        names, edges = dag
        assume(edges)
        program = _build(names, edges)
        before = _snapshot(program, names)
        # Reversing an edge, or closing the critical path, makes a cycle.
        before_name, after_name = data.draw(
            st.sampled_from([edge for edge, _ in edges])
        )
        with pytest.raises(CompileError):
            program.add_dependency(after_name, before_name)
        path = program.critical_path()
        if len(path) > 1:
            with pytest.raises(CompileError):
                program.add_dependency(path[-1], path[0])
        assert _snapshot(program, names) == before

    @settings(deadline=None, max_examples=100)
    @given(_dags())
    def test_dependencies_keep_edge_insertion_order(self, dag):
        names, edges = dag
        program = _build(names, edges)
        for name in names:
            expected = [(b, kind) for (b, a), kind in edges if a == name]
            assert program.dependencies(name) == expected
