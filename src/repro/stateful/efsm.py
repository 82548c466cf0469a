"""EFSM: declarative per-flow state machines over switch registers.

The Open Packet Processor lineage (Bianchi et al.) programs switches as
extended finite-state machines: each flow carries a current state plus a
small set of per-flow registers; packets are *events* that fire guarded
transitions whose actions mutate the registers.  This module gives the
repro codebase that construct in a target-neutral form:

* :class:`EfsmSpec` is the declarative machine — states, events, per-flow
  registers, and ordered :class:`Transition` rules with optional
  :class:`Guard` predicates and :class:`Action` register updates.
* :class:`EfsmEngine` executes a spec against a pipeline's
  :class:`~repro.tables.registers.RegisterArray` storage (one state array
  plus one array per declared register, all sized to the flow-slot count),
  so every step is charged as real register reads/writes in the resource
  monitor.
* :func:`efsm_program` lowers a spec to the :mod:`repro.program` table
  graph — an exact flow table carrying the machine's stateful bits plus a
  state×event transition table — which is how the compiler charges RMT's
  per-key replication vs ADCP's shared-copy allocation for the same
  machine (§3.2 of the paper).

Transition resolution is first-match in declaration order: the first rule
whose (state, event) pair matches and whose guard passes fires.  A packet
that matches no rule leaves the flow's state untouched and is counted in
:attr:`EfsmEngine.unmatched`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..program import ActionSpec, ProgramGraph, TableSpec
from ..tables.mat import MatchKind

__all__ = [
    "Action",
    "EfsmEngine",
    "EfsmSpec",
    "Guard",
    "Transition",
    "efsm_program",
]

_GUARD_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
_ACTION_OPS = ("set", "add", "max", "min")


@dataclass(frozen=True)
class Guard:
    """Predicate over one per-flow register: ``register <op> operand``."""

    register: str
    op: str
    operand: int

    def __post_init__(self) -> None:
        if self.op not in _GUARD_OPS:
            raise ConfigError(
                f"guard op {self.op!r} not in {_GUARD_OPS}"
            )

    def evaluate(self, value: int) -> bool:
        if self.op == "eq":
            return value == self.operand
        if self.op == "ne":
            return value != self.operand
        if self.op == "lt":
            return value < self.operand
        if self.op == "le":
            return value <= self.operand
        if self.op == "gt":
            return value > self.operand
        return value >= self.operand


@dataclass(frozen=True)
class Action:
    """Register update fired by a transition.

    ``operand=None`` uses the event's carried value (the packet payload
    element), mirroring OPP's ability to fold header fields into flow
    registers.
    """

    register: str
    op: str
    operand: int | None = None

    def __post_init__(self) -> None:
        if self.op not in _ACTION_OPS:
            raise ConfigError(
                f"action op {self.op!r} not in {_ACTION_OPS}"
            )

    def apply(self, current: int, event_value: int) -> int:
        operand = self.operand if self.operand is not None else event_value
        if self.op == "set":
            return operand
        if self.op == "add":
            return current + operand
        if self.op == "max":
            return max(current, operand)
        return min(current, operand)


@dataclass(frozen=True)
class Transition:
    """One guarded rule: in ``state``, on ``event``, go to ``next_state``."""

    state: str
    event: str
    next_state: str
    guard: Guard | None = None
    actions: tuple[Action, ...] = ()


@dataclass(frozen=True)
class EfsmSpec:
    """A declarative per-flow state machine.

    ``registers`` maps register name -> width in bits; every flow slot
    gets its own copy of each register plus the state variable, which is
    what :func:`efsm_program` charges as the flow table's stateful bits.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    events: tuple[str, ...]
    registers: tuple[tuple[str, int], ...] = ()
    transitions: tuple[Transition, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("EFSM name must be non-empty")
        if len(set(self.states)) != len(self.states):
            raise ConfigError(f"EFSM {self.name!r}: duplicate states")
        if len(set(self.events)) != len(self.events):
            raise ConfigError(f"EFSM {self.name!r}: duplicate events")
        if self.initial not in self.states:
            raise ConfigError(
                f"EFSM {self.name!r}: initial state {self.initial!r} "
                f"not in states"
            )
        reg_names = [name for name, _ in self.registers]
        if len(set(reg_names)) != len(reg_names):
            raise ConfigError(f"EFSM {self.name!r}: duplicate registers")
        for reg, width in self.registers:
            if width <= 0:
                raise ConfigError(
                    f"EFSM {self.name!r}: register {reg!r} width must "
                    f"be positive"
                )
        known = set(reg_names)
        for t in self.transitions:
            for state in (t.state, t.next_state):
                if state not in self.states:
                    raise ConfigError(
                        f"EFSM {self.name!r}: transition references "
                        f"unknown state {state!r}"
                    )
            if t.event not in self.events:
                raise ConfigError(
                    f"EFSM {self.name!r}: transition references unknown "
                    f"event {t.event!r}"
                )
            if t.guard is not None and t.guard.register not in known:
                raise ConfigError(
                    f"EFSM {self.name!r}: guard references unknown "
                    f"register {t.guard.register!r}"
                )
            for action in t.actions:
                if action.register not in known:
                    raise ConfigError(
                        f"EFSM {self.name!r}: action references unknown "
                        f"register {action.register!r}"
                    )

    @property
    def state_width_bits(self) -> int:
        """Bits needed to encode one state value (at least 1)."""
        return max(1, (len(self.states) - 1).bit_length())

    @property
    def flow_state_bits(self) -> int:
        """Per-flow storage: state variable + every declared register."""
        return self.state_width_bits + sum(w for _, w in self.registers)

    def state_index(self, state: str) -> int:
        return self.states.index(state)


class EfsmEngine:
    """Executes an :class:`EfsmSpec` over pipeline register arrays.

    The engine is bound to whichever pipeline partition runs the app's
    central hook: arrays are fetched lazily through
    ``ctx.register(...)`` so each partition owns the slots its placement
    hashes there, exactly like any other stateful app.  Transition
    counters are engine-global (control-plane observability, not
    data-plane state).
    """

    def __init__(self, spec: EfsmSpec, flows: int) -> None:
        if flows <= 0:
            raise ConfigError(f"EFSM {spec.name!r}: flows must be positive")
        self.spec = spec
        self.flows = flows
        self.steps = 0
        self.unmatched = 0
        self._taken: dict[tuple[str, str, str], int] = {}
        #: partition index -> (state array, {register name -> array}),
        #: recorded at bind time so post-run scans (e.g. flagged-source
        #: detection) can read the final per-flow registers.
        self.bound: dict[int, tuple] = {}

    def _arrays(self, ctx):
        state = ctx.register(
            f"efsm_{self.spec.name}_state",
            self.flows,
            width_bits=max(8, self.spec.state_width_bits),
        )
        regs = {
            name: ctx.register(
                f"efsm_{self.spec.name}_{name}", self.flows, width_bits=width
            )
            for name, width in self.spec.registers
        }
        self.bound[ctx.pipeline_index] = (state, regs)
        return state, regs

    def step(self, ctx, slot: int, event: str, value: int = 0):
        """Fire the machine for one packet.

        Returns ``(old_state, new_state, transition | None)``; ``None``
        means no rule matched and the state is unchanged.
        """
        state_arr, regs = self._arrays(ctx)
        index = slot % self.flows
        old_index = state_arr.read(index)
        old_state = self.spec.states[old_index]
        self.steps += 1
        for t in self.spec.transitions:
            if t.state != old_state or t.event != event:
                continue
            if t.guard is not None:
                if not t.guard.evaluate(regs[t.guard.register].read(index)):
                    continue
            for action in t.actions:
                arr = regs[action.register]
                arr.write(index, action.apply(arr.read(index), value))
            if t.next_state != old_state:
                state_arr.write(index, self.spec.state_index(t.next_state))
            else:
                # Self-loop still charges the state write-back.
                state_arr.write(index, old_index)
            key = (t.state, t.event, t.next_state)
            self._taken[key] = self._taken.get(key, 0) + 1
            return old_state, t.next_state, t
        self.unmatched += 1
        return old_state, old_state, None

    def state_of(self, partition: int, slot: int) -> str:
        """Current state name of a flow slot on a bound partition."""
        state_arr, _ = self.bound[partition]
        return self.spec.states[state_arr.read(slot % self.flows)]

    def register_of(self, partition: int, slot: int, register: str) -> int:
        _, regs = self.bound[partition]
        return regs[register].read(slot % self.flows)

    def transition_counts(self) -> dict[str, int]:
        """Stable ``state--event->next`` labels -> firing counts."""
        return {
            f"{s}--{e}->{n}": count
            for (s, e, n), count in sorted(self._taken.items())
        }

    @property
    def state_accesses(self) -> int:
        """Register reads+writes across every bound partition."""
        total = 0
        for state_arr, regs in self.bound.values():
            total += state_arr.access_count
            total += sum(arr.access_count for arr in regs.values())
        return total


def efsm_program(
    spec: EfsmSpec,
    flows: int,
    keys_per_packet: int = 1,
    flow_key_bits: int = 104,
) -> ProgramGraph:
    """Lower an EFSM to the compiler's table graph.

    Two tables: the exact *flow table* (keyed by the flow tuple, carrying
    every flow's state+register bits as stateful storage, looked up
    ``keys_per_packet`` times per packet) and the *transition table*
    (state x event -> next state + actions, pure lookup).  The flow table
    must resolve before the transition table, so a MATCH dependency links
    them.  Compiling this graph onto ``rmt_target()`` vs ``adcp_target()``
    is the §3.2 experiment: the scalar target replicates the flow table
    per key, the array target keeps one copy.
    """
    if flows <= 0:
        raise ConfigError(f"EFSM {spec.name!r}: flows must be positive")
    event_bits = max(1, (len(spec.events) - 1).bit_length())
    actions = tuple(
        ActionSpec(f"{spec.name}_t{i}", max(1, len(t.actions) + 1))
        for i, t in enumerate(spec.transitions)
    ) or (ActionSpec(f"{spec.name}_nop", 1),)
    flow_table = TableSpec(
        name=f"{spec.name}_flow",
        kind=MatchKind.EXACT,
        key_width_bits=flow_key_bits,
        capacity=flows,
        keys_per_packet=keys_per_packet,
        actions=(ActionSpec(f"{spec.name}_load", 1),),
        stateful_bits=flows * spec.flow_state_bits,
    )
    transition_table = TableSpec(
        name=f"{spec.name}_trans",
        kind=MatchKind.EXACT,
        key_width_bits=spec.state_width_bits + event_bits,
        capacity=max(1, len(spec.transitions)),
        keys_per_packet=keys_per_packet,
        actions=actions,
    )
    program = ProgramGraph(f"efsm_{spec.name}")
    program.add_table(flow_table)
    program.add_table(transition_table)
    program.add_dependency(flow_table.name, transition_table.name)
    return program
