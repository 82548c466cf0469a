"""Open-loop replay schedules: rate-controlled, seed-deterministic load.

The replay frontend generates the same coflow traffic the fabric
workloads define (:func:`~repro.fabric.workloads.build_workload`), but
instead of injecting every flow back-to-back at t=0 it spaces packets
with an *open-loop* arrival process per host NIC: each packet's
departure gap is drawn from the offered-load target (``rate`` as a
fraction of the host link rate), independent of how the fabric is
coping — the standard way to expose queueing and drops under overload.

Two arrival processes are supported (:data:`ARRIVAL_KINDS`):

- ``periodic`` — deterministic gaps of exactly ``wire_time / rate``.
- ``poisson``  — exponential gaps with that mean, drawn from a per-host
  PCG64 stream seeded by ``stable_hash64("serve/<seed>/h<host>")``, so
  schedules are byte-stable across runs and queue backends.

A :class:`RateProfile` modulates the target rate over time: an optional
linear warm-up ramp and any number of multiplicative :class:`BurstPhase`
overlays (a factor > 1/rate models transient overload).  Workload rounds
are generated on demand with disjoint coflow-id ranges (``coflow_base``)
until every active host's clock passes the horizon; packets scheduled
past the horizon are cut, so coflows in flight at the end may stay
incomplete — serve mode reports them as such rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import ConfigError, SimulationError
from ..fabric.topology import Topology
from ..fabric.workloads import FabricCoflowSpec, RoundPlan, plan_workload
from ..net.packet import Packet, reserve_packet_ids
from ..sim.rng import make_rng, stable_hash64
from ..units import BITS_PER_BYTE

ARRIVAL_KINDS = ("poisson", "periodic")

#: Hard cap on planned workload rounds: a backstop against a profile so
#: fast that planning the replay would run away.  Rounds are planned
#: lazily and never held all at once, so the cap only bounds the
#: replay's length: 65536 rounds is about 10 ms of the default
#: leaf-spine all-reduce at rate 0.8.
MAX_ROUNDS = 65536

#: The warm-up ramp never scales the rate below this floor (keeps gap
#: draws finite at t=0).
RAMP_FLOOR = 0.1

_NS = 1e-9

_DURATION_UNITS = {
    "ns": 1.0,
    "us": 1e3,
    "ms": 1e6,
    "s": 1e9,
}


def parse_duration_ns(text: str) -> float:
    """Parse ``"20us"`` / ``"500ns"`` / ``"1ms"`` / bare ns into ns."""
    raw = str(text).strip()
    for suffix in ("ns", "us", "ms", "s"):
        if raw.endswith(suffix):
            number = raw[: -len(suffix)]
            break
    else:
        suffix, number = "ns", raw
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(
            f"bad duration {text!r}; expected <number>[ns|us|ms|s]"
        )
    if value <= 0:
        raise ConfigError(f"duration must be positive, got {text!r}")
    return value * _DURATION_UNITS[suffix]


@dataclass(frozen=True)
class BurstPhase:
    """One transient load multiplier: ``rate *= factor`` on [start, end)."""

    factor: float
    start_ns: float
    end_ns: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ConfigError(f"burst factor must be positive, got {self.factor}")
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"burst phase needs 0 <= start < end, got "
                f"[{self.start_ns}, {self.end_ns})"
            )

    @classmethod
    def parse(cls, text: str) -> "BurstPhase":
        """Parse the CLI form ``FACTOR@START:END`` (durations per
        :func:`parse_duration_ns`), e.g. ``2.0@5us:8us``."""
        raw = str(text).strip()
        if "@" not in raw or ":" not in raw.split("@", 1)[1]:
            raise ConfigError(
                f"bad burst {text!r}; expected FACTOR@START:END "
                f"(e.g. 2.0@5us:8us)"
            )
        factor_text, span = raw.split("@", 1)
        start_text, end_text = span.split(":", 1)
        try:
            factor = float(factor_text)
        except ValueError:
            raise ConfigError(f"bad burst factor in {text!r}")
        return cls(
            factor,
            parse_duration_ns(start_text),
            parse_duration_ns(end_text),
        )


@dataclass(frozen=True)
class RateProfile:
    """Offered load over time, as a fraction of the host link rate."""

    rate: float
    ramp_ns: float = 0.0
    bursts: tuple[BurstPhase, ...] = ()

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.ramp_ns < 0:
            raise ConfigError(f"ramp must be >= 0, got {self.ramp_ns}")

    def at(self, t_ns: float) -> float:
        """Effective rate at ``t_ns``: ramp floor, then burst overlays."""
        rate = self.rate
        if self.ramp_ns > 0 and t_ns < self.ramp_ns:
            rate *= max(RAMP_FLOOR, t_ns / self.ramp_ns)
        for burst in self.bursts:
            if burst.start_ns <= t_ns < burst.end_ns:
                rate *= burst.factor
        return rate


class _RoundCache:
    """Round plans shared by the lazy host streams of one schedule.

    Plans are made in round order, so each knows its first packet id; a
    plan is dropped once every host with packets in it has taken its
    share (or left the schedule).
    """

    def __init__(self, schedule: "ServeSchedule", first_id: int) -> None:
        self._schedule = schedule
        self._next_round = 0
        self._next_id = first_id
        #: round -> [plan, first id, coflows opened, hosts still to take].
        self._rounds: dict[int, list] = {}
        self._gone = set(schedule.topology.host_ids) - set(schedule.senders)

    def take(self, round_: int, host: int):
        """``host``'s share of round ``round_``: (plan, first id, opened
        coflow ids, recipes)."""
        while self._next_round <= round_:
            plan = self._schedule.plan_round(self._next_round)
            waiting = set(plan.per_host) - self._gone
            self._rounds[self._next_round] = [
                plan, self._next_id, set(), waiting
            ]
            self._next_id += plan.size
            self._next_round += 1
        entry = self._rounds.get(round_)
        if entry is None:
            # Every host with packets in the round already took them.
            return None, 0, None, ()
        plan, first_id, opened, waiting = entry
        waiting.discard(host)
        if not waiting:
            del self._rounds[round_]
        return plan, first_id, opened, plan.per_host.get(host, ())

    def leave(self, host: int) -> None:
        """``host`` takes nothing more: stop keeping plans for it."""
        self._gone.add(host)
        for round_ in list(self._rounds):
            waiting = self._rounds[round_][3]
            waiting.discard(host)
            if not waiting:
                del self._rounds[round_]


@dataclass
class ServeSchedule:
    """An open-loop replay: its totals, and lazy per-host NIC streams.

    :func:`build_schedule` walks the replay once without building a
    packet, to count what it offers; :meth:`streams` then replays the
    same draws host by host and builds each packet only when its host
    sends it.
    """

    workload: str
    topology: Topology
    profile: RateProfile
    poisson: bool
    duration_s: float
    vector: int
    elements_per_packet: int
    link_bps: float
    seed: int
    #: Workload rounds planned, counting the final one that scheduled
    #: nothing (it ends the replay).
    rounds: int
    #: Packets the replay offers (host departures before the horizon).
    injected: int
    #: Coflows with at least one scheduled packet.
    coflows_scheduled: int
    #: Hosts that send at least one packet, ascending.
    senders: tuple[int, ...]
    #: The replay's block of packet ids: every planned round's packets
    #: (sent or cut at the horizon), in round order, reserved when the
    #: schedule was built — where building every packet would have
    #: drawn them.
    first_packet_id: int
    packet_ids: int
    terminal_opcode: int
    aggregated: bool
    coflows_per_round: int = 0
    #: Per-switch app factory for stateful workloads (first round's —
    #: instances persist across rounds, claiming by opcode).
    app_factory: object = None

    def plan_round(self, round_: int) -> RoundPlan:
        """Round ``round_`` of the workload (coflow ids offset past the
        earlier rounds')."""
        return plan_workload(
            self.workload,
            self.topology,
            coflows=self.coflows_per_round,
            vector=self.vector,
            elements_per_packet=self.elements_per_packet,
            link_bps=self.link_bps,
            seed=self.seed,
            coflow_base=round_ * self.coflows_per_round,
        )

    def streams(
        self,
        on_open: Callable[[FabricCoflowSpec, dict], None] | None = None,
        first_departure: dict[int, float] | None = None,
    ) -> dict[int, Iterator[tuple[float, Packet]]]:
        """Fresh per-host streams of ``(departure_s, packet)``.

        Packets carry ids from the schedule's reserved block, the ids
        they would have had if every round had been built up front.
        ``on_open(spec, expected)`` fires once per scheduled coflow,
        before its first packet is yielded, with the coflow's share of
        the round's expected terminal counts.  ``first_departure`` (when
        given) lowers each of its entries to the earliest departure
        yielded so far for that coflow; ``on_open`` adds the coflows it
        wants tracked (at ``inf``).
        """
        cache = _RoundCache(self, self.first_packet_id)
        return {
            host: self._host_stream(host, cache, on_open, first_departure)
            for host in self.senders
        }

    def _host_stream(
        self, host: int, cache: _RoundCache, on_open, first_departure
    ):
        nic = _HostNic(self, host)
        port = self.topology.hosts[host].port
        try:
            # The last round scheduled nothing, by definition.
            for round_ in range(self.rounds - 1):
                plan, first_id, opened, recipes = cache.take(round_, host)
                for clock, recipe in nic.departures(recipes):
                    coflow_id = recipe[1]
                    if coflow_id not in opened:
                        opened.add(coflow_id)
                        if on_open is not None:
                            _open(plan, coflow_id, on_open)
                    if first_departure is not None:
                        seen = first_departure.get(coflow_id)
                        if seen is not None and clock < seen:
                            first_departure[coflow_id] = clock
                    packet = plan.build(recipe, first_id + recipe[0])
                    packet.meta.ingress_port = port
                    yield clock, packet
                if nic.done:
                    return
        finally:
            cache.leave(host)


class _HostNic:
    """One host NIC's departure clock: its gap draws and the horizon cut.

    The counting walk in :func:`build_schedule` and the packet streams
    both depart packets through this, so they see the same draws and
    cut at the same packet.
    """

    __slots__ = ("clock", "done", "_rng", "_profile", "_link_bps", "_horizon")

    def __init__(self, schedule: ServeSchedule, host: int) -> None:
        self.clock = 0.0
        #: Set once a departure lands past the horizon; the host then
        #: sends nothing more.
        self.done = False
        self._rng = _host_rng(schedule.seed, host) if schedule.poisson else None
        self._profile = schedule.profile
        self._link_bps = schedule.link_bps
        self._horizon = schedule.duration_s

    def departures(self, recipes) -> Iterator[tuple[float, tuple]]:
        """Yield ``(departure_s, recipe)`` for each of ``recipes`` that
        leaves before the horizon, in order.

        Each departure is one gap after the previous one, of mean
        ``wire_time / rate`` at the current clock: exponential for a
        Poisson NIC, exact for a periodic one.
        """
        if self.done:
            return
        rng = self._rng
        for recipe in recipes:
            clock = self.clock
            wire_s = recipe[2] * BITS_PER_BYTE / self._link_bps
            mean_gap = wire_s / self._profile.at(clock / _NS)
            if rng is None:
                clock += mean_gap
            else:
                clock += float(rng.exponential(mean_gap))
            self.clock = clock
            if clock > self._horizon:
                self.done = True
                return
            yield clock, recipe


def _open(plan: RoundPlan, coflow_id: int, on_open) -> None:
    spec = next(s for s in plan.coflows if s.coflow_id == coflow_id)
    on_open(
        spec,
        {
            key: count
            for key, count in plan.expected.items()
            if key[0] == coflow_id
        },
    )


def _host_rng(seed: int, host: int):
    return make_rng(stable_hash64(f"serve/{seed}/h{host}") % (2**32))


def build_schedule(
    workload: str,
    topology: Topology,
    *,
    profile: RateProfile,
    arrivals: str = "poisson",
    duration_ns: float,
    coflows: int = 2,
    vector: int = 64,
    elements_per_packet: int,
    link_bps: float,
    seed: int = 0,
    on_scheduled: Callable[[FabricCoflowSpec], None] | None = None,
) -> ServeSchedule:
    """Walk the open-loop replay for one serve run, building no packet.

    Rounds of ``workload`` (each ``coflows`` wide, coflow ids offset by
    ``coflow_base``) are planned until every host with pending traffic
    has a NIC clock past ``duration_ns``.  Worker selection inside each
    round is the workload's own seeded draw, so round *r* of seed *s* is
    the same traffic whatever the rate profile does.  ``on_scheduled``
    sees every coflow that gets at least one packet on a wire, in round
    order — the serve runner derives state placement from it before the
    fabric is built.
    """
    if arrivals not in ARRIVAL_KINDS:
        raise ConfigError(
            f"unknown arrival process {arrivals!r}; choose from "
            f"{', '.join(ARRIVAL_KINDS)}"
        )
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    duration_s = duration_ns * _NS
    poisson = arrivals == "poisson"

    senders: set[int] = set()
    injected = 0
    coflows_scheduled = 0
    packet_ids = 0
    terminal_opcode = 0
    aggregated = False
    app_factory = None
    schedule = ServeSchedule(
        workload=workload,
        topology=topology,
        profile=profile,
        poisson=poisson,
        duration_s=duration_s,
        vector=vector,
        elements_per_packet=elements_per_packet,
        link_bps=link_bps,
        seed=seed,
        rounds=0,
        injected=0,
        coflows_scheduled=0,
        senders=(),
        first_packet_id=0,
        packet_ids=0,
        terminal_opcode=0,
        aggregated=False,
        coflows_per_round=coflows,
    )
    nics = {host: _HostNic(schedule, host) for host in topology.host_ids}

    rounds = 0
    while True:
        if rounds >= MAX_ROUNDS:
            raise SimulationError(
                f"serve schedule exceeded {MAX_ROUNDS} workload rounds "
                f"before reaching the horizon; raise the rate or shorten "
                f"the duration"
            )
        plan = schedule.plan_round(rounds)
        terminal_opcode = plan.terminal_opcode
        aggregated = plan.aggregated
        if app_factory is None:
            app_factory = plan.app_factory
        scheduled: set[int] = set()
        for host in sorted(plan.per_host):
            for _, recipe in nics[host].departures(plan.per_host[host]):
                injected += 1
                senders.add(host)
                scheduled.add(recipe[1])
        packet_ids += plan.size
        for spec in plan.coflows:
            if spec.coflow_id in scheduled:
                coflows_scheduled += 1
                if on_scheduled is not None:
                    on_scheduled(spec)
        rounds += 1
        if not scheduled:
            break

    schedule.rounds = rounds
    schedule.injected = injected
    schedule.coflows_scheduled = coflows_scheduled
    schedule.senders = tuple(sorted(senders))
    schedule.first_packet_id = reserve_packet_ids(packet_ids)
    schedule.packet_ids = packet_ids
    schedule.terminal_opcode = terminal_opcode
    schedule.aggregated = aggregated
    schedule.app_factory = app_factory
    return schedule
