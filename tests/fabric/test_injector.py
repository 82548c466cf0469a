"""The fabric's arrival injector: ordering, bursts, offered-load counts."""

from __future__ import annotations

from types import SimpleNamespace

from repro.fabric.runner import ArrivalInjector
from repro.net.packet import PacketMetadata
from repro.sim.event import Simulator


class _Switch:
    def __init__(self, log: list, name: str, traced: bool = False) -> None:
        self.trace = object() if traced else None
        self._log = log
        self._name = name

    def arrive(self, packets, time):
        self._log.append((self._name, time, [p.name for p in packets]))


def _packet(name: str):
    return SimpleNamespace(name=name, meta=PacketMetadata())


def _fabric(sim, switches, host_switch, latency_s=1.0):
    topology = SimpleNamespace(
        hosts={
            host: SimpleNamespace(switch=name)
            for host, name in host_switch.items()
        }
    )
    return SimpleNamespace(
        topology=topology, sim=sim, switches=switches, latency_s=latency_s
    )


def test_arrivals_precede_other_work_at_their_timestamp():
    """A priority-0 event scheduled before an arrival at the same time
    still runs after it: the injector re-arms at the reserved priority."""
    sim = Simulator("heap")
    log: list = []
    fabric = _fabric(sim, {"s": _Switch(log, "s")}, {0: "s"})
    ArrivalInjector(fabric, {0: [(0.5, _packet("a")), (1.0, _packet("b"))]})
    sim.at(0.0, lambda: sim.at(2.0, lambda: log.append(("other", 2.0))))
    sim.run()
    assert log == [("s", 1.5, ["a"]), ("s", 2.0, ["b"]), ("other", 2.0)]


def test_same_time_same_switch_arrivals_form_one_burst():
    sim = Simulator("heap")
    log: list = []
    switches = {"s": _Switch(log, "s"), "t": _Switch(log, "t")}
    fabric = _fabric(sim, switches, {0: "s", 1: "s", 2: "t", 3: "s"})
    streams = {
        3: [(1.0, _packet("d"))],
        2: [(1.0, _packet("c"))],
        1: [(1.0, _packet("b")), (2.0, _packet("e"))],
        0: [(1.0, _packet("a"))],
    }
    ArrivalInjector(fabric, streams)
    events = sim.run()
    # Host order breaks ties; a different switch splits the run.
    assert log == [
        ("s", 2.0, ["a", "b"]),
        ("t", 2.0, ["c"]),
        ("s", 2.0, ["d"]),
        ("s", 3.0, ["e"]),
    ]
    assert events == 4


def test_traced_switch_takes_one_packet_per_event():
    sim = Simulator("heap")
    log: list = []
    switches = {"s": _Switch(log, "s", traced=True)}
    fabric = _fabric(sim, switches, {0: "s", 1: "s"})
    ArrivalInjector(
        fabric, {0: [(1.0, _packet("a"))], 1: [(1.0, _packet("b"))]}
    )
    assert sim.run() == 2
    assert log == [("s", 2.0, ["a"]), ("s", 2.0, ["b"])]


def test_departed_before_counts_departures_not_arrivals():
    sim = Simulator("heap")
    fabric = _fabric(sim, {"s": _Switch([], "s")}, {0: "s", 1: "s"})
    injector = ArrivalInjector(
        fabric,
        {
            0: [(0.5, _packet("a")), (1.5, _packet("b"))],
            1: [(1.0, _packet("c")), (3.0, _packet("d"))],
        },
    )
    assert injector.departed_before(0.5) == 0
    assert injector.departed_before(1.5) == 2  # strict: b departs at 1.5
    assert injector.departed_before(10.0) == 4
    sim.run()
    assert injector.departed_before(10.0) == 4
