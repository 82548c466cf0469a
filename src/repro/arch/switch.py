"""What the RMT and ADCP switch models share: the run loop and its hooks.

Both targets admit arrivals the same way and differ only in what their
``_ingress_service(packet, time)`` does with a packet.  A subclass sets
``app``, ``telemetry``, ``trace``, ``spans``, ``_sim`` and ``_result``
in its constructor.
"""

from __future__ import annotations

from ..net.packet import Packet
from ..net.traffic import inject_bursts
from ..sim.component import Component
from ..telemetry.events import Category, Severity
from .app import SwitchApp


class SwitchModel(Component):
    """Base class of :class:`~repro.rmt.switch.RMTSwitch` and
    :class:`~repro.adcp.switch.ADCPSwitch`."""

    def _elide_hook(self, region: str):
        """The app's hook for ``region``, or None if it is the inherited
        :class:`~repro.arch.app.SwitchApp` default (pure forward)."""
        app = self.app
        if app is None:
            return None
        if getattr(type(app), region) is getattr(SwitchApp, region):
            return None
        return getattr(app, region)

    def _emit(
        self,
        category: Category,
        name: str,
        time_s: float,
        packet: Packet | None = None,
        severity: Severity = Severity.INFO,
        **args,
    ) -> None:
        """Record a switch-level trace event when telemetry is enabled."""
        self.trace.emit(
            category,
            name,
            time_s,
            component=self.path,
            severity=severity,
            packet_id=packet.packet_id if packet is not None else None,
            **args,
        )

    # --- run loop -----------------------------------------------------------------

    def run(self, timed_packets, until: float | None = None):
        """Push a time-ordered iterable of ``(time, packet)`` through.

        Returns the accumulated run result.  ``run`` may be called once
        per switch instance, on a simulator with nothing pending;
        construct a fresh switch per experiment so state and stats start
        clean.

        Untraced, each packet is pulled off ``timed_packets`` only when
        the burst before it fires, and each same-timestamp burst is one
        kernel event (:func:`~repro.net.traffic.inject_bursts`), so a
        generator that builds packets on demand keeps only the packets
        in flight alive.  Traced runs schedule one event per packet
        before the run, so span streams are unchanged.  Arrivals after
        ``until`` stay queued (untraced: unpulled).
        """
        if self.spans is not None:
            timed_packets = _sampled(timed_packets, self.spans.admit)
        if self.trace is None:
            inject_bursts(self._sim, timed_packets, self.arrive)
        else:
            for time, packet in timed_packets:
                self.inject(packet, time)
        self._sim.run(until=until)
        return self.finalize()

    def arrive(self, packets: list[Packet], time: float) -> None:
        """Admit same-timestamp arrivals now, in list order.

        The caller is already the kernel event at ``time`` (the run
        loop's burst event, or the fabric's arrival injector); k packets
        count as k - 1 coalesced events, exactly as one burst event
        would.
        """
        self._sim.events_coalesced += len(packets) - 1
        for packet in packets:
            self._ingress_service(packet, time)

    def inject(self, packet: Packet, time: float) -> None:
        """Schedule one packet arrival without draining the event queue.

        Fabric link handoffs and RMT recirculation enter through this
        (host arrivals come in through :meth:`arrive`, from the fabric's
        arrival injector); the shared simulator is drained once by the
        fabric runner, after which each switch is :meth:`finalize`-d.
        """

        def event() -> None:
            self._ingress_service(packet, time)

        self._sim.at(time, event)

    def finalize(self, now_s: float | None = None):
        """Seal the run result once the (possibly shared) simulator drained."""
        now = self._sim.now if now_s is None else now_s
        self._result.duration_s = now
        self._result.counters = self.stats.snapshot()
        if self.telemetry is not None:
            self.telemetry.finish(now)
        return self._result

    def _span_service(self, packet, record, pipeline, queue_hop="ingress_queue"):
        """Record one pipeline pass's span hops for a sampled packet."""
        self.spans.service(
            packet.meta.span,
            packet.packet_id,
            self.name,
            record.ready_time,
            record.service_start,
            pipeline.parser_latency_cycles * pipeline.cycle_s,
            record.exit_time,
            queue_hop,
        )


def _sampled(timed_packets, admit):
    """Head-based span sampling at injection (docs/SPANS.md).

    Wrapping the arrival stream keeps batched admission intact: the
    sampling decision is per packet, but the kernel still sees one event
    per distinct timestamp.
    """
    for time, packet in timed_packets:
        admit(packet)
        yield time, packet
