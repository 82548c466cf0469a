"""Telemetry levels and deterministic head-based packet sampling.

PR 7's kernel speedups (``_run_fast`` dispatch, batched same-timestamp
admission, lazy PHVs) are all gated on ``switch.trace is None`` — the
fully-instrumented trace path is the *only* thing that forfeits them.
:class:`TelemetryLevel` names the useful points in between so callers can
ask for exactly the observability they need:

``off``
    Nothing but the terminal counters every run keeps.  Fast path live.
``counters``
    ``off`` plus the clock-driven :class:`~repro.telemetry.monitor.
    ResourceMonitor` (deadline-aware probe, so dispatch stays on
    ``_run_fast``).  Fast path live.
``sampled``
    ``counters`` plus head-based span sampling: a deterministic 1-in-N
    subset of injected packets carries a span id in ``PacketMetadata``
    and emits per-hop :class:`~repro.telemetry.spans.SpanRecord`\\ s.
    The per-packet check is one ``is None`` test plus, on the sampled
    subset only, a handful of appends — ``switch.trace`` stays ``None``,
    so batching and fast dispatch survive.  Fast path live.
``full``
    The PR 1 instrumented path: every event traced through the ring
    buffer.  Fast path forfeited (reference semantics).

The sampling decision is *head-based* and content-free: it is made once,
at injection, from the packet id alone — ``stable_hash64("span/<seed>/
<relative packet id>") % N == 0`` — so the same seed always samples the
same packets, on every switch target, and every hop a
sampled packet (or an ``OP_RESULT`` emission it triggers) traverses is
captured or none are.  Ids are taken *relative to the first packet the
sampler sees* so the decision depends only on a packet's position in the
run's injection stream, not on how many packets earlier runs in the same
process happened to allocate.
"""

from __future__ import annotations

import enum

from ..errors import ConfigError
from ..sim.rng import stable_hash64


class TelemetryLevel(enum.Enum):
    """The observability ladder; see the module docstring for semantics."""

    OFF = "off"
    COUNTERS = "counters"
    SAMPLED = "sampled"
    FULL = "full"

    @classmethod
    def parse(cls, value: "TelemetryLevel | str") -> "TelemetryLevel":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            choices = ", ".join(level.value for level in cls)
            raise ConfigError(
                f"unknown telemetry level {value!r} (choices: {choices})"
            )

    @property
    def preserves_fast_path(self) -> bool:
        """Whether this level keeps ``trace is None`` — and with it
        ``_run_fast`` dispatch and batched
        admission — live."""
        return self is not TelemetryLevel.FULL

    @property
    def wants_monitor(self) -> bool:
        return self in (TelemetryLevel.COUNTERS, TelemetryLevel.SAMPLED)

    @property
    def wants_spans(self) -> bool:
        return self is TelemetryLevel.SAMPLED

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return self.value


class SpanSampler:
    """Deterministic 1-in-``sample`` head-based packet sampler.

    ``admits(packet_id)`` is called exactly once per *injected* packet
    (never for handoffs between fabric switches, never for emissions —
    those inherit the parent's span id through ``PacketMetadata.span``).
    The first id offered becomes the base; all decisions hash the
    run-relative id so repeated runs in one process — where the global
    packet-id counter keeps advancing — sample identical positions.
    """

    __slots__ = ("seed", "sample", "_base", "offered", "admitted")

    def __init__(self, seed: int, sample: int) -> None:
        if sample < 1:
            raise ConfigError(f"sample must be >= 1, got {sample}")
        self.seed = seed
        self.sample = sample
        self._base: int | None = None
        self.offered = 0
        self.admitted = 0

    def admits(self, packet_id: int) -> bool:
        base = self._base
        if base is None:
            base = self._base = packet_id
        self.offered += 1
        if self.sample > 1:
            key = f"span/{self.seed}/{packet_id - base}"
            if stable_hash64(key) % self.sample != 0:
                return False
        self.admitted += 1
        return True

    def span_id(self, packet_id: int) -> int:
        """The run-relative id an admitted packet carries as its span id."""
        return packet_id - (self._base if self._base is not None else packet_id)

    @property
    def coverage(self) -> float:
        """Fraction of offered packets sampled (0.0 when none offered)."""
        return self.admitted / self.offered if self.offered else 0.0
