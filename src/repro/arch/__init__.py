"""Architecture-neutral switch building blocks.

Pieces shared between the RMT model (:mod:`repro.rmt`) and the ADCP model
(:mod:`repro.adcp`):

- :class:`~repro.arch.port.TxPort` — transmit-side serialization at link
  rate (one packet on the wire at a time).
- :class:`~repro.arch.decision.Decision` — what an application asks the
  switch to do with a packet (forward / drop / consume / emit).
- :class:`~repro.arch.switch.SwitchModel` — the run loop both switch
  models share: lazy burst admission of a ``(time, packet)`` stream,
  fabric injection, hook elision and result sealing.
- :class:`~repro.arch.app.SwitchApp` and
  :class:`~repro.arch.app.PipelineContext` — the programming interface an
  in-network application implements once and runs on either target.  The
  context deliberately exposes *only* the state co-resident with the
  pipeline executing the hook; the architectural difference between RMT
  and ADCP is exactly which state that is.
"""

from .app import PipelineContext, SwitchApp
from .decision import Decision, Verdict
from .port import TxPort

__all__ = [
    "Decision",
    "PipelineContext",
    "SwitchApp",
    "TxPort",
    "Verdict",
]
