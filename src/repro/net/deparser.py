"""Deparsing: reassembling packets from PHVs.

"When data arrives at the end of the ingress pipeline, it is deparsed into
a packet taking the data modifications into consideration" (paper,
section 2).  The deparser here writes modified PHV fields back into the
packet's headers and, when an array view exists, rebuilds the element array
— which is how ADCP programs emit output coflows whose packets differ in
shape from the inputs.
"""

from __future__ import annotations

from ..errors import DeparseError
from .headers import Header
from .packet import Element, ElementArray, Packet
from .phv import PHV, _element_names


_MISSING = object()


class Deparser:
    """Rebuilds a packet from a PHV plus the original packet skeleton.

    The original packet supplies header ordering and any payload the parser
    never lifted; every field present in the PHV overwrites the packet's
    copy.  ``array_name`` selects which PHV array view (if any) becomes the
    output element array.
    """

    def __init__(self, array_name: str = "elems") -> None:
        self.array_name = array_name
        self.packets_deparsed = 0

    def deparse(self, phv: PHV, original: Packet) -> Packet:
        """Return a new packet reflecting PHV modifications."""
        phv_values = phv._values
        headers: list[Header] = []
        for header in original.headers:
            rebuilt = header.copy()
            values = header._values
            # The per-type plan carries precomputed qualified names and
            # max values; the range check mirrors Header.__setitem__
            # (hooks can write out-of-range values into the PHV, and the
            # deparser is where that must surface).  The parser lifts the
            # header's own value objects into the PHV, so a field no hook
            # wrote is the identical object; the copy keeps sharing the
            # original's dict until some field is not, and only then
            # takes a private one.
            for phv_name, field_name, max_value in header.type._deparse_plan:
                value = phv_values.get(phv_name, _MISSING)
                if value is _MISSING or value is values[field_name]:
                    continue
                if not 0 <= value <= max_value:
                    rebuilt[field_name] = value  # raises the range ConfigError
                if rebuilt._shared:
                    values = rebuilt._values = dict(values)
                    rebuilt._shared = False
                values[field_name] = value
            headers.append(rebuilt)

        payload = self._rebuild_array(phv, original)
        packet = Packet(headers, payload, original.extra_payload_bytes)
        packet.meta = original.meta
        if packet.has_header("coflow") and payload is not None:
            coflow = packet.header("coflow")
            count = len(payload)
            if coflow._values["element_count"] is not count:
                coflow["element_count"] = count
        self.packets_deparsed += 1
        return packet

    def _rebuild_array(self, phv: PHV, original: Packet) -> ElementArray | None:
        override = phv.get_meta("payload_override")
        if override is not None:
            # A hook replaced the element set wholesale (e.g. an ingress
            # filter dropping elements): honor it over the parsed view,
            # whose array containers are fixed-length and cannot shrink.
            width = (
                original.payload.element_width_bytes if original.payload else 8
            )
            return ElementArray(
                [Element(k, v) for k, v in override], width
            )
        key_array = f"{self.array_name}.key"
        value_array = f"{self.array_name}.value"
        if f"{key_array}.length" not in phv:
            # Parser never lifted the array; pass the payload through.
            return original.payload.copy() if original.payload else None

        key_len = phv.array_length(key_array)
        if f"{value_array}.length" not in phv:
            raise DeparseError(
                f"PHV has keys for array {self.array_name!r} but no values"
            )
        value_len = phv.array_length(value_array)
        if key_len != value_len:
            raise DeparseError(
                f"array {self.array_name!r} key/value lengths differ "
                f"({key_len} vs {value_len})"
            )
        phv_values = phv._values
        keys = [phv_values[n] for n in _element_names(key_array, key_len)]
        values = [phv_values[n] for n in _element_names(value_array, value_len)]
        width = (
            original.payload.element_width_bytes if original.payload else 8
        )
        return ElementArray(
            [Element(k, v) for k, v in zip(keys, values)], width
        )
