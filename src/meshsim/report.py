"""What a run produced, and report.json's writer.

The engine fills one SimReport per run: the summary's figures, folded
in as each candidate is judged, and the lists that only some outputs
read. summary_dict() is summary.json's document. write_json streams
report.json: the summary through json.dumps, then each reception row
from one template, so no row dict and no whole document is built. That
template is the only description of a row; to_dict() parses the
written bytes back.
"""

from __future__ import annotations

import functools
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, TextIO

from .geo import LatLonAlt
from .mesh import MeshPacket, RxMetadata

__all__ = [
    "GatewayDelivery",
    "LinkSums",
    "ReceptionOutcome",
    "ReceptionRecord",
    "SimReport",
]


class ReceptionOutcome(Enum):
    DECODED = "DECODED"
    BELOW_SENSITIVITY = "BELOW_SENSITIVITY"
    COLLIDED = "COLLIDED"
    TX_BUSY = "TX_BUSY"


@dataclass(slots=True)
class ReceptionRecord:
    """One transmitter-receiver candidate for one frame."""

    time_s: float
    transmitter: str
    receiver: str
    origin: str
    packet_id: int
    port: str
    hop_limit: int
    rssi_dbm: float
    snr_db: float
    distance_m: float
    outcome: ReceptionOutcome
    tx_position: LatLonAlt


# One reception row as json.dumps(indent=2, sort_keys=True) prints it inside
# the "receptions" list: times, powers and distances rounded to 6 places,
# latitude and longitude to 7, altitude to 3. A float field may hold an int
# (an altitude given as 100): repr(round(v, k)) prints both as json does.
# Strings are escaped as json's default ensure_ascii does.
def _row_json(r: ReceptionRecord, quote: Callable[[str], str], position: str) -> str:
    return (
        "    {\n"
        f'      "distance_m": {round(r.distance_m, 6)!r},\n'
        f'      "hop_limit": {r.hop_limit!r},\n'
        f'      "origin": {quote(r.origin)},\n'
        f'      "outcome": {quote(r.outcome.value)},\n'
        f'      "packet_id": {r.packet_id!r},\n'
        f'      "port": {quote(r.port)},\n'
        f'      "receiver": {quote(r.receiver)},\n'
        f'      "rssi_dbm": {round(r.rssi_dbm, 6)!r},\n'
        f'      "snr_db": {round(r.snr_db, 6)!r},\n'
        f'      "time_s": {round(r.time_s, 6)!r},\n'
        f'      "transmitter": {quote(r.transmitter)},\n'
        f"{position}"
    )


def _position_json(p: LatLonAlt) -> str:
    """The last three lines of a row, which depend on tx_position alone."""
    return (
        f'      "tx_altitude_m": {round(p.altitude_m, 3)!r},\n'
        f'      "tx_latitude": {round(p.latitude, 7)!r},\n'
        f'      "tx_longitude": {round(p.longitude, 7)!r}\n'
        "    }"
    )


class GatewayDelivery(NamedTuple):
    """A packet that reached a gateway's application layer, at rx.time_s."""

    gateway_id: str
    packet: MeshPacket
    rx: RxMetadata


@dataclass(slots=True)
class LinkSums:
    """Decoded frames on one directed link, their RSSI and SNR added in judge order.

    The sums start at 0.0 and add left to right, as phy.serial_sum does.
    """

    frames: int = 0
    rssi_dbm: float = 0.0
    snr_db: float = 0.0


@dataclass
class SimReport:
    """What a run produced.

    The engine folds the summary's figures in as it judges each
    candidate: the outcome counts, link_sums, delivered_to_gateway and
    the hop histogram. The lists are filled only for the outputs that
    read them, so a run without those outputs keeps them empty and its
    memory does not grow with its length: receptions holds every
    candidate when "report" is an output; gateway_receptions the
    candidates a GATEWAY decoded, in judge order, when "map_csv" or
    "map_kml" is; gateway_deliveries each packet a gateway uplinked when
    "uplinks" or "series" is.
    """

    scenario_name: str
    seed: int
    duration_s: float
    receptions: list[ReceptionRecord] = field(default_factory=list)
    gateway_receptions: list[ReceptionRecord] = field(default_factory=list)
    transmissions: int = 0
    decoded: int = 0
    collided: int = 0
    below_sensitivity: int = 0
    tx_busy: int = 0
    link_sums: dict[str, LinkSums] = field(default_factory=dict)
    duplicates_suppressed: int = 0
    originated: Counter = field(default_factory=Counter)
    delivered_to_gateway: Counter = field(default_factory=Counter)
    app_deliveries: Counter = field(default_factory=Counter)
    hop_count_histogram: Counter = field(default_factory=Counter)
    airtime_busy_fraction: dict[str, float] = field(default_factory=dict)
    gateway_deliveries: list[GatewayDelivery] = field(default_factory=list)
    trace: list[str] | None = None

    def link_stats(self) -> dict[str, dict[str, float]]:
        """Mean decoded RSSI/SNR per directed transmitter->receiver pair."""
        return {
            key: {
                "frames": s.frames,
                "mean_rssi_dbm": round(s.rssi_dbm / s.frames, 6),
                "mean_snr_db": round(s.snr_db / s.frames, 6),
            }
            for key, s in sorted(self.link_sums.items())
        }

    def pdr(self) -> dict[str, float]:
        return {
            origin: round(self.delivered_to_gateway.get(origin, 0) / count, 6)
            for origin, count in sorted(self.originated.items())
            if count > 0
        }

    def summary_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "counts": {
                "transmissions": self.transmissions,
                "decoded": self.decoded,
                "collided": self.collided,
                "below_sensitivity": self.below_sensitivity,
                # Always 0: sensitivity is already the noise floor plus the SNR floor.
                "below_snr_floor": 0,
                "tx_busy": self.tx_busy,
                "duplicates_suppressed": self.duplicates_suppressed,
            },
            "originated": dict(sorted(self.originated.items())),
            "delivered_to_gateway": dict(sorted(self.delivered_to_gateway.items())),
            "pdr": self.pdr(),
            "app_deliveries": dict(sorted(self.app_deliveries.items())),
            "hop_count_histogram": {
                str(k): v for k, v in sorted(self.hop_count_histogram.items())
            },
            "airtime_busy_fraction": {
                node: round(fraction, 9)
                for node, fraction in sorted(self.airtime_busy_fraction.items())
            },
            "links": self.link_stats(),
        }

    def to_dict(self) -> dict[str, Any]:
        """report.json's document: the summary plus one dict per reception."""
        handle = io.StringIO()
        self.write_json(handle, self.summary_dict())
        return json.loads(handle.getvalue())

    def write_json(self, handle: TextIO, summary: dict[str, Any]) -> None:
        """Write report.json: summary plus the receptions, indent 2, keys sorted.

        summary is self.summary_dict(); it goes through json.dumps. The
        rows are streamed from the row template, one at a time.
        """
        # Only a top-level key sits on a line indented by two spaces.
        head, _, tail = json.dumps(
            {**summary, "receptions": None}, indent=2, sort_keys=True
        ).partition('\n  "receptions": null')
        handle.write(head + '\n  "receptions": [')
        quote = functools.cache(encode_basestring_ascii)  # few distinct strings
        # By identity: equal positions such as 0.0 and -0.0, or 100 and
        # 100.0, print differently. The records keep every key alive.
        positions: dict[int, str] = {}
        sep = "\n"
        for r in self.receptions:
            p = r.tx_position
            position = positions.get(id(p))
            if position is None:
                position = positions[id(p)] = _position_json(p)
            handle.write(sep + _row_json(r, quote, position))
            sep = ",\n"
        handle.write(("\n  ]" if self.receptions else "]") + tail + "\n")
