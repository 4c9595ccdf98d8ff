"""What a run produced, and report.json's writer.

The engine fills one SimReport per run: the summary's figures, folded
in as each candidate is judged, and the lists that only some outputs
read. summary_dict() is summary.json's document. report.json's rows
are held in one ReceptionLog: a header per frame and, per candidate,
only its RSSI, its outcome and its distance, so the engine builds a
ReceptionRecord only for a map row. write_json streams report.json: the
summary through json.dumps, then each reception row straight from the
log through one template, so no row dict, no record and no whole
document is built. That template is the only description of a row;
to_dict() parses the written bytes back.
"""

from __future__ import annotations

import functools
import io
import json
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple, TextIO

from .geo import LatLonAlt
from .mesh import MeshPacket, RxMetadata

__all__ = [
    "GatewayDelivery",
    "LinkSums",
    "ReceptionFrame",
    "ReceptionLog",
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


# An outcome's byte in a ReceptionLog is its place in this tuple.
_OUTCOMES = tuple(ReceptionOutcome)
_OUTCOME_JSON = tuple(encode_basestring_ascii(o.value) for o in _OUTCOMES)


class ReceptionFrame(NamedTuple):
    """What every candidate of one frame shares; receivers is the sender's row."""

    end_s: float
    transmitter: str
    origin: str
    packet_id: int
    port: str
    hop_limit: int
    tx_position: LatLonAlt
    receivers: tuple[str, ...]


class ReceptionLog(Sequence[ReceptionRecord]):
    """Every candidate of a run in judge order, read as ReceptionRecords.

    One ReceptionFrame per frame, then one candidate per receiver of
    that frame, held in three columns: rssi_dbm (C doubles), outcomes
    (one byte each, the outcome's place in ReceptionOutcome) and
    distance_m (the Link's own object, so a distance pinned as 2470
    still prints as 2470). A frame's candidates follow those of the
    frames before it. A candidate's SNR is its RSSI minus the receiving
    node's noise floor, the engine's own subtraction. add_frame is the
    only writer; the view is read-only, and iterating builds records.
    """

    __slots__ = ("noise_floor_dbm", "frames", "rssi_dbm", "outcomes", "distance_m")

    def __init__(self, noise_floor_dbm: Mapping[str, float] | None = None):
        self.noise_floor_dbm = noise_floor_dbm or {}
        self.frames: list[ReceptionFrame] = []
        self.rssi_dbm = array("d")
        self.outcomes = bytearray()
        self.distance_m: list[float] = []

    def add_frame(
        self,
        frame: ReceptionFrame,
        rssi_dbm: Iterable[float],
        outcomes: Iterable[ReceptionOutcome],
        distance_m: Iterable[float],
    ) -> None:
        """Log one frame and its candidates, one value per receiver in each."""
        self.frames.append(frame)
        self.rssi_dbm.extend(rssi_dbm)
        # tuple.index finds a member by identity first, without Enum's hash.
        self.outcomes.extend(map(_OUTCOMES.index, outcomes))
        self.distance_m.extend(distance_m)

    def by_frame(self) -> Iterator[tuple[ReceptionFrame, Iterator[tuple]]]:
        """Each frame with its candidates, in judge order.

        A candidate is (receiver, rssi, snr, distance, outcome byte).
        """
        noise, start = self.noise_floor_dbm, 0
        for frame in self.frames:
            end = start + len(frame.receivers)
            powers = self.rssi_dbm[start:end]
            yield frame, zip(
                frame.receivers,
                powers,
                [p - noise[rx] for rx, p in zip(frame.receivers, powers)],
                self.distance_m[start:end],
                self.outcomes[start:end],
            )
            start = end

    def __len__(self) -> int:
        return len(self.rssi_dbm)

    def __iter__(self) -> Iterator[ReceptionRecord]:
        for frame, candidates in self.by_frame():
            for candidate in candidates:
                yield _record(frame, *candidate)

    def __getitem__(self, i: int | slice) -> ReceptionRecord | list[ReceptionRecord]:
        return list(self)[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, ReceptionLog)):
            return NotImplemented
        return list(self) == list(other)


def _record(
    frame: ReceptionFrame, rx: str, rssi: float, snr: float, distance: float, outcome: int
) -> ReceptionRecord:
    return ReceptionRecord(
        frame.end_s, frame.transmitter, rx, frame.origin, frame.packet_id, frame.port,
        frame.hop_limit, rssi, snr, distance, _OUTCOMES[outcome], frame.tx_position,
    )


# One frame's reception rows as json.dumps(indent=2, sort_keys=True) prints
# them inside the "receptions" list: times, powers and distances rounded to 6
# places, latitude and longitude to 7, altitude to 3. A number field may hold
# an int (an altitude or a distance given as 100): repr(round(v, k)) prints
# both as json does. Strings are escaped as json's default ensure_ascii does.
# The lines every row of the frame shares are formatted once.
def _frame_rows(
    frame: ReceptionFrame,
    candidates: Iterator[tuple],
    quote: Callable[[str], str],
) -> Iterator[str]:
    p = frame.tx_position
    hop_origin = (
        f'      "hop_limit": {frame.hop_limit!r},\n'
        f'      "origin": {quote(frame.origin)},\n'
    )
    packet_port = (
        f'      "packet_id": {frame.packet_id!r},\n'
        f'      "port": {quote(frame.port)},\n'
    )
    time_tx_position = (
        f'      "time_s": {round(frame.end_s, 6)!r},\n'
        f'      "transmitter": {quote(frame.transmitter)},\n'
        f'      "tx_altitude_m": {round(p.altitude_m, 3)!r},\n'
        f'      "tx_latitude": {round(p.latitude, 7)!r},\n'
        f'      "tx_longitude": {round(p.longitude, 7)!r}\n'
        "    }"
    )
    for rx, rssi, snr, distance, outcome in candidates:
        yield (
            "    {\n"
            f'      "distance_m": {round(distance, 6)!r},\n'
            f"{hop_origin}"
            f'      "outcome": {_OUTCOME_JSON[outcome]},\n'
            f"{packet_port}"
            f'      "receiver": {quote(rx)},\n'
            f'      "rssi_dbm": {round(rssi, 6)!r},\n'
            f'      "snr_db": {round(snr, 6)!r},\n'
            f"{time_tx_position}"
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
    memory does not grow with its length: receptions logs every
    candidate when "report" is an output; gateway_receptions the
    candidates a GATEWAY decoded, in judge order, when "map_csv" or
    "map_kml" is; gateway_deliveries each packet a gateway uplinked when
    "uplinks" or "series" is.
    """

    scenario_name: str
    seed: int
    duration_s: float
    receptions: ReceptionLog = field(default_factory=ReceptionLog)
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
        rows are streamed from the reception log, one at a time.
        """
        # Only a top-level key sits on a line indented by two spaces.
        head, _, tail = json.dumps(
            {**summary, "receptions": None}, indent=2, sort_keys=True
        ).partition('\n  "receptions": null')
        handle.write(head + '\n  "receptions": [')
        quote = functools.cache(encode_basestring_ascii)  # few distinct strings
        sep = "\n"
        for frame, candidates in self.receptions.by_frame():
            for row in _frame_rows(frame, candidates, quote):
                handle.write(sep + row)
                sep = ",\n"
        handle.write(("\n  ]" if self.receptions else "]") + tail + "\n")
