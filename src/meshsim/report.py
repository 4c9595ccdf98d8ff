"""What a run produced, and report.json's writer.

The engine fills one SimReport per run: the summary's figures, folded
in as each candidate is judged, and the lists that only some outputs
read. summary_dict() is summary.json's document. report.json's rows
are held in one ReceptionLog: a header per frame and, per candidate,
only its RSSI, its outcome and its distance; reading it builds
ReceptionRecords. write_json streams report.json: the summary through
json.dumps, then each reception row straight from the log through one
template, so no row dict, no record and no whole document is built.
That template is the only description of a row; to_dict() parses the
written bytes back.
"""

from __future__ import annotations

import io
import json
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple, TextIO

from .geo import LatLonAlt
from .mesh import MeshPacket, RxMetadata

__all__ = [
    "GatewayReception",
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


class ReceptionLog:
    """Every candidate of a run in judge order.

    One ReceptionFrame per frame, then one candidate per receiver of
    that frame, held in three columns: rssi_dbm (C doubles), outcomes
    (one byte each, the outcome's place in ReceptionOutcome) and
    distance_m (the Link's own object, so a distance pinned as 2470
    still prints as 2470). A candidate's SNR is its RSSI minus the
    receiving node's noise floor, the engine's own subtraction.
    add_frame is the only writer. Iterating builds ReceptionRecords on
    demand; the log has a length but no indexing.
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


def _record(
    frame: ReceptionFrame, rx: str, rssi: float, snr: float, distance: float, outcome: int
) -> ReceptionRecord:
    return ReceptionRecord(
        frame.end_s, frame.transmitter, rx, frame.origin, frame.packet_id, frame.port,
        frame.hop_limit, rssi, snr, distance, _OUTCOMES[outcome], frame.tx_position,
    )


def _number(value: float, places: int, fixed: str) -> str:
    """repr(round(value, places)); fixed is "%.<places>f".

    For a float with 1e-4 <= |value| < 1e8, fixed % value runs round()'s own
    correctly rounded conversion, and its at most 15 significant digits are
    already the shortest repr. Ints, zero, tiny, huge and non-finite values
    go through round and repr.
    """
    if type(value) is float and 1e-4 <= abs(value) < 1e8:
        text = (fixed % value).rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(value, places))


# One frame's reception rows as json.dumps(indent=2, sort_keys=True) prints
# them inside the "receptions" list: times, powers and distances rounded to 6
# places, latitude and longitude to 7, altitude to 3. A number field may hold
# an int (an altitude or a distance given as 100); _number prints each number
# as json prints repr(round(v, k)). Strings are escaped as json's default
# ensure_ascii does. The lines every row of the frame shares are formatted once.
def _frame_rows(frame: ReceptionFrame, candidates: Iterator[tuple]) -> Iterator[str]:
    p = frame.tx_position
    hop_origin = (
        f'      "hop_limit": {frame.hop_limit!r},\n'
        f'      "origin": {encode_basestring_ascii(frame.origin)},\n'
    )
    packet_port = (
        f'      "packet_id": {frame.packet_id!r},\n'
        f'      "port": {encode_basestring_ascii(frame.port)},\n'
    )
    time_tx_position = (
        f'      "time_s": {_number(frame.end_s, 6, "%.6f")},\n'
        f'      "transmitter": {encode_basestring_ascii(frame.transmitter)},\n'
        f'      "tx_altitude_m": {_number(p.altitude_m, 3, "%.3f")},\n'
        f'      "tx_latitude": {_number(p.latitude, 7, "%.7f")},\n'
        f'      "tx_longitude": {_number(p.longitude, 7, "%.7f")}\n'
        "    }"
    )
    for rx, rssi, snr, distance, outcome in candidates:
        yield (
            "    {\n"
            f'      "distance_m": {_number(distance, 6, "%.6f")},\n'
            f"{hop_origin}"
            f'      "outcome": {_OUTCOME_JSON[outcome]},\n'
            f"{packet_port}"
            f'      "receiver": {encode_basestring_ascii(rx)},\n'
            f'      "rssi_dbm": {_number(rssi, 6, "%.6f")},\n'
            f'      "snr_db": {_number(snr, 6, "%.6f")},\n'
            f"{time_tx_position}"
        )


class GatewayReception(NamedTuple):
    """A frame a gateway decoded, at rx.time_s; uplinked if its router passed it upstream."""

    gateway_id: str
    packet: MeshPacket
    rx: RxMetadata
    transmitter: str
    distance_m: float
    tx_position: LatLonAlt
    uplinked: bool


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
    candidate when "report" is an output; gateway_receptions holds every
    frame a GATEWAY decoded, in judge order, when any gateway output
    (the maps, uplinks or series) is. The maps write every row, the
    uplinks and series only the uplinked ones.
    """

    scenario_name: str
    seed: int
    duration_s: float
    receptions: ReceptionLog = field(default_factory=ReceptionLog)
    gateway_receptions: list[GatewayReception] = field(default_factory=list)
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
        sep = "\n"
        for frame, candidates in self.receptions.by_frame():
            for row in _frame_rows(frame, candidates):
                handle.write(sep + row)
                sep = ",\n"
        handle.write(("\n  ]" if self.receptions else "]") + tail + "\n")
