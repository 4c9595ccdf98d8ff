"""Gateway-side data pipeline: uplink JSON, time-series lines, coverage maps.

Mirrors the usual field deployment stack: the gateway republishes decoded
packets as JSON on an MQTT-style topic, a collector flattens them into
line-protocol records for a time-series store, and reception metadata is
exported for coverage mapping. All serializers are canonical (sorted keys,
fixed float precision) so equal inputs produce byte-equal output.

The uplink and series writers work one delivery at a time: a caller turns
each delivery into one UplinkMessage, then into its JSON line and its
line-protocol points, and writes them before taking the next, so nothing
is held across deliveries. The map writers stream too: each writes its
rows into the handle it is given, one row per write, so neither map is
ever held whole. The fixed work is done once: one JSON encoder serves
every uplink, and line-protocol names, which repeat a few ids, are
escaped once and cached.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, TextIO

from .geo import geo_to_local
from .mesh import NodeRole, Port
from .report import GatewayReception, SimReport
from .scenarios import NS_PER_S, Scenario
from .telemetry import CodecError, decode_irradiance, decode_position
from .phy import round_half_away_from_zero, snr_raw_decode, snr_raw_encode

__all__ = [
    "RSSI_GREEN_THRESHOLD_DBM",
    "RSSI_RED_THRESHOLD_DBM",
    "SeriesRecord",
    "UplinkMessage",
    "classify_rssi",
    "reception_map_csv",
    "reception_map_kml",
    "serialize_line_protocol",
    "uplink_from_delivery",
    "uplink_to_series",
]

# Signal-quality buckets used for map coloring. Both thresholds inclusive
# into the middle bucket.
RSSI_GREEN_THRESHOLD_DBM = -90.0
RSSI_RED_THRESHOLD_DBM = -110.0

_MAP_COLUMNS = "time_s,node,x_m,y_m,distance_m,rssi_dbm,snr_db,bucket,port"

# Enum .value is a property; the series path compares ports per delivery.
_POSITION_APP = Port.POSITION_APP.value
_TELEMETRY_APP = Port.TELEMETRY_APP.value
_TEXT_MESSAGE_APP = Port.TEXT_MESSAGE_APP.value

# What json.dumps(..., sort_keys=True, separators=(",", ":")) would build per call.
_UPLINK_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# KML colors are aabbggrr.
_KML_COLORS = {"GREEN": "ff00ff00", "ORANGE": "ff00a5ff", "RED": "ff0000ff"}


def classify_rssi(rssi_dbm: float) -> str:
    if rssi_dbm > RSSI_GREEN_THRESHOLD_DBM:
        return "GREEN"
    if rssi_dbm < RSSI_RED_THRESHOLD_DBM:
        return "RED"
    return "ORANGE"


@dataclass(frozen=True)
class UplinkMessage:
    """One decoded packet as republished by a gateway."""

    gateway_id: str
    topic: str
    body: dict[str, Any]

    def to_json(self) -> str:
        # One replayable publish: topic plus payload, canonical key order.
        return _UPLINK_ENCODER.encode({"body": self.body, "topic": self.topic})


def _decode_payload(port: str, payload: bytes) -> dict[str, Any]:
    try:
        if port == _POSITION_APP:
            fix = decode_position(payload)
            return {
                "latitude_i": fix.latitude_i,
                "longitude_i": fix.longitude_i,
                "altitude_m": fix.altitude_m,
                "fix_time_s": fix.fix_time_s,
            }
        if port == _TELEMETRY_APP:
            sample = decode_irradiance(payload)
            out: dict[str, Any] = {
                "adc_raw": sample.adc_raw,
                "volts": round(sample.volts, 6),
                "irradiance_wm2": round(sample.irradiance_wm2, 6),
            }
            if sample.battery_soc is not None:
                out["battery_soc"] = sample.battery_soc
            return out
        if port == _TEXT_MESSAGE_APP:
            return {"text": payload.decode("utf-8")}
    except (CodecError, UnicodeDecodeError):
        pass
    return {"payload_raw": payload.hex()}


def uplink_from_delivery(
    delivery: GatewayReception,
    region: str = "US",
    epoch_s: int = 0,
) -> UplinkMessage:
    """Build the JSON uplink for a packet the gateway uplinked.

    RSSI is reported as an integer dBm and SNR on the quarter-dB grid the
    radio itself reports, so the uplink only claims the precision the
    hardware would.
    """
    packet = delivery.packet
    port = packet.port.value
    body = {
        "channel": packet.channel,
        "from": packet.origin,
        "hop_limit": packet.hop_limit,
        "id": packet.packet_id,
        "payload": _decode_payload(port, packet.payload),
        "port": port,
        "rssi": int(round_half_away_from_zero(delivery.rx.rssi_dbm)),
        "snr": snr_raw_decode(snr_raw_encode(delivery.rx.snr_db)),
        "timestamp": epoch_s + int(delivery.rx.time_s),
    }
    topic = f"msh/{region}/2/json/LongFast/{delivery.gateway_id}"
    return UplinkMessage(gateway_id=delivery.gateway_id, topic=topic, body=body)


@dataclass(frozen=True)
class SeriesRecord:
    """One line-protocol point; floats are pinned to 6 decimals on entry."""

    measurement: str
    tags: dict[str, str]
    fields: dict[str, Any]
    time_ns: int

    def __post_init__(self):
        if not self.measurement:
            raise ValueError("measurement must be non-empty")
        if not self.fields:
            raise ValueError("at least one field is required")
        fields = self.fields
        for key, value in fields.items():
            kind = type(value)  # the exact types first; subclasses take the long way
            if kind is int:
                continue
            if kind is not float and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(f"field {key!r} must be int or float")
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise ValueError(f"field {key!r} must be finite")
                fields[key] = round(value, 6)


def uplink_to_series(uplink: UplinkMessage) -> list[SeriesRecord]:
    """Flatten an uplink into time-series points.

    Every uplink yields a link-quality record; position and irradiance
    payloads add one domain record each, so those ports yield exactly two.
    """
    body = uplink.body
    time_ns = body["timestamp"] * NS_PER_S
    node = body["from"]
    payload = body["payload"]
    port = body["port"]
    records = []
    if port == _TELEMETRY_APP and "irradiance_wm2" in payload:
        records.append(
            SeriesRecord(
                measurement="irradiance",
                tags={"node": node},
                fields={"value": float(payload["irradiance_wm2"])},
                time_ns=time_ns,
            )
        )
    elif port == _POSITION_APP and "latitude_i" in payload:
        records.append(
            SeriesRecord(
                measurement="position",
                tags={"node": node},
                fields={
                    "latitude": payload["latitude_i"] / 1e7,
                    "longitude": payload["longitude_i"] / 1e7,
                    "altitude_m": int(payload["altitude_m"]),
                },
                time_ns=time_ns,
            )
        )
    records.append(
        SeriesRecord(
            measurement="link",
            tags={"gateway": uplink.gateway_id, "node": node},
            fields={"rssi_dbm": float(body["rssi"]), "snr_db": float(body["snr"])},
            time_ns=time_ns,
        )
    )
    return records


# A run names a handful of measurements, tags and ids, over and over.
@functools.lru_cache(maxsize=4096)
def _escape(text: str, chars: str) -> str:
    out = text.replace("\\", "\\\\")
    for ch in chars:
        out = out.replace(ch, "\\" + ch)
    return out


def _format_field_value(value: Any) -> str:
    if isinstance(value, int):
        return f"{value}i"
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-") else "0"


def serialize_line_protocol(records: Iterable[SeriesRecord]) -> str:
    """Render records as line protocol, one point per line, no trailing
    newline. Tags and fields are emitted in sorted key order; integers get
    the 'i' suffix, floats print with trailing zeros stripped.
    """
    lines = []
    for rec in records:
        tags, fields = rec.tags, rec.fields
        head = _escape(rec.measurement, ", ")
        for key in sorted(tags):
            head += f",{_escape(key, ',= ')}={_escape(tags[key], ',= ')}"
        values = ",".join(
            f"{_escape(key, ',= ')}={_format_field_value(fields[key])}"
            for key in sorted(fields)
        )
        lines.append(f"{head} {values} {rec.time_ns}")
    return "\n".join(lines)


@functools.lru_cache(maxsize=1024)
def _csv_field(text: str) -> str:
    """Quote a field only when it needs it, as csv.QUOTE_MINIMAL does."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def reception_map_csv(report: SimReport, scenario: Scenario, handle: TextIO) -> None:
    """Write the coverage map of frames decoded at gateways to handle, x/y
    in gateway-local meters, one row per write, in judge order. Header
    only when nothing was received.
    """
    gateways = {
        spec.id: spec.position
        for spec in scenario.nodes
        if spec.role is NodeRole.GATEWAY
    }
    write = handle.write
    write(_MAP_COLUMNS + "\n")
    for rec in report.gateway_receptions:
        x_m, y_m = geo_to_local(rec.tx_position, gateways[rec.gateway_id])
        time_s, rssi, snr = rec.rx
        write(
            f"{time_s:.6f},{_csv_field(rec.transmitter)},{x_m:.3f},{y_m:.3f},"
            f"{rec.distance_m:.3f},{rssi:.3f},{snr:.3f},"
            f"{classify_rssi(rssi)},{rec.packet.port.value}\n"
        )


def _xml_text(text: str) -> str:
    """Escape character data as xml.sax.saxutils.escape does, without its
    import, which pulls in urllib and several MB of modules.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def reception_map_kml(report: SimReport, scenario: Scenario, handle: TextIO) -> None:
    """Write the same coverage rows as the CSV to handle, as a KML layer
    colored by bucket, one placemark per write.
    """
    write = handle.write
    write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<kml xmlns="http://www.opengis.net/kml/2.2">\n'
        "<Document>\n"
        f"<name>{_xml_text(scenario.name)} coverage</name>\n"
    )
    for bucket, color in _KML_COLORS.items():
        write(
            f'<Style id="{bucket}"><IconStyle><color>{color}</color>'
            "</IconStyle></Style>\n"
        )
    for rec in report.gateway_receptions:
        pos, rx = rec.tx_position, rec.rx
        write(
            "<Placemark>"
            f"<name>{_xml_text(rec.transmitter)} t={rx.time_s:.1f}s</name>"
            f"<description>rssi={rx.rssi_dbm:.1f} dBm "
            f"snr={rx.snr_db:.2f} dB port={rec.packet.port.value}</description>"
            f"<styleUrl>#{classify_rssi(rx.rssi_dbm)}</styleUrl>"
            f"<Point><coordinates>{pos.longitude:.7f},{pos.latitude:.7f},"
            f"{pos.altitude_m:.1f}</coordinates></Point>"
            "</Placemark>\n"
        )
    write("</Document>\n</kml>\n")
