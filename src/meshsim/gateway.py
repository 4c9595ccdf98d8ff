"""Gateway-side data pipeline: uplink JSON, time-series lines, coverage maps.

Mirrors the usual field deployment stack: the gateway republishes decoded
packets as JSON on an MQTT-style topic, a collector flattens them into
line-protocol records for a time-series store, and reception metadata is
exported for coverage mapping. All serializers are canonical (sorted keys,
fixed float precision) so equal inputs produce byte-equal output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable

from .engine import GatewayDelivery, ReceptionOutcome, SimReport
from .geo import geo_to_local
from .mesh import NodeRole, Port
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
        return json.dumps(
            {"body": self.body, "topic": self.topic},
            sort_keys=True,
            separators=(",", ":"),
        )


def _decode_payload(port: str, payload: bytes) -> dict[str, Any]:
    try:
        if port == Port.POSITION_APP.value:
            fix = decode_position(payload)
            return {
                "latitude_i": fix.latitude_i,
                "longitude_i": fix.longitude_i,
                "altitude_m": fix.altitude_m,
                "fix_time_s": fix.fix_time_s,
            }
        if port == Port.TELEMETRY_APP.value:
            sample = decode_irradiance(payload)
            out: dict[str, Any] = {
                "adc_raw": sample.adc_raw,
                "volts": round(sample.volts, 6),
                "irradiance_wm2": round(sample.irradiance_wm2, 6),
            }
            if sample.battery_soc is not None:
                out["battery_soc"] = sample.battery_soc
            return out
        if port == Port.TEXT_MESSAGE_APP.value:
            return {"text": payload.decode("utf-8")}
    except (CodecError, UnicodeDecodeError):
        pass
    return {"payload_raw": payload.hex()}


def uplink_from_delivery(
    delivery: GatewayDelivery,
    region: str = "US",
    epoch_s: int = 0,
    channel: str = "LongFast",
) -> UplinkMessage:
    """Build the JSON uplink for a packet the gateway delivered upstream.

    RSSI is reported as an integer dBm and SNR on the quarter-dB grid the
    radio itself reports, so the uplink only claims the precision the
    hardware would.
    """
    packet = delivery.packet
    body = {
        "channel": packet.channel,
        "from": packet.origin,
        "hop_limit": packet.hop_limit,
        "id": packet.packet_id,
        "payload": _decode_payload(packet.port.value, packet.payload),
        "port": packet.port.value,
        "rssi": int(round_half_away_from_zero(delivery.rx.rssi_dbm)),
        "snr": snr_raw_decode(snr_raw_encode(delivery.rx.snr_db)),
        "timestamp": epoch_s + int(delivery.time_s),
    }
    topic = f"msh/{region}/2/json/{channel}/{delivery.gateway_id}"
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
        for key, value in list(self.fields.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"field {key!r} must be int or float")
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise ValueError(f"field {key!r} must be finite")
                self.fields[key] = round(value, 6)


def uplink_to_series(uplink: UplinkMessage) -> list[SeriesRecord]:
    """Flatten an uplink into time-series points.

    Every uplink yields a link-quality record; position and irradiance
    payloads add one domain record each, so those ports yield exactly two.
    """
    body = uplink.body
    time_ns = body["timestamp"] * NS_PER_S
    node = body["from"]
    payload = body["payload"]
    records = []
    if body["port"] == Port.TELEMETRY_APP.value and "irradiance_wm2" in payload:
        records.append(
            SeriesRecord(
                measurement="irradiance",
                tags={"node": node},
                fields={"value": float(payload["irradiance_wm2"])},
                time_ns=time_ns,
            )
        )
    elif body["port"] == Port.POSITION_APP.value and "latitude_i" in payload:
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


def _escape(text: str, *, chars: str) -> str:
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
        head = _escape(rec.measurement, chars=", ")
        for key in sorted(rec.tags):
            head += (
                ","
                + _escape(key, chars=",= ")
                + "="
                + _escape(rec.tags[key], chars=",= ")
            )
        fields = ",".join(
            _escape(key, chars=",= ") + "=" + _format_field_value(rec.fields[key])
            for key in sorted(rec.fields)
        )
        lines.append(f"{head} {fields} {rec.time_ns}")
    return "\n".join(lines)


def _gateway_rows(report: SimReport, scenario: Scenario) -> list[dict[str, Any]]:
    gateways = {
        spec.id: spec.position
        for spec in scenario.nodes
        if spec.role is NodeRole.GATEWAY
    }
    rows = []
    for rec in report.receptions:
        if rec.outcome is not ReceptionOutcome.DECODED:
            continue
        origin = gateways.get(rec.receiver)
        if origin is None:
            continue
        x_m, y_m = geo_to_local(rec.tx_position, origin)
        rows.append(
            {
                "time_s": rec.time_s,
                "node": rec.transmitter,
                "x_m": x_m,
                "y_m": y_m,
                "distance_m": rec.distance_m,
                "rssi_dbm": rec.rssi_dbm,
                "snr_db": rec.snr_db,
                "bucket": classify_rssi(rec.rssi_dbm),
                "port": rec.port,
                "position": rec.tx_position,
            }
        )
    rows.sort(key=lambda r: (r["time_s"], r["node"]))
    return rows


def reception_map_csv(report: SimReport, scenario: Scenario) -> str:
    """Coverage map of frames decoded at gateways, x/y in gateway-local
    meters. Header-only when nothing was received.
    """
    lines = [_MAP_COLUMNS]
    for row in _gateway_rows(report, scenario):
        lines.append(
            f"{row['time_s']:.6f},{row['node']},{row['x_m']:.3f},{row['y_m']:.3f},"
            f"{row['distance_m']:.3f},{row['rssi_dbm']:.3f},{row['snr_db']:.3f},"
            f"{row['bucket']},{row['port']}"
        )
    return "\n".join(lines) + "\n"


def reception_map_kml(report: SimReport, scenario: Scenario) -> str:
    """Same coverage rows as the CSV, as a KML layer colored by bucket."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<kml xmlns="http://www.opengis.net/kml/2.2">',
        "<Document>",
        f"<name>{scenario.name} coverage</name>",
    ]
    for bucket, color in _KML_COLORS.items():
        out.append(
            f'<Style id="{bucket}"><IconStyle><color>{color}</color>'
            "</IconStyle></Style>"
        )
    for row in _gateway_rows(report, scenario):
        pos = row["position"]
        out.append(
            "<Placemark>"
            f"<name>{row['node']} t={row['time_s']:.1f}s</name>"
            f"<description>rssi={row['rssi_dbm']:.1f} dBm "
            f"snr={row['snr_db']:.2f} dB port={row['port']}</description>"
            f"<styleUrl>#{row['bucket']}</styleUrl>"
            f"<Point><coordinates>{pos.longitude:.7f},{pos.latitude:.7f},"
            f"{pos.altitude_m:.1f}</coordinates></Point>"
            "</Placemark>"
        )
    out.append("</Document>")
    out.append("</kml>")
    return "\n".join(out) + "\n"
