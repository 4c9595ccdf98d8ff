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
ever held whole. One JSON encoder serves every uplink. The series points
come in three shapes (irradiance, position, link), and each is one
f-string template; only the ids in it are escaped.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, TextIO

from .geo import geo_to_local
from .mesh import NodeRole, Port
from .report import GatewayReception, SimReport
from .scenarios import NS_PER_S, Scenario
from .telemetry import CodecError, decode_irradiance, decode_position
from .phy import round_half_away_from_zero, snr_raw_decode, snr_raw_encode

__all__ = [
    "RSSI_GREEN_THRESHOLD_DBM",
    "RSSI_RED_THRESHOLD_DBM",
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

# Enum .value is a property; _decode_payload compares ports per delivery.
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


def _escape(text: str) -> str:
    """Escape an id for a line-protocol tag value: backslash, comma, equals
    sign and space.
    """
    return (
        text.replace("\\", "\\\\")
        .replace(",", "\\,")
        .replace("=", "\\=")
        .replace(" ", "\\ ")
    )


def _field(value: float) -> str:
    """A float field value: 6 decimals, trailing zeros and a bare point
    stripped.
    """
    return f"{value:.6f}".rstrip("0").rstrip(".")


def uplink_to_series(uplink: UplinkMessage) -> list[str]:
    """Flatten an uplink into its line-protocol points, one string each.

    Every uplink yields a link point; an irradiance or position payload
    adds one point before it. Each measurement is one template with its
    tags and fields in sorted order; integers carry the 'i' suffix, and
    only the node and gateway ids are escaped, since the rest is fixed.
    """
    body = uplink.body
    payload = body["payload"]
    node = _escape(body["from"])
    time_ns = body["timestamp"] * NS_PER_S
    lines = []
    if "irradiance_wm2" in payload:
        lines.append(
            f"irradiance,node={node} value={_field(payload['irradiance_wm2'])} {time_ns}"
        )
    elif "latitude_i" in payload:
        lines.append(
            f"position,node={node} altitude_m={payload['altitude_m']}i,"
            f"latitude={_field(payload['latitude_i'] / 1e7)},"
            f"longitude={_field(payload['longitude_i'] / 1e7)} {time_ns}"
        )
    lines.append(
        f"link,gateway={_escape(uplink.gateway_id)},node={node} "
        f"rssi_dbm={_field(body['rssi'])},snr_db={_field(body['snr'])} {time_ns}"
    )
    return lines


def serialize_line_protocol(lines: list[str]) -> str:
    """Join points into line protocol, one per line, no trailing newline.

    A plain join that stays a function of its own: bench/child.py wraps it
    and uplink_to_series by name as the gateway.series layer, and counts
    the points in uplink_to_series' list.
    """
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
