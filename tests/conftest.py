"""Shared test helpers: independent reference implementations.

These deliberately avoid the package's own serializers and routing code,
so agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

from collections import deque


def parse_line_protocol(text: str) -> list[dict]:
    """Reference parser for the line protocol subset the gateway emits.

    Returns one dict per line: measurement, tags (str->str), fields
    (str -> int|float), time_ns. Unsuffixed numbers are floats, an 'i'
    suffix marks integers, backslash escapes cover space/comma/equals.
    """
    points = []
    for line in text.splitlines():
        if not line:
            continue
        head, fields_part, ts = _split_top(line)
        name, *tag_parts = _split_unescaped(head, ",")
        tags = {}
        for part in tag_parts:
            key, value = _split_unescaped(part, "=")
            tags[_unescape(key)] = _unescape(value)
        fields = {}
        for part in _split_unescaped(fields_part, ","):
            key, value = _split_unescaped(part, "=")
            if value.endswith("i"):
                fields[_unescape(key)] = int(value[:-1])
            else:
                fields[_unescape(key)] = float(value)
        points.append(
            {
                "measurement": _unescape(name),
                "tags": tags,
                "fields": fields,
                "time_ns": int(ts),
            }
        )
    return points


def expected_series(gateway_id: str, body: dict) -> list[dict]:
    """The points an uplink body should flatten into, in the shape
    parse_line_protocol returns, read from the body alone.

    An irradiance or position payload gives one point of its own; every
    uplink gives a link point last. Floats are the body's values rounded
    to 6 decimals; the altitude stays an integer.
    """
    payload = body["payload"]
    node = body["from"]
    time_ns = body["timestamp"] * 10**9
    points = []
    if "irradiance_wm2" in payload:
        points.append(("irradiance", {"node": node},
                       {"value": round(payload["irradiance_wm2"], 6)}))
    elif "latitude_i" in payload:
        points.append(("position", {"node": node}, {
            "altitude_m": payload["altitude_m"],
            "latitude": round(payload["latitude_i"] / 1e7, 6),
            "longitude": round(payload["longitude_i"] / 1e7, 6),
        }))
    points.append(("link", {"gateway": gateway_id, "node": node},
                   {"rssi_dbm": float(body["rssi"]), "snr_db": round(body["snr"], 6)}))
    return [
        {"measurement": name, "tags": tags, "fields": fields, "time_ns": time_ns}
        for name, tags, fields in points
    ]


def _split_top(line: str) -> tuple[str, str, str]:
    first, second = _unescaped_space_indices(line)
    return line[:first], line[first + 1 : second], line[second + 1 :]


def _unescaped_space_indices(line: str) -> tuple[int, int]:
    found = []
    i = 0
    while i < len(line):
        if line[i] == "\\":
            i += 2
            continue
        if line[i] == " ":
            found.append(i)
        i += 1
    if len(found) != 2:
        raise ValueError(f"expected 2 unescaped spaces, got {len(found)}: {line!r}")
    return found[0], found[1]


def _split_unescaped(text: str, sep: str) -> list[str]:
    parts = []
    current = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            current.append(text[i])
            current.append(text[i + 1])
            i += 2
            continue
        if text[i] == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(text[i])
        i += 1
    parts.append("".join(current))
    return parts


def _unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def flood_oracle(
    adjacency: dict[str, set[str]], origin: str, hop_limit: int
) -> tuple[int, dict[str, int]]:
    """Enumerate a managed flood on a graph, assuming a collision-free
    channel and perfect dedup.

    The origin's own transmission spends one hop, so the frame leaves
    carrying hop_limit - 1. Returns (transmission count, hops taken to
    each delivered node). Valid for topologies where the first copy to
    arrive anywhere is never lost; the synthetic line/full-mesh layouts
    are built to guarantee that.
    """
    frame_hop = max(hop_limit - 1, 0)
    seen = {origin}
    delivered: dict[str, int] = {}
    queue = deque([(origin, frame_hop)])
    tx_count = 0
    while queue:
        tx, hop = queue.popleft()
        tx_count += 1
        for neighbor in sorted(adjacency.get(tx, ())):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            delivered[neighbor] = frame_hop - hop + 1
            if hop > 0:
                queue.append((neighbor, hop - 1))
    return tx_count, delivered
