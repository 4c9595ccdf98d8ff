"""Uplink JSON, line protocol, buckets, and map exports."""

import csv
import dataclasses
import io
import json
import random
import string
from xml.etree import ElementTree

import pytest
from conftest import expected_series, parse_line_protocol
from hypothesis import given
from hypothesis import strategies as st

from meshsim import engine
from meshsim.gateway import (
    UplinkMessage,
    classify_rssi,
    reception_map_csv,
    reception_map_kml,
    serialize_line_protocol,
    uplink_from_delivery,
    uplink_to_series,
)
from meshsim.geo import LatLonAlt, offset_position
from meshsim.mesh import MeshPacket, NodeRole, Port, RxMetadata
from meshsim.phy import EnvironmentClass, Terrain
from meshsim.report import GatewayReception
from meshsim.scenarios import (
    REFERENCE_LOSS_915_DB,
    EnvBand,
    NodeSpec,
    Scenario,
    k4_scenario,
    line_scenario,
)
from meshsim.telemetry import (
    AppSchedule,
    IrradianceSample,
    PayloadSource,
    encode_irradiance,
    encode_position,
)


def delivery_for(port, payload, time_s=12.5, rssi=-96.4, snr=3.1):
    packet = MeshPacket(
        origin="node1", packet_id=77, port=port, hop_limit=1, payload=payload
    )
    return GatewayReception(
        gateway_id="node4",
        packet=packet,
        rx=RxMetadata(time_s=time_s, rssi_dbm=rssi, snr_db=snr),
        transmitter="node1",
        distance_m=150.0,
        tx_position=LatLonAlt(-0.2, -78.5, 2560.0),
        uplinked=True,
    )


# --- uplink construction -----------------------------------------------------


def test_uplink_body_fields_and_topic():
    payload = encode_irradiance(IrradianceSample.from_adc(1000))
    up = uplink_from_delivery(
        delivery_for(Port.TELEMETRY_APP, payload), region="US", epoch_s=1_700_000_000
    )
    assert up.topic == "msh/US/2/json/LongFast/node4"
    body = up.body
    assert body["from"] == "node1"
    assert body["id"] == 77
    assert body["hop_limit"] == 1
    assert body["port"] == "TELEMETRY_APP"
    assert body["timestamp"] == 1_700_000_012
    # RSSI integer dBm; SNR on the quarter-dB grid.
    assert body["rssi"] == -96
    assert body["snr"] == 3.0
    assert body["payload"]["adc_raw"] == 1000


def test_uplink_position_payload():
    payload = encode_position(4.9167, -74.0167, 2560, 1_700_000_000)
    up = uplink_from_delivery(delivery_for(Port.POSITION_APP, payload))
    assert up.body["payload"]["latitude_i"] == round(4.9167e7)
    assert up.body["payload"]["altitude_m"] == 2560


def test_uplink_text_payload():
    up = uplink_from_delivery(delivery_for(Port.TEXT_MESSAGE_APP, "hola".encode()))
    assert up.body["payload"] == {"text": "hola"}


def test_uplink_irradiance_payload_carries_battery_soc():
    payload = encode_irradiance(IrradianceSample.from_adc(2000, battery_soc=87))
    assert len(payload) == 7
    up = uplink_from_delivery(delivery_for(Port.TELEMETRY_APP, payload))
    assert up.body["payload"]["adc_raw"] == 2000
    assert up.body["payload"]["battery_soc"] == 87


def test_uplink_control_falls_back_to_hex():
    up = uplink_from_delivery(delivery_for(Port.CONTROL, b"\x01\x02\xff"))
    assert up.body["payload"] == {"payload_raw": "0102ff"}


def test_uplink_corrupt_payload_falls_back_to_hex():
    up = uplink_from_delivery(delivery_for(Port.POSITION_APP, b"\x00" * 5))
    assert up.body["payload"] == {"payload_raw": "00" * 5}
    bad_utf8 = uplink_from_delivery(delivery_for(Port.TEXT_MESSAGE_APP, b"\xff\xfe"))
    assert bad_utf8.body["payload"] == {"payload_raw": "fffe"}


def test_uplink_json_is_canonical():
    payload = encode_irradiance(IrradianceSample.from_adc(500))
    up = uplink_from_delivery(delivery_for(Port.TELEMETRY_APP, payload))
    text = up.to_json()
    assert text == up.to_json()
    assert ": " not in text and ", " not in text
    line = json.loads(text)
    assert list(line) == ["body", "topic"]
    assert line["topic"] == up.topic
    body_keys = list(line["body"])
    assert body_keys == sorted(body_keys)


def test_snr_negative_quantization():
    up = uplink_from_delivery(
        delivery_for(Port.TEXT_MESSAGE_APP, b"x", snr=-7.4, rssi=-118.6)
    )
    assert up.body["snr"] == -7.5
    assert up.body["rssi"] == -119


# --- series points --------------------------------------------------------------


def _points(uplink):
    """uplink_to_series' points as parse_line_protocol reads them, each
    field value paired with its type, so an int cannot pass for a float.
    """
    points = [parse_line_protocol(line)[0] for line in uplink_to_series(uplink)]
    return _typed(points)


def _typed(points):
    return [
        {**p, "fields": {k: (type(v), v) for k, v in p["fields"].items()}} for p in points
    ]


def _uplink(payload, node="node1", gateway="node4", rssi=-96, snr=3.25,
            timestamp=1_700_000_000):
    """An uplink made by hand, so a test chooses every value it flattens."""
    body = {"from": node, "payload": payload, "rssi": rssi, "snr": snr,
            "timestamp": timestamp}
    return UplinkMessage(gateway_id=gateway, topic=f"msh/US/2/json/LongFast/{gateway}",
                         body=body)


def _irradiance(value):
    return {"adc_raw": 0, "irradiance_wm2": value, "volts": 0.0}


def _position(latitude_i, longitude_i, altitude_m):
    return {"altitude_m": altitude_m, "fix_time_s": 0, "latitude_i": latitude_i,
            "longitude_i": longitude_i}


def test_telemetry_uplink_yields_two_records():
    payload = encode_irradiance(IrradianceSample.from_adc(1000))
    up = uplink_from_delivery(
        delivery_for(Port.TELEMETRY_APP, payload), epoch_s=1_700_000_000
    )
    points = _points(up)
    assert [p["measurement"] for p in points] == ["irradiance", "link"]
    link = points[1]
    assert link["tags"] == {"gateway": "node4", "node": "node1"}
    assert link["time_ns"] == up.body["timestamp"] * 10**9
    assert points == _typed(expected_series(up.gateway_id, up.body))


def test_position_uplink_yields_two_records():
    payload = encode_position(4.9167, -74.0167, 2560, 1_700_000_000)
    up = uplink_from_delivery(delivery_for(Port.POSITION_APP, payload))
    points = _points(up)
    assert [p["measurement"] for p in points] == ["position", "link"]
    fields = points[0]["fields"]
    assert fields["latitude"] == (float, 4.9167)
    assert fields["altitude_m"] == (int, 2560)
    assert points == _typed(expected_series(up.gateway_id, up.body))


def test_text_uplink_yields_link_record_only():
    up = uplink_from_delivery(delivery_for(Port.TEXT_MESSAGE_APP, b"hi"))
    assert [p["measurement"] for p in _points(up)] == ["link"]
    raw = uplink_from_delivery(delivery_for(Port.CONTROL, b"\x01"))
    assert [p["measurement"] for p in _points(raw)] == ["link"]


# --- line protocol ----------------------------------------------------------------


def test_line_protocol_spot_value():
    up = _uplink(_irradiance(812.5), rssi=-110, snr=-7.5)
    assert uplink_to_series(up) == [
        "irradiance,node=node1 value=812.5 1700000000000000000",
        "link,gateway=node4,node=node1 rssi_dbm=-110,snr_db=-7.5 1700000000000000000",
    ]


def test_line_protocol_int_suffix_and_tag_order():
    up = _uplink(_position(49_191_060, -740_167_000, 2564), node="tracker", gateway="gw",
                 timestamp=1_700_002_475)
    assert uplink_to_series(up) == [
        "position,node=tracker altitude_m=2564i,latitude=4.919106,longitude=-74.0167 "
        "1700002475000000000",
        "link,gateway=gw,node=tracker rssi_dbm=-96,snr_db=3.25 1700002475000000000",
    ]


def test_line_protocol_escapes_spaces():
    up = _uplink({"text": "x"}, node="la cumbre", gateway="gw 1", rssi=-110, snr=0.0,
                 timestamp=0)
    assert uplink_to_series(up) == [
        "link,gateway=gw\\ 1,node=la\\ cumbre rssi_dbm=-110,snr_db=0 0"
    ]


def test_line_protocol_escapes_commas_equals_backslash():
    up = _uplink(_irradiance(1.0), node="k=1,v\\2", gateway="a,b=c", timestamp=5)
    lines = uplink_to_series(up)
    assert lines == [
        "irradiance,node=k\\=1\\,v\\\\2 value=1 5000000000",
        "link,gateway=a\\,b\\=c,node=k\\=1\\,v\\\\2 rssi_dbm=-96,snr_db=3.25 5000000000",
    ]
    back = parse_line_protocol(serialize_line_protocol(lines))
    assert [p["tags"] for p in back] == [
        {"node": "k=1,v\\2"},
        {"gateway": "a,b=c", "node": "k=1,v\\2"},
    ]


def test_line_protocol_strips_trailing_zeros():
    assert uplink_to_series(_uplink(_irradiance(36.75), rssi=-80, snr=0.5, timestamp=1)) == [
        "irradiance,node=node1 value=36.75 1000000000",
        "link,gateway=node4,node=node1 rssi_dbm=-80,snr_db=0.5 1000000000",
    ]
    # Six decimals, rounded; nothing left after the point drops the point.
    assert uplink_to_series(_uplink(_irradiance(2.0000004), timestamp=1))[0] == (
        "irradiance,node=node1 value=2 1000000000"
    )
    assert uplink_to_series(_uplink(_irradiance(0.1234565001), timestamp=1))[0] == (
        "irradiance,node=node1 value=0.123457 1000000000"
    )


def test_line_protocol_multiline_no_trailing_newline():
    text = serialize_line_protocol(uplink_to_series(_uplink(_irradiance(1.0))))
    assert text.count("\n") == 1
    assert not text.endswith("\n")
    assert serialize_line_protocol([]) == ""


def test_line_protocol_roundtrip_random():
    rng = random.Random(2024)
    id_chars = string.ascii_lowercase + ' ,=\\"é'
    for _ in range(1000):
        kind = rng.randrange(3)
        if kind == 0:
            payload = _irradiance(round(rng.uniform(0, 2e3), rng.randint(0, 9)))
        elif kind == 1:
            payload = _position(rng.randint(-9 * 10**8, 9 * 10**8),
                                rng.randint(-18 * 10**8, 18 * 10**8),
                                rng.randint(-500, 9000))
        else:
            payload = {"text": "hi"}
        up = _uplink(
            payload,
            node="".join(rng.choices(id_chars, k=rng.randint(1, 8))),
            gateway="".join(rng.choices(id_chars, k=rng.randint(1, 8))),
            rssi=rng.randint(-140, -20),
            snr=rng.randint(-80, 60) / 4,
            timestamp=rng.randint(0, 2**32 - 1),
        )
        assert _points(up) == _typed(expected_series(up.gateway_id, up.body))


# validate() rejects C0 controls, DEL, NEL, U+2028 and U+2029 in ids: line
# protocol ends a point at "\n", and the reference parser also splits at the
# others. The drawn ids leave out every control and both separators.
_ids = st.text(
    st.sampled_from(' ,=\\"') | st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
    min_size=1,
    max_size=10,
)
_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(
    node=_ids,
    gateway=_ids,
    payload=st.one_of(
        st.builds(_irradiance, _floats),
        st.builds(_position, st.integers(-9 * 10**8, 9 * 10**8),
                  st.integers(-18 * 10**8, 18 * 10**8), st.integers(-(2**31), 2**31 - 1)),
        st.builds(lambda text: {"text": text}, st.text()),
    ),
    rssi=st.integers(-200, 50),
    snr=_floats,
    timestamp=st.integers(0, 2**32 - 1),
)
def test_series_points_round_trip_any_ids_and_floats(node, gateway, payload, rssi, snr,
                                                      timestamp):
    up = _uplink(payload, node=node, gateway=gateway, rssi=rssi, snr=snr,
                 timestamp=timestamp)
    assert _points(up) == _typed(expected_series(gateway, up.body))


# --- signal-quality buckets ----------------------------------------------------------


def test_bucket_boundaries():
    assert classify_rssi(-89.999) == "GREEN"
    assert classify_rssi(-90.0) == "ORANGE"
    assert classify_rssi(-100.0) == "ORANGE"
    assert classify_rssi(-110.0) == "ORANGE"
    assert classify_rssi(-110.001) == "RED"


# --- map exports --------------------------------------------------------------------


def _written(writer, report, sc):
    """What a map writer writes for report, as one string."""
    handle = io.StringIO()
    writer(report, sc, handle)
    return handle.getvalue()


def test_map_csv_from_k4():
    sc = k4_scenario()
    report = engine.run(sc)
    csv_text = _written(reception_map_csv, report, sc)
    lines = csv_text.splitlines()
    assert lines[0] == "time_s,node,x_m,y_m,distance_m,rssi_dbm,snr_db,bucket,port"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[1] == "node0"
    # node0 sits 200 m west and 200 m south of the gateway corner.
    assert float(first[2]) == pytest.approx(-200.0, abs=0.5)
    assert float(first[3]) == pytest.approx(-200.0, abs=0.5)
    assert first[7] in {"GREEN", "ORANGE", "RED"}
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times)


def test_map_csv_empty_is_header_only():
    sc = line_scenario(count=5)
    # Budget exhausts before the gateway: header only.
    report = engine.run(sc)
    assert _written(reception_map_csv, report, sc) == (
        "time_s,node,x_m,y_m,distance_m,rssi_dbm,snr_db,bucket,port\n"
    )


def test_map_kml_structure():
    sc = k4_scenario()
    report = engine.run(sc)
    kml = _written(reception_map_kml, report, sc)
    assert kml.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    rows = _written(reception_map_csv, report, sc).splitlines()
    assert kml.count("<Placemark>") == len(rows) - 1
    for bucket in ("GREEN", "ORANGE", "RED"):
        assert f'<Style id="{bucket}">' in kml
    assert "</kml>" in kml


def _k4_with_ids(*ids):
    """k4 with its first nodes renamed, writing both maps."""
    sc = k4_scenario()
    nodes = tuple(
        dataclasses.replace(node, id=new) for node, new in zip(sc.nodes, ids)
    ) + sc.nodes[len(ids):]
    return sc.replace(
        name="k4 <&> map", nodes=nodes, outputs=frozenset({"summary", "map_csv", "map_kml"})
    )


HOSTILE_IDS = ('a,b"c<&>', '"quoted"', "x>y")


def test_map_csv_quotes_ids_as_the_csv_module_reads_them():
    sc = _k4_with_ids(*HOSTILE_IDS)
    report = engine.run(sc)
    text = _written(reception_map_csv, report, sc)
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    assert len(rows) == len(report.gateway_receptions) > 0
    for row, rec in zip(rows, report.gateway_receptions):
        assert None not in row  # no row spilled over the nine columns
        assert row["node"] == rec.transmitter
        assert row["bucket"] in {"GREEN", "ORANGE", "RED"}
        assert row["port"] == rec.packet.port.value
    assert HOSTILE_IDS[0] in {row["node"] for row in rows}


def test_map_csv_leaves_plain_ids_unquoted():
    sc = k4_scenario()
    assert '"' not in _written(reception_map_csv, engine.run(sc), sc)


def test_map_kml_escapes_ids_and_the_scenario_name():
    sc = _k4_with_ids(*HOSTILE_IDS)
    report = engine.run(sc)
    root = ElementTree.fromstring(_written(reception_map_kml, report, sc).encode("utf-8"))
    ns = {"k": "http://www.opengis.net/kml/2.2"}
    assert root.find("k:Document/k:name", ns).text == "k4 <&> map coverage"
    names = [p.find("k:name", ns).text for p in root.iterfind("k:Document/k:Placemark", ns)]
    assert len(names) == len(report.gateway_receptions) > 0
    assert {name.rsplit(" t=", 1)[0] for name in names} <= set(HOSTILE_IDS) | {"node3"}
    assert any(name.startswith(HOSTILE_IDS[0] + " t=") for name in names)


def test_maps_keep_judge_order_when_frames_end_together():
    # Two senders 3 km apart send equal texts at t = 0, each 100 m from its
    # own gateway, on a line of sight with no shadowing. Both frames end in
    # the same nanosecond; each survives only at its own gateway. b_sender is
    # listed first, so its frame is judged first and its row comes first.
    origin = LatLonAlt(-0.2, -78.5, 2560.0)
    shot = AppSchedule(
        Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=1e9, text="ping"
    )

    def at(east_m):
        return offset_position(origin, east_m, 0.0, 2560.0)

    sc = Scenario(
        name="tie",
        duration_s=60.0,
        seed=1,
        nodes=(
            NodeSpec(id="b_sender", name="b", role=NodeRole.CLIENT, position=at(3000.0),
                     apps=(shot,)),
            NodeSpec(id="a_sender", name="a", role=NodeRole.CLIENT, position=at(0.0),
                     apps=(shot,)),
            NodeSpec(id="a_gw", name="a_gw", role=NodeRole.GATEWAY, position=at(-100.0)),
            NodeSpec(id="b_gw", name="b_gw", role=NodeRole.GATEWAY, position=at(3100.0)),
        ),
        default_env=(
            EnvBand(env=EnvironmentClass(Terrain.LOS_OPEN, 2.0, REFERENCE_LOSS_915_DB)),
        ),
        outputs=frozenset({"summary", "map_csv", "map_kml"}),
    )
    report = engine.run(sc)
    first, second = report.gateway_receptions[:2]
    assert first.rx.time_s == second.rx.time_s
    assert [(r.transmitter, r.gateway_id) for r in (first, second)] == [
        ("b_sender", "b_gw"),
        ("a_sender", "a_gw"),
    ]
    rows = list(csv.DictReader(io.StringIO(_written(reception_map_csv, report, sc))))
    assert [row["node"] for row in rows] == [r.transmitter for r in report.gateway_receptions]
    assert rows[0]["time_s"] == rows[1]["time_s"]
    kml = _written(reception_map_kml, report, sc)
    assert kml.index("<name>b_sender t=") < kml.index("<name>a_sender t=")
