"""Uplink JSON, line protocol, buckets, and map exports."""

import csv
import dataclasses
import io
import json
import random
import string
from xml.etree import ElementTree

import pytest
from conftest import parse_line_protocol

from meshsim import engine
from meshsim.gateway import (
    SeriesRecord,
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


# --- series records ------------------------------------------------------------


def test_telemetry_uplink_yields_two_records():
    payload = encode_irradiance(IrradianceSample.from_adc(1000))
    up = uplink_from_delivery(
        delivery_for(Port.TELEMETRY_APP, payload), epoch_s=1_700_000_000
    )
    records = uplink_to_series(up)
    assert [r.measurement for r in records] == ["irradiance", "link"]
    link = records[1]
    assert link.tags == {"gateway": "node4", "node": "node1"}
    assert link.time_ns == up.body["timestamp"] * 10**9


def test_position_uplink_yields_two_records():
    payload = encode_position(4.9167, -74.0167, 2560, 1_700_000_000)
    records = uplink_to_series(
        uplink_from_delivery(delivery_for(Port.POSITION_APP, payload))
    )
    assert [r.measurement for r in records] == ["position", "link"]
    pos = records[0]
    assert pos.fields["latitude"] == pytest.approx(4.9167, abs=1e-6)
    assert isinstance(pos.fields["altitude_m"], int)


def test_text_uplink_yields_link_record_only():
    records = uplink_to_series(
        uplink_from_delivery(delivery_for(Port.TEXT_MESSAGE_APP, b"hi"))
    )
    assert [r.measurement for r in records] == ["link"]


def test_series_record_validation():
    with pytest.raises(ValueError):
        SeriesRecord("m", {}, {}, 0)
    with pytest.raises(ValueError):
        SeriesRecord("", {}, {"v": 1.0}, 0)
    with pytest.raises(ValueError):
        SeriesRecord("m", {}, {"v": float("nan")}, 0)
    with pytest.raises(ValueError):
        SeriesRecord("m", {}, {"v": True}, 0)
    with pytest.raises(ValueError):
        SeriesRecord("m", {}, {"v": "text"}, 0)


def test_series_record_quantizes_floats():
    rec = SeriesRecord("m", {}, {"v": 1.23456789}, 0)
    assert rec.fields["v"] == 1.234568


def test_series_record_rules_hold_for_subclasses():
    class Meters(float):
        pass

    class Count(int):
        pass

    rec = SeriesRecord("m", {}, {"a": Meters(1.23456789), "b": Count(3), "c": 7}, 0)
    assert rec.fields == {"a": 1.234568, "b": 3, "c": 7}
    assert type(rec.fields["a"]) is float
    for bad in (float("inf"), -float("inf"), Meters("nan"), False, None, "1"):
        with pytest.raises(ValueError):
            SeriesRecord("m", {}, {"v": bad}, 0)


# --- line protocol ----------------------------------------------------------------


def test_line_protocol_spot_value():
    rec = SeriesRecord(
        measurement="irradiance",
        tags={"node": "node1"},
        fields={"value": 812.5},
        time_ns=1_700_000_000_000_000_000,
    )
    assert (
        serialize_line_protocol([rec])
        == "irradiance,node=node1 value=812.5 1700000000000000000"
    )


def test_line_protocol_int_suffix_and_tag_order():
    rec = SeriesRecord(
        measurement="position",
        tags={"node": "tracker", "gateway": "gw"},
        fields={"altitude_m": 2564, "latitude": 4.919106},
        time_ns=1_700_002_475_000_000_000,
    )
    line = serialize_line_protocol([rec])
    assert line == (
        "position,gateway=gw,node=tracker "
        "altitude_m=2564i,latitude=4.919106 1700002475000000000"
    )


def test_line_protocol_escapes_spaces():
    rec = SeriesRecord(
        measurement="link",
        tags={"site": "la cumbre"},
        fields={"rssi_dbm": -110.0},
        time_ns=0,
    )
    assert (
        serialize_line_protocol([rec]) == "link,site=la\\ cumbre rssi_dbm=-110 0"
    )


def test_line_protocol_escapes_commas_equals_backslash():
    rec = SeriesRecord(
        measurement="a,b c",
        tags={"k=1": "v,2"},
        fields={"f": 1},
        time_ns=5,
    )
    line = serialize_line_protocol([rec])
    assert line == "a\\,b\\ c,k\\=1=v\\,2 f=1i 5"
    back = parse_line_protocol(line)[0]
    assert back["measurement"] == "a,b c"
    assert back["tags"] == {"k=1": "v,2"}


def test_line_protocol_strips_trailing_zeros():
    rec = SeriesRecord("m", {}, {"a": 36.75, "b": -80.0, "c": 0.5}, 1)
    assert serialize_line_protocol([rec]) == "m a=36.75,b=-80,c=0.5 1"


def test_line_protocol_multiline_no_trailing_newline():
    recs = [
        SeriesRecord("m", {}, {"v": 1.0}, 1),
        SeriesRecord("m", {}, {"v": 2.0}, 2),
    ]
    text = serialize_line_protocol(recs)
    assert text.count("\n") == 1
    assert not text.endswith("\n")


def test_line_protocol_roundtrip_random():
    rng = random.Random(2024)
    tag_chars = string.ascii_lowercase + " ,="
    records = []
    for i in range(1000):
        tags = {
            "".join(rng.choices(string.ascii_lowercase, k=4)): "".join(
                rng.choices(tag_chars, k=6)
            ).strip()
            or "x"
            for _ in range(rng.randint(0, 3))
        }
        fields = {}
        for _ in range(rng.randint(1, 4)):
            key = "".join(rng.choices(string.ascii_lowercase, k=5))
            if rng.random() < 0.5:
                fields[key] = rng.randint(-10**9, 10**9)
            else:
                fields[key] = round(rng.uniform(-2e4, 2e4), 6)
        records.append(
            SeriesRecord(
                measurement="m" + str(i % 7),
                tags=tags,
                fields=fields,
                time_ns=rng.randint(0, 2**62),
            )
        )
    parsed = parse_line_protocol(serialize_line_protocol(records))
    assert len(parsed) == len(records)
    for rec, back in zip(records, parsed):
        assert back["measurement"] == rec.measurement
        assert back["tags"] == rec.tags
        assert back["fields"] == rec.fields
        assert back["time_ns"] == rec.time_ns


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
