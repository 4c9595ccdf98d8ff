"""report.json: the streamed row template against json.dumps.

The expected document is built here from the documented rules of a
reception row (times, powers and distances rounded to 6 places,
latitude and longitude to 7, altitude to 3; strings and ints as they
are), not from the writer's row template, and dumped with
json.dumps(indent=2, sort_keys=True). The writer must give exactly those
bytes, and to_dict, which parses them back, the same document. The
reports are filled through ReceptionLog.add_frame, as the engine fills
them.
"""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.cli import main
from meshsim.report import (
    ReceptionFrame,
    ReceptionLog,
    ReceptionOutcome,
    ReceptionRecord,
    SimReport,
)
from meshsim.report import _number as number_text
from meshsim.geo import LatLonAlt
from meshsim.mesh import Port
from meshsim.scenarios import line_scenario

_finite = st.floats(allow_nan=False, allow_infinity=False)
# A number field may hold an int: a scenario file can give an altitude or a
# distance as 100.
_number = _finite | st.integers(-(10**20), 10**20)
# The log keeps RSSI as a C double, and the engine only ever puts floats there.
# Bounded so that an SNR, RSSI minus a noise floor, stays finite.
_power = st.floats(-1e307, 1e307)
_ids = st.text(min_size=1, max_size=8) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "tab\there", "ñ", " ", "\U0001f4e1x"]
)
# Equal as values, different as text: each must keep its own spelling.
_twins = [
    LatLonAlt(0.0, 0.0, 0.0),
    LatLonAlt(-0.0, -0.0, -0.0),
    LatLonAlt(4.9, -74.0, 100),
    LatLonAlt(4.9, -74.0, 100.0),
]
_positions = st.lists(st.builds(LatLonAlt, _number, _number, _number), max_size=3).map(
    lambda drawn: _twins + drawn
)


def _row(r: ReceptionRecord) -> dict:
    p = r.tx_position
    return {
        "time_s": round(r.time_s, 6),
        "transmitter": r.transmitter,
        "receiver": r.receiver,
        "origin": r.origin,
        "packet_id": r.packet_id,
        "port": r.port,
        "hop_limit": r.hop_limit,
        "rssi_dbm": round(r.rssi_dbm, 6),
        "snr_db": round(r.snr_db, 6),
        "distance_m": round(r.distance_m, 6),
        "outcome": r.outcome.value,
        "tx_latitude": round(p.latitude, 7),
        "tx_longitude": round(p.longitude, 7),
        "tx_altitude_m": round(p.altitude_m, 3),
    }


@st.composite
def _reports(draw):
    ids = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    positions = draw(_positions)  # frames share these objects, as the engine's do
    log = ReceptionLog({node: draw(_power) for node in ids})
    for _ in range(draw(st.integers(0, 3))):
        receivers = tuple(draw(st.lists(st.sampled_from(ids), max_size=3)))
        frame = ReceptionFrame(
            end_s=draw(_finite.filter(lambda t: t >= 0) | st.just(-0.0)),
            transmitter=draw(st.sampled_from(ids)),
            origin=draw(st.sampled_from(ids)),
            packet_id=draw(st.integers(0, 2**32 - 1)),
            port=draw(st.sampled_from(list(Port))).value,
            hop_limit=draw(st.integers(0, 7)),
            tx_position=draw(st.sampled_from(positions)),
            receivers=receivers,
        )
        n = len(receivers)
        log.add_frame(
            frame,
            draw(st.lists(_power, min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from(list(ReceptionOutcome)), min_size=n, max_size=n)),
            draw(st.lists(_number, min_size=n, max_size=n)),
        )
    return SimReport(
        # A name that spells the placeholder line must not split the document.
        scenario_name=draw(_ids | st.just('\n  "receptions": null')),
        seed=draw(st.integers(0, 2**63)),
        duration_s=draw(_finite),
        receptions=log,
    )


def _written(report: SimReport) -> str:
    handle = io.StringIO()
    report.write_json(handle, report.summary_dict())
    return handle.getvalue()


@settings(max_examples=300, deadline=None)
@given(report=_reports())
def test_report_json_matches_json_dumps(report):
    expected = report.summary_dict()
    expected["receptions"] = [_row(r) for r in report.receptions]
    text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert _written(report) == text
    assert json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n" == text


def test_report_json_without_receptions_keeps_an_empty_list():
    text = _written(SimReport(scenario_name="idle", seed=1, duration_s=60.0))
    assert '\n  "receptions": [],\n' in text
    assert json.loads(text)["receptions"] == []


def test_int_distance_and_altitude_keep_their_spelling(tmp_path):
    # The log keeps RSSI as C doubles, but a distance or an altitude given as
    # an int in a scenario file must still print as one.
    doc = line_scenario().to_dict()
    doc["nodes"][0]["position"]["altitude_m"] = 100
    doc["links"][0]["distance_m"] = 2470
    doc["outputs"] = ["report", "summary"]
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    assert main(["--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    assert '      "distance_m": 2470,\n' in text
    assert '      "tx_altitude_m": 100,\n' in text
    rows = json.loads(text)["receptions"]
    pinned = [r for r in rows if {r["transmitter"], r["receiver"]} == {"node0", "node2"}]
    assert pinned and all(type(r["distance_m"]) is int for r in pinned)
    sent = [r for r in rows if r["transmitter"] == "node0"]
    assert sent and all(type(r["tx_altitude_m"]) is int for r in sent)


# _number must print exactly what repr(round(x, k)) prints, at every place
# count a row uses. Its fast path covers floats with 1e-4 <= |x| < 1e8, so the
# draws include that range and a decade past each bound, and the pinned values
# cover the bounds, their neighbours and the halfway cases.
_PLACES = (3, 6, 7)


def _halfway(k: int) -> list[float]:
    values = []
    for n in (0, 1, 2, 4, 12, 2674, 123456, 99999999 * 10**k):
        for mid in ((n + 0.5) / 10**k, -(n + 0.5) / 10**k):
            values += [mid, math.nextafter(mid, -math.inf), math.nextafter(mid, math.inf)]
    return values


_PINNED = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    0.00009999995,
    -0.00009999995,
    2.675,
    -2.675,
    # Past the fast path's upper bound, 7 places give 16 significant digits,
    # and "%.7f" prints 946661070.0240999 where repr prints 946661070.0241.
    946661070.0241,
    *(
        y
        for bound in (1e-4, 1e8, -1e-4, -1e8)
        for y in (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
    ),
]


@settings(max_examples=2000, deadline=None)
@given(
    value=st.floats()
    | st.floats(1e-5, 1e9).flatmap(lambda x: st.sampled_from([x, -x]))
    | st.integers(),
    places=st.sampled_from(_PLACES),
)
def test_number_matches_repr_of_round(value, places):
    assert number_text(value, places, f"%.{places}f") == repr(round(value, places))


@pytest.mark.parametrize("places", _PLACES)
def test_number_matches_repr_of_round_at_pinned_values(places):
    for value in _PINNED + _halfway(places):
        assert number_text(value, places, f"%.{places}f") == repr(round(value, places)), value
