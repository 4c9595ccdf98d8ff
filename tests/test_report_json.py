"""report.json: the streamed row template against json.dumps.

The expected document is built here from the documented rules of a
reception row (times, powers and distances rounded to 6 places,
latitude and longitude to 7, altitude to 3; strings and ints as they
are), not from ReceptionRecord.to_dict, and dumped with
json.dumps(indent=2, sort_keys=True). Both the writer and to_dict must
give exactly those bytes.
"""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.engine import ReceptionOutcome, ReceptionRecord, SimReport
from meshsim.geo import LatLonAlt
from meshsim.mesh import Port

_finite = st.floats(allow_nan=False, allow_infinity=False)
# A number field may hold an int: a scenario file can give an altitude as 100.
_number = _finite | st.integers(-(10**20), 10**20)
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
    positions = draw(_positions)  # records share these objects, as frames do
    records = [
        ReceptionRecord(
            time_s=draw(_finite.filter(lambda t: t >= 0) | st.just(-0.0)),
            transmitter=draw(st.sampled_from(ids)),
            receiver=draw(st.sampled_from(ids)),
            origin=draw(st.sampled_from(ids)),
            packet_id=draw(st.integers(0, 2**32 - 1)),
            port=draw(st.sampled_from(list(Port))).value,
            hop_limit=draw(st.integers(0, 7)),
            rssi_dbm=draw(_number),
            snr_db=draw(_number),
            distance_m=draw(_number),
            outcome=draw(st.sampled_from(list(ReceptionOutcome))),
            tx_position=draw(st.sampled_from(positions)),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return SimReport(
        # A name that spells the placeholder line must not split the document.
        scenario_name=draw(_ids | st.just('\n  "receptions": null')),
        seed=draw(st.integers(0, 2**63)),
        duration_s=draw(_finite),
        receptions=records,
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
