"""Golden digests: the bytes of every output of every built-in, pinned.

test_09 compares two runs of one tree; this file compares each run with
digests recorded when the format and the engine were last known good,
so that a refactor keeps byte identity across commits. A digest may
change only with a change the ROADMAP calls out as changing output
bytes; update it in the same commit and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from meshsim import engine
from meshsim.cli import write_outputs
from meshsim.geo import LatLonAlt, offset_position
from meshsim.mesh import NodeRole, Port
from meshsim.phy import EnvironmentClass, RadioConfig, Terrain
from meshsim.scenarios import (
    BUILTIN_SCENARIOS,
    NLOS_EXPONENT,
    OUTPUT_KINDS,
    REFERENCE_LOSS_915_DB,
    EnvBand,
    LinkOverride,
    NodeSpec,
    Route,
    Scenario,
    Waypoint,
)
from meshsim.telemetry import AppSchedule, PayloadSource

# sha256 of each output file with every output kind requested (trace on),
# and of json.dumps(scenario.to_dict(), sort_keys=True).
GOLDEN = {
    "campus": {
        "map.csv": "45f48b928a86d1c8c1f53b5cb87e71e1650700f89604c13922dce4a7855dfef0",
        "map.kml": "0758544492c8f61714b06ac6ed8567d2440dfa0ee5d9e687bc432759fda61b34",
        "report.json": "b9831f8ca0a057c9479e864186c11263646f95ce3caece19bcec2215c5693f1e",
        "series.lp": "f6c72c13d8dc838fe83f62757caea1a39f445cac569db6a7b8b0e5de87eb7afe",
        "summary.json": "ccfc47d91204fead843774f4b401dab088ce6ce9059377bf92ff5ef50269c50e",
        "to_dict": "da82afa1813836afa0f71a68e7be7085774aa77f89ec4a81eab6e33ee1c4a670",
        "trace.log": "8c6fcbd1ab1633dcbda5b33c973dacca50ae9c5a3878840bb1a312b2917c3737",
        "uplinks.ndjson": "9daf070c415cc9e78bf07768ff569d18704d2d2744f376c1aa119e8945bd3036",
    },
    "cumbre": {
        "map.csv": "5a146138918d9aa35b9e76af7299094c17317d79c8336ec6c22257e7e301536a",
        "map.kml": "eebf8a083d8f120db1ec29631f163d386573e9784cb832a833fbe139d38fab92",
        "report.json": "df1a63c203b2cfab67114888c03241650bfdb01d8c635b5a27929ee1d384ceb1",
        "series.lp": "c1829e8c9882eed28bb79348638960058b28a7ca87af5a89d064762c9c5bacd5",
        "summary.json": "1401b4cbaa2c657fcb7468a3e85186c2adf389da77a36b06f9b022c982acd966",
        "to_dict": "fb51a3d7ce20a0abc25ac1cd37833585e32e47a21dfb69c7df1c3bd0f857d45b",
        "trace.log": "9b14b34dbef081a43758238ce06243a8e8b5eee1fb2a9b2882dc12c734894e17",
        "uplinks.ndjson": "9e02e9366759e14336d4eda54f31b713ba0fe1a741c8b8845450874f80f54492",
    },
    "k4": {
        "map.csv": "b5ff04b2e57d3629576dae5801009f691f9b063f9df818191ee93dfb27f98cd5",
        "map.kml": "399b51c70eda4af8e6dc87ca2e014824f9f2056ed55505c02b7e9fd8690b12de",
        "report.json": "e316dd45e74e89fba931cf9bf0fd5ca2bb280110f408b75adca74010225f430a",
        "series.lp": "da59ce7769c128f59f0db1d42fe115eacd2a666b740a4cff041459f738709385",
        "summary.json": "2c2b4d263902ec7725d165f8cc7680e20924d6921d57326d8236f2097057b03c",
        "to_dict": "dd2c4caf3f3aeaa8a4ef131e7e9c4fc18a2bc70a625cbd9fa81404c0c2555c6e",
        "trace.log": "5dfc2bf7fcda83874906bad8366246f14188d822da1ce63531614b84efa60e20",
        "uplinks.ndjson": "c0b9274add68096bb936712e2a5c98f8da0e0ffbf3880acf812d65669e8cebb6",
    },
    "line4": {
        "map.csv": "f882a999bfbed711f0fa82b9bb8ab0c1ee8476e64f76810cde28c1a4681b03ea",
        "map.kml": "9112dc7af85c8e56764afd081116562c5332f5cf50dbd6f696641fe3eb0b52db",
        "report.json": "b571d38d6b09b549283395bd823d24a9662dacfd9ff415ce41634f8155f1cc95",
        "series.lp": "3838ee1ab846e6f9e84d97cfcf9c6417fdd2a0326c6e66cc1d1d05aaf71a8fb5",
        "summary.json": "0207913c030e85398bf41c9048671f2cc8d9f596f9cd6d3ac8dd47ebe62531e4",
        "to_dict": "4ce5824dcc0774f462959b4e9e0e3938c7f083318794abf92e02edd30ef454a9",
        "trace.log": "6f7f79a1ea3c85047bc5e0a382148cdc55089683e9787bcc02a12f23f88c2538",
        "uplinks.ndjson": "0b4ed75f7bad5f14a8becdd50e042e51b856f1654df40539699499719885d75b",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_every_builtin():
    assert set(GOLDEN) == set(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_builtin_outputs_match_golden(name, tmp_path):
    sc = BUILTIN_SCENARIOS[name]().replace(outputs=OUTPUT_KINDS)
    written = write_outputs(engine.run(sc, collect_trace=True), sc, tmp_path)
    got = {path.name: _sha256(path.read_bytes()) for path in written}
    got["to_dict"] = _sha256(
        json.dumps(BUILTIN_SCENARIOS[name]().to_dict(), sort_keys=True).encode()
    )
    assert got == GOLDEN[name]


# sha256 of json.dumps(engine.run(_crowded_grid()).to_dict(), sort_keys=True).
CROWDED_GRID_REPORT = "95015c056a096f01437c7635d503b3968f48e64e2e9dd973f23051b71caf1991"


def _crowded_grid() -> Scenario:
    """A saturated 4x4 grid: busy radios and pile-ups of many rival frames.

    Nodes sit 400 m apart under NLOS shadowing with sigma 4 dB; node 0 is
    the gateway and every odd node sends every 60 s, the senders staggered
    2 s apart, so floods overlap heavily.
    """
    side = 4
    nodes = []
    for i in range(side * side):
        apps = ()
        if i % 2:
            apps = (
                AppSchedule(
                    Port.TEXT_MESSAGE_APP,
                    PayloadSource.TEXT_FIXED,
                    period_s=60.0,
                    start_offset_s=(i // 2) * 2.0,
                    text="hello mesh!",
                ),
            )
        nodes.append(
            NodeSpec(
                id=f"n{i}",
                name=f"n{i}",
                role=NodeRole.GATEWAY if i == 0 else NodeRole.CLIENT,
                position=offset_position(
                    LatLonAlt(0.0, 0.0, 0.0), (i % side) * 400.0, (i // side) * 400.0, 0.0
                ),
                apps=apps,
            )
        )
    env = EnvironmentClass(Terrain.NLOS_BUILT, NLOS_EXPONENT, REFERENCE_LOSS_915_DB, 4.0)
    return Scenario(
        name="grid16",
        duration_s=600.0,
        seed=1,
        nodes=tuple(nodes),
        default_env=(EnvBand(env=env),),
    )


def test_crowded_grid_report_matches_golden():
    report = engine.run(_crowded_grid())
    counts = report.outcome_counts()
    # The grid is here for the busy and collision paths; keep it crowded.
    assert counts[engine.ReceptionOutcome.TX_BUSY] > 1000
    assert counts[engine.ReceptionOutcome.COLLIDED] > 1000
    digest = _sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert digest == CROWDED_GRID_REPORT


# sha256 of json.dumps(engine.run(_link_table_grid()).to_dict(), sort_keys=True).
LINK_TABLE_GRID_REPORT = "df16046d6436d0ab4f0c7fdf8dfa5cb36fac35f1f3a1dd7e52f4fd27064e2369"


def _link_table_grid() -> Scenario:
    """A 3x3 grid that mixes every way a link's channel is chosen.

    n4 moves back and forth across the grid while the others stand still;
    n1->n2 has a directed distance override, n3<->n5 a symmetric one with
    its own environment, n0<->n8 a pinned shadow, and the default
    environment has two distance bands. n6 listens with a noisier radio.
    """
    side = 3
    origin = LatLonAlt(0.0, 0.0, 0.0)
    route = Route(
        waypoints=(
            Waypoint(0.0, offset_position(origin, -100.0, 400.0, 0.0)),
            Waypoint(150.0, offset_position(origin, 900.0, 300.0, 2.0)),
            Waypoint(300.0, offset_position(origin, -100.0, 400.0, 0.0)),
        ),
        loop=True,
    )
    nodes = []
    for i in range(side * side):
        apps = ()
        if i % 2:
            apps = (
                AppSchedule(
                    Port.TEXT_MESSAGE_APP,
                    PayloadSource.TEXT_FIXED,
                    period_s=30.0,
                    start_offset_s=i * 1.5,
                    text="hello mesh!",
                ),
            )
        if i == 4:
            apps = (AppSchedule(Port.POSITION_APP, PayloadSource.GNSS_TRACKER, period_s=20.0),)
        nodes.append(
            NodeSpec(
                id=f"n{i}",
                name=f"n{i}",
                role=NodeRole.GATEWAY if i == 0 else NodeRole.CLIENT,
                position=offset_position(origin, (i % side) * 400.0, (i // side) * 400.0, 0.0),
                apps=apps,
                radio=RadioConfig(noise_figure_db=9.0) if i == 6 else None,
                route=route if i == 4 else None,
            )
        )
    near = EnvironmentClass(Terrain.LOS_OPEN, 2.2, REFERENCE_LOSS_915_DB, 2.0)
    far = EnvironmentClass(Terrain.NLOS_BUILT, NLOS_EXPONENT, REFERENCE_LOSS_915_DB, 4.0)
    hill = EnvironmentClass(Terrain.QUASI_LOS_ELEVATED, 2.5, REFERENCE_LOSS_915_DB, 1.0)
    return Scenario(
        name="link-table-grid",
        duration_s=300.0,
        seed=3,
        nodes=tuple(nodes),
        default_env=(EnvBand(env=near, max_distance_m=500.0), EnvBand(env=far)),
        links=(
            LinkOverride(a="n1", b="n2", distance_m=50.0, directed=True),
            LinkOverride(a="n3", b="n5", distance_m=1500.0, env=hill),
            LinkOverride(a="n0", b="n8", shadow_db=25.0),
        ),
    )


def test_link_table_grid_report_matches_golden():
    report = engine.run(_link_table_grid())
    digest = _sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert digest == LINK_TABLE_GRID_REPORT
