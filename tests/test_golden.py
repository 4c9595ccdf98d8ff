"""Golden digests: the bytes of every output of every built-in, pinned.

test_09 compares two runs of one tree; this file compares each run with
digests recorded when the format and the engine were last known good,
so that a refactor keeps byte identity across commits. A digest may
change only with a change the ROADMAP calls out as changing output
bytes; update it in the same commit and say why in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import runpy
from pathlib import Path

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
    scenario_from_dict,
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
        "to_dict": "3b9f438543b9d1ec3234fe6563af0788c014fa966cc812c9d084d5f7f2c7d2c8",
        "trace.log": "8c6fcbd1ab1633dcbda5b33c973dacca50ae9c5a3878840bb1a312b2917c3737",
        "uplinks.ndjson": "9daf070c415cc9e78bf07768ff569d18704d2d2744f376c1aa119e8945bd3036",
    },
    "cumbre": {
        "map.csv": "5a146138918d9aa35b9e76af7299094c17317d79c8336ec6c22257e7e301536a",
        "map.kml": "eebf8a083d8f120db1ec29631f163d386573e9784cb832a833fbe139d38fab92",
        "report.json": "df1a63c203b2cfab67114888c03241650bfdb01d8c635b5a27929ee1d384ceb1",
        "series.lp": "c1829e8c9882eed28bb79348638960058b28a7ca87af5a89d064762c9c5bacd5",
        "summary.json": "1401b4cbaa2c657fcb7468a3e85186c2adf389da77a36b06f9b022c982acd966",
        "to_dict": "130fb06a06585f3edcd66125e200a3f84f8ea73d7931c216adea43021b5b11a2",
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
    written = write_outputs(engine.run(sc), sc, tmp_path)
    got = {path.name: _sha256(path.read_bytes()) for path in written}
    got["to_dict"] = _sha256(
        json.dumps(BUILTIN_SCENARIOS[name]().to_dict(), sort_keys=True).encode()
    )
    assert got == GOLDEN[name]


# sha256 of the gateway files and report.json from campus over 24 h, seed 1,
# with its built-in outputs: the benchmark's campus-day run. report.json is
# its largest file (34,580 rows, 14.6 MB).
CAMPUS_DAY = {
    "report.json": "f2893bae417aa4fc216884199f9cd7727ec32e99e00faefcdf9e0ab81d6756c8",
    "series.lp": "2e4caf5cc766874ad133515bf9fce784d27b6d98ff860b1e64187abde3781741",
    "uplinks.ndjson": "31fb4a4df1bdcd044080859292e678889c1021f2d9da6920b69a1ce094236543",
}


def test_campus_day_report_matches_golden(tmp_path):
    sc = BUILTIN_SCENARIOS["campus"]().replace(duration_s=86_400.0, seed=1)
    assert {"uplinks", "series"} <= sc.outputs
    write_outputs(engine.run(sc), sc, tmp_path)
    got = {name: _sha256((tmp_path / name).read_bytes()) for name in CAMPUS_DAY}
    assert got == CAMPUS_DAY


# Node ids, in node order, that every writer must escape or quote: a quote,
# a comma, a space, "=", a backslash and non-ASCII letters.
HOSTILE_IDS = ('gw "α",β=1\\', 'a "b",c d', 'e=f\\ g', 'ñodo, «é»')

# sha256 of each gateway file of k4 and line4 with HOSTILE_IDS for ids.
HOSTILE = {
    "k4": {
        "map.csv": "364982485f332adef1b1a9218bfba0115108f16ec340da76d411b1dda157ff86",
        "map.kml": "68f58ce6125990225798c5cad2f21e38384c387a5cd6a302924e296271546e7a",
        "series.lp": "01c3f576eee16d4f721cae2219b24766482ee68161530a1d91bc796fed518ca5",
        "uplinks.ndjson": "73172f991fd8853317ef9b4e481b699bae031327858af3b0993761788cd625ee",
    },
    "line4": {
        "map.csv": "4e15573af68033a2838239a78e3bbd2577d680e4b670d475a1edc6b9310eac68",
        "map.kml": "3884757690bf8a0adeaef8a0311db42a467fd21da537661611abf300073212a6",
        "series.lp": "8196ca975f4bc14180106d3d4ebaafb0271eaf727ecaeff734bfa3bf1f623591",
        "uplinks.ndjson": "0137679b6375c1583ff8235fa76405f4ef3b9fb14391ae0340162d06806bb597",
    },
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_ids_gateway_outputs_match_golden(name, tmp_path):
    sc = BUILTIN_SCENARIOS[name]()
    ids = {node.id: new for node, new in zip(sc.nodes, HOSTILE_IDS, strict=True)}
    sc = sc.replace(
        nodes=tuple(dataclasses.replace(node, id=ids[node.id]) for node in sc.nodes),
        links=tuple(dataclasses.replace(link, a=ids[link.a], b=ids[link.b]) for link in sc.links),
        outputs=frozenset({"summary", "uplinks", "series", "map_csv", "map_kml"}),
    )
    write_outputs(engine.run(sc), sc, tmp_path)
    got = {file: _sha256((tmp_path / file).read_bytes()) for file in HOSTILE[name]}
    assert got == HOSTILE[name]


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
    sc = _crowded_grid()
    report = engine.run(sc.replace(outputs=sc.outputs | {"report"}))
    # The grid is here for the busy and collision paths; keep it crowded.
    assert report.tx_busy > 1000
    assert report.collided > 1000
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
    sc = _link_table_grid()
    report = engine.run(sc.replace(outputs=sc.outputs | {"report"}))
    digest = _sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
    assert digest == LINK_TABLE_GRID_REPORT


# sha256 of json.dumps(summary_dict(), sort_keys=True) for the benchmark's grid
# generator at 6x6, seed 1, 300 s. Its only output is the summary, so the run
# keeps no reception record and no gateway list: this pins the path that builds
# records only for decodes.
BENCH_GRID36_SUMMARY = "6bd4f5caa3dbcb96c0044f4d80466ba69188b0641ccbb6b4a7729ddae25015db"


def test_bench_grid_summary_without_records_matches_golden():
    workloads = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    grid_scenario = runpy.run_path(str(workloads))["grid_scenario"]
    sc = scenario_from_dict(grid_scenario(6, 1, 300.0))
    assert sc.outputs == {"summary"}
    report = engine.run(sc)
    assert len(report.receptions) == 0
    # No map, uplinks or series output reads the gateway store; the count
    # of gateway deliveries is still folded into the summary.
    assert report.gateway_receptions == []
    assert sum(report.delivered_to_gateway.values()) > 0
    assert report.decoded > 1000 and report.tx_busy > 10000
    digest = _sha256(json.dumps(report.summary_dict(), sort_keys=True).encode())
    assert digest == BENCH_GRID36_SUMMARY
