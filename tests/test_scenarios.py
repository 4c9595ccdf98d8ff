"""Scenario model: built-ins, validation, JSON round trips, geometry."""

import copy
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshsim
from meshsim.geo import LatLonAlt, geo_to_local, node_distance_m, offset_position
from meshsim.mesh import DEFAULT_CONTENTION_WINDOWS, ContentionParams, NodeRole, Port
from meshsim.phy import EnvironmentClass, RadioConfig, Terrain, reference_loss_1m_db
from meshsim.scenarios import (
    BUILTIN_SCENARIOS,
    GATEWAY_OUTPUTS,
    MAX_EMISSIONS,
    NLOS_EXPONENT,
    OUTPUT_KINDS,
    QUASI_LOS_EXPONENT,
    REFERENCE_LOSS_915_DB,
    EnvBand,
    LinkOverride,
    NodeSpec,
    Route,
    Scenario,
    ScenarioError,
    Waypoint,
    campus_scenario,
    cumbre_scenario,
    k4_scenario,
    line_scenario,
    load_scenario,
    scenario_from_dict,
)
from meshsim.telemetry import AppSchedule, DiurnalProfile, PayloadSource


# --- local-plane geometry ----------------------------------------------------


def test_latitude_degree_is_111km():
    origin = LatLonAlt(0.0, 0.0, 0.0)
    x, y = geo_to_local(LatLonAlt(0.001, 0.0, 0.0), origin)
    assert y == pytest.approx(111.195, abs=0.01)
    assert x == pytest.approx(0.0, abs=1e-9)


def test_longitude_shrinks_with_latitude():
    equator = geo_to_local(LatLonAlt(0.0, 0.001, 0.0), LatLonAlt(0.0, 0.0, 0.0))
    at60 = geo_to_local(LatLonAlt(60.0, 0.001, 0.0), LatLonAlt(60.0, 0.0, 0.0))
    assert at60[0] == pytest.approx(equator[0] * math.cos(math.radians(60.0)), rel=1e-6)


def test_offset_position_inverts_projection():
    origin = LatLonAlt(4.9167, -74.0167, 2559.88)
    moved = offset_position(origin, east_m=320.0, north_m=410.0, altitude_m=2572.0)
    x, y = geo_to_local(moved, origin)
    assert x == pytest.approx(320.0, abs=0.01)
    assert y == pytest.approx(410.0, abs=0.01)


def test_distance_includes_altitude():
    origin = LatLonAlt(0.0, 0.0, 0.0)
    high = offset_position(origin, east_m=300.0, north_m=0.0, altitude_m=400.0)
    assert node_distance_m(origin, high) == pytest.approx(500.0, abs=0.05)


# --- built-in scenarios --------------------------------------------------------


def test_builtins_load_and_validate():
    assert set(BUILTIN_SCENARIOS) == {"campus", "cumbre", "line4", "k4"}
    for name in BUILTIN_SCENARIOS:
        scenario = load_scenario(name)
        assert scenario.validate() == []


def test_campus_layout():
    sc = campus_scenario()
    roles = {n.id: n.role for n in sc.nodes}
    assert roles["node4"] is NodeRole.GATEWAY
    assert roles["node2"] is NodeRole.ROUTER
    assert roles["node3"] is NodeRole.ROUTER
    assert roles["tracker"] is NodeRole.TRACKER
    node1 = next(n for n in sc.nodes if n.id == "node1")
    assert node1.role is NodeRole.CLIENT
    assert any(
        a.port is Port.TELEMETRY_APP and a.period_s == 300.0 for a in node1.apps
    )
    tracker = next(n for n in sc.nodes if n.id == "tracker")
    # The tracker loop repeats every 30 minutes.
    route = tracker.route
    assert route.loop
    p0 = route.position_at(100.0)
    p1 = route.position_at(100.0 + 1800.0)
    assert p0.latitude == pytest.approx(p1.latitude, abs=1e-9)
    assert p0.longitude == pytest.approx(p1.longitude, abs=1e-9)


def test_campus_client_gateway_separation():
    sc = campus_scenario()
    by_id = {n.id: n for n in sc.nodes}
    d = node_distance_m(by_id["node1"].position, by_id["node4"].position)
    assert d == pytest.approx(math.hypot(320.0, 410.0, 2572.0 - 2559.88), abs=0.5)


def test_cumbre_route_dwells():
    sc = cumbre_scenario()
    mobile = next(n for n in sc.nodes if n.id == "mobile")
    gateway = next(n for n in sc.nodes if n.id == "gateway")
    route = mobile.route
    # Dwell midpoints sit at the four measured stops.
    for t, expected in ((300.0, 1090.0), (1200.0, 1600.0), (2100.0, 2050.0), (3000.0, 2470.0)):
        d = node_distance_m(route.position_at(t), gateway.position)
        assert d == pytest.approx(expected, rel=0.01)
    # Summit stop is 68 m above the gateway.
    summit = route.position_at(3000.0)
    assert summit.altitude_m - gateway.position.altitude_m == pytest.approx(
        68.15, abs=0.5
    )


def test_cumbre_env_bands():
    sc = cumbre_scenario()
    assert len(sc.default_env) == 2
    assert sc.default_env[0].max_distance_m == 2250.0
    assert sc.default_env[-1].max_distance_m is None
    assert sc.default_env[0].env.path_loss_exponent == pytest.approx(NLOS_EXPONENT)
    assert sc.default_env[1].env.path_loss_exponent == pytest.approx(
        QUASI_LOS_EXPONENT
    )


def test_fitted_exponents_in_expected_bands():
    assert 3.2 <= NLOS_EXPONENT <= 3.8
    assert 2.5 <= QUASI_LOS_EXPONENT <= 3.2


def test_line_scenario_shape():
    sc = line_scenario(count=5)
    assert len(sc.nodes) == 5
    assert sc.nodes[0].role is NodeRole.CLIENT
    assert sc.nodes[-1].role is NodeRole.GATEWAY
    assert all(n.role is NodeRole.ROUTER for n in sc.nodes[1:-1])
    # Non-adjacent pairs are pushed out of radio range.
    cut = {frozenset((l.a, l.b)) for l in sc.links}
    assert frozenset(("node0", "node2")) in cut
    assert frozenset(("node0", "node1")) not in cut
    assert all(l.distance_m > 1e6 for l in sc.links)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        line_scenario(count=1)


def test_k4_scenario_shape():
    sc = k4_scenario()
    assert len(sc.nodes) == 4
    assert sc.links == ()
    apps = [a for n in sc.nodes for a in n.apps]
    assert len(apps) == 1  # single origination from node0
    assert apps[0].payload_source is PayloadSource.TEXT_FIXED


# --- validation ----------------------------------------------------------------


def test_validate_collects_all_violations():
    sc = campus_scenario().replace(duration_s=-5.0, seed=-1)
    violations = sc.validate()
    assert len(violations) == 2
    assert any("duration" in v for v in violations)
    assert any("seed" in v for v in violations)


def test_validate_duplicate_node_ids():
    sc = campus_scenario()
    sc = sc.replace(nodes=sc.nodes + (sc.nodes[0],))
    assert any("duplicate node id" in v for v in sc.validate())


def test_validate_band_ordering():
    sc = cumbre_scenario()
    bad = sc.replace(default_env=(sc.default_env[1], sc.default_env[0]))
    assert any("catch-all" in v for v in bad.validate())


def test_validate_unknown_link_endpoint():
    sc = campus_scenario()
    from meshsim.scenarios import LinkOverride

    bad = sc.replace(links=sc.links + (LinkOverride(a="node1", b="ghost"),))
    assert any("ghost" in v for v in bad.validate())


def test_validate_gateway_required_for_uplink_outputs():
    sc = campus_scenario()
    no_gw = sc.replace(
        nodes=tuple(n for n in sc.nodes if n.role is not NodeRole.GATEWAY)
    )
    assert any("GATEWAY" in v for v in no_gw.validate())


def test_validate_oversized_text_app():
    from meshsim.scenarios import NodeSpec
    from meshsim.telemetry import AppSchedule

    sc = k4_scenario()
    node0 = sc.nodes[0]
    fat = AppSchedule(
        Port.TEXT_MESSAGE_APP,
        PayloadSource.TEXT_FIXED,
        period_s=1e9,
        text="x" * 238,
    )
    bad = sc.replace(
        nodes=(
            NodeSpec(
                id=node0.id,
                name=node0.name,
                role=node0.role,
                position=node0.position,
                apps=(fat,),
            ),
        )
        + sc.nodes[1:]
    )
    assert any("text exceeds" in v for v in bad.validate())


def _k4_with_gateway_on_route(outputs):
    """k4 with its gateway, node3, on a one-waypoint route 150 m north of its position."""
    sc = k4_scenario()
    gw = sc.nodes[3]
    route = Route(waypoints=(Waypoint(0.0, offset_position(gw.position, 0.0, 150.0)),))
    nodes = (*sc.nodes[:3], replace(gw, route=route))
    return sc.replace(nodes=nodes, outputs=frozenset({"summary", *outputs}))


def test_validate_rejects_a_gateway_on_a_route_under_a_map():
    # The maps place each row around the gateway's fixed position, while the
    # row's distance follows its route: node0's row would print x,y =
    # (-200, -200), 283 m away, beside a distance of 403 m.
    for maps in (["map_csv"], ["map_kml"], ["map_csv", "map_kml"]):
        assert _k4_with_gateway_on_route(maps).validate() == [
            f"nodes[3] (node3): a GATEWAY on a route cannot write {maps},"
            " which place rows around its fixed position"
        ]
    # Uplinks and series carry no position of the gateway.
    assert _k4_with_gateway_on_route(["uplinks", "series"]).validate() == []


def test_validate_rejects_empty_fixed_text():
    # An empty payload has no time on air; it must not load and fail mid-run.
    sc = k4_scenario()
    node0 = replace(sc.nodes[0], apps=(replace(sc.nodes[0].apps[0], text=""),))
    assert sc.replace(nodes=(node0, *sc.nodes[1:])).validate() == [
        "nodes[0] (node0): apps[0] text must not be empty"
    ]


def test_validate_bounds_fix_time_by_epoch():
    # A fix at time t carries epoch_s + int(t), packed as an unsigned 32-bit int.
    sc = campus_scenario()
    assert any(
        app.payload_source is PayloadSource.GNSS_TRACKER for n in sc.nodes for app in n.apps
    )
    last_epoch = 2**32 - 1 - math.ceil(sc.duration_s)
    assert sc.replace(epoch_s=last_epoch).validate() == []
    assert sc.replace(epoch_s=last_epoch + 1).validate() == [
        f"epoch_s: {last_epoch + 1} plus duration_s {sc.duration_s} reaches"
        " 2**32 s, past a fix's or an uplink's unsigned 32-bit time"
    ]
    # Without a tracker, uplinks or series no output carries the epoch.
    untimed = k4_scenario().replace(outputs=frozenset({"summary", "map_csv", "map_kml"}))
    assert untimed.replace(epoch_s=2**40).validate() == []


@pytest.mark.parametrize("kind", ["uplinks", "series"])
def test_validate_bounds_uplink_time_by_epoch(kind):
    # An uplink's timestamp is Meshtastic's rx_time, a fixed32: epoch_s + int(t).
    # series.lp prints it in nanoseconds, so an unbounded epoch would also
    # pass line protocol's signed 64-bit time.
    sc = k4_scenario().replace(outputs=frozenset({"summary", kind}))
    assert sc.duration_s == 30.0
    assert sc.replace(epoch_s=2**32 - 31).validate() == []
    assert sc.replace(epoch_s=2**32 - 30).validate() == [
        f"epoch_s: {2**32 - 30} plus duration_s 30.0 reaches"
        " 2**32 s, past a fix's or an uplink's unsigned 32-bit time"
    ]
    assert sc.replace(epoch_s=10**10, outputs=frozenset({"summary"})).validate() == []


def _one_app_k4(period_s: float, duration_s: float) -> Scenario:
    sc = k4_scenario()
    app = AppSchedule(Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=period_s)
    node0 = replace(sc.nodes[0], apps=(app,))
    return sc.replace(nodes=(node0, *sc.nodes[1:]), duration_s=duration_s)


def test_validate_caps_total_emissions():
    # One app every second from t = 0 emits at 0, 1, ..., D: D + 1 times.
    assert _one_app_k4(1.0, MAX_EMISSIONS - 1.0).validate() == []
    assert _one_app_k4(1.0, float(MAX_EMISSIONS)).validate() == [
        f"duration_s: {float(MAX_EMISSIONS)} s asks for more than"
        f" {MAX_EMISSIONS} app emissions in total"
    ]
    # A period so short that the count overflows a float is rejected, not raised.
    assert len(_one_app_k4(5e-324, 1e5).validate()) == 1


def test_radio_rejects_negative_noise_figure():
    with pytest.raises(ValueError, match="noise_figure_db -3.0 must be >= 0"):
        RadioConfig(noise_figure_db=-3.0)


_LOS = campus_scenario().default_env[0].env
_CAMPUS_NODES = campus_scenario().nodes


@pytest.mark.parametrize(
    "changes, expected",
    [
        ({"epoch_s": -1}, ["epoch_s: -1 must be >= 0"]),
        ({"name": ""}, ["name: must not be empty"]),
        ({"region": ""}, ["region: must not be empty"]),
        (
            {
                "nodes": _CAMPUS_NODES[:4] + (
                    replace(
                        _CAMPUS_NODES[4],
                        route=Route(waypoints=(Waypoint(-5.0, LatLonAlt(200.0, 0.0)),)),
                    ),
                )
            },
            [
                "nodes[4] (tracker).route.waypoints[0]: time_s -5.0 must be >= 0",
                "nodes[4] (tracker).route.waypoints[0]: latitude 200.0 outside -90..90",
            ],
        ),
        (
            {"nodes": (), "links": (), "outputs": frozenset({"summary"})},
            ["nodes: at least one node is required"],
        ),
        (
            {"default_env": (EnvBand(_LOS, max_distance_m=0.0), EnvBand(_LOS))},
            ["default_env: max_distance_m values must be positive"],
        ),
        (
            {
                "default_env": (
                    EnvBand(_LOS, max_distance_m=500.0),
                    EnvBand(_LOS, max_distance_m=500.0),
                    EnvBand(_LOS),
                )
            },
            ["default_env: max_distance_m values must be increasing"],
        ),
        (
            {"links": (LinkOverride(a="node1", b="node1"),)},
            ["links[0] (node1->node1): a link needs two distinct nodes"],
        ),
        (
            {"links": (LinkOverride(a="node1", b="node2", distance_m=0.5),)},
            ["links[0] (node1->node2): distance_m 0.5 below 1 m reference"],
        ),
        ({"capture_threshold_db": -1.0}, ["capture_threshold_db: -1.0 must be >= 0"]),
        ({"capture_threshold_db": math.nan}, ["capture_threshold_db: nan must be >= 0"]),
        ({"capture_threshold_db": math.inf}, ["capture_threshold_db: inf must be finite"]),
        ({"default_env": ()}, ["default_env: at least one band is required"]),
    ],
    ids=[
        "epoch", "name", "region", "tracker-waypoint", "no-nodes", "band-not-positive",
        "bands-not-increasing", "self-link", "link-below-1m", "negative-capture",
        "nan-capture", "infinite-capture", "no-bands",
    ],
)
def test_validate_holds_python_built_scenarios_to_file_ranges(changes, expected):
    # Built-ins, replace() and the CLI overrides never pass through the decoder.
    assert campus_scenario().replace(**changes).validate() == expected


def test_validate_rejects_empty_node_id_and_bad_node_route():
    sc = cumbre_scenario()
    mobile = sc.nodes[1]
    route = Route(waypoints=(Waypoint(0.0, LatLonAlt(0.0, 181.0)),))
    nodes = (replace(sc.nodes[0], id=""), replace(mobile, route=route), sc.nodes[2])
    assert sc.replace(nodes=nodes).validate() == [
        "nodes[0] (): node id must not be empty",
        "nodes[1] (mobile).route.waypoints[0]: longitude 181.0 outside -180..180",
    ]


def test_run_refuses_invalid_scenario():
    from meshsim import engine

    with pytest.raises(ScenarioError) as exc:
        engine.run(campus_scenario().replace(duration_s=0.0))
    assert exc.value.violations


# --- JSON round trip -------------------------------------------------------------


def test_scenario_json_roundtrip():
    for name in BUILTIN_SCENARIOS:
        sc = load_scenario(name)
        as_dict = sc.to_dict()
        back = scenario_from_dict(json.loads(json.dumps(as_dict)))
        assert back == sc
        assert back.to_dict() == as_dict


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(campus_scenario().to_dict()))
    sc = load_scenario(str(path))
    assert sc.name == "campus"
    assert sc.validate() == []


def test_load_scenario_unknown_name():
    with pytest.raises(ScenarioError) as exc:
        load_scenario("no-such-scenario")
    assert any("no-such-scenario" in v for v in exc.value.violations)


def test_schema_rejects_missing_required(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(path))
    joined = " ".join(exc.value.violations)
    for key in ("duration_s", "seed", "nodes", "default_env"):
        assert key in joined


def test_schema_rejects_unknown_property():
    obj = campus_scenario().to_dict()
    obj["unexpected"] = 1
    with pytest.raises(ScenarioError):
        scenario_from_dict(obj)


def test_schema_rejects_bad_role():
    obj = campus_scenario().to_dict()
    obj["nodes"][0]["role"] = "SUPERNODE"
    with pytest.raises(ScenarioError):
        scenario_from_dict(obj)


def test_schema_rejects_unknown_position_key():
    # A misspelt altitude must not load as altitude 0.
    obj = campus_scenario().to_dict()
    position = obj["nodes"][0]["position"]
    position["alt_m"] = position.pop("altitude_m")
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(obj)
    assert exc.value.violations == [
        "nodes/0/position: Additional properties are not allowed ('alt_m' was unexpected)"
    ]


@pytest.mark.parametrize(
    "where, value, expected",
    [
        (("seed",), True, "seed: True is not of type 'integer'"),
        (
            ("contention", "windows"),
            {"CLIENT": [1, 2, 3]},
            "contention/windows/CLIENT: [1, 2, 3] does not have exactly 2 items",
        ),
        (
            ("nodes", 0, "role"),
            "SUPERNODE",
            "nodes/0/role: 'SUPERNODE' is not one of ['CLIENT', 'ROUTER', 'GATEWAY', 'TRACKER']",
        ),
        (
            ("nodes", 4, "route", "waypoints", 0),
            {"time_s": 0.0, "latitude": 0.0, "longitude": 0.0, "speed": 1},
            "nodes/4/route/waypoints/0: Additional properties are not allowed "
            "('speed' was unexpected)",
        ),
        (
            ("nodes", 4, "route", "waypoints", 0),
            {"time_s": 0.0, "longitude": 0.0},
            "nodes/4/route/waypoints/0: 'latitude' is a required property",
        ),
        (
            ("nodes", 4, "route", "waypoints"),
            [],
            "nodes/4/route: route needs at least one waypoint",
        ),
        (("contention", "windows"), [], "contention/windows: [] is not of type 'object'"),
        (("default_env",), [], "default_env: at least one band is required"),
    ],
    ids=[
        "bool-as-integer", "long-pair", "enum", "waypoint-extra-key", "waypoint-missing-key",
        "route-without-waypoints", "windows-as-array", "no-bands",
    ],
)
def test_decoder_reports_structure_with_paths(where, value, expected):
    obj = campus_scenario().to_dict()
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(obj)
    assert exc.value.violations == [expected]


def test_codec_layout_exceptions():
    sc = campus_scenario()
    obj = sc.to_dict()
    # A waypoint carries its position inline.
    assert obj["nodes"][4]["route"]["waypoints"][0] == {
        "time_s": 0.0,
        "latitude": sc.nodes[4].route.waypoints[0].position.latitude,
        "longitude": sc.nodes[4].route.waypoints[0].position.longitude,
        "altitude_m": 2559.9,
    }
    # Fields holding None are left out.
    assert "radio" not in obj["nodes"][0] and "distance_m" not in obj["links"][0]
    # An omitted field takes its dataclass's default.
    del obj["nodes"][0]["name"]
    del obj["links"][0]["env"]["reference_loss_db"]
    obj["contention"]["windows"] = {"CLIENT": [1, 9]}
    back = scenario_from_dict(obj)
    assert back.nodes[0].name == "node1"
    assert back.links[0].env == sc.links[0].env
    assert back.contention.windows == {**sc.contention.windows, NodeRole.CLIENT: (1, 9)}


def test_python_built_values_take_the_file_defaults():
    at = LatLonAlt(0.0, 0.0)
    assert NodeSpec(id="n1", role=NodeRole.CLIENT, position=at).name == "n1"
    assert NodeSpec(id="n1", role=NodeRole.CLIENT, position=at, name="").name == ""
    env = EnvironmentClass(terrain=Terrain.LOS_OPEN, path_loss_exponent=2.0)
    assert env.reference_loss_db == REFERENCE_LOSS_915_DB == reference_loss_1m_db(915e6)
    windows = ContentionParams(windows={NodeRole.ROUTER: (0, 1)}).windows
    assert windows == {**DEFAULT_CONTENTION_WINDOWS, NodeRole.ROUTER: (0, 1)}
    assert ContentionParams().windows == DEFAULT_CONTENTION_WINDOWS


def test_partial_contention_windows_run_as_the_defaults():
    # Only CLIENT is given; the ROUTER and GATEWAY windows the flood needs are the defaults.
    partial = k4_scenario().replace(contention=ContentionParams(windows={NodeRole.CLIENT: (4, 8)}))
    assert partial.validate() == []
    assert meshsim.run(partial).summary_dict() == meshsim.run(k4_scenario()).summary_dict()


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_without_default_values_loads_back_equal(name):
    sc = BUILTIN_SCENARIOS[name]()
    obj = sc.to_dict()
    for node in obj["nodes"]:
        if node["name"] == node["id"]:
            del node["name"]
    envs = [band["env"] for band in obj["default_env"]]
    envs += [link["env"] for link in obj["links"] if "env" in link]
    for env in envs:
        if env["reference_loss_db"] == REFERENCE_LOSS_915_DB:
            del env["reference_loss_db"]
    windows = obj["contention"]["windows"]
    for role, window in DEFAULT_CONTENTION_WINDOWS.items():
        if windows[role.value] == list(window):
            del windows[role.value]
    # Every built-in uses the default reference loss and windows.
    assert "reference_loss_db" not in json.dumps(obj) and windows == {}
    assert scenario_from_dict(obj) == sc


def test_integral_floats_load_as_ints():
    # The schema's "integer" accepts 11.0; 1 << 11.0 would fail mid-run.
    obj = k4_scenario().to_dict()
    obj["seed"] = 2.0
    obj["radio"]["spreading_factor"] = 11.0
    sc = scenario_from_dict(obj)
    assert sc == k4_scenario()
    assert type(sc.seed) is int and type(sc.radio.spreading_factor) is int


# --- generated round trips ---------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


def _nonneg(max_value=None):
    return st.floats(min_value=0.0, max_value=max_value, allow_nan=False, allow_infinity=False)


def _positive(max_value=None):
    return st.floats(
        min_value=0.0, max_value=max_value, exclude_min=True, allow_nan=False, allow_infinity=False
    )


_position = st.builds(
    LatLonAlt,
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
    _finite,
)

_radio = st.builds(
    RadioConfig,
    frequency_hz=_positive(),
    spreading_factor=st.integers(7, 12),
    bandwidth_hz=_positive(),
    coding_rate=st.integers(1, 4),
    tx_power_dbm=_finite,
    hop_limit=st.integers(0, 7),
    preamble_symbols=st.integers(1, 64),
    crc_enabled=st.booleans(),
    explicit_header=st.booleans(),
    antenna_gain_tx_dbi=_finite,
    antenna_gain_rx_dbi=_finite,
    noise_figure_db=_nonneg(),
)

_env = st.builds(
    EnvironmentClass,
    terrain=st.sampled_from(list(Terrain)),
    path_loss_exponent=st.floats(min_value=2.0, max_value=8.0),
    reference_loss_db=_positive(),
    shadowing_sigma_db=_nonneg(),
)


@st.composite
def _routes(draw):
    times = draw(st.lists(_nonneg(1e6), min_size=1, max_size=4, unique=True))
    waypoints = tuple(Waypoint(t, draw(_position)) for t in sorted(times))
    return Route(waypoints=waypoints, loop=draw(st.booleans()))


_app = st.builds(
    AppSchedule,
    port=st.sampled_from(list(Port)),
    payload_source=st.sampled_from(list(PayloadSource)),
    # With periods of 1 s or more, 8 apps over at most 1e6 s stay under MAX_EMISSIONS.
    period_s=st.floats(min_value=1.0, max_value=1e7),
    start_offset_s=_nonneg(),
    text=st.text(min_size=1, max_size=20),  # a fixed text needs a payload byte
)


# Node ids and the scenario name may hold any character but a C0 control, DEL,
# or one of the other line breaks of str.splitlines: NEL, U+2028 and U+2029.
_printable = st.characters(
    exclude_categories=("Cs",),
    exclude_characters=[chr(c) for c in range(0x20)] + ["\x7f", "\x85", "\u2028", "\u2029"],
)


@st.composite
def _scenarios(draw):
    ids = draw(
        st.lists(
            st.text(_printable, min_size=1, max_size=6), min_size=1, max_size=4, unique=True
        )
    )
    nodes = tuple(
        NodeSpec(
            id=node_id,
            name=draw(st.text(max_size=8)),
            role=draw(st.sampled_from(list(NodeRole))),
            position=draw(_position),
            apps=tuple(draw(st.lists(_app, max_size=2))),
            radio=draw(st.none() | _radio),
            route=draw(st.none() | _routes()),
        )
        for node_id in ids
    )
    limits = sorted(draw(st.lists(_positive(1e6), max_size=2, unique=True)))
    bands = tuple(EnvBand(env=draw(_env), max_distance_m=m) for m in limits)
    bands += (EnvBand(env=draw(_env)),)
    links = ()
    if len(ids) > 1:
        pair = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        links = tuple(
            LinkOverride(
                *draw(pair),
                distance_m=draw(st.none() | st.floats(min_value=1.0, max_value=1e7)),
                env=draw(st.none() | _env),
                shadow_db=draw(st.none() | _finite),
                directed=draw(st.booleans()),
            )
            for _ in range(draw(st.integers(0, 2)))
        )
    outputs = draw(st.frozensets(st.sampled_from(sorted(OUTPUT_KINDS))))
    if not any(n.role is NodeRole.GATEWAY for n in nodes):
        outputs -= GATEWAY_OUTPUTS
    if any(n.role is NodeRole.GATEWAY and n.route is not None for n in nodes):
        outputs -= {"map_csv", "map_kml"}  # the maps need a fixed gateway
    snr_min, snr_max = sorted(
        draw(st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2, unique=True))
    )
    pairs = st.tuples(st.integers(0, 16), st.integers(0, 16)).map(lambda p: tuple(sorted(p)))
    sunrise = draw(_nonneg(40_000.0))
    duration_s = draw(_positive(1e6))
    # A tracker's fix time and an uplink's rx_time, epoch_s + int(t), are
    # unsigned 32-bit ints.
    timed = outputs & {"uplinks", "series"} or any(
        app.payload_source is PayloadSource.GNSS_TRACKER for n in nodes for app in n.apps
    )
    max_epoch_s = 2**32 - 1 - math.ceil(duration_s) if timed else 2**40
    return Scenario(
        name=draw(st.text(_printable, min_size=1, max_size=10)),
        duration_s=duration_s,
        seed=draw(st.integers(0, 2**63)),
        nodes=nodes,
        default_env=bands,
        links=links,
        outputs=outputs,
        radio=draw(_radio),
        contention=ContentionParams(
            snr_min_db=snr_min,
            snr_max_db=snr_max,
            windows=draw(st.fixed_dictionaries({role: pairs for role in NodeRole})),
        ),
        capture_threshold_db=draw(_nonneg()),
        epoch_s=draw(st.integers(0, max_epoch_s)),
        region=draw(st.text(min_size=1, max_size=4)),
        irradiance_profile=DiurnalProfile(
            peak_adc=draw(st.integers(1, 4095)),
            sunrise_s=sunrise,
            sunset_s=draw(st.floats(min_value=sunrise, max_value=86400.0, exclude_min=True)),
        ),
    )


@settings(max_examples=60, deadline=None)
@given(sc=_scenarios())
def test_generated_scenarios_roundtrip(sc):
    assert sc.validate() == []
    as_dict = sc.to_dict()
    back = scenario_from_dict(json.loads(json.dumps(as_dict)))
    assert back == sc
    assert back.to_dict() == as_dict


# --- the old schema as an oracle ----------------------------------------------------

_SCHEMA_PATH = Path(__file__).parent / "data" / "scenario.schema.json"
_SCENARIO_FIELDS = {f.name for f in fields(Scenario)}
_BUILTIN_DICTS = [load_scenario(name).to_dict() for name in BUILTIN_SCENARIOS]
_OLD_SCHEMA = jsonschema.Draft202012Validator(json.loads(_SCHEMA_PATH.read_text()))

_junk = st.sampled_from(
    [None, True, 0, -1, 2, 11.0, -5.5, 200, 1e12, math.nan, math.inf, -math.inf, "", "x",
     "CLIENT", "LOS_OPEN", [], [0], [9, 0], [1, 2, 3], {}, {"latitude": 0.0}]
).map(copy.deepcopy)  # a later mutation may edit a drawn list or dict
_junk_key = st.sampled_from(["bogus", "alt_m", "time_s", "name", "position", "env", "CLIENT"])


def _locations(node, path=()):
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _locations(child, path + (key,))


@st.composite
def _mutated_builtins(draw):
    obj = copy.deepcopy(draw(st.sampled_from(_BUILTIN_DICTS)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_locations(obj))))
        if not path:
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["replace", "delete", "add"]))
        if kind == "replace":
            parent[path[-1]] = draw(_junk)
        elif kind == "delete":
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(_junk_key)] = draw(_junk)
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=_mutated_builtins())
def test_loader_rejects_what_the_old_schema_rejects(obj):
    # The schema the loader used to run is the oracle: the loader may be
    # stricter (non-finite numbers, inverted windows), never looser.
    try:
        scenario_from_dict(obj)
    except ScenarioError as exc:
        for violation in exc.violations:
            head = re.match(r"[^/.\[ :]*", violation).group()
            assert head == "(root)" or head in _SCENARIO_FIELDS, violation
    else:
        assert _OLD_SCHEMA.is_valid(obj), next(_OLD_SCHEMA.iter_errors(obj)).message


def test_loading_needs_no_jsonschema(tmp_path):
    path = tmp_path / "campus.json"
    path.write_text(json.dumps(campus_scenario().to_dict()))
    code = (
        "import sys; sys.modules['jsonschema'] = None\n"
        "from meshsim.scenarios import load_scenario\n"
        f"print(load_scenario({str(path)!r}).name)\n"
    )
    src = str(Path(meshsim.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "campus\n", "")


def test_route_validation_and_interpolation():
    from meshsim.scenarios import Route, Waypoint

    with pytest.raises(ValueError):
        Route(
            waypoints=(
                Waypoint(0.0, LatLonAlt(0.0, 0.0, 0.0)),
                Waypoint(0.0, LatLonAlt(0.1, 0.0, 0.0)),
            )
        )
    route = Route(
        waypoints=(
            Waypoint(0.0, LatLonAlt(0.0, 0.0, 0.0)),
            Waypoint(10.0, LatLonAlt(0.001, 0.0, 100.0)),
        )
    )
    # Clamped before the first and after the last waypoint.
    assert route.position_at(-5.0).latitude == 0.0
    assert route.position_at(99.0).latitude == 0.001
    mid = route.position_at(5.0)
    assert mid.latitude == pytest.approx(0.0005)
    assert mid.altitude_m == pytest.approx(50.0)


def _equal_values(x):
    """Values that compare equal to x but may print differently."""
    if x == 0:
        return [0.0, -0.0, 0]
    if isinstance(x, int):
        return [x, float(x)]
    return [x]


_coordinate = st.sampled_from([0.0, -0.0, 0, 2560, -3]) | st.floats(-1e4, 1e4)


@st.composite
def _dwell_routes(draw):
    """Three waypoints: a move, then a dwell between equal positions."""
    start = LatLonAlt(*(draw(_coordinate) for _ in range(3)))
    a = [draw(_coordinate) for _ in range(3)]
    b = [draw(st.sampled_from(_equal_values(x))) for x in a]
    t0 = draw(st.floats(0.0, 1e5))
    t1 = t0 + draw(st.floats(1e-3, 1e5))
    t2 = t1 + draw(st.floats(1e-3, 1e5))
    waypoints = (
        Waypoint(t0, start),
        Waypoint(t1, LatLonAlt(*a)),
        Waypoint(t2, LatLonAlt(*b)),
    )
    return Route(waypoints=waypoints)


@settings(max_examples=300, deadline=None)
@given(route=_dwell_routes(), frac=st.floats(0.0, 1.0))
def test_dwell_position_is_the_interpolation_bit_for_bit(route, frac):
    _, before, after = route.waypoints
    t = before.time_s + frac * (after.time_s - before.time_s)
    if not before.time_s < t < after.time_s:
        t = before.time_s + (after.time_s - before.time_s) / 2
    f = (t - before.time_s) / (after.time_s - before.time_s)
    a, b = before.position, after.position
    expected = (
        a.latitude + f * (b.latitude - a.latitude),
        a.longitude + f * (b.longitude - a.longitude),
        a.altitude_m + f * (b.altitude_m - a.altitude_m),
    )
    # float.hex tells 0.0 from -0.0 and refuses an int left over from a waypoint.
    assert [float.hex(v) for v in route.position_at(t)] == [float.hex(v) for v in expected]
