"""Event-loop behavior: collisions, busy receivers, floods, conservation."""

import dataclasses
import math
import random

import pytest
from conftest import flood_oracle
from hypothesis import given
from hypothesis import strategies as st

from meshsim import engine
from meshsim.engine import derive_seed, judge, link_overrides
from meshsim.geo import LatLonAlt, node_distance_m, offset_position
from meshsim.mesh import MeshPacket, NodeRole, Port
from meshsim.phy import EnvironmentClass, RadioConfig, Terrain, sensitivity_dbm, time_on_air_s
from meshsim.report import ReceptionOutcome
from meshsim.scenarios import (
    REFERENCE_LOSS_915_DB,
    EnvBand,
    LinkOverride,
    NodeSpec,
    Route,
    Scenario,
    Waypoint,
    campus_scenario,
    cumbre_scenario,
    k4_scenario,
    line_scenario,
)
from meshsim.telemetry import AppSchedule, PayloadSource


def outcome_of(report, transmitter, receiver):
    return [
        r.outcome
        for r in report.receptions
        if r.transmitter == transmitter and r.receiver == receiver
    ]


# --- seed derivation ----------------------------------------------------------


def test_derive_seed_is_stable_and_stream_separated():
    a = derive_seed(42, "backoff", "node1")
    assert a == derive_seed(42, "backoff", "node1")
    assert a != derive_seed(42, "backoff", "node2")
    assert a != derive_seed(42, "shadow", "node1")
    assert a != derive_seed(43, "backoff", "node1")


# --- shadowing draws -------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    sizes=st.lists(st.integers(min_value=0, max_value=9), max_size=12),
    sigma=st.floats(min_value=0.1, max_value=12.0).filter(lambda s: s != 1.0),
)
def test_normals_are_gauss_bit_for_bit(seed, sizes, sigma):
    rng, ref = random.Random(seed), random.Random(seed)
    normals = engine._Normals(rng)
    # propagate scales a normal as gauss does: mu + z * sigma with mu 0.0.
    got = [0.0 + z * sigma for n in sizes for z in normals.take(n)]
    want = [ref.gauss(0.0, sigma) for _ in range(sum(sizes))]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert rng.getstate()[:2] == ref.getstate()[:2]
    # The odd value of the last pair waits for the next frame, as gauss_next does.
    assert normals.spare == ref.getstate()[2]


# --- link table -----------------------------------------------------------------


def test_link_table_symmetric_and_directed():
    sym = LinkOverride(a="x", b="y", distance_m=100.0)
    directed = LinkOverride(a="y", b="x", distance_m=50.0, directed=True)
    table = link_overrides([sym, directed])
    assert table[("x", "y")].distance_m == 100.0
    # Directed entry wins for its own direction only.
    assert table[("y", "x")].distance_m == 50.0
    assert ("x", "z") not in table


# --- collision resolution ---------------------------------------------------------


DECODED, COLLIDED = ReceptionOutcome.DECODED, ReceptionOutcome.COLLIDED


def test_capture_ten_db_gap():
    assert judge(DECODED, -70.0, [-80.0], False, 6.0) is DECODED
    assert judge(DECODED, -80.0, [-70.0], False, 6.0) is COLLIDED


def test_equal_power_destroys_both():
    assert judge(DECODED, -75.0, [-75.0], False, 6.0) is COLLIDED


def test_capture_threshold_is_inclusive():
    assert judge(DECODED, -70.0, [-76.0], False, 6.0) is DECODED
    assert judge(DECODED, -76.0, [-70.0], False, 6.0) is COLLIDED
    assert judge(DECODED, -70.0, [-75.9], False, 6.0) is COLLIDED
    assert judge(DECODED, -75.9, [-70.0], False, 6.0) is COLLIDED


def test_dominance_cannot_rescue_undecodable_frame():
    strong = ReceptionOutcome.BELOW_SENSITIVITY
    assert judge(strong, -70.0, [-90.0], False, 6.0) is COLLIDED
    assert judge(DECODED, -90.0, [-70.0], False, 6.0) is COLLIDED


def test_singleton_passes_through():
    lone = ReceptionOutcome.BELOW_SENSITIVITY
    assert judge(lone, -120.0, [], False, 6.0) is lone


def test_three_way_pileup():
    # Top clears mid by 7 dB: survives. Mid and low lose.
    assert judge(DECODED, -60.0, [-67.0, -80.0], False, 6.0) is DECODED
    assert judge(DECODED, -67.0, [-60.0, -80.0], False, 6.0) is COLLIDED
    assert judge(DECODED, -80.0, [-60.0, -67.0], False, 6.0) is COLLIDED


def test_busy_receiver_hears_nothing():
    # A transmitting radio loses even a dominant frame that would decode.
    assert judge(DECODED, -60.0, [-90.0], True, 6.0) is ReceptionOutcome.TX_BUSY
    assert judge(DECODED, -60.0, [], True, 6.0) is ReceptionOutcome.TX_BUSY


# --- small end-to-end topologies ---------------------------------------------------


def test_two_node_smoke():
    sc = line_scenario(count=2)
    report = engine.run(sc)
    # The gateway refloods the frame (hop budget left), so two TX total.
    assert report.transmissions == 2
    assert report.delivered_to_gateway == {"node0": 1}
    assert report.pdr() == {"node0": 1.0}
    assert report.hop_count_histogram == {1: 1}
    assert report.duplicates_suppressed == 1  # origin hears its echo


def test_k4_flood_matches_oracle():
    sc = k4_scenario()
    report = engine.run(sc)
    ids = [n.id for n in sc.nodes]
    adjacency = {a: {b for b in ids if b != a} for a in ids}
    tx_expected, delivered = flood_oracle(adjacency, "node0", sc.radio.hop_limit)
    assert report.transmissions == tx_expected == 4
    assert dict(report.app_deliveries) == {n: 1 for n in delivered}
    assert dict(report.hop_count_histogram) == {1: 3}
    assert report.delivered_to_gateway == {"node0": 1}
    # At least one rebroadcast copy decodes cleanly at a node that already
    # has the packet, so dedup (not collision) is what stops the flood.
    assert report.duplicates_suppressed >= 2


def test_line5_flood_matches_oracle():
    sc = line_scenario(count=5)
    sc = sc.replace(outputs=sc.outputs | {"report"})
    report = engine.run(sc)
    ids = [n.id for n in sc.nodes]
    adjacency = {
        a: {b for b in ids if abs(ids.index(a) - ids.index(b)) == 1} for a in ids
    }
    tx_expected, delivered = flood_oracle(adjacency, "node0", sc.radio.hop_limit)
    assert report.transmissions == tx_expected == 3
    assert dict(report.app_deliveries) == {k: 1 for k in delivered}
    assert dict(report.hop_count_histogram) == {1: 1, 2: 1, 3: 1}
    # node4 sits one hop past the budget: nothing decodable ever reaches it.
    n4 = [r for r in report.receptions if r.receiver == "node4"]
    assert n4 and all(r.outcome is ReceptionOutcome.BELOW_SENSITIVITY for r in n4)
    assert report.delivered_to_gateway == {}


def test_line4_duplicates_are_suppressed():
    report = engine.run(line_scenario(count=4))
    # node0 hears node1's copy back, node1 hears node2's.
    assert report.duplicates_suppressed == 2


# --- busy receivers ------------------------------------------------------------------


def test_simultaneous_transmitters_miss_each_other():
    sc = k4_scenario()
    shot = AppSchedule(
        Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=1e9, text="pong"
    )
    node1 = sc.nodes[1]
    sc = sc.replace(
        nodes=(
            sc.nodes[0],
            NodeSpec(
                id=node1.id,
                name=node1.name,
                role=node1.role,
                position=node1.position,
                apps=(shot,),
            ),
        )
        + sc.nodes[2:],
        outputs=sc.outputs | {"report"},
    )
    report = engine.run(sc)
    assert outcome_of(report, "node0", "node1") == [ReceptionOutcome.TX_BUSY]
    assert outcome_of(report, "node1", "node0") == [ReceptionOutcome.TX_BUSY]
    # Their frames overlap with comparable power at the other two nodes.
    assert ReceptionOutcome.COLLIDED in outcome_of(report, "node0", "node2")


def test_frames_longer_than_a_minute_still_collide():
    # At SF12 and 7.8 kHz a short frame ends long before a long frame it
    # overlapped; the overlap destroys both however long ago it began.
    radio = RadioConfig(spreading_factor=12, bandwidth_hz=7800.0, hop_limit=0)
    sc = k4_scenario()
    sends = {"node1": (0.0, "ping"), "node0": (1.0, "x" * 200)}
    nodes = []
    for node in sc.nodes:
        apps = ()
        if node.id in sends:
            start, text = sends[node.id]
            apps = (
                AppSchedule(
                    Port.TEXT_MESSAGE_APP,
                    PayloadSource.TEXT_FIXED,
                    period_s=1e9,
                    start_offset_s=start,
                    text=text,
                ),
            )
        nodes.append(
            NodeSpec(
                id=node.id, name=node.name, role=node.role, position=node.position, apps=apps
            )
        )
    sc = sc.replace(
        radio=radio, duration_s=300.0, nodes=tuple(nodes), outputs=sc.outputs | {"report"}
    )

    intervals = {
        nid: (start, start + time_on_air_s(len(text.encode()), radio))
        for nid, (start, text) in sends.items()
    }
    (s1, e1), (s0, e0) = intervals["node1"], intervals["node0"]
    assert s1 < e0 and s0 < e1
    assert e0 - s0 > 60.0
    positions = {n.id: n.position for n in sc.nodes}
    exponent = sc.default_env[0].env.path_loss_exponent
    for rx in ("node2", "node3"):
        # Same transmit power, no shadowing: the gap is the path-loss difference.
        d0 = node_distance_m(positions["node0"], positions[rx])
        d1 = node_distance_m(positions["node1"], positions[rx])
        gap_db = abs(10.0 * exponent * math.log10(d0 / d1))
        assert gap_db < sc.capture_threshold_db

    report = engine.run(sc)
    for tx in ("node0", "node1"):
        for rx in ("node2", "node3"):
            assert outcome_of(report, tx, rx) == [ReceptionOutcome.COLLIDED]


def test_start_while_busy_waits_for_the_radio():
    # Two single-shot apps on node0 both start at t = 0; the second frame's
    # TX_START finds the radio busy and is queued again at the first's end.
    sc = k4_scenario()
    texts = ("ping", "pong")
    node0 = dataclasses.replace(
        sc.nodes[0],
        apps=tuple(
            AppSchedule(Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=1e9, text=t)
            for t in texts
        ),
    )
    report = engine.run(sc.replace(nodes=(node0,) + sc.nodes[1:]), collect_trace=True)
    end_ns = round(time_on_air_s(len(texts[0]), RadioConfig()) * 1e9)
    assert end_ns == 544_768_000
    starts = [line.split()[0] for line in report.trace if " TX_START node=node0 " in line]
    assert starts == ["t=0.000000", "t=0.000000", f"t={end_ns / 1e9:.6f}"]
    assert sum(" TX_END node=node0 " in line for line in report.trace) == 2


# --- conservation and accounting ------------------------------------------------------


@pytest.mark.parametrize("name", ["campus", "cumbre", "line4", "k4"])
def test_candidate_conservation(name):
    from meshsim.scenarios import BUILTIN_SCENARIOS

    sc = BUILTIN_SCENARIOS[name]()
    sc = sc.replace(outputs=sc.outputs | {"report"})
    report = engine.run(sc)
    candidates = report.decoded + report.collided + report.below_sensitivity + report.tx_busy
    assert candidates == report.transmissions * (len(sc.nodes) - 1)
    assert len(report.receptions) == report.transmissions * (len(sc.nodes) - 1)


def test_airtime_fraction_single_frame():
    sc = k4_scenario()
    report = engine.run(sc)
    probe = sc.nodes[0].apps[0].text.encode("utf-8")
    toa = time_on_air_s(len(probe), sc.radio)
    assert report.airtime_busy_fraction["node0"] == pytest.approx(
        toa / sc.duration_s, rel=1e-9
    )
    for node in ("node1", "node2", "node3"):
        assert report.airtime_busy_fraction[node] > 0.0


def test_airtime_clipped_to_duration():
    # One frame launched right at the end: only the in-window slice counts.
    sc = k4_scenario()
    app = AppSchedule(
        Port.TEXT_MESSAGE_APP,
        PayloadSource.TEXT_FIXED,
        period_s=1e9,
        start_offset_s=sc.duration_s,
    )
    node0 = sc.nodes[0]
    sc = sc.replace(
        nodes=(
            NodeSpec(
                id=node0.id,
                name=node0.name,
                role=node0.role,
                position=node0.position,
                apps=(app,),
            ),
        )
        + sc.nodes[1:]
    )
    report = engine.run(sc)
    assert report.airtime_busy_fraction["node0"] == 0.0


def test_gateway_delivery_carries_rx_metadata():
    report = engine.run(k4_scenario())
    (delivery,) = report.gateway_deliveries
    assert delivery.gateway_id == "node3"
    assert delivery.packet.origin == "node0"
    assert delivery.rx.rssi_dbm < 0
    assert delivery.rx.time_s > 0


# --- propagation table ------------------------------------------------------------------


def test_link_override_pins_distance():
    sc = line_scenario(count=2)
    sc = sc.replace(
        links=(LinkOverride(a="node0", b="node1", distance_m=5e6),),
        outputs=sc.outputs | {"report"},
    )
    report = engine.run(sc)
    (rec,) = [r for r in report.receptions if r.receiver == "node1"]
    assert rec.distance_m == 5e6
    assert rec.outcome is ReceptionOutcome.BELOW_SENSITIVITY
    assert rec.rssi_dbm < sensitivity_dbm(RadioConfig())


def test_receiver_decides_with_its_own_radio():
    # node0 reaches node1 and node2 over the same pinned free-space link.
    # node2's radio has an 11 dB noise figure instead of the default 6 dB,
    # which lifts its sensitivity above an RSSI that node1 still decodes.
    noise_floor = {nf: -174.0 + 10.0 * math.log10(125e3) + nf for nf in (6.0, 11.0)}
    sf11_snr_floor = -17.5
    target = noise_floor[6.0] + sf11_snr_floor + 2.5
    distance = 10.0 ** ((22.0 - REFERENCE_LOSS_915_DB - target) / 20.0)
    rssi = 22.0 - (REFERENCE_LOSS_915_DB + 20.0 * math.log10(distance))
    assert noise_floor[6.0] + sf11_snr_floor < rssi < noise_floor[11.0] + sf11_snr_floor

    sc = k4_scenario()
    nodes = list(sc.nodes)
    node2 = nodes[2]
    nodes[2] = NodeSpec(
        id=node2.id,
        name=node2.name,
        role=node2.role,
        position=node2.position,
        radio=RadioConfig(noise_figure_db=11.0),
    )
    free_space = EnvironmentClass(Terrain.LOS_OPEN, 2.0, REFERENCE_LOSS_915_DB)
    links = tuple(
        LinkOverride(a="node0", b=rx, distance_m=distance, env=free_space, shadow_db=0.0)
        for rx in ("node1", "node2")
    )
    report = engine.run(
        sc.replace(nodes=tuple(nodes), links=links, outputs=sc.outputs | {"report"})
    )
    first = min(r.time_s for r in report.receptions if r.transmitter == "node0")
    got = {
        r.receiver: r
        for r in report.receptions
        if r.transmitter == "node0" and r.time_s == first
    }
    for rx, nf, outcome in (
        ("node1", 6.0, ReceptionOutcome.DECODED),
        ("node2", 11.0, ReceptionOutcome.BELOW_SENSITIVITY),
    ):
        assert got[rx].outcome is outcome
        assert got[rx].rssi_dbm == pytest.approx(rssi, abs=1e-9)
        assert got[rx].snr_db == pytest.approx(rssi - noise_floor[nf], abs=1e-9)


def test_fixed_shadow_override_is_deterministic():
    sc = line_scenario(count=2)
    sc = sc.replace(outputs=sc.outputs | {"report"})
    base = engine.run(sc).receptions[0].rssi_dbm
    shifted = sc.replace(links=(LinkOverride(a="node0", b="node1", shadow_db=7.0),))
    rssi = engine.run(shifted).receptions[0].rssi_dbm
    assert rssi == pytest.approx(base - 7.0, abs=1e-9)


def test_receive_gain_comes_from_the_receiving_radio():
    # node2 has a 6 dB receive antenna. It adds to what node2 hears and to
    # nothing node2 sends; k4 has no shadowing, so RSSI is the budget
    # minus free-space loss over the geometric distance.
    sc = k4_scenario()
    sc = sc.replace(outputs=sc.outputs | {"report"})
    positions = {n.id: n.position for n in sc.nodes}
    nodes = list(sc.nodes)
    node2 = nodes[2]
    nodes[2] = NodeSpec(
        id=node2.id,
        name=node2.name,
        role=node2.role,
        position=node2.position,
        radio=RadioConfig(antenna_gain_rx_dbi=6.0),
    )
    baseline = engine.run(sc)
    report = engine.run(sc.replace(nodes=tuple(nodes)))

    def oracle(tx, rx, gain_rx_dbi):
        d = node_distance_m(positions[tx], positions[rx])
        return 22.0 + gain_rx_dbi - (REFERENCE_LOSS_915_DB + 20.0 * math.log10(d))

    first = [r for r in report.receptions if r.time_s == report.receptions[0].time_s]
    assert {r.transmitter for r in first} == {"node0"}
    before = {r.receiver: r for r in baseline.receptions[: len(first)]}
    for rec in first:
        if rec.receiver == "node2":
            assert rec.rssi_dbm == pytest.approx(oracle("node0", "node2", 6.0), abs=1e-9)
        else:
            assert rec == before[rec.receiver]
    sent_by_node2 = [r for r in report.receptions if r.transmitter == "node2"]
    assert sent_by_node2
    for rec in sent_by_node2:
        assert rec.rssi_dbm == pytest.approx(oracle("node2", rec.receiver, 0.0), abs=1e-9)


def test_colocated_static_pair_warns_once_per_run(caplog):
    # node1 sits on node0 and sends ten frames; only node1->node0 is
    # shorter than the 1 m reference, because node0->node1 is pinned.
    sc = k4_scenario()
    node0, node1 = sc.nodes[:2]
    chatter = AppSchedule(
        Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=2.0, text="here"
    )
    sc = sc.replace(
        duration_s=19.0,
        nodes=(
            node0,
            NodeSpec(
                id=node1.id,
                name=node1.name,
                role=node1.role,
                position=node0.position,
                apps=(chatter,),
            ),
        )
        + sc.nodes[2:],
        links=(LinkOverride(a="node0", b="node1", distance_m=10.0, directed=True),),
        outputs=sc.outputs | {"report"},
    )
    with caplog.at_level("WARNING", logger="meshsim.phy"):
        report = engine.run(sc)
    clamped = [r for r in report.receptions if r.transmitter == "node1" and r.receiver == "node0"]
    assert len(clamped) >= 10
    assert {r.distance_m for r in clamped} == {0.0}
    assert sum("1 m reference" in rec.message for rec in caplog.records) == 1


_WALK_ORIGIN = LatLonAlt(-0.2, -78.5, 2560.0)


def walker_scenario(stops, period_s, duration_s, env, radio=RadioConfig()):
    """A static gateway at _WALK_ORIGIN and a client on a route through stops.

    stops are (time_s, east_m, north_m, altitude_m) waypoints; the client
    sends a short text every period_s from t = 0.
    """
    route = Route(
        waypoints=tuple(
            Waypoint(t, offset_position(_WALK_ORIGIN, east, north, alt))
            for t, east, north, alt in stops
        )
    )
    chatter = AppSchedule(
        Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=period_s, text="step"
    )
    return Scenario(
        name="walk",
        duration_s=duration_s,
        seed=3,
        nodes=(
            NodeSpec(id="gw", name="gateway", role=NodeRole.GATEWAY, position=_WALK_ORIGIN),
            NodeSpec(
                id="walker",
                name="walker",
                role=NodeRole.CLIENT,
                position=route.waypoints[0].position,
                apps=(chatter,),
                route=route,
            ),
        ),
        default_env=(EnvBand(env=env),),
        outputs=frozenset({"summary", "report"}),
        radio=radio,
    )


def test_moving_link_matches_pythagoras_and_log_distance():
    # The walker dwells at stop 1 until 100 s, walks to stop 2 by 400 s and
    # dwells there; it sends every 50 s, and a frame lasts well under a
    # second, so no two frames overlap. Distances come from the offsets the
    # stops were placed with; RSSI from the radio's and environment's numbers.
    stop1, stop2 = (300.0, 400.0, 2600.0), (-600.0, 800.0, 2500.0)
    stops = ((0.0, *stop1), (100.0, *stop1), (400.0, *stop2), (600.0, *stop2))
    env = EnvironmentClass(Terrain.NLOS_BUILT, 2.9, 40.0, shadowing_sigma_db=0.0)
    radio = RadioConfig(tx_power_dbm=20.0, antenna_gain_tx_dbi=2.0, antenna_gain_rx_dbi=3.0)
    report = engine.run(walker_scenario(stops, 50.0, 600.0, env, radio))
    budget_dbm = 20.0 + 2.0 + 3.0

    def offsets_at(t):
        if t <= 100.0:
            return stop1
        if t >= 400.0:
            return stop2
        f = (t - 100.0) / 300.0
        return tuple(a + f * (b - a) for a, b in zip(stop1, stop2))

    sent = sorted(
        (r for r in report.receptions if r.transmitter == "walker"), key=lambda r: r.time_s
    )
    starts = [50.0 * k for k in range(13)]
    assert len(sent) == len(starts)
    on_the_move = [t for t in starts if 100.0 < t < 400.0]
    assert len(on_the_move) >= 2 and len(starts) - len(on_the_move) >= 2
    for rec, start in zip(sent, starts):
        east, north, alt = offsets_at(start)
        distance = math.sqrt(east**2 + north**2 + (alt - 2560.0) ** 2)
        assert rec.receiver == "gw"
        assert rec.distance_m == pytest.approx(distance, rel=1e-9)
        assert rec.rssi_dbm == pytest.approx(
            budget_dbm - (40.0 + 10.0 * 2.9 * math.log10(distance)), abs=1e-6
        )


def test_colocated_moving_pair_warns_once_per_distinct_positions(caplog):
    # The walker dwells 0.3 m east of the gateway until 50 s, then 0.3 m
    # north of it from 60 s, sending every 10 s from 0 to 90 s: six frames
    # at the first stop and four at the second, all under the 1 m
    # reference. A hop limit of 1 keeps the gateway from rebroadcasting.
    # The pair's Link is rebuilt only when a position changes, so the
    # clamp warns once per stop, not once per frame.
    stops = (
        (0.0, 0.3, 0.0, 2560.0),
        (50.0, 0.3, 0.0, 2560.0),
        (60.0, 0.0, 0.3, 2560.0),
        (100.0, 0.0, 0.3, 2560.0),
    )
    env = EnvironmentClass(Terrain.LOS_OPEN, 2.0, REFERENCE_LOSS_915_DB)
    sc = walker_scenario(stops, 10.0, 95.0, env, RadioConfig(hop_limit=1))
    with caplog.at_level("WARNING", logger="meshsim.phy"):
        report = engine.run(sc)
    clamped = [r for r in report.receptions if r.transmitter == "walker"]
    assert len(clamped) == 10
    assert all(r.distance_m < 1.0 for r in clamped)
    assert sum("1 m reference" in rec.message for rec in caplog.records) == 2


def test_app_emissions_wait_on_the_heap_one_at_a_time(monkeypatch):
    sc = campus_scenario().replace(duration_s=3600.0)
    apps_of = {node.id: len(node.apps) for node in sc.nodes}
    assert sum(apps_of.values()) > 1
    real_push = engine.heapq.heappush
    peak: dict[str, int] = {}

    def push(heap, item):
        real_push(heap, item)
        queued: dict[str, int] = {}
        for event in heap:
            if event.kind is engine.EventKind.APP_EMIT:
                queued[event.subject] = queued.get(event.subject, 0) + 1
        for node, count in queued.items():
            peak[node] = max(peak.get(node, 0), count)

    monkeypatch.setattr(engine.heapq, "heappush", push)
    report = engine.run(sc)
    assert sum(report.originated.values()) > len(peak)
    assert peak == {node: n for node, n in apps_of.items() if n}


# --- determinism and trace ---------------------------------------------------------------


def test_trace_is_ordered_and_complete():
    report = engine.run(campus_scenario(), collect_trace=True)
    times = []
    seqs = []
    for line in report.trace:
        fields = dict(
            part.split("=", 1) for part in line.split() if "=" in part
        )
        times.append(float(fields["t"]))
        seqs.append(int(fields["seq"]))
    assert times == sorted(times)
    assert len(set(seqs)) == len(seqs)
    assert any("APP_EMIT" in line for line in report.trace)
    assert any("TX_END" in line for line in report.trace)


def test_same_seed_same_history():
    a = engine.run(cumbre_scenario(), collect_trace=True)
    b = engine.run(cumbre_scenario(), collect_trace=True)
    assert a.trace == b.trace
    assert a.summary_dict() == b.summary_dict()


def test_different_seed_different_history():
    sc = cumbre_scenario()
    sc = sc.replace(outputs=sc.outputs | {"report"})
    a = engine.run(sc)
    b = engine.run(sc.replace(seed=sc.seed + 1))
    rssi_a = [r.rssi_dbm for r in a.receptions[:50]]
    rssi_b = [r.rssi_dbm for r in b.receptions[:50]]
    assert rssi_a != rssi_b  # shadowing draws come from the seed


def test_hop_histogram_campus_is_single_hop():
    # Every campus pair is within direct range, so floods always deliver
    # the original frame first.
    report = engine.run(campus_scenario())
    assert set(report.hop_count_histogram) == {1}


def test_report_serialization_is_sorted_and_rounded():
    sc = k4_scenario()
    report = engine.run(sc.replace(outputs=sc.outputs | {"report"}))
    summary = report.summary_dict()
    assert list(summary["originated"]) == sorted(summary["originated"])
    as_dict = report.to_dict()
    assert len(as_dict["receptions"]) == len(report.receptions)
    rec = as_dict["receptions"][0]
    assert rec["rssi_dbm"] == round(rec["rssi_dbm"], 6)
