"""Flooding router behavior: dedup, hop accounting, contention backoff."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshsim.mesh import (
    DEDUP_CAPACITY,
    DEDUP_TTL_S,
    ActionKind,
    ContentionParams,
    DedupCache,
    MeshPacket,
    NodeRole,
    Port,
    RouterState,
    RxMetadata,
    backoff_delay_s,
    default_slot_time_s,
)
from meshsim.phy import RadioConfig


def make_packet(origin="nodeA", packet_id=7, hop_limit=2, port=Port.TELEMETRY_APP):
    return MeshPacket(
        origin=origin, packet_id=packet_id, port=port, hop_limit=hop_limit, payload=b"x"
    )


def rx_at(time_s, snr_db=5.0):
    return RxMetadata(time_s=time_s, rssi_dbm=-100.0, snr_db=snr_db)


# --- packet validation ----------------------------------------------------


def test_packet_rejects_out_of_range_fields():
    with pytest.raises(ValueError):
        make_packet(hop_limit=8)
    with pytest.raises(ValueError):
        make_packet(hop_limit=-1)
    with pytest.raises(ValueError):
        make_packet(packet_id=1 << 32)
    with pytest.raises(ValueError):
        MeshPacket(
            origin="a",
            packet_id=1,
            port=Port.TEXT_MESSAGE_APP,
            hop_limit=1,
            payload=b"y" * 238,
        )


def test_packet_accepts_max_payload():
    MeshPacket(
        origin="a", packet_id=1, port=Port.TEXT_MESSAGE_APP, hop_limit=1,
        payload=b"y" * 237,
    )


# --- dedup cache ------------------------------------------------------------


def test_dedup_remembers_within_ttl():
    cache = DedupCache()
    cache.insert(("a", 1), now_s=0.0)
    assert cache.contains(("a", 1), now_s=DEDUP_TTL_S - 1)
    assert not cache.contains(("a", 2), now_s=1.0)


def test_dedup_expires_after_ttl():
    cache = DedupCache()
    cache.insert(("a", 1), now_s=0.0)
    assert not cache.contains(("a", 1), now_s=DEDUP_TTL_S + 0.001)


def test_dedup_refresh_does_not_extend_from_lookup():
    # contains() is a pure query; only insert() refreshes the entry.
    cache = DedupCache()
    cache.insert(("a", 1), now_s=0.0)
    assert cache.contains(("a", 1), now_s=DEDUP_TTL_S / 2)
    assert not cache.contains(("a", 1), now_s=DEDUP_TTL_S + 1)


def test_dedup_evicts_oldest_when_full():
    cache = DedupCache(ttl_s=1e9)
    for i in range(DEDUP_CAPACITY):
        cache.insert(("a", i), now_s=float(i))
    assert cache.contains(("a", 0), now_s=0.0)
    cache.insert(("a", DEDUP_CAPACITY), now_s=float(DEDUP_CAPACITY))
    assert not cache.contains(("a", 0), now_s=0.0)
    assert cache.contains(("a", 1), now_s=0.0)
    assert len(cache) == DEDUP_CAPACITY


# --- packet id sequence ------------------------------------------------------


def test_packet_ids_unique_over_many_originations():
    state = RouterState("n1", NodeRole.CLIENT)
    ids = {state.next_packet_id() for _ in range(10_000)}
    assert len(ids) == 10_000


def test_packet_id_wraps_at_32_bits():
    state = RouterState("n1", NodeRole.CLIENT, first_packet_id=(1 << 32) - 1)
    assert state.next_packet_id() == (1 << 32) - 1
    assert state.next_packet_id() == 0


# --- origination -------------------------------------------------------------


def test_originate_spends_one_hop():
    state = RouterState("n1", NodeRole.CLIENT)
    packet = state.originate(Port.TEXT_MESSAGE_APP, b"hi", hop_limit=3, now_s=0.0)
    assert packet.hop_limit == 2
    assert packet.origin == "n1"


def test_originate_at_zero_hop_floor():
    state = RouterState("n1", NodeRole.CLIENT)
    packet = state.originate(Port.TEXT_MESSAGE_APP, b"hi", hop_limit=0, now_s=0.0)
    assert packet.hop_limit == 0


def test_originator_drops_own_echo():
    state = RouterState("n1", NodeRole.CLIENT)
    packet = state.originate(Port.TEXT_MESSAGE_APP, b"hi", hop_limit=3, now_s=0.0)
    actions = state.on_receive(packet, rx_at(1.0))
    assert [a.kind for a in actions] == [ActionKind.DROP_DUPLICATE]


# --- on_receive contract ------------------------------------------------------


def test_client_delivers_and_rebroadcasts():
    state = RouterState("n2", NodeRole.CLIENT)
    actions = state.on_receive(make_packet(hop_limit=2), rx_at(0.0))
    kinds = [a.kind for a in actions]
    assert kinds == [ActionKind.DELIVER_TO_APP, ActionKind.SCHEDULE_REBROADCAST]
    copy = actions[-1].packet
    assert copy.hop_limit == 1
    assert (copy.origin, copy.packet_id) == ("nodeA", 7)
    assert actions[-1].delay_s >= 0.0


def test_gateway_adds_uplink_action():
    state = RouterState("gw", NodeRole.GATEWAY)
    actions = state.on_receive(make_packet(hop_limit=2), rx_at(0.0))
    kinds = [a.kind for a in actions]
    assert kinds == [
        ActionKind.DELIVER_TO_APP,
        ActionKind.EMIT_UPLINK,
        ActionKind.SCHEDULE_REBROADCAST,
    ]


def test_exhausted_hop_still_delivers_but_stops():
    state = RouterState("n2", NodeRole.ROUTER)
    actions = state.on_receive(make_packet(hop_limit=0), rx_at(0.0))
    assert [a.kind for a in actions] == [ActionKind.DELIVER_TO_APP]


def test_duplicate_is_dropped_silently():
    state = RouterState("n2", NodeRole.GATEWAY)
    packet = make_packet(hop_limit=2)
    state.on_receive(packet, rx_at(0.0))
    again = state.on_receive(packet, rx_at(5.0))
    assert [a.kind for a in again] == [ActionKind.DROP_DUPLICATE]


def test_duplicate_matches_on_origin_and_id_only():
    # The rebroadcast copy differs in hop_limit but is the same packet.
    state = RouterState("n2", NodeRole.CLIENT)
    state.on_receive(make_packet(hop_limit=2), rx_at(0.0))
    echo = make_packet(hop_limit=1)
    assert [a.kind for a in state.on_receive(echo, rx_at(0.5))] == [
        ActionKind.DROP_DUPLICATE
    ]


def test_every_role_rebroadcasts_while_hops_remain():
    # Every role floods on the same hop budget rule.
    for role in NodeRole:
        for hop_limit, floods in ((1, True), (0, False)):
            actions = RouterState("n", role).on_receive(make_packet(hop_limit=hop_limit), rx_at(0.0))
            scheduled = any(a.kind is ActionKind.SCHEDULE_REBROADCAST for a in actions)
            assert scheduled is floods, (role, hop_limit)


# --- contention backoff ------------------------------------------------------


def test_default_slot_time_sf11():
    # ceil(8.5 * 16.384 ms) = 140 ms on the default radio.
    assert default_slot_time_s(RadioConfig()) == 0.140


def test_backoff_window_bounds():
    params = ContentionParams()
    slot = 0.140
    rng = random.Random(1)
    low = {
        backoff_delay_s(-30.0, NodeRole.ROUTER, rng, params, slot) for _ in range(500)
    }
    high = {
        backoff_delay_s(15.0, NodeRole.CLIENT, rng, params, slot) for _ in range(500)
    }
    # Floor SNR, router role: window is 0..2 slots.
    assert low == {0.0, slot, 2 * slot}
    # Ceiling SNR, client role: window is 0..8 slots.
    assert high == {i * slot for i in range(9)}


def test_backoff_is_slot_aligned():
    params = ContentionParams()
    rng = random.Random(2)
    for _ in range(200):
        delay = backoff_delay_s(-3.0, NodeRole.CLIENT, rng, params, 0.140)
        assert delay / 0.140 == pytest.approx(round(delay / 0.140))


def test_backoff_widens_with_snr():
    params = ContentionParams()
    means = []
    for snr in (-20.0, -10.0, 0.0, 10.0):
        rng = random.Random(99)
        draws = [
            backoff_delay_s(snr, NodeRole.CLIENT, rng, params, 0.140)
            for _ in range(20_000)
        ]
        means.append(sum(draws) / len(draws))
    assert means == sorted(means)
    assert means[-1] > means[0]


def test_backoff_roles_order():
    # Infrastructure roles contend in a tighter window than clients.
    params = ContentionParams()
    for snr in (-20.0, 0.0, 10.0):
        rng_r = random.Random(7)
        rng_c = random.Random(7)
        mean_r = sum(
            backoff_delay_s(snr, NodeRole.ROUTER, rng_r, params, 0.140)
            for _ in range(20_000)
        )
        mean_c = sum(
            backoff_delay_s(snr, NodeRole.CLIENT, rng_c, params, 0.140)
            for _ in range(20_000)
        )
        assert mean_r <= mean_c


@pytest.mark.parametrize("snr_min, snr_max", [(-20.0, -20.0), (10.0, -20.0)])
def test_contention_rejects_empty_snr_span(snr_min, snr_max):
    # backoff_delay_s divides by the span, so it must be positive.
    with pytest.raises(ValueError, match="snr_min_db"):
        ContentionParams(snr_min_db=snr_min, snr_max_db=snr_max)


def test_backoff_deterministic_for_seeded_rng():
    params = ContentionParams()
    a = [
        backoff_delay_s(0.0, NodeRole.CLIENT, random.Random(5), params, 0.140)
        for _ in range(10)
    ]
    b = [
        backoff_delay_s(0.0, NodeRole.CLIENT, random.Random(5), params, 0.140)
        for _ in range(10)
    ]
    assert a == b


@given(
    snr=st.floats(min_value=-40.0, max_value=40.0),
    role=st.sampled_from(list(NodeRole)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backoff_within_role_window(snr, role, seed):
    params = ContentionParams()
    delay = backoff_delay_s(snr, role, random.Random(seed), params, 0.140)
    _, cw_max = params.windows[role]
    assert 0.0 <= delay <= cw_max * 0.140


@given(hop=st.integers(min_value=0, max_value=7))
def test_second_receive_always_drops(hop):
    state = RouterState("n", NodeRole.ROUTER)
    packet = make_packet(hop_limit=hop)
    state.on_receive(packet, rx_at(0.0))
    assert [a.kind for a in state.on_receive(packet, rx_at(0.1))] == [
        ActionKind.DROP_DUPLICATE
    ]
