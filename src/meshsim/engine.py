"""Deterministic discrete-event radio simulation.

Time lives on an integer nanosecond clock; events are ordered by
(time, insertion sequence), so two runs with the same scenario and seed
replay the exact same history. The channel model is per-frame: every
transmission produces one reception candidate per other node. Each frame
collects every frame it overlapped in time, however long, and when it
ends each candidate is judged against that set: a receiver that sent one
of them was busy, and otherwise the frame survives only with a clear
capture margin over the strongest of them.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO

from .geo import LatLonAlt, node_distance_m
from .mesh import (
    ActionKind,
    MeshPacket,
    RouterState,
    RxMetadata,
    default_slot_time_s,
)
from .phy import (
    EnvironmentClass,
    RadioConfig,
    link_budget_dbm,
    noise_floor_dbm,
    path_loss_db,
    sensitivity_dbm,
    serial_sum,
    time_on_air_s,
)
from .scenarios import (
    NS_PER_S,
    EnvBand,
    LinkOverride,
    NodeSpec,
    Route,
    Scenario,
    ScenarioError,
)
from . import telemetry

__all__ = [
    "Event",
    "EventKind",
    "GatewayDelivery",
    "Link",
    "ReceptionOutcome",
    "ReceptionRecord",
    "SimReport",
    "derive_seed",
    "judge",
    "link_overrides",
    "propagate",
    "run",
]


def derive_seed(master: int, *tags: object) -> int:
    """Stable per-stream seed derivation, independent of hash randomization."""
    text = ":".join([str(master), *map(str, tags)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ReceptionOutcome(Enum):
    DECODED = "DECODED"
    BELOW_SENSITIVITY = "BELOW_SENSITIVITY"
    COLLIDED = "COLLIDED"
    TX_BUSY = "TX_BUSY"


class EventKind(Enum):
    APP_EMIT = "APP_EMIT"
    TX_START = "TX_START"
    TX_END = "TX_END"
    REBROADCAST_FIRE = "REBROADCAST_FIRE"


@dataclass(frozen=True)
class Event:
    """One scheduled action; data carries the kind-specific payload."""

    time_ns: int
    seq: int
    kind: EventKind
    subject: str
    packet: MeshPacket | None = None
    data: Any = None

    @property
    def time_s(self) -> float:
        return self.time_ns / NS_PER_S


def link_overrides(links: Iterable[LinkOverride]) -> dict[tuple[str, str], LinkOverride]:
    """Channel overrides by (transmitter, receiver).

    A symmetric entry covers both directions; a directed entry then
    replaces it for its own direction. Among equal keys the later wins.
    """
    table: dict[tuple[str, str], LinkOverride] = {}
    for ov in links:
        if not ov.directed:
            table[(ov.a, ov.b)] = table[(ov.b, ov.a)] = ov
    for ov in links:
        if ov.directed:
            table[(ov.a, ov.b)] = ov
    return table


@dataclass(slots=True)
class ReceptionRecord:
    """One transmitter-receiver candidate for one frame."""

    time_s: float
    transmitter: str
    receiver: str
    origin: str
    packet_id: int
    port: str
    hop_limit: int
    rssi_dbm: float
    snr_db: float
    distance_m: float
    outcome: ReceptionOutcome
    tx_position: LatLonAlt

    def to_dict(self) -> dict[str, Any]:
        return {
            "time_s": round(self.time_s, 6),
            "transmitter": self.transmitter,
            "receiver": self.receiver,
            "origin": self.origin,
            "packet_id": self.packet_id,
            "port": self.port,
            "hop_limit": self.hop_limit,
            "rssi_dbm": round(self.rssi_dbm, 6),
            "snr_db": round(self.snr_db, 6),
            "distance_m": round(self.distance_m, 6),
            "outcome": self.outcome.value,
            "tx_latitude": round(self.tx_position.latitude, 7),
            "tx_longitude": round(self.tx_position.longitude, 7),
            "tx_altitude_m": round(self.tx_position.altitude_m, 3),
        }


# ReceptionRecord.to_dict as json.dumps(indent=2, sort_keys=True) prints it
# inside the "receptions" list. A float field may hold an int (an altitude
# given as 100): repr(round(v, k)) prints both as json does. Strings are
# escaped as json's default ensure_ascii does.
def _row_json(r: ReceptionRecord, quote: Callable[[str], str], position: str) -> str:
    return (
        "    {\n"
        f'      "distance_m": {round(r.distance_m, 6)!r},\n'
        f'      "hop_limit": {r.hop_limit!r},\n'
        f'      "origin": {quote(r.origin)},\n'
        f'      "outcome": {quote(r.outcome.value)},\n'
        f'      "packet_id": {r.packet_id!r},\n'
        f'      "port": {quote(r.port)},\n'
        f'      "receiver": {quote(r.receiver)},\n'
        f'      "rssi_dbm": {round(r.rssi_dbm, 6)!r},\n'
        f'      "snr_db": {round(r.snr_db, 6)!r},\n'
        f'      "time_s": {round(r.time_s, 6)!r},\n'
        f'      "transmitter": {quote(r.transmitter)},\n'
        f"{position}"
    )


def _position_json(p: LatLonAlt) -> str:
    """The last three lines of a row, which depend on tx_position alone."""
    return (
        f'      "tx_altitude_m": {round(p.altitude_m, 3)!r},\n'
        f'      "tx_latitude": {round(p.latitude, 7)!r},\n'
        f'      "tx_longitude": {round(p.longitude, 7)!r}\n'
        "    }"
    )


@dataclass(frozen=True)
class GatewayDelivery:
    """A packet that reached a gateway's application layer."""

    time_s: float
    gateway_id: str
    packet: MeshPacket
    rx: RxMetadata


@dataclass
class SimReport:
    scenario_name: str
    seed: int
    duration_s: float
    receptions: list[ReceptionRecord] = field(default_factory=list)
    transmissions: int = 0
    duplicates_suppressed: int = 0
    originated: Counter = field(default_factory=Counter)
    delivered_to_gateway: Counter = field(default_factory=Counter)
    app_deliveries: Counter = field(default_factory=Counter)
    hop_count_histogram: Counter = field(default_factory=Counter)
    airtime_busy_fraction: dict[str, float] = field(default_factory=dict)
    gateway_deliveries: list[GatewayDelivery] = field(default_factory=list)
    trace: list[str] | None = None

    @property
    def collisions(self) -> int:
        return self.outcome_counts().get(ReceptionOutcome.COLLIDED, 0)

    def outcome_counts(self) -> Counter:
        return Counter(r.outcome for r in self.receptions)

    def link_stats(self) -> dict[str, dict[str, float]]:
        """Mean decoded RSSI/SNR per directed transmitter->receiver pair."""
        acc: dict[str, list[tuple[float, float]]] = {}
        for r in self.receptions:
            if r.outcome is ReceptionOutcome.DECODED:
                acc.setdefault(f"{r.transmitter}->{r.receiver}", []).append(
                    (r.rssi_dbm, r.snr_db)
                )
        return {
            key: {
                "frames": len(vals),
                "mean_rssi_dbm": round(serial_sum(v[0] for v in vals) / len(vals), 6),
                "mean_snr_db": round(serial_sum(v[1] for v in vals) / len(vals), 6),
            }
            for key, vals in sorted(acc.items())
        }

    def pdr(self) -> dict[str, float]:
        return {
            origin: round(self.delivered_to_gateway.get(origin, 0) / count, 6)
            for origin, count in sorted(self.originated.items())
            if count > 0
        }

    def summary_dict(self) -> dict[str, Any]:
        counts = self.outcome_counts()
        return {
            "scenario": self.scenario_name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "counts": {
                "transmissions": self.transmissions,
                "decoded": counts.get(ReceptionOutcome.DECODED, 0),
                "collided": counts.get(ReceptionOutcome.COLLIDED, 0),
                "below_sensitivity": counts.get(ReceptionOutcome.BELOW_SENSITIVITY, 0),
                # Always 0: sensitivity is already the noise floor plus the SNR floor.
                "below_snr_floor": 0,
                "tx_busy": counts.get(ReceptionOutcome.TX_BUSY, 0),
                "duplicates_suppressed": self.duplicates_suppressed,
            },
            "originated": dict(sorted(self.originated.items())),
            "delivered_to_gateway": dict(sorted(self.delivered_to_gateway.items())),
            "pdr": self.pdr(),
            "app_deliveries": dict(sorted(self.app_deliveries.items())),
            "hop_count_histogram": {
                str(k): v for k, v in sorted(self.hop_count_histogram.items())
            },
            "airtime_busy_fraction": {
                node: round(fraction, 9)
                for node, fraction in sorted(self.airtime_busy_fraction.items())
            },
            "links": self.link_stats(),
        }

    def to_dict(self) -> dict[str, Any]:
        out = self.summary_dict()
        out["receptions"] = [r.to_dict() for r in self.receptions]
        return out

    def write_json(self, handle: TextIO, summary: dict[str, Any]) -> None:
        """Write json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\\n".

        summary is self.summary_dict(); it still goes through json.dumps.
        The rows are streamed from a template instead, so no row dict and
        no whole document is ever built.
        """
        # Only a top-level key sits on a line indented by two spaces.
        head, _, tail = json.dumps(
            {**summary, "receptions": None}, indent=2, sort_keys=True
        ).partition('\n  "receptions": null')
        handle.write(head + '\n  "receptions": [')
        quote = functools.cache(encode_basestring_ascii)  # few distinct strings
        # By identity: equal positions such as 0.0 and -0.0, or 100 and
        # 100.0, print differently. The records keep every key alive.
        positions: dict[int, str] = {}
        sep = "\n"
        for r in self.receptions:
            p = r.tx_position
            position = positions.get(id(p))
            if position is None:
                position = positions[id(p)] = _position_json(p)
            handle.write(sep + _row_json(r, quote, position))
            sep = ",\n"
        handle.write(("\n  ]" if self.receptions else "]") + tail + "\n")


def env_for_distance(bands: Sequence[EnvBand], distance_m: float) -> EnvironmentClass:
    for band in bands:
        if band.max_distance_m is None or distance_m <= band.max_distance_m:
            return band.env
    return bands[-1].env


def judge(
    clean: ReceptionOutcome,
    rssi_dbm: float,
    rival_rssi_dbm: Sequence[float],
    busy: bool,
    capture_threshold_db: float,
) -> ReceptionOutcome:
    """Final outcome of one candidate, given the frames it overlapped.

    clean is the outcome the frame would have alone and rival_rssi_dbm
    the power of every other frame heard during it. A receiver that was
    transmitting (busy) hears nothing. Otherwise a frame with rivals
    survives only when it would have decoded alone and its RSSI clears
    the strongest rival by the capture threshold; every other overlapped
    frame is a collision loss.
    """
    if busy:
        return ReceptionOutcome.TX_BUSY
    if not rival_rssi_dbm:
        return clean
    if (
        clean is ReceptionOutcome.DECODED
        and rssi_dbm >= max(rival_rssi_dbm) + capture_threshold_db
    ):
        return ReceptionOutcome.DECODED
    return ReceptionOutcome.COLLIDED


class Link(NamedTuple):
    """One directed link's channel; shadow_db None means a draw from N(0, sigma_db) per frame."""

    distance_m: float
    mean_loss_db: float
    shadow_db: float | None
    sigma_db: float
    budget_dbm: float
    noise_floor_dbm: float
    sensitivity_dbm: float


def propagate(
    transmitter: str,
    packet: MeshPacket,
    end_time_s: float,
    tx_position: LatLonAlt,
    links: Mapping[str, Link],
    rng: random.Random,
) -> list[ReceptionRecord]:
    """Compute the reception candidate at every receiver of one frame.

    links maps each receiver, in node order, to its channel from the
    sender; each shadowing draw comes from rng in that order. The
    receiving radio decides alone: the frame decodes when its RSSI
    reaches that radio's sensitivity, and SNR is taken against that
    radio's noise floor. Half-duplex losses and collisions are judged
    later, once all overlapping frames are known.
    """
    decoded, weak = ReceptionOutcome.DECODED, ReceptionOutcome.BELOW_SENSITIVITY
    port = packet.port.value
    records: list[ReceptionRecord] = []
    for receiver, (distance, mean_loss, shadow, sigma, budget, noise, sensitivity) in links.items():
        if shadow is None:
            shadow = rng.gauss(0.0, sigma)
        # Same terms in the same order as path_loss_db and link_budget_dbm.
        rssi = budget - (mean_loss + shadow)
        outcome = decoded if rssi >= sensitivity else weak
        records.append(
            ReceptionRecord(
                end_time_s, transmitter, receiver, packet.origin, packet.packet_id, port,
                packet.hop_limit, rssi, rssi - noise, distance, outcome, tx_position,
            )
        )
    return records


class _AirFrame:
    """A frame in flight, its per-receiver candidates and the frames it overlapped."""

    __slots__ = ("transmitter", "packet", "end_ns", "candidates", "rssi_at", "rivals")

    def __init__(
        self,
        transmitter: str,
        packet: MeshPacket,
        end_ns: int,
        candidates: list[ReceptionRecord],
    ):
        self.transmitter = transmitter
        self.packet = packet
        self.end_ns = end_ns
        self.candidates = candidates
        self.rssi_at = {c.receiver: c.rssi_dbm for c in candidates}
        self.rivals: list[_AirFrame] = []


class _NodeRuntime:
    __slots__ = ("spec", "radio", "state", "route", "busy_until_ns", "airtime_ns")

    def __init__(self, spec: NodeSpec, radio: RadioConfig, state: RouterState, route: Route | None):
        self.spec = spec
        self.radio = radio
        self.state = state
        self.route = route
        self.busy_until_ns = 0
        self.airtime_ns = 0  # time on air inside [0, duration]

    def position_at(self, time_s: float) -> LatLonAlt:
        if self.route is not None:
            return self.route.position_at(time_s)
        return self.spec.position


class _Simulation:
    def __init__(self, scenario: Scenario, collect_trace: bool):
        self.scenario = scenario
        self.duration_ns = round(scenario.duration_s * NS_PER_S)
        self.links = link_overrides(scenario.links)
        self.shadow_rng = random.Random(derive_seed(scenario.seed, "shadow"))
        self.heap: list[tuple[int, int, Event]] = []
        self.seq = 0
        self.on_air: list[_AirFrame] = []
        self.flood_initial_hop: dict[tuple[str, int], int] = {}
        self.report = SimReport(
            scenario_name=scenario.name,
            seed=scenario.seed,
            duration_s=scenario.duration_s,
            trace=[] if collect_trace else None,
        )
        self.nodes: dict[str, _NodeRuntime] = {}
        for spec in scenario.nodes:
            radio = scenario.node_radio(spec)
            state = RouterState(
                spec.id,
                spec.role,
                rng=random.Random(derive_seed(scenario.seed, "backoff", spec.id)),
                first_packet_id=derive_seed(scenario.seed, "pktid", spec.id) % (1 << 32),
                contention=scenario.contention,
                slot_time_s=default_slot_time_s(radio),
            )
            self.nodes[spec.id] = _NodeRuntime(
                spec, radio, state, scenario.node_route(spec)
            )
        # One Link per directed pair, receivers in node order, built once.
        # A pair with a moving end holds None and is rebuilt at every frame.
        moving = {nid for nid, rt in self.nodes.items() if rt.route is not None}
        self.moving = bool(moving)
        fixed = {nid: rt.spec.position for nid, rt in self.nodes.items()}
        self.table = {
            tx: {rx: None if moving & {tx, rx} else self.link(tx, rx, fixed)
                 for rx in self.nodes if rx != tx}
            for tx in self.nodes
        }

    def link(self, tx: str, rx: str, positions: Mapping[str, LatLonAlt]) -> Link:
        override = self.links.get((tx, rx))
        if override is not None and override.distance_m is not None:
            distance = override.distance_m
        else:
            distance = node_distance_m(positions[tx], positions[rx])
        if override is not None and override.env is not None:
            env = override.env
        else:
            env = env_for_distance(self.scenario.default_env, distance)
        if override is not None and override.shadow_db is not None:
            shadow = override.shadow_db
        else:
            shadow = None if env.shadowing_sigma_db > 0 else 0.0
        rx_radio = self.nodes[rx].radio
        return Link(
            distance,
            path_loss_db(distance, env),
            shadow,
            env.shadowing_sigma_db,
            link_budget_dbm(self.nodes[tx].radio, rx_radio),
            noise_floor_dbm(rx_radio),
            sensitivity_dbm(rx_radio),
        )

    # -- scheduling ------------------------------------------------------

    def push(
        self,
        time_ns: int,
        kind: EventKind,
        subject: str,
        packet: MeshPacket | None = None,
        data: Any = None,
    ) -> None:
        self.seq += 1
        event = Event(time_ns, self.seq, kind, subject, packet, data)
        heapq.heappush(self.heap, (time_ns, self.seq, event))

    def schedule_app_emissions(self) -> None:
        # Only each app's next emission waits on the heap. Emission i keeps the
        # seq it had when whole schedules were queued up front: base + i + 1.
        for spec in self.scenario.nodes:
            for app in spec.apps:
                count = app.emission_count(self.scenario.duration_s)
                self.push_emission(self.seq + 1, spec.id, app, 0, count)
                self.seq += count

    def push_emission(self, seq: int, subject: str, app, i: int, count: int) -> None:
        if i < count:
            time_ns = round((app.start_offset_s + i * app.period_s) * NS_PER_S)
            event = Event(time_ns, seq, EventKind.APP_EMIT, subject, data=(app, i, count))
            heapq.heappush(self.heap, (time_ns, seq, event))

    # -- event handlers ---------------------------------------------------

    def run(self) -> SimReport:
        self.schedule_app_emissions()
        while self.heap:
            _, _, event = heapq.heappop(self.heap)
            self.trace(event)
            if event.kind is EventKind.APP_EMIT:
                self.on_app_emit(event)
            elif event.kind is EventKind.TX_START:
                self.on_tx_start(event)
            elif event.kind is EventKind.TX_END:
                self.on_tx_end(event)
            elif event.kind is EventKind.REBROADCAST_FIRE:
                self.queue_tx(self.nodes[event.subject], event.packet, event.time_ns)
        self.finish()
        return self.report

    def trace(self, event: Event) -> None:
        if self.report.trace is None:
            return
        parts = [f"t={event.time_ns / NS_PER_S:.6f}", f"seq={event.seq}",
                 event.kind.value, f"node={event.subject}"]
        if event.packet is not None:
            parts.append(
                f"packet={event.packet.origin}:{event.packet.packet_id}"
                f" hop={event.packet.hop_limit}"
            )
        self.report.trace.append(" ".join(parts))

    def on_app_emit(self, event: Event) -> None:
        node = self.nodes[event.subject]
        app, i, count = event.data
        self.push_emission(event.seq + 1, event.subject, app, i + 1, count)
        time_s = event.time_ns / NS_PER_S
        payload = self.build_payload(node, app, time_s)
        packet = node.state.originate(app.port, payload, node.radio.hop_limit, time_s)
        self.report.originated[node.spec.id] += 1
        self.flood_initial_hop[(packet.origin, packet.packet_id)] = packet.hop_limit
        self.queue_tx(node, packet, event.time_ns)

    def build_payload(self, node: _NodeRuntime, app, time_s: float) -> bytes:
        if app.payload_source.value == "IRRADIANCE_SENSOR":
            adc = telemetry.irradiance_adc(time_s, self.scenario.irradiance_profile)
            return telemetry.encode_irradiance(telemetry.IrradianceSample.from_adc(adc))
        if app.payload_source.value == "GNSS_TRACKER":
            pos = node.position_at(time_s)
            return telemetry.encode_position(
                pos.latitude,
                pos.longitude,
                pos.altitude_m,
                self.scenario.epoch_s + int(time_s),
            )
        return app.text.encode("utf-8")

    def queue_tx(self, node: _NodeRuntime, packet: MeshPacket, earliest_ns: int) -> None:
        start_ns = max(earliest_ns, node.busy_until_ns)
        self.push(start_ns, EventKind.TX_START, node.spec.id, packet=packet)

    def on_tx_start(self, event: Event) -> None:
        node = self.nodes[event.subject]
        if node.busy_until_ns > event.time_ns:
            # A rebroadcast landed mid-transmission; retry when the radio frees.
            self.push(node.busy_until_ns, EventKind.TX_START, event.subject, packet=event.packet)
            return
        packet = event.packet
        toa_s = time_on_air_s(len(packet.payload), node.radio)
        start_ns, end_ns = event.time_ns, event.time_ns + round(toa_s * NS_PER_S)
        node.busy_until_ns = end_ns
        node.airtime_ns += min(end_ns, self.duration_ns) - min(start_ns, self.duration_ns)
        self.report.transmissions += 1
        time_s = start_ns / NS_PER_S
        links = self.table[event.subject]
        if self.moving:
            positions = {nid: rt.position_at(time_s) for nid, rt in self.nodes.items()}
            links = {rx: row or self.link(event.subject, rx, positions) for rx, row in links.items()}
        candidates = propagate(
            event.subject,
            packet,
            time_s + toa_s,
            node.position_at(time_s),
            links,
            self.shadow_rng,
        )
        frame = _AirFrame(event.subject, packet, end_ns, candidates)
        # Every frame on the air started no later than this one; those that
        # end after it starts overlap it (touching end to start is no overlap).
        for g in self.on_air:
            if g.end_ns > start_ns:
                g.rivals.append(frame)
                frame.rivals.append(g)
        self.on_air.append(frame)
        self.push(end_ns, EventKind.TX_END, event.subject, packet=packet, data=frame)

    def on_tx_end(self, event: Event) -> None:
        frame: _AirFrame = event.data
        self.on_air.remove(frame)
        # A node that sent a rival was transmitting during this frame: every
        # started transmission is a frame, and a busy radio defers its start.
        senders = {g.transmitter for g in frame.rivals}
        for cand in frame.candidates:
            rx = cand.receiver
            busy = rx in senders
            # judge rules a busy receiver out before it reads the rivals;
            # a receiver that is not busy sent none of them.
            cand.outcome = judge(
                cand.outcome,
                cand.rssi_dbm,
                () if busy else [g.rssi_at[rx] for g in frame.rivals],
                busy,
                self.scenario.capture_threshold_db,
            )
            self.report.receptions.append(cand)
            if cand.outcome is ReceptionOutcome.DECODED:
                self.deliver(cand, frame.packet, event.time_ns)
        # Frames that overlapped point at each other; break the cycle.
        frame.rivals.clear()

    def deliver(self, cand: ReceptionRecord, packet: MeshPacket, now_ns: int) -> None:
        rx = self.nodes[cand.receiver]
        meta = RxMetadata(
            time_s=now_ns / NS_PER_S, rssi_dbm=cand.rssi_dbm, snr_db=cand.snr_db
        )
        for action in rx.state.on_receive(packet, meta):
            if action.kind is ActionKind.DROP_DUPLICATE:
                self.report.duplicates_suppressed += 1
            elif action.kind is ActionKind.DELIVER_TO_APP:
                self.report.app_deliveries[cand.receiver] += 1
                initial = self.flood_initial_hop.get(
                    (packet.origin, packet.packet_id), packet.hop_limit
                )
                self.report.hop_count_histogram[initial - packet.hop_limit + 1] += 1
            elif action.kind is ActionKind.EMIT_UPLINK:
                self.report.delivered_to_gateway[packet.origin] += 1
                self.report.gateway_deliveries.append(
                    GatewayDelivery(
                        time_s=meta.time_s,
                        gateway_id=cand.receiver,
                        packet=packet,
                        rx=meta,
                    )
                )
            elif action.kind is ActionKind.SCHEDULE_REBROADCAST:
                fire_ns = now_ns + round(action.delay_s * NS_PER_S)
                self.push(
                    fire_ns, EventKind.REBROADCAST_FIRE, cand.receiver, packet=action.packet
                )

    def finish(self) -> None:
        for nid, rt in self.nodes.items():
            self.report.airtime_busy_fraction[nid] = rt.airtime_ns / self.duration_ns


def run(scenario: Scenario, collect_trace: bool = False) -> SimReport:
    """Validate and execute a scenario; raises ScenarioError when unsound."""
    violations = scenario.validate()
    if violations:
        raise ScenarioError(violations)
    return _Simulation(scenario, collect_trace).run()
