"""Deterministic discrete-event radio simulation: the event loop and the channel.

run() plays a scenario and fills a report.SimReport; what a run
produced, and report.json's writer, live in report. Time lives on an
integer nanosecond clock; the heap holds Events, which begin with
(time_ns, insertion seq), so two runs with the same scenario and seed
replay the exact same history. The channel model is per-frame: every
transmission produces one reception candidate per other node. Each
frame collects every frame it overlapped in time, however long, and
when it ends each candidate is judged against that set: a receiver that
sent one of them was busy, and otherwise the frame survives only with a
clear capture margin over the strongest of them. Log-normal shadowing
is drawn in exact pairs, with random.gauss's own formula, so a frame
takes just the normals it needs and the stream matches gauss bit for
bit. A frame carries only its RSSI per receiver; its packet rides on
its TX_END event, and that event's time is the frame's only end time:
the decodes, the map rows and report.json's rows all read it. A decode
reaches the router as an RxMetadata, and a ReceptionRecord is built only
for a map row, a gateway's decode while a map is an output; the rows
are kept in judge order, which the maps write as is. When the scenario
asks for report.json, each frame's end adds one header and each
candidate its RSSI, outcome byte and distance to the report's
ReceptionLog, which holds the rows. The summary's figures are folded
into the report as each candidate is judged.

Each directed pair's Link is built by one _Channel, which computes the
pair's position-free parts (overrides, link budget, the receiver's
noise floor and sensitivity) once per run. A pair whose ends are fixed,
or whose distance is pinned, gets its Link once. A pair with a moving
end gets a new Link at a frame only when either end's position differs
from the pair's previous frame; while both dwell, that frame's Link is
reused.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from enum import Enum
from math import cos, log, pi, sin, sqrt
from typing import Any, Iterable, NamedTuple, Sequence

from .geo import LatLonAlt, node_distance_m
from .mesh import (
    ActionKind,
    MeshPacket,
    NodeRole,
    RouterState,
    RxMetadata,
    default_slot_time_s,
    first_hop_limit,
)
from .phy import (
    EnvironmentClass,
    RadioConfig,
    link_budget_dbm,
    noise_floor_dbm,
    path_loss_db,
    sensitivity_dbm,
    time_on_air_s,
)
from .report import (
    GatewayDelivery,
    LinkSums,
    ReceptionFrame,
    ReceptionLog,
    ReceptionOutcome,
    ReceptionRecord,
    SimReport,
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
    "Link",
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


# Reading a member off an Enum class runs Python code (over 100 ns on
# 3.11); the per-candidate paths use these names instead.
_DECODED = ReceptionOutcome.DECODED
_BELOW_SENSITIVITY = ReceptionOutcome.BELOW_SENSITIVITY
_COLLIDED = ReceptionOutcome.COLLIDED
_TX_BUSY = ReceptionOutcome.TX_BUSY


class EventKind(Enum):
    APP_EMIT = "APP_EMIT"
    TX_START = "TX_START"
    TX_END = "TX_END"
    REBROADCAST_FIRE = "REBROADCAST_FIRE"


_APP_EMIT = EventKind.APP_EMIT
_TX_START = EventKind.TX_START
_TX_END = EventKind.TX_END
_REBROADCAST_FIRE = EventKind.REBROADCAST_FIRE
_DELIVER_TO_APP = ActionKind.DELIVER_TO_APP
_EMIT_UPLINK = ActionKind.EMIT_UPLINK
_SCHEDULE_REBROADCAST = ActionKind.SCHEDULE_REBROADCAST
_DROP_DUPLICATE = ActionKind.DROP_DUPLICATE
_IRRADIANCE_SENSOR = telemetry.PayloadSource.IRRADIANCE_SENSOR
_GNSS_TRACKER = telemetry.PayloadSource.GNSS_TRACKER


class Event(NamedTuple):
    """One scheduled action; data carries the kind-specific payload.

    The heap orders events as tuples; seq is unique, so the comparison
    never reaches kind.
    """

    time_ns: int
    seq: int
    kind: EventKind
    subject: str
    packet: MeshPacket | None = None
    data: Any = None


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


def env_for_distance(bands: Sequence[EnvBand], distance_m: float) -> EnvironmentClass:
    """The env of the first band covering distance_m; validate() makes the last a catch-all."""
    for band in bands:
        if band.max_distance_m is None or distance_m <= band.max_distance_m:
            return band.env


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
        return _TX_BUSY
    if not rival_rssi_dbm:
        return clean
    if clean is _DECODED and rssi_dbm >= max(rival_rssi_dbm) + capture_threshold_db:
        return _DECODED
    return _COLLIDED


class Link(NamedTuple):
    """One directed link's channel; shadow_db None means a draw from N(0, sigma_db) per frame."""

    distance_m: float
    mean_loss_db: float
    shadow_db: float | None
    sigma_db: float
    budget_dbm: float
    noise_floor_dbm: float
    sensitivity_dbm: float


_TWOPI = 2.0 * pi


class _Normals:
    """N(0, 1) values exactly as rng.gauss(0.0, 1.0) would return them.

    random.gauss (3.10 to 3.13) makes a pair from two random() calls and
    keeps the second value for the next call. This does the same with
    the same math calls, a whole frame at a time, and keeps the odd
    value of the last pair for the next frame. It reads rng only through
    random(), so rng's generator state advances as under gauss.
    """

    __slots__ = ("random", "spare")

    def __init__(self, rng: random.Random):
        self.random = rng.random
        self.spare: float | None = None

    def take(self, n: int) -> list[float]:
        out: list[float] = []
        if n and self.spare is not None:
            out.append(self.spare)
            self.spare = None
            n -= 1
        random = self.random
        for _ in range((n + 1) >> 1):
            x2pi = random() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - random()))
            out += (cos(x2pi) * g2rad, sin(x2pi) * g2rad)
        if n & 1:
            self.spare = out.pop()
        return out


def propagate(links: Sequence[Link], drawn: int, normals: _Normals) -> list[float]:
    """RSSI at every receiver of one frame, in the order of links.

    drawn is the number of links whose shadow_db is None; each of them
    takes the next normal, in that order. Decoding, half-duplex losses
    and collisions are judged at the frame's end, against the receiving
    radio and every frame it overlapped.
    """
    z = iter(normals.take(drawn)).__next__
    # Same terms in the same order as path_loss_db and link_budget_dbm, with
    # a draw scaled as gauss's mu + z * sigma.
    return [
        budget - (mean_loss + (0.0 + z() * sigma if shadow is None else shadow))
        for _, mean_loss, shadow, sigma, budget, _, _ in links
    ]


class _Channel:
    """One directed pair's channel and the Link of its last pair of positions.

    The override's pins, the link budget and the receiving radio's noise
    floor and sensitivity are fixed for a run and computed once. link()
    adds what depends on where the ends are: distance, environment, mean
    loss and the shadow choice. It is the only place a Link is built.
    """

    __slots__ = (
        "distance_m", "env", "shadow_db", "bands", "budget_dbm", "noise_floor_dbm",
        "sensitivity_dbm", "tx_position", "rx_position", "last",
    )

    def __init__(
        self,
        override: LinkOverride | None,
        bands: Sequence[EnvBand],
        tx_radio: RadioConfig,
        rx_radio: RadioConfig,
    ):
        self.distance_m = override.distance_m if override is not None else None
        self.env = override.env if override is not None else None
        self.shadow_db = override.shadow_db if override is not None else None
        self.bands = bands
        self.budget_dbm = link_budget_dbm(tx_radio, rx_radio)
        self.noise_floor_dbm = noise_floor_dbm(rx_radio)
        self.sensitivity_dbm = sensitivity_dbm(rx_radio)
        self.tx_position: LatLonAlt | None = None
        self.rx_position: LatLonAlt | None = None
        self.last: Link | None = None

    def link(self, tx: LatLonAlt, rx: LatLonAlt) -> Link:
        # node_distance_m squares the differences, so positions that compare
        # equal (0.0 and -0.0, 100 and 100.0) give the same Link, bit for bit.
        if tx == self.tx_position and rx == self.rx_position:
            return self.last
        distance = self.distance_m
        if distance is None:
            distance = node_distance_m(tx, rx)
        env = self.env
        if env is None:
            env = env_for_distance(self.bands, distance)
        shadow = self.shadow_db
        if shadow is None and not env.shadowing_sigma_db > 0:
            shadow = 0.0
        self.tx_position, self.rx_position = tx, rx
        self.last = Link(
            distance,
            path_loss_db(distance, env),
            shadow,
            env.shadowing_sigma_db,
            self.budget_dbm,
            self.noise_floor_dbm,
            self.sensitivity_dbm,
        )
        return self.last


class _Row(NamedTuple):
    """One sender's links, receivers in node order.

    A link is None where the pair's Link follows a moving end; moving
    lists those places with the pair's channel and receiver. drawn
    counts the fixed links whose shadow is drawn per frame.
    """

    receivers: tuple[str, ...]
    links: tuple[Link | None, ...]
    drawn: int
    moving: tuple[tuple[int, _Channel, _NodeRuntime], ...]


class _AirFrame:
    """A frame in flight, its RSSI at each receiver and the frames it overlapped."""

    __slots__ = ("transmitter", "end_ns", "tx_position", "links", "rssi_at", "rivals")

    def __init__(
        self,
        transmitter: str,
        end_ns: int,
        tx_position: LatLonAlt,
        links: Sequence[Link],
        rssi_at: dict[str, float],
    ):
        self.transmitter = transmitter
        self.end_ns = end_ns
        self.tx_position = tx_position
        self.links = links  # in the order of rssi_at's receivers
        self.rssi_at = rssi_at
        self.rivals: list[_AirFrame] = []


class _NodeRuntime:
    __slots__ = ("spec", "radio", "state", "route", "busy_until_ns", "airtime_ns", "toa_s")

    def __init__(self, spec: NodeSpec, radio: RadioConfig, state: RouterState, route: Route | None):
        self.spec = spec
        self.radio = radio
        self.state = state
        self.route = route
        self.busy_until_ns = 0
        self.airtime_ns = 0  # time on air inside [0, duration]
        self.toa_s: dict[int, float] = {}  # time on air by payload length

    def position_at(self, time_s: float) -> LatLonAlt:
        if self.route is not None:
            return self.route.position_at(time_s)
        return self.spec.position


class _Simulation:
    def __init__(self, scenario: Scenario, collect_trace: bool):
        self.scenario = scenario
        self.duration_ns = round(scenario.duration_s * NS_PER_S)
        self.normals = _Normals(random.Random(derive_seed(scenario.seed, "shadow")))
        self.heap: list[Event] = []
        self.seq = 0
        self.on_air: list[_AirFrame] = []
        self.gateways = {
            spec.id for spec in scenario.nodes if spec.role is NodeRole.GATEWAY
        }
        self.report = SimReport(
            scenario_name=scenario.name,
            seed=scenario.seed,
            duration_s=scenario.duration_s,
            trace=[] if collect_trace else None,
        )
        # Only report.json reads every candidate, only the maps read the
        # gateway receptions and only uplinks and series read the gateway
        # deliveries; the summary is folded at TX_END.
        outputs = scenario.outputs
        self.gateway_receptions = (
            self.report.gateway_receptions if outputs & {"map_csv", "map_kml"} else None
        )
        self.gateway_deliveries = (
            self.report.gateway_deliveries if outputs & {"uplinks", "series"} else None
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
        self.log: ReceptionLog | None = None
        if "report" in outputs:
            self.log = self.report.receptions = ReceptionLog(
                {nid: noise_floor_dbm(rt.radio) for nid, rt in self.nodes.items()}
            )
        # One Link per directed pair, receivers in node order, built once. A
        # pair with a moving end and no pinned distance holds None; its channel
        # rebuilds the Link at a frame only when an end has moved since the
        # pair's last frame.
        overrides = link_overrides(scenario.links)
        self.table: dict[str, _Row] = {}
        for tx, tx_rt in self.nodes.items():
            receivers = tuple(rx for rx in self.nodes if rx != tx)
            links: list[Link | None] = []
            moving = []
            for i, rx in enumerate(receivers):
                rx_rt = self.nodes[rx]
                channel = _Channel(
                    overrides.get((tx, rx)), scenario.default_env, tx_rt.radio, rx_rt.radio
                )
                if channel.distance_m is None and (
                    tx_rt.route is not None or rx_rt.route is not None
                ):
                    links.append(None)
                    moving.append((i, channel, rx_rt))
                else:
                    links.append(channel.link(tx_rt.spec.position, rx_rt.spec.position))
            drawn = sum(1 for link in links if link is not None and link.shadow_db is None)
            self.table[tx] = _Row(receivers, tuple(links), drawn, tuple(moving))

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
        heapq.heappush(self.heap, Event(time_ns, self.seq, kind, subject, packet, data))

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
            heapq.heappush(self.heap, Event(time_ns, seq, _APP_EMIT, subject, data=(app, i, count)))

    # -- event handlers ---------------------------------------------------

    def run(self) -> SimReport:
        self.schedule_app_emissions()
        heap, heappop = self.heap, heapq.heappop
        trace = self.trace if self.report.trace is not None else None
        while heap:
            event = heappop(heap)
            if trace is not None:
                trace(event)
            kind = event.kind
            if kind is _TX_END:
                self.on_tx_end(event)
            elif kind is _TX_START:
                self.on_tx_start(event)
            elif kind is _APP_EMIT:
                self.on_app_emit(event)
            elif kind is _REBROADCAST_FIRE:
                self.queue_tx(self.nodes[event.subject], event.packet, event.time_ns)
        self.finish()
        return self.report

    def trace(self, event: Event) -> None:
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
        self.queue_tx(node, packet, event.time_ns)

    def build_payload(self, node: _NodeRuntime, app, time_s: float) -> bytes:
        source = app.payload_source
        if source is _IRRADIANCE_SENSOR:
            adc = telemetry.irradiance_adc(time_s, self.scenario.irradiance_profile)
            return telemetry.encode_irradiance(telemetry.IrradianceSample.from_adc(adc))
        if source is _GNSS_TRACKER:
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
        self.push(start_ns, _TX_START, node.spec.id, packet=packet)

    def on_tx_start(self, event: Event) -> None:
        node = self.nodes[event.subject]
        if node.busy_until_ns > event.time_ns:
            # A rebroadcast landed mid-transmission; retry when the radio frees.
            self.push(node.busy_until_ns, _TX_START, event.subject, packet=event.packet)
            return
        packet = event.packet
        length = len(packet.payload)
        toa_s = node.toa_s.get(length)
        if toa_s is None:
            toa_s = node.toa_s[length] = time_on_air_s(length, node.radio)
        start_ns, end_ns = event.time_ns, event.time_ns + round(toa_s * NS_PER_S)
        node.busy_until_ns = end_ns
        node.airtime_ns += min(end_ns, self.duration_ns) - min(start_ns, self.duration_ns)
        self.report.transmissions += 1
        time_s = start_ns / NS_PER_S
        # The frame keeps the very object position_at returned: report.json
        # prints each frame's own position, and equal ones may print differently.
        tx_position = node.position_at(time_s)
        receivers, links, drawn, moving = self.table[event.subject]
        if moving:
            links = list(links)
            for i, channel, rx in moving:
                link = links[i] = channel.link(tx_position, rx.position_at(time_s))
                if link.shadow_db is None:
                    drawn += 1
        frame = _AirFrame(
            event.subject,
            end_ns,
            tx_position,
            links,
            dict(zip(receivers, propagate(links, drawn, self.normals))),
        )
        # Every frame on the air started no later than this one; those that
        # end after it starts overlap it (touching end to start is no overlap).
        for g in self.on_air:
            if g.end_ns > start_ns:
                g.rivals.append(frame)
                frame.rivals.append(g)
        self.on_air.append(frame)
        self.push(end_ns, _TX_END, event.subject, packet=packet, data=frame)

    def on_tx_end(self, event: Event) -> None:
        frame: _AirFrame = event.data
        self.on_air.remove(frame)
        report = self.report
        gateway_receptions = self.gateway_receptions
        # Tallied by identity and added to the report once per frame:
        # Enum.__hash__ runs in Python, so counting by outcome as a key
        # would cost more per candidate than judging it.
        n_decoded = n_collided = n_tx_busy = 0
        rivals = frame.rivals
        capture_db = self.scenario.capture_threshold_db
        # A node that sent a rival was transmitting during this frame: every
        # started transmission is a frame, and a busy radio defers its start.
        senders = {g.transmitter for g in rivals}
        tx, packet = event.subject, event.packet
        now_s = event.time_ns / NS_PER_S
        # Each candidate's outcome, when report.json logs the frame.
        outcomes = [] if self.log is not None else None
        for (rx, rssi), (distance, _, _, _, _, noise, sensitivity) in zip(
            frame.rssi_at.items(), frame.links
        ):
            busy = rx in senders
            # The receiving radio decides alone whether the frame would decode
            # without rivals. judge rules a busy receiver out before it reads
            # the rivals; a receiver that is not busy sent none of them.
            outcome = judge(
                _DECODED if rssi >= sensitivity else _BELOW_SENSITIVITY,
                rssi,
                () if busy else [g.rssi_at[rx] for g in rivals],
                busy,
                capture_db,
            )
            if outcome is _TX_BUSY:
                n_tx_busy += 1
            elif outcome is _COLLIDED:
                n_collided += 1
            if outcomes is not None:
                outcomes.append(outcome)
            if outcome is not _DECODED:
                continue
            n_decoded += 1
            snr = rssi - noise
            key = f"{tx}->{rx}"
            sums = report.link_sums.get(key)
            if sums is None:
                sums = report.link_sums[key] = LinkSums()
            sums.frames += 1
            sums.rssi_dbm += rssi
            sums.snr_db += snr
            if gateway_receptions is not None and rx in self.gateways:
                gateway_receptions.append(ReceptionRecord(
                    now_s, tx, rx, packet.origin, packet.packet_id, packet.port.value,
                    packet.hop_limit, rssi, snr, distance, outcome, frame.tx_position,
                ))
            self.deliver(rx, RxMetadata(now_s, rssi, snr), packet, event.time_ns)
        if outcomes is not None:
            self.log.add_frame(
                ReceptionFrame(
                    now_s, tx, packet.origin, packet.packet_id, packet.port.value,
                    packet.hop_limit, frame.tx_position, self.table[tx].receivers,
                ),
                frame.rssi_at.values(),
                outcomes,
                [link.distance_m for link in frame.links],
            )
        report.decoded += n_decoded
        report.collided += n_collided
        report.tx_busy += n_tx_busy
        report.below_sensitivity += len(frame.rssi_at) - n_decoded - n_collided - n_tx_busy
        # Frames that overlapped point at each other; break the cycle.
        rivals.clear()

    def deliver(self, receiver: str, meta: RxMetadata, packet: MeshPacket, now_ns: int) -> None:
        for action in self.nodes[receiver].state.on_receive(packet, meta):
            kind = action.kind
            if kind is _DROP_DUPLICATE:
                self.report.duplicates_suppressed += 1
            elif kind is _DELIVER_TO_APP:
                self.report.app_deliveries[receiver] += 1
                initial = first_hop_limit(self.nodes[packet.origin].radio.hop_limit)
                self.report.hop_count_histogram[initial - packet.hop_limit + 1] += 1
            elif kind is _EMIT_UPLINK:
                self.report.delivered_to_gateway[packet.origin] += 1
                if self.gateway_deliveries is not None:
                    self.gateway_deliveries.append(
                        GatewayDelivery(receiver, packet, meta)
                    )
            elif kind is _SCHEDULE_REBROADCAST:
                fire_ns = now_ns + round(action.delay_s * NS_PER_S)
                self.push(fire_ns, _REBROADCAST_FIRE, receiver, packet=action.packet)

    def finish(self) -> None:
        for nid, rt in self.nodes.items():
            self.report.airtime_busy_fraction[nid] = rt.airtime_ns / self.duration_ns


def run(scenario: Scenario, collect_trace: bool = False) -> SimReport:
    """Validate and execute a scenario; raises ScenarioError when unsound."""
    violations = scenario.validate()
    if violations:
        raise ScenarioError(violations)
    return _Simulation(scenario, collect_trace).run()
