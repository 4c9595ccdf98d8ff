"""Router for flooding with SNR-shaped backoff: duplicate suppression, hop budget.

The router is deliberately dumb: every node refloods every new packet
while its hop budget lasts, duplicates are dropped via a TTL cache, and
the only coordination is a contention window whose length grows with
reception SNR, so distant (weak) receivers tend to rebroadcast first.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .phy import MAX_HOP_LIMIT, RadioConfig, round_half_away_from_zero, symbol_time_s

MAX_PAYLOAD_BYTES = 237

DEDUP_TTL_S = 600.0
DEDUP_CAPACITY = 1024

PACKET_ID_MODULUS = 1 << 32


class Port(Enum):
    POSITION_APP = "POSITION_APP"
    TELEMETRY_APP = "TELEMETRY_APP"
    TEXT_MESSAGE_APP = "TEXT_MESSAGE_APP"
    CONTROL = "CONTROL"


class NodeRole(Enum):
    CLIENT = "CLIENT"
    ROUTER = "ROUTER"
    GATEWAY = "GATEWAY"
    TRACKER = "TRACKER"


# Infrastructure roles contend early (short windows), leaf roles late.
DEFAULT_CONTENTION_WINDOWS = {
    NodeRole.ROUTER: (2, 4),
    NodeRole.GATEWAY: (2, 4),
    NodeRole.CLIENT: (4, 8),
    NodeRole.TRACKER: (4, 8),
}


@dataclass(frozen=True)
class MeshPacket:
    """One application packet as it rides the flood.

    origin and packet_id together identify the packet; rebroadcast
    copies keep both and only decrement hop_limit.
    """

    origin: str
    packet_id: int
    port: Port
    hop_limit: int
    payload: bytes
    channel: int = 0

    def __post_init__(self) -> None:
        problems = []
        if not 0 <= self.packet_id < PACKET_ID_MODULUS:
            problems.append(f"packet_id {self.packet_id} outside unsigned 32-bit range")
        if not 0 <= self.hop_limit <= MAX_HOP_LIMIT:
            problems.append(f"hop_limit {self.hop_limit} outside 0..{MAX_HOP_LIMIT}")
        if len(self.payload) > MAX_PAYLOAD_BYTES:
            problems.append(
                f"payload {len(self.payload)} bytes exceeds {MAX_PAYLOAD_BYTES}"
            )
        if problems:
            raise ValueError("invalid MeshPacket: " + "; ".join(problems))


class RxMetadata(NamedTuple):
    """What the radio knew about one decoded frame."""

    time_s: float
    rssi_dbm: float
    snr_db: float


@dataclass(frozen=True)
class ContentionParams:
    """Shape of the SNR-to-contention-window mapping."""

    snr_min_db: float = -20.0
    snr_max_db: float = 10.0
    windows: dict[NodeRole, tuple[int, int]] = field(
        default_factory=lambda: dict(DEFAULT_CONTENTION_WINDOWS)
    )

    def __post_init__(self) -> None:
        problems = []
        if not self.snr_min_db < self.snr_max_db:
            problems.append(
                f"snr_min_db {self.snr_min_db} must be below snr_max_db {self.snr_max_db}"
            )
        # An inverted window would let strong receivers rebroadcast first.
        for role, (low, high) in self.windows.items():
            if not 0 <= low <= high:
                problems.append(f"{role.value} window [{low}, {high}] must have 0 <= min <= max")
        if problems:
            raise ValueError("invalid ContentionParams: " + "; ".join(problems))


class ActionKind(Enum):
    DELIVER_TO_APP = "DELIVER_TO_APP"
    EMIT_UPLINK = "EMIT_UPLINK"
    SCHEDULE_REBROADCAST = "SCHEDULE_REBROADCAST"
    DROP_DUPLICATE = "DROP_DUPLICATE"


class Action(NamedTuple):
    kind: ActionKind
    packet: MeshPacket | None = None
    delay_s: float = 0.0


# Reading a member off an Enum class runs Python code; on_receive, called
# once per decode, uses these names instead.
_DELIVER_TO_APP = ActionKind.DELIVER_TO_APP
_EMIT_UPLINK = ActionKind.EMIT_UPLINK
_SCHEDULE_REBROADCAST = ActionKind.SCHEDULE_REBROADCAST
_DROP_DUPLICATE = ActionKind.DROP_DUPLICATE
_GATEWAY = NodeRole.GATEWAY


class DedupCache:
    """Remembers recently seen (origin, packet_id) pairs.

    Entries expire after ttl_s and the oldest entry is evicted when the
    cache is full. Insertion order doubles as age order because the
    simulation clock never goes backwards.
    """

    def __init__(self, ttl_s: float = DEDUP_TTL_S, capacity: int = DEDUP_CAPACITY):
        if ttl_s <= 0:
            raise ValueError(f"ttl_s {ttl_s} must be positive")
        if capacity < 1:
            raise ValueError(f"capacity {capacity} must be >= 1")
        self.ttl_s = ttl_s
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, int], float] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, key: tuple[str, int], now_s: float) -> bool:
        seen_at = self._entries.get(key)
        return seen_at is not None and now_s - seen_at <= self.ttl_s

    def insert(self, key: tuple[str, int], now_s: float) -> None:
        if key in self._entries:
            del self._entries[key]
        else:
            self._expire(now_s)
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
        self._entries[key] = now_s

    def _expire(self, now_s: float) -> None:
        while self._entries:
            key, seen_at = next(iter(self._entries.items()))
            if now_s - seen_at <= self.ttl_s:
                break
            del self._entries[key]


def default_slot_time_s(cfg: RadioConfig) -> float:
    """Contention slot: 8.5 symbol times, rounded up to a whole millisecond."""
    return math.ceil(8.5 * symbol_time_s(cfg) * 1000.0) / 1000.0


def first_hop_limit(hop_limit: int) -> int:
    """The hop limit a packet leaves its origin with: the original
    transmission spends one hop of the radio's hop_limit.
    """
    return max(hop_limit - 1, 0)


def backoff_delay_s(
    snr_db: float,
    role: NodeRole,
    rng: random.Random,
    params: ContentionParams,
    slot_time_s: float,
) -> float:
    """Draw the rebroadcast delay for one decoded frame.

    The contention window widens linearly as SNR moves from snr_min to
    snr_max, so strong (near) receivers wait out the weak (far) ones.
    """
    span = params.snr_max_db - params.snr_min_db
    f = min(max((snr_db - params.snr_min_db) / span, 0.0), 1.0)
    cw_min, cw_max = params.windows[role]
    cw = cw_min + round_half_away_from_zero(f * (cw_max - cw_min))
    return rng.randint(0, cw) * slot_time_s


class RouterState:
    """Per-node flooding state: identity, dedup cache, id sequence, RNG."""

    def __init__(
        self,
        node_id: str,
        role: NodeRole,
        *,
        rng: random.Random | None = None,
        first_packet_id: int = 0,
        contention: ContentionParams | None = None,
        slot_time_s: float | None = None,
    ):
        self.node_id = node_id
        self.role = role
        self.rng = rng if rng is not None else random.Random(0)
        self.contention = contention if contention is not None else ContentionParams()
        self.slot_time_s = (
            slot_time_s if slot_time_s is not None else default_slot_time_s(RadioConfig())
        )
        self.dedup = DedupCache()
        self._next_id = first_packet_id % PACKET_ID_MODULUS

    def next_packet_id(self) -> int:
        value = self._next_id
        self._next_id = (self._next_id + 1) % PACKET_ID_MODULUS
        return value

    def originate(
        self, port: Port, payload: bytes, hop_limit: int, now_s: float
    ) -> MeshPacket:
        """Build a fresh packet for transmission by this node.

        The original transmission spends one hop, so the frame leaves
        with hop_limit - 1; receivers then deliver at up to hop_limit
        radio hops from here. The packet is entered into our own dedup
        cache so echoes of it are dropped, not re-delivered.
        """
        packet = MeshPacket(
            origin=self.node_id,
            packet_id=self.next_packet_id(),
            port=port,
            hop_limit=first_hop_limit(hop_limit),
            payload=payload,
        )
        self.dedup.insert((packet.origin, packet.packet_id), now_s)
        return packet

    def on_receive(self, packet: MeshPacket, rx: RxMetadata) -> list[Action]:
        """Route one decoded frame; returns the actions the node takes.

        Duplicates produce exactly [DROP_DUPLICATE]. A new packet is
        always delivered to the application layer, additionally uplinked
        by gateways, and scheduled for rebroadcast while hop_limit > 0
        with the copy carrying hop_limit - 1.
        """
        key = (packet.origin, packet.packet_id)
        if self.dedup.contains(key, rx.time_s):
            return [Action(_DROP_DUPLICATE, packet)]
        self.dedup.insert(key, rx.time_s)
        actions = [Action(_DELIVER_TO_APP, packet)]
        if self.role is _GATEWAY:
            actions.append(Action(_EMIT_UPLINK, packet))
        if packet.hop_limit > 0:  # every role refloods while the hop budget lasts
            delay = backoff_delay_s(
                rx.snr_db, self.role, self.rng, self.contention, self.slot_time_s
            )
            copy = MeshPacket(
                packet.origin,
                packet.packet_id,
                packet.port,
                packet.hop_limit - 1,
                packet.payload,
                packet.channel,
            )
            actions.append(Action(_SCHEDULE_REBROADCAST, copy, delay))
        return actions
