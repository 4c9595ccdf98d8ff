"""Scenario model: node layouts, environments, schedules, JSON loading.

A scenario is a frozen value object. Built-ins cover the shapes the
simulator is meant to reproduce: a fixed campus mesh with a roaming
tracker, a summit walk that climbs out of the clutter, and two tiny
synthetic topologies (line, full mesh) used to pin flooding behavior.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import re
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from types import UnionType
from typing import Any, Callable, Iterable, get_args, get_origin, get_type_hints

from .geo import LatLonAlt, offset_position
from .mesh import DEFAULT_CONTENTION_WINDOWS, MAX_PAYLOAD_BYTES, ContentionParams, NodeRole, Port
from .phy import (
    EnvironmentClass,
    RadioConfig,
    Terrain,
    calibrate_exponent,
    reference_loss_1m_db,
)
from .telemetry import AppSchedule, DiurnalProfile, PayloadSource

OUTPUT_KINDS = frozenset(
    {"summary", "report", "trace", "map_csv", "map_kml", "uplinks", "series"}
)
# These cannot be produced without at least one gateway in the mesh.
GATEWAY_OUTPUTS = frozenset({"map_csv", "map_kml", "uplinks", "series"})

DEFAULT_EPOCH_S = 1_700_000_000
DEFAULT_CAPTURE_THRESHOLD_DB = 6.0
NS_PER_S = 1_000_000_000  # the simulation clock ticks in nanoseconds
# Most app emissions one scenario may ask for, summed over every app. It
# bounds a run's work: the built-ins ask for at most a few thousand.
MAX_EMISSIONS = 10_000_000
# C0 controls and DEL, rejected in node ids and the scenario name.
_CONTROL_CHAR = re.compile(r"[\x00-\x1f\x7f]")

REFERENCE_LOSS_915_DB = reference_loss_1m_db(915e6)

# Drive-test RSSI against distance from the fixed mesh, range-valued rows
# collapsed to midpoints. The fit over these midpoints defines the
# built-up propagation class used along the lower route.
ROUTE_RSSI_MIDPOINTS = (
    (1090.0, -121.5),
    (1600.0, -125.5),
    (2050.0, -125.0),
)
# The summit sits above the clutter; its class is calibrated so the
# model mean matches the observed -110 dBm at 2.47 km.
SUMMIT_RSSI_TARGET = (2470.0, -110.0)

NLOS_EXPONENT = calibrate_exponent(
    ROUTE_RSSI_MIDPOINTS, RadioConfig(), REFERENCE_LOSS_915_DB
).exponent
QUASI_LOS_EXPONENT = calibrate_exponent(
    (SUMMIT_RSSI_TARGET,), RadioConfig(), REFERENCE_LOSS_915_DB
).exponent


class ScenarioError(Exception):
    """Scenario rejected; .violations lists every problem found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Waypoint:
    time_s: float
    position: LatLonAlt


@dataclass(frozen=True)
class Route:
    """Piecewise-linear movement; loop repeats the waypoint span forever."""

    waypoints: tuple[Waypoint, ...]
    loop: bool = False

    def __post_init__(self) -> None:
        if not self.waypoints:
            raise ValueError("route needs at least one waypoint")
        times = [w.time_s for w in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("route waypoint times must be strictly increasing")
        object.__setattr__(self, "_times", tuple(times))
        # A segment between equal waypoints is a dwell. There f * (b - a) is a
        # signed zero of the same sign for every f >= 0, so the formula gives
        # the same bits at every f as at f = 0.0: compute it once. Not the
        # waypoint itself, which may hold -0.0 or an int altitude.
        held = [None]
        for before, after in zip(self.waypoints, self.waypoints[1:]):
            a, b = before.position, after.position
            held.append(_interpolate(a, b, 0.0) if a == b else None)
        object.__setattr__(self, "_held", tuple(held))

    def position_at(self, time_s: float) -> LatLonAlt:
        times: tuple[float, ...] = self._times  # type: ignore[attr-defined]
        t = time_s
        if self.loop:
            span = times[-1] - times[0]
            if span > 0:
                t = times[0] + (time_s - times[0]) % span
        if t <= times[0]:
            return self.waypoints[0].position
        if t >= times[-1]:
            return self.waypoints[-1].position
        i = bisect.bisect_right(times, t)
        held = self._held[i]  # type: ignore[attr-defined]
        if held is not None:
            return held
        before, after = self.waypoints[i - 1], self.waypoints[i]
        f = (t - before.time_s) / (after.time_s - before.time_s)
        return _interpolate(before.position, after.position, f)


def _interpolate(a: LatLonAlt, b: LatLonAlt, f: float) -> LatLonAlt:
    return LatLonAlt(
        a.latitude + f * (b.latitude - a.latitude),
        a.longitude + f * (b.longitude - a.longitude),
        a.altitude_m + f * (b.altitude_m - a.altitude_m),
    )


@dataclass(frozen=True)
class NodeSpec:
    """One radio in the mesh; route overrides position when present."""

    id: str
    name: str
    role: NodeRole
    position: LatLonAlt
    apps: tuple[AppSchedule, ...] = ()
    radio: RadioConfig | None = None  # None inherits the scenario radio
    route: Route | None = None


@dataclass(frozen=True)
class EnvBand:
    """default_env entry: this class applies up to max_distance_m.

    max_distance_m None marks the catch-all band and is only legal in
    the last position.
    """

    env: EnvironmentClass
    max_distance_m: float | None = None


@dataclass(frozen=True)
class LinkOverride:
    """Pin distance, environment, or shadowing for one node pair.

    Applies to both directions unless directed is set.
    """

    a: str
    b: str
    distance_m: float | None = None
    env: EnvironmentClass | None = None
    shadow_db: float | None = None
    directed: bool = False


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    seed: int
    nodes: tuple[NodeSpec, ...]
    default_env: tuple[EnvBand, ...]
    links: tuple[LinkOverride, ...] = ()
    outputs: frozenset[str] = frozenset({"summary"})
    radio: RadioConfig = RadioConfig()
    contention: ContentionParams = ContentionParams()
    capture_threshold_db: float = DEFAULT_CAPTURE_THRESHOLD_DB
    epoch_s: int = DEFAULT_EPOCH_S
    region: str = "US"
    irradiance_profile: DiurnalProfile = DiurnalProfile()

    def node_radio(self, node: NodeSpec) -> RadioConfig:
        return node.radio if node.radio is not None else self.radio

    def validate(self) -> list[str]:
        """Collect every violation; an empty list means the scenario is sound."""
        v: list[str] = []

        def check_position(where: str, position: LatLonAlt) -> None:
            if not -90 <= position.latitude <= 90:
                v.append(f"{where}: latitude {position.latitude} outside -90..90")
            if not -180 <= position.longitude <= 180:
                v.append(f"{where}: longitude {position.longitude} outside -180..180")

        def encoded(where: str, text: str) -> bytes | None:
            # json.load accepts lone surrogates such as "\ud800"; UTF-8 cannot carry them.
            try:
                return text.encode("utf-8")
            except UnicodeEncodeError as exc:
                v.append(f"{where} is not encodable as UTF-8 ({exc.reason})")
                return None

        def printable(where: str, text: str) -> bool:
            # Ids and the name reach series.lp, which cannot escape a line break,
            # and map.kml; XML 1.0 forbids the C0 controls.
            if encoded(where, text) is None:
                return False
            control = _CONTROL_CHAR.search(text)
            if control is not None:
                v.append(
                    f"{where} contains control character U+{ord(control.group()):04X}"
                )
            return control is None

        def check_route(where: str, route: Route | None) -> None:
            for j, waypoint in enumerate(route.waypoints if route else ()):
                if waypoint.time_s < 0:
                    v.append(f"{where}.waypoints[{j}]: time_s {waypoint.time_s} must be >= 0")
                check_position(f"{where}.waypoints[{j}]", waypoint.position)

        if not self.name:
            v.append("name: must not be empty")
        printable("name", self.name)
        if self.duration_s <= 0:
            v.append(f"duration_s: {self.duration_s} must be positive")
        elif not self.duration_s * NS_PER_S <= sys.float_info.max:
            # Unlike math.isfinite, this comparison also holds for huge ints.
            v.append(f"duration_s: {self.duration_s} overflows the nanosecond clock")
        else:
            if self._emissions() > MAX_EMISSIONS:
                v.append(
                    f"duration_s: {self.duration_s} s asks for more than"
                    f" {MAX_EMISSIONS} app emissions in total"
                )
            # A position fix and an uplink's rx_time (a fixed32 in Meshtastic's
            # mesh.proto) carry their time as unsigned 32-bit seconds.
            elif self.epoch_s + math.ceil(self.duration_s) >= 1 << 32 and (
                self.outputs & {"uplinks", "series"}
                or any(
                    app.payload_source is PayloadSource.GNSS_TRACKER
                    for n in self.nodes
                    for app in n.apps
                )
            ):
                v.append(
                    f"epoch_s: {self.epoch_s} plus duration_s {self.duration_s} reaches"
                    " 2**32 s, past a fix's or an uplink's unsigned 32-bit time"
                )
        if self.seed < 0:
            v.append(f"seed: {self.seed} must be a non-negative integer")
        if self.epoch_s < 0:
            v.append(f"epoch_s: {self.epoch_s} must be >= 0")
        if not self.region:
            v.append("region: must not be empty")
        encoded("region", self.region)
        if not self.nodes:
            v.append("nodes: at least one node is required")
        seen: set[str] = set()
        maps = self.outputs & {"map_csv", "map_kml"}
        for i, node in enumerate(self.nodes):
            where = f"nodes[{i}]"
            if printable(f"{where}: id", node.id):
                where = f"{where} ({node.id})"  # keep an unprintable id out of messages
            encoded(f"{where}: name", node.name)
            if not node.id:
                v.append(f"{where}: node id must not be empty")
            if node.id in seen:
                v.append(f"{where}: duplicate node id")
            seen.add(node.id)
            check_position(where, node.position)
            check_route(f"{where}.route", node.route)
            if node.role is NodeRole.GATEWAY and node.route is not None and maps:
                v.append(
                    f"{where}: a GATEWAY on a route cannot write {sorted(maps)},"
                    " which place rows around its fixed position"
                )
            for j, app in enumerate(node.apps):
                if app.payload_source is not PayloadSource.TEXT_FIXED:
                    continue
                text = encoded(f"{where}: apps[{j}] text", app.text)
                if text == b"":
                    v.append(f"{where}: apps[{j}] text must not be empty")
                elif text is not None and len(text) > MAX_PAYLOAD_BYTES:
                    v.append(
                        f"{where}: apps[{j}] text exceeds {MAX_PAYLOAD_BYTES} bytes"
                    )
        if not self.default_env:
            v.append("default_env: at least one band is required")
        else:
            if self.default_env[-1].max_distance_m is not None:
                v.append("default_env: last band must be the catch-all (no max_distance_m)")
            maxes = [b.max_distance_m for b in self.default_env[:-1]]
            if any(m is None for m in maxes):
                v.append("default_env: only the last band may omit max_distance_m")
            else:
                if any(m <= 0 for m in maxes):
                    v.append("default_env: max_distance_m values must be positive")
                if any(b <= a for a, b in zip(maxes, maxes[1:])):
                    v.append("default_env: max_distance_m values must be increasing")
        for i, link in enumerate(self.links):
            where = f"links[{i}] ({link.a}->{link.b})"
            for end in (link.a, link.b):
                if end not in seen:
                    v.append(f"{where}: unknown node id {end!r}")
            if link.a == link.b:
                v.append(f"{where}: a link needs two distinct nodes")
            if link.distance_m is not None and link.distance_m < 1:
                v.append(f"{where}: distance_m {link.distance_m} below 1 m reference")
        unknown = self.outputs - OUTPUT_KINDS
        if unknown:
            v.append(f"outputs: unknown kinds {sorted(unknown)}")
        needs_gateway = self.outputs & GATEWAY_OUTPUTS
        has_gateway = any(n.role is NodeRole.GATEWAY for n in self.nodes)
        if needs_gateway and not has_gateway:
            v.append(
                f"outputs: {sorted(needs_gateway)} require at least one GATEWAY node"
            )
        if not self.capture_threshold_db >= 0:  # NaN fails it too
            v.append(f"capture_threshold_db: {self.capture_threshold_db} must be >= 0")
        elif self.capture_threshold_db == math.inf:
            v.append("capture_threshold_db: inf must be finite")
        return v

    def _emissions(self) -> float:
        """App emissions over the run, summed over every app."""
        try:
            return sum(app.emission_count(self.duration_s) for n in self.nodes for app in n.apps)
        except OverflowError:  # a period so short that the count is not even a float
            return math.inf

    def replace(self, **changes: Any) -> "Scenario":
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        return _encode(self)


# --- JSON (de)serialization ---------------------------------------------
#
# The dataclasses describe the file format. Keys are field names, enums go
# by value, tuples and frozensets become lists (frozensets sorted), and a
# field holding None is left out. Two layouts break that rule: a waypoint
# inlines its position, and _FILL supplies defaults a dataclass cannot.
#
# The decoder alone checks a file's structure (keys, JSON types, enum
# members, pair lengths). Ranges live in the constructors and validate(),
# so that Python-built scenarios meet them too.

_INLINE = {Waypoint: "position"}

# Each function computes its field from the decoded ones, so it is never required.
_FILL: dict[type, dict[str, Callable[[dict[str, Any]], Any]]] = {
    NodeSpec: {"name": lambda kw: kw.get("name", kw["id"])},
    EnvironmentClass: {
        "reference_loss_db": lambda kw: kw.get("reference_loss_db", REFERENCE_LOSS_915_DB)
    },
    ContentionParams: {
        "windows": lambda kw: {**DEFAULT_CONTENTION_WINDOWS, **kw.get("windows", {})}
    },
}

_Decode = Callable[[Any, str, list[str]], Any]


def _fields(cls: type) -> dict[str, bool]:
    """Field names in declaration order, each mapped to whether it is required."""
    if is_dataclass(cls):
        return {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    defaults = cls._field_defaults  # type: ignore[attr-defined]  # NamedTuple
    return {name: name not in defaults for name in cls._fields}  # type: ignore[attr-defined]


def _encode(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) or hasattr(value, "_fields"):
        inline = _INLINE.get(type(value))
        out: dict[str, Any] = {}
        for name in _fields(type(value)):
            item = getattr(value, name)
            if name == inline:
                out.update(_encode(item))
            elif item is not None:
                out[name] = _encode(item)
        return out
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_encode(v) for v in value)
    if isinstance(value, dict):
        return {_encode(k): _encode(v) for k, v in value.items()}
    return value


def _child(path: str, key: object) -> str:
    return f"{path}/{key}" if path else str(key)


def _fail(errors: list[str], path: str, message: str) -> None:
    """Record an error. A decoder that records one returns None, which no caller reads."""
    errors.append(f"{path or '(root)'}: {message}")


# JSON type and accepted values per primitive field type. A bool is never a
# JSON number; an integer may be written as an integral float.
_PRIMITIVES: dict[type, tuple[str, Callable[[Any], bool]]] = {
    float: ("number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    int: ("integer", lambda v: type(v) is int or isinstance(v, float) and v.is_integer()),
    str: ("string", lambda v: isinstance(v, str)),
    bool: ("boolean", lambda v: isinstance(v, bool)),
}


def _primitive(tp: type) -> _Decode:
    json_type, accepts = _PRIMITIVES[tp]

    def decode(value: Any, path: str, errors: list[str]) -> Any:
        if not accepts(value):
            return _fail(errors, path, f"{value!r} is not of type '{json_type}'")
        if isinstance(value, float) and not math.isfinite(value):
            return _fail(errors, path, f"{value!r} is not a finite number")
        # A number field keeps an int as an int: to_dict() and messages print it as read.
        return int(value) if tp is int else value

    return decode


def _collection(build: Callable[[Any], Any], item: _Decode, size: int | None) -> _Decode:
    def decode(value: Any, path: str, errors: list[str]) -> Any:
        if not isinstance(value, list):
            return _fail(errors, path, f"{value!r} is not of type 'array'")
        if size is not None and len(value) != size:
            return _fail(errors, path, f"{value!r} does not have exactly {size} items")
        mark = len(errors)
        items = [item(v, _child(path, i), errors) for i, v in enumerate(value)]
        return None if len(errors) > mark else build(items)

    return decode


def _mapping(key: _Decode, item: _Decode) -> _Decode:
    def decode(value: Any, path: str, errors: list[str]) -> Any:
        if not isinstance(value, dict):
            return _fail(errors, path, f"{value!r} is not of type 'object'")
        mark = len(errors)
        out = {
            key(k, _child(path, k), errors): item(v, _child(path, k), errors)
            for k, v in value.items()
        }
        return None if len(errors) > mark else out

    return decode


def _record(cls: type) -> _Decode:
    hints = get_type_hints(cls)
    inline = _INLINE.get(cls)
    fill = _FILL.get(cls, {})
    spec = _fields(cls)
    plan = [(name, _decoder(hints[name]), name == inline) for name in spec]
    own = [name for name in spec if name != inline]
    required = {name for name in own if spec[name] and name not in fill}

    def decode(obj: Any, path: str, errors: list[str]) -> Any:
        if not isinstance(obj, dict):
            return _fail(errors, path, f"{obj!r} is not of type 'object'")
        mark = len(errors)
        # An inlined record gets the keys its owner does not have, and
        # rejects any that it does not have either.
        others = {k: v for k, v in obj.items() if k not in own}
        if others and inline is None:
            unexpected = ", ".join(repr(k) for k in others)
            verb = "was" if len(others) == 1 else "were"
            message = f"Additional properties are not allowed ({unexpected} {verb} unexpected)"
            _fail(errors, path, message)
        kwargs = {}
        for name, item, inlined in plan:
            if inlined:
                kwargs[name] = item(others, path, errors)
            elif name in obj:
                kwargs[name] = item(obj[name], _child(path, name), errors)
            elif name in required:
                _fail(errors, path, f"{name!r} is a required property")
        if len(errors) > mark:
            return None
        for name, compute in fill.items():
            kwargs[name] = compute(kwargs)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            return _fail(errors, path, str(exc))

    return decode


@functools.cache
def _decoder(tp: Any) -> _Decode:
    """Build the decode function for one type; nested types are built once."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None: None fields are never written
        (inner,) = [a for a in args if a is not type(None)]
        return _decoder(inner)
    if origin in (tuple, frozenset):  # tuple[X, ...], frozenset[X] or a pair tuple[X, X]
        size = len(args) if origin is tuple and args[-1] is not Ellipsis else None
        return _collection(origin, _decoder(args[0]), size)
    if origin is dict:
        return _mapping(_decoder(args[0]), _decoder(args[1]))
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = [m.value for m in tp]
        return lambda value, path, errors: (
            tp(value) if value in members
            else _fail(errors, path, f"{value!r} is not one of {members}")
        )
    return _primitive(tp) if tp in _PRIMITIVES else _record(tp)


def scenario_from_dict(obj: dict[str, Any]) -> Scenario:
    """Build and fully validate a scenario from parsed JSON."""
    violations: list[str] = []
    scenario = _decoder(Scenario)(obj, "", violations)
    violations = violations or scenario.validate()  # validate() needs a built scenario
    if violations:
        raise ScenarioError(violations)
    return scenario


def load_scenario(source: str) -> Scenario:
    """Load a built-in scenario by name or a JSON scenario file by path."""
    builder = BUILTIN_SCENARIOS.get(source)
    if builder is not None:
        return builder()
    try:
        with open(source, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ScenarioError(
            [f"{source!r} is neither a scenario file nor a built-in name ({known})"]
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"{source}: cannot read ({exc})"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{source}: not valid JSON ({exc})"]) from exc
    if not isinstance(obj, dict):
        raise ScenarioError([f"{source}: top level must be a JSON object"])
    return scenario_from_dict(obj)


# --- built-in scenarios --------------------------------------------------

# Anchor for the fixed mesh; nodes are placed by metric offsets from it.
CAMPUS_ORIGIN = LatLonAlt(4.9167, -74.0167, 2559.88)
SUMMIT_ALTITUDE_M = 2628.03

_LOS_OPEN = EnvironmentClass(
    terrain=Terrain.LOS_OPEN,
    path_loss_exponent=2.6,
    reference_loss_db=REFERENCE_LOSS_915_DB,
    shadowing_sigma_db=0.0,
)

def _nlos_built(sigma_db: float) -> EnvironmentClass:
    return EnvironmentClass(
        terrain=Terrain.NLOS_BUILT,
        path_loss_exponent=NLOS_EXPONENT,
        reference_loss_db=REFERENCE_LOSS_915_DB,
        shadowing_sigma_db=sigma_db,
    )

def _quasi_los(sigma_db: float) -> EnvironmentClass:
    return EnvironmentClass(
        terrain=Terrain.QUASI_LOS_ELEVATED,
        path_loss_exponent=QUASI_LOS_EXPONENT,
        reference_loss_db=REFERENCE_LOSS_915_DB,
        shadowing_sigma_db=sigma_db,
    )


def campus_scenario() -> Scenario:
    """Fixed four-node campus mesh plus a tracker walking a 30 min loop.

    Node 1 samples a pyranometer every 300 s, the tracker reports
    position every 60 s (offset so the two never contend), two routers
    bridge the built-up corner, and the gateway uplinks everything.
    The 30 min loop period is a modeling choice, not a surveyed value;
    give the tracker another route in a scenario file to change it.
    """
    origin = CAMPUS_ORIGIN
    gateway_pos = origin
    node1_pos = offset_position(origin, 320.0, 410.0, 2572.0)
    node2_pos = offset_position(origin, -380.0, 150.0, 2561.0)
    node3_pos = offset_position(origin, 120.0, 240.0, 2563.0)
    loop = Route(
        loop=True,
        waypoints=(
            Waypoint(0.0, offset_position(origin, 12.0, -8.0, 2559.9)),
            Waypoint(450.0, offset_position(origin, -360.0, 140.0, 2561.0)),
            Waypoint(900.0, offset_position(origin, 300.0, 395.0, 2566.0)),
            Waypoint(1350.0, offset_position(origin, 110.0, 225.0, 2563.0)),
            Waypoint(1800.0, offset_position(origin, 12.0, -8.0, 2559.9)),
        ),
    )
    nlos = _nlos_built(0.0)
    return Scenario(
        name="campus",
        duration_s=3600.0,
        seed=42,
        nodes=(
            NodeSpec(
                id="node1",
                name="solar client",
                role=NodeRole.CLIENT,
                position=node1_pos,
                apps=(
                    AppSchedule(
                        port=Port.TELEMETRY_APP,
                        payload_source=PayloadSource.IRRADIANCE_SENSOR,
                        period_s=300.0,
                    ),
                ),
            ),
            NodeSpec(
                id="node2", name="west router", role=NodeRole.ROUTER, position=node2_pos
            ),
            NodeSpec(
                id="node3", name="wing router", role=NodeRole.ROUTER, position=node3_pos
            ),
            NodeSpec(
                id="node4", name="gateway", role=NodeRole.GATEWAY, position=gateway_pos
            ),
            NodeSpec(
                id="tracker",
                name="badge tracker",
                role=NodeRole.TRACKER,
                position=loop.waypoints[0].position,
                route=loop,
                apps=(
                    AppSchedule(
                        port=Port.POSITION_APP,
                        payload_source=PayloadSource.GNSS_TRACKER,
                        period_s=60.0,
                        start_offset_s=15.0,
                    ),
                ),
            ),
        ),
        default_env=(EnvBand(env=_LOS_OPEN),),
        links=(
            # The wing router sits behind the built-up block relative to
            # both the gateway and the rooftop client.
            LinkOverride(a="node3", b="node4", env=nlos),
            LinkOverride(a="node3", b="node1", env=nlos),
        ),
        outputs=frozenset({"summary", "report", "map_csv", "uplinks", "series"}),
    )


def cumbre_scenario() -> Scenario:
    """Gateway on campus, a carried node and tracker walking to a summit.

    The pair dwells at 1.09, 1.60 and 2.05 km inside the built-up
    propagation class, then tops out at 2.47 km where the elevated
    quasi-line-of-sight class applies.
    """
    origin = CAMPUS_ORIGIN

    def stop(distance_m: float, altitude_m: float, north_m: float = 0.0) -> LatLonAlt:
        return offset_position(origin, -distance_m, north_m, altitude_m)

    stops = (
        (0.0, 600.0, stop(1090.0, 2566.0)),
        (900.0, 1500.0, stop(1600.0, 2580.0)),
        (1800.0, 2400.0, stop(2050.0, 2600.0)),
        (2700.0, 3600.0, stop(2470.0, SUMMIT_ALTITUDE_M)),
    )
    tracker_stops = (
        (0.0, 600.0, stop(1090.0, 2566.0, 3.0)),
        (900.0, 1500.0, stop(1600.0, 2580.0, 3.0)),
        (1800.0, 2400.0, stop(2050.0, 2600.0, 3.0)),
        (2700.0, 3600.0, stop(2470.0, SUMMIT_ALTITUDE_M, 3.0)),
    )

    def dwell_route(legs: Iterable[tuple[float, float, LatLonAlt]]) -> Route:
        waypoints: list[Waypoint] = []
        for arrive, leave, position in legs:
            waypoints.append(Waypoint(arrive, position))
            waypoints.append(Waypoint(leave, position))
        return Route(waypoints=tuple(waypoints))

    mobile_route = dwell_route(stops)
    belt_route = dwell_route(tracker_stops)
    return Scenario(
        name="cumbre",
        duration_s=3600.0,
        seed=7,
        nodes=(
            NodeSpec(
                id="gateway",
                name="campus gateway",
                role=NodeRole.GATEWAY,
                position=origin,
            ),
            NodeSpec(
                id="mobile",
                name="carried node",
                role=NodeRole.CLIENT,
                position=mobile_route.waypoints[0].position,
                route=mobile_route,
                apps=(
                    AppSchedule(
                        port=Port.TEXT_MESSAGE_APP,
                        payload_source=PayloadSource.TEXT_FIXED,
                        period_s=120.0,
                        start_offset_s=30.0,
                        text="on the move",
                    ),
                ),
            ),
            NodeSpec(
                id="tracker",
                name="belt tracker",
                role=NodeRole.TRACKER,
                position=belt_route.waypoints[0].position,
                route=belt_route,
                apps=(
                    AppSchedule(
                        port=Port.POSITION_APP,
                        payload_source=PayloadSource.GNSS_TRACKER,
                        period_s=60.0,
                    ),
                ),
            ),
        ),
        default_env=(
            EnvBand(env=_nlos_built(2.0), max_distance_m=2250.0),
            EnvBand(env=_quasi_los(2.0)),
        ),
        outputs=frozenset({"summary", "map_csv", "map_kml", "uplinks", "series"}),
    )


def _single_shot_app() -> AppSchedule:
    # Period far beyond any reasonable duration: exactly one emission at t=0.
    return AppSchedule(
        port=Port.TEXT_MESSAGE_APP,
        payload_source=PayloadSource.TEXT_FIXED,
        period_s=10_000_000.0,
        text="probe",
    )


_FLAT_ORIGIN = LatLonAlt(0.0, 0.0, 0.0)

_SYNTH_ENV = EnvironmentClass(
    terrain=Terrain.LOS_OPEN,
    path_loss_exponent=2.0,
    reference_loss_db=REFERENCE_LOSS_915_DB,
    shadowing_sigma_db=0.0,
)

# Far enough that a frame lands below sensitivity at any legal exponent.
_UNREACHABLE_M = 1e7


def _line_nodes(count: int) -> tuple[NodeSpec, ...]:
    roles = [NodeRole.CLIENT] + [NodeRole.ROUTER] * (count - 2) + [NodeRole.GATEWAY]
    nodes = []
    for i in range(count):
        apps = (_single_shot_app(),) if i == 0 else ()
        nodes.append(
            NodeSpec(
                id=f"node{i}",
                name=f"line position {i}",
                role=roles[i],
                position=offset_position(_FLAT_ORIGIN, 300.0 * i, 0.0, 0.0),
                apps=apps,
            )
        )
    return tuple(nodes)


def _non_adjacent_cuts(count: int) -> tuple[LinkOverride, ...]:
    return tuple(
        LinkOverride(a=f"node{i}", b=f"node{j}", distance_m=_UNREACHABLE_M)
        for i in range(count)
        for j in range(i + 2, count)
    )


def line_scenario(count: int = 4) -> Scenario:
    """A chain with adjacent-only links; pins hop-budget behavior."""
    if count < 2:
        raise ValueError(f"line needs at least 2 nodes, got {count}")
    return Scenario(
        name=f"line{count}",
        duration_s=30.0,
        seed=1,
        nodes=_line_nodes(count),
        default_env=(EnvBand(env=_SYNTH_ENV),),
        links=_non_adjacent_cuts(count),
        outputs=frozenset({"summary", "uplinks", "series", "map_csv"}),
    )


def k4_scenario() -> Scenario:
    """Four nodes in a full mesh; pins flood dedup and transmission counts."""
    corners = (
        offset_position(_FLAT_ORIGIN, 0.0, 0.0),
        offset_position(_FLAT_ORIGIN, 200.0, 0.0),
        offset_position(_FLAT_ORIGIN, 0.0, 200.0),
        offset_position(_FLAT_ORIGIN, 200.0, 200.0),
    )
    roles = (NodeRole.CLIENT, NodeRole.CLIENT, NodeRole.ROUTER, NodeRole.GATEWAY)
    nodes = tuple(
        NodeSpec(
            id=f"node{i}",
            name=f"corner {i}",
            role=roles[i],
            position=corners[i],
            apps=(_single_shot_app(),) if i == 0 else (),
        )
        for i in range(4)
    )
    # Seed chosen so the contention draws spread the three rebroadcasts out
    # far enough that at least one copy decodes cleanly and registers as a
    # suppressed duplicate instead of a collision.
    return Scenario(
        name="k4",
        duration_s=30.0,
        seed=2,
        nodes=nodes,
        default_env=(EnvBand(env=_SYNTH_ENV),),
        outputs=frozenset({"summary", "uplinks", "series", "map_csv"}),
    )


BUILTIN_SCENARIOS = {
    "campus": campus_scenario,
    "cumbre": cumbre_scenario,
    "line4": line_scenario,
    "k4": k4_scenario,
}
