"""Deterministic simulator for small LoRa mesh deployments.

Models the full path from sensor sample to time-series record: LoRa
airtime and link budgets, flooding with SNR-shaped backoff, compact
telemetry payloads, and the gateway's uplink pipeline. Runs are
reproducible bit for bit from (scenario, seed).
"""

from .engine import (
    GatewayDelivery,
    ReceptionOutcome,
    ReceptionRecord,
    SimReport,
    run,
)
from .gateway import (
    SeriesRecord,
    UplinkMessage,
    classify_rssi,
    serialize_line_protocol,
    uplink_from_delivery,
    uplink_to_series,
)
from .geo import LatLonAlt, geo_to_local, node_distance_m, offset_position
from .mesh import (
    Action,
    ActionKind,
    ContentionParams,
    MeshPacket,
    NodeRole,
    Port,
    RouterState,
    RxMetadata,
)
from .phy import (
    EnvironmentClass,
    ExponentFit,
    RadioConfig,
    Terrain,
    calibrate_exponent,
    noise_floor_dbm,
    path_loss_db,
    sensitivity_dbm,
    time_on_air_s,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
)
from .telemetry import (
    AppSchedule,
    DiurnalProfile,
    IrradianceSample,
    PayloadSource,
    PositionFix,
)

__version__ = "1.0.0"

__all__ = [
    "Action",
    "ActionKind",
    "AppSchedule",
    "BUILTIN_SCENARIOS",
    "ContentionParams",
    "DiurnalProfile",
    "EnvironmentClass",
    "ExponentFit",
    "GatewayDelivery",
    "IrradianceSample",
    "LatLonAlt",
    "MeshPacket",
    "NodeRole",
    "PayloadSource",
    "Port",
    "PositionFix",
    "RadioConfig",
    "ReceptionOutcome",
    "ReceptionRecord",
    "RouterState",
    "RxMetadata",
    "Scenario",
    "ScenarioError",
    "SeriesRecord",
    "SimReport",
    "Terrain",
    "UplinkMessage",
    "calibrate_exponent",
    "classify_rssi",
    "geo_to_local",
    "load_scenario",
    "node_distance_m",
    "noise_floor_dbm",
    "offset_position",
    "path_loss_db",
    "run",
    "scenario_from_dict",
    "sensitivity_dbm",
    "serialize_line_protocol",
    "time_on_air_s",
    "uplink_from_delivery",
    "uplink_to_series",
    "__version__",
]
