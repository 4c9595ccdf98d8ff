"""Sensor payloads: ADC scaling, position and irradiance codecs, schedules."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

from .mesh import Port

ADC_FULL_SCALE = 4095  # 12-bit converter
ADC_REFERENCE_VOLTS = 3.3

# Amplified pyranometer output slope, volts per W/m^2 (Davis 6450 class).
PYRANOMETER_SCALE_V_PER_WM2 = 0.00167
IRRADIANCE_MAX_WM2 = 1800.0

DEGREE_SCALE = 1e7  # fixed-point degrees on the wire

_POSITION_STRUCT = struct.Struct("<iiiI")
_IRRADIANCE_STRUCT = struct.Struct("<Hf")

SECONDS_PER_DAY = 86_400.0


class CodecError(ValueError):
    """Payload bytes do not match the expected wire layout."""


class PayloadSource(Enum):
    IRRADIANCE_SENSOR = "IRRADIANCE_SENSOR"
    GNSS_TRACKER = "GNSS_TRACKER"
    TEXT_FIXED = "TEXT_FIXED"


@dataclass(frozen=True)
class AppSchedule:
    """Periodic application traffic emitted by one node."""

    port: Port
    payload_source: PayloadSource
    period_s: float
    start_offset_s: float = 0.0
    text: str = "ping"

    def __post_init__(self) -> None:
        problems = []
        # Written so that NaN fails each comparison.
        if not self.period_s > 0:
            problems.append(f"period_s {self.period_s} must be positive")
        elif self.period_s == math.inf:
            problems.append("period_s inf must be finite")
        if not self.start_offset_s >= 0:
            problems.append(f"start_offset_s {self.start_offset_s} must be >= 0")
        elif self.start_offset_s == math.inf:
            problems.append("start_offset_s inf must be finite")
        if problems:
            raise ValueError("invalid AppSchedule: " + "; ".join(problems))

    def emission_count(self, duration_s: float) -> int:
        """Emissions in [0, duration]: floor((D - offset) / period) + 1."""
        if self.start_offset_s > duration_s:
            return 0
        return int(math.floor((duration_s - self.start_offset_s) / self.period_s)) + 1


@dataclass(frozen=True)
class DiurnalProfile:
    """Half-sine daylight irradiance curve in ADC counts."""

    peak_adc: int = 3000
    sunrise_s: float = 6 * 3600.0
    sunset_s: float = 18 * 3600.0

    def __post_init__(self) -> None:
        problems = []
        if not 0 < self.peak_adc <= ADC_FULL_SCALE:
            problems.append(f"peak_adc {self.peak_adc} outside 1..{ADC_FULL_SCALE}")
        if not 0 <= self.sunrise_s < self.sunset_s <= SECONDS_PER_DAY:
            problems.append(
                f"daylight window [{self.sunrise_s}, {self.sunset_s}] must be "
                f"ordered and inside one day"
            )
        if problems:
            raise ValueError("invalid DiurnalProfile: " + "; ".join(problems))


@dataclass(frozen=True)
class IrradianceSample:
    """One pyranometer reading with its derived quantities."""

    adc_raw: int
    volts: float
    irradiance_wm2: float
    battery_soc: int | None = None

    @classmethod
    def from_adc(cls, adc_raw: int, battery_soc: int | None = None) -> "IrradianceSample":
        volts = adc_to_voltage(adc_raw)
        return cls(
            adc_raw=adc_raw,
            volts=volts,
            irradiance_wm2=voltage_to_irradiance(volts),
            battery_soc=battery_soc,
        )


@dataclass(frozen=True)
class PositionFix:
    """Decoded position payload; coordinates in fixed-point degrees."""

    latitude_i: int
    longitude_i: int
    altitude_m: int
    fix_time_s: int

    @property
    def latitude(self) -> float:
        return self.latitude_i / DEGREE_SCALE

    @property
    def longitude(self) -> float:
        return self.longitude_i / DEGREE_SCALE


def adc_to_voltage(adc_raw: int) -> float:
    """Scale a 12-bit ADC count to volts against the 3.3 V reference."""
    if not 0 <= adc_raw <= ADC_FULL_SCALE:
        raise ValueError(f"adc_raw {adc_raw} outside 0..{ADC_FULL_SCALE}")
    return adc_raw / ADC_FULL_SCALE * ADC_REFERENCE_VOLTS


def voltage_to_irradiance(volts: float) -> float:
    """Convert sensor volts to W/m^2.

    Values beyond the sensor's physical maximum are clamped rather than
    propagated, so a saturated ADC cannot fake a record sun.
    """
    if volts < 0:
        raise ValueError(f"volts {volts} must be >= 0")
    return min(volts / PYRANOMETER_SCALE_V_PER_WM2, IRRADIANCE_MAX_WM2)


def encode_position(
    latitude_deg: float, longitude_deg: float, altitude_m: float, fix_time_s: int
) -> bytes:
    """Pack a fix into 16 little-endian bytes: lat, lon, alt, time."""
    problems = []
    if not -90.0 <= latitude_deg <= 90.0:
        problems.append(f"latitude {latitude_deg} outside -90..90")
    if not -180.0 <= longitude_deg <= 180.0:
        problems.append(f"longitude {longitude_deg} outside -180..180")
    if not 0 <= fix_time_s < 1 << 32:
        problems.append(f"fix_time_s {fix_time_s} outside unsigned 32-bit range")
    if problems:
        raise ValueError("invalid position fix: " + "; ".join(problems))
    return _POSITION_STRUCT.pack(
        round(latitude_deg * DEGREE_SCALE),
        round(longitude_deg * DEGREE_SCALE),
        round(altitude_m),
        fix_time_s,
    )


def decode_position(payload: bytes) -> PositionFix:
    if len(payload) != _POSITION_STRUCT.size:
        raise CodecError(
            f"position payload is {len(payload)} bytes, expected {_POSITION_STRUCT.size}"
        )
    lat_i, lon_i, alt_m, fix_time = _POSITION_STRUCT.unpack(payload)
    return PositionFix(
        latitude_i=lat_i, longitude_i=lon_i, altitude_m=alt_m, fix_time_s=fix_time
    )


def encode_irradiance(sample: IrradianceSample) -> bytes:
    """Pack a reading into 6 bytes, or 7 with the optional battery field."""
    if not 0 <= sample.adc_raw <= ADC_FULL_SCALE:
        raise ValueError(f"adc_raw {sample.adc_raw} outside 0..{ADC_FULL_SCALE}")
    payload = _IRRADIANCE_STRUCT.pack(sample.adc_raw, sample.irradiance_wm2)
    if sample.battery_soc is not None:
        if not 0 <= sample.battery_soc <= 100:
            raise ValueError(f"battery_soc {sample.battery_soc} outside 0..100")
        payload += struct.pack("<B", sample.battery_soc)
    return payload


def decode_irradiance(payload: bytes) -> IrradianceSample:
    """Inverse of encode_irradiance; volts are recomputed from adc_raw."""
    base = _IRRADIANCE_STRUCT.size
    if len(payload) == base:
        battery = None
    elif len(payload) == base + 1:
        battery = payload[base]
    else:
        raise CodecError(
            f"irradiance payload is {len(payload)} bytes, expected {base} or {base + 1}"
        )
    adc_raw, irradiance = _IRRADIANCE_STRUCT.unpack(payload[:base])
    return IrradianceSample(
        adc_raw=adc_raw,
        volts=adc_to_voltage(adc_raw),
        irradiance_wm2=irradiance,
        battery_soc=battery,
    )


def irradiance_adc(time_s: float, profile: DiurnalProfile) -> int:
    """Synthetic ADC reading at a simulation time: half-sine over daylight.

    Zero outside the daylight window, peak at solar noon, symmetric
    about it, and continuous at sunrise and sunset.
    """
    t = time_s % SECONDS_PER_DAY
    if t < profile.sunrise_s or t > profile.sunset_s:
        return 0
    phase = (t - profile.sunrise_s) / (profile.sunset_s - profile.sunrise_s)
    return min(round(profile.peak_adc * math.sin(math.pi * phase)), ADC_FULL_SCALE)
