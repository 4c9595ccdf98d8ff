"""LoRa physical-layer math: airtime, link budget, path loss, sensitivity.

All functions here are pure. Units follow radio convention throughout:
powers in dBm, gains in dBi, losses and ratios in dB, distances in
meters, durations in seconds, frequencies and bandwidths in Hz.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

log = logging.getLogger(__name__)

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Thermal noise density at room temperature, dBm per Hz of bandwidth.
THERMAL_NOISE_DBM_HZ = -174.0

# Demodulation SNR floor per spreading factor, dB. Values are the
# SX126x-class demodulator limits; a receiver's sensitivity is its noise
# floor plus this margin.
SNR_FLOOR_BY_SF = {
    7: -7.5,
    8: -10.0,
    9: -12.5,
    10: -15.0,
    11: -17.5,
    12: -20.0,
}

# Granularity of the raw on-air SNR field: one count = 0.25 dB.
SNR_RAW_STEP_DB = 0.25

MIN_PAYLOAD_BYTES = 1
MAX_PAYLOAD_BYTES = 255

MAX_HOP_LIMIT = 7

MIN_PATH_LOSS_EXPONENT = 2.0  # never better than free space


class Terrain(Enum):
    """Coarse propagation regimes used to pick path-loss parameters."""

    LOS_OPEN = "LOS_OPEN"
    NLOS_BUILT = "NLOS_BUILT"
    QUASI_LOS_ELEVATED = "QUASI_LOS_ELEVATED"


@dataclass(frozen=True)
class RadioConfig:
    """Static radio parameters shared by modem math and the simulator.

    Defaults describe a long-range preset on the 915 MHz US band:
    SF11, 125 kHz, coding rate 4/5, 22 dBm, hop limit 3.
    """

    frequency_hz: float = 915_000_000.0
    spreading_factor: int = 11
    bandwidth_hz: float = 125_000.0
    coding_rate: int = 1  # 1..4, meaning 4/5 .. 4/8
    tx_power_dbm: float = 22.0
    hop_limit: int = 3
    preamble_symbols: int = 16
    crc_enabled: bool = True
    explicit_header: bool = True
    antenna_gain_tx_dbi: float = 0.0
    antenna_gain_rx_dbi: float = 0.0
    noise_figure_db: float = 6.0

    def __post_init__(self) -> None:
        problems = []
        if not 7 <= self.spreading_factor <= 12:
            problems.append(f"spreading_factor {self.spreading_factor} outside 7..12")
        if not 1 <= self.coding_rate <= 4:
            problems.append(f"coding_rate {self.coding_rate} outside 1..4")
        if not 0 <= self.hop_limit <= MAX_HOP_LIMIT:
            problems.append(f"hop_limit {self.hop_limit} outside 0..{MAX_HOP_LIMIT}")
        if self.bandwidth_hz <= 0:
            problems.append(f"bandwidth_hz {self.bandwidth_hz} must be positive")
        if self.frequency_hz <= 0:
            problems.append(f"frequency_hz {self.frequency_hz} must be positive")
        if self.preamble_symbols < 1:
            problems.append(f"preamble_symbols {self.preamble_symbols} must be >= 1")
        if self.noise_figure_db < 0:
            problems.append(f"noise_figure_db {self.noise_figure_db} must be >= 0")
        if problems:
            raise ValueError("invalid RadioConfig: " + "; ".join(problems))


def reference_loss_1m_db(frequency_hz: float) -> float:
    """Free-space loss at the 1 m reference distance for this frequency."""
    return 20.0 * math.log10(4.0 * math.pi * 1.0 * frequency_hz / SPEED_OF_LIGHT_M_S)


# An environment's reference loss unless it states its own.
REFERENCE_LOSS_915_DB = reference_loss_1m_db(915e6)


@dataclass(frozen=True)
class EnvironmentClass:
    """Log-distance path-loss parameters for one propagation regime."""

    terrain: Terrain
    path_loss_exponent: float
    reference_loss_db: float = REFERENCE_LOSS_915_DB
    shadowing_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        problems = []
        if self.path_loss_exponent < MIN_PATH_LOSS_EXPONENT:
            problems.append(
                f"path_loss_exponent {self.path_loss_exponent} below "
                f"{MIN_PATH_LOSS_EXPONENT}"
            )
        if self.reference_loss_db <= 0:
            problems.append(f"reference_loss_db {self.reference_loss_db} must be > 0")
        if self.shadowing_sigma_db < 0:
            problems.append(f"shadowing_sigma_db {self.shadowing_sigma_db} must be >= 0")
        if problems:
            raise ValueError("invalid EnvironmentClass: " + "; ".join(problems))


def round_half_away_from_zero(x: float) -> int:
    """Round to the nearest integer with ties going away from zero."""
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def symbol_time_s(cfg: RadioConfig) -> float:
    """Duration of one chirp symbol: 2^SF / BW."""
    return float(1 << cfg.spreading_factor) / cfg.bandwidth_hz


def low_data_rate_optimize(cfg: RadioConfig) -> bool:
    """LDRO is mandatory once a symbol lasts 16 ms or more (Semtech rule)."""
    return symbol_time_s(cfg) >= 0.016


def payload_symbols(payload_len: int, cfg: RadioConfig) -> int:
    """Symbol count of the payload section (includes the 8-symbol base)."""
    if not MIN_PAYLOAD_BYTES <= payload_len <= MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload_len {payload_len} outside "
            f"{MIN_PAYLOAD_BYTES}..{MAX_PAYLOAD_BYTES}"
        )
    de = 1 if low_data_rate_optimize(cfg) else 0
    ih = 0 if cfg.explicit_header else 1
    crc = 1 if cfg.crc_enabled else 0
    numerator = 8 * payload_len - 4 * cfg.spreading_factor + 28 + 16 * crc - 20 * ih
    denominator = 4 * (cfg.spreading_factor - 2 * de)
    groups = -(-numerator // denominator)  # integer ceil
    return 8 + max(groups * (cfg.coding_rate + 4), 0)


def time_on_air_s(payload_len: int, cfg: RadioConfig) -> float:
    """Frame airtime: (preamble + 4.25 + payload symbols) * symbol time."""
    n_payload = payload_symbols(payload_len, cfg)
    return (cfg.preamble_symbols + 4.25 + n_payload) * symbol_time_s(cfg)


def noise_floor_dbm(cfg: RadioConfig) -> float:
    """Receiver noise power over the signal bandwidth."""
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(cfg.bandwidth_hz) + cfg.noise_figure_db


def snr_floor_db(spreading_factor: int) -> float:
    try:
        return SNR_FLOOR_BY_SF[spreading_factor]
    except KeyError:
        raise ValueError(f"spreading_factor {spreading_factor} outside 7..12") from None


def sensitivity_dbm(cfg: RadioConfig) -> float:
    """Weakest decodable power: noise floor plus the SF's SNR floor."""
    return noise_floor_dbm(cfg) + snr_floor_db(cfg.spreading_factor)


def path_loss_db(distance_m: float, env: EnvironmentClass) -> float:
    """Mean log-distance path loss; the caller adds any shadowing.

    Distances shorter than the 1 m reference are clamped to 1 m; that
    only happens for co-located radios, which the model cannot separate.
    """
    if distance_m < 1.0:
        log.warning(
            "distance %.3f m below the 1 m reference, clamping (co-located nodes)",
            distance_m,
        )
        distance_m = 1.0
    return env.reference_loss_db + 10.0 * env.path_loss_exponent * math.log10(distance_m)


def link_budget_dbm(tx: RadioConfig, rx: RadioConfig) -> float:
    """Power at the receiver before path loss: transmit power plus both antenna gains."""
    return tx.tx_power_dbm + tx.antenna_gain_tx_dbi + rx.antenna_gain_rx_dbi


def received_signal(tx: RadioConfig, path_loss: float) -> tuple[float, float]:
    """(rssi_dbm, snr_db) of one frame between two radios configured like tx."""
    rssi = link_budget_dbm(tx, tx) - path_loss
    snr = rssi - noise_floor_dbm(tx)
    return rssi, snr


def snr_raw_encode(snr_db: float) -> int:
    """Quantize an SNR to the raw quarter-dB wire field."""
    return round_half_away_from_zero(snr_db / SNR_RAW_STEP_DB)


def snr_raw_decode(raw: int) -> float:
    """Expand the raw quarter-dB wire field back to dB."""
    return raw * SNR_RAW_STEP_DB


class ExponentFit(NamedTuple):
    """Result of a path-loss exponent fit."""

    exponent: float
    clamped: bool
    rms_residual_db: float


def serial_sum(values: Iterable[float]) -> float:
    """Add floats one at a time from 0.0, left to right.

    This is what sum() does up to Python 3.11. Python 3.12 made sum()
    compensate rounding, which moves the last bit of some results, so
    every sum that reaches an output goes through here instead.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class InsufficientDataError(ValueError):
    """Raised when a fit has no measurement that constrains the exponent."""


def calibrate_exponent(
    measurements: Iterable[tuple[float, float]],
    cfg: RadioConfig,
    reference_loss_db: float,
) -> ExponentFit:
    """Least-squares fit of the path-loss exponent from (distance, RSSI) pairs.

    The reference loss is held fixed, so the model is linear in the
    exponent and a single measurement away from the 1 m reference already
    determines it; additional points are combined by least squares over
    10*log10(distance). Fitted exponents below the free-space limit are
    clamped to 2.0 and flagged.

    Range-valued measurements should be collapsed to their midpoint by
    the caller before fitting.
    """
    budget = link_budget_dbm(cfg, cfg)
    xs: list[float] = []
    ys: list[float] = []
    for distance_m, rssi_dbm in measurements:
        if not (math.isfinite(distance_m) and math.isfinite(rssi_dbm)):
            raise ValueError(f"measurement ({distance_m} m, {rssi_dbm} dBm) is not finite")
        if distance_m < 1.0:
            raise ValueError(f"measurement distance {distance_m} m below 1 m reference")
        xs.append(10.0 * math.log10(distance_m))
        ys.append(budget - reference_loss_db - rssi_dbm)
    sum_xx = serial_sum(x * x for x in xs)
    if sum_xx == 0.0:
        raise InsufficientDataError(
            "need at least one measurement beyond the 1 m reference distance"
        )
    n = serial_sum(x * y for x, y in zip(xs, ys)) / sum_xx
    clamped = n < MIN_PATH_LOSS_EXPONENT
    if clamped:
        n = MIN_PATH_LOSS_EXPONENT
    rms = math.sqrt(serial_sum((y - n * x) ** 2 for x, y in zip(xs, ys)) / len(xs))
    return ExponentFit(exponent=n, clamped=clamped, rms_residual_db=rms)
