"""Physical-layer math against independent oracles and pinned values."""

import functools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.phy import (
    EnvironmentClass,
    InsufficientDataError,
    RadioConfig,
    Terrain,
    calibrate_exponent,
    link_budget_dbm,
    low_data_rate_optimize,
    noise_floor_dbm,
    path_loss_db,
    payload_symbols,
    received_signal,
    reference_loss_1m_db,
    round_half_away_from_zero,
    sensitivity_dbm,
    serial_sum,
    snr_floor_db,
    snr_raw_decode,
    snr_raw_encode,
    symbol_time_s,
    time_on_air_s,
)

LOS = EnvironmentClass(
    terrain=Terrain.LOS_OPEN,
    path_loss_exponent=2.6,
    reference_loss_db=reference_loss_1m_db(915e6),
    shadowing_sigma_db=0.0,
)


def oracle_payload_symbols(payload_len, sf, cr, crc, explicit_header, ldro):
    """Payload symbol count by counting groups one at a time instead of
    a closed-form ceil, so a rounding slip in either version disagrees.
    """
    numerator = 8 * payload_len - 4 * sf + 28 + (16 if crc else 0)
    if not explicit_header:
        numerator -= 20
    denominator = 4 * (sf - (2 if ldro else 0))
    groups = 0
    while groups * denominator < numerator:
        groups += 1
    return 8 + max(groups * (cr + 4), 0)


def oracle_time_on_air_s(payload_len, cfg):
    n = oracle_payload_symbols(
        payload_len,
        cfg.spreading_factor,
        cfg.coding_rate,
        cfg.crc_enabled,
        cfg.explicit_header,
        low_data_rate_optimize(cfg),
    )
    return (cfg.preamble_symbols + 4.25 + n) * ((1 << cfg.spreading_factor) / cfg.bandwidth_hz)


def test_airtime_pinned_default_frame():
    # 20-byte payload on the default radio: 33 payload symbols, 872.448 ms.
    cfg = RadioConfig()
    assert payload_symbols(20, cfg) == 33
    assert time_on_air_s(20, cfg) == 0.872448


def test_airtime_matches_oracle_across_grid():
    for sf in range(7, 13):
        for cr in (1, 2, 3, 4):
            cfg = RadioConfig(spreading_factor=sf, coding_rate=cr)
            for pl in (1, 2, 10, 20, 50, 100, 237, 255):
                assert time_on_air_s(pl, cfg) == oracle_time_on_air_s(pl, cfg)


def test_airtime_implicit_header_and_no_crc():
    cfg = RadioConfig(crc_enabled=False, explicit_header=False, preamble_symbols=8)
    for pl in (1, 5, 20, 255):
        assert time_on_air_s(pl, cfg) == oracle_time_on_air_s(pl, cfg)


def test_payload_symbol_floor_is_eight():
    # Tiny payloads at high SF push the numerator negative; the section
    # never shrinks below the 8-symbol base.
    cfg = RadioConfig(spreading_factor=12, crc_enabled=False)
    assert payload_symbols(1, cfg) == 8


def test_payload_length_bounds():
    cfg = RadioConfig()
    with pytest.raises(ValueError):
        payload_symbols(0, cfg)
    with pytest.raises(ValueError):
        payload_symbols(256, cfg)


def test_low_data_rate_optimize_rule():
    assert low_data_rate_optimize(RadioConfig(spreading_factor=11))
    assert low_data_rate_optimize(RadioConfig(spreading_factor=12))
    assert not low_data_rate_optimize(RadioConfig(spreading_factor=10))
    assert not low_data_rate_optimize(
        RadioConfig(spreading_factor=11, bandwidth_hz=250000)
    )


@given(pl=st.integers(min_value=1, max_value=254))
def test_airtime_never_shrinks_with_payload(pl):
    cfg = RadioConfig()
    assert time_on_air_s(pl + 1, cfg) >= time_on_air_s(pl, cfg)


def test_symbol_time():
    assert symbol_time_s(RadioConfig()) == 2048 / 125000


def test_noise_floor_and_sensitivity():
    cfg = RadioConfig()
    assert noise_floor_dbm(cfg) == pytest.approx(-117.0309, abs=1e-3)
    # SF11 floor is -17.5 dB, so sensitivity sits 17.5 dB under the noise.
    assert sensitivity_dbm(cfg) == pytest.approx(-134.5309, abs=1e-3)
    assert sensitivity_dbm(cfg) == noise_floor_dbm(cfg) + snr_floor_db(11)


def test_snr_floor_table():
    floors = [snr_floor_db(sf) for sf in range(7, 13)]
    assert floors == [-7.5, -10.0, -12.5, -15.0, -17.5, -20.0]
    with pytest.raises(ValueError):
        snr_floor_db(6)


def test_reference_loss_matches_free_space_formula():
    c = 299_792_458.0
    expected = 20 * math.log10(4 * math.pi * 915e6 / c)
    assert reference_loss_1m_db(915e6) == pytest.approx(expected, abs=1e-12)
    assert reference_loss_1m_db(915e6) == pytest.approx(31.676, abs=1e-3)


def test_path_loss_log_distance():
    env = EnvironmentClass(
        terrain=Terrain.NLOS_BUILT,
        path_loss_exponent=3.5,
        reference_loss_db=31.676,
        shadowing_sigma_db=0.0,
    )
    expected = 31.676 + 10 * 3.5 * math.log10(2050.0)
    assert path_loss_db(2050.0, env) == pytest.approx(expected, abs=1e-9)
    assert path_loss_db(100.0, env, shadow_db=4.0) == pytest.approx(
        31.676 + 35 * 2.0 + 4.0, abs=1e-9
    )


def test_path_loss_clamps_below_reference(caplog):
    with caplog.at_level("WARNING"):
        near = path_loss_db(0.5, LOS)
    assert near == path_loss_db(1.0, LOS)
    assert any("1 m" in rec.message for rec in caplog.records)


def test_received_signal_budget():
    cfg = RadioConfig()
    rssi, snr = received_signal(cfg, 100.0)
    assert rssi == pytest.approx(22.0 - 100.0)
    assert snr == pytest.approx(rssi - noise_floor_dbm(cfg))


def test_link_budget_takes_each_gain_from_its_own_side():
    tx = RadioConfig(tx_power_dbm=20.0, antenna_gain_tx_dbi=3.0, antenna_gain_rx_dbi=9.0)
    rx = RadioConfig(antenna_gain_tx_dbi=7.0, antenna_gain_rx_dbi=2.0)
    assert link_budget_dbm(tx, rx) == 20.0 + 3.0 + 2.0
    assert received_signal(tx, 100.0)[0] == 20.0 + 3.0 + 9.0 - 100.0


def test_snr_codec_quarter_db():
    assert snr_raw_encode(2.8) == 11
    assert snr_raw_decode(11) == 2.75
    assert snr_raw_encode(-7.4) == -30
    assert snr_raw_decode(-30) == -7.5


@given(raw=st.integers(min_value=-512, max_value=512))
def test_snr_codec_identity_on_grid(raw):
    assert snr_raw_encode(snr_raw_decode(raw)) == raw


def test_round_half_away_from_zero():
    assert round_half_away_from_zero(0.5) == 1
    assert round_half_away_from_zero(-0.5) == -1
    assert round_half_away_from_zero(2.4) == 2
    assert round_half_away_from_zero(-2.6) == -3


def _synthesize(exponent, distances, cfg, reference):
    budget = cfg.tx_power_dbm + cfg.antenna_gain_tx_dbi + cfg.antenna_gain_rx_dbi
    return [
        (d, budget - reference - 10.0 * exponent * math.log10(d)) for d in distances
    ]


def test_calibrate_recovers_exact_exponent():
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    for n in (2.0, 2.7, 3.5874, 5.9):
        fit = calibrate_exponent(
            _synthesize(n, [120.0, 800.0, 2470.0], cfg, reference), cfg, reference
        )
        assert fit.exponent == pytest.approx(n, abs=1e-9)
        assert not fit.clamped
        assert fit.rms_residual_db == pytest.approx(0.0, abs=1e-9)


def test_calibrate_single_point():
    # One informative measurement pins the exponent when the reference
    # loss is held fixed.
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    fit = calibrate_exponent([(2470.0, -110.0)], cfg, reference)
    expected = (22.0 - reference + 110.0) / (10.0 * math.log10(2470.0))
    assert fit.exponent == pytest.approx(expected, abs=1e-12)


def test_calibrate_is_least_squares_optimum():
    # Perturbing the fitted exponent in either direction cannot reduce
    # the residual; that property defines the optimum without repeating
    # the closed-form solution.
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    points = [(1090.0, -121.5), (1600.0, -125.5), (2050.0, -125.0)]

    def rms(n):
        budget = 22.0
        residuals = [
            (budget - reference - 10.0 * n * math.log10(d)) - rssi
            for d, rssi in points
        ]
        return math.sqrt(sum(r * r for r in residuals) / len(residuals))

    fit = calibrate_exponent(points, cfg, reference)
    assert rms(fit.exponent) <= rms(fit.exponent + 1e-4)
    assert rms(fit.exponent) <= rms(fit.exponent - 1e-4)
    assert fit.rms_residual_db == pytest.approx(rms(fit.exponent), abs=1e-9)


def test_calibrate_clamps_subphysical_fit():
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    fit = calibrate_exponent(
        _synthesize(1.2, [100.0, 1000.0], cfg, reference), cfg, reference
    )
    assert fit.exponent == 2.0
    assert fit.clamped


def test_calibrate_rejects_bad_input():
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    with pytest.raises(ValueError):
        calibrate_exponent([(0.5, -40.0)], cfg, reference)
    with pytest.raises(InsufficientDataError):
        calibrate_exponent([(1.0, -31.7)], cfg, reference)


@settings(max_examples=50)
@given(
    n=st.floats(min_value=2.0, max_value=6.0),
    distances=st.lists(
        st.floats(min_value=2.0, max_value=10000.0), min_size=1, max_size=8
    ),
)
def test_calibrate_roundtrip_property(n, distances):
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    fit = calibrate_exponent(_synthesize(n, distances, cfg, reference), cfg, reference)
    assert fit.exponent == pytest.approx(n, rel=1e-9)


def test_radio_config_collects_all_problems():
    with pytest.raises(ValueError) as exc:
        RadioConfig(spreading_factor=6, coding_rate=9, hop_limit=12)
    message = str(exc.value)
    assert "spreading_factor" in message
    assert "coding_rate" in message
    assert "hop_limit" in message


def test_environment_class_bounds():
    with pytest.raises(ValueError):
        EnvironmentClass(
            terrain=Terrain.LOS_OPEN,
            path_loss_exponent=1.5,
            reference_loss_db=31.7,
            shadowing_sigma_db=0.0,
        )
    with pytest.raises(ValueError):
        EnvironmentClass(
            terrain=Terrain.LOS_OPEN,
            path_loss_exponent=2.6,
            reference_loss_db=31.7,
            shadowing_sigma_db=-1.0,
        )


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)))
def test_serial_sum_adds_left_to_right(values):
    assert serial_sum(values) == functools.reduce(operator.add, values, 0.0)


def test_serial_sum_does_not_compensate():
    # Compensated summation (sum() from Python 3.12) would give 1.0.
    assert serial_sum([1e16, 1.0, -1e16]) == 0.0
