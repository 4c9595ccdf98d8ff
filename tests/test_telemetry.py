"""Telemetry codecs, sensor scaling, and the synthetic daylight curve."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshsim.mesh import Port
from meshsim.telemetry import (
    ADC_FULL_SCALE,
    IRRADIANCE_MAX_WM2,
    PYRANOMETER_SCALE_V_PER_WM2,
    AppSchedule,
    CodecError,
    DiurnalProfile,
    IrradianceSample,
    PayloadSource,
    adc_to_voltage,
    decode_irradiance,
    decode_position,
    encode_irradiance,
    encode_position,
    irradiance_adc,
    voltage_to_irradiance,
)


# --- ADC and sensor scaling --------------------------------------------------


def test_adc_midpoint_voltage():
    assert adc_to_voltage(2048) == pytest.approx(2048 / 4095 * 3.3, abs=1e-12)
    assert adc_to_voltage(0) == 0.0
    assert adc_to_voltage(ADC_FULL_SCALE) == 3.3


def test_adc_range_enforced():
    with pytest.raises(ValueError):
        adc_to_voltage(-1)
    with pytest.raises(ValueError):
        adc_to_voltage(4096)


def test_sensor_scale_one_wm2_per_step():
    value, clamped = voltage_to_irradiance(PYRANOMETER_SCALE_V_PER_WM2)
    assert value == pytest.approx(1.0)
    assert not clamped


def test_saturated_sensor_clamps_and_flags():
    # A full-scale ADC implies ~1976 W/m^2, beyond what the sensor can
    # physically report; the conversion pins it to the maximum.
    value, clamped = voltage_to_irradiance(3.3)
    assert value == IRRADIANCE_MAX_WM2
    assert clamped


def test_irradiance_below_max_not_flagged():
    value, clamped = voltage_to_irradiance(1.0)
    assert value == pytest.approx(1.0 / PYRANOMETER_SCALE_V_PER_WM2)
    assert not clamped


# --- position codec ----------------------------------------------------------


def test_position_packs_sixteen_bytes():
    payload = encode_position(4.9167, -74.0167, 2559.88, 1_700_000_000)
    assert len(payload) == 16
    fix = decode_position(payload)
    assert fix.latitude_i == round(4.9167 * 1e7)
    assert fix.longitude_i == round(-74.0167 * 1e7)
    assert fix.altitude_m == 2560
    assert fix.fix_time_s == 1_700_000_000
    assert fix.latitude == pytest.approx(4.9167, abs=1e-7)
    assert fix.longitude == pytest.approx(-74.0167, abs=1e-7)


def test_position_zero_fix_is_all_zero_bytes():
    assert encode_position(0.0, 0.0, 0, 0) == b"\x00" * 16


def test_position_range_validation():
    with pytest.raises(ValueError):
        encode_position(90.1, 0.0, 0, 0)
    with pytest.raises(ValueError):
        encode_position(0.0, -180.5, 0, 0)
    with pytest.raises(ValueError):
        encode_position(0.0, 0.0, 0, 1 << 32)


def test_position_decode_rejects_wrong_length():
    with pytest.raises(CodecError):
        decode_position(b"\x00" * 15)
    with pytest.raises(CodecError):
        decode_position(b"\x00" * 17)


@given(
    lat=st.floats(min_value=-90.0, max_value=90.0),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    alt=st.integers(min_value=-400, max_value=9000),
    fix=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
def test_position_roundtrip_within_fixed_point_step(lat, lon, alt, fix):
    decoded = decode_position(encode_position(lat, lon, alt, fix))
    assert decoded.latitude == pytest.approx(lat, abs=5e-8)
    assert decoded.longitude == pytest.approx(lon, abs=5e-8)
    assert decoded.altitude_m == alt
    assert decoded.fix_time_s == fix


# --- irradiance codec --------------------------------------------------------


def test_irradiance_roundtrip_without_battery():
    sample = IrradianceSample.from_adc(1234)
    payload = encode_irradiance(sample)
    assert len(payload) == 6
    back = decode_irradiance(payload)
    assert back.adc_raw == 1234
    assert back.battery_soc is None
    # The wire field is float32; exactness holds to its precision.
    assert back.irradiance_wm2 == struct.unpack(
        "<f", struct.pack("<f", sample.irradiance_wm2)
    )[0]
    assert back.volts == pytest.approx(sample.volts)


def test_irradiance_roundtrip_with_battery():
    sample = IrradianceSample.from_adc(2000, battery_soc=87)
    payload = encode_irradiance(sample)
    assert len(payload) == 7
    assert decode_irradiance(payload).battery_soc == 87


def test_irradiance_decode_rejects_bad_lengths():
    for n in (0, 5, 8):
        with pytest.raises(CodecError):
            decode_irradiance(b"\x00" * n)


def test_irradiance_battery_range():
    with pytest.raises(ValueError):
        encode_irradiance(IrradianceSample.from_adc(100, battery_soc=101))


# --- daylight curve ----------------------------------------------------------


def test_daylight_zero_outside_window():
    profile = DiurnalProfile()
    assert irradiance_adc(0.0, profile) == 0
    assert irradiance_adc(profile.sunrise_s - 1, profile) == 0
    assert irradiance_adc(profile.sunset_s + 1, profile) == 0


def test_daylight_peaks_at_solar_noon():
    profile = DiurnalProfile(peak_adc=3000)
    noon = (profile.sunrise_s + profile.sunset_s) / 2
    assert irradiance_adc(noon, profile) == 3000


def test_daylight_symmetric_about_noon():
    profile = DiurnalProfile()
    noon = (profile.sunrise_s + profile.sunset_s) / 2
    for dt in (600.0, 3600.0, 14400.0):
        assert irradiance_adc(noon - dt, profile) == irradiance_adc(noon + dt, profile)


def test_daylight_continuous_at_sunrise():
    profile = DiurnalProfile()
    assert irradiance_adc(profile.sunrise_s, profile) == 0
    assert irradiance_adc(profile.sunset_s, profile) == 0


def test_daylight_wraps_to_next_day():
    profile = DiurnalProfile()
    assert irradiance_adc(86400.0 + 43200.0, profile) == irradiance_adc(
        43200.0, profile
    )


@given(t=st.floats(min_value=0.0, max_value=7 * 86400.0))
def test_daylight_always_within_adc_range(t):
    value = irradiance_adc(t, DiurnalProfile())
    assert 0 <= value <= ADC_FULL_SCALE


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(peak_adc=0)
    with pytest.raises(ValueError):
        DiurnalProfile(sunrise_s=70000.0, sunset_s=60000.0)


# --- app schedules -----------------------------------------------------------


def test_schedule_emission_counts():
    telemetry = AppSchedule(Port.TELEMETRY_APP, PayloadSource.IRRADIANCE_SENSOR)
    assert telemetry.period_s == 300.0
    assert telemetry.emission_count(3600.0) == 13
    assert telemetry.emission_count(86400.0) == 289

    position = AppSchedule(
        Port.POSITION_APP, PayloadSource.GNSS_TRACKER, start_offset_s=15.0
    )
    assert position.period_s == 60.0
    assert position.emission_count(3600.0) == 60


def test_schedule_emission_inclusive_of_duration():
    app = AppSchedule(
        Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=10.0
    )
    assert app.emission_count(30.0) == 4  # t = 0, 10, 20, 30


def test_schedule_offset_beyond_duration():
    app = AppSchedule(
        Port.TEXT_MESSAGE_APP,
        PayloadSource.TEXT_FIXED,
        period_s=10.0,
        start_offset_s=60.0,
    )
    assert app.emission_count(30.0) == 0


def test_schedule_single_shot():
    app = AppSchedule(
        Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=1e9
    )
    assert app.emission_count(30.0) == 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        AppSchedule(
            Port.TEXT_MESSAGE_APP, PayloadSource.TEXT_FIXED, period_s=-5.0
        )
    with pytest.raises(ValueError):
        AppSchedule(
            Port.TEXT_MESSAGE_APP,
            PayloadSource.TEXT_FIXED,
            period_s=10.0,
            start_offset_s=-1.0,
        )


# Integer-valued times keep the float arithmetic exact, so the closed
# form and plain enumeration must agree everywhere in the range.
@given(
    duration=st.integers(min_value=1, max_value=10**6),
    period=st.integers(min_value=1, max_value=10**5),
    offset=st.integers(min_value=0, max_value=10**5),
)
def test_emission_count_matches_enumeration(duration, period, offset):
    app = AppSchedule(
        Port.TEXT_MESSAGE_APP,
        PayloadSource.TEXT_FIXED,
        period_s=float(period),
        start_offset_s=float(offset),
    )
    count = 0
    t = offset
    while t <= duration:
        count += 1
        t = offset + count * period
    assert app.emission_count(float(duration)) == count
