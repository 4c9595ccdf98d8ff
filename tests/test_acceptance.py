"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion states its tolerance inline; a failure prints the same
line with FAIL and the measured values, then fails the test.
"""

import contextlib
import io
import json
import math
import random
import re
import time

from conftest import expected_series, flood_oracle, parse_line_protocol

from meshsim import cli, engine
from meshsim.cli import write_outputs
from meshsim.gateway import classify_rssi, serialize_line_protocol, uplink_from_delivery, uplink_to_series
from meshsim.mesh import ContentionParams, NodeRole, backoff_delay_s
from meshsim.phy import (
    RadioConfig,
    calibrate_exponent,
    reference_loss_1m_db,
    snr_raw_decode,
    snr_raw_encode,
    time_on_air_s,
)
from meshsim.report import ReceptionOutcome
from meshsim.scenarios import (
    BUILTIN_SCENARIOS,
    campus_scenario,
    cumbre_scenario,
    k4_scenario,
    line_scenario,
)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


# Reference airtime, built from scratch (group counting instead of a
# closed-form ceil, LDRO from Semtech's 16 ms symbol rule); see test_phy
# for the derivation.
def _oracle_toa(payload_len: int, cfg: RadioConfig) -> float:
    symbol_s = 2**cfg.spreading_factor / cfg.bandwidth_hz
    ldro = symbol_s >= 0.016
    numerator = 8 * payload_len - 4 * cfg.spreading_factor + 28
    numerator += 16 if cfg.crc_enabled else 0
    numerator -= 0 if cfg.explicit_header else 20
    denominator = 4 * (cfg.spreading_factor - (2 if ldro else 0))
    groups = 0
    while groups * denominator < numerator:
        groups += 1
    n = 8 + max(groups * (cfg.coding_rate + 4), 0)
    return (cfg.preamble_symbols + 4.25 + n) * symbol_s


def test_01_airtime_exact_over_grid():
    """Airtime equals the reference for every payload/SF/CR combination."""
    started = time.perf_counter()
    mismatches = 0
    checked = 0
    for sf in range(7, 13):
        for cr in (1, 2, 3, 4):
            cfg = RadioConfig(spreading_factor=sf, coding_rate=cr)
            for pl in range(1, 256):
                checked += 1
                if time_on_air_s(pl, cfg) != _oracle_toa(pl, cfg):
                    mismatches += 1
    spot = time_on_air_s(20, RadioConfig())
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and spot == 0.872448 and elapsed < 5.0
    _verdict(
        "airtime exactness",
        ok,
        f"{checked} combinations, {mismatches} mismatches, "
        f"20B spot {spot * 1000:.3f} ms (want 872.448), {elapsed:.2f}s",
    )


def test_02_exponent_fit_and_predictions(tmp_path):
    """A single exponent fitted by --calibrate on the survey midpoints
    predicts RSSI within 4 dB of the nearest endpoint of every measured
    range (the last row is a single point)."""
    started = time.perf_counter()
    intervals = [
        (1090.0, -133.0, -110.0),
        (1600.0, -127.0, -124.0),
        (2050.0, -125.0, -125.0),
    ]
    csv_path = tmp_path / "survey.csv"
    csv_path.write_text(
        "distance_m,rssi_min,rssi_max,rssi_dbm\n"
        "1090,-133,-110,\n"
        "1600,-127,-124,\n"
        "2050,,,-125\n"
    )
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = cli.main(["--calibrate", str(csv_path)])
    match = re.search(r"n=(-?\d+\.\d+)", stdout.getvalue())
    n_cli = float(match.group(1)) if match else float("nan")

    midpoints = [(d, (lo + hi) / 2) for d, lo, hi in intervals]
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    fit = calibrate_exponent(midpoints, cfg, reference)

    def gap(distance, lo, hi):
        predicted = 22.0 - reference - 10.0 * fit.exponent * math.log10(distance)
        return max(lo - predicted, predicted - hi, 0.0)

    gaps = [gap(*iv) for iv in intervals]
    summit = calibrate_exponent([(2470.0, -110.0)], cfg, reference)
    elapsed = time.perf_counter() - started
    ok = (
        exit_code == 0
        and abs(n_cli - fit.exponent) <= 5e-5
        and 3.2 <= fit.exponent <= 3.8
        and all(g <= 4.0 for g in gaps)
        and 2.5 <= summit.exponent <= 3.2
        and elapsed < 1.0
    )
    _verdict(
        "exponent calibration",
        ok,
        f"--calibrate n={n_cli:.4f} == fit {fit.exponent:.4f} (want 3.2..3.8), "
        f"endpoint gaps at 1090/1600/2050 m {[round(g, 2) for g in gaps]} dB "
        f"(want <=4), n_summit={summit.exponent:.4f} (want 2.5..3.2), "
        f"{elapsed:.2f}s",
    )


def test_03_summit_link_reproduction():
    """Frames sent from the summit stop reach the gateway almost always,
    with the observed signal level."""
    started = time.perf_counter()
    sc = cumbre_scenario()
    report = engine.run(sc.replace(outputs=sc.outputs | {"report"}))
    summit = [
        r
        for r in report.receptions
        if r.transmitter == "mobile"
        and r.origin == "mobile"
        and r.receiver == "gateway"
        and r.distance_m > 2400.0
    ]
    decoded = [r for r in summit if r.outcome is ReceptionOutcome.DECODED]
    ratio = len(decoded) / len(summit) if summit else 0.0
    mean_rssi = sum(r.rssi_dbm for r in decoded) / len(decoded) if decoded else 0.0
    mean_snr = sum(r.snr_db for r in decoded) / len(decoded) if decoded else -99.0
    elapsed = time.perf_counter() - started
    ok = (
        len(summit) >= 5
        and ratio >= 0.95
        and abs(mean_rssi - (-110.0)) <= 3.0
        and mean_snr > 0.0
        and elapsed < 5.0
    )
    _verdict(
        "summit link reproduction",
        ok,
        f"{len(decoded)}/{len(summit)} decoded (want >=95%), mean RSSI "
        f"{mean_rssi:.2f} dBm (want -110+/-3), mean SNR {mean_snr:.2f} dB "
        f"(want >0), {elapsed:.2f}s",
    )


def test_04_snr_codec_exact():
    """The quarter-dB SNR wire codec is lossless on its grid."""
    identity = all(
        snr_raw_encode(snr_raw_decode(raw)) == raw for raw in range(-512, 513)
    )
    spots = (
        snr_raw_encode(2.8) == 11
        and snr_raw_decode(11) == 2.75
        and snr_raw_encode(-7.4) == -30
        and snr_raw_decode(-30) == -7.5
    )
    ok = identity and spots
    _verdict(
        "snr codec",
        ok,
        f"grid identity over 1025 values: {identity}, spot checks: {spots}",
    )


def test_05_full_mesh_flood_counts():
    """Four nodes in range of each other: one origination makes at most
    four transmissions, one delivery per non-origin node, and the flood
    is stopped by dedup at least twice."""
    sc = k4_scenario()
    report = engine.run(sc)
    ids = [n.id for n in sc.nodes]
    adjacency = {a: {b for b in ids if b != a} for a in ids}
    tx_expected, delivered = flood_oracle(adjacency, "node0", sc.radio.hop_limit)
    ok = (
        report.transmissions == tx_expected
        and report.transmissions <= 4
        and dict(report.app_deliveries) == {n: 1 for n in delivered}
        and set(delivered) == {"node1", "node2", "node3"}
        and report.duplicates_suppressed >= 2
        and report.delivered_to_gateway == {"node0": 1}
    )
    _verdict(
        "full-mesh flood",
        ok,
        f"tx={report.transmissions} (want <=4), deliveries="
        f"{dict(sorted(report.app_deliveries.items()))} (want 1 each), "
        f"duplicates suppressed {report.duplicates_suppressed} (want >=2), "
        f"oracle tx={tx_expected}",
    )


def test_06_hop_budget_boundary():
    """On a five-node chain with a three-hop budget, the fourth node
    delivers and the fifth never hears a decodable frame."""
    sc = line_scenario(count=5)
    report = engine.run(sc.replace(outputs=sc.outputs | {"report"}))
    ids = [n.id for n in sc.nodes]
    adjacency = {
        a: {b for b in ids if abs(ids.index(a) - ids.index(b)) == 1} for a in ids
    }
    tx_expected, delivered = flood_oracle(adjacency, "node0", sc.radio.hop_limit)
    hops = dict(report.hop_count_histogram)
    node4_decoded = [
        r
        for r in report.receptions
        if r.receiver == "node4" and r.outcome is ReceptionOutcome.DECODED
    ]
    ok = (
        report.transmissions == tx_expected == 3
        and delivered == {"node1": 1, "node2": 2, "node3": 3}
        and hops == {1: 1, 2: 1, 3: 1}
        and "node4" not in report.app_deliveries
        and not node4_decoded
        and report.delivered_to_gateway == {}
    )
    _verdict(
        "hop budget boundary",
        ok,
        f"tx={report.transmissions} (want 3), hops={hops} "
        f"(want {{1:1, 2:1, 3:1}}), node4 decoded={len(node4_decoded)} (want 0)",
    )


def test_07_contention_window_shaping():
    """Backoff delay grows with SNR for every role and infrastructure
    roles contend in a tighter window than clients; 100k draws per cell."""
    started = time.perf_counter()
    params = ContentionParams()
    slot = 0.140
    draws = 100_000
    snrs = (-20.0, -10.0, 0.0, 10.0)
    means = {}
    aligned = True
    for role in NodeRole:
        for snr in snrs:
            rng = random.Random(1234)
            total = 0.0
            _, cw_max = params.windows[role]
            for _ in range(draws):
                delay = backoff_delay_s(snr, role, rng, params, slot)
                total += delay
                if delay % slot > 1e-9 or delay > cw_max * slot:
                    aligned = False
            means[(role, snr)] = total / draws
    per_role = {role: [means[(role, s)] for s in snrs] for role in NodeRole}
    monotone = all(seq == sorted(seq) for seq in per_role.values())
    strictly_wider = all(seq[-1] > seq[0] for seq in per_role.values())
    router = per_role[NodeRole.ROUTER]
    client = per_role[NodeRole.CLIENT]
    ordered = all(r <= c for r, c in zip(router, client))
    elapsed = time.perf_counter() - started
    ok = monotone and strictly_wider and ordered and aligned and elapsed < 30.0
    _verdict(
        "contention shaping",
        ok,
        f"{len(per_role)} roles monotone in SNR: {monotone}; router means "
        f"{[round(m, 4) for m in router]} s, client means "
        f"{[round(m, 4) for m in client]} s (want router<=client), "
        f"slot-aligned={aligned}, {elapsed:.1f}s",
    )


def test_08_day_long_campus_soak():
    """A full day of campus traffic: no packet loss at the gateway and
    one irradiance record per telemetry emission, byte-exact through the
    series pipeline."""
    started = time.perf_counter()
    sc = campus_scenario().replace(duration_s=86400.0)
    report = engine.run(sc)
    pdr = report.pdr()
    uplinks = [
        uplink_from_delivery(d, region=sc.region, epoch_s=sc.epoch_s)
        for d in report.gateway_receptions
        if d.uplinked
    ]
    points = [line for u in uplinks for line in uplink_to_series(u)]
    parsed = parse_line_protocol(serialize_line_protocol(points))
    irradiance = [p for p in parsed if p["measurement"] == "irradiance"]
    expected = [p for u in uplinks for p in expected_series(u.gateway_id, u.body)]
    roundtrip = len(parsed) == len(points) and parsed == expected
    elapsed = time.perf_counter() - started
    ok = (
        pdr == {"node1": 1.0, "tracker": 1.0}
        and report.originated["node1"] == 289
        and len(irradiance) == 289
        and roundtrip
        and elapsed < 60.0
    )
    _verdict(
        "day-long campus soak",
        ok,
        f"pdr={pdr} (want 1.0 each), irradiance records {len(irradiance)} "
        f"(want 289), series round trip exact: {roundtrip}, {elapsed:.1f}s",
    )


def test_09_byte_determinism(tmp_path):
    """Rerunning any built-in scenario reproduces every output file byte
    for byte."""
    compared = []
    identical = True
    for name, factory in BUILTIN_SCENARIOS.items():
        dirs = []
        for label in ("a", "b"):
            sc = factory()
            report = engine.run(sc)
            out_dir = tmp_path / name / label
            write_outputs(report, sc, out_dir)
            dirs.append(out_dir)
        for filename in ("summary.json", "uplinks.ndjson", "series.lp", "map.csv"):
            a = (dirs[0] / filename).read_bytes()
            b = (dirs[1] / filename).read_bytes()
            compared.append(f"{name}/{filename}")
            if a != b:
                identical = False
    _verdict(
        "byte determinism",
        identical,
        f"{len(compared)} files compared across {len(BUILTIN_SCENARIOS)} "
        f"scenarios, all identical: {identical}",
    )


def test_10_signal_quality_buckets():
    """Map coloring thresholds: above -90 green, below -110 red, both
    boundaries inclusive into orange."""
    cases = [
        (-85.0, "GREEN"),
        (-89.999, "GREEN"),
        (-90.0, "ORANGE"),
        (-100.0, "ORANGE"),
        (-110.0, "ORANGE"),
        (-110.001, "RED"),
        (-120.0, "RED"),
        (-50.0, "GREEN"),
        (-130.0, "RED"),
    ]
    failures = [
        (rssi, classify_rssi(rssi), want)
        for rssi, want in cases
        if classify_rssi(rssi) != want
    ]
    _verdict(
        "signal-quality buckets",
        not failures,
        f"{len(cases)} boundary cases, failures: {failures or 'none'}",
    )
