"""Output checks, simulated statistics and the model accuracy line.

Everything here reads the files a run left on disk; nothing is taken
from the program's own in-memory objects. The line-protocol reader is
written from the format description, not shared with the test suite.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from workloads import expected_originations

OUTCOMES = ("decoded", "collided", "below_sensitivity", "below_snr_floor", "tx_busy")
STAT_KEYS = ("transmissions", "candidates", *OUTCOMES, "duplicates", "uplinks", "originated")


def _split_unescaped(text: str, sep: str) -> list[str]:
    parts, cur, i = [], [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            cur.append(text[i : i + 2])
            i += 2
            continue
        if ch == sep:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    parts.append("".join(cur))
    return parts


def _unescape(text: str) -> str:
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            out.append(text[i + 1])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def parse_line_protocol(text: str) -> list[tuple[str, dict, dict, int]]:
    """(measurement, tags, fields, time_ns) per non-empty line."""
    points = []
    for line in text.splitlines():
        if not line:
            continue
        head, fields_text, stamp = _split_unescaped(line, " ")
        measurement, *tag_parts = _split_unescaped(head, ",")
        tags = {}
        for part in tag_parts:
            key, value = _split_unescaped(part, "=")
            tags[_unescape(key)] = _unescape(value)
        fields = {}
        for part in _split_unescaped(fields_text, ","):
            key, value = _split_unescaped(part, "=")
            fields[_unescape(key)] = int(value[:-1]) if value.endswith("i") else float(value)
        points.append((_unescape(measurement), tags, fields, int(stamp)))
    return points


def summary_stats(summary: dict) -> dict[str, int]:
    counts = summary["counts"]
    stats = {
        "transmissions": counts["transmissions"],
        "candidates": sum(counts[k] for k in OUTCOMES),
        "duplicates": counts["duplicates_suppressed"],
        "uplinks": sum(summary["delivered_to_gateway"].values()),
        "originated": sum(summary["originated"].values()),
    }
    stats.update({k: counts[k] for k in OUTCOMES})
    return stats


def check_run_dir(out_dir: Path, scenario: dict, summary: dict) -> list[str]:
    """Problems with one run's files; an empty list means they agree."""
    problems = []
    outputs = set(scenario.get("outputs", ["summary"]))
    stats = summary_stats(summary)
    gateways = {n["id"] for n in scenario["nodes"] if n["role"] == "GATEWAY"}
    others = len(scenario["nodes"]) - 1

    if stats["candidates"] != stats["transmissions"] * others:
        problems.append(f"candidates {stats['candidates']} != transmissions x {others}")
    want = expected_originations(scenario)
    if summary["originated"] != want:
        problems.append(f"originated {summary['originated']} != schedules {want}")
    bad_pdr = {k: v for k, v in summary["pdr"].items() if not 0.0 <= v <= 1.0}
    if bad_pdr:
        problems.append(f"PDR outside [0, 1]: {bad_pdr}")

    uplinks = None
    if "uplinks" in outputs:
        lines = (out_dir / "uplinks.ndjson").read_text().splitlines()
        uplinks = [json.loads(line)["body"] for line in lines]
        if len(uplinks) != stats["uplinks"]:
            problems.append(f"uplinks.ndjson {len(uplinks)} lines != delivered {stats['uplinks']}")
    if "series" in outputs and uplinks is not None:
        points = parse_line_protocol((out_dir / "series.lp").read_text())
        got = Counter(m for m, _, _, _ in points)
        ports = Counter(u["port"] for u in uplinks)
        expect = Counter(link=len(uplinks))
        expect["irradiance"] = ports["TELEMETRY_APP"]
        expect["position"] = ports["POSITION_APP"]
        if +got != +expect:
            problems.append(f"series.lp points {dict(got)} != uplinks by port {dict(expect)}")
    if "map_csv" in outputs:
        rows = (out_dir / "map.csv").read_text().splitlines()[1:]
        frames = sum(
            s["frames"] for k, s in summary["links"].items() if k.split("->")[1] in gateways
        )
        if len(rows) != frames:
            problems.append(f"map.csv {len(rows)} rows != decoded gateway frames {frames}")
    if "report" in outputs:
        report = json.loads((out_dir / "report.json").read_text())
        if len(report["receptions"]) != stats["candidates"]:
            problems.append(
                f"report.json {len(report['receptions'])} receptions != outcome sum {stats['candidates']}"
            )
    return problems


def check_outputs(out_root: Path, scenario: dict, seeds: list[int] | None):
    """Check a pipeline run (seeds None) or a seed batch.

    Returns (stats summed over seeds, sha256 over the summary.json bytes
    in seed order, problems).
    """
    dirs = [(out_root, scenario)] if seeds is None else [
        (out_root / f"seed_{s}", dict(scenario, seed=s)) for s in seeds
    ]
    total = Counter()
    digest = hashlib.sha256()
    problems = []
    for out_dir, sc in dirs:
        raw = (out_dir / "summary.json").read_bytes()
        digest.update(raw)
        summary = json.loads(raw)
        total.update(summary_stats(summary))
        problems += [f"{out_dir.name}: {p}" for p in check_run_dir(out_dir, sc, summary)]
    if seeds is not None:
        batch = json.loads((out_root / "batch_summary.json").read_text())
        if batch["seeds"] != seeds:
            problems.append(f"batch_summary seeds {batch['seeds']} != {seeds}")
        if not all(0.0 <= v <= 1.0 for v in batch["mean_pdr"].values()):
            problems.append(f"batch mean PDR outside [0, 1]: {batch['mean_pdr']}")
    return {k: total[k] for k in STAT_KEYS}, digest.hexdigest(), problems


def model_accuracy(meshsim) -> str:
    """One line: link model against the committed drive-test figures."""
    from meshsim.phy import EnvironmentClass, RadioConfig, Terrain, path_loss_db, received_signal
    from meshsim.scenarios import (
        NLOS_EXPONENT, QUASI_LOS_EXPONENT, REFERENCE_LOSS_915_DB,
        ROUTE_RSSI_MIDPOINTS, SUMMIT_RSSI_TARGET,
    )

    cfg = RadioConfig()

    def rssi(terrain, exponent, distance_m):
        env = EnvironmentClass(terrain, exponent, REFERENCE_LOSS_915_DB, 0.0)
        return received_signal(cfg, path_loss_db(distance_m, env))[0]

    residuals = [rssi(Terrain.NLOS_BUILT, NLOS_EXPONENT, d) - r for d, r in ROUTE_RSSI_MIDPOINTS]
    rms = math.sqrt(sum(x * x for x in residuals) / len(residuals))
    d, target = SUMMIT_RSSI_TARGET
    summit = rssi(Terrain.QUASI_LOS_ELEVATED, QUASI_LOS_EXPONENT, d)
    return (
        f"model accuracy: NLOS link model RMS residual {rms:.2f} dB over "
        f"{len(residuals)} drive-test midpoints (n={NLOS_EXPONENT:.3f}); summit "
        f"{d / 1000:.2f} km predicted {summit:.2f} dBm vs {target:.0f} dBm measured "
        f"(error {summit - target:+.2f} dB); collision and flood models have no "
        "reference data in the repo and are unvalidated"
    )
