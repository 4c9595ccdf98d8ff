"""Command-line front end: run scenarios, write artifacts, fit exponents.

Exit codes: 0 on success, 2 for invalid input (bad flags, unloadable or
unsound scenarios, malformed calibration data), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack
from pathlib import Path

from . import engine, gateway
from .phy import (
    InsufficientDataError,
    RadioConfig,
    reference_loss_1m_db,
    calibrate_exponent,
    serial_sum,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    OUTPUT_KINDS,
    Scenario,
    ScenarioError,
    load_scenario,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshsim",
        description="Run a mesh radio scenario and write its outputs.",
    )
    parser.add_argument(
        "--scenario",
        default="campus",
        help="built-in name (%s) or path to a scenario JSON file"
        % ", ".join(sorted(BUILTIN_SCENARIOS)),
    )
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument(
        "--seeds",
        help="run a seed batch, inclusive range 'A..B'; outputs land in "
        "per-seed subdirectories",
    )
    parser.add_argument(
        "--duration", type=float, help="override the scenario duration in seconds"
    )
    parser.add_argument(
        "--out-dir", default="out", help="directory for output files (default: out)"
    )
    parser.add_argument(
        "--emit",
        help="comma-separated output kinds overriding the scenario "
        "(%s); summary is always written" % ", ".join(sorted(OUTPUT_KINDS)),
    )
    parser.add_argument(
        "--calibrate",
        metavar="CSV",
        help="fit path-loss exponents from a drive-test CSV instead of "
        "simulating (columns: distance_m, rssi_dbm or rssi_min/rssi_max, "
        "optional zone)",
    )
    return parser


def _parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("..")
    if not sep:
        raise ValueError(f"--seeds wants 'A..B', got {text!r}")
    a, b = int(first), int(last)
    if b < a:
        raise ValueError(f"--seeds range {text!r} is empty")
    return list(range(a, b + 1))


def run_calibration(path: Path) -> int:
    """Fit one exponent per zone from measured (distance, RSSI) rows.

    Rows carry either a point value (rssi_dbm) or a range (rssi_min and
    rssi_max) that is collapsed to its midpoint before fitting.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    zones: dict[str, list[tuple[float, float]]] = {}
    try:
        for row in rows:
            distance = float(row["distance_m"])
            if row.get("rssi_dbm") not in (None, ""):
                rssi = float(row["rssi_dbm"])
            else:
                rssi = (float(row["rssi_min"]) + float(row["rssi_max"])) / 2.0
            zone = (row.get("zone") or "all").strip()
            zones.setdefault(zone, []).append((distance, rssi))
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad calibration row: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not zones:
        print("error: no calibration rows found", file=sys.stderr)
        return EXIT_USAGE
    cfg = RadioConfig()
    reference = reference_loss_1m_db(cfg.frequency_hz)
    for zone in sorted(zones):
        try:
            fit = calibrate_exponent(zones[zone], cfg, reference)
        except (InsufficientDataError, ValueError) as exc:
            print(f"error: zone {zone}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        flag = " (clamped to free-space minimum)" if fit.clamped else ""
        print(
            f"{zone}: n={fit.exponent:.4f} over {len(zones[zone])} points, "
            f"rms residual {fit.rms_residual_db:.2f} dB{flag}"
        )
    return EXIT_OK


def write_outputs(
    report: engine.SimReport, scenario: Scenario, out_dir: Path
) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str) -> None:
        target = out_dir / name
        target.write_text(text, encoding="utf-8")
        written.append(target)

    summary = report.summary_dict()
    emit("summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs = scenario.outputs
    if "report" in outputs:
        target = out_dir / "report.json"
        with target.open("w", encoding="utf-8") as handle:
            report.write_json(handle, summary)
        written.append(target)
    if "trace" in outputs:
        emit("trace.log", "\n".join(report.trace or []) + "\n")
    if "map_csv" in outputs:
        emit("map.csv", gateway.reception_map_csv(report, scenario))
    if "map_kml" in outputs:
        emit("map.kml", gateway.reception_map_kml(report, scenario))
    if outputs & {"uplinks", "series"}:
        # One delivery at a time: its uplink, JSON line and series points are
        # written before the next is built, so memory does not grow with the run.
        with ExitStack() as stack:

            def stream(name: str, kind: str):
                if kind not in outputs:
                    return None
                target = out_dir / name
                written.append(target)
                return stack.enter_context(target.open("w", encoding="utf-8")).write

            write_uplink = stream("uplinks.ndjson", "uplinks")
            write_series = stream("series.lp", "series")
            for delivery in report.gateway_deliveries:
                uplink = gateway.uplink_from_delivery(
                    delivery, region=scenario.region, epoch_s=scenario.epoch_s
                )
                if write_uplink is not None:
                    write_uplink(uplink.to_json() + "\n")
                if write_series is not None:
                    records = gateway.uplink_to_series(uplink)
                    write_series(gateway.serialize_line_protocol(records) + "\n")
            if write_series is not None and not report.gateway_deliveries:
                write_series("\n")  # what serialize_line_protocol([]) + "\n" gives
    return written


def print_summary(s: dict, written: list[Path]) -> None:
    c = s["counts"]
    print(f"scenario {s['scenario']} seed {s['seed']} duration {s['duration_s']:g} s")
    print(
        f"  transmissions {c['transmissions']}, decoded {c['decoded']}, "
        f"collided {c['collided']}, tx_busy {c['tx_busy']}, "
        f"duplicates suppressed {c['duplicates_suppressed']}"
    )
    if s["pdr"]:
        pdr = ", ".join(f"{node} {value:.3f}" for node, value in s["pdr"].items())
        print(f"  gateway PDR: {pdr}")
    for pair, stats in s["links"].items():
        print(
            f"  link {pair}: mean RSSI {stats['mean_rssi_dbm']:.1f} dBm, "
            f"mean SNR {stats['mean_snr_db']:.1f} dB over {stats['frames']} frames"
        )
    for path in written:
        print(f"  wrote {path}")


def _merge_summaries(
    scenario: Scenario, seeds: list[int], summaries: dict[int, dict]
) -> dict:
    """Fold a seed batch into one document: per-seed runs plus mean PDR."""
    pdr_samples: dict[str, list[float]] = {}
    for seed in seeds:
        for origin, value in summaries[seed]["pdr"].items():
            pdr_samples.setdefault(origin, []).append(value)
    return {
        "scenario": scenario.name,
        "seeds": seeds,
        "mean_pdr": {
            origin: round(serial_sum(vals) / len(vals), 6)
            for origin, vals in sorted(pdr_samples.items())
        },
        "runs": {str(seed): summaries[seed] for seed in seeds},
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; fold its exit into our codes.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    if args.calibrate:
        return run_calibration(Path(args.calibrate))

    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_USAGE

    if args.duration is not None:
        scenario = scenario.replace(duration_s=args.duration)
    if args.emit is not None:
        kinds = frozenset(k.strip() for k in args.emit.split(",") if k.strip())
        unknown = kinds - OUTPUT_KINDS
        if unknown:
            print(f"error: unknown output kinds {sorted(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        scenario = scenario.replace(outputs=kinds)

    if args.seeds is not None:
        try:
            seeds = _parse_seeds(args.seeds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        seeds = [args.seed if args.seed is not None else scenario.seed]

    out_root = Path(args.out_dir)
    batch = len(seeds) > 1
    summaries: dict[int, dict] = {}
    for seed in seeds:
        run_scenario = scenario.replace(seed=seed)
        out_dir = out_root / f"seed_{seed}" if batch else out_root
        try:
            report = engine.run(
                run_scenario, collect_trace="trace" in run_scenario.outputs
            )
            written = write_outputs(report, run_scenario, out_dir)
        except ScenarioError as exc:
            for violation in exc.violations:
                print(f"error: {violation}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as exc:  # pragma: no cover - defensive
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        summaries[seed] = report.summary_dict()
        print_summary(summaries[seed], written)
    if batch:
        target = out_root / "batch_summary.json"
        target.write_text(
            json.dumps(_merge_summaries(scenario, seeds, summaries),
                       indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"  wrote {target}")
    return EXIT_OK


def console_main() -> None:
    # Ids may hold any character; a console that cannot show one prints
    # an escape (as stderr already does) instead of failing the run.
    sys.stdout.reconfigure(errors="backslashreplace")
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
