"""The summary folded during the run against one rebuilt from the records.

A run logs its receptions only when "report" is an output. Each
scenario here runs twice, with and without report. From the first run's
records the outcome counts and per-link means are recomputed with a
plain loop; they must equal the summary the second run folded as it
judged, and every other output file must keep its bytes.
"""

import runpy
import tracemalloc
from pathlib import Path

import pytest
from test_golden import _crowded_grid

from meshsim import engine
from meshsim.cli import write_outputs
from meshsim.report import ReceptionOutcome
from meshsim.scenarios import BUILTIN_SCENARIOS, GATEWAY_OUTPUTS, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent

SCENARIOS = {**BUILTIN_SCENARIOS, "crowded_grid": _crowded_grid}

FILES = ("summary.json", "map.csv", "map.kml", "uplinks.ndjson", "series.lp")


def _recount(records):
    counts = {outcome: 0 for outcome in ReceptionOutcome}
    sums: dict[str, list] = {}
    for r in records:
        counts[r.outcome] += 1
        if r.outcome is ReceptionOutcome.DECODED:
            acc = sums.setdefault(f"{r.transmitter}->{r.receiver}", [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += r.rssi_dbm
            acc[2] += r.snr_db
    links = {
        key: {
            "frames": n,
            "mean_rssi_dbm": round(rssi / n, 6),
            "mean_snr_db": round(snr / n, 6),
        }
        for key, (n, rssi, snr) in sorted(sums.items())
    }
    return counts, links


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_folded_summary_matches_the_records(name, tmp_path):
    sc = SCENARIOS[name]().replace(outputs=frozenset({"summary"}) | GATEWAY_OUTPUTS)
    kept_sc = sc.replace(outputs=sc.outputs | {"report"})
    kept, bare = engine.run(kept_sc), engine.run(sc)
    assert len(bare.receptions) == 0
    assert len(kept.receptions) == kept.transmissions * (len(sc.nodes) - 1)

    counts, links = _recount(kept.receptions)
    summary = bare.summary_dict()
    for outcome, n in counts.items():
        assert summary["counts"][outcome.value.lower()] == n, outcome
    assert summary["links"] == links
    assert summary == kept.summary_dict()

    write_outputs(kept, kept_sc, tmp_path / "kept")
    write_outputs(bare, sc, tmp_path / "bare")
    assert (tmp_path / "kept" / "report.json").exists()
    assert not (tmp_path / "bare" / "report.json").exists()
    for file in FILES:
        assert (tmp_path / "kept" / file).read_bytes() == (tmp_path / "bare" / file).read_bytes(), file


def _bench_grid(side: int, duration_s: float):
    grid_scenario = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["grid_scenario"]
    return scenario_from_dict(grid_scenario(side, 1, duration_s))


def _traced_peak(scenario) -> int:
    tracemalloc.start()
    try:
        report = engine.run(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.receptions) == 0
    return peak


def test_memory_does_not_grow_with_frames_without_report():
    # Twice the frames keeps every record alive with report on (about 1.9x
    # the peak); without it only frames on the air and gateway rows stay.
    short = _traced_peak(_bench_grid(4, 600.0))
    long = _traced_peak(_bench_grid(4, 1200.0))
    assert long <= 1.3 * short, (short, long)


def test_report_log_retains_at_most_100_bytes_per_candidate():
    # A day of the campus with report on: what the finished run keeps is
    # mostly the reception log, one frame header per frame and an RSSI, an
    # outcome byte and a distance reference per candidate.
    sc = BUILTIN_SCENARIOS["campus"]().replace(
        duration_s=86400.0, outputs=frozenset({"summary", "report"})
    )
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = engine.run(sc)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    candidates = len(report.receptions)
    assert candidates == report.transmissions * (len(sc.nodes) - 1) > 30000
    assert retained <= 100 * candidates, retained / candidates


def test_reception_log_iterates_as_many_records_as_its_length():
    sc = BUILTIN_SCENARIOS["k4"]().replace(outputs=frozenset({"summary", "report"}))
    log = engine.run(sc).receptions
    assert len(log) == len(list(log)) > 0
