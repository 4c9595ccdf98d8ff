"""How engine.run's time and memory grow with node count.

    python3 scripts/scaling.py

Builds the benchmark's synthetic grids (bench/workloads.grid_scenario,
seed 1, 300 simulated s) at 4x4, 6x6 and 8x8 nodes, runs each through
engine.run from this checkout's src/, and prints one JSON line per grid:
the median wall time of three untraced runs and the tracemalloc peak of
one more run, with the transmission and candidate counts that set the
work and the number of reception records the run kept (0 unless the
scenario asks for report.json). A last line does the same for the moving
path: the built-in cumbre (two of its three nodes on dwell routes) over
3600 s for seeds 7..54, the batch that cli --seeds 7..54 runs, with the
time and the tracemalloc peak of the whole batch and its summed counts.
A final line measures the writers: the built-in campus over 86400 s with
every output kind, run once, then cli.write_outputs on that report three
times for the median wall time and once more under tracemalloc for its
peak above the heap the run left, with the delivery count and the bytes
written.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from meshsim import cli, engine, scenarios  # noqa: E402
from workloads import grid_scenario  # noqa: E402

SIDES = (4, 6, 8)
SEED = 1
DURATION_S = 300.0
REPEATS = 3
CUMBRE_SEEDS = range(7, 55)
CAMPUS_DAY_S = 86400.0


def measure(batch: list[scenarios.Scenario]) -> dict:
    """Median wall time of REPEATS runs of the batch, then one run under tracemalloc."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reports = [engine.run(scenario) for scenario in batch]
        times.append(time.perf_counter() - t0)
        del reports
    tracemalloc.start()
    reports = [engine.run(scenario) for scenario in batch]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "nodes": len(batch[0].nodes),
        "duration_s": batch[0].duration_s,
        "run_s": statistics.median(times),
        "run_s_all": times,
        "tracemalloc_peak_mb": peak / 2**20,
        "transmissions": sum(r.transmissions for r in reports),
        "candidates": sum(sum(r.outcome_counts().values()) for r in reports),
        "records_kept": sum(len(r.receptions) for r in reports),
    }


def measure_write(scenario: scenarios.Scenario) -> dict:
    """Median wall time of REPEATS write_outputs calls on one report, then
    the tracemalloc peak of one more above the heap it starts from."""
    report = engine.run(scenario, collect_trace="trace" in scenario.outputs)
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            written = cli.write_outputs(report, scenario, out_dir)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        start = tracemalloc.get_traced_memory()[0]
        cli.write_outputs(report, scenario, out_dir)
        peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.stop()
        size = sum(path.stat().st_size for path in written)
    return {
        "scenario": scenario.name,
        "duration_s": scenario.duration_s,
        "outputs": sorted(scenario.outputs),
        "write_s": statistics.median(times),
        "write_s_all": times,
        "write_tracemalloc_peak_mb": peak / 2**20,
        "deliveries": len(report.gateway_deliveries),
        "bytes_written": size,
    }


def main() -> None:
    for side in SIDES:
        grid = scenarios.scenario_from_dict(grid_scenario(side, SEED, DURATION_S))
        print(json.dumps(measure([grid])), flush=True)
    cumbre = scenarios.cumbre_scenario()
    batch = [cumbre.replace(seed=seed) for seed in CUMBRE_SEEDS]
    row = {"scenario": "cumbre", "seeds": f"{CUMBRE_SEEDS[0]}..{CUMBRE_SEEDS[-1]}"}
    print(json.dumps({**row, **measure(batch)}), flush=True)
    campus = scenarios.campus_scenario().replace(
        duration_s=CAMPUS_DAY_S, outputs=scenarios.OUTPUT_KINDS
    )
    print(json.dumps(measure_write(campus)), flush=True)


if __name__ == "__main__":
    main()
