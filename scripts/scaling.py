"""How engine.run's time and memory grow with node count.

    python3 scripts/scaling.py

Builds the benchmark's synthetic grids (bench/workloads.grid_scenario,
seed 1, 300 simulated s) at 4x4, 6x6 and 8x8 nodes, runs each through
engine.run from this checkout's src/, and prints one JSON line per grid:
the median wall time of three untraced runs and the tracemalloc peak of
one more run, with the transmission and reception counts that set the
work.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from meshsim import engine, scenarios  # noqa: E402
from workloads import grid_scenario  # noqa: E402

SIDES = (4, 6, 8)
SEED = 1
DURATION_S = 300.0
REPEATS = 3


def measure(side: int) -> dict:
    scenario = scenarios.scenario_from_dict(grid_scenario(side, SEED, DURATION_S))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        report = engine.run(scenario)
        times.append(time.perf_counter() - t0)
        del report
    tracemalloc.start()
    report = engine.run(scenario)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "nodes": side * side,
        "duration_s": DURATION_S,
        "run_s": statistics.median(times),
        "run_s_all": times,
        "tracemalloc_peak_mb": peak / 2**20,
        "transmissions": report.transmissions,
        "receptions": len(report.receptions),
    }


def main() -> None:
    for side in SIDES:
        print(json.dumps(measure(side)), flush=True)


if __name__ == "__main__":
    main()
