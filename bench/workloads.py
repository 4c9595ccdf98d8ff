"""Workload definitions: each turns the benchmark seed into a scenario file.

The program under test only ever sees the generated scenario JSON (and,
for the sweep, a seed range on its command line).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

GRID_SPACING_M = 400.0
GRID_PERIOD_S = 60.0
GRID_TEXT = "hello mesh!"  # 11 bytes on the air
GRID_SIGMA_DB = 4.0
GRID_DURATION_S = 300.0
CAMPUS_DAY_S = 86_400.0
SWEEP_SEEDS = 48


def scenario_seed(bench_seed: int) -> int:
    return bench_seed % (1 << 31)


def grid_scenario(side: int, bench_seed: int, duration_s: float) -> dict:
    """side x side nodes at GRID_SPACING_M; node 0 is the only gateway.

    Every odd-indexed node sends GRID_TEXT every GRID_PERIOD_S. The
    period is split into one slot per sender; the seed deals the slots
    out and jitters each start within the first 30 % of its slot. (Fully
    random offsets repeat one clumped pattern every period, which moves
    the transmission count by a third from seed to seed.) One NLOS_BUILT
    band with the calibrated exponent and GRID_SIGMA_DB shadowing covers
    all distances.
    """
    from meshsim.geo import LatLonAlt, offset_position
    from meshsim.scenarios import NLOS_EXPONENT, REFERENCE_LOSS_915_DB

    rng = random.Random(bench_seed)
    count = side * side
    slot_s = GRID_PERIOD_S / (count // 2)
    slots = iter(rng.sample(range(count // 2), count // 2))
    origin = LatLonAlt(0.0, 0.0, 0.0)
    nodes = []
    for i in range(count):
        pos = offset_position(origin, (i % side) * GRID_SPACING_M, (i // side) * GRID_SPACING_M, 0.0)
        node = {
            "id": f"n{i}",
            "role": "GATEWAY" if i == 0 else "CLIENT",
            "position": {"latitude": pos.latitude, "longitude": pos.longitude, "altitude_m": 0.0},
        }
        if i % 2 == 1:
            node["apps"] = [{
                "port": "TEXT_MESSAGE_APP",
                "payload_source": "TEXT_FIXED",
                "period_s": GRID_PERIOD_S,
                "start_offset_s": round((next(slots) + rng.uniform(0.0, 0.3)) * slot_s, 3),
                "text": GRID_TEXT,
            }]
        nodes.append(node)
    return {
        "name": f"grid{side * side}",
        "duration_s": duration_s,
        "seed": scenario_seed(bench_seed),
        "nodes": nodes,
        "default_env": [{"env": {
            "terrain": "NLOS_BUILT",
            "path_loss_exponent": NLOS_EXPONENT,
            "reference_loss_db": REFERENCE_LOSS_915_DB,
            "shadowing_sigma_db": GRID_SIGMA_DB,
        }}],
        "outputs": ["summary"],
    }


def campus_day(meshsim, bench_seed: int) -> dict:
    scenario = meshsim.scenarios.campus_scenario()
    return scenario.replace(duration_s=CAMPUS_DAY_S, seed=scenario_seed(bench_seed)).to_dict()


def sweep_seeds(bench_seed: int) -> tuple[int, int]:
    first = bench_seed % 1_000_000
    return first, first + SWEEP_SEEDS - 1


def cumbre(meshsim, bench_seed: int) -> dict:
    return meshsim.scenarios.cumbre_scenario().replace(seed=sweep_seeds(bench_seed)[0]).to_dict()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., dict]  # (meshsim, bench_seed) -> scenario dict
    sweep: bool = False  # drive cli.main --seeds instead of the pipeline


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campus-day",
            "built-in campus over 24 h with all five outputs: the soak question; "
            "writers, gateway and telemetry heavy, engine light",
            campus_day,
        ),
        Workload(
            "grid36",
            "synthetic 6x6 grid, NLOS sigma 4 dB, summary only: engine and phy bound, "
            "writers idle, every reception record kept",
            lambda meshsim, seed: grid_scenario(6, seed, GRID_DURATION_S),
        ),
        Workload(
            "cumbre-sweep",
            f"built-in cumbre over 1 h for {SWEEP_SEEDS} seeds via cli --seeds: "
            "fixed per-run cost (validate, set-up, file writes, merge) dominates",
            cumbre,
            sweep=True,
        ),
    )
}


def expected_originations(scenario: dict) -> dict[str, int]:
    """Emissions per node, counted by stepping each schedule through time."""
    duration = scenario["duration_s"]
    out: dict[str, int] = {}
    for node in scenario["nodes"]:
        total = 0
        for app in node.get("apps", []):
            period, t = app["period_s"], app.get("start_offset_s", 0.0)
            if period <= 0:
                raise ValueError(f"{node['id']}: the benchmark needs explicit periods")
            k = 0
            while t + k * period <= duration:
                k += 1
            total += k
        if total:
            out[node["id"]] = total
    return out
