"""meshsim benchmark: one workload per call, each run in its own process.

    python3 bench/run.py --workload grid36 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --write-config       # regenerate BENCHMARK.json

The workload's scenario file is generated from --seed. After one
warm-up run, child processes run the scenario one at a time until
--seconds have passed; every run's output files are checked and its
summary digest compared with the warm-up's. With --trace 0 the runs are
untraced and the end-to-end metrics are reported; with --trace 1 traced
and untraced runs alternate and the per-layer metrics are reported. The
last stdout line is one JSON object: the best run's timings, the median
peak RSS, and per-layer medians over the traced runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import STAT_KEYS, check_outputs, model_accuracy
from source import ROOT, WORK, MissingSource, load_meshsim
from spec import END_TO_END, KNOWN_DEFECTS, PER_LAYER, RUN_SECONDS, benchmark_json
from workloads import WORKLOADS, sweep_seeds

CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 60
MIN_RUNS = 3  # measured runs of each kind, whatever --seconds says
SETUP_SAMPLES = 40
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END}


def run_child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise RuntimeError(f"run failed: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(result: dict, stats: dict) -> dict[str, float]:
    out = {k: result[k] for k in ("wall_s", "setup_s", "sim_s", "write_s", "peak_rss_mb")}
    out["candidates_per_s"] = stats["candidates"] / result["sim_s"]
    return out


def per_layer(result: dict, stats: dict) -> dict[str, float]:
    layers = result["layers"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cand = stats["candidates"]
    uplinks, records = get("gateway.uplink", "count"), get("gateway.series", "count")
    serial_s = get("gateway.uplink", "s") + get("gateway.series", "s")
    return {
        "scenarios.load_calls": get("scenarios.load", "calls"),
        "scenarios.load_s": get("scenarios.load", "s"),
        "scenarios.validate_calls": get("scenarios.validate", "calls"),
        "scenarios.validate_s": get("scenarios.validate", "s"),
        "phy.propagate_calls": get("phy.propagate", "calls"),
        "phy.propagate_s": get("phy.propagate", "s"),
        "phy.candidates": get("phy.propagate", "count"),
        "phy.ns_per_candidate": 1e9 * ratio(get("phy.propagate", "s"), get("phy.propagate", "count")),
        "engine.run_s": get("engine.run", "s"),
        "engine.self_s": get("engine.run", "self_s"),
        "engine.ns_per_candidate": 1e9 * ratio(get("engine.run", "self_s"), cand),
        "engine.records_retained": get("engine.run", "count"),
        "engine.decoded_ratio": ratio(stats["decoded"], cand),
        "engine.collided_ratio": ratio(stats["collided"], cand),
        "engine.tx_busy_ratio": ratio(stats["tx_busy"], cand),
        "mesh.on_receive_calls": get("mesh.on_receive", "calls"),
        "mesh.on_receive_s": get("mesh.on_receive", "s"),
        "mesh.duplicate_ratio": ratio(get("mesh.on_receive", "count"), get("mesh.on_receive", "calls")),
        "mesh.tx_per_origin": ratio(stats["transmissions"], stats["originated"]),
        "telemetry.calls": get("telemetry", "calls"),
        "telemetry.s": get("telemetry", "s"),
        "gateway.uplinks": uplinks,
        "gateway.uplink_s": get("gateway.uplink", "s"),
        "gateway.series_records": records,
        "gateway.series_s": get("gateway.series", "s"),
        "gateway.records_per_s": ratio(uplinks + records, serial_s),
        "gateway.map_s": get("gateway.map", "s"),
        "engine.report_dict_s": get("engine.report_dict", "s"),
        "cli.self_s": get("cli.write_outputs", "self_s"),
        "cli.bytes_written": get("cli.write_outputs", "count"),
    }


class WorkloadRun:
    """Runs one workload for a time budget and keeps every sample."""

    def __init__(self, meshsim, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.scenario = self.workload.build(meshsim, seed)
        self.scenario_path = self.work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario, indent=1, sort_keys=True))
        first, last = sweep_seeds(seed)
        self.seeds = list(range(first, last + 1)) if self.workload.sweep else None
        self.attempted = 0
        self.crashes = 0  # runs that left no timings
        self.failures: list[str] = []
        self.reference: tuple[dict, str] | None = None  # (stats, digest) of the first run
        self.samples: dict[bool, list[dict]] = {False: [], True: []}

    def run_once(self, traced: bool) -> dict | None:
        """One child run; its timings, or None when it crashed.

        A run whose outputs fail a check still returns its timings; the
        failure is recorded and makes the result incorrect.
        """
        run_id = self.attempted
        self.attempted += 1
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        spec = {
            "run": run_id,
            "scenario": str(self.scenario_path),
            "out_dir": str(out_dir),
            "seeds": [self.seeds[0], self.seeds[-1]] if self.seeds else None,
            "setup_samples": SETUP_SAMPLES,
            "trace": traced,
            "spans": str(self.work / f"spans_{run_id}.json"),
        }
        try:
            result = run_child(spec)
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            self.crashes += 1
            self.failures.append(f"run {run_id}: {exc}")
            return None
        try:
            stats, digest, problems = check_outputs(out_dir, self.scenario, self.seeds)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.crashes += 1
            self.failures.append(f"run {run_id}: unreadable outputs: {exc!r}")
            return None
        if self.reference is None:
            self.reference = (stats, digest)
        elif (stats, digest) != self.reference:
            problems.append(f"digest {digest[:16]} or statistics differ from the first run")
        if problems:
            self.failures.append(f"run {run_id}: " + "; ".join(problems))
        return {"e2e": end_to_end(result, stats), "layers": per_layer(result, stats) if traced else None}

    def measure(self, seconds: float, trace: bool) -> None:
        self.run_once(traced=False)  # warm-up: fills caches, fixes the reference digest
        kinds = [False, True] if trace else [False]
        start = time.perf_counter()
        i = 0
        while (
            time.perf_counter() - start < seconds
            or any(len(self.samples[k]) < MIN_RUNS for k in kinds)
        ) and self.crashes < MIN_RUNS:
            traced = kinds[i % len(kinds)]
            i += 1
            sample = self.run_once(traced)
            if sample is not None:
                self.samples[traced].append(sample)
        (self.work / "samples.json").write_text(json.dumps(
            {"untraced": self.samples[False], "traced": self.samples[True],
             "failures": self.failures}, indent=1
        ))


def medians(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def best(name: str, values: list[float]) -> float:
    """The run's figure for one end-to-end metric.

    Timings report the best sample: on a shared host the slowdowns come
    from other tenants and drift over tens of seconds, so the best
    sample repeats far better between runs than the median does.
    Memory does not drift and reports the median.
    """
    if name == "peak_rss_mb":
        return statistics.median(values)
    return max(values) if BETTER[name] == "higher" else min(values)


def describe(name: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    unit = UNITS[name]
    return (
        f"  {name} {best(name, values):.6g} {unit} (median {q2:.6g}, quartiles "
        f"{q1:.6g} .. {q3:.6g}, {len(values)} runs)"
    )


def report(wr: WorkloadRun, seed: int, trace: bool) -> dict | None:
    """Print the human-readable block; return the metrics or None."""
    failed = len(wr.failures)
    print(f"workload {wr.workload.name} seed {seed}: {wr.attempted} runs (1 warm-up), {failed} failed")
    for failure in wr.failures:
        print(f"  FAILED {failure}")
    if wr.reference is not None:
        stats, digest = wr.reference
        print("  simulated: " + ", ".join(f"{k} {stats[k]}" for k in STAT_KEYS))
        print(f"  summary.json sha256 {digest}")
    untraced = [s["e2e"] for s in wr.samples[False]]
    traced = wr.samples[True]
    if not untraced or (trace and not traced):
        return None
    for name, *_ in END_TO_END:
        print(describe(name, [row[name] for row in untraced]))
    print(f"  failed_ratio {failed / wr.attempted:.6g} ({failed}/{wr.attempted})")
    if not trace:
        return {name: best(name, [row[name] for row in untraced]) for name, *_ in END_TO_END}
    layers = medians([s["layers"] for s in traced])
    layers["trace.overhead_s"] = (
        min(s["e2e"]["wall_s"] for s in traced) - min(row["wall_s"] for row in untraced)
    )
    for name, _, _, moves in PER_LAYER:
        print(
            f"  {name} {layers[name]:.6g} {UNITS[name]} "
            f"(median of {len(traced)} traced; should move {moves})"
        )
    run_s = layers["engine.run_s"]
    shares = {
        "engine.self_s": layers["engine.self_s"],
        "phy.propagate_s": layers["phy.propagate_s"],
        "mesh.on_receive_s": layers["mesh.on_receive_s"],
        "telemetry.s": layers["telemetry.s"],
        "scenarios.validate_s": layers["scenarios.validate_s"],
    }
    print("  share of engine.run_s: " + ", ".join(
        f"{k} {v / run_s:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
    ))
    e2e = medians(untraced)
    print(f"  untraced medians: write_s / sim_s = {e2e['write_s'] / e2e['sim_s']:.2f}")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-config", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    try:
        meshsim = load_meshsim()
    except (MissingSource, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        wr = WorkloadRun(meshsim, name, args.seed)
        wr.measure(args.seconds, bool(args.trace))
        found = report(wr, args.seed, bool(args.trace))
        if found is None:
            print(f"error: {name}: no run finished", file=sys.stderr)
            return 1
        attempted += wr.attempted
        failed += len(wr.failures)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update(
            {prefix + k: {"value": v, "unit": UNITS[k]} for k, v in found.items()}
        )
    print(model_accuracy(meshsim))
    print(f"note: {KNOWN_DEFECTS}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
