"""One measured meshsim run, in a process of its own.

    python3 bench/child.py '<spec json>'

The spec names the scenario file, the output directory, the seed range
(sweep only), how many set-up samples to take and whether to trace.
Untraced, only the three pipeline boundaries (load_scenario, engine.run,
cli.write_outputs) are timed. Traced, the public entry points of every
module are wrapped as well; spans are kept in memory and written to
spec["spans"] at the end. The last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from source import load_meshsim

clock = time.perf_counter

# Span fields.
FUNC, LAYER, START, END, PARENT, COUNT = range(6)


class Tracer:
    """Wraps callables in place; each call appends one span.

    A wrapper made with settle=True first runs a full garbage collection
    outside the span and adds its time to settle_s. Without it a full
    collection over the whole heap (39 ms in one grid36 run) lands inside
    write_outputs for some seeds and not others, so write_s would follow
    the seed rather than the code.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.settle_s = 0.0
        self._stack: list[int] = []

    def _wrap(self, func, layer, fn, count, settle):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if settle:
                t0 = clock()
                gc.collect()
                self.settle_s += clock() - t0
            span = [func, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if count is not None:
                span[COUNT] = count(result)
            return result

        return traced

    def patch(self, owner, attr, layer, count=None, settle=False):
        raw = vars(owner)[attr]
        func = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(func, layer, raw.__func__, count, settle))
        else:
            new = self._wrap(func, layer, raw, count, settle)
        setattr(owner, attr, new)


def instrument(tracer: Tracer, full: bool) -> None:
    """Boundaries always; with full, every layer's public entry points."""
    from meshsim import cli, engine, gateway, mesh, scenarios, telemetry

    tracer.patch(scenarios, "load_scenario", "scenarios.load", settle=True)
    cli.load_scenario = scenarios.load_scenario  # cli imported the name
    tracer.patch(engine, "run", "engine.run", count=lambda r: len(r.receptions), settle=True)
    tracer.patch(
        cli, "write_outputs", "cli.write_outputs",
        count=lambda paths: sum(p.stat().st_size for p in paths), settle=True,
    )
    if not full:
        return
    drop = mesh.ActionKind.DROP_DUPLICATE
    tracer.patch(scenarios.Scenario, "validate", "scenarios.validate")
    tracer.patch(engine, "propagate", "phy.propagate", count=len)
    tracer.patch(
        mesh.RouterState, "on_receive", "mesh.on_receive",
        count=lambda actions: int(actions[0].kind is drop),
    )
    for attr in ("irradiance_adc", "encode_irradiance", "encode_position"):
        tracer.patch(telemetry, attr, "telemetry")
    tracer.patch(telemetry.IrradianceSample, "from_adc", "telemetry")
    tracer.patch(gateway, "uplink_from_delivery", "gateway.uplink", count=lambda u: 1)
    tracer.patch(gateway.UplinkMessage, "to_json", "gateway.uplink")
    tracer.patch(gateway, "uplink_to_series", "gateway.series", count=len)
    tracer.patch(gateway, "serialize_line_protocol", "gateway.series")
    tracer.patch(gateway, "reception_map_csv", "gateway.map")
    tracer.patch(gateway, "reception_map_kml", "gateway.map")
    tracer.patch(engine.SimReport, "summary_dict", "engine.report_dict")
    tracer.patch(engine.SimReport, "to_dict", "engine.report_dict")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy seconds, self seconds and summed counts.

    Busy time sums only spans whose parent is in another layer, so a
    layer calling itself (to_dict -> summary_dict) is counted once. Self
    time is busy time minus the time of child spans in other layers.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span[LAYER], {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["count"] += span[COUNT] or 0
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != span[LAYER]:
            row["s"] += span[END] - span[START]
        row["self_s"] += span[END] - span[START] - child_time[i]
    return out


def peak_rss_mb() -> float:
    """High-water RSS of this process image, in MB.

    VmHWM belongs to the address space made at exec. ru_maxrss would
    also count the parent's RSS at fork time, which Linux carries across
    exec into the child's figure.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(load, path: str, samples: int) -> float:
    times = []
    for _ in range(samples):
        t0 = clock()
        load(path)
        times.append(clock() - t0)
    return statistics.median(times)


def main(spec: dict) -> dict:
    meshsim = load_meshsim()
    from meshsim import cli, engine, scenarios

    setup_s = measure_setup(scenarios.load_scenario, spec["scenario"], spec["setup_samples"])
    tracer = Tracer()
    instrument(tracer, full=spec["trace"])
    out_dir = spec["out_dir"]
    t0 = clock()
    if spec["seeds"] is None:
        scenario = scenarios.load_scenario(spec["scenario"])
        report = engine.run(scenario, collect_trace="trace" in scenario.outputs)
        cli.write_outputs(report, scenario, Path(out_dir))
        code = 0
    else:
        first, last = spec["seeds"]
        argv = ["--scenario", spec["scenario"], "--seeds", f"{first}..{last}", "--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    wall_s = clock() - t0 - tracer.settle_s
    peak_mb = peak_rss_mb()
    if code != 0:
        raise SystemExit(f"meshsim exited with {code}")

    layers = layer_totals(tracer.spans)
    if spec["trace"]:
        Path(spec["spans"]).write_text(json.dumps(
            {"run": spec["run"], "fields": ["func", "layer", "start", "end", "parent", "count"],
             "spans": tracer.spans}
        ))
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_s": layers["engine.run"]["s"],
        "write_s": layers["cli.write_outputs"]["s"],
        "peak_rss_mb": peak_mb,
        "layers": layers,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
