"""The benchmark's traced child still finds every entry point it wraps.

bench/child.py patches meshsim functions by module and name. A rename or
removal in meshsim would make the traced run crash or silently lose a
layer, so this runs the child as the benchmark does and checks that every
layer it reports was called. campus keeps its reception records for
report.json; cumbre has map, uplink and series outputs but no report, so
it runs the path that keeps none.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from meshsim.scenarios import BUILTIN_SCENARIOS

ROOT = Path(__file__).resolve().parent.parent

LAYERS = (
    "scenarios.load",
    "scenarios.validate",
    "engine.run",
    "phy.propagate",
    "mesh.on_receive",
    "telemetry",
    "gateway.uplink",
    "gateway.series",
    "gateway.map",
    "engine.report_dict",
    "cli.write_outputs",
)


@pytest.mark.parametrize("name", ["campus", "cumbre"])
def test_traced_child_reaches_every_layer(name, tmp_path):
    scenario = tmp_path / "scenario.json"
    sc = BUILTIN_SCENARIOS[name]().replace(duration_s=900)
    scenario.write_text(json.dumps(sc.to_dict()))
    spec = {
        "run": 0,
        "scenario": str(scenario),
        "out_dir": str(tmp_path / "out"),
        "seeds": None,
        "setup_samples": 1,
        "trace": True,
        "spans": str(tmp_path / "spans.json"),
    }
    proc = subprocess.run(
        [sys.executable, "bench/child.py", json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    for layer in LAYERS:
        assert layers.get(layer, {}).get("calls", 0) >= 1, layer
    # engine.run counts the records the run kept; only report.json needs them.
    assert (layers["engine.run"]["count"] > 0) == ("report" in sc.outputs)
    # The gateway layers count what reached the files: one uplink per JSON
    # line, and points, not characters, for the series.
    out = tmp_path / "out"
    uplinks = (out / "uplinks.ndjson").read_text(encoding="utf-8").splitlines()
    points = [line for line in (out / "series.lp").read_text(encoding="utf-8").split("\n") if line]
    assert layers["gateway.uplink"]["count"] == len(uplinks) > 0
    assert layers["gateway.series"]["count"] == len(points) > len(uplinks)
