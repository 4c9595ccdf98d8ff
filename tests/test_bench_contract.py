"""The benchmark's traced child still finds every entry point it wraps.

bench/child.py patches meshsim functions by module and name. A rename or
removal in meshsim would make the traced run crash or silently lose a
layer, so this runs the child as the benchmark does and checks that every
layer it reports was called.
"""

import json
import subprocess
import sys
from pathlib import Path

from meshsim.scenarios import campus_scenario

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


def test_traced_child_reaches_every_layer(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(campus_scenario().replace(duration_s=900).to_dict()))
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
