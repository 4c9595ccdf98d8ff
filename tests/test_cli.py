"""Command-line behavior: exit codes, outputs, determinism, calibration."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import meshsim
from meshsim import engine
from meshsim.cli import main, write_outputs
from meshsim.report import SimReport
from meshsim.scenarios import (
    GATEWAY_OUTPUTS,
    MAX_EMISSIONS,
    campus_scenario,
    k4_scenario,
    line_scenario,
)


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv, timeout, **env):
    """The CLI as a program of its own, with env added to this process's environment."""
    src = str(Path(meshsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "meshsim.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        timeout=timeout,
    )


def test_default_run_writes_summary(tmp_path, capsys):
    assert run_cli("--scenario", "k4", "--out-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "scenario k4" in out
    assert "gateway PDR" in out
    assert "link node0->node3" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "k4"
    assert summary["counts"]["transmissions"] == 4


def test_emit_selects_outputs(tmp_path):
    assert (
        run_cli(
            "--scenario",
            "k4",
            "--out-dir",
            str(tmp_path),
            "--emit",
            "summary,uplinks,series,map_csv,map_kml,report,trace",
        )
        == 0
    )
    for name in (
        "summary.json",
        "uplinks.ndjson",
        "series.lp",
        "map.csv",
        "map.kml",
        "report.json",
        "trace.log",
    ):
        assert (tmp_path / name).exists(), name
    uplinks = (tmp_path / "uplinks.ndjson").read_text().splitlines()
    assert len(uplinks) == 1
    line = json.loads(uplinks[0])
    assert line["body"]["from"] == "node0"
    assert line["topic"].endswith("/node3")


def test_emit_defaults_to_scenario_outputs(tmp_path):
    assert run_cli("--scenario", "k4", "--out-dir", str(tmp_path)) == 0
    assert (tmp_path / "summary.json").exists()
    assert not (tmp_path / "report.json").exists()
    assert (tmp_path / "uplinks.ndjson").exists()


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "campus.json"
    path.write_text(json.dumps(campus_scenario().to_dict()))
    out = tmp_path / "out"
    assert run_cli("--scenario", str(path), "--out-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "campus"


def test_seed_and_duration_overrides(tmp_path):
    assert (
        run_cli(
            "--scenario",
            "campus",
            "--seed",
            "99",
            "--duration",
            "600",
            "--out-dir",
            str(tmp_path),
        )
        == 0
    )
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 99
    assert summary["duration_s"] == 600.0


@pytest.mark.parametrize("seeds", [(3, 4, 5), (5,)], ids=["3..5", "5..5"])
def test_seed_batch_directories(tmp_path, seeds):
    # Any --seeds range is a batch, a one-seed range included.
    text = f"{seeds[0]}..{seeds[-1]}"
    assert run_cli("--scenario", "k4", "--seeds", text, "--out-dir", str(tmp_path)) == 0
    assert not (tmp_path / "summary.json").exists()
    for seed in seeds:
        summary = json.loads(
            (tmp_path / f"seed_{seed}" / "summary.json").read_text()
        )
        assert summary["seed"] == seed
    merged = json.loads((tmp_path / "batch_summary.json").read_text())
    assert merged["seeds"] == list(seeds)
    assert set(merged["runs"]) == {str(s) for s in seeds}
    assert merged["mean_pdr"]["node0"] == pytest.approx(
        sum(merged["runs"][str(s)]["pdr"]["node0"] for s in seeds) / len(seeds)
    )


def test_runs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        assert (
            run_cli(
                "--scenario",
                "cumbre",
                "--out-dir",
                str(target),
                "--emit",
                "summary,uplinks,series,map_csv",
            )
            == 0
        )
    for name in ("summary.json", "uplinks.ndjson", "series.lp", "map.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_unknown_scenario_is_usage_error(tmp_path, capsys):
    assert run_cli("--scenario", "nope", "--out-dir", str(tmp_path)) == 2
    assert "nope" in capsys.readouterr().err


def test_invalid_scenario_file_lists_violations(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"name": "x"}))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "duration_s" in err and "nodes" in err


def test_construction_errors_are_collected_with_paths(tmp_path, capsys):
    obj = campus_scenario().to_dict()
    obj["nodes"][0]["apps"][0].update(
        port="TEXT_MESSAGE_APP", payload_source="TEXT_FIXED", period_s=0
    )
    obj["nodes"][4]["route"]["waypoints"][1]["time_s"] = 0.0
    path = tmp_path / "two_faults.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: nodes/0/apps/0: invalid AppSchedule: period_s 0 must be positive",
        "error: nodes/4/route: route waypoint times must be strictly increasing",
    ]


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda obj: obj.update(tracker_route=obj["nodes"][4].pop("route")),
            "(root): Additional properties are not allowed ('tracker_route' was unexpected)",
        ),
        (
            lambda obj: obj["nodes"][0]["apps"][0].pop("period_s"),
            "nodes/0/apps/0: 'period_s' is a required property",
        ),
    ],
    ids=["shared-tracker-route", "app-without-period"],
)
def test_a_node_states_its_own_route_and_period(tmp_path, capsys, edit, message):
    obj = campus_scenario().to_dict()
    edit(obj)
    path = tmp_path / "campus.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_equal_snr_span_is_usage_error(tmp_path, capsys):
    obj = k4_scenario().to_dict()
    obj["contention"]["snr_max_db"] = obj["contention"]["snr_min_db"]
    path = tmp_path / "flat_span.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: contention: invalid ContentionParams:")
    assert not (tmp_path / "summary.json").exists()


def test_inverted_contention_window_is_usage_error(tmp_path, capsys):
    # A window that shrinks as SNR rises would let near receivers rebroadcast first.
    obj = k4_scenario().to_dict()
    obj["contention"]["windows"] = {"CLIENT": [9, 0]}
    path = tmp_path / "inverted_window.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: contention: invalid ContentionParams:")
    assert "CLIENT window [9, 0]" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "where, value",
    [
        (("duration_s",), math.nan),
        (("duration_s",), math.inf),
        (("radio", "tx_power_dbm"), math.nan),
        (("default_env", 0, "env", "shadowing_sigma_db"), math.inf),
        (("capture_threshold_db",), math.nan),
    ],
    ids=["duration-nan", "duration-inf", "tx-power-nan", "sigma-inf", "capture-nan"],
)
def test_non_finite_number_is_usage_error(tmp_path, capsys, where, value):
    # json.load reads the literals NaN and Infinity; none may reach the run.
    obj = k4_scenario().to_dict()
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    field = "/".join(str(key) for key in where)
    assert capsys.readouterr().err == f"error: {field}: {value!r} is not a finite number\n"
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("value", [1e300, 10**400], ids=["float", "integer"])
def test_duration_beyond_the_clock_is_usage_error(tmp_path, capsys, value):
    # Finite, but not in nanoseconds: the simulation clock cannot hold it.
    obj = k4_scenario().to_dict()
    obj["duration_s"] = value
    path = tmp_path / "huge_duration.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: duration_s: {value} overflows the nanosecond clock\n"
    )
    assert not (tmp_path / "summary.json").exists()


def test_too_many_emissions_is_usage_error(tmp_path):
    # Within the clock, but 1e283 emissions: rejected up front, not run until killed.
    obj = k4_scenario().to_dict()
    obj["duration_s"] = 1e290
    path = tmp_path / "endless.json"
    path.write_text(json.dumps(obj))
    proc = run_cli_process("--scenario", str(path), "--out-dir", str(tmp_path), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.decode() == (
        f"error: duration_s: 1e+290 s asks for more than {MAX_EMISSIONS} app emissions in total\n"
    )
    assert not (tmp_path / "summary.json").exists()


def test_gateway_on_a_route_under_a_map_is_usage_error(tmp_path, capsys):
    obj = k4_scenario().to_dict()
    gw = obj["nodes"][3]
    gw["route"] = {"waypoints": [{"time_s": 0.0, **gw["position"]}]}
    path = tmp_path / "moving_gateway.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path / "maps")) == 2
    assert capsys.readouterr().err == (
        "error: nodes[3] (node3): a GATEWAY on a route cannot write ['map_csv'],"
        " which place rows around its fixed position\n"
    )
    assert not (tmp_path / "maps").exists()
    obj["outputs"] = ["summary", "uplinks"]
    path.write_text(json.dumps(obj))
    out = tmp_path / "uplinks"
    assert run_cli("--scenario", str(path), "--out-dir", str(out)) == 0
    assert (out / "uplinks.ndjson").read_text(encoding="utf-8").count("\n") == 1


def test_uplink_time_past_32_bits_is_usage_error(tmp_path, capsys):
    # An uplink's timestamp is Meshtastic's rx_time, a fixed32: epoch_s + int(t).
    obj = k4_scenario().to_dict()
    last_epoch = 2**32 - 1 - math.ceil(obj["duration_s"])
    for epoch_s, code in ((last_epoch, 0), (last_epoch + 1, 2)):
        obj["epoch_s"] = epoch_s
        path = tmp_path / f"epoch{epoch_s}.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / str(epoch_s)
        assert run_cli("--scenario", str(path), "--out-dir", str(out)) == code
    assert capsys.readouterr().err.startswith(f"error: epoch_s: {last_epoch + 1} plus duration_s")
    (line,) = (tmp_path / str(last_epoch) / "uplinks.ndjson").read_text().splitlines()
    assert json.loads(line)["body"]["timestamp"] < 2**32
    assert not (tmp_path / str(last_epoch + 1)).exists()


def test_late_uplink_past_32_bits_is_usage_error(tmp_path, capsys):
    # line4's one uplink is decoded at 2.300064 s, after a 1 s run has ended.
    obj = line_scenario().replace(duration_s=1.0).to_dict()
    for epoch_s, code in ((2**32 - 3, 0), (2**32 - 2, 2)):
        obj["epoch_s"] = epoch_s
        path = tmp_path / f"epoch{epoch_s}.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / str(epoch_s)
        assert run_cli("--scenario", str(path), "--out-dir", str(out)) == code
    assert capsys.readouterr().err == (
        f"error: epoch_s: {2**32 - 2} plus an uplink decoded at 2.300064 s reaches"
        " 2**32 s, past its unsigned 32-bit time\n"
    )
    (line,) = (tmp_path / str(2**32 - 3) / "uplinks.ndjson").read_text().splitlines()
    assert json.loads(line)["body"]["timestamp"] == 2**32 - 1
    assert not (tmp_path / str(2**32 - 2)).exists()


def test_empty_fixed_text_is_usage_error(tmp_path, capsys):
    obj = k4_scenario().to_dict()
    for node in obj["nodes"]:
        for app in node["apps"]:
            app["text"] = ""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        "error: nodes[0] (node0): apps[0] text must not be empty\n"
    )
    assert not (tmp_path / "summary.json").exists()


def test_fix_time_past_32_bits_is_usage_error(tmp_path, capsys):
    # The tracker's fixes carry epoch_s + int(t) as an unsigned 32-bit time.
    obj = campus_scenario().to_dict()
    last_epoch = 2**32 - 1 - math.ceil(obj["duration_s"])
    for epoch_s, code in ((last_epoch, 0), (last_epoch + 1, 2)):
        obj["epoch_s"] = epoch_s
        path = tmp_path / f"epoch{epoch_s}.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / str(epoch_s)
        assert run_cli("--scenario", str(path), "--out-dir", str(out), "--emit", "summary") == code
    assert capsys.readouterr().err.startswith(f"error: epoch_s: {last_epoch + 1} plus duration_s")
    assert (tmp_path / str(last_epoch) / "summary.json").exists()
    assert not (tmp_path / str(last_epoch + 1)).exists()


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    obj = k4_scenario().to_dict()
    for node in obj["nodes"]:
        node["id"] += "\u00f1"
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    proc = run_cli_process(
        "--scenario", str(path), "--out-dir", str(out), "--emit", "summary,map_csv,report",
        timeout=60, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONIOENCODING="",
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(out / "map.csv", newline="", encoding="utf-8") as handle:
        nodes = {row["node"] for row in csv.DictReader(handle)}
    assert "node0\u00f1" in nodes


def test_lone_surrogate_text_is_usage_error(tmp_path, capsys):
    # json.load accepts the escape "\ud800", but no UTF-8 payload can carry it.
    obj = k4_scenario().to_dict()
    obj["nodes"][0]["apps"][0]["text"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nodes[0] (node0): apps[0] text is not encodable as UTF-8")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "path, message",
    [
        (("name",), "error: name is not encodable as UTF-8"),
        (("nodes", 0, "id"), "error: nodes[0]: id is not encodable as UTF-8"),
    ],
    ids=["name", "node-id"],
)
def test_lone_surrogate_string_is_usage_error(tmp_path, capsys, path, message):
    obj = k4_scenario().to_dict()
    *parents, key = path
    target = obj
    for step in parents:
        target = target[step]
    target[key] = "\ud800"
    scenario = tmp_path / "surrogate.json"
    scenario.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(scenario), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("name",), "k4\nday", "error: name contains control character U+000A"),
        (("nodes", 0, "id"), "node\x7f0", "error: nodes[0]: id contains control character U+007F"),
        (("nodes", 3, "id"), "gw\x00", "error: nodes[3]: id contains control character U+0000"),
        (("nodes", 0, "id"), "a\u2028b", "error: nodes[0]: id contains control character U+2028"),
        (("nodes", 1, "id"), "c\u2029", "error: nodes[1]: id contains control character U+2029"),
        (("name",), "k4\x85", "error: name contains control character U+0085"),
    ],
    ids=[
        "name-newline", "node-id-del", "gateway-id-nul", "node-id-line-separator",
        "node-id-paragraph-separator", "name-next-line",
    ],
)
def test_control_character_is_usage_error(tmp_path, capsys, path, value, message):
    # series.lp cannot escape a line break, readers that split lines with
    # str.splitlines also break at U+0085, U+2028 and U+2029, and XML 1.0
    # forbids C0 controls.
    obj = k4_scenario().to_dict()
    *parents, key = path
    target = obj
    for step in parents:
        target = target[step]
    target[key] = value
    scenario = tmp_path / "control.json"
    scenario.write_text(json.dumps(obj))
    assert run_cli("--scenario", str(scenario), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "summary.json").exists()


def test_unparseable_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text, message in (("{not json", "not valid JSON"), ("[]", "must be a JSON object")):
        path.write_text(text)
        assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path)) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_scenario_is_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"name": "\xff"}')
    assert run_cli("--scenario", str(path), "--out-dir", str(tmp_path / "out")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: cannot read (")
    assert not (tmp_path / "out").exists()


def test_unknown_emit_kind_is_usage_error(tmp_path, capsys):
    assert (
        run_cli("--scenario", "k4", "--emit", "nope", "--out-dir", str(tmp_path)) == 2
    )
    assert "nope" in capsys.readouterr().err


def test_bad_duration_is_usage_error(tmp_path, capsys):
    assert (
        run_cli(
            "--scenario", "k4", "--duration", "-10", "--out-dir", str(tmp_path)
        )
        == 2
    )
    assert "duration" in capsys.readouterr().err


def test_bad_seed_range_is_usage_error(tmp_path, capsys):
    assert run_cli("--scenario", "k4", "--seeds", "9..3", "--out-dir", str(tmp_path)) == 2
    assert "--seeds" in capsys.readouterr().err
    assert run_cli("--scenario", "k4", "--seeds", "7", "--out-dir", str(tmp_path)) == 2


def test_seed_with_seeds_is_usage_error(tmp_path, capsys):
    # One flag names one seed, the other a batch; together, neither wins.
    out = tmp_path / "out"
    assert run_cli("--scenario", "k4", "--seed", "9", "--seeds", "3..3",
                   "--out-dir", str(out)) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not allowed with argument" in err
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "meshsim" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("--frobnicate") == 2


# --- calibration mode ----------------------------------------------------------


def test_calibrate_fits_per_zone(tmp_path, capsys):
    csv_path = tmp_path / "drive.csv"
    csv_path.write_text(
        "distance_m,rssi_min,rssi_max,zone\n"
        "1090,-133,-110,route\n"
        "1600,-127,-124,route\n"
        "2050,-127,-123,route\n"
        "2470,-110,-110,summit\n"
    )
    assert run_cli("--calibrate", str(csv_path)) == 0
    out = capsys.readouterr().out
    assert "route: n=3.5873" in out
    assert "summit: n=2.9571" in out


def test_calibrate_point_column(tmp_path, capsys):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("distance_m,rssi_dbm\n100,-80\n1000,-107\n")
    assert run_cli("--calibrate", str(csv_path)) == 0
    assert "all: n=" in capsys.readouterr().out


def test_calibrate_missing_file(capsys):
    assert run_cli("--calibrate", "/does/not/exist.csv") == 2
    assert "cannot read" in capsys.readouterr().err


def test_calibrate_non_utf8_csv(tmp_path, capsys):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"distance_m,rssi_dbm,zone\n100,-80,caf\xe9\n")
    assert run_cli("--calibrate", str(csv_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {csv_path}: ")
    assert captured.out == ""


def test_calibrate_empty_csv(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("distance_m,rssi_dbm\n")
    assert run_cli("--calibrate", str(csv_path)) == 2


def test_calibrate_bad_row(tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("distance_m,rssi_dbm\nabc,-80\n")
    assert run_cli("--calibrate", str(csv_path)) == 2
    assert "bad calibration row" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "distance_m,rssi_dbm\n100,nan\n200,-90\n",
        "distance_m,rssi_dbm\ninf,-80\n200,-90\n",
        "distance_m,rssi_min,rssi_max\n100,-90,nan\n200,-95,-85\n",
    ],
    ids=["nan-rssi", "inf-distance", "nan-rssi-max"],
)
def test_calibrate_non_finite_is_usage_error(tmp_path, capsys, text):
    csv_path = tmp_path / "non_finite.csv"
    csv_path.write_text(text)
    assert run_cli("--calibrate", str(csv_path)) == 2
    captured = capsys.readouterr()
    assert "not finite" in captured.err
    assert captured.out == ""


# --- the streaming gateway writer ------------------------------------------------


def _write_peak_bytes(scenario, out_dir):
    """tracemalloc peak of write_outputs above the heap it starts from."""
    report = engine.run(scenario)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_outputs(report, scenario, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sum(rec.uplinked for rec in report.gateway_receptions), peak - start


def test_uplink_and_series_memory_does_not_grow_with_deliveries(tmp_path):
    kinds = frozenset({"summary", "uplinks", "series"})
    campus = campus_scenario().replace(outputs=kinds)
    short = _write_peak_bytes(campus.replace(duration_s=6 * 3600.0), tmp_path / "6h")
    day = _write_peak_bytes(campus.replace(duration_s=24 * 3600.0), tmp_path / "24h")
    assert day[0] > 3 * short[0]  # about four times the deliveries...
    assert day[1] < 1.5 * short[1]  # ...and no more memory to write them
    lines = (tmp_path / "24h" / "uplinks.ndjson").read_text(encoding="utf-8").splitlines()
    assert len(lines) == day[0]


def test_map_memory_stays_below_the_maps_size(tmp_path):
    # The maps stream row by row: writing them holds far less than their text.
    kinds = frozenset({"summary", "map_csv", "map_kml"})
    day = campus_scenario().replace(duration_s=24 * 3600.0, outputs=kinds)
    _, peak = _write_peak_bytes(day, tmp_path)
    size = sum((tmp_path / name).stat().st_size for name in ("map.csv", "map.kml"))
    assert peak < size / 2


def test_gateway_without_deliveries_writes_empty_streams(tmp_path):
    # The flood's hop budget runs out before the gateway at the end of the line.
    scenario = line_scenario(count=5).replace(outputs=frozenset({"summary", "uplinks", "series"}))
    report = engine.run(scenario)
    assert not any(rec.uplinked for rec in report.gateway_receptions)
    written = write_outputs(report, scenario, tmp_path)
    assert [p.name for p in written] == ["summary.json", "uplinks.ndjson", "series.lp"]
    assert (tmp_path / "uplinks.ndjson").read_bytes() == b""
    assert (tmp_path / "series.lp").read_bytes() == b"\n"


def test_gateway_outputs_read_one_store(tmp_path):
    # k4's gateway decodes the packet twice, from node0 and from a
    # rebroadcast; only the first copy is uplinked. The maps write both.
    scenario = k4_scenario().replace(outputs=GATEWAY_OUTPUTS | {"summary"})
    report = engine.run(scenario)
    rows = report.gateway_receptions
    assert len(rows) == 2
    assert [rec.uplinked for rec in rows] == [True, False]
    write_outputs(report, scenario, tmp_path)
    with open(tmp_path / "map.csv", newline="", encoding="utf-8") as handle:
        assert len(list(csv.DictReader(handle))) == 2
    assert (tmp_path / "map.kml").read_text(encoding="utf-8").count("<Placemark>") == 2
    assert (tmp_path / "uplinks.ndjson").read_text(encoding="utf-8").count("\n") == 1
    # Any one gateway output keeps the same store; none keeps it empty.
    for kind in GATEWAY_OUTPUTS:
        alone = scenario.replace(outputs=frozenset({"summary", kind}))
        assert engine.run(alone).gateway_receptions == rows
    assert engine.run(scenario.replace(outputs=frozenset({"summary"}))).gateway_receptions == []


def test_trace_without_events_writes_one_newline(tmp_path):
    scenario = k4_scenario().replace(outputs=frozenset({"summary", "trace"}))
    idle = SimReport(scenario_name="k4", seed=1, duration_s=60.0, trace=[])
    uncollected = SimReport(scenario_name="k4", seed=1, duration_s=60.0, trace=None)
    for name, report in (("idle", idle), ("uncollected", uncollected)):
        write_outputs(report, scenario, tmp_path / name)
        assert (tmp_path / name / "trace.log").read_bytes() == b"\n"


def test_library_run_keeps_the_trace_the_cli_writes(tmp_path):
    # "trace" among the outputs is the one switch, through meshsim.run as
    # through the CLI: both write the same trace.log, event line for line.
    scenario = k4_scenario().replace(outputs=frozenset({"summary", "trace"}))
    write_outputs(meshsim.run(scenario), scenario, tmp_path / "library")
    cli_dir = tmp_path / "cli"
    assert run_cli("--scenario", "k4", "--emit", "summary,trace", "--out-dir", str(cli_dir)) == 0
    trace = (tmp_path / "library" / "trace.log").read_bytes()
    assert trace == (cli_dir / "trace.log").read_bytes()
    assert trace.count(b"\n") > 1
