"""End-to-end command-line interface: configs, commands, exit codes."""

import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from driftplan.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from driftplan.flowfield import GriddedFlow, SpaceTimeGrid, write_flow_file
from driftplan.hjsolver import MAX_SNAPSHOTS, MAX_VALUE_BYTES, TargetSpec
from driftplan.missions import write_missions
from driftplan.simulator import Mission


def test_import_loads_no_scipy():
    # driftplan.cli imports every module of the package; scipy is a test
    # dependency only, and importing its ndimage costs ~25 MB per process
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, driftplan.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_missing_config_is_config_error(capsys):
    assert main(["solve", "--config", "/nonexistent.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve", "--config", str(p)]) == EXIT_CONFIG


def test_unknown_flow_kind_is_config_error(config, tmp_path, capsys):
    raw = dict(config["raw"])
    raw["scenario"] = dict(raw["scenario"], flow={"kind": "vortex"})
    p = tmp_path / "c2.json"
    p.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(p)]) == EXIT_CONFIG
    assert "vortex" in capsys.readouterr().err


def test_solve_writes_artifacts(config, capsys):
    rc = main(["solve", "--config", config["path"]])
    assert rc == EXIT_OK
    out = config["tmp"] / "out"
    assert {f.name for f in out.iterdir()} == {"ttr.csv", "solve_summary.json"}
    summary = json.loads((out / "solve_summary.json").read_text())
    assert 0.0 < summary["finite_fraction"] < 1.0
    assert summary["ttr_min_s"] == 0.0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed == summary


def test_solve_without_solve_section(config, tmp_path):
    raw = {k: v for k, v in config["raw"].items() if k != "solve"}
    p = tmp_path / "c3.json"
    p.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(p)]) == EXIT_CONFIG


def test_sample_missions_and_batch_pipeline(config, capsys):
    rc = main(["sample-missions", "--config", config["path"], "--n", "6"])
    assert rc == EXIT_OK
    out = config["tmp"] / "out"
    manifest = out / "missions.jsonl"
    assert len(manifest.read_text().splitlines()) == 6
    capsys.readouterr()

    rc = main(["batch", "--config", config["path"],
               "--missions", str(manifest)])
    assert rc == EXIT_OK
    summary = json.loads((out / "batch_summary.json").read_text())
    assert set(summary["tallies"]) == {"mtr", "floating"}
    mtr = summary["tallies"]["mtr"]
    assert mtr["n_total"] == 6
    assert mtr["n_success"] + mtr["n_stranded"] + mtr["n_timeout"] + \
        mtr["n_left_region"] == 6
    assert (out / "mtr" / "mission_0000.csv").exists()
    # batch writes the summary alone; stats writes the report from it
    assert not (out / "stats_report.json").exists()
    summary_path = str(out / "batch_summary.json")
    assert main(["stats", "--config", config["path"], "--summary", summary_path]) == EXIT_OK
    report = json.loads((out / "stats_report.json").read_text())
    assert report["baseline"] == "floating"
    assert "mtr" in report["controllers"]


def test_batch_summary_deterministic_across_worker_counts(config, tmp_path, capsys):
    main(["sample-missions", "--config", config["path"], "--n", "4"])
    manifest = str(config["tmp"] / "out" / "missions.jsonl")
    capsys.readouterr()

    outs = []
    for workers, name in ((1, "w1"), (2, "w2")):
        out = tmp_path / name
        rc = main(["batch", "--config", config["path"], "--missions", manifest,
                   "--out", str(out), "--workers", str(workers),
                   "--controllers", "mtr"])
        assert rc == EXIT_OK
        outs.append((out / "batch_summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_stranding_study_outputs(config, capsys):
    rc = main(["stranding-study", "--config", config["path"],
               "--n", "100", "--horizon", "90000"])
    assert rc == EXIT_OK
    out = config["tmp"] / "out"
    res = json.loads((out / "stranding_rates.json").read_text())
    assert res["n"] == 100
    assert res["n_stranded"] + res["n_left_region"] + res["n_survived"] == 100
    assert 0.1 < res["stranded_rate"] < 0.3
    assert {f.name for f in out.iterdir()} == {"stranding_heatmap.csv", "stranding_rates.json"}
    heat = np.loadtxt(out / "stranding_heatmap.csv", delimiter=",")
    assert heat.shape == (51, 51) and heat.sum() == res["n_stranded"]


def _gridded_truth_config(config, tmp_path, forecast):
    """The fixture's experiment on an 11^2 OFG1 truth over [0, 90 ks], with a
    forecast error model on ``forecast``'s cadence and horizon."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=45000.0, nt=3)
    truth = tmp_path / "truth.ofg1"
    write_flow_file(GriddedFlow(g, np.full((3, 11, 11), 0.1), np.zeros((3, 11, 11))),
                    str(truth))
    raw = dict(config["raw"])
    raw["scenario"] = dict(raw["scenario"], flow={"kind": "file", "path": str(truth)})
    raw["forecast"] = {"target_rmse": 0.1, "spatial_correlation_length": 2500.0,
                       "temporal_correlation": 40000.0, "n_modes": 8, **forecast}
    p = tmp_path / "gridded.json"
    p.write_text(json.dumps(raw))
    return str(p)


def test_batch_summary_carries_each_missions_note(config, tmp_path, capsys):
    # the second mission starts after the gridded truth's end, so no forecast
    # is released for it and it aborts alone
    p = _gridded_truth_config(config, tmp_path, {"cadence": 45000.0, "horizon": 45000.0})
    target = TargetSpec((5000.0, 5000.0), 300.0)
    manifest = tmp_path / "missions.jsonl"
    write_missions([Mission(1000.0, 5000.0, 0.0, target, 30000.0),
                    Mission(1000.0, 5000.0, 100000.0, target, 30000.0)], str(manifest))
    assert main(["batch", "--config", p, "--missions", str(manifest),
                 "--controllers", "floating"]) == EXIT_OK
    summary = json.loads((config["tmp"] / "out" / "batch_summary.json").read_text())
    first, second = summary["missions"]["floating"]
    assert first["outcome"] != "aborted" and first["note"] == ""
    assert (second["outcome"], second["outcome_time_s"], second["note"]) == (
        "aborted", 100000.0, "replan failed: no forecast released yet at t=100000.0")


def test_batch_whose_every_mission_aborts_is_runtime_error(config, tmp_path, capsys):
    """Every mission starts after the gridded truth's end, so every mission of
    every controller aborts: exit 3, with each abort in the summary."""
    p = _gridded_truth_config(config, tmp_path, {"cadence": 45000.0, "horizon": 45000.0})
    target = TargetSpec((5000.0, 5000.0), 300.0)
    manifest = tmp_path / "missions.jsonl"
    write_missions([Mission(1000.0, 5000.0, t0, target, 30000.0) for t0 in (95000.0, 100000.0)],
                   str(manifest))
    assert main(["batch", "--config", p, "--missions", str(manifest),
                 "--controllers", "mtr,floating"]) == EXIT_RUNTIME
    summary = json.loads((config["tmp"] / "out" / "batch_summary.json").read_text())
    assert {k: [m["outcome"] for m in ms] for k, ms in summary["missions"].items()} == {
        "mtr": ["aborted", "aborted"], "floating": ["aborted", "aborted"]}


def test_stats_of_a_batch_whose_every_mission_aborts_has_null_rates(config, tmp_path, capsys):
    # every mission of the summary aborted, so each controller's tally is empty
    p = _gridded_truth_config(config, tmp_path, {"cadence": 45000.0, "horizon": 45000.0})
    manifest = tmp_path / "missions.jsonl"
    write_missions([Mission(1000.0, 5000.0, 100000.0, TargetSpec((5000.0, 5000.0), 300.0),
                            30000.0)], str(manifest))
    out = config["tmp"] / "out"
    assert main(["batch", "--config", p, "--missions", str(manifest)]) == EXIT_RUNTIME
    assert main(["stats", "--config", p, "--summary", str(out / "batch_summary.json")]) == EXIT_OK
    report = json.loads((out / "stats_report.json").read_text())
    for name in ("mtr", "floating"):
        assert report["controllers"][name]["n_aborted"] == 1
        assert report["controllers"][name]["stranding_rate"] is None
    assert report["tests"] == {"mtr": {"z": None, "p": None}}


def test_elevation_file_terrain_sets_the_coarsened_planning_grid(config, tmp_path, capsys):
    """An ELG1 terrain at 100 m, coarsened by 2, is the fixture's 51^2 terrain
    at 200 m, and solve runs on that grid: the solver section has no spatial key."""
    assert main(["solve", "--config", config["path"]]) == EXIT_OK
    synthetic = json.loads(capsys.readouterr().out.strip())
    xs = 100.0 * np.arange(101)
    elevation = np.where(xs >= 8600.0, 0.0, -4000.0) * np.ones((101, 1))
    path = tmp_path / "terrain.elg1"
    path.write_bytes(struct.pack("<4sII4d", b"ELG1", 101, 101, 0.0, 100.0, 0.0, 100.0)
                     + elevation.astype("<f4").tobytes())
    raw = dict(config["raw"], out=str(tmp_path / "elg1"))
    raw["scenario"] = dict(raw["scenario"],
                           terrain={"kind": "file", "path": str(path), "coarsen": 2})
    p = tmp_path / "elg1.json"
    p.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(p)]) == EXIT_OK
    ttr = np.loadtxt(tmp_path / "elg1" / "ttr.csv", delimiter=",")
    assert ttr.shape == (51, 51)
    assert json.loads(capsys.readouterr().out.strip()) == synthetic


def test_solve_beyond_the_value_byte_budget_is_config_error(config, tmp_path, capsys,
                                                            monkeypatch):
    """A 401^2 ELG1 terrain with 10,000 snapshots, the snapshot cap, would
    hold 12.9 GB of values: the solve is refused before it allocates them.
    numpy.empty refuses anything larger than the budget, so a solve that
    tried would fail here at once, not page through memory."""
    real_empty = np.empty

    def bounded_empty(shape, dtype=float, *args, **kwargs):
        if math.prod(np.atleast_1d(shape).tolist()) * np.dtype(dtype).itemsize > MAX_VALUE_BYTES:
            raise MemoryError(f"numpy.empty({shape}) is beyond the test's budget")
        return real_empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", bounded_empty)
    path = tmp_path / "terrain.elg1"
    path.write_bytes(struct.pack("<4sII4d", b"ELG1", 401, 401, 0.0, 25.0, 0.0, 25.0)
                     + np.full((401, 401), -4000.0, dtype="<f4").tobytes())
    raw = dict(config["raw"])
    raw["scenario"] = dict(raw["scenario"], terrain={"kind": "file", "path": str(path)})
    raw["solve"] = dict(raw["solve"], terminal_time=3000.0 * (MAX_SNAPSHOTS - 1))
    p = tmp_path / "big.json"
    p.write_text(json.dumps(raw))
    err = _config_error(capsys, ["solve", "--config", str(p)])
    assert f"more than {MAX_VALUE_BYTES:,}" in err


def test_stats_command_recomputes_report(config, tmp_path, capsys):
    summary = {
        "tallies": {
            "floating": {"n_total": 1146, "n_success": 1092, "n_stranded": 54,
                         "n_timeout": 0, "n_left_region": 0},
            "mtr": {"n_total": 1146, "n_success": 1135, "n_stranded": 11,
                    "n_timeout": 0, "n_left_region": 0},
        }
    }
    p = tmp_path / "summary.json"
    p.write_text(json.dumps(summary))
    rc = main(["stats", "--config", config["path"], "--summary", str(p)])
    assert rc == EXIT_OK
    report = json.loads(
        (config["tmp"] / "out" / "stats_report.json").read_text()
    )
    assert report["tests"]["mtr"]["p"] == pytest.approx(3.14e-8, rel=0.01)
    assert report["controllers"]["floating"]["stranding_rate"] == \
        pytest.approx(0.0471, abs=1e-4)


def test_empty_manifest_batch_reports_null_rates(config, capsys):
    assert main(["sample-missions", "--config", config["path"], "--n", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.strip()) == {"n": 0}
    out = config["tmp"] / "out"
    rc = main(["batch", "--config", config["path"],
               "--missions", str(out / "missions.jsonl")])
    assert rc == EXIT_OK
    summary = json.loads((out / "batch_summary.json").read_text())
    assert summary["tallies"]["mtr"]["n_total"] == 0
    capsys.readouterr()
    assert main(["stats", "--config", config["path"],
                 "--summary", str(out / "batch_summary.json")]) == EXIT_OK
    report = json.loads((out / "stats_report.json").read_text())
    for name in ("mtr", "floating"):
        assert report["controllers"][name]["stranding_rate"] is None
        assert report["controllers"][name]["success_rate"] is None
    assert report["tests"]["mtr"] == {"z": None, "p": None}


def test_stats_command_with_an_empty_tally(config, tmp_path, capsys):
    summary = {
        "tallies": {
            "floating": {"n_total": 50, "n_success": 40, "n_stranded": 10,
                         "n_timeout": 0, "n_left_region": 0},
            # every mission aborted: nothing left to tally
            "mtr": {"n_total": 0, "n_success": 0, "n_stranded": 0,
                    "n_timeout": 0, "n_left_region": 0, "n_aborted": 50},
        }
    }
    p = tmp_path / "summary.json"
    p.write_text(json.dumps(summary))
    rc = main(["stats", "--config", config["path"], "--summary", str(p)])
    assert rc == EXIT_OK
    report = json.loads((config["tmp"] / "out" / "stats_report.json").read_text())
    assert report["controllers"]["mtr"]["stranding_rate"] is None
    assert report["controllers"]["floating"]["stranding_rate"] == 0.2
    assert report["tests"]["mtr"] == {"z": None, "p": None}


def _config_error(capsys, argv):
    """Run the CLI on bad input: exit code 2 and a one-line config error,
    never a traceback."""
    assert main(argv) == EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    return err


def test_flow_file_with_bad_magic_is_config_error(config, tmp_path, capsys):
    flow = tmp_path / "bad.ofg"
    flow.write_bytes(b"NOPE" + b"\x00" * 100)
    raw = dict(config["raw"])
    raw["scenario"] = dict(raw["scenario"], flow={"kind": "file", "path": str(flow)})
    p = tmp_path / "c7.json"
    p.write_text(json.dumps(raw))
    assert "bad magic" in _config_error(capsys, ["solve", "--config", str(p)])


@pytest.mark.parametrize("where", ["flag", "config"])
def test_batch_with_unknown_controller_is_config_error(config, tmp_path, capsys, where):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    argv = ["batch", "--missions", str(manifest)]
    if where == "flag":
        argv += ["--config", config["path"], "--controllers", "mtr,bogus"]
    else:
        p = tmp_path / "c8.json"
        p.write_text(json.dumps(dict(config["raw"], controllers=["mtr", "bogus"])))
        argv += ["--config", str(p)]
    assert "bogus" in _config_error(capsys, argv)


_ERROR_MODEL = {"target_rmse": 0.1, "spatial_correlation_length": 2500.0,
                "temporal_correlation": 40000.0, "n_modes": 8,
                "cadence": 45000.0, "horizon": 90000.0}


@pytest.mark.parametrize("command, change", [
    (["solve"], lambda c: c["solve"].pop("target_radius")),
    (["solve"], lambda c: c["solve"].update(target_radius=0)),
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c.update(study_t_range=[0.0])),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(baseline="no_such_kind")),
    (["solve"], lambda c: c["solver"].update(alpha=1.0)),
    (["solve"], lambda c: c["forecast"].update(cadense=45000.0)),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(controllers=[])),
    (["sample-missions", "--n", "2"],
     lambda c: c["missions"].update(final_time_horizon=[80000.0])),
    (["solve"], lambda c: c["scenario"].update(flow=["highway"])),
    (["solve"], lambda c: c["sim"].update(integrator="euler")),
    (["solve"], lambda c: c["solver"].update(cfl=2.0)),
    (["solve"], lambda c: c["solve"].update(t_start=90000.0, terminal_time=0.0)),
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c.update(study_t_range=[5000.0, 0.0])),
    # "." is a directory wherever the tests run
    (["solve"], lambda c: c["scenario"].update(flow={"kind": "file", "path": "."})),
    (["solve"], lambda c: c["scenario"].update(terrain={"kind": "file", "path": "."})),
    (["solve"], lambda c: c["scenario"].update(flow={"kind": "file", "path": "no_such.ofg1"})),
    # the terrain gives the planning grid's space and each solve its own time
    # axis: solver.dt_snap replaced solver.grid's t0, dt_snap and nt
    (["solve"], lambda c: c["solver"].update(grid={"t0": 0.0, "dt_snap": 3000.0, "nt": 31})),
    (["solve"], lambda c: c["scenario"]["flow"].update(band_velocty=[0.4, 0.0])),
    (["solve"], lambda c: c["scenario"]["terrain"].update(treshold=-100.0)),
    (["solve"], lambda c: c["scenario"]["terrain"].update(coarsen=0)),
    (["solve"], lambda c: c["scenario"].update(regoin=[0.0, 10000.0, 0.0, 10000.0])),
    (["solve"], lambda c: c["solve"].update(target_raduis=300.0)),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(controlers=["switch_mtr"])),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(switch_treshold=5000.0)),
    # the numbers given as flags are checked as well
    (["stranding-study", "--n", "0", "--horizon", "600"], lambda c: None),
    (["stranding-study", "--n", "10", "--horizon", "-600"], lambda c: None),
    (["sample-missions", "--n", "-3"], lambda c: None),
    (["solve", "--at", "1e6"], lambda c: None),
    # a cadence of 0 would release forecasts at one time forever
    (["solve"], lambda c: c["forecast"].update(cadence=0.0)),
    (["batch", "--missions", "EMPTY"], lambda c: c["forecast"].update(horizon=-5.0)),
    # an error model that is present and not 0 is built, and checked
    (["batch", "--missions", "EMPTY"],
     lambda c: c.update(forecast=dict(_ERROR_MODEL, target_rmse=math.nan))),
    (["batch", "--missions", "EMPTY"],
     lambda c: c.update(forecast=dict(_ERROR_MODEL, target_rmse=-0.1))),
    (["batch", "--missions", "EMPTY"],
     lambda c: c.update(forecast=dict(_ERROR_MODEL, target_rmse=math.inf))),
    (["batch", "--missions", "EMPTY"],
     lambda c: c.update(forecast=dict(_ERROR_MODEL, spatial_correlation_length=math.nan))),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(forecast=dict(_ERROR_MODEL, n_modes=2.5))),
    # every start drawn in the region would lie on the coastal wall
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c["scenario"].update(region=[9000.0, 10000.0, 0.0, 10000.0])),
    # a seed is an integer >= 0, from the config or the flag, for every command
    (["stranding-study", "--n", "10", "--horizon", "600"], lambda c: c.update(seed=2.5)),
    (["stranding-study", "--n", "10", "--horizon", "600"], lambda c: c.update(seed=-1)),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(seed="7")),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(seed=True)),
    (["sample-missions", "--n", "2", "--seed", "-1"], lambda c: None),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(forecast_span=[0.0, 90000.0])),
    # a value of the wrong type or order is refused before the run that would trip on it
    (["batch", "--missions", "EMPTY"], lambda c: c.update(switch_threshold="x")),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(switch_threshold=True)),
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c.update(study_t_range=["a", "b"])),
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c["scenario"].update(region=[10000.0, 0.0, 0.0, 10000.0])),
    (["batch", "--missions", "EMPTY"],
     lambda c: c["scenario"].update(region=[0.0, 10000.0, 5000.0, 5000.0])),
    (["stranding-study", "--n", "10", "--horizon", "600"], lambda c: c.update(out=5)),
    # NaN fails every comparison, so each number's check is written to fail on it;
    # JSON's Infinity is a float too
    (["solve"], lambda c: c["solver"].update(u_max=math.nan)),
    (["batch", "--missions", "EMPTY"], lambda c: c["solver"].update(u_max=math.nan)),
    (["solve"], lambda c: c["solver"].update(u_max=math.inf)),
    (["solve"], lambda c: c["solver"].update(d_max=math.inf)),
    (["solve"], lambda c: c["solver"].update(dt_snap=math.nan)),
    (["batch", "--missions", "EMPTY"], lambda c: c["solver"].update(dt_snap=math.nan)),
    (["solve"], lambda c: c["solve"].update(target_radius=math.nan)),
    (["batch", "--missions", "EMPTY"], lambda c: c["sim"].update(step_dt=math.nan)),
    (["batch", "--missions", "EMPTY"], lambda c: c.update(switch_threshold=math.nan)),
    (["solve"], lambda c: c["scenario"]["terrain"].update(threshold=math.nan)),
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c.update(study_t_range=[0.0, math.inf])),
    # a JSON integer beyond float's range would overflow where it is used as a float
    (["batch", "--missions", "EMPTY"], lambda c: c.update(switch_threshold=10**400)),
    (["solve"], lambda c: c["solver"].update(u_max=10**400)),
    # an endless deadline would be written to the manifest
    (["sample-missions", "--n", "2"], lambda c: c["missions"].update(t_max=math.inf)),
    (["sample-missions", "--n", "2"], lambda c: c["missions"].update(t_max=math.nan)),
    # each number of the flow and the terrain is finite, or the model it enters refuses it
    (["solve"], lambda c: c["scenario"]["flow"].update(band_velocity=[math.nan, 0.0])),
    (["stranding-study", "--n", "20", "--horizon", "600"],
     lambda c: c["scenario"]["flow"].update(band_velocity=[math.nan, 0.0])),
    (["solve"], lambda c: c["scenario"]["flow"].update(y1=math.nan)),
    (["solve"], lambda c: c["scenario"].update(flow={"kind": "uniform",
                                                     "velocity": [math.inf, 0.0]})),
    (["solve"], lambda c: c["scenario"].update(flow={"kind": "double_gyre", "amplitude": 0.1,
                                                     "omega": math.nan, "epsilon": 0.25,
                                                     "scale": 5000.0})),
    (["solve"], lambda c: c["scenario"]["terrain"]["grid"].update(x0=math.nan)),
    (["solve"], lambda c: c["solve"].update(terminal_time=math.inf)),
    # an infinite region bound or sampling window overflows numpy's uniform draw,
    # and an infinite drift horizon never ends
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c["scenario"].update(region=[0.0, math.inf, 0.0, 10000.0])),
    (["sample-missions", "--n", "2"],
     lambda c: c["scenario"].update(region=[0.0, 10000.0, 0.0, math.inf])),
    (["sample-missions", "--n", "2"],
     lambda c: c["missions"].update(final_time_horizon=[0.0, math.inf])),
    (["sample-missions", "--n", "2"],
     lambda c: c["missions"].update(final_time_horizon=[math.nan, math.nan])),
    (["stranding-study", "--n", "10", "--horizon", "inf"], lambda c: None),
    (["solve"], lambda c: c["forecast"].update(cadence=math.inf)),
    # 1e300 s at a dt_snap of 3000 s is far more than MAX_SNAPSHOTS snapshots
    (["solve"], lambda c: c["solve"].update(terminal_time=1e300)),
    # two finite ends whose span overflows to infinity
    (["solve"], lambda c: c["solve"].update(t_start=-1e308, terminal_time=1e308)),
    # a NaN min_boundary_dist fails every `<` test, so it refused no target
    (["sample-missions", "--n", "2"], lambda c: c["missions"].update(min_boundary_dist=math.nan)),
    # a region is four numbers: three failed to index, five to unpack in a run
    (["solve"], lambda c: c["scenario"].update(region=[0.0, 10000.0, 0.0])),
    (["stranding-study", "--n", "10", "--horizon", "600"],
     lambda c: c["scenario"].update(region=[0.0, 10000.0, 0.0, 10000.0, 0.0])),
    (["batch", "--missions", "EMPTY"],
     lambda c: c["scenario"].update(region=[0.0, 10000.0, 0.0, 10000.0, 0.0])),
], ids=["solve-without-radius", "zero-radius", "short-study-range", "unknown-baseline", "solver-alpha", "unknown-forecast-key", "no-controllers",
        "short-final-time-window", "flow-not-an-object", "sim-integrator", "solver-cfl",
        "reversed-solve-window", "reversed-study-range",
        "flow-path-is-a-directory", "terrain-path-is-a-directory", "missing-flow-file",
        "old-solver-grid-key", "unknown-flow-key", "unknown-terrain-key", "coarsen-zero",
        "unknown-scenario-key", "unknown-solve-key", "unknown-top-level-key",
        "misspelt-switch-threshold", "study-n-zero", "negative-horizon", "negative-n",
        "at-outside-the-solve-window", "zero-cadence", "negative-forecast-horizon",
        "nan-target-rmse", "negative-target-rmse", "infinite-target-rmse",
        "nan-correlation-length", "fractional-n-modes", "study-region-on-the-wall",
        "fractional-seed", "negative-seed", "string-seed", "boolean-seed", "negative-seed-flag",
        "forecast-span-key", "string-switch-threshold", "boolean-switch-threshold",
        "string-study-range", "reversed-region", "flat-region", "non-string-out",
        "nan-u-max", "nan-u-max-batch", "infinite-u-max", "infinite-d-max", "nan-dt-snap",
        "nan-dt-snap-batch", "nan-target-radius", "nan-step-dt", "nan-switch-threshold",
        "nan-terrain-threshold", "infinite-study-range", "huge-integer-switch-threshold",
        "huge-integer-u-max", "infinite-mission-t-max", "nan-mission-t-max",
        "nan-band-velocity", "nan-band-velocity-study", "nan-highway-y1",
        "infinite-uniform-velocity", "nan-gyre-omega", "nan-terrain-origin",
        "infinite-terminal-time", "infinite-region-study", "infinite-region-sample",
        "infinite-final-time-horizon", "nan-final-time-horizon", "infinite-drift-horizon",
        "infinite-cadence", "huge-terminal-time", "overflowing-solve-span",
        "nan-min-boundary-dist", "region-of-three", "region-of-five-study",
        "region-of-five-batch"])
def test_bad_config_section_is_config_error(config, tmp_path, capsys, command, change):
    """Every section that any command reads is parsed, and checked, before
    the command runs: a missing key, a bad value, an unknown key or kind, a
    reversed time window, or a flow or terrain file that cannot be read."""
    raw = json.loads(json.dumps(config["raw"]))
    change(raw)
    p = tmp_path / "bad_section.json"
    p.write_text(json.dumps(raw))
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    argv = [str(manifest) if a == "EMPTY" else a for a in command]
    _config_error(capsys, [argv[0], "--config", str(p), *argv[1:]])


@pytest.mark.parametrize("command", [["solve"],
                                     ["stranding-study", "--n", "10", "--horizon", "600"]],
                         ids=["solve", "stranding-study"])
def test_out_naming_an_existing_file_is_runtime_error(config, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("")
    assert main([command[0], "--config", config["path"], "--out", str(out),
                 *command[1:]]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_seed_flag_reaches_the_forecast_error_model(config, tmp_path, capsys):
    p = tmp_path / "fc.json"
    p.write_text(json.dumps(dict(config["raw"], forecast=_ERROR_MODEL)))
    manifest = tmp_path / "missions.jsonl"
    write_missions([Mission(1000.0, 2000.0, 0.0, TargetSpec((4000.0, 2000.0), 300.0), 60000.0)],
                   str(manifest))

    def mission_csv(*flags):
        out = tmp_path / "-".join(("out",) + flags)
        assert main(["batch", "--config", str(p), "--missions", str(manifest), "--out", str(out),
                     "--controllers", "mtr", *flags]) == EXIT_OK
        return (out / "mtr" / "mission_0000.csv").read_bytes()

    config_seed = str(config["raw"]["seed"])
    assert mission_csv("--seed", "1") != mission_csv("--seed", "2")
    assert mission_csv("--seed", config_seed) == mission_csv()


def test_batch_with_missing_missions_file_is_config_error(config, tmp_path, capsys):
    missing = str(tmp_path / "none.jsonl")
    err = _config_error(capsys, ["batch", "--config", config["path"], "--missions", missing])
    assert missing in err


@pytest.mark.parametrize("line", ['{"x0_m": 1.0', '{"x0_m": 1.0, "y0_m": 2.0}', "5",
                                  '{"x0_m": 1.0, "y0_m": 2.0, "t0_s": 0.0, "target_x_m": 3.0, '
                                  '"target_y_m": 4.0, "target_radius_m": "big", "t_max_s": 9.0}',
                                  '{"x0_m": NaN, "y0_m": 2000.0, "t0_s": 0.0, "target_x_m": '
                                  '5000.0, "target_y_m": 2000.0, "target_radius_m": 300.0, '
                                  '"t_max_s": 9000.0}',
                                  '{"x0_m": 1000.0, "y0_m": 1000.0, "t0_s": 0.0, "target_x_m": '
                                  '5000.0, "target_y_m": 2000.0, "target_radius_m": 300.0, '
                                  '"t_max_s": Infinity}'])
def test_batch_with_bad_missions_line_is_config_error(config, tmp_path, capsys, line):
    # a malformed line, one with missing fields, one that is not an object,
    # one with a field that is not a number, and two with a field that is
    # not finite: a NaN start, which mtr cannot place on its grid, and an
    # endless deadline, on which floating in still water never ends
    manifest = tmp_path / "bad.jsonl"
    manifest.write_text(line + "\n")
    err = _config_error(capsys, ["batch", "--config", config["path"],
                                 "--missions", str(manifest)])
    assert "line 1" in err


@pytest.mark.parametrize("summary", [
    {"seed": 1}, {"tallies": {"mtr": {"n_total": 3}}},
    {"tallies": {"mtr": {"n_total": 5, "n_success": 1, "n_stranded": 1, "n_timeout": 0,
                         "n_left_region": 0}}}])
def test_stats_with_incomplete_summary_is_config_error(config, tmp_path, capsys, summary):
    # no tallies at all, a tally without its counts, and counts that do not
    # sum to n_total
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    err = _config_error(capsys, ["stats", "--config", config["path"], "--summary", str(path)])
    assert str(path) in err


def test_stats_with_missing_summary_is_config_error(config, tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    err = _config_error(capsys, ["stats", "--config", config["path"], "--summary", missing])
    assert missing in err


def test_gen_forecasts_is_no_command(config):
    with pytest.raises(SystemExit) as exc:
        main(["gen-forecasts", "--config", config["path"]])
    assert exc.value.code == 2


def test_workers_is_a_batch_option_only(config):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", config["path"], "--workers", "2"])
    assert exc.value.code == 2


def test_seed_override_changes_sampling(config, capsys, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["sample-missions", "--config", config["path"], "--n", "3",
          "--out", str(out_a)])
    main(["sample-missions", "--config", config["path"], "--n", "3",
          "--out", str(out_b), "--seed", "99"])
    a = (out_a / "missions.jsonl").read_text()
    b = (out_b / "missions.jsonl").read_text()
    assert a != b


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
