"""End-to-end command-line interface: configs, commands, exit codes."""

import json

import pytest

from driftplan.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from driftplan.flowfield import read_flow_file


@pytest.fixture()
def config(tmp_path):
    """A small self-contained experiment: band flow onto a coastal wall."""
    cfg = {
        "seed": 7,
        "out": str(tmp_path / "out"),
        "scenario": {
            "flow": {"kind": "highway", "y1": 4000.0, "y2": 6000.0,
                     "band_velocity": [0.4, 0.0]},
            "terrain": {
                "kind": "synthetic",
                "grid": {"x0": 0, "y0": 0, "dx": 200.0, "dy": 200.0,
                         "nx": 51, "ny": 51},
                "base_elevation": -4000.0,
                "blocks": [[8600.0, 10000.0, 0.0, 10000.0, 0.0]],
            },
            "region": [0.0, 10000.0, 0.0, 10000.0],
        },
        "solver": {
            "grid": {"x0": 0, "y0": 0, "dx": 200.0, "dy": 200.0,
                     "nx": 51, "ny": 51, "t0": 0.0, "dt_snap": 3000.0,
                     "nt": 31},
            "u_max": 0.1,
        },
        "sim": {"step_dt": 600.0},
        "forecast": {"target_rmse": 0.0, "cadence": 30000.0,
                     "horizon": 90000.0},
        "solve": {"target_center": [2000.0, 2000.0], "target_radius": 300.0,
                  "t_start": 0.0, "terminal_time": 90000.0},
        "missions": {
            "min_boundary_dist": 1000.0,
            "min_obstacle_dist": 1500.0,
            "max_obstacle_dist": 9000.0,
            "target_radius": 300.0,
            "ttr_window": [10000.0, 80000.0],
            "final_time_horizon": [80000.0, 90000.0],
            "t_max": 90000.0,
        },
        "controllers": ["mtr", "floating"],
        "baseline": "floating",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return dict(path=str(path), out=str(tmp_path / "out"), raw=cfg,
                tmp=tmp_path)


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
    assert {f.name for f in out.iterdir()} == {"ttr.pgm", "ttr.csv", "solve_summary.json"}
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
    validation = json.loads((out / "missions_validation.json").read_text())
    assert validation == {"n": 6, "violations": []}
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
    assert (out / "stranding_heatmap.pgm").exists()
    assert (out / "stranding_heatmap.csv").exists()


def test_gen_forecasts_requires_error_model(config):
    assert main(["gen-forecasts", "--config", config["path"]]) == EXIT_CONFIG


def test_gen_forecasts_writes_series(config, tmp_path, capsys):
    raw = dict(config["raw"])
    raw["forecast"] = {"target_rmse": 0.1, "spatial_correlation_length": 2500.0,
                       "temporal_correlation": 40000.0, "n_modes": 8,
                       "cadence": 45000.0, "horizon": 90000.0}
    p = tmp_path / "c4.json"
    p.write_text(json.dumps(raw))
    rc = main(["gen-forecasts", "--config", str(p)])
    assert rc == EXIT_OK
    out = config["tmp"] / "out"
    manifest = json.loads((out / "forecasts.json").read_text())
    assert [r["t_s"] for r in manifest["releases"]] == [0.0, 45000.0, 90000.0]
    solver = raw["solver"]["grid"]
    for release in manifest["releases"]:
        g = read_flow_file(release["path"]).grid
        assert (g.x0, g.y0, g.dx, g.dy, g.nx, g.ny) == tuple(
            solver[k] for k in ("x0", "y0", "dx", "dy", "nx", "ny"))
        assert g.t0 == release["t_s"]
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed == {"releases": 3}


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
    out = config["tmp"] / "out"
    rc = main(["batch", "--config", config["path"],
               "--missions", str(out / "missions.jsonl")])
    assert rc == EXIT_OK
    summary = json.loads((out / "batch_summary.json").read_text())
    assert summary["tallies"]["mtr"]["n_total"] == 0
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


def test_non_rk4_integrator_is_config_error(config, tmp_path, capsys):
    raw = dict(config["raw"], sim={"step_dt": 600.0, "integrator": "euler"})
    p = tmp_path / "c5.json"
    p.write_text(json.dumps(raw))
    assert main(["solve", "--config", str(p)]) == EXIT_CONFIG
    assert "integrator" in capsys.readouterr().err


def _config_error(capsys, argv):
    """Run the CLI on bad input: exit code 2 and a one-line config error,
    never a traceback."""
    assert main(argv) == EXIT_CONFIG == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    return err


def test_invalid_solver_parameter_is_config_error(config, tmp_path, capsys):
    raw = dict(config["raw"], solver=dict(config["raw"]["solver"], cfl=2.0))
    p = tmp_path / "c6.json"
    p.write_text(json.dumps(raw))
    assert "cfl" in _config_error(capsys, ["solve", "--config", str(p)])


def test_flow_file_with_bad_magic_is_config_error(config, tmp_path, capsys):
    flow = tmp_path / "bad.ofg"
    flow.write_bytes(b"NOPE" + b"\x00" * 100)
    raw = dict(config["raw"])
    raw["scenario"] = dict(raw["scenario"], flow={"kind": "file", "path": str(flow)})
    p = tmp_path / "c7.json"
    p.write_text(json.dumps(raw))
    assert "bad magic" in _config_error(capsys, ["solve", "--config", str(p)])


def test_batch_with_missing_missions_file_is_config_error(config, tmp_path, capsys):
    missing = str(tmp_path / "none.jsonl")
    err = _config_error(capsys, ["batch", "--config", config["path"], "--missions", missing])
    assert missing in err


def test_stats_with_missing_summary_is_config_error(config, tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    err = _config_error(capsys, ["stats", "--config", config["path"], "--summary", missing])
    assert missing in err


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
