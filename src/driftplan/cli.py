"""Command-line orchestration: scenario building, solves, batches,
stranding studies, and plot-ready CSV/PGM/JSON artifacts.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .controllers import ControllerKind
from .errors import ConfigError, DegenerateInputError, DriftplanError
from .flowfield import (
    GriddedFlow,
    SpaceTimeGrid,
    make_double_gyre,
    make_highway,
    make_uniform,
    read_flow_file,
    write_flow_file,
)
from .forecast import ErrorModelConfig, gen_forecast_series, write_series_manifest
from .gridio import write_csv_grid, write_pgm
from .hjsolver import SolverConfig, TargetSpec, safe_ttr, solve_mtr
from .missions import (
    SamplingConstraints,
    read_missions,
    sample_missions,
    validate_missions,
    write_missions,
)
from .simulator import BatchSpec, Outcome, SimConfig, run_batch, stranding_study, tally_outcomes
from .stats import OutcomeTally, rates, z_prop_test
from .terrain import (
    ElevationGrid,
    SpatialGrid,
    coarsen_max,
    distance_map,
    obstacle_mask,
    read_elevation_file,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass
class Experiment:
    """Fully constructed experiment objects, parsed from a config JSON."""

    truth: object
    obstacles: object
    dmap: object
    region: tuple
    solver_config: SolverConfig
    sim_config: SimConfig
    error_model: ErrorModelConfig | None
    cadence: float
    horizon: float
    constraints: SamplingConstraints | None
    controllers: list
    baseline: str
    switch_threshold: float
    mission_t_max: float | None
    seed: int
    out_dir: str
    raw: dict


def _grid_from_spec(spec: dict) -> SpaceTimeGrid:
    return SpaceTimeGrid(
        x0=spec["x0"], y0=spec["y0"], dx=spec["dx"], dy=spec["dy"],
        nx=spec["nx"], ny=spec["ny"],
        t0=spec.get("t0", 0.0), dt_snap=spec.get("dt_snap", 1.0),
        nt=spec.get("nt", 1),
    )


def build_flow(spec: dict):
    kind = spec.get("kind")
    if kind == "uniform":
        return make_uniform(*spec["velocity"])
    if kind == "highway":
        return make_highway(spec["y1"], spec["y2"], spec["band_velocity"])
    if kind == "double_gyre":
        return make_double_gyre(spec["amplitude"], spec["omega"],
                                spec["epsilon"], spec["scale"])
    if kind == "file":
        path = spec["path"]
        if not os.path.exists(path):
            raise ConfigError(f"flow file not found: {path}")
        return read_flow_file(path)
    raise ConfigError(f"unknown flow kind {kind!r}")


def build_terrain(spec: dict):
    """Returns (obstacle_mask, distance_map)."""
    kind = spec.get("kind")
    threshold = spec.get("threshold", -150.0)
    if kind == "file":
        path = spec["path"]
        if not os.path.exists(path):
            raise ConfigError(f"elevation file not found: {path}")
        elev = read_elevation_file(path)
    elif kind == "synthetic":
        g = spec["grid"]
        grid = SpatialGrid(x0=g["x0"], y0=g["y0"], dx=g["dx"], dy=g["dy"],
                           nx=g["nx"], ny=g["ny"])
        e = np.full((grid.ny, grid.nx), float(spec.get("base_elevation", -4000.0)))
        X, Y = grid.meshgrid()
        for x1, x2, y1, y2, elev_val in spec.get("blocks", []):
            e[(X >= x1) & (X <= x2) & (Y >= y1) & (Y <= y2)] = elev_val
        elev = ElevationGrid(grid, e)
    else:
        raise ConfigError(f"unknown terrain kind {kind!r}")
    factor = spec.get("coarsen", 1)
    if factor > 1:
        elev = coarsen_max(elev, factor)
    mask = obstacle_mask(elev, threshold)
    return mask, distance_map(mask)


def load_experiment(path: str, seed_override=None, out_override=None) -> Experiment:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        scenario = raw["scenario"]
        truth = build_flow(scenario["flow"])
        obstacles, dmap = build_terrain(scenario["terrain"])
        region = tuple(scenario["region"])
        sv = raw["solver"]
        solver_config = SolverConfig(
            grid=_grid_from_spec(sv["grid"]),
            u_max=sv["u_max"], d_max=sv.get("d_max", 0.0),
            alpha=sv.get("alpha", 1.0), cfl=sv.get("cfl", 0.5),
            sentinel=sv.get("sentinel", 1e10),
        )
        sm = raw.get("sim", {})
        if sm.get("integrator", "rk4") != "rk4":
            raise ConfigError(f"unsupported integrator {sm['integrator']!r}; only 'rk4'")
        sim_config = SimConfig(step_dt=sm.get("step_dt", 600.0), region=region)
        fc = raw.get("forecast", {})
        error_model = None
        if fc.get("target_rmse", 0.0) > 0.0:
            error_model = ErrorModelConfig(
                target_rmse=fc["target_rmse"],
                spatial_correlation_length=fc["spatial_correlation_length"],
                temporal_correlation=fc["temporal_correlation"],
                n_modes=fc.get("n_modes", 24),
                seed=raw.get("seed", 0),
            )
        cadence = fc.get("cadence", 86400.0)
        horizon = fc.get("horizon", 5 * 86400.0)
        constraints = None
        mission_t_max = None
        if "missions" in raw:
            ms = raw["missions"]
            constraints = SamplingConstraints(
                min_boundary_dist=ms["min_boundary_dist"],
                min_obstacle_dist=ms["min_obstacle_dist"],
                max_obstacle_dist=ms["max_obstacle_dist"],
                target_radius=ms["target_radius"],
                ttr_window=tuple(ms["ttr_window"]),
                final_time_horizon=tuple(ms["final_time_horizon"]),
            )
            mission_t_max = ms.get("t_max")
        controllers = [ControllerKind(k) for k in raw.get("controllers", ["mtr"])]
        baseline = raw.get("baseline", "mtr_no_obs")
        seed = seed_override if seed_override is not None else raw.get("seed", 0)
        out_dir = out_override or raw.get("out", "out")
        return Experiment(
            truth=truth, obstacles=obstacles, dmap=dmap, region=region,
            solver_config=solver_config, sim_config=sim_config,
            error_model=error_model, cadence=cadence, horizon=horizon,
            constraints=constraints, controllers=controllers,
            baseline=baseline,
            switch_threshold=raw.get("switch_threshold", 20_000.0),
            mission_t_max=mission_t_max, seed=seed, out_dir=out_dir, raw=raw,
        )
    except (KeyError, TypeError, ValueError, DriftplanError) as exc:
        # a bad parameter or flow file is a bad config too
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {exc!r}") from exc


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(exp: Experiment, args) -> int:
    spec = exp.raw.get("solve")
    if not spec:
        raise ConfigError("config lacks a 'solve' section with target and horizon")
    target = TargetSpec(center=tuple(spec["target_center"]),
                        radius=spec["target_radius"])
    t_start = spec["t_start"]
    t_end = spec["terminal_time"]
    vf = solve_mtr(exp.truth, exp.obstacles, target, exp.solver_config, t_start, t_end)
    os.makedirs(exp.out_dir, exist_ok=True)
    at = args.at if args.at is not None else t_start
    ttr_map = safe_ttr(vf, at)
    write_pgm(os.path.join(exp.out_dir, "ttr.pgm"), ttr_map.ttr)
    write_csv_grid(os.path.join(exp.out_dir, "ttr.csv"), ttr_map.ttr)
    finite = np.isfinite(ttr_map.ttr)
    summary = {
        "t": at,
        "ttr_min_s": float(np.nanmin(ttr_map.ttr)) if finite.any() else None,
        "ttr_max_s": float(np.nanmax(ttr_map.ttr)) if finite.any() else None,
        "finite_fraction": float(finite.mean()),
    }
    _dump_json(summary, os.path.join(exp.out_dir, "solve_summary.json"))
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


_RATE_NAMES = ("stranding_rate", "success_rate", "timeout_rate", "left_rate")


def _stats_report(tallies: dict, baseline: str) -> dict:
    report = {"baseline": baseline, "controllers": {}, "tests": {}}
    for name, t in tallies.items():
        tally = OutcomeTally(
            n_total=t["n_total"], n_success=t["n_success"],
            n_stranded=t["n_stranded"], n_timeout=t["n_timeout"],
            n_left_region=t["n_left_region"],
        )
        # an empty tally (no missions, or every one aborted) has no rates
        rate = rates(tally) if tally.n_total else dict.fromkeys(_RATE_NAMES)
        report["controllers"][name] = {**t, **rate}
    base = tallies.get(baseline)
    if base:
        for name, t in tallies.items():
            if name == baseline:
                continue
            report["tests"][name] = {"z": None, "p": None}
            if base["n_total"] < 1 or t["n_total"] < 1:
                continue
            try:
                res = z_prop_test(base["n_stranded"], base["n_total"],
                                  t["n_stranded"], t["n_total"])
            except DegenerateInputError:
                continue
            report["tests"][name] = {"z": res.z, "p": res.p}
    return report


def cmd_batch(exp: Experiment, args) -> int:
    try:
        missions = read_missions(args.missions)
    except OSError as exc:
        raise ConfigError(f"cannot read missions {args.missions}: {exc}") from exc
    kinds = (
        [ControllerKind(k) for k in args.controllers.split(",")]
        if args.controllers else exp.controllers
    )
    os.makedirs(exp.out_dir, exist_ok=True)
    tallies = {}
    per_mission = {}
    # an empty manifest is not a failure
    all_failed = bool(missions)
    for kind in kinds:
        spec = BatchSpec(
            kind=kind,
            solver_config=exp.solver_config,
            obstacles=exp.obstacles,
            dmap=exp.dmap,
            switch_threshold=exp.switch_threshold,
            error_model=exp.error_model,
            cadence=exp.cadence,
            horizon=exp.horizon,
        )
        records = run_batch(missions, exp.truth, spec, exp.sim_config,
                            master_seed=exp.seed, workers=args.workers)
        t = tally_outcomes(records)
        # aborted missions are runtime failures, kept out of the rate tally
        tallies[kind.value] = {
            "n_total": t["n_total"] - t["n_aborted"],
            "n_success": t["n_success"], "n_stranded": t["n_stranded"],
            "n_timeout": t["n_timeout"], "n_left_region": t["n_left_region"],
            "n_aborted": t["n_aborted"],
        }
        if t["n_aborted"] < t["n_total"]:
            all_failed = False
        per_mission[kind.value] = [
            {"index": i, "outcome": r.outcome.value, "outcome_time_s": r.outcome_time}
            for i, r in enumerate(records)
        ]
        ctrl_dir = os.path.join(exp.out_dir, kind.value)
        os.makedirs(ctrl_dir, exist_ok=True)
        for i, r in enumerate(records):
            r.write_csv(os.path.join(ctrl_dir, f"mission_{i:04d}.csv"))
    summary = {"seed": exp.seed, "tallies": tallies, "missions": per_mission}
    _dump_json(summary, os.path.join(exp.out_dir, "batch_summary.json"))
    report = _stats_report(
        {k: v for k, v in tallies.items()},
        exp.baseline,
    )
    _dump_json(report, os.path.join(exp.out_dir, "stats_report.json"))
    print(json.dumps({"tallies": tallies}, sort_keys=True))
    return EXIT_RUNTIME if all_failed else EXIT_OK


def cmd_stranding_study(exp: Experiment, args) -> int:
    res = stranding_study(
        exp.region, exp.truth, exp.obstacles,
        n=args.n, horizon=args.horizon, seed=exp.seed,
        t_range=tuple(exp.raw.get("study_t_range", (0.0, 0.0))),
        step_dt=exp.sim_config.step_dt,
    )
    os.makedirs(exp.out_dir, exist_ok=True)
    heat = res.pop("heatmap")
    write_pgm(os.path.join(exp.out_dir, "stranding_heatmap.pgm"), heat)
    write_csv_grid(os.path.join(exp.out_dir, "stranding_heatmap.csv"), heat, fmt="%d")
    _dump_json(res, os.path.join(exp.out_dir, "stranding_rates.json"))
    print(json.dumps(res, sort_keys=True))
    return EXIT_OK


def cmd_sample_missions(exp: Experiment, args) -> int:
    if exp.constraints is None:
        raise ConfigError("config lacks a 'missions' section")
    os.makedirs(exp.out_dir, exist_ok=True)
    manifest = os.path.join(exp.out_dir, "missions.jsonl")
    if args.n == 0:
        write_missions([], manifest)
        print(json.dumps({"n": 0, "violations": 0}))
        return EXIT_OK
    missions = sample_missions(
        exp.region, exp.truth, exp.obstacles, exp.dmap,
        n=args.n, constraints=exp.constraints,
        solver_config=exp.solver_config, seed=exp.seed,
        t_max=exp.mission_t_max,
    )
    write_missions(missions, manifest)
    problems = validate_missions(missions, exp.region, exp.dmap, exp.constraints)
    _dump_json({"n": len(missions), "violations": problems},
               os.path.join(exp.out_dir, "missions_validation.json"))
    print(json.dumps({"n": len(missions), "violations": len(problems)}))
    return EXIT_OK if not problems else EXIT_RUNTIME


def cmd_gen_forecasts(exp: Experiment, args) -> int:
    if exp.error_model is None:
        raise ConfigError("config lacks a forecast error model (target_rmse > 0)")
    g = exp.solver_config.grid
    span = tuple(exp.raw.get("forecast_span", (g.t0, g.t_max)))
    series = gen_forecast_series(exp.truth, exp.error_model, exp.cadence,
                                 exp.horizon, span)
    os.makedirs(exp.out_dir, exist_ok=True)
    entries = []
    for idx, (rt, flow) in enumerate(series.releases):
        nt = max(2, int(round((flow.t_max - rt) / g.dt_snap)) + 1)
        fg = replace(g, t0=rt, dt_snap=(flow.t_max - rt) / (nt - 1), nt=nt)
        X, Y = fg.meshgrid()
        # sampled straight into the file's float32, which GriddedFlow keeps
        u = np.empty((nt, fg.ny, fg.nx), dtype=np.float32)
        v = np.empty_like(u)
        for k, tk in enumerate(fg.ts):
            u[k], v[k] = flow.sample_many(X, Y, tk)
        path = os.path.join(exp.out_dir, f"forecast_{idx:03d}.ofg1")
        write_flow_file(GriddedFlow(fg, u, v), path)
        entries.append((rt, path))
    write_series_manifest(entries, exp.horizon,
                          os.path.join(exp.out_dir, "forecasts.json"))
    print(json.dumps({"releases": len(entries)}))
    return EXIT_OK


def cmd_stats(exp: Experiment, args) -> int:
    try:
        with open(args.summary) as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read summary {args.summary}: {exc}") from exc
    report = _stats_report(summary["tallies"], exp.baseline)
    os.makedirs(exp.out_dir, exist_ok=True)
    _dump_json(report, os.path.join(exp.out_dir, "stats_report.json"))
    print(json.dumps(report["tests"], sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="driftplan",
        description="Safe reachability-based navigation in strong flows",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="override output directory")

    sp = sub.add_parser("solve", help="solve the reachability PDE, export TTR maps")
    common(sp)
    sp.add_argument("--at", type=float, default=None, help="slice time for the TTR map")

    sp = sub.add_parser("batch", help="run controllers over a mission manifest")
    common(sp)
    sp.add_argument("--missions", required=True)
    sp.add_argument("--controllers", default=None, help="comma-separated kinds")
    sp.add_argument("--workers", type=int, default=1, help="mission worker processes")

    sp = sub.add_parser("stranding-study", help="passive-drift stranding Monte Carlo")
    common(sp)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--horizon", type=float, required=True)

    sp = sub.add_parser("sample-missions", help="generate a mission manifest")
    common(sp)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("gen-forecasts", help="write synthetic forecast OFG1 files")
    common(sp)

    sp = sub.add_parser("stats", help="recompute the stats report from a batch summary")
    common(sp)
    sp.add_argument("--summary", required=True, help="batch_summary.json path")
    return p


_COMMANDS = {
    "solve": cmd_solve,
    "batch": cmd_batch,
    "stranding-study": cmd_stranding_study,
    "sample-missions": cmd_sample_missions,
    "gen-forecasts": cmd_gen_forecasts,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = load_experiment(args.config, seed_override=args.seed,
                              out_override=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](exp, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DriftplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
