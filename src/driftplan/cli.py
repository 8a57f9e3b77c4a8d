"""Command-line orchestration: scenario building, solves, batches,
stranding studies, and their outputs: plot-ready CSV grids and JSON summaries.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .controllers import SWITCH_THRESHOLD, ControllerKind
from .errors import ConfigError, DegenerateInputError, DriftplanError, ParameterError
from .flowfield import SpaceTimeGrid, make_double_gyre, make_highway, make_uniform, read_flow_file
from .forecast import ErrorModelConfig
from .gridio import FLOAT_MAX, SpatialGrid
from .hjsolver import SolverConfig, TargetSpec, safe_ttr, solve_mtr
from .missions import SamplingConstraints, read_missions, sample_missions, write_missions
from .simulator import BatchSpec, SimConfig, run_batch, stranding_study, tally_outcomes
from .stats import rates, z_prop_test
from .terrain import (
    DEFAULT_THRESHOLD_M,
    ElevationGrid,
    coarsen_max,
    distance_map,
    obstacle_mask,
    read_elevation_file,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_TOP_LEVEL_KEYS = ("seed", "out", "scenario", "solver", "sim", "forecast", "missions",
                   "controllers", "baseline", "switch_threshold", "solve", "study_t_range")


@dataclass
class Experiment:
    """Fully constructed experiment objects, parsed from a config JSON."""

    truth: object
    batch: BatchSpec  # solver, terrain and forecasts of every controller; kind = controllers[0]
    sim_config: SimConfig
    constraints: SamplingConstraints | None
    mission_t_max: float | None
    controllers: list
    baseline: str
    solve: tuple | None  # (TargetSpec, t_start, terminal_time)
    study_t_range: tuple
    seed: int
    out_dir: str


def _controller_kinds(names) -> list:
    """The ControllerKind of each name; an unknown name, or none, is a config error."""
    try:
        kinds = [ControllerKind(k) for k in names]
    except ValueError as exc:
        known = ", ".join(k.value for k in ControllerKind)
        raise ConfigError(f"{exc}; known kinds: {known}") from exc
    if not kinds:
        raise ConfigError("no controller kind given")
    return kinds


def _check_keys(section, known, name: str) -> None:
    """An unknown key in a config section is a config error, not a silent default."""
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(sorted(unknown))}")


def _synthetic_elevation(grid, base_elevation=-4000.0, blocks=()) -> ElevationGrid:
    """Seafloor at base_elevation, raised to e on each [x1, x2, y1, y2, e] block."""
    grid = SpatialGrid(**grid)
    e = np.full((grid.ny, grid.nx), float(base_elevation))
    X, Y = grid.meshgrid()
    for x1, x2, y1, y2, elev_val in blocks:
        e[(X >= x1) & (X <= x2) & (Y >= y1) & (Y <= y2)] = elev_val
    return ElevationGrid(grid, e)


#: the builder of each kind, per scenario section; a section's other keys are its arguments
_BUILDERS = {
    "flow": {"uniform": lambda velocity: make_uniform(*velocity), "highway": make_highway,
             "double_gyre": make_double_gyre, "file": read_flow_file},
    "terrain": {"synthetic": _synthetic_elevation, "file": read_elevation_file},
}


def _build(section: str, spec: dict):
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind not in _BUILDERS[section]:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    return _BUILDERS[section][kind](**params)


def _json_int(text: str) -> int:
    """A config integer; one beyond float's range would overflow where it is
    used as a float, so it is refused as unreadable."""
    value = int(text)  # a ValueError beyond sys.get_int_max_str_digits()
    if not abs(value) <= FLOAT_MAX:
        raise ValueError(f"an integer of {len(text)} digits is too large for a float")
    return value


def load_experiment(path: str, seed_override=None, out_override=None) -> Experiment:
    """Parse every section that any command reads; its keys are the fields of the
    dataclass that owns their defaults, so an unknown key is a config error too."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=_json_int)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        _check_keys(raw, _TOP_LEVEL_KEYS, "top-level")
        seed = seed_override if seed_override is not None else raw.get("seed", 0)
        if type(seed) is not int or seed < 0:  # not isinstance: JSON's true is an int
            raise ConfigError(f"seed must be an integer >= 0, not {seed!r}")
        scenario = raw["scenario"]
        _check_keys(scenario, ("flow", "terrain", "region"), "scenario")
        truth = _build("flow", scenario["flow"])
        tr = dict(scenario["terrain"])
        factor, threshold = tr.pop("coarsen", 1), tr.pop("threshold", DEFAULT_THRESHOLD_M)
        obstacles = obstacle_mask(coarsen_max(_build("terrain", tr), factor), threshold)
        dmap = distance_map(obstacles)
        # the terrain gives the planning grid's space, so the obstacle mask lies on
        # the solver's nodes, and each solve its time axis (SpaceTimeGrid.spanning)
        sv = dict(raw["solver"])
        _check_keys(sv, ("dt_snap", "u_max", "d_max"), "solver")
        grid = SpaceTimeGrid(**vars(obstacles.grid), dt_snap=sv.pop("dt_snap"))
        solver_config = SolverConfig(grid=grid, **sv)
        fc = dict(raw.get("forecast", {}))
        timing = {k: fc.pop(k) for k in ("cadence", "horizon") if k in fc}
        # checked here, as perfect forecasts (target_rmse 0) build no ErrorModelConfig
        _check_keys(fc, {f.name for f in fields(ErrorModelConfig)} - {"seed"}, "forecast")
        error_model = None
        if fc.get("target_rmse", 0.0) != 0.0:
            error_model = ErrorModelConfig(**fc, seed=seed)
        constraints = mission_t_max = None
        if "missions" in raw:
            ms = dict(raw["missions"])
            mission_t_max = ms.pop("t_max", None)
            constraints = SamplingConstraints(**ms)
        controllers = _controller_kinds(raw.get("controllers", ["mtr"]))
        baseline = raw.get("baseline", "mtr_no_obs")
        _controller_kinds([baseline])
        solve = None
        if "solve" in raw:
            so = raw["solve"]
            _check_keys(so, ("target_center", "target_radius", "t_start", "terminal_time"),
                        "solve")
            cx, cy = so["target_center"]
            t_start, t_end = so["t_start"], so["terminal_time"]
            if not t_start < t_end:
                raise ConfigError(f"solve: t_start {t_start} must precede terminal_time {t_end}")
            solve = (TargetSpec(center=(cx, cy), radius=so["target_radius"]), t_start, t_end)
        lo, hi = study_t_range = tuple(raw.get("study_t_range", (0.0, 0.0)))
        # a string or a boolean would pass the comparisons and fail in a run,
        # and a NaN would fail every comparison of a run silently
        if any(type(v) not in (int, float) or not math.isfinite(v) for v in (lo, hi)):
            raise ConfigError(f"study_t_range must hold finite numbers, not {[lo, hi]}")
        if not lo <= hi:  # an equal pair is one start time
            raise ConfigError(f"study_t_range must satisfy lo <= hi, not [{lo}, {hi}]")
        out_dir = out_override or raw.get("out", "out")
        if not isinstance(out_dir, str):
            raise ConfigError(f"out must be a path string, not {out_dir!r}")
        return Experiment(
            truth=truth,
            batch=BatchSpec(kind=controllers[0], solver_config=solver_config,
                            obstacles=obstacles, dmap=dmap, error_model=error_model,
                            switch_threshold=raw.get("switch_threshold", SWITCH_THRESHOLD),
                            **timing),
            sim_config=SimConfig(**raw.get("sim", {}), region=tuple(scenario["region"])),
            constraints=constraints, mission_t_max=mission_t_max,
            controllers=controllers, baseline=baseline, solve=solve,
            study_t_range=study_t_range,
            seed=seed, out_dir=out_dir,
        )
    except (AttributeError, KeyError, TypeError, ValueError, OSError, DriftplanError) as exc:
        # a section of the wrong JSON type, a bad parameter, or a flow or
        # terrain file that cannot be read is a bad config too
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {type(exc).__name__}: {exc}") from exc


def _dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_solve(exp: Experiment, args) -> int:
    if exp.solve is None:
        raise ConfigError("config lacks a 'solve' section with target and horizon")
    target, t_start, t_end = exp.solve
    at = args.at if args.at is not None else t_start
    if not t_start <= at <= t_end:
        raise ConfigError(f"--at {at} lies outside the solve window [{t_start}, {t_end}]")
    vf = solve_mtr(exp.truth, exp.batch.obstacles, target, exp.batch.solver_config,
                   t_start, t_end)
    os.makedirs(exp.out_dir, exist_ok=True)
    ttr = safe_ttr(vf, at)
    np.savetxt(os.path.join(exp.out_dir, "ttr.csv"), ttr, delimiter=",", fmt="%.6g")
    finite = np.isfinite(ttr)
    summary = {
        "t": at,
        "ttr_min_s": float(np.nanmin(ttr)) if finite.any() else None,
        "ttr_max_s": float(np.nanmax(ttr)) if finite.any() else None,
        "finite_fraction": float(finite.mean()),
    }
    _dump_json(summary, os.path.join(exp.out_dir, "solve_summary.json"))
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_batch(exp: Experiment, args) -> int:
    """Run each controller over the manifest; an aborted mission is its own
    outcome, noted in batch_summary.json. Exit 3 only when the manifest is not
    empty and every mission of every controller aborted, 0 otherwise."""
    try:
        missions = read_missions(args.missions)
    except (OSError, ParameterError) as exc:
        raise ConfigError(f"cannot read missions {args.missions}: {exc}") from exc
    kinds = _controller_kinds(args.controllers.split(",")) if args.controllers else exp.controllers
    os.makedirs(exp.out_dir, exist_ok=True)
    tallies = {}
    per_mission = {}
    # an empty manifest is not a failure
    all_failed = bool(missions)
    for kind in kinds:
        records = run_batch(missions, exp.truth, replace(exp.batch, kind=kind), exp.sim_config,
                            master_seed=exp.seed, workers=args.workers)
        t = tally_outcomes(records)
        # aborted missions are runtime failures, kept out of the rate tally
        tallies[kind.value] = {**t, "n_total": t["n_total"] - t["n_aborted"]}
        if t["n_aborted"] < t["n_total"]:
            all_failed = False
        per_mission[kind.value] = [
            {"index": i, "outcome": r.outcome.value, "outcome_time_s": r.outcome_time,
             "note": r.note}
            for i, r in enumerate(records)
        ]
        ctrl_dir = os.path.join(exp.out_dir, kind.value)
        os.makedirs(ctrl_dir, exist_ok=True)
        for i, r in enumerate(records):
            r.write_csv(os.path.join(ctrl_dir, f"mission_{i:04d}.csv"))
    summary = {"seed": exp.seed, "tallies": tallies, "missions": per_mission}
    _dump_json(summary, os.path.join(exp.out_dir, "batch_summary.json"))
    print(json.dumps({"tallies": tallies}, sort_keys=True))
    return EXIT_RUNTIME if all_failed else EXIT_OK


def cmd_stranding_study(exp: Experiment, args) -> int:
    res = stranding_study(
        exp.sim_config.region, exp.truth, exp.batch.obstacles,
        n=args.n, horizon=args.horizon, seed=exp.seed,
        t_range=exp.study_t_range, step_dt=exp.sim_config.step_dt,
    )
    os.makedirs(exp.out_dir, exist_ok=True)
    np.savetxt(os.path.join(exp.out_dir, "stranding_heatmap.csv"), res.pop("heatmap"),
               delimiter=",", fmt="%d")
    _dump_json(res, os.path.join(exp.out_dir, "stranding_rates.json"))
    print(json.dumps(res, sort_keys=True))
    return EXIT_OK


def cmd_sample_missions(exp: Experiment, args) -> int:
    if exp.constraints is None:
        raise ConfigError("config lacks a 'missions' section")
    os.makedirs(exp.out_dir, exist_ok=True)
    missions = sample_missions(
        exp.sim_config.region, exp.truth, exp.batch.obstacles, exp.batch.dmap,
        n=args.n, constraints=exp.constraints,
        solver_config=exp.batch.solver_config, seed=exp.seed,
        t_max=exp.mission_t_max,
    )
    write_missions(missions, os.path.join(exp.out_dir, "missions.jsonl"))
    print(json.dumps({"n": len(missions)}))
    return EXIT_OK


def cmd_stats(exp: Experiment, args) -> int:
    try:
        with open(args.summary) as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read summary {args.summary}: {exc}") from exc
    report = {"baseline": exp.baseline, "controllers": {}, "tests": {}}
    try:
        tallies = summary["tallies"]
        for name, t in tallies.items():
            # an empty tally (no missions, or every one aborted) has None rates
            report["controllers"][name] = {**t, **rates(t)}
        base = tallies.get(exp.baseline)
        for name, t in tallies.items():
            if not base or name == exp.baseline:
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
    except (KeyError, TypeError, AttributeError, ParameterError) as exc:
        raise ConfigError(f"invalid summary {args.summary}: {exc!r}") from exc
    os.makedirs(exp.out_dir, exist_ok=True)
    _dump_json(report, os.path.join(exp.out_dir, "stats_report.json"))
    print(json.dumps(report["tests"], sort_keys=True))
    return EXIT_OK


#: each command's function, help line and own flags, as {flag: argparse keywords}
_COMMANDS = {
    "solve": (cmd_solve, "solve the reachability PDE, export TTR maps", {
        "--at": dict(type=float, default=None, help="slice time for the TTR map")}),
    "batch": (cmd_batch, "run controllers over a mission manifest", {
        "--missions": dict(required=True),
        "--controllers": dict(default=None, help="comma-separated kinds"),
        "--workers": dict(type=int, default=1, help="mission worker processes")}),
    "stranding-study": (cmd_stranding_study, "passive-drift stranding Monte Carlo", {
        "--n": dict(type=int, default=10000), "--horizon": dict(type=float, required=True)}),
    "sample-missions": (cmd_sample_missions, "generate a mission manifest", {
        "--n": dict(type=int, required=True)}),
    "stats": (cmd_stats, "write the stats report of a batch summary", {
        "--summary": dict(required=True, help="batch_summary.json path")}),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="driftplan",
        description="Safe reachability-based navigation in strong flows",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, help="experiment config JSON")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="override output directory")
        for flag, kwargs in flags.items():
            sp.add_argument(flag, **kwargs)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = load_experiment(args.config, seed_override=args.seed, out_override=args.out)
        return _COMMANDS[args.command][0](exp, args)
    except (ConfigError, ParameterError) as exc:
        # a parameter outside its documented range is bad input, from a flag too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DriftplanError, OSError) as exc:
        # a run that cannot write its outputs fails at run time
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
