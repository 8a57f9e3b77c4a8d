"""Mission-set generation: distance-constrained targets with
reachability-certified starts, plus JSON-lines manifests."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleConstraintsError, ParameterError
from .flowfield import FlowSource
from .gridio import FLOAT_MAX, check_finite
from .hjsolver import SolverConfig, TargetSpec, check_mask_grid, safe_ttr, solve_mtr
from .simulator import Mission, draw_budget
from .terrain import DistanceMap, ObstacleMask


@dataclass(frozen=True)
class SamplingConstraints:
    """Acceptance rules for candidate targets and starts."""

    min_boundary_dist: float
    min_obstacle_dist: float
    max_obstacle_dist: float
    target_radius: float
    ttr_window: tuple[float, float]  # seconds, (lo, hi)
    final_time_horizon: tuple[float, float]  # window to sample t_T from

    def __post_init__(self):
        # each window is a (lo, hi) pair, kept as a tuple (JSON configs give lists)
        (lo, hi), (t_lo, t_hi) = self.ttr_window, self.final_time_horizon
        object.__setattr__(self, "ttr_window", (lo, hi))
        object.__setattr__(self, "final_time_horizon", (t_lo, t_hi))
        if not (0 <= self.min_obstacle_dist < self.max_obstacle_dist):
            raise ParameterError("need 0 <= min_obstacle_dist < max_obstacle_dist")
        check_finite("min_boundary_dist", self.min_boundary_dist, sign="non-negative")
        check_finite("ttr_window", lo, hi, sign="positive")
        check_finite("final_time_horizon", t_lo, t_hi)
        if not (lo < hi and t_lo <= t_hi):
            raise ParameterError("need ttr_window lo < hi and final_time_horizon lo <= hi")


def sample_missions(
    region: tuple[float, float, float, float],
    truth: FlowSource,
    obstacles: ObstacleMask,
    dmap: DistanceMap,
    n: int,
    constraints: SamplingConstraints,
    solver_config: SolverConfig,
    seed: int = 0,
    t_max: float | None = None,
) -> list[Mission]:
    """Rejection-sample n missions.

    Targets are drawn uniformly in the region and filtered by boundary and
    obstacle-distance constraints. Feasibility is certified with an
    obstacle-FREE solve backward from the target: starts are drawn
    uniformly among free grid cells whose time-to-reach falls inside the
    TTR window, and the start time is set so the arrival lands at the
    sampled final time.
    """
    if n < 0:
        raise ParameterError(f"cannot sample {n} missions")
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = region
    c = constraints
    lo, hi = c.ttr_window
    if t_max is None:
        t_max = hi * (10.0 / 9.0)  # default slack mirrors a 9-day TTR / 240 h cap
    g = solver_config.grid
    check_mask_grid(obstacles, g)
    missions: list[Mission] = []
    attempts = 0
    max_attempts = draw_budget(n)
    Xg, Yg = g.meshgrid()
    while len(missions) < n:
        attempts += 1
        if attempts > max_attempts:
            raise InfeasibleConstraintsError(
                f"accepted {len(missions)}/{n} after {attempts} attempts"
            )
        cx = rng.uniform(xmin, xmax)
        cy = rng.uniform(ymin, ymax)
        boundary_dist = min(cx - xmin, xmax - cx, cy - ymin, ymax - cy)
        if boundary_dist < c.min_boundary_dist:
            continue
        d_obs = dmap.value_at(cx, cy)
        if d_obs < c.min_obstacle_dist or d_obs > c.max_obstacle_dist:
            continue
        t_T = rng.uniform(*c.final_time_horizon)
        target = TargetSpec(center=(cx, cy), radius=c.target_radius)
        vf = solve_mtr(truth, None, target, solver_config, t_T - hi, t_T)
        ttr = safe_ttr(vf, t_T - hi)
        ok = (
            np.isfinite(ttr)
            & (ttr >= lo)
            & (ttr <= hi)
            & ~obstacles.mask
        )
        # keep starts inside the region bounds as well
        ok &= (Xg >= xmin) & (Xg <= xmax) & (Yg >= ymin) & (Yg <= ymax)
        idx = np.argwhere(ok)
        if len(idx) == 0:
            continue
        j, i = idx[rng.integers(len(idx))]
        start_ttr = float(ttr[j, i])
        missions.append(Mission(
            x0=float(Xg[j, i]), y0=float(Yg[j, i]),
            t0=t_T - start_ttr, target=target, t_max=t_max,
        ))
    return missions


def write_missions(missions, path) -> None:
    """One JSON object per line; round-trip exact."""
    with open(path, "w") as fh:
        for m in missions:
            fh.write(json.dumps({
                "x0_m": m.x0, "y0_m": m.y0, "t0_s": m.t0,
                "target_x_m": m.target.center[0],
                "target_y_m": m.target.center[1],
                "target_radius_m": m.target.radius,
                "t_max_s": m.t_max,
            }) + "\n")


_REQUIRED = ("x0_m", "y0_m", "t0_s", "target_x_m", "target_y_m",
             "target_radius_m", "t_max_s")


def read_missions(path) -> list[Mission]:
    missions = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParameterError(f"line {lineno}: malformed JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ParameterError(f"line {lineno}: not a JSON object")
            for key in _REQUIRED:
                if key not in doc:
                    raise ParameterError(f"line {lineno}: missing field {key!r}")
                value = doc[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ParameterError(f"line {lineno}: field {key!r} is not a number")
                # json reads NaN and Infinity, and integers beyond any float
                if not abs(value) <= FLOAT_MAX:
                    raise ParameterError(f"line {lineno}: field {key!r} is not finite")
            missions.append(Mission(
                x0=doc["x0_m"], y0=doc["y0_m"], t0=doc["t0_s"],
                target=TargetSpec(
                    center=(doc["target_x_m"], doc["target_y_m"]),
                    radius=doc["target_radius_m"],
                ),
                t_max=doc["t_max_s"],
            ))
    return missions
