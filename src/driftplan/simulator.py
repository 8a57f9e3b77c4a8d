"""Closed-loop mission execution with two-timescale replanning.

The controller replans on each forecast release; at every simulation step
the policy is queried at the true vehicle state and the true flow
integrates the dynamics. Outcomes are checked in a fixed order:
Stranded, Success, LeftRegion, Timeout.
"""

from __future__ import annotations

import csv
import enum
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import Controller, ControllerKind, build_controller
from .errors import DriftplanError, ExtentError, ParameterError
from .flowfield import FlowSource
from .forecast import ErrorModelConfig, ForecastSeries, gen_forecast_series, perfect_series
from .hjsolver import SolverConfig, TargetSpec
from .terrain import ObstacleMask


class Outcome(enum.Enum):
    SUCCESS = "success"
    STRANDED = "stranded"
    TIMEOUT = "timeout"
    LEFT_REGION = "left_region"
    ABORTED = "aborted"


@dataclass(frozen=True)
class Mission:
    """Start state/time, circular target, deadline duration."""

    x0: float
    y0: float
    t0: float
    target: TargetSpec
    t_max: float

    def __post_init__(self):
        if self.t_max <= 0:
            raise ParameterError("mission deadline must be positive")


@dataclass(frozen=True)
class SimConfig:
    """Stepping and termination settings for closed-loop runs."""

    step_dt: float = 600.0
    region: tuple[float, float, float, float] | None = None  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        if self.step_dt <= 0:
            raise ParameterError("step_dt must be positive")


@dataclass
class SimulationRecord:
    """Sampled trajectory with per-step diagnostics and terminal outcome."""

    mission: Mission
    times: list = field(default_factory=list)
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)
    us: list = field(default_factory=list)  # (ux, uy) m/s
    branches: list = field(default_factory=list)
    ttrs: list = field(default_factory=list)  # D* at state, nan if undefined
    outcome: Outcome = Outcome.TIMEOUT
    outcome_time: float = 0.0
    note: str = ""

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_s", "x_m", "y_m", "ux_ms", "uy_ms", "branch", "ttr_s"])
            for t, x, y, u, b, d in zip(
                self.times, self.xs, self.ys, self.us, self.branches, self.ttrs
            ):
                w.writerow([t, x, y, u[0], u[1], b, "" if math.isnan(d) else d])


def _rk4(deriv, px, py, t, dt):
    """Classical RK4 step from (px, py) at t; works on floats and arrays."""
    k1 = deriv(px, py, t)
    k2 = deriv(px + 0.5 * dt * k1[0], py + 0.5 * dt * k1[1], t + 0.5 * dt)
    k3 = deriv(px + 0.5 * dt * k2[0], py + 0.5 * dt * k2[1], t + 0.5 * dt)
    k4 = deriv(px + dt * k3[0], py + dt * k3[1], t + dt)
    return (
        px + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        py + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
    )


def integrate_step(x, u_vec, truth: FlowSource, t: float, dt: float):
    """One RK4 step of dx/dt = v(x, t) + u with u held constant."""
    ux, uy = u_vec
    px, py = x

    def deriv(qx, qy, tau):
        vx, vy = truth.sample(qx, qy, tau, clamp_time=True)
        return vx + ux, vy + uy

    return _rk4(deriv, px, py, t, dt)


def _in_region(x, y, region):
    """Region membership; elementwise for arrays."""
    if region is None:
        return True
    xmin, xmax, ymin, ymax = region
    return (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)


def _state_ttr(ctrl: Controller, x, y, t) -> float:
    vf = ctrl.vf
    if vf is None:
        return float("nan")
    t = min(max(t, vf.t_start), vf.terminal_time)
    val = vf.value_at(x, y, t)
    if val > 0 or val >= vf.sentinel_threshold:
        return float("nan")
    return max(vf.terminal_time + val - t, 0.0)


def run_mission(
    mission: Mission,
    truth: FlowSource,
    obstacles: ObstacleMask,
    ctrl: Controller,
    series: ForecastSeries,
    cfg: SimConfig,
) -> SimulationRecord:
    """Execute one mission closed-loop; never raises on solver failure,
    the record carries an ABORTED outcome instead. A step that samples the
    truth outside its extent ends the mission as LEFT_REGION. Ending a step
    on ``obstacles`` strands the vehicle, whatever its controller plans on."""
    rec = SimulationRecord(mission=mission)
    x, y, t = mission.x0, mission.y0, mission.t0
    deadline = mission.t0 + mission.t_max

    def do_replan(now: float) -> bool:
        fc = series.current(now)
        t_end = min(fc.t_max, deadline)
        if t_end <= now:
            t_end = deadline
        try:
            ctrl.replan(fc, now, t_end)
            return True
        except DriftplanError as exc:
            rec.outcome = Outcome.ABORTED
            rec.outcome_time = now
            rec.note = f"replan failed: {exc}"
            return False

    if mission.target.contains(x, y):
        rec.outcome = Outcome.SUCCESS
        rec.outcome_time = t
        return rec

    if not do_replan(t):
        return rec
    future_releases = [rt for rt in series.release_times if rt > mission.t0]

    while True:
        while future_releases and future_releases[0] <= t:
            rt = future_releases.pop(0)
            if not do_replan(rt):
                return rec
        u = ctrl.control(x, y, t)
        rec.times.append(t)
        rec.xs.append(x)
        rec.ys.append(y)
        rec.us.append(u.vector)
        rec.branches.append(ctrl.last_branch)
        rec.ttrs.append(_state_ttr(ctrl, x, y, t))
        try:
            x, y = integrate_step((x, y), u.vector, truth, t, cfg.step_dt)
        except ExtentError as exc:
            # an integration stage left the truth's extent
            rec.outcome = Outcome.LEFT_REGION
            rec.outcome_time = t + cfg.step_dt
            rec.note = str(exc)
            return rec
        t += cfg.step_dt
        if obstacles.contains(x, y):
            rec.outcome = Outcome.STRANDED
            rec.outcome_time = t
            return rec
        if mission.target.contains(x, y):
            rec.outcome = Outcome.SUCCESS
            rec.outcome_time = t
            return rec
        if not _in_region(x, y, cfg.region):
            rec.outcome = Outcome.LEFT_REGION
            rec.outcome_time = t
            return rec
        if t >= deadline - 1e-9:
            rec.outcome = Outcome.TIMEOUT
            rec.outcome_time = deadline
            return rec


@dataclass(frozen=True)
class BatchSpec:
    """Everything needed to run one controller over a mission set."""

    kind: ControllerKind
    solver_config: SolverConfig
    obstacles: ObstacleMask
    dmap: object = None
    switch_threshold: float = 20_000.0
    small_disturbance: float = 0.05
    error_model: ErrorModelConfig | None = None  # None = perfect forecasts
    cadence: float = 86400.0
    horizon: float = 5 * 86400.0


def _mission_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def _run_one(args):
    (index, mission, truth, spec, cfg, master_seed) = args
    ctrl = build_controller(
        spec.kind,
        u_max=spec.solver_config.u_max,
        solver_config=spec.solver_config,
        target=mission.target,
        obstacles=spec.obstacles,
        dmap=spec.dmap,
        switch_threshold=spec.switch_threshold,
        small_disturbance=spec.small_disturbance,
    )
    t1 = mission.t0 + mission.t_max
    if spec.error_model is None:
        series = perfect_series(truth, mission.t0, t1, spec.cadence, spec.horizon)
    else:
        em = replace(spec.error_model, seed=_mission_seed(master_seed, index))
        series = gen_forecast_series(
            truth, em, spec.cadence, spec.horizon, (mission.t0, t1)
        )
    return index, run_mission(mission, truth, spec.obstacles, ctrl, series, cfg)


def run_batch(
    missions,
    truth: FlowSource,
    spec: BatchSpec,
    cfg: SimConfig,
    master_seed: int = 0,
    workers: int = 1,
) -> list[SimulationRecord]:
    """Independent mission executions; deterministic in mission order and
    independent of the worker count."""
    jobs = [
        (i, m, truth, spec, cfg, master_seed) for i, m in enumerate(missions)
    ]
    if workers <= 1:
        results = [_run_one(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    results.sort(key=lambda r: r[0])
    return [rec for _, rec in results]


class DriftEnd(enum.IntEnum):
    """How a passive particle's drift ended."""

    SURVIVED = 0
    STRANDED = 1
    LEFT_REGION = 2


def drift_particles(truth: FlowSource, obstacles: ObstacleMask, region, x, y, t,
                    horizon: float, step_dt: float = 600.0):
    """Drift passive particles from (x, y) at times t for ``horizon`` seconds.

    All live particles advance together, one RK4 step of ``integrate_step``'s
    arithmetic per time step. Each particle takes the exits of the scalar
    loop in the same order: an RK4 stage outside the truth's extent (left
    region, at the step's start), an obstacle at the new position
    (stranded), a position outside ``region`` (left region); otherwise it
    drifts on until its own t + horizon. Returns end x, y and a DriftEnd
    status per particle.
    """
    x = np.array(x, dtype=float)
    y = np.array(y, dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape)
    t_end = t + horizon
    status = np.full(x.shape, DriftEnd.SURVIVED, dtype=np.int8)
    live = np.flatnonzero(t < t_end - 1e-9)
    px, py, pt, pend = x[live], y[live], t[live], t_end[live]
    off = None

    def deriv(qx, qy, tau):
        try:
            vx, vy = truth.sample_many(qx, qy, tau, clamp_time=True)
        except ExtentError:
            # the particles whose stage left the extent end this step; the
            # others are sampled as before, at points moved inside for them
            ok = truth.inside(qx, qy)
            off[~ok] = True
            qx = np.where(ok, qx, np.clip(qx, truth.x_min, truth.x_max))
            qy = np.where(ok, qy, np.clip(qy, truth.y_min, truth.y_max))
            vx, vy = truth.sample_many(qx, qy, tau, clamp_time=True)
        return vx + 0.0, vy + 0.0  # zero control, as integrate_step adds it

    while live.size:
        off = np.zeros(live.size, dtype=bool)
        qx, qy = _rk4(deriv, px, py, pt, step_dt)
        px = np.where(off, px, qx)
        py = np.where(off, py, qy)
        pt = pt + step_dt
        stranded = ~off & obstacles.contains_many(px, py)
        left = off | (~stranded & ~_in_region(px, py, region))
        done = stranded | left | ~(pt < pend - 1e-9)
        if done.any():
            x[live[done]] = px[done]
            y[live[done]] = py[done]
            status[live[stranded]] = DriftEnd.STRANDED
            status[live[left]] = DriftEnd.LEFT_REGION
            keep = ~done
            live, px, py, pt, pend = live[keep], px[keep], py[keep], pt[keep], pend[keep]
    return x, y, status


def stranding_study(
    region: tuple[float, float, float, float],
    truth: FlowSource,
    obstacles: ObstacleMask,
    n: int,
    horizon: float,
    seed: int = 0,
    t_range: tuple[float, float] = (0.0, 0.0),
    step_dt: float = 600.0,
):
    """Monte-Carlo drift study: n passive trajectories from uniform starts.

    Starts are drawn one particle at a time (x, y until off obstacles, then
    t), and all particles then drift together through ``drift_particles``.
    Returns counts, rates, and a per-cell heatmap of stranding end
    locations on the obstacle-mask grid.
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = region
    xs, ys, ts = np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        while True:
            x = rng.uniform(xmin, xmax)
            y = rng.uniform(ymin, ymax)
            if not obstacles.contains(x, y):
                break
        xs[k], ys[k] = x, y
        ts[k] = rng.uniform(*t_range) if t_range[1] > t_range[0] else t_range[0]
    x, y, status = drift_particles(truth, obstacles, region, xs, ys, ts, horizon, step_dt)
    stranded = status == DriftEnd.STRANDED
    # a cell counts at most n strandings: int32 holds any n that fits in memory
    heat = np.zeros((obstacles.grid.ny, obstacles.grid.nx), dtype=np.int32)
    np.add.at(heat, obstacles.grid.nearest_cells(x[stranded], y[stranded]), 1)
    n_stranded = int(stranded.sum())
    n_left = int((status == DriftEnd.LEFT_REGION).sum())
    return {
        "n": n,
        "n_stranded": n_stranded,
        "n_left_region": n_left,
        "n_survived": n - n_stranded - n_left,
        "stranded_rate": n_stranded / n,
        "left_region_rate": n_left / n,
        "heatmap": heat,
    }


def tally_outcomes(records) -> dict:
    counts = {o: 0 for o in Outcome}
    for r in records:
        counts[r.outcome] += 1
    return {
        "n_total": len(records),
        "n_success": counts[Outcome.SUCCESS],
        "n_stranded": counts[Outcome.STRANDED],
        "n_timeout": counts[Outcome.TIMEOUT],
        "n_left_region": counts[Outcome.LEFT_REGION],
        "n_aborted": counts[Outcome.ABORTED],
    }
