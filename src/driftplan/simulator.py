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

from .controllers import SWITCH_THRESHOLD, Controller, ControllerKind, build_controller
from .errors import DriftplanError, ExtentError, ParameterError
from .flowfield import FlowSource
from .forecast import ErrorModelConfig, ForecastSeries, check_release_timing, gen_forecast_series
from .hjsolver import SolverConfig, TargetSpec
from .terrain import ObstacleMask

#: default integration step, in seconds, of missions and passive drift
STEP_DT = 600.0


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

    step_dt: float = STEP_DT
    region: tuple[float, float, float, float] | None = None  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        if not 0 < self.step_dt < math.inf:  # NaN fails too
            raise ParameterError(f"step_dt must be positive and finite, not {self.step_dt}")
        if self.region is not None and not (self.region[0] < self.region[1]
                                            and self.region[2] < self.region[3]):
            raise ParameterError(f"region {self.region} must satisfy xmin < xmax, ymin < ymax")


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

    def end(self, outcome: Outcome, time: float, note: str = "") -> SimulationRecord:
        """Record how and when the mission ended; returns the record."""
        self.outcome, self.outcome_time, self.note = outcome, time, note
        return self

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


def run_mission(
    mission: Mission,
    truth: FlowSource,
    obstacles: ObstacleMask,
    ctrl: Controller,
    series: ForecastSeries,
    cfg: SimConfig,
) -> SimulationRecord:
    """Execute one mission closed-loop. The start and the end of every step are
    checked in one order: on ``obstacles`` strands the vehicle, whatever its
    controller plans on, then the target, ``cfg.region`` and the deadline. A
    release that is missing or cannot be planned on ends it ABORTED, and a
    step that samples the truth outside its extent LEFT_REGION."""
    rec = SimulationRecord(mission=mission)
    x, y, t = mission.x0, mission.y0, mission.t0
    deadline = mission.t0 + mission.t_max
    # the first plan is made at the start, and one more on each later release
    replans = [t] + [rt for rt in series.release_times if rt > t]

    while True:
        if obstacles.contains(x, y):
            return rec.end(Outcome.STRANDED, t)
        if mission.target.contains(x, y):
            return rec.end(Outcome.SUCCESS, t)
        if not _in_region(x, y, cfg.region):
            return rec.end(Outcome.LEFT_REGION, t)
        if t >= deadline - 1e-9:
            return rec.end(Outcome.TIMEOUT, deadline)
        while replans and replans[0] <= t:
            now = replans.pop(0)
            try:
                fc = series.current(now)
                ctrl.replan(fc, now, min(fc.t_max, deadline))
            except DriftplanError as exc:
                return rec.end(Outcome.ABORTED, now, f"replan failed: {exc}")
        u = ctrl.control(x, y, t)
        rec.times.append(t)
        rec.xs.append(x)
        rec.ys.append(y)
        rec.us.append(u.vector)
        rec.branches.append(ctrl.last_branch)
        rec.ttrs.append(math.nan if ctrl.vf is None else ctrl.vf.ttr_at(x, y, t))
        try:
            x, y = integrate_step((x, y), u.vector, truth, t, cfg.step_dt)
        except ExtentError as exc:
            # an integration stage left the truth's extent
            return rec.end(Outcome.LEFT_REGION, t + cfg.step_dt, str(exc))
        t += cfg.step_dt


@dataclass(frozen=True)
class BatchSpec:
    """Everything needed to run one controller over a mission set."""

    kind: ControllerKind
    solver_config: SolverConfig
    obstacles: ObstacleMask
    dmap: object = None
    switch_threshold: float = SWITCH_THRESHOLD
    error_model: ErrorModelConfig | None = None  # None = perfect forecasts
    cadence: float = 86400.0
    horizon: float = 5 * 86400.0

    def __post_init__(self):
        check_release_timing(self.cadence, self.horizon)


def _mission_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def _run_one(args):
    (index, mission, truth, spec, cfg, master_seed) = args
    try:
        ctrl = build_controller(spec.kind, solver_config=spec.solver_config,
                                target=mission.target, obstacles=spec.obstacles,
                                dmap=spec.dmap, switch_threshold=spec.switch_threshold)
        em = spec.error_model and replace(spec.error_model, seed=_mission_seed(master_seed, index))
        series = gen_forecast_series(truth, em, spec.cadence, spec.horizon,
                                     (mission.t0, mission.t0 + mission.t_max))
    except DriftplanError as exc:
        # a mission whose controller or forecasts cannot be built aborts alone
        return SimulationRecord(mission).end(Outcome.ABORTED, mission.t0, f"setup failed: {exc}")
    return run_mission(mission, truth, spec.obstacles, ctrl, series, cfg)


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
        return [_run_one(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


class DriftEnd(enum.IntEnum):
    """How a passive particle's drift ended."""

    SURVIVED = 0
    STRANDED = 1
    LEFT_REGION = 2


def drift_particles(truth: FlowSource, obstacles: ObstacleMask, region, x, y, t,
                    horizon: float, step_dt: float = STEP_DT):
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
            # the particles whose stage left the extent, or is NaN, end this
            # step; the others are sampled as before, at points moved inside
            # for them
            ok = truth.inside(qx, qy)
            off[~ok] = True
            qx = np.where(ok, qx, np.clip(np.nan_to_num(qx), truth.x_min, truth.x_max))
            qy = np.where(ok, qy, np.clip(np.nan_to_num(qy), truth.y_min, truth.y_max))
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
    step_dt: float = STEP_DT,
):
    """Monte-Carlo drift study: n passive trajectories from uniform starts.

    Starts are drawn one particle at a time (x, y until off obstacles, then
    t), and all particles then drift together through ``drift_particles``.
    A region whose draws round to obstacle cells alone, save on its edges,
    raises ParameterError. Returns counts, rates, and a per-cell heatmap of
    stranding end locations on the obstacle-mask grid.
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    if not horizon > 0:
        raise ParameterError(f"drift horizon must be positive, not {horizon}")
    xmin, xmax, ymin, ymax = region
    g = obstacles.grid

    def cells(lo, hi, origin, step, count):
        # the nodes that the draws in [lo, hi) round to, as nearest_cell does
        a, b = sorted(((lo - origin) / step, (hi - origin) / step))
        first, last = (round(a),) * 2 if a == b else (math.floor(a + 0.5), math.ceil(b - 0.5))
        return slice(min(max(first, 0), count - 1), min(max(last, 0), count - 1) + 1)

    rows, cols = cells(ymin, ymax, g.y0, g.dy, g.ny), cells(xmin, xmax, g.x0, g.dx, g.nx)
    if obstacles.mask[rows, cols].all():
        raise ParameterError(f"region {region} holds no free cell to start a drift from")
    rng = np.random.default_rng(seed)
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
