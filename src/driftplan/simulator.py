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
import numbers
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .controllers import SWITCH_THRESHOLD, Controller, ControllerKind
from .errors import DriftplanError, ExtentError, ParameterError
from .flowfield import FlowSource
from .forecast import ErrorModelConfig, ForecastSeries, check_release_timing, gen_forecast_series
from .gridio import FLOAT_MAX, check_finite
from .hjsolver import SolverConfig, TargetSpec
from .terrain import ObstacleMask

#: default integration step, in seconds, of missions and passive drift
STEP_DT = 600.0
#: largest rejected share of random draws before a rejection sampler gives up
REJECTION_CAP = 0.999


def draw_budget(n: int) -> int:
    """The most draws a rejection sampler makes for ``n`` acceptances under ``REJECTION_CAP``."""
    return max(20, math.ceil(n / (1.0 - REJECTION_CAP)))


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
        check_finite("mission start", self.x0, self.y0, self.t0)
        check_finite("mission deadline", self.t_max, sign="positive")


@dataclass(frozen=True)
class SimConfig:
    """Stepping and termination settings for closed-loop runs."""

    step_dt: float = STEP_DT
    region: tuple[float, float, float, float] | None = None  # xmin, xmax, ymin, ymax

    def __post_init__(self):
        check_finite("step_dt", self.step_dt, sign="positive")
        if self.region is not None:
            if len(self.region) != 4:
                raise ParameterError(f"region must be xmin, xmax, ymin, ymax, not {self.region}")
            check_finite("region", *self.region)
            if not (self.region[0] < self.region[1] and self.region[2] < self.region[3]):
                raise ParameterError(f"region {self.region} must satisfy xmin < xmax, ymin < ymax")


def _floats():
    return array("d")


@dataclass
class SimulationRecord:
    """Sampled trajectory with per-step diagnostics and terminal outcome.

    The per-step numbers are ``array("d")`` columns, 8 B per value; an
    element reads back as a Python float, equal to the value appended."""

    mission: Mission
    times: array = field(default_factory=_floats)
    xs: array = field(default_factory=_floats)
    ys: array = field(default_factory=_floats)
    uxs: array = field(default_factory=_floats)  # control, m/s
    uys: array = field(default_factory=_floats)
    branches: list = field(default_factory=list)
    ttrs: array = field(default_factory=_floats)  # D* at state, nan if undefined
    outcome: Outcome = Outcome.TIMEOUT
    outcome_time: float = 0.0
    note: str = ""

    @property
    def us(self) -> list:
        """The (ux, uy) control of each step, in m/s."""
        return list(zip(self.uxs, self.uys))

    def end(self, outcome: Outcome, time: float, note: str = "") -> SimulationRecord:
        """Record how and when the mission ended; returns the record."""
        self.outcome, self.outcome_time, self.note = outcome, time, note
        return self

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_s", "x_m", "y_m", "ux_ms", "uy_ms", "branch", "ttr_s"])
            for t, x, y, ux, uy, b, d in zip(
                self.times, self.xs, self.ys, self.uxs, self.uys, self.branches, self.ttrs
            ):
                w.writerow([t, x, y, ux, uy, b, "" if math.isnan(d) else d])


def _rk4(deriv, p, t, dt):
    """Classical RK4 step of the packed position ``p``, x then y on the first
    axis, (2,) or (2, N): each stage is one array operation."""
    k1 = deriv(p, t)
    k2 = deriv(p + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = deriv(p + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = deriv(p + dt * k3, t + dt)
    return p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_step(x, u_vec, truth: FlowSource, t: float, dt: float):
    """One RK4 step of dx/dt = v(x, t) + u with u held constant; returns floats."""
    def deriv(q, tau):
        return np.add(truth.sample(q[0], q[1], tau, clamp_time=True), u_vec)

    return _rk4(deriv, np.array(x, dtype=float), t, dt).tolist()


def _in_region(x, y, region):
    """Region membership; elementwise for arrays."""
    if region is None:
        return np.True_  # ~ negates it, as it does an array's mask
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
    step that samples the truth outside its extent LEFT_REGION. A fault of
    any other type ends it ABORTED at the time of the step it came in, with
    every step recorded before it and the note ``"{Type}: {message}"``."""
    rec = SimulationRecord(mission=mission)
    x, y, t = mission.x0, mission.y0, mission.t0
    deadline = mission.t0 + mission.t_max
    # the first plan is made at the start, and one more on each later release
    replans = [t] + [rt for rt in series.release_times if rt > t]
    try:
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
            u, branch = ctrl.control(x, y, t)
            ux, uy = u.vector
            # all of a step's values come before its columns take any, so a
            # fault in ttr_at leaves no step half recorded
            ttr = math.nan if ctrl.vf is None else ctrl.vf.ttr_at(x, y, t)
            rec.times.append(t)
            rec.xs.append(x)
            rec.ys.append(y)
            rec.uxs.append(ux)
            rec.uys.append(uy)
            rec.branches.append(branch)
            rec.ttrs.append(ttr)
            try:
                x, y = integrate_step((x, y), (ux, uy), truth, t, cfg.step_dt)
            except ExtentError as exc:
                # an integration stage left the truth's extent
                return rec.end(Outcome.LEFT_REGION, t + cfg.step_dt, str(exc))
            t += cfg.step_dt
    except Exception as exc:  # not BaseException: an interrupt still ends the batch
        return rec.end(Outcome.ABORTED, t, f"{type(exc).__name__}: {exc}")


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
        t = self.switch_threshold
        # a string would fail in a switching step, and a NaN never switch
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not abs(t) <= FLOAT_MAX:
            raise ParameterError(f"switch_threshold must be a finite real number, not {t!r}")


def _mission_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def _run_one(args):
    """One mission's record. A fault of any type ends that mission alone,
    ABORTED: at its start time in building the mission, and in running it
    as ``run_mission`` ends it, with the steps before the fault."""
    (index, mission, truth, spec, cfg, master_seed) = args
    try:
        ctrl = Controller(spec.kind, solver_config=spec.solver_config, target=mission.target,
                          obstacles=spec.obstacles, dmap=spec.dmap,
                          switch_threshold=spec.switch_threshold)
        em = spec.error_model and replace(spec.error_model, seed=_mission_seed(master_seed, index))
        series = gen_forecast_series(truth, em, spec.cadence, spec.horizon,
                                     (mission.t0, mission.t0 + mission.t_max))
    except DriftplanError as exc:
        note = f"setup failed: {exc}"
    except Exception as exc:  # not BaseException: an interrupt still ends the batch
        note = f"{type(exc).__name__}: {exc}"
    else:
        return run_mission(mission, truth, spec.obstacles, ctrl, series, cfg)
    return SimulationRecord(mission).end(Outcome.ABORTED, mission.t0, note)


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
    # one contiguous chunk per worker: its pickle holds the scenario once
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs, chunksize=max(1, math.ceil(len(jobs) / workers))))


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
    check_finite("step_dt", step_dt, sign="positive")
    check_finite("drift horizon", horizon, sign="positive")
    xy = np.array((x, y), dtype=float)
    t = np.broadcast_to(np.asarray(t, dtype=float), xy.shape[1:])
    if t.size:  # a NaN start is the least and the greatest
        check_finite("drift start times", t.min(), t.max())
    t_end = t + horizon
    status = np.full(t.shape, DriftEnd.SURVIVED, dtype=np.int8)
    live = np.flatnonzero(t < t_end - 1e-9)
    p, pt, pend = xy[:, live], t[live], t_end[live]
    lo, hi = [[truth.x_min], [truth.y_min]], [[truth.x_max], [truth.y_max]]
    off = None

    def deriv(q, tau):
        try:
            v = truth.sample_many(q[0], q[1], tau, clamp_time=True)
        except ExtentError:
            # the particles whose stage left the extent, or is NaN, end this
            # step; the others are sampled as before, at points moved inside
            # for them
            ok = truth.inside(q[0], q[1])
            off[~ok] = True
            q = np.where(ok, q, np.clip(np.nan_to_num(q), lo, hi))
            v = truth.sample_many(q[0], q[1], tau, clamp_time=True)
        k = np.empty(q.shape)  # zero control, as integrate_step adds it
        np.add(v[0], 0.0, out=k[0])
        np.add(v[1], 0.0, out=k[1])
        return k

    while live.size:
        off = np.zeros(live.size, dtype=bool)
        p = np.where(off, p, _rk4(deriv, p, pt, step_dt))
        pt = pt + step_dt
        stranded = ~off & obstacles.contains_many(p[0], p[1])
        left = off | (~stranded & ~_in_region(p[0], p[1], region))
        done = stranded | left | ~(pt < pend - 1e-9)
        if done.any():
            xy[:, live[done]] = p.compress(done, axis=1)
            status[live[stranded]] = DriftEnd.STRANDED
            status[live[left]] = DriftEnd.LEFT_REGION
            keep = ~done
            live, p, pt, pend = live[keep], p.compress(keep, axis=1), pt[keep], pend[keep]
    return xy[0], xy[1], status


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

    The n start times are drawn first, uniform on ``t_range`` (two finite
    numbers, lo <= hi, or ParameterError), then (x, y) pairs in batches of n,
    keeping the first n off the obstacles: with one start time, the starts of
    a one-pair-at-a-time loop. A region that takes more than ``draw_budget(n)``
    draws raises ParameterError. All particles then drift together through
    ``drift_particles``. Returns counts, rates, and a per-cell heatmap of
    stranding end locations on the obstacle-mask grid.
    """
    if n < 1:
        raise ParameterError("need at least one sample")
    check_finite("study start times", *t_range)
    if not t_range[0] <= t_range[1]:  # an equal pair is one start time
        raise ParameterError(f"study start times must satisfy lo <= hi, not {t_range}")
    xmin, xmax, ymin, ymax = region
    rng = np.random.default_rng(seed)
    ts = rng.uniform(*t_range, size=n) if t_range[1] > t_range[0] else t_range[0]
    xy, drawn = np.empty((0, 2)), 0
    while len(xy) < n:
        if drawn >= draw_budget(n):
            raise ParameterError(f"region {region} holds no free cell to start {n} drifts from: "
                                 f"{len(xy)} of {drawn} drawn starts were free")
        draws = rng.uniform((xmin, ymin), (xmax, ymax), size=(n, 2))
        xy = np.concatenate([xy, draws[~obstacles.contains_many(*draws.T)]])
        drawn += n
    x, y, status = drift_particles(truth, obstacles, region, *xy[:n].T, ts, horizon, step_dt)
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
    """``n_total`` and an ``n_<value>`` count for each Outcome, in its order."""
    counts = Counter(r.outcome for r in records)
    return {"n_total": len(records), **{f"n_{o.value}": counts[o] for o in Outcome}}
