"""The three benchmark workloads: scenario set-up, one task, and output checks.

Every call into driftplan goes through a module attribute (``simulator.run_batch``,
``terrain.distance_map``, ...) so that the traced run can wrap it.
"""

from __future__ import annotations

import collections
import hashlib
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from driftplan import controllers, flowfield, forecast, hjsolver, missions, simulator, stats, terrain

#: benchmark outputs inside the checkout: spans, and the drift set-up's flow file
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench_out")

U_MAX = 0.1
STEP_DT = 600.0
CADENCE = 20_000.0
HORIZON = 50_000.0
DRIFT_HORIZON = 5 * 86_400.0
#: particles per stranding_study call on gyre_drift
DRIFT_BATCH = 16
#: gyre parameters shared by gyre_forecast and gyre_drift (peak speed ~0.5 m/s)
GYRE = dict(amplitude=0.16, omega=2 * math.pi / 86_400.0, epsilon=0.25, scale=20_000.0)
GYRE_REGION = (0.0, 40_000.0, 0.0, 20_000.0)


def sub_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for item ``index`` of a run seeded by ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _spatial(g) -> terrain.SpatialGrid:
    return terrain.SpatialGrid(g.x0, g.y0, g.dx, g.dy, g.nx, g.ny)


def _gyre_obstacles(g) -> terrain.ObstacleMask:
    """Island of radius 3 km at (30 km, 10 km) and a coastal wall at x >= 38.5 km."""
    X, Y = g.meshgrid()
    mask = (np.hypot(X - 30_000.0, Y - 10_000.0) <= 3_000.0) | (X >= 38_500.0)
    return terrain.ObstacleMask(_spatial(g), mask)


@dataclass
class TaskResult:
    """One task: a mission run by every controller, or one drift study."""

    index: int
    latency_s: float  # the task's timed operation (mtr mission, or the study)
    elapsed_s: float  # wall time of the whole task
    trajectories: int  # missions or particles completed
    attempted: int
    failed: int
    model_days: float = 0.0  # model time the timed operation computed, in days
    outputs: dict = field(default_factory=dict)  # controller -> record, or "study" -> dict
    errors: list = field(default_factory=list)


# ------------------------------------------------------------ mission workloads

@dataclass
class MissionScenario:
    truth: flowfield.FlowSource
    obstacles: terrain.ObstacleMask
    specs: dict  # controller name -> BatchSpec
    sim: simulator.SimConfig
    pool: list
    seed: int
    accepted: int = 0  # missions accepted by sample_missions, 0 if not used


def setup_island(seed: int) -> MissionScenario:
    """Criterion-5 scenario: uniform truth, 4 x 0.8 km island, 51^2 grid at 200 m."""
    g = flowfield.SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                                t0=0.0, dt_snap=3000.0, nt=31)
    truth = flowfield.make_uniform(0.05, -0.08)
    X, Y = g.meshgrid()
    island = (X >= 3000.0) & (X <= 7000.0) & (Y >= 4600.0) & (Y <= 5400.0)
    om = terrain.ObstacleMask(grid=_spatial(g), mask=island)
    dmap = terrain.distance_map(om)
    cfg = hjsolver.SolverConfig(grid=g, u_max=U_MAX)
    em = forecast.ErrorModelConfig(target_rmse=0.2, spatial_correlation_length=2500.0,
                                   temporal_correlation=40_000.0, n_modes=24)
    # the criterion-5 mission generator, seeded by the benchmark seed
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(500):
        xs = rng.uniform(1500.0, 8500.0)
        ys = rng.uniform(6500.0, 8500.0)
        xt = float(np.clip(xs + rng.uniform(-2500.0, 2500.0), 1500.0, 8500.0))
        yt = rng.uniform(1500.0, 3000.0)
        pool.append(simulator.Mission(x0=float(xs), y0=float(ys), t0=0.0,
                                      target=hjsolver.TargetSpec((xt, yt), 300.0),
                                      t_max=60_000.0))
    specs = {
        kind: simulator.BatchSpec(kind=controllers.ControllerKind(kind), solver_config=cfg,
                                  obstacles=om, dmap=dmap, error_model=em,
                                  cadence=CADENCE, horizon=HORIZON)
        for kind in ("mtr", "mtr_no_obs", "floating")
    }
    sim = simulator.SimConfig(step_dt=STEP_DT, region=(0.0, 10_000.0, 0.0, 10_000.0))
    return MissionScenario(truth, om, specs, sim, pool, seed)


#: missions sampled per gyre_forecast set-up; the run cycles through them
GYRE_POOL = 12


def setup_gyre_forecast(seed: int) -> MissionScenario:
    """Unsteady double gyre on an 81 x 41 grid at 500 m with island and wall."""
    g = flowfield.SpaceTimeGrid(x0=0, y0=0, dx=500.0, dy=500.0, nx=81, ny=41,
                                t0=0.0, dt_snap=3000.0, nt=31)
    truth = flowfield.make_double_gyre(**GYRE)
    om = _gyre_obstacles(g)
    dmap = terrain.distance_map(om)
    cfg = hjsolver.SolverConfig(grid=g, u_max=U_MAX)
    cons = missions.SamplingConstraints(
        min_boundary_dist=2000.0, min_obstacle_dist=1000.0, max_obstacle_dist=15_000.0,
        target_radius=500.0, ttr_window=(20_000.0, 40_000.0),
        final_time_horizon=(40_000.0, 40_000.0 + 86_400.0),
    )
    pool = missions.sample_missions(GYRE_REGION, truth, om, dmap, GYRE_POOL, cons, cfg,
                                    seed=seed, t_max=50_000.0)
    em = forecast.ErrorModelConfig(target_rmse=0.2, spatial_correlation_length=5000.0,
                                   temporal_correlation=40_000.0, n_modes=24)
    specs = {
        kind: simulator.BatchSpec(kind=controllers.ControllerKind(kind), solver_config=cfg,
                                  obstacles=om, dmap=dmap, error_model=em,
                                  cadence=CADENCE, horizon=HORIZON)
        for kind in ("mtr", "floating")
    }
    sim = simulator.SimConfig(step_dt=STEP_DT, region=GYRE_REGION)
    return MissionScenario(truth, om, specs, sim, pool, seed, accepted=len(pool))


def run_mission_task(scen: MissionScenario, index: int, clock) -> TaskResult:
    """Mission ``index`` (cycling through the pool) under every controller.

    Each controller gets a one-mission ``run_batch`` with the same master seed,
    so all controllers face the same forecast errors. A raised exception is
    recorded as a failed mission, never swallowed silently.
    """
    mission = scen.pool[index % len(scen.pool)]
    master = sub_seed(scen.seed, index)
    res = TaskResult(index=index, latency_s=math.nan, elapsed_s=0.0,
                     trajectories=0, attempted=0, failed=0)
    for kind, spec in scen.specs.items():
        res.attempted += 1
        t0 = clock()
        try:
            rec = simulator.run_batch([mission], scen.truth, spec, scen.sim,
                                      master_seed=master, workers=1)[0]
        except Exception as exc:  # counted and reported by the caller
            rec = None
            res.errors.append(f"{kind} mission {index}: {type(exc).__name__}: {exc}")
        dt = clock() - t0
        res.elapsed_s += dt
        if kind == "mtr":
            res.latency_s = dt
            if rec is not None:
                res.model_days = planned_days(rec)
        if rec is None or rec.outcome is simulator.Outcome.ABORTED:
            res.failed += 1
            if rec is not None:
                res.errors.append(f"{kind} mission {index}: aborted: {rec.note}")
        else:
            res.trajectories += 1
        res.outputs[kind] = rec
    return res


def planned_days(rec) -> float:
    """Days of forecast horizon that a mission's replans solve over.

    simulator.run_mission replans at the start and at each later forecast
    release up to its last step; each solve runs from the release to the
    earlier of release + HORIZON and the deadline. Releases come every
    CADENCE from the start. The schedule is read from the record's step
    times, so it counts what the mission needed, not how the solver did it.
    """
    m = rec.mission
    deadline = m.t0 + m.t_max
    last = rec.times[-1] if rec.times else m.t0
    total, release = 0.0, m.t0
    while release <= last:
        total += min(release + HORIZON, deadline) - release
        release += CADENCE
    return total / 86_400.0


def check_outcome_time(rec, step_dt: float) -> str | None:
    """The outcome time that simulator.run_mission's fixed step implies.

    Every step starts before the deadline. After each step the outcomes are
    checked in the order stranded, success, left region, timeout, so an event
    on the last step is reported at that step's end, which may be up to one
    step past the deadline; a timeout is reported at the deadline itself.
    """
    m = rec.mission
    deadline = m.t0 + m.t_max
    if rec.outcome is simulator.Outcome.ABORTED:
        ok = m.t0 <= rec.outcome_time <= deadline
    elif not rec.times:
        ok = rec.outcome is simulator.Outcome.SUCCESS and rec.outcome_time == m.t0
    else:
        end = rec.times[-1] + step_dt
        ok = rec.times[0] == m.t0 and rec.times[-1] < deadline - 1e-9 and (
            rec.outcome_time == deadline and end >= deadline - 1e-9
            if rec.outcome is simulator.Outcome.TIMEOUT else rec.outcome_time == end)
    if ok:
        return None
    return (f"{rec.outcome.value} at {rec.outcome_time!r} after {len(rec.times)} steps "
            f"of a mission from {m.t0!r} to {deadline!r}")


def check_missions(scen: MissionScenario, results) -> list[str]:
    """Outcome counts sum to N per controller; records are well formed."""
    problems = []
    n = len(results)
    late = 0
    for kind in scen.specs:
        recs = [r.outputs[kind] for r in results if r.outputs.get(kind) is not None]
        tally = simulator.tally_outcomes(recs)
        parts = sum(v for k, v in tally.items() if k != "n_total")
        n_raised = sum(1 for r in results if r.outputs.get(kind) is None)
        if parts != tally["n_total"] or tally["n_total"] + n_raised != n:
            problems.append(f"{kind}: outcome counts {tally} do not sum to N={n}")
        for rec in recs:
            m = rec.mission
            k = len(rec.times)
            if not (len(rec.xs) == len(rec.ys) == len(rec.us) == len(rec.branches)
                    == len(rec.ttrs) == k):
                problems.append(f"{kind}: record lists of unequal length")
            bad_time = check_outcome_time(rec, scen.sim.step_dt)
            if bad_time:
                problems.append(f"{kind}: outcome time inconsistent with the steps: {bad_time}")
            late += rec.outcome_time > m.t0 + m.t_max
            speeds = [math.hypot(*u) for u in rec.us]
            want = {0.0} if kind == "floating" else {0.0, U_MAX}
            if any(min(abs(s - w) for w in want) > 1e-12 for s in speeds):
                problems.append(f"{kind}: control magnitude not in {sorted(want)}")
    # reported, not failed: the fixed step lets the last step end past t_max
    print(f"check: {late} outcomes reported past their mission's deadline, "
          f"on a last step that ends after it")
    return problems


def check_island(scen: MissionScenario, results) -> list[str]:
    """The mission checks, plus the criterion-5 calibration of the forecast error."""
    problems = check_missions(scen, results)
    rmse = forecast_rmse(scen)
    print(f"check: realised forecast RMSE {rmse:.4f} m/s (want 0.2 +- 0.02)")
    if abs(rmse - 0.2) > 0.02:
        problems.append(f"forecast RMSE {rmse:.4f} outside 0.2 +- 0.02")
    return problems


def forecast_rmse(scen: MissionScenario) -> float:
    """Realised vector RMSE of the scenario's error model, measured as criterion 5
    does: the first release of 30 series, each at 200 random points of the domain."""
    truth = scen.truth
    model = scen.specs["mtr"].error_model
    x_hi = scen.obstacles.grid.x_max
    y_hi = scen.obstacles.grid.y_max
    rng = np.random.default_rng(scen.seed)
    tru, fcv = [], []
    for s in range(30):
        em = replace(model, seed=sub_seed(scen.seed, s))
        fc = forecast.gen_forecast_series(truth, em, CADENCE, HORIZON, (0.0, 60_000.0)).releases[0][1]
        xs = rng.uniform(0, x_hi, 200)
        ys = rng.uniform(0, y_hi, 200)
        tru.append(np.stack(truth.sample_many(xs, ys, 0.0), -1))
        fcv.append(np.stack(fc.sample_many(xs, ys, 0.0), -1))
    return stats.vector_rmse(np.concatenate(tru), np.concatenate(fcv))


def branch_counts(results) -> collections.Counter:
    """Closed-loop steps per controller branch, counted from the mission records."""
    return collections.Counter(
        b for r in results for rec in r.outputs.values()
        if isinstance(rec, simulator.SimulationRecord) for b in rec.branches)


def digest_missions(results) -> str:
    """sha256 over each mission's per-controller outcome and end state."""
    h = hashlib.sha256()
    for r in results:
        for kind in sorted(r.outputs):
            rec = r.outputs[kind]
            if rec is None:
                h.update(f"{r.index} {kind} raised\n".encode())
                continue
            end = (rec.xs[-1], rec.ys[-1]) if rec.xs else (rec.mission.x0, rec.mission.y0)
            h.update(f"{r.index} {kind} {rec.outcome.value} {rec.outcome_time!r} "
                     f"{end[0]!r} {end[1]!r} {len(rec.times)}\n".encode())
    return h.hexdigest()


# ----------------------------------------------------------------- drift workload

@dataclass
class DriftScenario:
    flow: flowfield.GriddedFlow
    obstacles: terrain.ObstacleMask
    seed: int


def setup_gyre_drift(seed: int) -> DriftScenario:
    """The gyre sampled hourly for 5 d onto 201 x 101 at 200 m, written as an
    OFG1 file and read back (about 20 MB)."""
    g = flowfield.SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=201, ny=101,
                                t0=0.0, dt_snap=3600.0,
                                nt=int(round(DRIFT_HORIZON / 3600.0)) + 1)
    truth = flowfield.make_double_gyre(**GYRE)
    X, Y = g.meshgrid()
    u = np.empty((g.nt, g.ny, g.nx))
    v = np.empty_like(u)
    for k, t in enumerate(g.ts):
        u[k], v[k] = truth.sample_many(X, Y, t)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"gyre_drift-{os.getpid()}.ofg")
    flowfield.write_flow_file(flowfield.GriddedFlow(g, u, v), path)
    del u, v
    try:
        flow = flowfield.read_flow_file(path)
    finally:
        os.remove(path)
    om = _gyre_obstacles(g)
    # unused by the study, but the CLI builds it with every terrain, so a
    # stranding study's set-up pays for it too
    terrain.distance_map(om)
    return DriftScenario(flow, om, seed)


def run_drift_task(scen: DriftScenario, index: int, clock) -> TaskResult:
    """One stranding study of DRIFT_BATCH passive particles over 5 d."""
    res = TaskResult(index=index, latency_s=math.nan, elapsed_s=0.0,
                     trajectories=0, attempted=1, failed=0)
    t0 = clock()
    try:
        out = simulator.stranding_study(GYRE_REGION, scen.flow, scen.obstacles, DRIFT_BATCH,
                                        DRIFT_HORIZON, seed=sub_seed(scen.seed, index),
                                        step_dt=STEP_DT)
    except Exception as exc:  # counted and reported by the caller
        out = None
        res.failed = 1
        res.errors.append(f"study {index}: {type(exc).__name__}: {exc}")
    res.latency_s = res.elapsed_s = clock() - t0
    if out is not None:
        res.trajectories = out["n"]
        # particle-days asked for; a particle that strands early stops early
        res.model_days = out["n"] * DRIFT_HORIZON / 86_400.0
    res.outputs["study"] = out
    return res


def check_drift(scen: DriftScenario, results) -> list[str]:
    """Stranding counts sum to n; the heatmap counts strandings on obstacle cells only."""
    problems = []
    for r in results:
        out = r.outputs["study"]
        if out is None:
            continue
        if out["n_stranded"] + out["n_left_region"] + out["n_survived"] != out["n"]:
            problems.append(f"study {r.index}: counts do not sum to n={out['n']}")
        heat = out["heatmap"]
        if int(heat.sum()) != out["n_stranded"] or heat[~scen.obstacles.mask].any():
            problems.append(f"study {r.index}: heatmap disagrees with the strandings")
    return problems


def digest_drift(results) -> str:
    """sha256 over each study's counts and stranding heatmap."""
    h = hashlib.sha256()
    for r in results:
        out = r.outputs["study"]
        if out is None:
            h.update(f"{r.index} raised\n".encode())
            continue
        h.update(f"{r.index} {out['n_stranded']} {out['n_left_region']} "
                 f"{out['n_survived']}\n".encode())
        h.update(np.ascontiguousarray(out["heatmap"], dtype="<i8").tobytes())
    return h.hexdigest()


# --------------------------------------------------------------- solver digests

def solve_digests() -> dict:
    """sha256 of solve_mtr values on four fixed scenarios on the 51^2 grid."""
    g = flowfield.SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                                t0=0.0, dt_snap=3000.0, nt=31)
    cfg = hjsolver.SolverConfig(grid=g, u_max=U_MAX)
    X, Y = g.meshgrid()
    wall = terrain.ObstacleMask(_spatial(g), X >= 8600.0)
    island = terrain.ObstacleMask(
        _spatial(g), (X >= 3000.0) & (X <= 7000.0) & (Y >= 4600.0) & (Y <= 5400.0))
    target = hjsolver.TargetSpec((2000.0, 2000.0), 300.0)
    uniform = flowfield.make_uniform(0.05, -0.08)
    fc = forecast.gen_forecast_series(
        uniform, forecast.ErrorModelConfig(0.2, 2500.0, 40_000.0, 24, seed=0),
        CADENCE, HORIZON, (0.0, 60_000.0)).releases[0][1]
    cases = {
        "uniform": (uniform, None, 90_000.0),
        "highway_wall": (flowfield.make_highway(4000.0, 6000.0, (0.4, 0.0)), wall, 90_000.0),
        "gyre_wall": (flowfield.make_double_gyre(0.16, GYRE["omega"], 0.25, 5000.0),
                      wall, 90_000.0),
        "island_fourier": (fc, island, HORIZON),
    }
    out = {}
    for name, (flow, obst, t_end) in cases.items():
        vf = hjsolver.solve_mtr(flow, obst, target, cfg, 0.0, t_end)
        out[name] = hashlib.sha256(np.ascontiguousarray(vf.values, dtype="<f8").tobytes()).hexdigest()
    return out


# ------------------------------------------------------------ reference kernels
#
# Fixed work that calls nothing in driftplan, timed to follow the machine's
# speed (run.py scales timed metrics by it). Each is shaped like the work of
# the workloads that use it, because the host's slow state slows work of
# different shapes by different amounts: in a probe, the Fourier error
# evaluation slowed 0.7 times as much as reference_grid_and_scalar, and
# 1.04 times as much as reference_fourier.

def reference_grid_and_scalar() -> None:
    """Small-grid numpy updates with a transcendental, and a scalar Python
    loop: the solver's stencil and the closed-loop and drift stepping."""
    a = np.linspace(0.0, 1.0, 51 * 51).reshape(51, 51)
    for _ in range(100):
        b = np.roll(a, 1, 0) - a
        a = a + 0.1 * np.maximum(b, 0.0) + 0.05 * np.cos(b)
    s = 0.0
    for i in range(20_000):
        s += (i % 7) * 0.5


def reference_fourier() -> None:
    """Cosines and sines of 24 wave phases at the 81 x 41 gyre grid's points,
    summed over the waves, at two times: the shape of the forecast error
    evaluation."""
    k = np.linspace(-1e-3, 1e-3, 24)[:, None]
    x = np.linspace(0.0, 40_000.0, 81 * 41)[None, :]
    for t in (0.0, 1.0):
        phase = k * x + t
        (0.1 * np.cos(phase) + 0.2 * np.sin(phase)).sum(axis=0)


# -------------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed) -> scenario
    task: Callable  # (scenario, index, clock) -> TaskResult
    check: Callable  # (scenario, results) -> list of problems
    digest: Callable  # (results) -> sha256 hex
    trace_tasks: int  # tasks in a traced run, and the leading tasks every run digests
    unit: str  # what a trajectory is
    reference: Callable  # the reference kernel that follows the machine's speed


WORKLOADS = {
    "island_forecast": Workload(setup_island, run_mission_task, check_island,
                                digest_missions, 8, "missions", reference_grid_and_scalar),
    "gyre_forecast": Workload(setup_gyre_forecast, run_mission_task, check_missions,
                              digest_missions, 3, "missions", reference_fourier),
    "gyre_drift": Workload(setup_gyre_drift, run_drift_task, check_drift,
                           digest_drift, 3, "particles", reference_grid_and_scalar),
}
