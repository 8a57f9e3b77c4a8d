"""Closed-loop mission execution, batches, and passive drift studies."""

import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import stranding_study_loop

from driftplan.controllers import Controller, ControllerKind
from driftplan.errors import ParameterError
from driftplan.flowfield import (
    GriddedFlow,
    HighwayFlow,
    SpaceTimeGrid,
    UniformFlow,
    make_double_gyre,
    make_highway,
    make_uniform,
)
from driftplan.forecast import ErrorModelConfig, gen_forecast_series
from driftplan.hjsolver import SolverConfig, TargetSpec
from driftplan.missions import read_missions
from driftplan.simulator import (
    BatchSpec,
    DriftEnd,
    Mission,
    Outcome,
    SimConfig,
    drift_particles,
    integrate_step,
    run_batch,
    run_mission,
    stranding_study,
    tally_outcomes,
)
from driftplan.terrain import ObstacleMask, SpatialGrid, distance_map

U_MAX = 0.1


def _grid():
    return SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                         t0=0.0, dt_snap=3000.0, nt=31)


def _wall_setup(band=(0.4, 0.0)):
    g = _grid()
    truth = make_highway(4000.0, 6000.0, band)
    X, _ = g.meshgrid()
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51),
                      mask=X >= 8600.0)
    return g, truth, om


def test_integrate_step_rk4_matches_analytic_linear_field():
    # v = (0, x): y(t) solves dy/dt = x0 + ux t; rk4 is exact for cubics
    class Shear:
        is_steady = True

        def sample(self, x, y, t, clamp_time=False):
            return 0.0, x

        def sample_many(self, xs, ys, t, clamp_time=False):
            return np.zeros_like(xs), np.asarray(xs, dtype=float)

    x0, ux, dt = 100.0, 0.1, 50.0
    x, y = integrate_step((x0, 0.0), (ux, 0.0), Shear(), 0.0, dt)
    assert x == pytest.approx(x0 + ux * dt)
    assert y == pytest.approx(x0 * dt + 0.5 * ux * dt**2, rel=1e-12)


def test_sim_config_validation():
    for step_dt in (0.0, math.inf, 10**400):
        with pytest.raises(ParameterError, match="step_dt"):
            SimConfig(step_dt=step_dt)
    for region in ((0.0, math.inf, 0.0, 1.0), (math.nan, 1.0, 0.0, 1.0)):
        with pytest.raises(ParameterError, match="region must be finite"):
            SimConfig(region=region)
    with pytest.raises(ParameterError):
        Mission(0, 0, 0, TargetSpec((0, 0), 100.0), t_max=0.0)


@pytest.mark.parametrize("field, value", [
    ("x0", math.nan), ("y0", math.inf), ("t0", -math.inf), ("x0", 10**400),
    ("t_max", math.nan), ("t_max", math.inf), ("t_max", 10**400), ("t_max", -math.inf)],
    ids=["nan-x0", "inf-y0", "minus-inf-t0", "huge-x0", "nan-t-max", "inf-t-max", "huge-t-max",
         "minus-inf-t-max"])
def test_mission_refuses_numbers_that_are_not_finite(field, value):
    # a NaN start fails the first obstacle lookup, and a NaN or
    # infinite deadline is never reached
    kw = dict(x0=1000.0, y0=5000.0, t0=0.0, target=TargetSpec((2000.0, 2000.0), 300.0),
              t_max=9000.0)
    what = "deadline must be positive and finite" if field == "t_max" else "start must be finite"
    with pytest.raises(ParameterError, match=f"mission {what}"):
        Mission(**dict(kw, **{field: value}))


@pytest.mark.parametrize("region", [(10000.0, 0.0, 0.0, 10000.0), (0.0, 10000.0, 10000.0, 0.0),
                                    (0.0, 10000.0, 5000.0, 5000.0)],
                         ids=["reversed-x", "reversed-y", "flat"])
def test_sim_config_region_must_have_area(region):
    # every position would lie outside such a region, so every run would leave it at once
    with pytest.raises(ParameterError, match="xmin < xmax, ymin < ymax"):
        SimConfig(region=region)


def _mission(x0=1000.0, y0=5000.0, t_max=90000.0):
    return Mission(x0, y0, 0.0, TargetSpec((2000.0, 2000.0), 300.0), t_max)


def _ctrl(g, om, kind=ControllerKind.MTR, target=None):
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    return Controller(kind, solver_config=cfg,
                      target=target or TargetSpec((2000.0, 2000.0), 300.0),
                      obstacles=om, dmap=distance_map(om))


def test_mission_success_and_record_shape():
    g, truth, om = _wall_setup()
    m = _mission()
    series = gen_forecast_series(truth, None, 30000.0, m.t_max, (0.0, g.t_max))
    rec = run_mission(m, truth, om, _ctrl(g, om), series, SimConfig(step_dt=600.0))
    assert rec.outcome is Outcome.SUCCESS
    assert rec.outcome_time <= m.t_max
    n = len(rec.times)
    assert len(rec.xs) == len(rec.ys) == len(rec.us) == len(rec.ttrs) == n
    # recorded remaining-time estimates decrease roughly one-for-one
    ttrs = np.array(rec.ttrs)
    fin = np.isfinite(ttrs)
    assert fin.sum() > n // 2
    assert ttrs[fin][-1] < ttrs[fin][0]


def test_mission_start_inside_target_is_immediate_success():
    g, truth, om = _wall_setup()
    m = Mission(2000.0, 2000.0, 0.0, TargetSpec((2000.0, 2000.0), 300.0), 1000.0)
    series = gen_forecast_series(truth, None, 30000.0, 1000.0, (0.0, g.t_max))
    rec = run_mission(m, truth, om, _ctrl(g, om), series, SimConfig())
    assert rec.outcome is Outcome.SUCCESS
    assert rec.outcome_time == 0.0
    assert len(rec.times) == 0


def test_record_holds_the_branch_that_control_returns():
    g, truth, om = _wall_setup()
    m = _mission(x0=8200.0, y0=1000.0)  # still water, 400 m from the wall
    series = gen_forecast_series(truth, None, 30000.0, m.t_max, (0.0, g.t_max))
    ctrl = Controller(ControllerKind.SWITCH_MTR, solver_config=SolverConfig(grid=g, u_max=U_MAX),
                      target=m.target, obstacles=om, dmap=distance_map(om),
                      switch_threshold=500.0)
    returned = []

    def control(x, y, t):
        u, branch = Controller.control(ctrl, x, y, t)
        returned.append((u.vector, branch))
        return u, branch

    ctrl.control = control
    rec = run_mission(m, truth, om, ctrl, series, SimConfig(step_dt=600.0))
    assert rec.outcome is Outcome.SUCCESS and set(rec.branches) == {"safety", "plan"}
    assert list(zip(rec.us, rec.branches)) == returned


def test_floating_in_band_strands_on_wall():
    g, truth, om = _wall_setup()
    ctrl = Controller(ControllerKind.FLOATING)
    m = _mission(x0=2000.0, y0=5000.0)  # in the 0.4 m/s band
    series = gen_forecast_series(truth, None, 30000.0, m.t_max, (0.0, g.t_max))
    rec = run_mission(m, truth, om, ctrl, series, SimConfig(step_dt=600.0))
    assert rec.outcome is Outcome.STRANDED
    # 6600 m of drift at 0.4 m/s
    assert rec.outcome_time == pytest.approx(6600.0 / 0.4, abs=1200.0)


def test_timeout_when_deadline_too_short():
    g, truth, om = _wall_setup()
    m = _mission(t_max=6000.0)  # far too short to cross the domain
    series = gen_forecast_series(truth, None, 30000.0, m.t_max, (0.0, g.t_max))
    rec = run_mission(m, truth, om, _ctrl(g, om), series, SimConfig(step_dt=600.0))
    assert rec.outcome is Outcome.TIMEOUT
    assert rec.outcome_time == m.t_max


def test_left_region_detection():
    g = _grid()
    truth = make_uniform(0.0, 0.5)  # strong northward push
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51),
                      mask=np.zeros((51, 51), dtype=bool))
    ctrl = Controller(ControllerKind.FLOATING)
    m = _mission(x0=5000.0, y0=9000.0)
    series = gen_forecast_series(truth, None, 30000.0, m.t_max, (0.0, g.t_max))
    cfg = SimConfig(step_dt=600.0, region=(0.0, 10000.0, 0.0, 10000.0))
    rec = run_mission(m, truth, om, ctrl, series, cfg)
    assert rec.outcome is Outcome.LEFT_REGION
    assert rec.outcome_time == pytest.approx(1000.0 / 0.5, abs=1200.0)


def _eastward_gridded_truth():
    """0.5 m/s eastward on a gridded [0, 10 km]^2 extent."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=100000.0, nt=2)
    return GriddedFlow(g, np.full((2, 11, 11), 0.5), np.zeros((2, 11, 11)))


def test_rk4_stage_outside_gridded_extent_is_left_region():
    truth = _eastward_gridded_truth()
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51),
                      mask=np.zeros((51, 51), dtype=bool))
    spec = BatchSpec(kind=ControllerKind.FLOATING,
                     solver_config=SolverConfig(grid=_grid(), u_max=U_MAX),
                     obstacles=om)
    missions = [_mission(x0=9800.0, y0=5000.0),
                _mission(x0=1000.0, y0=5000.0, t_max=6000.0)]
    recs = run_batch(missions, truth, spec, SimConfig(step_dt=600.0))
    # the last RK4 stage of the first step samples x = 10100 m
    assert recs[0].outcome is Outcome.LEFT_REGION
    assert recs[0].outcome_time == 600.0
    assert "x=10100.0" in recs[0].note
    # the fault stays with its mission: the next one runs normally
    assert recs[1].outcome is Outcome.TIMEOUT
    assert recs[1].xs[-1] == pytest.approx(1000.0 + 9 * 300.0)


def test_deadline_past_the_end_of_a_gridded_truth_runs_under_both_error_models():
    """A deadline past the end of a gridded truth cuts the forecast windows
    there, as a release samples its truth with time clamped: the mission runs
    with Fourier forecasts as with perfect ones, the same on two workers."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=30000.0, nt=2)
    truth = GriddedFlow(g, np.full((2, 11, 11), 0.5), np.zeros((2, 11, 11)))
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51),
                      mask=np.zeros((51, 51), dtype=bool))
    target = TargetSpec((5000.0, 5000.0), 300.0)
    missions = [Mission(1000.0, 5000.0, 0.0, target, 60000.0),
                Mission(1000.0, 5000.0, 0.0, target, 20000.0)]
    spec = BatchSpec(kind=ControllerKind.MTR,
                     solver_config=SolverConfig(grid=_grid(), u_max=U_MAX),
                     obstacles=om, dmap=distance_map(om),
                     error_model=ErrorModelConfig(target_rmse=0.05,
                                                  spatial_correlation_length=2500.0,
                                                  temporal_correlation=40000.0,
                                                  n_modes=8),
                     cadence=10000.0, horizon=30000.0)
    cfg = SimConfig(step_dt=600.0)
    for error_model in (spec.error_model, None):
        spec = replace(spec, error_model=error_model)
        recs = run_batch(missions, truth, spec, cfg, master_seed=3)
        assert [(r.outcome, r.note) for r in recs] == [(Outcome.SUCCESS, "")] * 2
        two = run_batch(missions, truth, spec, cfg, master_seed=3, workers=2)
        assert [(r.outcome, r.outcome_time, r.note, r.xs, r.ys) for r in two] == \
            [(r.outcome, r.outcome_time, r.note, r.xs, r.ys) for r in recs]


def test_mission_that_starts_after_the_truth_ends_aborts_alone():
    """With perfect forecasts, a mission that starts after the end of a
    gridded truth has no release to plan on: it aborts with that in its note,
    and the batch runs on, the same on two workers."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=30000.0, nt=2)
    truth = GriddedFlow(g, np.full((2, 11, 11), 0.1), np.zeros((2, 11, 11)))
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51),
                      mask=np.zeros((51, 51), dtype=bool))
    target = TargetSpec((5000.0, 5000.0), 300.0)
    missions = [Mission(1000.0, 5000.0, 0.0, target, 20000.0),
                Mission(1000.0, 5000.0, 40000.0, target, 20000.0)]
    spec = BatchSpec(kind=ControllerKind.FLOATING,
                     solver_config=SolverConfig(grid=_grid(), u_max=U_MAX), obstacles=om)
    cfg = SimConfig(step_dt=600.0)
    recs = run_batch(missions, truth, spec, cfg)
    assert [r.outcome for r in recs] == [Outcome.TIMEOUT, Outcome.ABORTED]
    assert (recs[1].outcome_time, recs[1].note) == (
        40000.0, "replan failed: no forecast released yet at t=40000.0")
    assert len(recs[1].times) == 0
    two = run_batch(missions, truth, spec, cfg, workers=2)
    assert [(r.outcome, r.outcome_time, r.note, r.xs, r.ys) for r in two] == \
        [(r.outcome, r.outcome_time, r.note, r.xs, r.ys) for r in recs]


def test_batch_spec_refuses_non_positive_cadence_or_horizon():
    kw = dict(kind=ControllerKind.FLOATING, solver_config=SolverConfig(grid=_grid(), u_max=U_MAX),
              obstacles=_wall_setup()[2])
    for timing in ({"cadence": 0.0}, {"cadence": -1.0}, {"horizon": -5.0}, {"horizon": 0.0}):
        with pytest.raises(ParameterError, match="cadence and horizon must be positive"):
            BatchSpec(**kw, **timing)


@pytest.mark.parametrize("threshold", ["x", None, True, math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="10**400")])
def test_batch_spec_refuses_a_switch_threshold_that_is_not_a_finite_number(threshold):
    # a string would raise TypeError in Controller.control, out of run_batch
    with pytest.raises(ParameterError, match="switch_threshold must be a finite real number"):
        BatchSpec(kind=ControllerKind.SWITCH_MTR,
                  solver_config=SolverConfig(grid=_grid(), u_max=U_MAX),
                  obstacles=_wall_setup()[2], switch_threshold=threshold)


def test_cadence_below_the_float_spacing_of_a_release_aborts_its_mission_alone():
    """From 1000 s on, a 1e-20 s cadence would never advance the release
    time, and from 0 s it would release about 9e15 times: each such mission
    aborts at set-up, promptly, and the batch runs on."""
    g, truth, om = _wall_setup()
    spec = BatchSpec(kind=ControllerKind.FLOATING, solver_config=SolverConfig(grid=g, u_max=U_MAX),
                     obstacles=om, cadence=1e-20, horizon=5000.0)
    recs = run_batch([replace(_mission(), t0=t0) for t0 in (0.0, 1000.0, 5000.0)], truth, spec,
                     SimConfig())
    assert [(r.outcome, r.outcome_time) for r in recs] == [
        (Outcome.ABORTED, 0.0), (Outcome.ABORTED, 1000.0), (Outcome.ABORTED, 5000.0)]
    assert all(r.note.startswith("setup failed: forecast cadence 1e-20 ") for r in recs)


#: stranding studies on a 5 x 5 island at cells 3-7 of an 11^2 mask at 1 km,
#: in the region given as the script's four arguments
_ISLAND_STUDY = """
import sys
import numpy as np
from driftplan.errors import ParameterError
from driftplan.flowfield import make_uniform
from driftplan.simulator import stranding_study
from driftplan.terrain import ObstacleMask, SpatialGrid
mask = np.zeros((11, 11), dtype=bool)
mask[3:8, 3:8] = True
om = ObstacleMask(SpatialGrid(0.0, 0.0, 1000.0, 1000.0, 11, 11), mask)
try:
    region = tuple(map(float, sys.argv[1:]))
    stranding_study(region, make_uniform(0.0, 0.0), om, n=5, horizon=600.0)
    print("ran")
except ParameterError as exc:
    print("refused", exc)
"""


@pytest.mark.parametrize("region, ends", [
    ((4000.0, 6000.0, 4000.0, 6000.0), "refused"),
    # edges half-way between nodes: the draws round to cells 3-7 alone
    ((2500.0, 7500.0, 2500.0, 7500.0), "refused"),
    ((5000.0, 5000.0, 5000.0, 5000.0), "refused"),
    # draws in [2.4, 2.5) km round to the free cells of column and row 2
    ((2400.0, 7500.0, 2400.0, 7500.0), "ran"),
], ids=["inside", "half-node-edges", "one-point", "free-cells-on-the-edge"])
def test_stranding_study_refuses_a_region_with_no_free_cell(run_script, region, ends):
    """Starts drawn until one is off the obstacles would never end: the study
    refuses the region once it has drawn its budget. It runs under a
    timeout, as drawing without that cap does not return."""
    proc = run_script(_ISLAND_STUDY, *map(repr, region))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == ends
    assert ("no free cell" in proc.stdout) == (ends == "refused")


def test_stranding_study_refuses_a_region_with_fewer_than_1_in_1000_draws_free(run_script):
    """Draws in [2,499, 2,500) m round to the free column 2, 1 in 5,001 of
    the region's width: the study refuses it after its budget of
    ``draw_budget(5)``, 5,000 draws, and says how many were free."""
    proc = run_script(_ISLAND_STUDY, "2499.0", "7500.0", "2500.0", "7500.0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused") and "no free cell" in proc.stdout
    free = re.search(r"(\d+) of 5000 drawn starts were free", proc.stdout)
    assert free and int(free[1]) < 5, proc.stdout


#: three particles drifted for 3,000 s on a 0.1 m/s eastward flow, in the
#: region and with the step given as the script's two arguments
_THREE_DRIFTERS = """
import ast, json, sys
import numpy as np
from driftplan.errors import ParameterError
from driftplan.flowfield import make_uniform
from driftplan.simulator import drift_particles
from driftplan.terrain import ObstacleMask, SpatialGrid
om = ObstacleMask(SpatialGrid(0.0, 0.0, 1000.0, 1000.0, 11, 11), np.zeros((11, 11), dtype=bool))
region, step_dt = ast.literal_eval(sys.argv[1]), float(sys.argv[2])
try:
    ends = drift_particles(make_uniform(0.1, 0.0), om, region, [1000.0, 2000.0, 3000.0],
                           [5000.0] * 3, 0.0, 3000.0, step_dt)
    print("ran", json.dumps([e.tolist() for e in ends]))
except ParameterError as exc:
    print("refused", exc)
"""


def test_drift_without_a_region_returns_as_inside_one(run_script):
    """No region is an all-true mask: the particles drift to their horizon and
    end where they end inside a region that holds their whole drift."""
    proc = run_script(_THREE_DRIFTERS, "None", "600.0")
    assert proc.returncode == 0, proc.stderr
    kind, ends = proc.stdout.split(maxsplit=1)
    om = ObstacleMask(SpatialGrid(0.0, 0.0, 1000.0, 1000.0, 11, 11), np.zeros((11, 11), bool))
    want = drift_particles(make_uniform(0.1, 0.0), om, (0.0, 10000.0, 0.0, 10000.0),
                           [1000.0, 2000.0, 3000.0], [5000.0] * 3, 0.0, 3000.0, 600.0)
    assert kind == "ran" and json.loads(ends) == [e.tolist() for e in want]
    assert want[2].tolist() == [DriftEnd.SURVIVED] * 3


@pytest.mark.parametrize("step_dt", ["0.0", "-600.0", "nan"])
def test_drift_refuses_a_step_that_is_not_positive_and_finite(run_script, step_dt):
    proc = run_script(_THREE_DRIFTERS, "(0.0, 10000.0, 0.0, 10000.0)", step_dt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused step_dt must be positive and finite")


def test_stranding_study_counts_extent_exit_as_left_region():
    truth = _eastward_gridded_truth()
    om = ObstacleMask(grid=SpatialGrid(0, 0, 1000.0, 1000.0, 11, 11),
                      mask=np.zeros((11, 11), dtype=bool))
    res = stranding_study((9750.0, 9950.0, 0.0, 10000.0), truth, om,
                          n=20, horizon=6000.0, seed=4)
    assert res["n_left_region"] == 20
    assert res["n_stranded"] == res["n_survived"] == 0


def test_aborted_when_replanning_fails():
    g, truth, om = _wall_setup()
    m = replace(_mission(), t0=5000.0)
    # the one release's window closed before the mission starts
    series = gen_forecast_series(truth, None, 30000.0, 1000.0, (0.0, 0.0))
    rec = run_mission(m, truth, om, _ctrl(g, om), series, SimConfig())
    assert rec.outcome is Outcome.ABORTED
    assert "replan failed" in rec.note


def test_trajectory_csv_round_trip(tmp_path):
    import csv

    g, truth, om = _wall_setup()
    m = _mission()
    series = gen_forecast_series(truth, None, 30000.0, m.t_max, (0.0, g.t_max))
    rec = run_mission(m, truth, om, _ctrl(g, om), series, SimConfig(step_dt=600.0))
    p = tmp_path / "traj.csv"
    rec.write_csv(p)
    with p.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_s", "x_m", "y_m", "ux_ms", "uy_ms", "branch", "ttr_s"]
    assert len(rows) == len(rec.times) + 1
    assert float(rows[1][1]) == pytest.approx(rec.xs[0])
    assert [tuple(map(float, r[3:5])) for r in rows[1:]] == rec.us


def test_record_holds_under_100_bytes_per_step():
    # a batch returns every mission's record, so a step is kept as 8-byte
    # doubles, not as boxed floats and (ux, uy) tuples (173 B a step here)
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51),
                      mask=np.zeros((51, 51), dtype=bool))
    truth = make_uniform(0.0, 0.0)
    m = Mission(5000.0, 5000.0, 0.0, TargetSpec((2000.0, 2000.0), 300.0), 400 * 600.0)
    ctrl = _ctrl(_grid(), om, kind=ControllerKind.FLOATING)
    series = gen_forecast_series(truth, None, 86400.0, 86400.0, (0.0, m.t_max))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = run_mission(m, truth, om, ctrl, series, SimConfig(step_dt=600.0))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec.outcome is Outcome.TIMEOUT and len(rec.times) == 400
    assert kept / len(rec.times) <= 100


def _batch_inputs():
    g, truth, om = _wall_setup()
    spec = BatchSpec(
        kind=ControllerKind.MTR,
        solver_config=SolverConfig(grid=g, u_max=U_MAX),
        obstacles=om,
        dmap=distance_map(om),
        error_model=ErrorModelConfig(target_rmse=0.05,
                                     spatial_correlation_length=2500.0,
                                     temporal_correlation=40000.0,
                                     n_modes=8, seed=0),
        cadence=30000.0,
        horizon=90000.0,
    )
    missions = [
        _mission(1000.0, 5000.0), _mission(3000.0, 8000.0),
        _mission(6000.0, 1000.0), _mission(1000.0, 8000.0),
    ]
    return missions, truth, spec, SimConfig(step_dt=600.0)


def test_batch_results_independent_of_worker_count():
    missions, truth, spec, cfg = _batch_inputs()
    a = run_batch(missions, truth, spec, cfg, master_seed=5, workers=1)
    b = run_batch(missions, truth, spec, cfg, master_seed=5, workers=2)
    assert [r.outcome for r in a] == [r.outcome for r in b]
    for ra, rb in zip(a, b):
        assert ra.xs == rb.xs and ra.ys == rb.ys
        np.testing.assert_array_equal(ra.ttrs, rb.ttrs)  # NaN-tolerant


#: the flows that this process has pickled, one entry per pickle
_PICKLED = []


@dataclass(frozen=True)
class _CountedFlow(UniformFlow):
    """A uniform flow that notes each pickle of it in ``_PICKLED``."""

    def __reduce_ex__(self, protocol):
        _PICKLED.append(self)
        return super().__reduce_ex__(protocol)


def test_a_batch_sends_its_truth_once_per_worker():
    """Missions go to the workers in one contiguous chunk each, and a chunk's
    pickle holds its truth once: 6 missions on 2 workers pickle it twice,
    and end as on one worker."""
    om = ObstacleMask(SpatialGrid(0, 0, 200.0, 200.0, 51, 51), np.zeros((51, 51), bool))
    spec = BatchSpec(kind=ControllerKind.FLOATING, obstacles=om,
                     solver_config=SolverConfig(grid=_grid(), u_max=U_MAX))
    missions = [_mission(1000.0 * k, 5000.0, t_max=6000.0) for k in range(1, 7)]
    truth, cfg = _CountedFlow(0.1, 0.0), SimConfig(step_dt=600.0)
    one = run_batch(missions, truth, spec, cfg, workers=1)
    _PICKLED.clear()
    two = run_batch(missions, truth, spec, cfg, workers=2)
    assert len(_PICKLED) == 2
    assert [_record_fields(r) for r in two] == [_record_fields(r) for r in one]


def test_batch_mission_seeds_differ_across_indices():
    missions, truth, spec, cfg = _batch_inputs()
    # two identical missions see different forecast-error draws
    same = [missions[0], missions[0]]
    recs = run_batch(same, truth, spec, cfg, master_seed=5)
    assert recs[0].xs[1:] != recs[1].xs[1:]


def test_batch_master_seed_changes_draws_but_not_determinism():
    missions, truth, spec, cfg = _batch_inputs()
    a = run_batch(missions[:1], truth, spec, cfg, master_seed=5)
    b = run_batch(missions[:1], truth, spec, cfg, master_seed=5)
    c = run_batch(missions[:1], truth, spec, cfg, master_seed=6)
    assert a[0].xs == b[0].xs
    assert a[0].xs[1:] != c[0].xs[1:]


def test_tally_outcomes_counts():
    missions, truth, spec, cfg = _batch_inputs()
    recs = run_batch(missions, truth, spec, cfg, master_seed=1)
    t = tally_outcomes(recs)
    assert list(t) == ["n_total", "n_success", "n_stranded", "n_timeout", "n_left_region",
                       "n_aborted"]
    assert t["n_total"] == len(missions)
    assert sum(v for k, v in t.items() if k != "n_total") == t["n_total"]


@dataclass(frozen=True)
class _FaultAt(HighwayFlow):
    """A highway flow whose scalar sample at the point ``at`` raises a plain
    RuntimeError, as a fault in a caller's flow might; its grid samples, the
    ones a solve takes, are those of the highway."""

    at: tuple = (math.nan, math.nan)

    def sample(self, x, y, t, clamp_time=False):
        if (x, y) == self.at:
            raise RuntimeError(f"no sample at {self.at}")
        return super().sample(x, y, t, clamp_time=clamp_time)


def _record_fields(r):
    return (r.mission, r.outcome, r.outcome_time, r.note, r.times, r.xs, r.ys, r.uxs, r.uys,
            r.branches, r.ttrs.tobytes())  # bytes: the NaN ttrs compare equal


@pytest.mark.parametrize("workers", [1, 2])
def test_a_fault_of_any_type_aborts_its_mission_alone(workers):
    """A RuntimeError at the sixth step's start point of the third mission of
    three ends that mission ABORTED at the time of the step that samples it,
    noting the fault, with the steps recorded up to it as the clean run
    records them, and the other two missions end as they do on the same
    truth without the fault."""
    g, truth, om = _wall_setup()
    spec = BatchSpec(kind=ControllerKind.MTR, solver_config=SolverConfig(grid=g, u_max=U_MAX),
                     obstacles=om, dmap=distance_map(om), cadence=30000.0, horizon=90000.0)
    missions = [_mission(1000.0, 5000.0), _mission(3000.0, 8000.0), _mission(6000.0, 1000.0)]
    cfg = SimConfig(step_dt=600.0)
    clean = run_batch(missions, truth, spec, cfg, workers=workers)
    at = (clean[2].xs[5], clean[2].ys[5])
    faulty = _FaultAt(truth.y1, truth.y2, truth.band_u, truth.band_v, at=at)
    recs = run_batch(missions, faulty, spec, cfg, workers=workers)
    assert [_record_fields(r) for r in recs[:2]] == [_record_fields(r) for r in clean[:2]]
    # in the highway's uniform band all four RK4 stages agree, so the fifth
    # step's last stage samples the flow at the sixth step's start point
    assert (recs[2].outcome, recs[2].outcome_time, recs[2].note) == (
        Outcome.ABORTED, clean[2].times[4], f"RuntimeError: no sample at {at}")
    kept = _record_fields(recs[2])[4:]
    assert kept[:-1] == tuple(col[:5] for col in _record_fields(clean[2])[4:-1])
    assert kept[-1] == clean[2].ttrs[:5].tobytes()


def test_stranding_study_band_fraction():
    _, truth, om = _wall_setup()
    res = stranding_study((0.0, 10000.0, 0.0, 10000.0), truth, om,
                          n=200, horizon=90000.0, seed=2, step_dt=1200.0)
    assert res["n"] == 200
    assert res["n_stranded"] + res["n_left_region"] + res["n_survived"] == 200
    # only the 0.4 m/s band (1/5 of the area) drifts onto the wall
    assert 0.1 < res["stranded_rate"] < 0.3
    assert res["heatmap"].sum() == res["n_stranded"]
    # all stranding cells lie on the wall (x >= 8600)
    js, is_ = np.nonzero(res["heatmap"])
    assert np.all(is_ >= 43)


def test_stranding_study_validates_n():
    _, truth, om = _wall_setup()
    with pytest.raises(ParameterError):
        stranding_study((0, 1, 0, 1), truth, om, n=0, horizon=100.0)


@pytest.mark.parametrize("horizon", [0.0, -600.0, float("nan"), float("inf")])
def test_stranding_study_validates_horizon(horizon):
    _, truth, om = _wall_setup()
    with pytest.raises(ParameterError, match="horizon"):
        stranding_study((0, 1, 0, 1), truth, om, n=5, horizon=horizon)


def test_stranding_study_deterministic_in_seed():
    _, truth, om = _wall_setup()
    kw = dict(n=50, horizon=50000.0, seed=9, step_dt=1200.0)
    a = stranding_study((0.0, 8000.0, 0.0, 10000.0), truth, om, **kw)
    b = stranding_study((0.0, 8000.0, 0.0, 10000.0), truth, om, **kw)
    assert a["n_stranded"] == b["n_stranded"]
    np.testing.assert_array_equal(a["heatmap"], b["heatmap"])


def _drift_truth(kind, rng):
    if kind == "uniform":
        return make_uniform(*rng.uniform(-0.4, 0.4, 2))
    if kind == "highway":
        return make_highway(4000.0, 6000.0, rng.uniform(-0.5, 0.5, 2))
    if kind == "gyre":
        return make_double_gyre(0.3, 2 * math.pi / 40000.0, 0.25, 5000.0)
    # time-varying field on [0, 10 km]^2 whose last snapshot is at 40 ks, so
    # late particles are sampled with their times clamped
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                      t0=0.0, dt_snap=20000.0, nt=3)
    return GriddedFlow(g, rng.uniform(-0.5, 0.5, (3, 11, 11)),
                       rng.uniform(-0.5, 0.5, (3, 11, 11)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["uniform", "highway", "gyre", "gridded"]),
       seed=st.integers(0, 2**31 - 1), n=st.integers(1, 25), one_time=st.booleans())
@example(kind="gyre", seed=896249882, n=15, one_time=False)  # 1 ulp apart when x**2 used pow
def test_stranding_study_matches_scalar_reference(kind, seed, n, one_time):
    """The batched study equals the one-particle-at-a-time loop: the same
    counts and heatmap, and bit-equal end positions per particle. With
    ``one_time`` every particle starts at one time, a zero-width range."""
    rng = np.random.default_rng(seed)
    truth = _drift_truth(kind, rng)
    om = ObstacleMask(grid=SpatialGrid(0.0, 0.0, 500.0, 500.0, 21, 21),
                      mask=rng.random((21, 21)) < 0.1)
    # the region reaches up to about 1 km past the gridded extent's edges
    lo = rng.uniform(-1000.0, 9000.0, 2)
    hi = np.minimum(lo + rng.uniform(500.0, 10000.0, 2), 11000.0)
    region = (lo[0], hi[0], lo[1], hi[1])
    t_lo = rng.uniform(0.0, 30000.0)
    t_hi = t_lo if one_time else t_lo + rng.uniform(1.0, 20000.0)
    kw = dict(n=n, horizon=rng.uniform(1000.0, 25000.0), seed=seed % 1000,
              t_range=(t_lo, t_hi),
              step_dt=float(rng.choice([600.0, 1000.5, 2400.0])))
    want, ends = stranding_study_loop(region, truth, om, **kw)
    got = stranding_study(region, truth, om, **kw)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])

    # the same draws, drifted through the helper, end where the loop ended
    draws = np.random.default_rng(kw["seed"])
    starts = []
    for t in [draws.uniform(t_lo, t_hi) if t_hi > t_lo else t_lo for _ in range(n)]:
        while True:
            x, y = draws.uniform(lo[0], hi[0]), draws.uniform(lo[1], hi[1])
            if not om.contains(x, y):
                break
        starts.append((x, y, t))
    x0, y0, t0 = np.array(starts).T
    x, y, status = drift_particles(truth, om, region, x0, y0, t0,
                                   kw["horizon"], kw["step_dt"])
    assert status.tolist() == [e[2] for e in ends]
    assert x.tobytes() == np.array([e[0] for e in ends]).tobytes()
    assert y.tobytes() == np.array([e[1] for e in ends]).tobytes()


@dataclass(frozen=True)
class _NanBeyond(UniformFlow):
    """A uniform flow whose u is NaN east of ``x_nan``."""

    x_nan: float = 0.0

    def sample_many(self, x, y, t, clamp_time=False):
        u, v = super().sample_many(x, y, t, clamp_time=clamp_time)
        return np.where(np.asarray(x) > self.x_nan, math.nan, u), v


def test_nan_stage_ends_its_particle_only():
    """A stage that takes a particle to NaN ends it as LEFT_REGION at its
    step's start, and the other particles drift on as they would alone."""
    truth = _NanBeyond(0.1, 0.0, x_nan=5000.0)
    om = ObstacleMask(grid=SpatialGrid(0.0, 0.0, 500.0, 500.0, 21, 21),
                      mask=np.zeros((21, 21), dtype=bool))
    region = (0.0, 10000.0, 0.0, 10000.0)
    x, y, status = drift_particles(truth, om, region, [1000.0, 6000.0], [500.0, 500.0],
                                   0.0, 6000.0)
    assert status.tolist() == [DriftEnd.SURVIVED, DriftEnd.LEFT_REGION]
    assert (x[1], y[1]) == (6000.0, 500.0)
    alone = drift_particles(truth, om, region, [1000.0], [500.0], 0.0, 6000.0)
    assert (x[0], y[0]) == (alone[0][0], alone[1][0])


# The mission contract: whatever finite manifest read_missions accepts,
# run_batch returns one record per mission and never raises. The truth is
# gridded on [0, 10 km]^2 x [0, 30 ks], with an island on the planning grid.
_CONTRACT_GRID = SpaceTimeGrid(x0=0.0, y0=0.0, dx=1000.0, dy=1000.0, nx=11, ny=11,
                               t0=0.0, dt_snap=3000.0, nt=2)
_CONTRACT_REGION = (500.0, 9500.0, 500.0, 9500.0)
_ISLAND = ((5000.0, 5000.0), (5500.0, 4200.0), (6000.0, 6000.0))
_EDGES = ((0.0, 0.0), (10000.0, 10000.0), (9999.0, 9800.0), (300.0, 5000.0),
          (-1.0, 5000.0), (10001.0, 5000.0), (5000.0, -3000.0), (5000.0, 13000.0))
_TRUTH_END = 30000.0


def _contract_setup():
    g = replace(_CONTRACT_GRID, dt_snap=_TRUTH_END / 2, nt=3)
    X, Y = g.meshgrid()
    # eastward, fastest mid-window, with a northward drift near the east wall
    u = np.stack([np.full((11, 11), s) for s in (0.2, 0.3, 0.2)])
    v = np.stack([0.1 * (X >= 8000.0)] * 3)
    truth = GriddedFlow(g, u, v)
    island = (X >= 5000.0) & (X <= 6000.0) & (Y >= 4000.0) & (Y <= 6000.0)
    om = ObstacleMask(SpatialGrid(0.0, 0.0, 1000.0, 1000.0, 11, 11), island)
    return truth, om, distance_map(om)


_CONTRACT = _contract_setup()
_FOURIER = ErrorModelConfig(target_rmse=0.05, spatial_correlation_length=2500.0,
                            temporal_correlation=40000.0, n_modes=4)


def _contract_batch(missions, kind, error_model, workers=1):
    truth, om, dmap = _CONTRACT
    spec = BatchSpec(kind=kind, solver_config=SolverConfig(grid=_CONTRACT_GRID, u_max=U_MAX),
                     obstacles=om, dmap=dmap, switch_threshold=1500.0,
                     error_model=error_model, cadence=10000.0, horizon=20000.0)
    cfg = SimConfig(step_dt=600.0, region=_CONTRACT_REGION)
    return run_batch(missions, truth, spec, cfg, master_seed=11, workers=workers)


def _ends(records):
    return [(r.outcome, r.outcome_time, r.note, r.xs, r.ys, r.branches) for r in records]


def _number(lo, hi):
    """A manifest number in [lo, hi], as JSON writes an integer or a float."""
    return st.one_of(st.integers(int(lo), int(hi)), st.floats(lo, hi))


_point = st.one_of(st.tuples(_number(-3000.0, 13000.0), _number(-3000.0, 13000.0)),
                   st.sampled_from(_EDGES + _ISLAND))


@st.composite
def _manifest_line(draw):
    (x0, y0), (tx, ty) = draw(_point), draw(_point)
    t0 = draw(st.one_of(st.sampled_from([0.0, 29400.0, _TRUTH_END, 30001.0, 45000.0]),
                        _number(-5000.0, 60000.0)))
    t_max = draw(st.one_of(st.sampled_from([1.0, 600.0, 40000.0]), _number(1.0, 80000.0)))
    return json.dumps({"x0_m": x0, "y0_m": y0, "t0_s": t0, "target_x_m": tx, "target_y_m": ty,
                       "target_radius_m": draw(_number(1.0, 3000.0)), "t_max_s": t_max})


@st.composite
def _contract_missions(draw, max_size=3):
    """A manifest of 1 to ``max_size`` missions, drawn as JSON lines and read
    back through ``read_missions``."""
    lines = draw(st.lists(_manifest_line(), min_size=1, max_size=max_size))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "missions.jsonl")
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        return read_missions(path)


# starts on the island, outside the region and outside the extent; starts
# before and after the truth's end, a deadline past it, and a target off the grid
_TARGET = TargetSpec((3000.0, 3000.0), 500.0)
_EDGE_MISSIONS = [Mission(5000.0, 5000.0, 0.0, _TARGET, 20000.0),
                  Mission(200.0, 5000.0, 0.0, _TARGET, 20000.0),
                  Mission(-500.0, 5000.0, 0.0, _TARGET, 20000.0),
                  Mission(2000.0, 2000.0, 35000.0, _TARGET, 20000.0),
                  Mission(2000.0, 2000.0, 25000.0, _TARGET, 60000.0),
                  Mission(2000.0, 2000.0, -5000.0, _TARGET, 20000.0),
                  Mission(2000.0, 8000.0, 0.0, TargetSpec((15000.0, -4000.0), 300.0), 40000.0)]


@settings(max_examples=500, deadline=None)
@given(missions=_contract_missions(),
       kind=st.sampled_from(list(ControllerKind)),
       error_model=st.sampled_from([None, _FOURIER]))
def test_no_mission_input_aborts_a_batch(missions, kind, error_model):
    """Whatever manifest read_missions accepts: starts on the island, outside
    the region and outside the truth's extent; starts before and after the
    truth's end, deadlines past it, and targets off the grid: every mission
    ends with one record of its own."""
    recs = _contract_batch(missions, kind, error_model)
    assert [r.mission for r in recs] == missions
    for r in recs:
        assert isinstance(r.outcome, Outcome)
        assert math.isfinite(r.outcome_time)


@settings(max_examples=200, deadline=None)
@given(missions=_contract_missions(), kind=st.sampled_from(list(ControllerKind)))
@example(missions=_EDGE_MISSIONS, kind=ControllerKind.FLOATING)
@example(missions=_EDGE_MISSIONS, kind=ControllerKind.MTR)
def test_perfect_forecasts_are_the_zero_error_forecasts(missions, kind):
    """A Fourier error model with zero RMSE gives the records of perfect
    forecasts, at a bounded truth's edges too."""
    assert _ends(_contract_batch(missions, kind, replace(_FOURIER, target_rmse=0.0))) == \
        _ends(_contract_batch(missions, kind, None))


@settings(max_examples=20, deadline=None)
@given(missions=_contract_missions(max_size=4),
       kind=st.sampled_from(list(ControllerKind)),
       error_model=st.sampled_from([None, _FOURIER]))
def test_drawn_manifests_are_the_same_on_two_workers(missions, kind, error_model):
    assert _ends(_contract_batch(missions, kind, error_model, workers=2)) == \
        _ends(_contract_batch(missions, kind, error_model))


def test_mission_contract_edge_cases_are_the_same_on_two_workers():
    for kind in (ControllerKind.FLOATING, ControllerKind.MTR):
        for error_model in (None, _FOURIER):
            one = _contract_batch(_EDGE_MISSIONS, kind, error_model)
            two = _contract_batch(_EDGE_MISSIONS, kind, error_model, workers=2)
            assert len(one) == len(_EDGE_MISSIONS)
            assert _ends(two) == _ends(one)


@pytest.mark.parametrize("kind", [ControllerKind.FLOATING, ControllerKind.MTR])
def test_start_is_checked_as_every_steps_end_is(kind):
    """A start on the island strands, one outside the region leaves it, and
    one in the target succeeds, each at t0 before any step."""
    starts = {(6400.0, 5000.0): Outcome.STRANDED, (200.0, 5000.0): Outcome.LEFT_REGION,
              (3200.0, 2800.0): Outcome.SUCCESS}
    missions = [Mission(x, y, 1000.0, _TARGET, 20000.0) for x, y in starts]
    for error_model in (None, _FOURIER):
        recs = _contract_batch(missions, kind, error_model)
        assert [(r.outcome, r.outcome_time, len(r.times)) for r in recs] == \
            [(outcome, 1000.0, 0) for outcome in starts.values()]
