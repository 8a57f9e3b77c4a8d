"""Mission sampling under distance/feasibility constraints; manifests."""

import json
import math

import numpy as np
import pytest

from driftplan.errors import InfeasibleConstraintsError, ParameterError
from driftplan.flowfield import SpaceTimeGrid, make_uniform
from driftplan.hjsolver import SolverConfig, TargetSpec, safe_ttr, solve_mtr
from driftplan.missions import (
    SamplingConstraints,
    read_missions,
    sample_missions,
    write_missions,
)
from driftplan.simulator import Mission
from driftplan.terrain import ObstacleMask, SpatialGrid, distance_map

U_MAX = 0.1
REGION = (0.0, 10000.0, 0.0, 10000.0)


@pytest.fixture(scope="module")
def setup():
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    sg = SpatialGrid(0, 0, 200.0, 200.0, 51, 51)
    X, Y = np.meshgrid(np.arange(51) * 200.0, np.arange(51) * 200.0)
    island = (X >= 3000) & (X <= 7000) & (Y >= 4600) & (Y <= 5400)
    om = ObstacleMask(grid=sg, mask=island)
    return dict(
        grid=g, om=om, dmap=distance_map(om),
        truth=make_uniform(0.05, -0.08),
        cfg=SolverConfig(grid=g, u_max=U_MAX),
    )


def _no_obstacles(grid):
    return ObstacleMask(grid, np.zeros((grid.ny, grid.nx), dtype=bool))


def _constraints(**kw):
    base = dict(
        min_boundary_dist=1000.0,
        min_obstacle_dist=1500.0,
        max_obstacle_dist=8000.0,
        target_radius=300.0,
        ttr_window=(10000.0, 40000.0),
        final_time_horizon=(40000.0, 60000.0),
    )
    base.update(kw)
    return SamplingConstraints(**base)


def test_constraints_validation():
    with pytest.raises(ParameterError):
        _constraints(min_obstacle_dist=5000.0, max_obstacle_dist=1000.0)
    with pytest.raises(ParameterError):
        _constraints(ttr_window=(0.0, 100.0))
    with pytest.raises(ParameterError):
        _constraints(ttr_window=(200.0, 100.0))
    with pytest.raises(ParameterError):
        _constraints(final_time_horizon=(60000.0, 40000.0))
    with pytest.raises(ValueError):
        _constraints(final_time_horizon=[40000.0])
    # an infinite or NaN window bound would overflow the uniform draw of a target time
    for window in ((40000.0, math.inf), (math.nan, math.nan), (-math.inf, 60000.0)):
        with pytest.raises(ParameterError, match="final_time_horizon must be finite"):
            _constraints(final_time_horizon=window)
    with pytest.raises(ParameterError, match="ttr_window must be positive and finite"):
        _constraints(ttr_window=(10000.0, math.inf))
    # a NaN boundary distance would refuse no target at all; 0 refuses none by rule
    for dist in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError, match="min_boundary_dist must be finite and non-negative"):
            _constraints(min_boundary_dist=dist)
    assert _constraints(min_boundary_dist=0.0).min_boundary_dist == 0.0


def test_constraint_windows_from_json_lists_are_tuples():
    c = _constraints(ttr_window=[10000.0, 40000.0], final_time_horizon=[40000.0, 40000.0])
    assert c.ttr_window == (10000.0, 40000.0) and c.final_time_horizon == (40000.0, 40000.0)


@pytest.mark.parametrize("mask_grid", [SpatialGrid(100.0, 0, 200.0, 200.0, 51, 51),
                                       SpatialGrid(0, 0, 250.0, 250.0, 41, 41)],
                         ids=["shifted-half-a-cell", "other-shape"])
def test_mask_off_the_solver_nodes_is_refused(setup, mask_grid):
    """A mask that does not lie on the solver grid's nodes cannot be the
    solve's hard constraint, so the solver and the sampler both refuse it."""
    s = setup
    X, Y = mask_grid.meshgrid()
    om = ObstacleMask(mask_grid, (X >= 3000) & (X <= 7000) & (Y >= 4600) & (Y <= 5400))
    with pytest.raises(ParameterError, match="solver grid"):
        solve_mtr(s["truth"], om, TargetSpec((2000.0, 2000.0), 300.0), s["cfg"], 0.0, 30000.0)
    with pytest.raises(ParameterError, match="solver grid"):
        sample_missions(REGION, s["truth"], om, distance_map(om), 2, _constraints(), s["cfg"])


def test_sampled_missions_satisfy_all_constraints(setup):
    s = setup
    c = _constraints()
    missions = sample_missions(REGION, s["truth"], s["om"], s["dmap"], 12, c,
                               s["cfg"], seed=1)
    assert len(missions) == 12
    xmin, xmax, ymin, ymax = REGION
    for m in missions:
        cx, cy = m.target.center
        bd = min(cx - xmin, xmax - cx, cy - ymin, ymax - cy)
        assert bd >= c.min_boundary_dist
        assert c.min_obstacle_dist <= s["dmap"].value_at(cx, cy) <= c.max_obstacle_dist
        assert m.target.radius == c.target_radius
        assert not s["om"].contains(m.x0, m.y0)
        assert xmin <= m.x0 <= xmax and ymin <= m.y0 <= ymax


def test_start_time_matches_certified_arrival(setup):
    """t0 is chosen so the obstacle-free time-to-reach lands the vehicle at
    the sampled final time: re-solving from the target reproduces it."""
    s = setup
    c = _constraints()
    missions = sample_missions(REGION, s["truth"], s["om"], s["dmap"], 4, c,
                               s["cfg"], seed=2)
    lo, hi = c.ttr_window
    for m in missions:
        vf = solve_mtr(s["truth"], None, m.target, s["cfg"], m.t0, m.t0 + hi)
        # the TTR window must have been honored at the start cell
        ttr = safe_ttr(vf, m.t0)
        j, i = s["om"].grid.nearest_cell(m.x0, m.y0)
        assert np.isfinite(ttr[j, i])
        assert ttr[j, i] <= hi + 1e-6


def test_sampling_deterministic_in_seed(setup):
    s = setup
    c = _constraints()
    a = sample_missions(REGION, s["truth"], s["om"], s["dmap"], 5, c, s["cfg"], seed=3)
    b = sample_missions(REGION, s["truth"], s["om"], s["dmap"], 5, c, s["cfg"], seed=3)
    assert [(m.x0, m.y0, m.t0, m.target.center) for m in a] == \
           [(m.x0, m.y0, m.t0, m.target.center) for m in b]


def test_infeasible_constraints_raise(setup):
    s = setup
    # demand targets within 100 m of the island but 1500 m from it
    c = _constraints(min_obstacle_dist=8000.0, max_obstacle_dist=8001.0)
    with pytest.raises(InfeasibleConstraintsError):
        sample_missions(REGION, s["truth"], s["om"], s["dmap"], 5, c,
                        s["cfg"], seed=0)


def test_negative_mission_count_is_refused(setup):
    s = setup
    with pytest.raises(ParameterError, match="-3"):
        sample_missions(REGION, s["truth"], s["om"], s["dmap"], -3, _constraints(), s["cfg"])
    assert sample_missions(REGION, s["truth"], s["om"], s["dmap"], 0, _constraints(),
                           s["cfg"]) == []


def test_obstacle_free_map_rejects_every_target(setup):
    # with no obstacle every target is farther than max_obstacle_dist, also
    # off the terrain grid, which here covers only [0, 2 km]^2 of the region
    s = setup
    dmap = distance_map(_no_obstacles(SpatialGrid(0, 0, 200.0, 200.0, 11, 11)))
    with pytest.raises(InfeasibleConstraintsError):
        sample_missions(REGION, s["truth"], _no_obstacles(s["om"].grid), dmap, 1,
                        _constraints(), s["cfg"], seed=0)


def test_manifest_round_trip(tmp_path):
    missions = [
        Mission(100.0, 200.0, 300.0, TargetSpec((400.0, 500.0), 60.0), 700.0),
        Mission(-1.5, 2.5, 0.0, TargetSpec((3.25, -4.75), 1.0), 10.0),
    ]
    p = tmp_path / "missions.jsonl"
    write_missions(missions, p)
    loaded = read_missions(p)
    assert loaded == missions


def test_read_missions_rejects_malformed_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"x0_m": 1.0,\n')
    with pytest.raises(ParameterError, match="line 1"):
        read_missions(p)


def test_read_missions_rejects_missing_field(tmp_path):
    p = tmp_path / "missing.jsonl"
    p.write_text('{"x0_m": 1.0, "y0_m": 2.0, "t0_s": 0.0, '
                 '"target_x_m": 3.0, "target_y_m": 4.0, "t_max_s": 10.0}\n')
    with pytest.raises(ParameterError, match="target_radius_m"):
        read_missions(p)


def _manifest_line(**fields):
    doc = {"x0_m": 1.0, "y0_m": 2.0, "t0_s": 0.0, "target_x_m": 3.0, "target_y_m": 4.0,
           "target_radius_m": 5.0, "t_max_s": 10.0}
    return json.dumps({**doc, **fields})


@pytest.mark.parametrize("line, error", [
    ("5", "not a JSON object"),
    (_manifest_line(target_radius_m="big"), "field 'target_radius_m' is not a number"),
    # json reads NaN, Infinity and 1e400, which is inf, and integers of any size
    (_manifest_line(x0_m=float("nan")), "field 'x0_m' is not finite"),
    (_manifest_line(t_max_s=float("inf")), "field 't_max_s' is not finite"),
    (_manifest_line(t0_s=float("-inf")), "field 't0_s' is not finite"),
    (_manifest_line(target_x_m=1e400), "field 'target_x_m' is not finite"),
    (_manifest_line(t0_s=10 ** 400), "field 't0_s' is not finite"),
    # finite numbers that Mission and its TargetSpec refuse, with their message
    (_manifest_line(target_radius_m=0), "target radius must be positive and finite"),
    (_manifest_line(t_max_s=-5), "mission deadline must be positive and finite"),
], ids=["not-an-object", "string", "nan", "inf", "minus-inf", "1e400", "integer-beyond-float",
        "zero-radius", "negative-deadline"])
def test_read_missions_rejects_non_object_or_non_number(tmp_path, line, error):
    p = tmp_path / "bad.jsonl"
    write_missions([Mission(1.0, 2.0, 3.0, TargetSpec((4.0, 5.0), 6.0), 7.0)], p)
    with open(p, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ParameterError, match=f"^line 2: {error}"):
        read_missions(p)


def test_read_missions_skips_blank_lines(tmp_path):
    m = Mission(1.0, 2.0, 3.0, TargetSpec((4.0, 5.0), 6.0), 7.0)
    p = tmp_path / "blank.jsonl"
    write_missions([m], p)
    p.write_text("\n" + p.read_text() + "\n\n")
    assert read_missions(p) == [m]
