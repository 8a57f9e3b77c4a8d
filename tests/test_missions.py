"""Mission sampling under distance/feasibility constraints; manifests."""

import numpy as np
import pytest

from driftplan.errors import InfeasibleConstraintsError, ParameterError
from driftplan.flowfield import SpaceTimeGrid, make_uniform
from driftplan.hjsolver import SolverConfig, TargetSpec, safe_ttr, solve_mtr
from driftplan.missions import (
    SamplingConstraints,
    read_missions,
    sample_missions,
    validate_missions,
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
    assert validate_missions(missions, REGION, s["dmap"], c) == []


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


def test_validate_missions_flags_violations(setup):
    s = setup
    c = _constraints()
    bad = [
        Mission(5000.0, 8000.0, 0.0, TargetSpec((100.0, 5000.0), 300.0), 60000.0),
        Mission(5000.0, 8000.0, 0.0, TargetSpec((5000.0, 5000.0), 300.0), 60000.0),
    ]
    problems = validate_missions(bad, REGION, s["dmap"], c)
    assert len(problems) == 2
    assert "boundary" in problems[0]
    assert "close to obstacles" in problems[1]


def test_obstacle_free_map_rejects_every_target(setup):
    # with no obstacle every target is farther than max_obstacle_dist, also
    # off the terrain grid, which here covers only [0, 2 km]^2 of the region
    s = setup
    dmap = distance_map(_no_obstacles(SpatialGrid(0, 0, 200.0, 200.0, 11, 11)))
    with pytest.raises(InfeasibleConstraintsError):
        sample_missions(REGION, s["truth"], _no_obstacles(s["om"].grid), dmap, 1,
                        _constraints(), s["cfg"], seed=0)


def test_validate_missions_flags_targets_on_obstacle_free_map(setup):
    dmap = distance_map(_no_obstacles(setup["om"].grid))
    # inside a cell, on a grid line, on a node, and off the grid
    targets = [(5050.0, 5050.0), (5100.0, 5050.0), (5000.0, 5000.0), (5000.0, 10500.0)]
    missions = [Mission(5000.0, 8000.0, 0.0, TargetSpec(t, 300.0), 60000.0) for t in targets]
    problems = validate_missions(missions, REGION, dmap, _constraints())
    assert [p for p in problems if "boundary" not in p] == [
        f"mission {k}: target too far from obstacles (inf m)" for k in range(4)]


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


@pytest.mark.parametrize("line", ["5", '{"x0_m": 1.0, "y0_m": 2.0, "t0_s": 0.0, '
                                  '"target_x_m": 3.0, "target_y_m": 4.0, '
                                  '"target_radius_m": "big", "t_max_s": 10.0}'])
def test_read_missions_rejects_non_object_or_non_number(tmp_path, line):
    p = tmp_path / "bad.jsonl"
    write_missions([Mission(1.0, 2.0, 3.0, TargetSpec((4.0, 5.0), 6.0), 7.0)], p)
    with open(p, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ParameterError, match="line 2: (not a JSON object|field 'target_radius_m')"):
        read_missions(p)


def test_read_missions_skips_blank_lines(tmp_path):
    m = Mission(1.0, 2.0, 3.0, TargetSpec((4.0, 5.0), 6.0), 7.0)
    p = tmp_path / "blank.jsonl"
    write_missions([m], p)
    p.write_text("\n" + p.read_text() + "\n\n")
    assert read_missions(p) == [m]
