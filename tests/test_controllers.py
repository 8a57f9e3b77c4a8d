"""Controller policies: magnitudes, directions, switching, fallbacks."""

import math

import numpy as np
import pytest

from driftplan.controllers import (
    EPS_GRAD,
    SMALL_DISTURBANCE,
    ControlInput,
    Controller,
    ControllerKind,
    build_controller,
    floating_policy,
    mtr_policy,
    safety_ascent_policy,
)
from driftplan.errors import ConfigError
from driftplan.flowfield import SpaceTimeGrid, make_highway, make_uniform
from driftplan.hjsolver import SENTINEL, SENTINEL_THRESHOLD, SolverConfig, TargetSpec, solve_mtr
from driftplan.terrain import ObstacleMask, SpatialGrid, distance_map

U_MAX = 0.1


@pytest.fixture(scope="module")
def highway_setup():
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    truth = make_highway(4000.0, 6000.0, (0.4, 0.0))
    X, Y = g.meshgrid()
    wall = X >= 8600.0
    om = ObstacleMask(grid=SpatialGrid(0, 0, 200.0, 200.0, 51, 51), mask=wall)
    dmap = distance_map(om)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    tgt = TargetSpec((2000.0, 2000.0), 300.0)
    vf = solve_mtr(truth, om, tgt, cfg, 0.0, g.t_max)
    return dict(grid=g, truth=truth, om=om, dmap=dmap, cfg=cfg, tgt=tgt, vf=vf)


def test_floating_policy_zero_magnitude():
    u = floating_policy()
    assert u.magnitude == 0.0
    assert u.vector == (0.0, 0.0)


def test_control_magnitude_is_zero_or_full(highway_setup):
    vf = highway_setup["vf"]
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(500, 9000)
        y = rng.uniform(500, 9500)
        t = rng.uniform(0, 80000)
        if vf.is_sentinel_at(x, y, t):
            continue
        u = mtr_policy(vf, x, y, t, U_MAX)
        assert u.magnitude in (0.0, U_MAX)


def test_mtr_policy_matches_exhaustive_minimization(highway_setup):
    """The analytic descent direction minimizes the sampled Hamiltonian
    v . p + u . p over 360 candidate headings (v . p is heading-free, so
    the minimizer is the direction most opposed to the gradient)."""
    vf = highway_setup["vf"]
    rng = np.random.default_rng(1)
    bins = np.linspace(0.0, 2 * math.pi, 361)[:-1]
    checked = 0
    while checked < 300:
        x = rng.uniform(500, 9000)
        y = rng.uniform(500, 9500)
        t = rng.uniform(0, 80000)
        if vf.is_sentinel_at(x, y, t):
            continue
        gx, gy = vf.grad_at(x, y, t)
        if math.hypot(gx, gy) < EPS_GRAD:
            continue
        u = mtr_policy(vf, x, y, t, U_MAX)
        ham = U_MAX * (np.cos(bins) * gx + np.sin(bins) * gy)
        best = bins[int(np.argmin(ham))]
        diff = abs((u.theta - best + math.pi) % (2 * math.pi) - math.pi)
        assert diff <= 2 * math.pi / 360 + 1e-9
        checked += 1


def test_safety_ascent_points_away_from_wall(highway_setup):
    u = safety_ascent_policy(highway_setup["dmap"], 8000.0, 5000.0, U_MAX)
    assert u.magnitude == U_MAX
    assert math.cos(u.theta) < -0.99  # wall is east, ascent goes west


def test_safety_ascent_degenerate_gradient_returns_none():
    g = SpatialGrid(0, 0, 100.0, 100.0, 5, 5)
    mask = np.zeros((5, 5), dtype=bool)
    om = ObstacleMask(grid=g, mask=mask)
    d = distance_map(om)  # no obstacles: infinite distances, flat gradient
    assert safety_ascent_policy(d, 200.0, 200.0, U_MAX) is None


def test_switching_branch_below_threshold(highway_setup):
    s = highway_setup
    ctrl = build_controller(
        ControllerKind.SWITCH_MTR, solver_config=s["cfg"],
        target=s["tgt"], obstacles=s["om"], dmap=s["dmap"],
        switch_threshold=1000.0,
    )
    ctrl.vf = s["vf"]
    u = ctrl.control(8100.0, 1000.0, 0.0)  # 500 m from the wall
    assert ctrl.last_branch == "safety"
    assert math.cos(u.theta) < -0.99
    u = ctrl.control(2000.0, 8000.0, 0.0)  # far from the wall
    assert ctrl.last_branch == "plan"


def test_doomed_cell_falls_back_to_ascent(highway_setup):
    s = highway_setup
    ctrl = build_controller(
        ControllerKind.MTR, solver_config=s["cfg"],
        target=s["tgt"], obstacles=s["om"], dmap=s["dmap"],
    )
    ctrl.vf = s["vf"]
    # mid-band just upstream of the wall is inevitably lost in the plan
    u = ctrl.control(8000.0, 5000.0, 0.0)
    assert ctrl.last_branch == "doomed"
    assert u.magnitude == U_MAX


def test_replan_respects_obstacle_awareness(highway_setup):
    s = highway_setup
    aware = build_controller(
        ControllerKind.MTR, solver_config=s["cfg"],
        target=s["tgt"], obstacles=s["om"], dmap=s["dmap"],
    )
    blind = build_controller(
        ControllerKind.MTR_NO_OBS, solver_config=s["cfg"],
        target=s["tgt"],
    )
    # a blind kind handed the mask still plans without it
    blind_given_mask = build_controller(
        ControllerKind.MTR_NO_OBS, solver_config=s["cfg"],
        target=s["tgt"], obstacles=s["om"],
    )
    assert blind_given_mask.obstacles is None
    aware.replan(s["truth"], 0.0, s["grid"].t_max)
    blind.replan(s["truth"], 0.0, s["grid"].t_max)
    blind_given_mask.replan(s["truth"], 0.0, s["grid"].t_max)
    wall = s["om"].mask
    assert np.all(aware.vf.values[0][wall] == SENTINEL)
    for ctrl in (blind, blind_given_mask):
        assert not np.any(ctrl.vf.values[0][wall] >= SENTINEL_THRESHOLD)
    np.testing.assert_array_equal(blind_given_mask.vf.values, blind.vf.values)


def test_smalldist_variant_uses_margin(highway_setup):
    s = highway_setup
    ctrl = build_controller(
        ControllerKind.SMALLDIST_MTR, solver_config=s["cfg"],
        target=s["tgt"], obstacles=s["om"], dmap=s["dmap"],
    )
    assert ctrl.solver_config.d_max == SMALL_DISTURBANCE == 0.05
    ctrl.replan(s["truth"], 0.0, s["grid"].t_max)
    # the margin shrinks the reachable set relative to the plain solve
    plain = s["vf"].values[0] <= 0
    margin = ctrl.vf.values[0] <= 0
    assert margin.sum() < plain.sum()
    assert np.all(plain[margin])


def test_build_controller_validation(highway_setup):
    s = highway_setup
    with pytest.raises(ConfigError):
        build_controller(ControllerKind.MTR)
    with pytest.raises(ConfigError):
        build_controller(ControllerKind.MTR, solver_config=s["cfg"], target=s["tgt"])
    with pytest.raises(ConfigError):
        build_controller(ControllerKind.SWITCH_MTR, solver_config=s["cfg"], target=s["tgt"],
                         obstacles=s["om"])
    with pytest.raises(ValueError):
        build_controller("no_such_kind")


def test_build_controller_accepts_kind_strings():
    c = build_controller("floating")
    assert c.kind is ControllerKind.FLOATING
    assert c.control(0.0, 0.0, 0.0).magnitude == 0.0
    assert c.last_branch == "float"


def test_control_input_vector():
    u = ControlInput(theta=math.pi / 2, magnitude=0.1)
    assert u.vector[0] == pytest.approx(0.0, abs=1e-12)
    assert u.vector[1] == pytest.approx(0.1)
