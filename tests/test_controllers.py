"""Controller policies: magnitudes, directions, switching, fallbacks."""

import math
from dataclasses import fields

import numpy as np
import pytest

from driftplan.controllers import (
    DRIFT,
    EPS_GRAD,
    SMALL_DISTURBANCE,
    SWITCH_THRESHOLD,
    ControlInput,
    Controller,
    ControllerKind,
    mtr_policy,
)
from driftplan.errors import ConfigError
from driftplan.flowfield import SpaceTimeGrid, make_highway
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


def test_floating_drifts_with_zero_control():
    assert DRIFT.magnitude == 0.0
    assert DRIFT.vector == (0.0, 0.0)
    u, branch = Controller(ControllerKind.FLOATING).control(5000.0, 5000.0, 0.0)
    assert (u, branch) == (DRIFT, "float")


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


def _controller(s, kind, **kw):
    return Controller(kind, solver_config=s["cfg"], target=s["tgt"], obstacles=s["om"], **kw)


def test_safety_ascent_points_away_from_wall(highway_setup):
    s = highway_setup
    ctrl = _controller(s, ControllerKind.SWITCH_MTR, dmap=s["dmap"], switch_threshold=1000.0)
    u, branch = ctrl.control(8000.0, 5000.0, 0.0)  # 600 m from the wall, planned or not
    assert branch == "safety"
    assert u.magnitude == U_MAX
    assert math.cos(u.theta) < -0.99  # wall is east, ascent goes west


def _flat_dmap():
    g = SpatialGrid(0, 0, 200.0, 200.0, 51, 51)
    # no obstacles: infinite distances, flat gradient
    return distance_map(ObstacleMask(grid=g, mask=np.zeros((51, 51), dtype=bool)))


def test_safety_ascent_degenerate_gradient_returns_none(highway_setup):
    s = highway_setup
    assert _controller(s, ControllerKind.MTR, dmap=_flat_dmap())._ascent(200.0, 200.0) is None
    assert _controller(s, ControllerKind.MTR)._ascent(8000.0, 5000.0) is None  # no map held


def test_doomed_cell_without_an_ascent_drifts(highway_setup):
    s = highway_setup
    for dmap in (_flat_dmap(), None):
        ctrl = _controller(s, ControllerKind.MTR, dmap=dmap)
        ctrl.vf = s["vf"]
        assert ctrl.control(8000.0, 5000.0, 0.0) == (DRIFT, "doomed")


def test_switching_branch_below_threshold(highway_setup):
    s = highway_setup
    ctrl = _controller(s, ControllerKind.SWITCH_MTR, dmap=s["dmap"], switch_threshold=1000.0)
    ctrl.vf = s["vf"]
    u, branch = ctrl.control(8100.0, 1000.0, 0.0)  # 500 m from the wall
    assert branch == "safety"
    assert math.cos(u.theta) < -0.99
    u, branch = ctrl.control(2000.0, 8000.0, 0.0)  # far from the wall
    assert branch == "plan"
    assert u == mtr_policy(s["vf"], 2000.0, 8000.0, 0.0, U_MAX)


def test_doomed_cell_falls_back_to_ascent(highway_setup):
    s = highway_setup
    ctrl = _controller(s, ControllerKind.MTR, dmap=s["dmap"])
    ctrl.vf = s["vf"]
    # mid-band just upstream of the wall is inevitably lost in the plan
    u, branch = ctrl.control(8000.0, 5000.0, 0.0)
    assert branch == "doomed"
    assert u.magnitude == U_MAX
    assert math.cos(u.theta) < -0.99


def test_control_leaves_the_controller_unchanged(highway_setup):
    # a controller's only state is its plan, which only replan sets
    s = highway_setup
    ctrl = _controller(s, ControllerKind.SWITCH_MTR, dmap=s["dmap"], switch_threshold=1000.0)
    ctrl.vf = s["vf"]
    before = dict(vars(ctrl))
    for x, y in ((8100.0, 1000.0), (2000.0, 8000.0), (8000.0, 5000.0)):
        ctrl.control(x, y, 0.0)
    assert vars(ctrl).keys() == before.keys()
    assert all(vars(ctrl)[k] is v for k, v in before.items())


def test_replan_respects_obstacle_awareness(highway_setup):
    s = highway_setup
    aware = _controller(s, ControllerKind.MTR, dmap=s["dmap"])
    blind = Controller(ControllerKind.MTR_NO_OBS, solver_config=s["cfg"], target=s["tgt"])
    # a blind kind handed the mask still plans without it
    blind_given_mask = _controller(s, ControllerKind.MTR_NO_OBS)
    assert blind_given_mask.obstacles is None
    assert Controller(ControllerKind.FLOATING, obstacles=s["om"]).obstacles is None
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
    ctrl = _controller(s, ControllerKind.SMALLDIST_MTR, dmap=s["dmap"])
    assert ctrl.solver_config.d_max == SMALL_DISTURBANCE == 0.05
    assert s["cfg"].d_max == 0.0  # the given config is not changed
    ctrl.replan(s["truth"], 0.0, s["grid"].t_max)
    # the margin shrinks the reachable set relative to the plain solve
    plain = s["vf"].values[0] <= 0
    margin = ctrl.vf.values[0] <= 0
    assert margin.sum() < plain.sum()
    assert np.all(plain[margin])


def test_controller_validation(highway_setup):
    s = highway_setup
    with pytest.raises(ConfigError, match="mtr requires a solver config and target"):
        Controller(ControllerKind.MTR)
    with pytest.raises(ConfigError, match="requires a solver config and target"):
        Controller(ControllerKind.MTR_NO_OBS, solver_config=s["cfg"])
    with pytest.raises(ConfigError, match="mtr requires an obstacle mask"):
        Controller(ControllerKind.MTR, solver_config=s["cfg"], target=s["tgt"])
    with pytest.raises(ConfigError, match="switch_mtr requires a distance map"):
        _controller(s, ControllerKind.SWITCH_MTR)
    with pytest.raises(ValueError):
        Controller("no_such_kind")


def test_controller_takes_the_kind_by_name_and_six_values():
    c = Controller("floating")
    assert c.kind is ControllerKind.FLOATING
    assert c.control(0.0, 0.0, 0.0) == (DRIFT, "float")
    assert c.vf is None and c.switch_threshold == SWITCH_THRESHOLD
    assert [f.name for f in fields(Controller) if f.init] == [
        "kind", "solver_config", "target", "obstacles", "dmap", "switch_threshold"]


def test_control_input_vector():
    u = ControlInput(theta=math.pi / 2, magnitude=0.1)
    assert u.vector[0] == pytest.approx(0.0, abs=1e-12)
    assert u.vector[1] == pytest.approx(0.1)
