"""Reachability solver: analytic oracles, invariants, point queries."""

import hashlib
import json
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import oracles
from oracles import (
    avoidance_w_step,
    slice_value_at,
    solve_mtr_values,
    upwind_hamiltonian,
)

from driftplan.errors import (
    AlreadyStrandedError,
    HorizonError,
    ParameterError,
)
from driftplan.flowfield import (
    DoubleGyreFlow,
    FlowSource,
    SpaceTimeGrid,
    make_double_gyre,
    make_highway,
    make_uniform,
)
from driftplan import forecast, hjsolver
from driftplan.forecast import ErrorModelConfig, gen_forecast_series
from driftplan.hjsolver import (
    ALPHA,
    CFL,
    MAX_SNAPSHOTS,
    MIN_DT,
    SENTINEL,
    SENTINEL_THRESHOLD,
    SolverConfig,
    TargetSpec,
    ValueFunction,
    _hamiltonian,
    safe_ttr,
    solve_mtr,
)
from driftplan.terrain import ObstacleMask, SpatialGrid

U_MAX = 0.1


def _grid(nx=51, ny=51, dx=200.0, dt=3000.0, nt=31, x0=0.0, y0=0.0):
    return SpaceTimeGrid(x0=x0, y0=y0, dx=dx, dy=dx, nx=nx, ny=ny,
                        t0=0.0, dt_snap=dt, nt=nt)


def _mask(grid, mask):
    return ObstacleMask(
        grid=SpatialGrid(grid.x0, grid.y0, grid.dx, grid.dy, grid.nx, grid.ny),
        mask=mask,
    )


def test_zero_current_matches_distance_over_speed():
    g = _grid(nx=101, ny=101, dx=100.0, dt=2000.0, nt=46, x0=-5000.0, y0=-5000.0)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.0, 0.0), None, TargetSpec((0.0, 0.0), 500.0),
                   cfg, 0.0, g.t_max)
    ttr = safe_ttr(vf, 0.0)
    X, Y = g.meshgrid()
    r = np.hypot(X, Y)
    true = np.maximum(r - 500.0, 0.0) / U_MAX
    m = (r >= 1000.0) & np.isfinite(ttr)
    rel = np.abs(ttr[m] - true[m]) / true[m]
    assert rel.max() < 0.09  # first-order error at 100 m resolution


def test_uniform_current_downstream_transit():
    # 1000 m downstream in a 0.1 m/s current: reached at speed v + u_max
    g = _grid(nx=161, ny=161, dx=25.0, dt=500.0, nt=21, x0=-2000.0, y0=-2000.0)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.1, 0.0), None, TargetSpec((1000.0, 0.0), 1.0),
                   cfg, 0.0, g.t_max)
    d = safe_ttr(vf, 0.0)[vf.grid.nearest_cell(0.0, 0.0)]
    assert d == pytest.approx(1000.0 / (0.1 + U_MAX), rel=0.02)


def test_safe_ttr_identity_machine_precision():
    g = _grid(nx=31, ny=31)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.02, -0.01), None, TargetSpec((5000.0, 5000.0), 400.0),
                   cfg, 0.0, g.t_max)
    for t in (0.0, g.t_max / 3, g.t_max):
        sl = vf.slice_at(t)
        ttr = safe_ttr(vf, t)
        reach = sl <= 0
        expect = np.maximum(vf.terminal_time + sl[reach] - t, 0.0)
        np.testing.assert_array_equal(ttr[reach], expect)
        assert np.all(np.isnan(ttr[~reach]))


def test_obstacle_cells_carry_sentinel_at_every_slice():
    g = _grid()
    X, Y = g.meshgrid()
    ob = (X >= 6000) & (X <= 7000) & (Y >= 2000) & (Y <= 4000)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.0, 0.0), _mask(g, ob), TargetSpec((2000.0, 2000.0), 300.0),
                   cfg, 0.0, g.t_max)
    assert np.all(vf.values[:, ob] == SENTINEL)


def test_all_obstacle_grid_is_sentinel_everywhere(recwarn):
    # no free cell to measure the depth of an obstacle cell to: its
    # clearance is -inf, and the solve must still step without NaN
    g = _grid(nx=9, ny=7, dt=1000.0, nt=5)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.05, 0.0), _mask(g, np.ones((7, 9), dtype=bool)),
                   TargetSpec((800.0, 600.0), 300.0), cfg, 0.0, g.t_max)
    assert np.all(vf.values == SENTINEL)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_inevitably_pushed_band_cells_are_sentinel():
    # 1.4 m/s band into a wall: in-band cells upstream of the wall closer
    # than the escape distance are lost even though they are free water
    g = _grid()
    truth = make_highway(4000.0, 6000.0, (1.4, 0.0))
    X, Y = g.meshgrid()
    wall = X >= 8600.0
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(truth, _mask(g, wall), TargetSpec((2000.0, 2000.0), 300.0),
                   cfg, 0.0, g.t_max)
    J0 = vf.values[0]
    in_band = (Y >= 4000.0) & (Y <= 6000.0) & ~wall
    # mid-band escape needs 1000 m / 0.1 m/s = 10^4 s, during which the
    # band sweeps the vehicle 14 km east: every mid-band cell is lost
    sent = J0 >= SENTINEL_THRESHOLD
    assert sent[25, 40]  # (x, y) = (8000, 5000)
    assert sent[25, 2]   # even far upstream, mid-band is lost
    # near the band edge the escape is short: 200 m costs 2000 s and
    # 2.8 km of drift, so upstream edge cells survive
    assert not sent[21, 2]  # (x, y) = (400, 4200)
    assert not sent[5, 40]  # below the band, still water, free
    assert sent[in_band].sum() > 50


def test_d_max_never_decreases_values():
    g = _grid(nx=31, ny=31)
    truth = make_highway(4000.0, 6000.0, (0.3, 0.0))
    X, _ = g.meshgrid()
    ob = X >= 8600.0
    tgt = TargetSpec((2000.0, 2000.0), 300.0)
    v0 = solve_mtr(truth, _mask(g, ob), tgt, SolverConfig(grid=g, u_max=U_MAX),
                   0.0, g.t_max)
    v1 = solve_mtr(truth, _mask(g, ob), tgt,
                   SolverConfig(grid=g, u_max=U_MAX, d_max=0.04), 0.0, g.t_max)
    fin = (v0.values < SENTINEL_THRESHOLD) & (v1.values < SENTINEL_THRESHOLD)
    assert np.all(v1.values[fin] >= v0.values[fin] - 1e-6)


def test_values_monotone_in_time_without_adverse_flow():
    # backward in time the reachable set only grows and values only drop
    g = _grid(nx=31, ny=31)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.0, 0.0), None, TargetSpec((5000.0, 5000.0), 400.0),
                   cfg, 0.0, g.t_max)
    diffs = np.diff(vf.values, axis=0)  # values[k+1] - values[k], t increasing
    assert np.all(diffs >= -1e-9)


def test_values_bounded_below_by_target_rate():
    # J can never drop faster than ALPHA per second of remaining horizon
    g = _grid()
    truth = make_highway(4000.0, 6000.0, (0.4, 0.0))
    X, _ = g.meshgrid()
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(truth, _mask(g, X >= 8600.0), TargetSpec((2000.0, 2000.0), 300.0),
                   cfg, 0.0, g.t_max)
    for k, t in enumerate(vf.grid.ts):
        bound = -ALPHA * (vf.terminal_time - t)
        J = vf.values[k]
        fin = J < SENTINEL_THRESHOLD
        assert np.all(J[fin] >= bound - 1e-6)


def test_greedy_descent_never_enters_obstacle():
    from driftplan.controllers import mtr_policy
    from driftplan.simulator import integrate_step

    g = _grid()
    truth = make_highway(4000.0, 6000.0, (0.4, 0.0))
    X, Y = g.meshgrid()
    wall = X >= 8600.0
    om = _mask(g, wall)
    tgt = TargetSpec((2000.0, 2000.0), 300.0)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(truth, om, tgt, cfg, 0.0, g.t_max)
    sent0 = vf.values[0] >= SENTINEL_THRESHOLD
    starts = [(1000.0, 5000.0), (3000.0, 4300.0), (6000.0, 1000.0), (400.0, 4800.0)]
    for x, y in starts:
        j, i = om.grid.nearest_cell(x, y)
        assert not sent0[j, i], "test start must be reachable"
        t = 0.0
        while t < g.t_max - 300.0 and not tgt.contains(x, y):
            u = mtr_policy(vf, x, y, t, U_MAX)
            x, y = integrate_step((x, y), u.vector, truth, t, 300.0)
            t += 300.0
            assert not om.contains(x, y)
        assert tgt.contains(x, y)


def test_solver_rejects_bad_horizon():
    g = _grid(nx=11, ny=11)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    tgt = TargetSpec((1000.0, 1000.0), 300.0)
    with pytest.raises(ParameterError):
        solve_mtr(make_uniform(0, 0), None, tgt, cfg, 5000.0, 5000.0)


@pytest.mark.parametrize("speeds", [dict(u_max=10**400), dict(u_max=U_MAX, d_max=10**400)],
                         ids=["u-max", "d-max"])
def test_solver_config_refuses_a_speed_beyond_float_range(speeds):
    # an exact integer passes "< math.inf", and the solve would raise a bare OverflowError
    with pytest.raises(ParameterError, match="speed bounds must be finite"):
        SolverConfig(grid=_grid(nx=11, ny=11), **speeds)


@pytest.mark.parametrize("center", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0),
                                    (10**400, 0.0)], ids=["nan-x", "inf-y", "minus-inf-x", "huge-x"])
def test_target_center_must_be_finite(center):
    with pytest.raises(ParameterError, match="target center must be finite"):
        TargetSpec(center, 300.0)


def test_target_radius_must_fit_a_float():
    with pytest.raises(ParameterError, match="target radius must be positive and finite"):
        TargetSpec((0.0, 0.0), 10**400)


def test_solver_requires_flow_coverage():
    from driftplan.flowfield import GriddedFlow

    g = _grid(nx=11, ny=11, dt=1000.0, nt=3)
    short = GriddedFlow(grid=SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0,
                                           nx=11, ny=11, t0=0.0, dt_snap=500.0, nt=2),
                        u=np.zeros((2, 11, 11)), v=np.zeros((2, 11, 11)))
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    with pytest.raises(HorizonError):
        solve_mtr(short, None, TargetSpec((1000.0, 1000.0), 300.0), cfg, 0.0, 2000.0)


def test_grad_at_raises_on_sentinel_state():
    g = _grid()
    truth = make_highway(4000.0, 6000.0, (1.4, 0.0))
    X, _ = g.meshgrid()
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(truth, _mask(g, X >= 8600.0), TargetSpec((2000.0, 2000.0), 300.0),
                   cfg, 0.0, g.t_max)
    with pytest.raises(AlreadyStrandedError):
        vf.grad_at(9000.0, 5000.0, 0.0)  # inside the wall


def test_solve_spans_its_window_in_the_fewest_intervals_within_dt_snap():
    """A 40 ks window at dt_snap 3 ks is 14 intervals of 2857.1 s, no longer
    than dt_snap: 15 snapshots, from the window's start to its end."""
    g = _grid(nx=21, ny=21)
    vf = solve_mtr(make_uniform(0.0, 0.0), None, TargetSpec((2000.0, 2000.0), 300.0),
                   SolverConfig(grid=g, u_max=U_MAX), 30000.0, 70000.0)
    assert vf.grid == g.spanning(30000.0, 70000.0)
    assert (vf.grid.nt, vf.grid.t0, vf.grid.t_max) == (15, 30000.0, 70000.0)
    assert vf.grid.dt_snap == pytest.approx(40000.0 / 14)


def test_solve_values_do_not_depend_on_the_grid_t0_and_nt():
    """A solve spans its own window in steps of at most dt_snap, so the
    highway-and-wall solve has the golden bytes whatever the grid's t0 and nt."""
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "digests.json").read_text())["solve_mtr/highway_wall"]
    for t0, nt in ((0.0, 31), (12345.0, 1), (-5.0, 7)):
        g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                          t0=t0, dt_snap=3000.0, nt=nt)
        X, _ = g.meshgrid()
        vf = solve_mtr(make_highway(4000.0, 6000.0, (0.4, 0.0)), _mask(g, X >= 8600.0),
                       TargetSpec((2000.0, 2000.0), 300.0), SolverConfig(grid=g, u_max=U_MAX),
                       0.0, 90_000.0)
        assert hashlib.sha256(vf.values.astype("<f8").tobytes()).hexdigest() == golden


def test_brt_grows_backward_in_time():
    # the backward reachable tube at t is the zero sublevel set of the value
    g = _grid(nx=31, ny=31)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(make_uniform(0.0, 0.0), None, TargetSpec((5000.0, 5000.0), 400.0),
                   cfg, 0.0, g.t_max)
    early = vf.slice_at(0.0) <= 0
    late = vf.slice_at(g.t_max - g.dt_snap) <= 0
    assert late.sum() < early.sum()
    assert np.all(early[late])  # nested


def test_cfl_step_below_min_dt_is_refused():
    # a solve over a span shorter than the 1e-9 s floor takes one step below it
    g = _grid(nx=11, ny=11)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    target = TargetSpec((1000.0, 1000.0), 300.0)
    with pytest.raises(ParameterError, match=f"below the floor {MIN_DT}"):
        solve_mtr(make_uniform(0.0, 0.0), None, target, cfg, 0.0, 5e-10)
    vf = solve_mtr(make_uniform(0.0, 0.0), None, target, cfg, 0.0, 2e-9)
    assert vf.values.shape == (2, 11, 11)


class _NanFlow(FlowSource):
    """A steady flow whose u is NaN everywhere: no field of the package
    samples to NaN, but a FlowSource of a caller can."""

    is_steady = True

    def sample_many(self, x, y, t, clamp_time=False):
        return np.full(np.shape(x), math.nan), np.zeros(np.shape(x))


@pytest.mark.parametrize("t_start, terminal_time", [(0.0, math.inf), (-math.inf, 0.0),
                                                    (math.nan, 3000.0), (3000.0, 0.0)])
def test_solve_window_must_be_finite_and_ordered(t_start, terminal_time):
    # an unbounded flow covers an infinite window, whose snapshot count
    # would overflow in SpaceTimeGrid.spanning
    cfg = SolverConfig(grid=_grid(nx=11, ny=11), u_max=U_MAX)
    with pytest.raises(ParameterError, match="need finite t_start < terminal_time"):
        solve_mtr(make_uniform(0.1, 0.0), None, TargetSpec((1000.0, 1000.0), 300.0), cfg,
                  t_start, terminal_time)


@pytest.mark.parametrize("flow", [make_uniform(1e307, 0.0), _NanFlow()], ids=["huge", "nan"])
def test_cfl_step_count_that_is_not_finite_is_refused(flow):
    # 3000 s x 1e307 m/s / 200 m / CFL overflows to inf, which math.ceil cannot
    # convert to a substep count, as it cannot a NaN
    cfg = SolverConfig(grid=_grid(nx=11, ny=11), u_max=U_MAX)
    with pytest.raises(ParameterError, match="CFL step count .* is not finite"):
        solve_mtr(flow, None, TargetSpec((1000.0, 1000.0), 300.0), cfg, 0.0, 3000.0)


def test_solve_of_more_than_max_snapshots_is_refused():
    # each solve holds its snapshots in one array: 1e300 s at dt_snap 3000 s
    # would have numpy refuse it with a bare ValueError, and a window just
    # past the cap is refused as well, before the array is allocated
    cfg = SolverConfig(grid=_grid(nx=11, ny=11, dt=300.0), u_max=U_MAX)
    target, flow = TargetSpec((1000.0, 1000.0), 300.0), make_uniform(0.0, 0.0)
    for t_end in (1e300, 300.0 * MAX_SNAPSHOTS):
        with pytest.raises(ParameterError, match=f"more than {MAX_SNAPSHOTS}"):
            solve_mtr(flow, None, target, cfg, 0.0, t_end)
    vf = solve_mtr(flow, None, target, cfg, 0.0, 300.0 * (MAX_SNAPSHOTS - 1))
    assert vf.values.shape == (MAX_SNAPSHOTS, 11, 11)


def test_solve_beyond_the_cell_update_budget_is_refused_before_it_marches(monkeypatch):
    """A solve plans its substeps before it marches: with more planned cell
    updates (substeps x layers x ny x nx) than MAX_CELL_UPDATES it raises
    ParameterError before the first substep, and at the budget it runs."""
    g = _grid(nx=11, ny=9)
    X, Y = g.meshgrid()
    island = _mask(g, (X >= 1000.0) & (X <= 1400.0) & (Y >= 600.0) & (Y <= 1000.0))
    case = (make_double_gyre(0.16, 2 * math.pi / 86_400.0, 0.25, 1000.0), island,
            TargetSpec((400.0, 400.0), 300.0), SolverConfig(grid=g, u_max=U_MAX), 0.0, 9000.0)
    real = hjsolver._hamiltonian
    substeps = []
    monkeypatch.setattr(hjsolver, "_hamiltonian", lambda *a: substeps.append(1) or real(*a))
    want = solve_mtr(*case).values
    planned = len(substeps) * 2 * 9 * 11  # J and -W on every cell
    assert len(substeps) > 3  # more than one substep per interval
    monkeypatch.setattr(hjsolver, "MAX_CELL_UPDATES", planned)
    assert solve_mtr(*case).values.tobytes() == want.tobytes()

    def refuse(*args):
        raise AssertionError("a substep ran beyond the budget")

    monkeypatch.setattr(hjsolver, "_hamiltonian", refuse)
    monkeypatch.setattr(hjsolver, "MAX_CELL_UPDATES", planned - 1)
    with pytest.raises(ParameterError, match=f"are more than {planned - 1:,} cell updates"):
        solve_mtr(*case)


def _island_release():
    """A steady Fourier-perturbed release of a uniform current."""
    em = ErrorModelConfig(0.2, 2500.0, 40_000.0, 24, seed=0)
    series = gen_forecast_series(make_uniform(0.05, -0.08), em, 20_000.0, 50_000.0,
                                 (0.0, 60_000.0))
    return series.releases[0][1]


@pytest.mark.parametrize("case", ["steady_fourier", "unsteady_gyre"])
def test_solve_restricted_from_snapshot_k_equals_solve_from_t_k(case):
    """Multi-time consistency: the snapshots k.. of a solve on [0, 45 ks]
    are byte-equal to a solve started at snapshot k's time."""
    if case == "steady_fourier":
        flow = _island_release()
    else:
        flow = make_double_gyre(0.16, 2 * math.pi / 86_400.0, 0.25, 5000.0)
    g = _grid()
    X, Y = g.meshgrid()
    island = _mask(g, (X >= 3000.0) & (X <= 7000.0) & (Y >= 4600.0) & (Y <= 5400.0))
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    target = TargetSpec((2000.0, 2000.0), 300.0)
    full = solve_mtr(flow, island, target, cfg, 0.0, 45_000.0)
    for k in (1, 3, 7, 14):
        later = solve_mtr(flow, island, target, cfg, g.dt_snap * k, 45_000.0)
        assert later.values.shape == full.values[k:].shape
        assert later.values.tobytes() == full.values[k:].tobytes()


def _stencil_case(seed, ny, nx, p_valid, p_sentinel):
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-3, 6)
    J[rng.random((ny, nx)) < p_sentinel] = 1e10
    valid = (rng.random((ny, nx)) < p_valid) & (J < 5e9)
    return J, valid, float(rng.uniform(0.5, 500.0))


def _velocities(S, vx, vy):
    """The (2, *S.shape) velocities that ``_hamiltonian`` reads: vx and vy
    laid over each layer of S."""
    return np.stack([np.broadcast_to(v, S.shape) for v in (vx, vy)])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ny=st.integers(1, 9),
    nx=st.integers(1, 9),
    p_still=st.floats(0.0, 1.0),
)
def test_avoidance_step_matches_w_reference(seed, ny, nx, p_still):
    """Stepping A = -W with the reach Hamiltonian equals the sign-flipped
    W stencil byte for byte, and marks the same doomed cells."""
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-2, 5)
    vx, vy = 0.5 * rng.standard_normal((2, ny, nx))
    vx[rng.random((ny, nx)) < p_still] = 0.0
    vy[rng.random((ny, nx)) < p_still] = -0.0
    dx, dy = rng.uniform(0.5, 500.0, 2)
    u_eff = float(rng.uniform(0.0, 0.5))
    dt = float(rng.uniform(1e-3, 1e3))
    A = -W
    all_valid = np.ones((ny, nx), dtype=bool)
    H = _hamiltonian(A, all_valid, _velocities(A, vx, vy), u_eff, (dx, dy))
    got = A + dt * np.maximum(0.0, H)
    want = avoidance_w_step(W, vx, vy, u_eff, dx, dy, dt)
    assert got.tobytes() == (-want).tobytes()
    assert np.array_equal(got > 0, want < 0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ny=st.integers(1, 9),
    nx=st.integers(1, 9),
    p_valid=st.floats(0.0, 1.0),
    p_sentinel=st.floats(0.0, 0.5),
    p_still=st.floats(0.0, 1.0),
)
def test_stacked_hamiltonian_matches_per_layer(seed, ny, nx, p_valid, p_sentinel, p_still):
    """One _hamiltonian call on a stacked (2, ny, nx) J/A state with masks
    (valid, all true) equals the two one-layer (ny, nx) calls byte for byte."""
    J, valid, dx = _stencil_case(seed, ny, nx, p_valid, p_sentinel)
    rng = np.random.default_rng(seed + 1)
    A = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-2, 5)
    vx, vy = 0.5 * rng.standard_normal((2, ny, nx))
    vx[rng.random((ny, nx)) < p_still] = 0.0
    vy[rng.random((ny, nx)) < p_still] = -0.0
    h = (dx, float(rng.uniform(0.5, 500.0)))
    u_eff = float(rng.uniform(0.0, 0.5))
    all_valid = np.ones((ny, nx), dtype=bool)
    S = np.stack([J, A])
    got = _hamiltonian(S, np.stack([valid, all_valid]), _velocities(S, vx, vy), u_eff, h)
    assert got.shape == (2, ny, nx)
    for layer, mask, out in ((J, valid, got[0]), (A, all_valid, got[1])):
        want = _hamiltonian(layer, mask, _velocities(layer, vx, vy), u_eff, h)
        assert out.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ny=st.integers(1, 9),
    nx=st.integers(1, 9),
    p_valid=st.floats(0.0, 1.0),
    p_sentinel=st.floats(0.0, 0.5),
    p_still=st.floats(0.0, 1.0),
    stacked=st.booleans(),
)
def test_hamiltonian_matches_reference(seed, ny, nx, p_valid, p_sentinel, p_still, stacked):
    """_hamiltonian, with both axes' differences in one buffer, equals the
    reference expression on the np.roll differences byte for byte, on a
    stacked (2, ny, nx) state and on one (ny, nx) layer, and leaves its
    state and velocities as they were."""
    J, valid, dx = _stencil_case(seed, ny, nx, p_valid, p_sentinel)
    rng = np.random.default_rng(seed + 1)
    A = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-2, 5)
    vx, vy = 0.5 * rng.standard_normal((2, ny, nx))
    vx[rng.random((ny, nx)) < p_still] = 0.0
    vy[rng.random((ny, nx)) < p_still] = -0.0
    dy = float(rng.uniform(0.5, 500.0))
    u_eff = float(rng.uniform(0.0, 0.5))
    if stacked:
        S, masks = np.stack([J, A]), np.stack([valid, np.ones((ny, nx), dtype=bool)])
    else:
        S, masks = J, valid
    V = _velocities(S, vx, vy)
    S_before, V_before = S.tobytes(), V.tobytes()
    got = _hamiltonian(S, masks, V, u_eff, (dx, dy))
    assert got.tobytes() == upwind_hamiltonian(S, masks, vx, vy, u_eff, dx, dy).tobytes()
    assert (S.tobytes(), V.tobytes()) == (S_before, V_before)


def _solve_case(seed, nx, ny, nt, flow_kind, obstacles, point_target, d_max=False):
    """A small solve problem drawn from ``seed``: grid, flow, mask, target,
    speeds and window. Flows up to ~1.5 m/s against ``u_max`` of at most
    0.5 m/s leave cells doomed beside a wall. ``d_max`` makes the disturbance
    bound positive; without it, 3 in 10 draws have one. The "box" and "all"
    masks draw nothing, so the other kinds' draws stay as they were."""
    rng = np.random.default_rng(seed)
    dx, dy = (float(h) for h in rng.uniform(100.0, 500.0, 2))
    g = SpaceTimeGrid(x0=float(rng.uniform(-1000.0, 1000.0)), y0=0.0, dx=dx, dy=dy,
                      nx=nx, ny=ny, t0=0.0, dt_snap=float(rng.uniform(100.0, 1000.0)), nt=nt)
    u, v = rng.normal(0.0, 0.6, 2)
    if obstacles == "wall":
        u = abs(u) + 0.2  # onto the wall
    truth = {
        "uniform": lambda: make_uniform(u, v),
        "highway": lambda: make_highway(g.y0 + dy, g.y0 + 2.5 * dy, (u, v)),
        "gyre": lambda: make_double_gyre(abs(u) + 0.1, 2 * math.pi / 2000.0, 0.25,
                                         0.5 * (g.x_max - g.x0)),
    }
    if flow_kind == "fourier":
        base = truth["gyre" if rng.random() < 0.5 else "uniform"]()
        series = gen_forecast_series(base, ErrorModelConfig(0.4, 2 * dx, 5000.0, n_modes=6,
                                                            seed=seed), 500.0, 5000.0,
                                     (0.0, 1000.0))
        flow = series.current(float(rng.uniform(0.0, 1000.0)))
    else:
        flow = truth[flow_kind]()
    X, Y = g.meshgrid()
    mask = {"none": None,
            "empty": np.zeros((ny, nx), dtype=bool),
            "random": rng.random((ny, nx)) < 0.2,
            "wall": X >= g.x_max - dx * rng.integers(0, max(1, nx // 3)),
            "box": (abs(X - X.mean()) <= 0.25 * (g.x_max - g.x0))
                   & (abs(Y - Y.mean()) <= 0.25 * (g.y_max - g.y0)),
            "all": np.ones((ny, nx), dtype=bool)}[obstacles]
    cfg = SolverConfig(grid=g, u_max=float(rng.uniform(0.02, 0.5)))
    if rng.random() < 0.3 or d_max:
        cfg = SolverConfig(grid=g, u_max=cfg.u_max, d_max=float(rng.uniform(0.0, cfg.u_max)))
    center = (float(rng.uniform(g.x0, g.x_max)), float(rng.uniform(g.y0, g.y_max)))
    if point_target:  # no node within the radius: the nearest node seeds the solve
        center = (g.x0 + dx * (int(rng.integers(0, nx)) + 0.37),
                  g.y0 + dy * (int(rng.integers(0, ny)) + 0.41))
    target = TargetSpec(center, 1.0 if point_target else float(rng.uniform(0.5, 3.0)) * dx)
    t_start = flow.t_min if flow_kind == "fourier" else float(rng.uniform(0.0, g.dt_snap))
    return (flow, mask if mask is None else _mask(g, mask), target, cfg,
            t_start, t_start + g.t_max)


_solve_cases = dict(
    seed=st.integers(0, 2**31 - 1),
    nx=st.integers(2, 9),
    ny=st.integers(2, 9),
    nt=st.integers(2, 4),
    flow_kind=st.sampled_from(["uniform", "highway", "gyre", "fourier"]),
    obstacles=st.sampled_from(["none", "empty", "random", "wall"]),
    point_target=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(**_solve_cases)
def test_solve_matches_reference_loop(seed, nx, ny, nt, flow_kind, obstacles, point_target):
    """solve_mtr's values equal those of the reference substep loop byte for
    byte, on steady and unsteady flows, with no obstacles or a mask, and on
    point-like targets and two-snapshot grids."""
    case = _solve_case(seed, nx, ny, nt, flow_kind, obstacles, point_target)
    assert solve_mtr(*case).values.tobytes() == solve_mtr_values(*case).tobytes()


@settings(max_examples=150, deadline=None)
@given(**dict(_solve_cases, obstacles=st.sampled_from(["none", "box", "all"]),
              d_max=st.booleans()))
def test_solve_matches_the_rolling_rate_march(seed, nx, ny, nt, flow_kind, obstacles,
                                              point_target, d_max):
    """solve_mtr, which plans every interval's substeps before it marches,
    equals byte for byte the march that rolled the CFL rate from interval to
    interval, wrote the target cells back after the update and pinned the
    obstacles beside the doomed cells, on steady and unsteady flows, with no
    obstacles, a box of them or nothing else, and with d_max > 0."""
    case = _solve_case(seed, nx, ny, nt, flow_kind, obstacles, point_target, d_max)
    want = oracles.rolling_rate_march_values(*case)
    assert solve_mtr(*case).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed, flow_kind", [(3, "uniform"), (11, "gyre"), (5, "fourier")])
def test_solve_matches_reference_loop_with_doomed_cells(seed, flow_kind):
    """Flow onto a wall faster than the vehicle: free cells turn doomed
    during the solve, and the values still equal the reference loop's."""
    case = _solve_case(seed, 9, 6, 4, flow_kind, "wall", False)
    want = solve_mtr_values(*case)
    obst = case[1].mask
    assert ((want[0] >= SENTINEL_THRESHOLD) & ~obst).any()
    assert not ((want[-1] >= SENTINEL_THRESHOLD) & ~obst).any()
    assert solve_mtr(*case).values.tobytes() == want.tobytes()


def test_unsteady_solve_evaluates_forecast_error_once_per_component(monkeypatch):
    """Two unsteady solves on two releases of one series evaluate the
    Fourier basis once, for every release at the first solve, never call the
    truth's sample_many, and sample the truth once per snapshot time (the
    CFL endpoints shared by neighbouring intervals) and once per substep."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=500.0, dy=500.0, nx=21, ny=11,
                      t0=0.0, dt_snap=5000.0, nt=5)
    truth = make_double_gyre(0.16, 2 * math.pi / 86400.0, 0.25, 5000.0)
    series = gen_forecast_series(
        truth, ErrorModelConfig(0.2, 2500.0, 40000.0, seed=0),
        20000.0, 20000.0, (0.0, 20000.0),
    )
    (_, fc), (t_second, second) = series.releases
    counts = {"error": 0, "truth": 0}
    times = []
    real_error = forecast._error_fields
    real_truth = DoubleGyreFlow.sample_many
    real_sampler = DoubleGyreFlow.sampler

    def count_error(kx, ky, amplitude, coefs, *points):
        counts["error"] += 1
        assert len(coefs) == 2  # every release of the series at once
        return real_error(kx, ky, amplitude, coefs, *points)

    def count_truth(self, *args, **kw):
        counts["truth"] += 1
        return real_truth(self, *args, **kw)

    def record_sampler(self, x, y, clamp_time=False):
        inner = real_sampler(self, x, y, clamp_time)

        def sample(t):
            times.append(float(t))
            return inner(t)

        return sample

    monkeypatch.setattr(forecast, "_error_fields", count_error)
    monkeypatch.setattr(DoubleGyreFlow, "sample_many", count_truth)
    monkeypatch.setattr(DoubleGyreFlow, "sampler", record_sampler)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    target = TargetSpec((2000.0, 2000.0), 600.0)
    vf = solve_mtr(fc, None, target, cfg, 0.0, 20000.0)
    assert counts == {"error": 1, "truth": 0}
    n_first = len(times)
    solve_mtr(second, None, target, cfg, t_second, t_second + 20000.0)
    assert counts == {"error": 1, "truth": 0}
    del times[n_first:]  # the first solve's times are checked below

    # the CFL rule, recomputed from sample_many at both interval endpoints;
    # sample_many samples grid-shaped points through sampler, so both are
    # restored first, or the recount would record its own times
    monkeypatch.setattr(DoubleGyreFlow, "sample_many", real_truth)
    monkeypatch.setattr(DoubleGyreFlow, "sampler", real_sampler)
    X, Y = vf.grid.meshgrid()
    pad = cfg.u_max + cfg.d_max

    def rate(t):
        vx, vy = fc.sample_many(X, Y, t)
        return np.max((np.abs(vx) + pad) / g.dx + (np.abs(vy) + pad) / g.dy)

    ts = vf.grid.ts
    substeps = [
        max(1, math.ceil(vf.grid.dt_snap * max(rate(lo), rate(hi)) / CFL))
        for lo, hi in zip(ts[:-1], ts[1:])
    ]
    assert len(times) == len(ts) + sum(substeps)
    for t in ts:
        assert times.count(t) == 1
    for (lo, hi), m in zip(zip(ts[:-1], ts[1:]), substeps):
        assert sum(lo < t < hi for t in times) == m


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), ny=st.integers(1, 12), nx=st.integers(1, 12),
       dx=st.floats(1.0, 1000.0), dy=st.floats(1.0, 1000.0),
       kind=st.sampled_from(["random", "edge", "all"]))
def test_negated_clearance_is_positive_on_the_obstacles_alone(seed, ny, nx, dx, dy, kind):
    """-W's start, min(-clearance, SENTINEL), is > 0 on every obstacle cell
    and < 0 on every free one, so pinning the cells where -W > 0 pins the
    obstacles too: on random masks, masks with a whole edge blocked, masks
    with no free cell, and cells that are not square."""
    rng = np.random.default_rng(seed)
    mask = rng.random((ny, nx)) < rng.uniform(0.05, 0.95)
    if kind == "edge":
        mask[(np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1])[rng.integers(4)]] = True
    elif kind == "all":
        mask[:] = True
    om = ObstacleMask(grid=SpatialGrid(0.0, 0.0, dx, dy, nx, ny), mask=mask)
    minus_w = np.minimum(-om.clearance, SENTINEL)
    assert (minus_w[mask] > 0).all()
    assert (minus_w[~mask] < 0).all()


def test_clearance_is_computed_once_per_mask_at_first_use(monkeypatch):
    """Building a mask computes no distance transform; two solves on it
    compute the clearance pair once, read-only and equal to the difference
    of the two transforms."""
    from driftplan import terrain

    calls = []
    real = terrain.euclidean_distance
    monkeypatch.setattr(terrain, "euclidean_distance",
                        lambda m, dy, dx: calls.append(m.sum()) or real(m, dy, dx))
    g = _grid(nx=21, ny=21)
    X, Y = g.meshgrid()
    om = _mask(g, (X >= 1000.0) & (X <= 2000.0) & (Y >= 1800.0) & (Y <= 2200.0))
    assert calls == []
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    for t_end in (30_000.0, 60_000.0):
        solve_mtr(make_uniform(0.05, 0.0), om, TargetSpec((3000.0, 3000.0), 300.0),
                  cfg, 0.0, t_end)
    assert calls == [om.mask.sum(), (~om.mask).sum()]
    want = real(om.mask, g.dy, g.dx) - real(~om.mask, g.dy, g.dx)
    assert om.clearance.tobytes() == want.tobytes()
    assert not om.clearance.flags.writeable


def _random_value_function(rng, ny, nx, nt, p_sentinel):
    """Random values with sentinel nodes on a grid with a non-zero origin
    and dx != dy."""
    g = SpaceTimeGrid(x0=-300.0, y0=100.0, dx=150.0, dy=250.0, nx=nx, ny=ny,
                      t0=1000.0, dt_snap=700.0, nt=nt)
    values = rng.standard_normal((nt, ny, nx)) * 10.0 ** rng.integers(-2, 6)
    values[rng.random((nt, ny, nx)) < p_sentinel] = 1e10
    return ValueFunction(grid=g, values=values, terminal_time=g.t_max)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ny=st.integers(2, 6),
    nx=st.integers(2, 6),
    nt=st.integers(1, 4),
    p_sentinel=st.floats(0.0, 1.0),
)
def test_value_at_matches_slice_reference(seed, ny, nx, nt, p_sentinel):
    """The 4-corner value_at equals blending the whole slice, byte for byte,
    sentinel corners and queries off the grid included."""
    rng = np.random.default_rng(seed)
    vf = _random_value_function(rng, ny, nx, nt, p_sentinel)
    g = vf.grid
    for _ in range(20):
        x = rng.uniform(g.x0 - 200.0, g.x_max + 200.0)
        y = rng.uniform(g.y0 - 200.0, g.y_max + 200.0)
        if rng.random() < 0.3:  # on a node or a cell edge
            x = g.x0 + g.dx * int(rng.integers(0, nx))
        t = rng.choice([g.t0, g.t_max, rng.uniform(g.t0, g.t_max)])
        got, want = vf.value_at(x, y, t), slice_value_at(vf, x, y, t)
        assert struct.pack("<d", got) == struct.pack("<d", want)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ny=st.integers(2, 6),
    nx=st.integers(2, 6),
    nt=st.integers(1, 4),
    p_sentinel=st.floats(0.0, 1.0),
)
def test_ttr_at_equals_safe_ttr_at_every_node(seed, ny, nx, nt, p_sentinel):
    """At every node, ttr_at is safe_ttr's value, nan where it is nan; a time
    outside the plan's window is clamped into it first."""
    rng = np.random.default_rng(seed)
    vf = _random_value_function(rng, ny, nx, nt, p_sentinel)
    g = vf.grid
    for t in (g.t0 - 500.0, g.t0, rng.uniform(g.t0, g.t_max), g.t_max, g.t_max + 500.0):
        clamped = min(max(t, g.t0), g.t_max)
        got = [[vf.ttr_at(x, y, t) for x in g.xs] for y in g.ys]
        np.testing.assert_array_equal(got, safe_ttr(vf, clamped))


def _stranded_or_bytes(grad, *args):
    try:
        return struct.pack("<2d", *grad(*args))
    except AlreadyStrandedError:
        return "stranded"


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    ny=st.integers(2, 6),
    nx=st.integers(2, 6),
    nt=st.integers(1, 4),
    p_sentinel=st.floats(0.0, 1.0),
)
def test_grid_queries_match_references(seed, ny, nx, nt, p_sentinel):
    """grad_at and is_sentinel_at equal their references byte for byte, on
    and up to one cell off the grid, on nodes and cell edges, at snapshot
    times and half-way between them."""
    rng = np.random.default_rng(seed)
    vf = _random_value_function(rng, ny, nx, nt, p_sentinel)
    g = vf.grid
    for _ in range(20):
        x = rng.uniform(g.x0 - g.dx, g.x_max + g.dx)
        y = rng.uniform(g.y0 - g.dy, g.y_max + g.dy)
        if rng.random() < 0.3:  # on a node, a cell edge or a half-way tie
            x = g.x0 + 0.5 * g.dx * int(rng.integers(-2, 2 * nx + 1))
        if rng.random() < 0.3:
            y = g.y0 + 0.5 * g.dy * int(rng.integers(-2, 2 * ny + 1))
        k = int(rng.integers(0, nt))
        t = rng.choice([g.ts[k], g.ts[k] + 0.5 * g.dt_snap * (k < nt - 1),
                        rng.uniform(g.t0, g.t_max)])
        assert vf.is_sentinel_at(x, y, t) == oracles.is_sentinel_at(vf, x, y, t)
        assert (_stranded_or_bytes(vf.grad_at, x, y, t)
                == _stranded_or_bytes(oracles.grad_at, vf, x, y, t))


def test_point_queries_on_negative_zeros_match_references():
    """Corner sums start from 0.0, as numpy's do: a -0.0 slice blends to
    +0.0, beside a sentinel node too."""
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=100.0, dy=100.0, nx=3, ny=3,
                      t0=0.0, dt_snap=50.0, nt=2)
    values = np.full((2, 3, 3), -0.0)
    values[:, 2, 2] = 1e10
    vf = ValueFunction(grid=g, values=values, terminal_time=50.0)
    for x, y, t in [(30.0, 40.0, 0.0), (150.0, 120.0, 20.0), (100.0, 200.0, 50.0)]:
        got, want = vf.value_at(x, y, t), slice_value_at(vf, x, y, t)
        assert struct.pack("<d", got) == struct.pack("<d", want) == struct.pack("<d", 0.0)
        assert (_stranded_or_bytes(vf.grad_at, x, y, t)
                == _stranded_or_bytes(oracles.grad_at, vf, x, y, t))


def test_point_queries_allocate_no_slice():
    """grad_at, value_at and is_sentinel_at read only the nodes around the
    query point: on a 2001 x 2001 grid none allocates more than 64 KiB,
    where one gradient slice would take 32 MB."""
    n = 2001
    g = SpaceTimeGrid(x0=0.0, y0=0.0, dx=10.0, dy=10.0, nx=n, ny=n,
                      t0=0.0, dt_snap=100.0, nt=2)
    values = np.zeros((2, n, n))
    values[:, 1000, 1001] = 1e10  # a sentinel corner beside the query
    values[1, 999, 1000] = 3.0
    vf = ValueFunction(grid=g, values=values, terminal_time=100.0)
    tracemalloc.start()
    try:
        for query in (vf.grad_at, vf.value_at, vf.is_sentinel_at) * 2:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            query(10003.0, 9995.0, 40.0)
            assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
    finally:
        tracemalloc.stop()
