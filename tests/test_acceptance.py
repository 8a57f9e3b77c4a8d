"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Each test prints ``[PASS]``/``[FAIL]`` with its headline numbers so the
suite output doubles as a verification report. Heavy statistical runs use
fixed seeds and are deterministic.
"""

import json
import time

import numpy as np
import pytest
from scipy import ndimage

from driftplan.cli import main as cli_main
from driftplan.controllers import ControllerKind, mtr_policy
from driftplan.flowfield import SpaceTimeGrid, make_highway, make_uniform
from driftplan.forecast import ErrorModelConfig, gen_forecast_series
from driftplan.hjsolver import SolverConfig, TargetSpec, safe_ttr, solve_mtr
from driftplan.missions import SamplingConstraints, sample_missions
from driftplan.simulator import (
    BatchSpec,
    Mission,
    Outcome,
    SimConfig,
    run_batch,
    tally_outcomes,
)
from driftplan.stats import vector_rmse, z_prop_test
from driftplan.terrain import (
    ObstacleMask,
    SpatialGrid,
    coarsen_max,
    distance_map,
    obstacle_mask,
)
from oracles import dp_backward_ttr, dp_ttr_map

U_MAX = 0.1
SENT = 1e10


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _spatial(grid: SpaceTimeGrid) -> SpatialGrid:
    return SpatialGrid(grid.x0, grid.y0, grid.dx, grid.dy, grid.nx, grid.ny)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_statistics_reproduction():
    """Reference stranding-count z-tests reproduce to 2 significant figures."""
    t0 = time.time()
    expected = {11: 3.1e-8, 15: 9.3e-7, 22: 9.5e-5, 29: 2.6e-3}
    got = {k: z_prop_test(54, 1146, k, 1146).p for k in expected}
    ok = all(float(f"{got[k]:.1e}") == pytest.approx(expected[k], rel=1e-9)
             for k in expected)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report("criterion-1 statistics",
            ok, f"p={[f'{got[k]:.2e}' for k in sorted(got)]} "
                f"({elapsed:.3f} s)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_eikonal_convergence():
    """Zero-current solve matches distance/u_max within 5% on a 200x200
    grid, with first-order convergence under grid refinement."""
    t0 = time.time()
    errors = {}
    for dx in (100.0, 50.0, 25.0):
        n = int(round(10000.0 / dx)) + 1
        g = SpaceTimeGrid(x0=-5000.0, y0=-5000.0, dx=dx, dy=dx, nx=n, ny=n,
                          t0=0.0, dt_snap=2000.0, nt=46)
        cfg = SolverConfig(grid=g, u_max=U_MAX)
        vf = solve_mtr(make_uniform(0.0, 0.0), None,
                       TargetSpec((0.0, 0.0), 500.0), cfg, 0.0, g.t_max)
        ttr = safe_ttr(vf, 0.0)
        X, Y = g.meshgrid()
        r = np.hypot(X, Y)
        true = np.maximum(r - 500.0, 0.0) / U_MAX
        m = (r >= 1000.0) & np.isfinite(ttr)
        errors[dx] = np.max(np.abs(ttr[m] - true[m]) / true[m])
    r1 = errors[100.0] / errors[50.0]
    r2 = errors[50.0] / errors[25.0]
    elapsed = time.time() - t0
    ok = (errors[50.0] <= 0.05
          and 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6
          and elapsed < 60.0)
    _report("criterion-2 eikonal",
            ok, f"Linf rel err {errors[100.0]:.3f}/{errors[50.0]:.3f}/"
                f"{errors[25.0]:.3f} at dx=100/50/25, ratios "
                f"{r1:.2f}, {r2:.2f} ({elapsed:.1f} s)")


# ---------------------------------------------------------------- criterion 3

def _dp_compare(flow, obst, grid, tgt_center, tgt_radius):
    cfg = SolverConfig(grid=grid, u_max=U_MAX)
    om = (ObstacleMask(grid=_spatial(grid), mask=obst)
          if obst is not None and obst.any() else None)
    tgt = TargetSpec(center=tgt_center, radius=tgt_radius)
    vf = solve_mtr(flow, om, tgt, cfg, grid.t0, grid.t_max)
    X, Y = grid.meshgrid()
    tmask = np.hypot(X - tgt_center[0], Y - tgt_center[1]) <= tgt_radius
    ob = obst if obst is not None else np.zeros((grid.ny, grid.nx), bool)
    V = dp_backward_ttr(flow, grid, ob, tmask, U_MAX)
    t = grid.ts[0]
    ttr_pde = safe_ttr(vf, t)
    ttr_dp = dp_ttr_map(V[0], t, grid.t_max)
    sent_agree = np.mean((vf.values[0] >= 0.5 * SENT) == (V[0] >= 0.5 * SENT))
    both = np.isfinite(ttr_pde) & np.isfinite(ttr_dp)
    diff = np.abs(ttr_pde - ttr_dp)[both]
    # two combined truncation bounds: one forward-Euler DP step plus one
    # cell traverse per scheme, plus the DP nearest-node control-speed
    # quantization that accumulates proportionally to the transit time
    diag = np.hypot(grid.dx, grid.dy)
    quant = min(diag / (2.0 * U_MAX * grid.dt_snap), np.sqrt(2.0) - 1.0)
    tol = 2.0 * (grid.dt_snap + diag / U_MAX) + quant * ttr_dp[both]
    return diff.max(), np.max(diff - tol), sent_agree


def test_criterion_3_dp_oracle_equivalence():
    """Solver TTR matches brute-force backward dynamic programming on
    zero-current, uniform-current, and band-into-wall scenarios."""
    t0 = time.time()
    g1 = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=25, ny=25,
                       t0=0.0, dt_snap=6000.0, nt=40)
    g2 = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=25, ny=25,
                       t0=0.0, dt_snap=2000.0, nt=40)
    X, Y = g2.meshgrid()
    wall = (X >= 4000.0) & (Y >= 1600.0) & (Y <= 3200.0)
    cases = {
        "zero": (make_uniform(0.0, 0.0), None, g1, (2400.0, 2400.0)),
        "uniform": (make_uniform(0.05, 0.02), None, g1, (2400.0, 2400.0)),
        "highway": (make_highway(1600.0, 3200.0, (0.3, 0.0)), wall, g2,
                    (800.0, 800.0)),
    }
    ok = True
    details = []
    for name, (flow, ob, g, ctr) in cases.items():
        maxdiff, excess, agree = _dp_compare(flow, ob, g, ctr, 300.0)
        ok &= excess <= 0.0 and agree >= 0.95
        details.append(f"{name}: maxdiff={maxdiff:.0f}s "
                       f"margin={-excess:.0f}s mask={agree:.1%}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report("criterion-3 dp-oracle", ok,
            "; ".join(details) + f" ({elapsed:.1f} s)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_closed_loop_safety_on_truth():
    """With the true currents, the reachability controller strands 0/200
    feasible missions while passive drifters strand on 100% of in-band
    starts."""
    t0 = time.time()
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    truth = make_highway(4000.0, 6000.0, (0.4, 0.0))
    X, Y = g.meshgrid()
    wall = X >= 8600.0
    om = ObstacleMask(grid=_spatial(g), mask=wall)
    dmap = distance_map(om)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    target = TargetSpec((2000.0, 2000.0), 300.0)
    T = 90000.0

    vf = solve_mtr(truth, om, target, cfg, 0.0, T)
    tm = safe_ttr(vf, 0.0)
    sent0 = vf.values[0] >= 0.5 * SENT
    near_sent = ndimage.binary_dilation(sent0, iterations=2)
    feasible = (np.isfinite(tm) & ~near_sent & ~wall
                & (tm > 0) & (tm < 0.7 * T))

    rng = np.random.default_rng(7)
    cand = np.argwhere(feasible)
    sel = cand[rng.choice(len(cand), size=200, replace=False)]
    missions = [
        Mission(x0=float(X[j, i]), y0=float(Y[j, i]), t0=0.0, target=target,
                t_max=float(max(1.5 * tm[j, i], 20000.0)))
        for j, i in sel
    ]
    sim = SimConfig(step_dt=300.0, region=(0.0, 10000.0, 0.0, 10000.0))
    spec = BatchSpec(kind=ControllerKind.MTR, solver_config=cfg, obstacles=om,
                     dmap=dmap, cadence=1e9, horizon=T)
    mtr_tally = tally_outcomes(run_batch(missions, truth, spec, sim,
                                         master_seed=1))

    rng2 = np.random.default_rng(11)
    fmiss = [Mission(x0=rng2.uniform(1000.0, 7000.0),
                     y0=rng2.uniform(4200.0, 5800.0),
                     t0=0.0, target=target, t_max=40000.0)
             for _ in range(100)]
    fspec = BatchSpec(kind=ControllerKind.FLOATING, solver_config=cfg,
                      obstacles=om, dmap=dmap, cadence=1e9, horizon=T)
    float_tally = tally_outcomes(run_batch(fmiss, truth, fspec, sim,
                                           master_seed=2))
    elapsed = time.time() - t0
    ok = (mtr_tally["n_stranded"] == 0
          and mtr_tally["n_success"] == 200
          and float_tally["n_stranded"] == 100
          and elapsed < 600.0)
    _report("criterion-4 safety-on-truth", ok,
            f"planner stranded {mtr_tally['n_stranded']}/200 "
            f"(success {mtr_tally['n_success']}), floating stranded "
            f"{float_tally['n_stranded']}/100 in-band ({elapsed:.0f} s)")


# ---------------------------------------------------------------- criterion 5

@pytest.mark.slow
def test_criterion_5_forecast_error_regime():
    """With forecast error at twice the actuation speed, the
    obstacle-aware planner strands significantly less often than both the
    obstacle-blind planner and passive drifting (one-sided p < 0.05)."""
    t0 = time.time()
    N = 500
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    truth = make_uniform(0.05, -0.08)
    X, Y = g.meshgrid()
    island = (X >= 3000.0) & (X <= 7000.0) & (Y >= 4600.0) & (Y <= 5400.0)
    om = ObstacleMask(grid=_spatial(g), mask=island)
    dmap = distance_map(om)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    em = ErrorModelConfig(target_rmse=0.2, spatial_correlation_length=2500.0,
                          temporal_correlation=40000.0, n_modes=24, seed=0)

    # calibration check: realized vector RMSE across seeds and space
    rng = np.random.default_rng(5)
    tru, fcv = [], []
    for s in range(30):
        ser = gen_forecast_series(
            truth, ErrorModelConfig(0.2, 2500.0, 40000.0, 24, seed=s),
            20000.0, 50000.0, (0.0, 60000.0))
        fc = ser.releases[0][1]
        xs = rng.uniform(0, 10000, 200)
        ys = rng.uniform(0, 10000, 200)
        tu, tv = truth.sample_many(xs, ys, 0.0)
        fu, fv = fc.sample_many(xs, ys, 0.0)
        tru.append(np.stack([tu, tv], -1))
        fcv.append(np.stack([fu, fv], -1))
    rmse = vector_rmse(np.concatenate(tru), np.concatenate(fcv))

    rng = np.random.default_rng(42)
    missions = []
    for _ in range(N):
        xs_ = rng.uniform(1500.0, 8500.0)
        ys_ = rng.uniform(6500.0, 8500.0)
        xt = float(np.clip(xs_ + rng.uniform(-2500.0, 2500.0), 1500.0, 8500.0))
        yt = rng.uniform(1500.0, 3000.0)
        missions.append(Mission(x0=float(xs_), y0=float(ys_), t0=0.0,
                                target=TargetSpec((xt, yt), 300.0),
                                t_max=60000.0))
    sim = SimConfig(step_dt=600.0, region=(0.0, 10000.0, 0.0, 10000.0))
    strand = {}
    for kind in (ControllerKind.MTR, ControllerKind.MTR_NO_OBS,
                 ControllerKind.FLOATING):
        spec = BatchSpec(kind=kind, solver_config=cfg, obstacles=om,
                         dmap=dmap, error_model=em, cadence=20000.0,
                         horizon=50000.0)
        recs = run_batch(missions, truth, spec, sim, master_seed=9)
        strand[kind.value] = tally_outcomes(recs)["n_stranded"]

    p_noobs = z_prop_test(strand["mtr_no_obs"], N, strand["mtr"], N).p
    p_float = z_prop_test(strand["floating"], N, strand["mtr"], N).p
    elapsed = time.time() - t0
    ok = (abs(rmse - 0.2) <= 0.02
          and strand["mtr"] < strand["mtr_no_obs"]
          and strand["mtr"] < strand["floating"]
          and p_noobs < 0.05 and p_float < 0.05
          and elapsed < 7200.0)
    _report("criterion-5 forecast-error", ok,
            f"RMSE {rmse:.3f}; stranded/500: planner {strand['mtr']}, "
            f"blind {strand['mtr_no_obs']} (p={p_noobs:.1e}), floating "
            f"{strand['floating']} (p={p_float:.1e}) ({elapsed:.0f} s)")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_safe_ttr_identity():
    """Remaining time D* equals T + J - t to machine precision wherever
    the value function is non-positive, on every solve output checked."""
    solves = []
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    tgt = TargetSpec((2000.0, 2000.0), 300.0)
    X, _ = g.meshgrid()
    om = ObstacleMask(grid=_spatial(g), mask=X >= 8600.0)
    solves.append(solve_mtr(make_uniform(0.0, 0.0), None, tgt, cfg, 0.0, g.t_max))
    solves.append(solve_mtr(make_uniform(0.05, -0.08), om, tgt, cfg, 0.0, g.t_max))
    solves.append(solve_mtr(make_highway(4000.0, 6000.0, (0.4, 0.0)), om, tgt,
                            cfg, 0.0, g.t_max))
    worst = 0.0
    for vf in solves:
        for t in vf.grid.ts:
            sl = vf.slice_at(t)
            tm = safe_ttr(vf, t)
            reach = sl <= 0
            expect = np.maximum(vf.terminal_time + sl[reach] - t, 0.0)
            err = np.abs(tm[reach] - expect)
            if err.size:
                worst = max(worst, float(err.max()))
            if np.any(~np.isnan(tm[~reach])):
                worst = np.inf
    ok = worst == 0.0
    _report("criterion-6 ttr-identity", ok,
            f"max |D* - (T + J - t)| = {worst} over "
            f"{sum(len(v.grid.ts) for v in solves)} slices")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_policy_invariants():
    """Every control is off or full-speed, and the descent heading matches
    exhaustive 360-way Hamiltonian minimization on 1000 sampled states."""
    g = SpaceTimeGrid(x0=0, y0=0, dx=200.0, dy=200.0, nx=51, ny=51,
                      t0=0.0, dt_snap=3000.0, nt=31)
    truth = make_highway(4000.0, 6000.0, (0.4, 0.0))
    X, _ = g.meshgrid()
    om = ObstacleMask(grid=_spatial(g), mask=X >= 8600.0)
    cfg = SolverConfig(grid=g, u_max=U_MAX)
    vf = solve_mtr(truth, om, TargetSpec((2000.0, 2000.0), 300.0), cfg,
                   0.0, g.t_max)
    bins = np.linspace(0.0, 2 * np.pi, 361)[:-1]
    rng = np.random.default_rng(17)
    checked = 0
    worst_bin = 0.0
    while checked < 1000:
        x = rng.uniform(200.0, 9800.0)
        y = rng.uniform(200.0, 9800.0)
        t = rng.uniform(0.0, g.t_max)
        if vf.is_sentinel_at(x, y, t):
            continue
        u = mtr_policy(vf, x, y, t, U_MAX)
        assert u.magnitude in (0.0, U_MAX)
        if u.magnitude == 0.0:
            checked += 1
            continue
        gx, gy = vf.grad_at(x, y, t)
        ham = U_MAX * (np.cos(bins) * gx + np.sin(bins) * gy)
        best = bins[int(np.argmin(ham))]
        diff = abs((u.theta - best + np.pi) % (2 * np.pi) - np.pi)
        worst_bin = max(worst_bin, diff / (2 * np.pi / 360))
        checked += 1
    ok = worst_bin <= 1.0 + 1e-9
    _report("criterion-7 policy", ok,
            f"1000 states: |u| in {{0, u_max}} exact, max heading error "
            f"{worst_bin:.3f} angular bins")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_batch_determinism(tmp_path):
    """Batch summary JSON is byte-identical across worker counts."""
    cfg = {
        "seed": 7,
        "scenario": {
            "flow": {"kind": "highway", "y1": 4000.0, "y2": 6000.0,
                     "band_velocity": [0.4, 0.0]},
            "terrain": {
                "kind": "synthetic",
                "grid": {"x0": 0, "y0": 0, "dx": 200.0, "dy": 200.0,
                         "nx": 51, "ny": 51},
                "blocks": [[8600.0, 10000.0, 0.0, 10000.0, 0.0]],
            },
            "region": [0.0, 10000.0, 0.0, 10000.0],
        },
        "solver": {
            "grid": {"t0": 0.0, "dt_snap": 3000.0, "nt": 31},
            "u_max": U_MAX,
        },
        "forecast": {"target_rmse": 0.05,
                     "spatial_correlation_length": 2500.0,
                     "temporal_correlation": 40000.0, "n_modes": 8,
                     "cadence": 30000.0, "horizon": 90000.0},
        "missions": {"min_boundary_dist": 1000.0, "min_obstacle_dist": 1500.0,
                     "max_obstacle_dist": 9000.0, "target_radius": 300.0,
                     "ttr_window": [10000.0, 80000.0],
                     "final_time_horizon": [80000.0, 90000.0],
                     "t_max": 90000.0},
        "controllers": ["mtr", "floating"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["sample-missions", "--config", str(cfg_path),
                     "--n", "5", "--out", str(tmp_path / "m")]) == 0
    manifest = str(tmp_path / "m" / "missions.jsonl")
    blobs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        assert cli_main(["batch", "--config", str(cfg_path),
                         "--missions", manifest, "--out", str(out),
                         "--workers", str(workers)]) == 0
        blobs.append((out / "batch_summary.json").read_bytes())
    ok = blobs[0] == blobs[1]
    _report("criterion-8 determinism", ok,
            f"batch summary byte-identical across 1 and 3 workers "
            f"({len(blobs[0])} bytes)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_terrain_properties():
    """Coarsening conservativity and the discrete-Eikonal distance
    property hold on 100 randomized grids."""
    t0 = time.time()
    rng = np.random.default_rng(23)
    from driftplan.terrain import ElevationGrid, distance_map as dmap_fn

    for trial in range(100):
        ny = int(rng.integers(2, 13))
        nx = int(rng.integers(2, 13))
        factor = int(rng.integers(1, 5))
        arr = rng.uniform(-400.0, 100.0, size=(ny, nx))
        e = ElevationGrid(grid=SpatialGrid(0.0, 0.0, 100.0, 100.0, nx, ny),
                          elevation=arr)
        fine = obstacle_mask(e, threshold=-150.0)
        coarse = obstacle_mask(coarsen_max(e, factor), threshold=-150.0)
        for j in range(ny):
            for i in range(nx):
                if fine.mask[j, i]:
                    assert coarse.mask[j // factor, i // factor], \
                        "coarsening dropped an obstacle cell"
        mask = rng.random((ny, nx)) < rng.uniform(0.1, 0.6)
        if not mask.any():
            mask[0, 0] = True
        d = dmap_fn(ObstacleMask(
            grid=SpatialGrid(0.0, 0.0, 100.0, 100.0, nx, ny),
            mask=mask)).distance
        assert np.all(d[mask] == 0.0)
        for j in range(ny):
            for i in range(nx):
                if mask[j, i]:
                    continue
                nbrs = [d[j, i - 1]] if i > 0 else []
                if i < nx - 1:
                    nbrs.append(d[j, i + 1])
                if j > 0:
                    nbrs.append(d[j - 1, i])
                if j < ny - 1:
                    nbrs.append(d[j + 1, i])
                assert d[j, i] == min(nbrs) + 100.0, \
                    "distance map violates the discrete-Eikonal step"
    elapsed = time.time() - t0
    ok = elapsed < 10.0
    _report("criterion-9 terrain", ok,
            f"100 randomized grids: conservative coarsening and "
            f"discrete-Eikonal distances hold ({elapsed:.1f} s)")
