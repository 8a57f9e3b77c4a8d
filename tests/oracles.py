"""Independent brute-force oracles and the scalar references that
vectorised code paths are checked against.

The dynamic program below never touches the solver's numerics: it walks
grid states backward in time with nearest-node transitions and the same
frozen target/obstacle semantics, minimizing over a discrete set of
headings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from driftplan.errors import AlreadyStrandedError, ExtentError, HorizonError
from driftplan.flowfield import FlowSource
from driftplan.gridio import euclidean_distance
from driftplan.hjsolver import (
    ALPHA,
    CFL,
    SENTINEL,
    SENTINEL_THRESHOLD,
    _target_masks,
)
from driftplan.simulator import DriftEnd, integrate_step


def dp_backward_ttr(
    flow,
    grid,                    # SpaceTimeGrid: spatial nodes + snapshot times
    obstacle_mask,           # (ny, nx) bool
    target_mask,             # (ny, nx) bool
    u_max: float,
    sentinel: float = 1e10,
    alpha: float = 1.0,
    n_headings: int = 16,
    d_max: float = 0.0,
):
    """Backward DP over grid states; returns V (nt, ny, nx).

    Controls: n_headings full-speed headings plus drift-only, with the
    worst-case disturbance folded into an effective speed u_max - d_max.
    Terminal cost: sentinel on obstacles, Euclidean distance to the
    target set elsewhere. TTR at slice k is T + V[k] - t_k where V <= 0.
    """
    xs, ys, ts = grid.xs, grid.ys, grid.ts
    X, Y = np.meshgrid(xs, ys)
    ny, nx = X.shape
    nt = len(ts)
    u_eff = max(u_max - d_max, 0.0)

    tgt_pts = np.argwhere(target_mask)
    dist = np.full((ny, nx), np.inf)
    for j, i in tgt_pts:
        d = np.hypot(X - xs[i], Y - ys[j])
        dist = np.minimum(dist, d)

    V = np.where(obstacle_mask, sentinel, dist)
    out = np.empty((nt, ny, nx))
    out[nt - 1] = V
    headings = 2.0 * np.pi * np.arange(n_headings) / n_headings
    actions = [(0.0, 0.0)] + [
        (u_eff * np.cos(h), u_eff * np.sin(h)) for h in headings
    ]
    free = ~obstacle_mask
    tgt_free = target_mask & free
    plain = free & ~target_mask

    for k in range(nt - 2, -1, -1):
        dt = ts[k + 1] - ts[k]
        vx, vy = flow.sample_many(X, Y, ts[k])
        best = np.full((ny, nx), np.inf)
        Vn = out[k + 1]
        for ux, uy in actions:
            nxp = X + (vx + ux) * dt
            nyp = Y + (vy + uy) * dt
            ii = np.clip(np.rint((nxp - xs[0]) / grid.dx).astype(int), 0, nx - 1)
            jj = np.clip(np.rint((nyp - ys[0]) / grid.dy).astype(int), 0, ny - 1)
            best = np.minimum(best, Vn[jj, ii])
        V = np.where(obstacle_mask, sentinel,
                     np.where(tgt_free, Vn - alpha * dt, best))
        V = np.minimum(V, sentinel)
        out[k] = V
    return out


def dp_ttr_map(V_slice, t, terminal_time, sentinel=1e10):
    """TTR map from one DP value slice; nan where the target is not
    reachable, +inf convention not used."""
    ttr = terminal_time + V_slice - t
    ttr = np.where(V_slice <= 0, np.maximum(ttr, 0.0), np.nan)
    return ttr


def central_divergence(flow, x, y, t, h=1.0):
    """Finite-difference divergence of a flow field at one point."""
    up, _ = flow.sample(x + h, y, t)
    um, _ = flow.sample(x - h, y, t)
    _, vp = flow.sample(x, y + h, t)
    _, vm = flow.sample(x, y - h, t)
    return (up - um) / (2 * h) + (vp - vm) / (2 * h)


def _roll_neighbors(J, valid, axis):
    """Neighbor values and validity by periodic roll, with the wrapped-in
    edge marked invalid."""
    Jm = np.roll(J, 1, axis=axis)
    Jp = np.roll(J, -1, axis=axis)
    vm = np.roll(valid, 1, axis=axis)
    vp = np.roll(valid, -1, axis=axis)
    lo = [slice(None)] * J.ndim
    hi = [slice(None)] * J.ndim
    lo[axis] = 0
    hi[axis] = -1
    vm[tuple(lo)] = False
    vp[tuple(hi)] = False
    return Jm, Jp, vm, vp


def roll_one_sided_diffs(J, valid, h, axis):
    """Reference (D-, D+) with invalid sides zeroed, built on np.roll."""
    Jm, Jp, vm, vp = _roll_neighbors(J, valid, axis)
    dm = np.where(vm, (J - Jm) / h, 0.0)
    dp = np.where(vp, (Jp - J) / h, 0.0)
    return dm, dp


def roll_masked_central_diff(J, valid, h, axis):
    """Reference sentinel-aware central difference, built on np.roll."""
    Jm, Jp, vm, vp = _roll_neighbors(J, valid, axis)
    dm = (J - Jm) / h
    dp = (Jp - J) / h
    both = vm & vp
    out = np.zeros_like(J)
    out[both] = 0.5 * (dm + dp)[both]
    only_m = vm & ~vp
    only_p = vp & ~vm
    out[only_m] = dm[only_m]
    out[only_p] = dp[only_p]
    out[~valid] = 0.0
    return out


def bfs_hops(mask):
    """Reference 4-connected hop counts from every True cell, by
    multi-source BFS; -1 everywhere when the mask is empty."""
    hops = np.full(mask.shape, -1, dtype=np.int64)
    q = deque()
    for j, i in np.argwhere(mask):
        hops[j, i] = 0
        q.append((int(j), int(i)))
    ny, nx = mask.shape
    while q:
        j, i = q.popleft()
        h = hops[j, i] + 1
        for jj, ii in ((j - 1, i), (j + 1, i), (j, i - 1), (j, i + 1)):
            if 0 <= jj < ny and 0 <= ii < nx and hops[jj, ii] < 0:
                hops[jj, ii] = h
                q.append((jj, ii))
    return hops


def scipy_euclidean_distance(marked, dy, dx):
    """scipy's Euclidean distance transform, to the nearest marked cell,
    which ``gridio.euclidean_distance`` replaces. scipy is imported here, so
    the other oracles serve where it is not installed."""
    from scipy import ndimage

    return ndimage.distance_transform_edt(~marked, sampling=(dy, dx))


def brute_euclidean_distance(marked, dy, dx):
    """The Euclidean distance to the nearest marked cell by brute force: the
    square root of the least float64 ``(dr*dy)**2 + (dc*dx)**2`` over every
    marked cell, which ``gridio.euclidean_distance`` takes from one candidate
    per row or column."""
    rows, cols = np.indices(marked.shape)
    d2 = np.full(marked.shape, np.inf)
    for r, c in np.argwhere(marked):
        np.minimum(d2, np.square((rows - r) * dy) + np.square((cols - c) * dx), out=d2)
    return np.sqrt(d2)


def scipy_taxicab_distance(marked):
    """scipy's 4-connected chamfer transform, to the nearest marked cell,
    which ``gridio.taxicab_distance`` replaces."""
    from scipy import ndimage

    return ndimage.distance_transform_cdt(~marked, metric="taxicab")


def _in_region(x, y, region):
    xmin, xmax, ymin, ymax = region
    return xmin <= x <= xmax and ymin <= y <= ymax


def stranding_study_loop(region, truth, obstacles, n, horizon, seed=0,
                         t_range=(0.0, 0.0), step_dt=600.0):
    """Reference stranding study, one particle at a time through the scalar
    ``integrate_step``. Returns the study dict and each particle's end
    (x, y, DriftEnd)."""
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = region
    heat = np.zeros((obstacles.grid.ny, obstacles.grid.nx), dtype=np.int64)
    ends = []
    # every start time is drawn before the first position
    ts = [rng.uniform(*t_range) if t_range[1] > t_range[0] else t_range[0] for _ in range(n)]
    for t in ts:
        while True:
            x = rng.uniform(xmin, xmax)
            y = rng.uniform(ymin, ymax)
            if not obstacles.contains(x, y):
                break
        t_end = t + horizon
        status = DriftEnd.SURVIVED
        while t < t_end - 1e-9:
            try:
                x, y = integrate_step((x, y), (0.0, 0.0), truth, t, step_dt)
            except ExtentError:
                status = DriftEnd.LEFT_REGION
                break
            t += step_dt
            if obstacles.contains(x, y):
                status = DriftEnd.STRANDED
                break
            if not _in_region(x, y, region):
                status = DriftEnd.LEFT_REGION
                break
        if status is DriftEnd.STRANDED:
            j, i = obstacles.grid.nearest_cell(x, y)
            heat[j, i] += 1
        ends.append((x, y, status))
    n_stranded = sum(e[2] is DriftEnd.STRANDED for e in ends)
    n_left = sum(e[2] is DriftEnd.LEFT_REGION for e in ends)
    study = {
        "n": n,
        "n_stranded": n_stranded,
        "n_left_region": n_left,
        "n_survived": n - n_stranded - n_left,
        "stranded_rate": n_stranded / n,
        "left_region_rate": n_left / n,
        "heatmap": heat,
    }
    return study, ends


def slice_value_at(vf, x, y, t):
    """Reference ``ValueFunction.value_at`` that blends the full slice at t."""
    sl = vf.slice_at(t)
    g = vf.grid
    fx = np.clip((x - g.x0) / g.dx, 0.0, g.nx - 1.0)
    fy = np.clip((y - g.y0) / g.dy, 0.0, g.ny - 1.0)
    i0 = min(int(fx), g.nx - 2)
    j0 = min(int(fy), g.ny - 2)
    wx, wy = fx - i0, fy - j0
    corners = np.array(
        [sl[j0, i0], sl[j0, i0 + 1], sl[j0 + 1, i0], sl[j0 + 1, i0 + 1]]
    )
    weights = np.array(
        [(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy]
    )
    ok = corners < SENTINEL_THRESHOLD
    if not ok.any():
        return SENTINEL
    wsum = weights[ok].sum()
    if wsum <= 0:
        return SENTINEL if not ok[int(np.argmax(weights))] else float(
            corners[int(np.argmax(weights))]
        )
    return float((corners[ok] * weights[ok]).sum() / wsum)


def avoidance_w_step(W, vx, vy, u_eff, dx, dy, dt):
    """Reference obstacle-avoidance substep on W itself: the sign-flipped
    upwind stencil, where the avoidance control climbs toward larger
    clearance, and a running minimum."""
    wt = np.ones_like(W, dtype=bool)
    wxm, wxp = roll_one_sided_diffs(W, wt, dx, axis=1)
    wym, wyp = roll_one_sided_diffs(W, wt, dy, axis=0)
    adv_wx = np.where(vx > 0, wxp, wxm)
    adv_wy = np.where(vy > 0, wyp, wym)
    ewx = np.maximum(np.maximum(wxp, -wxm), 0.0)
    ewy = np.maximum(np.maximum(wyp, -wym), 0.0)
    ham_w = vx * adv_wx + vy * adv_wy + u_eff * np.hypot(ewx, ewy)
    return W + dt * np.minimum(0.0, ham_w)


def upwind_hamiltonian(J, valid, vx, vy, u_eff, dx, dy):
    """Reference ``hjsolver._hamiltonian``: each term in a fresh array, on
    the np.roll differences."""
    dxm, dxp = roll_one_sided_diffs(J, valid, dx, axis=-1)
    dym, dyp = roll_one_sided_diffs(J, valid, dy, axis=-2)
    adv_x = np.where(vx > 0, dxp, dxm)
    adv_y = np.where(vy > 0, dyp, dym)
    ex = np.maximum(np.maximum(dxm, -dxp), 0.0)
    ey = np.maximum(np.maximum(dym, -dyp), 0.0)
    return vx * adv_x + vy * adv_y - u_eff * np.hypot(ex, ey)


def solve_mtr_values(flow, obstacles, target, config, t_start, terminal_time):
    """Reference ``solve_mtr(...).values`` for a valid problem: the clearance
    computed per solve, and every substep recomputes the blocked set before
    its update, masks the target cells with booleans, and pins the blocked
    and the newly doomed cells at the sentinel one after the other."""
    g = config.grid
    out_grid = g.spanning(t_start, terminal_time)
    n_snap, dt_eff = out_grid.nt, out_grid.dt_snap
    obst = obstacles.mask if obstacles is not None else np.zeros((g.ny, g.nx), dtype=bool)
    X, Y = out_grid.meshgrid()
    tgt_mask, terminal_dist = _target_masks(out_grid, target, X, Y)
    u_eff = max(config.u_max - config.d_max, 0.0)
    diss_pad = config.u_max + config.d_max
    have_obst = obst.any()
    S = np.empty((2 if have_obst else 1, g.ny, g.nx))
    S[0] = np.where(obst, SENTINEL, terminal_dist)
    if have_obst:
        clearance = euclidean_distance(obst, g.dy, g.dx) - euclidean_distance(~obst, g.dy, g.dx)
        S[1] = np.minimum(-clearance, SENTINEL)
    valid = np.ones(S.shape, dtype=bool)
    values = np.empty((n_snap, g.ny, g.nx))
    values[n_snap - 1] = S[0]
    ts = out_grid.ts
    tgt_free = tgt_mask & ~obst

    def cfl_rate(vx, vy):
        return float(np.max((np.abs(vx) + diss_pad) / g.dx + (np.abs(vy) + diss_pad) / g.dy))

    sample = flow.sampler(X, Y)
    vx, vy = sample(ts[-1])
    rate_hi = cfl_rate(vx, vy)
    for k in range(n_snap - 2, -1, -1):
        t_hi = ts[k + 1]
        if flow.is_steady:
            rate = rate_hi
        else:
            rate_lo = cfl_rate(*sample(ts[k]))
            rate = max(rate_hi, rate_lo)
            rate_hi = rate_lo
        m = 1 if rate <= 0 else max(1, int(math.ceil(dt_eff * rate / CFL)))
        dt = dt_eff / m
        for s in range(m):
            if not flow.is_steady:
                vx, vy = sample(t_hi - s * dt - 0.5 * dt)
            blocked = obst | (S[1] > 0) if have_obst else obst
            valid[0] = (S[0] < SENTINEL_THRESHOLD) & ~blocked
            H = upwind_hamiltonian(S, valid, vx, vy, u_eff, g.dx, g.dy)
            if have_obst:
                np.maximum(0.0, H[1], out=H[1])
            J_tgt = S[0][tgt_free] - ALPHA * dt
            H *= dt
            S += H
            J = S[0]
            J[tgt_free] = J_tgt
            np.minimum(J, SENTINEL, out=J)
            J[blocked] = SENTINEL
            if have_obst:
                J[S[1] > 0] = SENTINEL
        values[k] = S[0]
    return values


def rolling_rate_march_values(flow, obstacles, target, config, t_start, terminal_time):
    """Reference ``solve_mtr(...).values`` for a valid problem, with no plan
    of its substeps: the CFL rate is sampled at each snapshot time as the
    march reaches it and rolled from one interval to the next, the
    velocities fill every layer of the state, the target cells are read and
    written back by flat index around the update, and the obstacles are
    pinned beside the doomed cells."""
    g = config.grid
    out_grid = g.spanning(t_start, terminal_time)
    n_snap, dt_eff = out_grid.nt, out_grid.dt_snap
    obst = obstacles.mask if obstacles is not None else np.zeros((g.ny, g.nx), dtype=bool)
    X, Y = out_grid.meshgrid()
    tgt_mask, terminal_dist = _target_masks(out_grid, target, X, Y)
    u_eff = max(config.u_max - config.d_max, 0.0)
    diss_pad = config.u_max + config.d_max
    have_obst = obst.any()
    S = np.empty((2 if have_obst else 1, g.ny, g.nx))
    S[0] = np.where(obst, SENTINEL, terminal_dist)
    J = S[0]
    values = np.empty((n_snap, g.ny, g.nx))
    values[n_snap - 1] = J
    if have_obst:
        S[1] = np.minimum(-obstacles.clearance, SENTINEL)
    valid = np.ones(S.shape, dtype=bool)
    ts = out_grid.ts
    tgt_cells = np.flatnonzero(tgt_mask & ~obst)

    def cfl_rate(vx, vy):
        return float(np.max((np.abs(vx) + diss_pad) / g.dx + (np.abs(vy) + diss_pad) / g.dy))

    sample = flow.sampler(X, Y)
    steady = flow.is_steady
    vx, vy = sample(ts[-1])
    rate_hi = cfl_rate(vx, vy)
    V = np.empty((2, *S.shape))
    V[0], V[1] = vx, vy
    for k in range(n_snap - 2, -1, -1):
        t_hi = ts[k + 1]
        rate_lo = rate_hi if steady else cfl_rate(*sample(ts[k]))
        steps = dt_eff * max(rate_hi, rate_lo) / CFL
        rate_hi = rate_lo
        m = max(1, math.ceil(steps))
        dt = dt_eff / m
        for s in range(m):
            if not steady:
                V[0], V[1] = sample(t_hi - s * dt - 0.5 * dt)
            np.less(J, SENTINEL_THRESHOLD, out=valid[0])
            H = upwind_hamiltonian(S, valid, V[0], V[1], u_eff, g.dx, g.dy)
            if have_obst:
                np.maximum(0.0, H[1], out=H[1])
            J_tgt = J.take(tgt_cells) - ALPHA * dt
            H *= dt
            S += H
            J.put(tgt_cells, J_tgt)
            np.minimum(J, SENTINEL, out=J)
            if have_obst:
                J[obst | (S[1] > 0)] = SENTINEL
        values[k] = J
    return values


@dataclass(frozen=True)
class WindowedFlow(FlowSource):
    """Reference perfect release: a flow restricted to [t_lo, t_hi], with
    times inside the tolerance clipped to the window."""

    inner: FlowSource
    t_lo: float
    t_hi: float

    @property
    def x_min(self):
        return self.inner.x_min

    @property
    def x_max(self):
        return self.inner.x_max

    @property
    def y_min(self):
        return self.inner.y_min

    @property
    def y_max(self):
        return self.inner.y_max

    @property
    def t_min(self):
        return self.t_lo

    @property
    def t_max(self):
        return self.t_hi

    @property
    def is_steady(self):
        return self.inner.is_steady

    def sample_many(self, x, y, t, clamp_time=False):
        check_extent(self, x, y, t, clamp_time)
        return self.inner.sample_many(x, y, np.clip(t, self.t_lo, self.t_hi),
                                      clamp_time=True)


def time_bracket(vf, t):
    """Reference ``ValueFunction._time_bracket``: the snapshots around t and
    the weight of the later one."""
    g = vf.grid
    if t < g.t0 - 1e-6 or t > vf.terminal_time + 1e-6:
        raise HorizonError(
            f"t={t} outside solve horizon [{g.t0}, {vf.terminal_time}]"
        )
    ft = np.clip((t - g.t0) / g.dt_snap, 0.0, g.nt - 1.0)
    k0 = min(int(ft), g.nt - 2) if g.nt > 1 else 0
    w = ft - k0 if g.nt > 1 else 0.0
    return k0, min(k0 + 1, g.nt - 1), float(w)


def is_sentinel_at(vf, x, y, t):
    """Reference ``ValueFunction.is_sentinel_at`` with the nearest-node
    lookup written out."""
    k0, k1, w = time_bracket(vf, t)
    k = k0 if w < 0.5 else k1
    g = vf.grid
    i = int(np.clip(round((x - g.x0) / g.dx), 0, g.nx - 1))
    j = int(np.clip(round((y - g.y0) / g.dy), 0, g.ny - 1))
    return bool(vf.values[k, j, i] >= SENTINEL_THRESHOLD)


def grad_at(vf, x, y, t):
    """Reference ``ValueFunction.grad_at``: the bilinear blend of whole-slice
    gradients built on np.roll."""
    if is_sentinel_at(vf, x, y, t):
        raise AlreadyStrandedError(
            f"state ({x}, {y}) lies in the unreachable/obstacle set at t={t}"
        )
    k0, k1, w = time_bracket(vf, t)
    g = vf.grid
    fx = np.clip((x - g.x0) / g.dx, 0.0, g.nx - 1.0)
    fy = np.clip((y - g.y0) / g.dy, 0.0, g.ny - 1.0)
    i0 = min(int(fx), g.nx - 2)
    j0 = min(int(fy), g.ny - 2)
    wx, wy = fx - i0, fy - j0
    sw = np.array([(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy])
    out = np.zeros(2)
    for k, tw in ((k0, 1.0 - w), (k1, w)):
        if tw == 0.0:
            continue
        J = vf.values[k]
        valid = J < SENTINEL_THRESHOLD
        gx = roll_masked_central_diff(J, valid, g.dx, axis=1)
        gy = roll_masked_central_diff(J, valid, g.dy, axis=0)
        cj = (j0, j0, j0 + 1, j0 + 1)
        ci = (i0, i0 + 1, i0, i0 + 1)
        ok = np.array([valid[a, b] for a, b in zip(cj, ci)])
        if not ok.any():
            continue
        wsum = sw[ok].sum()
        if wsum <= 0:
            continue
        vx = sum(gx[a, b] * s for a, b, s, o in zip(cj, ci, sw, ok) if o) / wsum
        vy = sum(gy[a, b] * s for a, b, s, o in zip(cj, ci, sw, ok) if o) / wsum
        out += tw * np.array([vx, vy])
    return float(out[0]), float(out[1])


def distance_value_at(dmap, x, y):
    """Reference ``DistanceMap.value_at`` with the bilinear cell lookup
    written out."""
    g = dmap.grid
    fx = np.clip((x - g.x0) / g.dx, 0.0, g.nx - 1.0)
    fy = np.clip((y - g.y0) / g.dy, 0.0, g.ny - 1.0)
    i0 = min(int(fx), g.nx - 2) if g.nx > 1 else 0
    j0 = min(int(fy), g.ny - 2) if g.ny > 1 else 0
    wx = fx - i0
    wy = fy - j0
    d = dmap.distance
    return float(
        d[j0, i0] * (1 - wx) * (1 - wy)
        + d[j0, i0 + 1] * wx * (1 - wy)
        + d[j0 + 1, i0] * (1 - wx) * wy
        + d[j0 + 1, i0 + 1] * wx * wy
    )


def distance_gradient_at(dmap, x, y):
    """Reference ``DistanceMap.gradient_at``, on numpy scalars: a central
    difference at the nearest node, one-sided at the grid's edge, 0 along an
    axis of one node, and (0, 0) where it is not finite."""
    g = dmap.grid
    j, i = g.nearest_cell(x, y)
    d = dmap.distance
    im, ip = max(i - 1, 0), min(i + 1, g.nx - 1)
    jm, jp = max(j - 1, 0), min(j + 1, g.ny - 1)
    with np.errstate(invalid="ignore"):
        gx = (d[j, ip] - d[j, im]) / ((ip - im) * g.dx) if ip > im else 0.0
        gy = (d[jp, i] - d[jm, i]) / ((jp - jm) * g.dy) if jp > jm else 0.0
    if not (math.isfinite(gx) and math.isfinite(gy)):
        return 0.0, 0.0
    return float(gx), float(gy)


def _space_eps(flow):
    eps_x = 1e-9 * max(1.0, abs(flow.x_max)) if math.isfinite(flow.x_max) else 0.0
    eps_y = 1e-9 * max(1.0, abs(flow.y_max)) if math.isfinite(flow.y_max) else 0.0
    return eps_x, eps_y


def _time_eps(flow):
    return 1e-6 * max(1.0, abs(flow.t_max)) if math.isfinite(flow.t_max) else 0.0


def padded_extent(flow):
    """(lo, hi) per axis x, y, t: the extent widened by the tolerance the
    reference check allows."""
    (eps_x, eps_y), eps_t = _space_eps(flow), _time_eps(flow)
    return ((flow.x_min - eps_x, flow.y_min - eps_y, flow.t_min - eps_t),
            (flow.x_max + eps_x, flow.y_max + eps_y, flow.t_max + eps_t))


def _check_space(flow, x, y):
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    eps_x, eps_y = _space_eps(flow)
    out_x = (xa < flow.x_min - eps_x) | (xa > flow.x_max + eps_x)
    out_y = (ya < flow.y_min - eps_y) | (ya > flow.y_max + eps_y)
    if np.any(out_x) or np.any(out_y):
        bad = xa[out_x]
        if bad.size:
            raise ExtentError("x", float(bad.flat[0]), flow.x_min, flow.x_max)
        bad = ya[out_y]
        raise ExtentError("y", float(bad.flat[0]), flow.y_min, flow.y_max)
    return xa, ya


def _check_time(flow, t, clamp_time=False):
    ta = np.asarray(t, dtype=float)
    eps_t = _time_eps(flow)
    out = (ta < flow.t_min - eps_t) | (ta > flow.t_max + eps_t)
    if np.any(out):
        if not clamp_time:
            raise ExtentError("t", float(ta[out].flat[0]), flow.t_min, flow.t_max)
        # clamp only the times beyond the tolerance, so that each point
        # of a batch is sampled as it would be on its own
        ta = np.where(out, np.clip(ta, flow.t_min, flow.t_max), ta)
    return ta


def check_extent(flow, x, y, t, clamp_time=False):
    """Reference extent check, by comparisons that are false for NaN: a
    finite point beyond the padded extent raises ExtentError, x before y
    before t, and with clamp_time a time beyond it is clamped to it."""
    xa, ya = _check_space(flow, x, y)
    return xa, ya, _check_time(flow, t, clamp_time)


def gridded_sample_many(flow, x, y, t, clamp_time=False):
    """Reference ``GriddedFlow.sample_many``: every call checks its extent
    through ``check_extent``, and u and v are gathered and blended one at a
    time."""
    g = flow.grid
    xa, ya, ta = check_extent(flow, x, y, t, clamp_time)
    xa, ya, ta = np.broadcast_arrays(
        np.asarray(xa, float), np.asarray(ya, float), np.asarray(ta, float)
    )
    fx = np.clip((xa - g.x0) / g.dx, 0.0, g.nx - 1.0)
    fy = np.clip((ya - g.y0) / g.dy, 0.0, g.ny - 1.0)
    ft = np.clip((ta - g.t0) / g.dt_snap, 0.0, max(g.nt - 1.0, 0.0))
    i0 = np.minimum(fx.astype(int), g.nx - 2)
    j0 = np.minimum(fy.astype(int), g.ny - 2)
    k0 = np.minimum(ft.astype(int), max(g.nt - 2, 0))
    wx = fx - i0
    wy = fy - j0
    wt = ft - k0 if g.nt > 1 else np.zeros_like(ft)

    # the later snapshot is k0 + 1, or k0 itself when nt == 1
    dk = g.ny * g.nx if g.nt > 1 else 0
    offsets = np.array([0, dk, 1, dk + 1, g.nx, dk + g.nx, g.nx + 1, dk + g.nx + 1])
    base = (k0 * g.ny + j0) * g.nx + i0
    idx = base + offsets.reshape((8,) + (1,) * base.ndim)

    rt, rx, ry = 1 - wt, 1 - wx, 1 - wy

    def interp(arr):
        a = arr.ravel().take(idx).astype(np.float64, copy=False)
        c00 = a[0] * rt + a[1] * wt
        c10 = a[2] * rt + a[3] * wt
        c01 = a[4] * rt + a[5] * wt
        c11 = a[6] * rt + a[7] * wt
        return (
            c00 * rx * ry
            + c10 * wx * ry
            + c01 * rx * wy
            + c11 * wx * wy
        )

    return interp(flow.u), interp(flow.v)


def gyre_sample_many(flow, x, y, t, clamp_time=False):
    """Reference ``DoubleGyreFlow.sample_many``: the closed form evaluated
    at every point, the only path before grid-shaped points had their own."""
    xa, ya, ta = np.broadcast_arrays(*check_extent(flow, x, y, t, clamp_time))
    X = xa / flow.scale
    Y = ya / flow.scale
    b = flow.epsilon * np.sin(flow.omega * ta)
    a = 1.0 - 2.0 * b
    f = b * (X * X) + a * X
    dfdx = 2.0 * b * X + a
    u = -math.pi * flow.amplitude * np.sin(math.pi * f) * np.cos(math.pi * Y)
    v = math.pi * flow.amplitude * np.cos(math.pi * f) * np.sin(math.pi * Y) * dfdx
    return u, v


def fourier_error(flow, comp, xa, ya):
    """Reference error of one release and component at the points (xa, ya):
    its own phases, cosines and sines at every call, from its series' modes
    and the coefficients at its index."""
    errors = flow.errors
    coef_a, coef_b = errors.coefs[flow.index]
    phase = np.multiply.outer(xa, errors.kx[comp]) + np.multiply.outer(ya, errors.ky[comp])
    return errors.amplitude * (
        np.cos(phase) @ coef_a[comp] + np.sin(phase) @ coef_b[comp]
    )


def fourier_sample_many(flow, x, y, t, clamp_time=False):
    """Reference ``FourierPerturbedFlow.sample_many`` before it sampled
    through ``sampler``: the truth's ``sample_many`` at the checked points,
    plus the error evaluated at every call."""
    xa, ya, ta = flow._check_extent(x, y, t, clamp_time=clamp_time)
    xa, ya = np.broadcast_arrays(xa, ya)
    u, v = flow.truth.sample_many(xa, ya, ta, clamp_time=True)
    if flow.errors is None:
        return u, v
    return u + fourier_error(flow, 0, xa, ya), v + fourier_error(flow, 1, xa, ya)


def gyre_unique_sampler(flow, x, y, clamp_time=False):
    """Reference ``DoubleGyreFlow.sampler`` before grid-shaped points had
    their own path: the y factors once per point, and the x factors once
    per distinct x, gathered per point with ``take`` in the operation order
    of ``gyre_sample_many``."""
    xa, ya = np.broadcast_arrays(*_check_space(flow, x, y))
    X_u, xi = np.unique(xa, return_inverse=True)
    xi = xi.reshape(xa.shape)
    X_u = X_u / flow.scale
    Y = ya / flow.scale
    cos_y, sin_y = np.cos(math.pi * Y), np.sin(math.pi * Y)
    A = flow.amplitude

    def sample(t):
        ta = _check_time(flow, t, clamp_time)
        # an array, not a scalar, so np.sin takes gyre_sample_many's path
        b = flow.epsilon * np.sin(flow.omega * np.full(X_u.shape, ta))
        a = 1.0 - 2.0 * b
        f = b * (X_u * X_u) + a * X_u
        dfdx = 2.0 * b * X_u + a
        u = (-math.pi * A * np.sin(math.pi * f)).take(xi) * cos_y
        v = (math.pi * A * np.cos(math.pi * f)).take(xi) * sin_y * dfdx.take(xi)
        return u, v

    return sample
