"""Independent brute-force oracles and the scalar references that
vectorised code paths are checked against.

The dynamic program below never touches the solver's numerics: it walks
grid states backward in time with nearest-node transitions and the same
frozen target/obstacle semantics, minimizing over a discrete set of
headings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from driftplan.errors import AlreadyStrandedError, ExtentError
from driftplan.flowfield import FlowSource
from driftplan.hjsolver import _one_sided_diffs
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
    for _ in range(n):
        while True:
            x = rng.uniform(xmin, xmax)
            y = rng.uniform(ymin, ymax)
            if not obstacles.contains(x, y):
                break
        t = rng.uniform(*t_range) if t_range[1] > t_range[0] else t_range[0]
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
    ok = corners < vf.sentinel_threshold
    if not ok.any():
        return vf.sentinel
    wsum = weights[ok].sum()
    if wsum <= 0:
        return vf.sentinel if not ok[int(np.argmax(weights))] else float(
            corners[int(np.argmax(weights))]
        )
    return float((corners[ok] * weights[ok]).sum() / wsum)


def avoidance_w_step(W, vx, vy, u_eff, dx, dy, dt):
    """Reference obstacle-avoidance substep on W itself: the sign-flipped
    upwind stencil, where the avoidance control climbs toward larger
    clearance, and a running minimum."""
    wt = np.ones_like(W, dtype=bool)
    wxm, wxp = _one_sided_diffs(W, wt, dx, axis=1)
    wym, wyp = _one_sided_diffs(W, wt, dy, axis=0)
    adv_wx = np.where(vx > 0, wxp, wxm)
    adv_wy = np.where(vy > 0, wyp, wym)
    ewx = np.maximum(np.maximum(wxp, -wxm), 0.0)
    ewy = np.maximum(np.maximum(wyp, -wym), 0.0)
    ham_w = vx * adv_wx + vy * adv_wy + u_eff * np.hypot(ewx, ewy)
    return W + dt * np.minimum(0.0, ham_w)


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
        self._check_extent(x, y, t, clamp_time)
        return self.inner.sample_many(x, y, np.clip(t, self.t_lo, self.t_hi),
                                      clamp_time=True)


def is_sentinel_at(vf, x, y, t):
    """Reference ``ValueFunction.is_sentinel_at`` with the nearest-node
    lookup written out."""
    k0, k1, w = vf._time_bracket(t)
    k = k0 if w < 0.5 else k1
    g = vf.grid
    i = int(np.clip(round((x - g.x0) / g.dx), 0, g.nx - 1))
    j = int(np.clip(round((y - g.y0) / g.dy), 0, g.ny - 1))
    return bool(vf.values[k, j, i] >= vf.sentinel_threshold)


def grad_at(vf, x, y, t):
    """Reference ``ValueFunction.grad_at`` with the bilinear cell lookup
    written out."""
    if is_sentinel_at(vf, x, y, t):
        raise AlreadyStrandedError(
            f"state ({x}, {y}) lies in the unreachable/obstacle set at t={t}"
        )
    k0, k1, w = vf._time_bracket(t)
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
        gx, gy = vf._slice_gradient(k)
        J = vf.values[k]
        cj = (j0, j0, j0 + 1, j0 + 1)
        ci = (i0, i0 + 1, i0, i0 + 1)
        ok = np.array([J[a, b] < vf.sentinel_threshold for a, b in zip(cj, ci)])
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


def gridded_sample_many(flow, x, y, t, clamp_time=False):
    """Reference ``GriddedFlow.sample_many``: every call checks its extent
    through ``_check_extent``, and u and v are gathered and blended one at a
    time."""
    g = flow.grid
    xa, ya, ta = flow._check_extent(x, y, t, clamp_time)
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
