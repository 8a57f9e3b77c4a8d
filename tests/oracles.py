"""Independent brute-force oracles used to validate the PDE solver.

The dynamic program below never touches the solver's numerics: it walks
grid states backward in time with nearest-node transitions and the same
frozen target/obstacle semantics, minimizing over a discrete set of
headings.
"""

from __future__ import annotations

import numpy as np


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
