"""Multi-time reachability solver on a space-time grid.

Solves the backward Hamilton-Jacobi equation for the frozen
target/obstacle system with a first-order monotone upwind scheme and
explicit Euler stepping under a CFL bound. Obstacle cells are pinned at a
large finite sentinel value. Free cells from which the flow inevitably
pushes the vehicle into an obstacle are detected by an auxiliary
obstacle-avoidance value function (running minimum of the signed distance
to the obstacle set under best-case control) and pinned at the sentinel as
well, so the resulting time-to-reach map spares both the obstacles and the
inevitably-lost region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .errors import AlreadyStrandedError, HorizonError, ParameterError
from .flowfield import FlowSource, SpaceTimeGrid
from .terrain import ObstacleMask, SpatialGrid

#: fraction of the sentinel above which a value is treated as unreachable
SENTINEL_FRACTION = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Numerical and control parameters for a reachability solve."""

    grid: SpaceTimeGrid
    u_max: float
    d_max: float = 0.0
    alpha: float = 1.0
    cfl: float = 0.5
    sentinel: float = 1e10
    min_dt: float = 1e-9

    def __post_init__(self):
        if self.u_max < 0 or self.d_max < 0:
            raise ParameterError("speed bounds must be non-negative")
        if not (0.0 < self.cfl <= 1.0):
            raise ParameterError("cfl must be in (0, 1]")
        if self.sentinel <= 0:
            raise ParameterError("sentinel must be a large positive value")


@dataclass(frozen=True)
class TargetSpec:
    """Circular target region."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ParameterError("target radius must be positive")

    def contains(self, x: float, y: float) -> bool:
        return math.hypot(x - self.center[0], y - self.center[1]) <= self.radius


@dataclass
class ValueFunction:
    """Cost-to-go on a space-time grid, sentinel-valued where unreachable."""

    grid: SpaceTimeGrid  # t axis spans [t_start, T]
    values: np.ndarray = field(repr=False)  # (nt, ny, nx)
    obstacle: np.ndarray = field(repr=False)  # (ny, nx) bool
    target: np.ndarray = field(repr=False)  # (ny, nx) bool
    t_start: float = 0.0
    terminal_time: float = 0.0
    u_max: float = 0.0
    d_max: float = 0.0
    alpha: float = 1.0
    sentinel: float = 1e10

    def __post_init__(self):
        self._grad_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def sentinel_threshold(self) -> float:
        return SENTINEL_FRACTION * self.sentinel

    def _time_bracket(self, t: float):
        g = self.grid
        if t < self.t_start - 1e-6 or t > self.terminal_time + 1e-6:
            raise HorizonError(
                f"t={t} outside solve horizon [{self.t_start}, {self.terminal_time}]"
            )
        ft = np.clip((t - g.t0) / g.dt_snap, 0.0, g.nt - 1.0)
        k0 = min(int(ft), g.nt - 2) if g.nt > 1 else 0
        w = ft - k0 if g.nt > 1 else 0.0
        return k0, min(k0 + 1, g.nt - 1), float(w)

    def slice_at(self, t: float) -> np.ndarray:
        """Values linearly interpolated in time; sentinel wins over blending."""
        k0, k1, w = self._time_bracket(t)
        a, b = self.values[k0], self.values[k1]
        out = (1.0 - w) * a + w * b
        th = self.sentinel_threshold
        out[(a >= th) | (b >= th)] = self.sentinel
        return out

    def is_sentinel_at(self, x: float, y: float, t: float) -> bool:
        k0, k1, w = self._time_bracket(t)
        k = k0 if w < 0.5 else k1
        j, i = self.grid.nearest_cell(x, y)
        return bool(self.values[k, j, i] >= self.sentinel_threshold)

    def value_at(self, x: float, y: float, t: float) -> float:
        """Bilinear value at (x, y); sentinel corners are excluded by
        renormalizing the interpolation weights."""
        k0, k1, w = self._time_bracket(t)
        j0, i0, wx, wy = self.grid.bilinear_cell(x, y)
        # the 4 corners of slice_at(t), blended and sentinel-pinned alike
        a = self.values[k0, j0:j0 + 2, i0:i0 + 2].ravel()
        b = self.values[k1, j0:j0 + 2, i0:i0 + 2].ravel()
        corners = (1.0 - w) * a + w * b
        th = self.sentinel_threshold
        corners[(a >= th) | (b >= th)] = self.sentinel
        weights = np.array(
            [(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy]
        )
        ok = corners < self.sentinel_threshold
        if not ok.any():
            return self.sentinel
        wsum = weights[ok].sum()
        if wsum <= 0:
            return self.sentinel if not ok[int(np.argmax(weights))] else float(
                corners[int(np.argmax(weights))]
            )
        return float((corners[ok] * weights[ok]).sum() / wsum)

    def _slice_gradient(self, k: int):
        """Cached sentinel-aware central-difference gradient of snapshot k."""
        cached = self._grad_cache.get(k)
        if cached is not None:
            return cached
        g = self.grid
        J = self.values[k]
        valid = J < self.sentinel_threshold
        gx = _masked_central_diff(J, valid, g.dx, axis=1)
        gy = _masked_central_diff(J, valid, g.dy, axis=0)
        self._grad_cache[k] = (gx, gy)
        return gx, gy

    def grad_at(self, x: float, y: float, t: float) -> tuple[float, float]:
        """Spatial gradient, bilinear in space and linear in time.

        Sentinel nodes carry no gradient information; their weights are
        renormalized away. Raises AlreadyStrandedError when queried on a
        sentinel cell.
        """
        if self.is_sentinel_at(x, y, t):
            raise AlreadyStrandedError(
                f"state ({x}, {y}) lies in the unreachable/obstacle set at t={t}"
            )
        k0, k1, w = self._time_bracket(t)
        j0, i0, wx, wy = self.grid.bilinear_cell(x, y)
        sw = np.array([(1 - wx) * (1 - wy), wx * (1 - wy), (1 - wx) * wy, wx * wy])
        out = np.zeros(2)
        for k, tw in ((k0, 1.0 - w), (k1, w)):
            if tw == 0.0:
                continue
            gx, gy = self._slice_gradient(k)
            J = self.values[k]
            cj = (j0, j0, j0 + 1, j0 + 1)
            ci = (i0, i0 + 1, i0, i0 + 1)
            ok = np.array([J[a, b] < self.sentinel_threshold for a, b in zip(cj, ci)])
            if not ok.any():
                continue
            wsum = sw[ok].sum()
            if wsum <= 0:
                continue
            vx = sum(gx[a, b] * s for a, b, s, o in zip(cj, ci, sw, ok) if o) / wsum
            vy = sum(gy[a, b] * s for a, b, s, o in zip(cj, ci, sw, ok) if o) / wsum
            out += tw * np.array([vx, vy])
        return float(out[0]), float(out[1])


@dataclass(frozen=True)
class SafeTTRMap:
    """Time-to-reach the target, defined where the value function is <= 0."""

    grid: SpatialGrid
    ttr: np.ndarray = field(repr=False)  # (ny, nx), nan where undefined
    t: float = 0.0
    terminal_time: float = 0.0

    @property
    def valid(self) -> np.ndarray:
        return np.isfinite(self.ttr)

    def value_at(self, x: float, y: float) -> float:
        """Nearest-node TTR; nan where undefined."""
        j, i = self.grid.nearest_cell(x, y)
        return float(self.ttr[j, i])


def _axis_pair(ndim, axis):
    """Index tuples selecting the cells [:-1] and [1:] along ``axis``."""
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _one_sided_diffs(J, valid, h, axis):
    """(D-, D+) pairs with invalid sides (sentinel neighbors or the domain
    edge) zeroed, which drops them from the upwind candidate sets."""
    lo, hi = _axis_pair(J.ndim, axis)
    d = (J[hi] - J[lo]) / h
    dm = np.zeros_like(J)
    dp = np.zeros_like(J)
    np.copyto(dm[hi], d, where=valid[lo])
    np.copyto(dp[lo], d, where=valid[hi])
    return dm, dp


def _hamiltonian(J, valid, vx, vy, u_eff, dx, dy):
    """Monotone upwind Hamiltonian of the reach update: the drift term reads
    the downstream neighbor, the control term the per-axis descent
    direction (Osher & Fedkiw 2003). ``J`` and ``valid`` may stack several
    (ny, nx) layers along a leading axis; each layer is stepped alone."""
    dxm, dxp = _one_sided_diffs(J, valid, dx, axis=-1)
    dym, dyp = _one_sided_diffs(J, valid, dy, axis=-2)
    adv_x = np.where(vx > 0, dxp, dxm)
    adv_y = np.where(vy > 0, dyp, dym)
    ex = np.maximum(np.maximum(dxm, -dxp), 0.0)
    ey = np.maximum(np.maximum(dym, -dyp), 0.0)
    return vx * adv_x + vy * adv_y - u_eff * np.hypot(ex, ey)


def _masked_central_diff(J, valid, h, axis):
    """Central differences falling back to one-sided away from invalid
    (sentinel or out-of-domain) neighbors; zero when isolated."""
    dm, dp = _one_sided_diffs(J, valid, h, axis)
    lo, hi = _axis_pair(J.ndim, axis)
    vm = np.zeros_like(valid)
    vp = np.zeros_like(valid)
    vm[hi] = valid[lo]
    vp[lo] = valid[hi]
    # dp is already 0 where neither side is valid
    out = np.where(vm & vp, 0.5 * (dm + dp), np.where(vm, dm, dp))
    out[~valid] = 0.0
    return out


def _signed_distance_to_obstacles(mask: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Positive outside the obstacle set, negative inside, in meters."""
    if not mask.any():
        return np.full(mask.shape, np.inf)
    outside = ndimage.distance_transform_edt(~mask, sampling=(dy, dx))
    inside = ndimage.distance_transform_edt(mask, sampling=(dy, dx))
    return outside - inside


def _target_masks(grid: SpaceTimeGrid, target: TargetSpec):
    X, Y = grid.meshgrid()
    r = np.hypot(X - target.center[0], Y - target.center[1])
    mask = r <= target.radius
    if not mask.any():
        # point-like target: include the nearest node so the solve has a seed
        mask[grid.nearest_cell(*target.center)] = True
    terminal = np.maximum(0.0, r - target.radius)
    terminal[mask] = 0.0
    return mask, terminal


def solve_mtr(
    flow: FlowSource,
    obstacles: ObstacleMask | None,
    target: TargetSpec,
    config: SolverConfig,
    t_start: float,
    terminal_time: float,
) -> ValueFunction:
    """Backward solve of the frozen-dynamics reachability PDE.

    Per-cell update rates: alpha inside the target, zero on obstacle and
    inevitably-lost cells (pinned at the sentinel), and the
    upwind-discretized Hamiltonian elsewhere, with effective
    control authority u_max - d_max against a worst-case isotropic
    disturbance.
    """
    g = config.grid
    if t_start >= terminal_time:
        raise ParameterError("t_start must precede the terminal time")
    if not flow.covers(g.x0, g.x_max, g.y0, g.y_max, t_start, terminal_time):
        raise HorizonError(
            f"flow extent does not cover the solve domain x [{t_start}, {terminal_time}]"
        )
    span = terminal_time - t_start
    n_snap = max(2, int(math.ceil(span / g.dt_snap - 1e-9)) + 1)
    dt_eff = span / (n_snap - 1)
    out_grid = replace(g, t0=t_start, dt_snap=dt_eff, nt=n_snap)
    obst = (
        obstacles.mask.copy()
        if obstacles is not None
        else np.zeros((g.ny, g.nx), dtype=bool)
    )
    if obst.shape != (g.ny, g.nx):
        raise ParameterError("obstacle mask shape does not match the solver grid")
    tgt_mask, terminal_dist = _target_masks(out_grid, target)

    sent = config.sentinel
    th = SENTINEL_FRACTION * sent
    u_eff = max(config.u_max - config.d_max, 0.0)
    diss_pad = config.u_max + config.d_max

    X, Y = out_grid.meshgrid()
    have_obst = obst.any()
    # layer 0 is the reach value J; with obstacles, layer 1 is V = -W for
    # the avoidance value W (signed clearance, running minimum under
    # best-case control), so both step with one Hamiltonian call. Cells
    # with V > 0 are doomed. Layer 1's mask stays all true.
    S = np.empty((2 if have_obst else 1, g.ny, g.nx))
    S[0] = np.where(obst, sent, terminal_dist)
    if have_obst:
        S[1] = -_signed_distance_to_obstacles(obst, g.dx, g.dy)
    valid = np.ones(S.shape, dtype=bool)

    values = np.empty((n_snap, g.ny, g.nx))
    values[n_snap - 1] = S[0]
    ts = out_grid.ts
    free = ~obst
    tgt_free = tgt_mask & free

    def cfl_rate(vx, vy):
        return float(np.max((np.abs(vx) + diss_pad) / g.dx + (np.abs(vy) + diss_pad) / g.dy))

    sample = flow.sampler(X, Y)
    steady = getattr(flow, "is_steady", False)
    # a steady flow is sampled once; otherwise the CFL rate at each snapshot
    # time bounds the interval on either side of it
    vx, vy = sample(ts[-1])
    rate_hi = cfl_rate(vx, vy)

    for k in range(n_snap - 2, -1, -1):
        t_hi = ts[k + 1]
        if steady:
            rate = rate_hi
        else:
            rate_lo = cfl_rate(*sample(ts[k]))
            rate = max(rate_hi, rate_lo)
            rate_hi = rate_lo
        if rate <= 0:
            m = 1
        else:
            m = max(1, int(math.ceil(dt_eff * rate / config.cfl)))
        dt = dt_eff / m
        if dt < config.min_dt:
            raise ParameterError(
                f"CFL step {dt} below configured floor {config.min_dt}; coarsen the grid"
            )
        for s in range(m):
            t_cur = t_hi - s * dt
            t_mid = t_cur - 0.5 * dt
            if not steady:
                vx, vy = sample(t_mid)
            blocked = obst | (S[1] > 0) if have_obst else obst
            valid[0] = (S[0] < th) & ~blocked
            H = _hamiltonian(S, valid, vx, vy, u_eff, g.dx, g.dy)
            if have_obst:
                np.maximum(0.0, H[1], out=H[1])
            J_tgt = S[0][tgt_free] - config.alpha * dt
            H *= dt
            S += H
            J = S[0]
            J[tgt_free] = J_tgt
            np.minimum(J, sent, out=J)
            J[blocked] = sent
            if have_obst:
                J[S[1] > 0] = sent
        values[k] = S[0]

    return ValueFunction(
        grid=out_grid,
        values=values,
        obstacle=obst,
        target=tgt_mask,
        t_start=t_start,
        terminal_time=terminal_time,
        u_max=config.u_max,
        d_max=config.d_max,
        alpha=config.alpha,
        sentinel=sent,
    )


def safe_ttr(vf: ValueFunction, t: float) -> SafeTTRMap:
    """Safe time-to-reach map: terminal_time + J - t where J <= 0."""
    sl = vf.slice_at(t)
    ttr = vf.terminal_time + sl - t
    ttr[sl > 0] = np.nan
    ttr = np.maximum(ttr, 0.0)
    return SafeTTRMap(grid=vf.grid, ttr=ttr, t=t, terminal_time=vf.terminal_time)


def brt(vf: ValueFunction, t: float) -> np.ndarray:
    """Backward reachable tube slice: cells whose value is <= 0 at t."""
    return vf.slice_at(t) <= 0
