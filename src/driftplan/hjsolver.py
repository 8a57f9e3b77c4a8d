"""Multi-time reachability solver on a space-time grid.

Solves the backward Hamilton-Jacobi equation for the frozen
target/obstacle system with a first-order monotone upwind scheme and
explicit Euler stepping under a CFL bound. Obstacle cells are pinned at a
large finite sentinel value. Free cells from which the flow inevitably
pushes the vehicle into an obstacle are detected by an auxiliary
obstacle-avoidance value function (running minimum of the signed distance
to the obstacle set under best-case control) and pinned at the sentinel as
well, so the resulting time-to-reach map spares both the obstacles and the
inevitably-lost region. The avoidance value never falls, so that blocked
set only grows during a solve: it is pinned once per substep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyStrandedError, HorizonError, ParameterError
from .flowfield import FlowSource, SpaceTimeGrid
from .gridio import SpatialGrid
from .terrain import ObstacleMask

#: rate, per second, at which the reach value falls inside the target
ALPHA = 1.0
#: the large finite value pinned on obstacle and inevitably-lost cells
SENTINEL = 1e10
#: values at or above half the sentinel are treated as unreachable
SENTINEL_THRESHOLD = 0.5 * SENTINEL
#: smallest substep a solve may take before it gives up on the grid
MIN_DT = 1e-9
#: Courant number: the largest product of a substep and the CFL rate
CFL = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Numerical and control parameters for a reachability solve."""

    grid: SpaceTimeGrid
    u_max: float
    d_max: float = 0.0

    def __post_init__(self):
        if not (0 <= self.u_max < math.inf and 0 <= self.d_max < math.inf):  # NaN fails too
            raise ParameterError(f"speed bounds must be finite and non-negative, "
                                 f"not {self.u_max}, {self.d_max}")


@dataclass(frozen=True)
class TargetSpec:
    """Circular target region."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:  # NaN fails too
            raise ParameterError(f"target radius must be positive and finite, not {self.radius}")

    def contains(self, x: float, y: float) -> bool:
        return math.hypot(x - self.center[0], y - self.center[1]) <= self.radius


@dataclass
class ValueFunction:
    """Cost-to-go on a space-time grid, sentinel-valued where unreachable.

    Point queries read only the nodes around the query point, in Python
    floats, so they cost the same on any grid size.
    """

    grid: SpaceTimeGrid  # t axis spans [t0, terminal_time]
    values: np.ndarray = field(repr=False)  # (nt, ny, nx) float64
    terminal_time: float = 0.0

    def _time_bracket(self, t: float):
        g = self.grid
        if t < g.t0 - 1e-6 or t > self.terminal_time + 1e-6:
            raise HorizonError(
                f"t={t} outside solve horizon [{g.t0}, {self.terminal_time}]"
            )
        ft = min(max((t - g.t0) / g.dt_snap, 0.0), g.nt - 1.0)
        k0 = min(int(ft), g.nt - 2) if g.nt > 1 else 0
        w = ft - k0 if g.nt > 1 else 0.0
        return k0, min(k0 + 1, g.nt - 1), float(w)

    def slice_at(self, t: float) -> np.ndarray:
        """Values linearly interpolated in time; sentinel wins over blending."""
        k0, k1, w = self._time_bracket(t)
        a, b = self.values[k0], self.values[k1]
        out = (1.0 - w) * a + w * b
        out[(a >= SENTINEL_THRESHOLD) | (b >= SENTINEL_THRESHOLD)] = SENTINEL
        return out

    def is_sentinel_at(self, x: float, y: float, t: float) -> bool:
        k0, k1, w = self._time_bracket(t)
        j, i = self.grid.nearest_cell(x, y)
        return self.values.item(k0 if w < 0.5 else k1, j, i) >= SENTINEL_THRESHOLD

    def ttr_at(self, x: float, y: float, t: float) -> float:
        """``safe_ttr``'s time-to-reach at one point, with t clamped into the
        plan's window: terminal_time + value - t, nan where the value is > 0."""
        t = min(max(t, self.grid.t0), self.terminal_time)
        v = self.value_at(x, y, t)
        return math.nan if v > 0 else max(self.terminal_time + v - t, 0.0)

    def _corners(self, x: float, y: float):
        """The (j, i, weight) of the 4 bilinear corners of (x, y)."""
        j0, i0, wx, wy = self.grid.bilinear_cell(x, y)
        return ((j0, i0, (1 - wx) * (1 - wy)), (j0, i0 + 1, wx * (1 - wy)),
                (j0 + 1, i0, (1 - wx) * wy), (j0 + 1, i0 + 1, wx * wy))

    def _valid(self, k: int, j: int, i: int) -> float | None:
        """values[k, j, i], or None at a sentinel node or off the grid."""
        if 0 <= j < self.grid.ny and 0 <= i < self.grid.nx:
            v = self.values.item(k, j, i)
            if v < SENTINEL_THRESHOLD:
                return v
        return None

    def _central_diff(self, k: int, j: int, i: int, dj: int, di: int, h: float) -> float:
        """Difference along (dj, di) at node (j, i) of snapshot k: central,
        one-sided beside a sentinel node or the grid edge, 0 beside two."""
        mid = self.values.item(k, j, i)
        lo, hi = self._valid(k, j - dj, i - di), self._valid(k, j + dj, i + di)
        if lo is None:
            return 0.0 if hi is None else (hi - mid) / h
        return (mid - lo) / h if hi is None else 0.5 * ((mid - lo) / h + (hi - mid) / h)

    def value_at(self, x: float, y: float, t: float) -> float:
        """Bilinear value of slice_at(t) at (x, y); sentinel corners are
        excluded by renormalizing the interpolation weights."""
        k0, k1, w = self._time_bracket(t)
        th = SENTINEL_THRESHOLD
        ws, cs = [], []
        for j, i, s in self._corners(x, y):
            a, b = self.values.item(k0, j, i), self.values.item(k1, j, i)
            c = (1.0 - w) * a + w * b
            if a < th and b < th and c < th:
                ws.append(s)
                cs.append(c)
        v = _blend(ws, cs)
        return SENTINEL if v is None else float(v)

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
        g = self.grid
        corners = self._corners(x, y)
        gx = gy = 0.0
        for k, tw in ((k0, 1.0 - w), (k1, w)):
            if tw == 0.0:
                continue
            ws, dxs, dys = [], [], []
            for j, i, s in corners:
                if self._valid(k, j, i) is not None:
                    ws.append(s)
                    dxs.append(self._central_diff(k, j, i, 0, 1, g.dx))
                    dys.append(self._central_diff(k, j, i, 1, 0, g.dy))
            vx = _blend(ws, dxs)
            if vx is not None:
                gx += tw * vx
                gy += tw * _blend(ws, dys)
        return float(gx), float(gy)


def _blend(weights, values):
    """Σ weight * value / Σ weight, or None when Σ weight <= 0. Both sums
    start from 0.0 and run in corner order, as numpy sums a few values (so
    -0.0 terms sum to 0.0); Python's sum() is compensated from 3.12 on."""
    wsum = acc = 0.0
    for s, v in zip(weights, values):
        wsum += s
        acc += v * s
    return None if wsum <= 0 else acc / wsum


@functools.cache
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
    d = J[hi] - J[lo]
    d /= h
    dm = np.zeros_like(J)
    dp = np.zeros_like(J)
    np.copyto(dm[hi], d, where=valid[lo])
    np.copyto(dp[lo], d, where=valid[hi])
    return dm, dp


def _hamiltonian(J, valid, vx, vy, u_eff, dx, dy, downstream=None):
    """Monotone upwind Hamiltonian of the reach update: the drift term reads
    the downstream neighbor, the control term the per-axis descent
    direction (Osher & Fedkiw 2003). ``J`` and ``valid`` may stack several
    (ny, nx) layers along a leading axis; each layer is stepped alone.
    ``downstream`` may hold the masks (vx > 0, vy > 0) of a steady flow."""
    dxm, dxp = _one_sided_diffs(J, valid, dx, axis=-1)
    dym, dyp = _one_sided_diffs(J, valid, dy, axis=-2)
    px, py = (vx > 0, vy > 0) if downstream is None else downstream
    ex, ey = np.negative(dxp), np.negative(dyp)
    for e, dm, dp, v, p in ((ex, dxm, dxp, vx, px), (ey, dym, dyp, vy, py)):
        # max(D-, -D+, 0); only hypot reads it, so a zero's sign is moot
        np.maximum(np.maximum(e, dm, out=e), 0.0, out=e)
        # then the drift term, in the D- buffer
        np.copyto(dm, dp, where=p)
        dm *= v
    dxm += dym
    np.hypot(ex, ey, out=ex)
    ex *= u_eff
    dxm -= ex
    return dxm


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


def check_mask_grid(obstacles: ObstacleMask, grid: SpatialGrid) -> None:
    """Raise ParameterError unless the mask lies on the grid's nodes, with its
    origin, spacing and node counts: only then is the unsafe set a hard
    constraint of the solve."""
    mask_nodes, grid_nodes = ([getattr(g, k) for k in ("x0", "y0", "dx", "dy", "nx", "ny")]
                              for g in (obstacles.grid, grid))
    if mask_nodes != grid_nodes:
        raise ParameterError(f"the obstacle mask's grid (x0, y0, dx, dy, nx, ny) {mask_nodes} "
                             f"is not the solver grid's {grid_nodes}")


def solve_mtr(
    flow: FlowSource,
    obstacles: ObstacleMask | None,
    target: TargetSpec,
    config: SolverConfig,
    t_start: float,
    terminal_time: float,
) -> ValueFunction:
    """Backward solve of the frozen-dynamics reachability PDE.

    Per-cell update rates: ALPHA inside the target, zero on obstacle and
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
    out_grid = g.spanning(t_start, terminal_time)
    n_snap, dt_eff = out_grid.nt, out_grid.dt_snap
    if obstacles is not None:
        check_mask_grid(obstacles, g)
    obst = obstacles.mask if obstacles is not None else np.zeros((g.ny, g.nx), dtype=bool)
    tgt_mask, terminal_dist = _target_masks(out_grid, target)

    u_eff = max(config.u_max - config.d_max, 0.0)
    diss_pad = config.u_max + config.d_max

    X, Y = out_grid.meshgrid()
    have_obst = obst.any()
    # layer 0 is the reach value J; with obstacles, layer 1 is V = -W for
    # the avoidance value W (signed clearance, running minimum under
    # best-case control), so both step with one Hamiltonian call. Cells
    # with V > 0 are doomed. Layer 1's mask stays all true.
    S = np.empty((2 if have_obst else 1, g.ny, g.nx))
    S[0] = np.where(obst, SENTINEL, terminal_dist)
    J = S[0]
    values = np.empty((n_snap, g.ny, g.nx))
    values[n_snap - 1] = J
    if have_obst:
        # V starts at minus the clearance, capped at the sentinel where there
        # is no free water, so it is positive on the obstacles alone. Its rate
        # is clamped at >= 0, so V never falls and the blocked set, obstacles
        # and doomed cells, only grows: pinned at the sentinel from the start
        # and after each substep, it stays out of J's valid mask
        S[1] = np.minimum(-obstacles.clearance, SENTINEL)
    valid = np.ones(S.shape, dtype=bool)
    ts = out_grid.ts
    tgt_cells = np.flatnonzero(tgt_mask & ~obst)

    def cfl_rate(vx, vy):
        return float(np.max((np.abs(vx) + diss_pad) / g.dx + (np.abs(vy) + diss_pad) / g.dy))

    sample = flow.sampler(X, Y)
    steady = flow.is_steady
    # a steady flow is sampled once; otherwise the CFL rate at each snapshot
    # time bounds the interval on either side of it
    vx, vy = sample(ts[-1])
    rate_hi = cfl_rate(vx, vy)
    downstream = (vx > 0, vy > 0) if steady else None

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
            m = max(1, int(math.ceil(dt_eff * rate / CFL)))
        dt = dt_eff / m
        if dt < MIN_DT:
            raise ParameterError(
                f"CFL step {dt} below the floor {MIN_DT}; coarsen the grid"
            )
        for s in range(m):
            t_cur = t_hi - s * dt
            t_mid = t_cur - 0.5 * dt
            if not steady:
                vx, vy = sample(t_mid)
            np.less(J, SENTINEL_THRESHOLD, out=valid[0])
            H = _hamiltonian(S, valid, vx, vy, u_eff, g.dx, g.dy, downstream)
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

    return ValueFunction(grid=out_grid, values=values, terminal_time=terminal_time)


def safe_ttr(vf: ValueFunction, t: float) -> np.ndarray:
    """Safe time-to-reach map on vf.grid's (ny, nx) nodes: terminal_time + J - t
    where J <= 0, nan elsewhere."""
    sl = vf.slice_at(t)
    ttr = vf.terminal_time + sl - t
    ttr[sl > 0] = np.nan
    return np.maximum(ttr, 0.0)
