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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AlreadyStrandedError, HorizonError, ParameterError
from .flowfield import FlowSource, SpaceTimeGrid
from .gridio import FLOAT_MAX, SpatialGrid, check_finite
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
#: the most snapshots one solve may hold: 30 days at 5-minute snapshots fit
MAX_SNAPSHOTS = 10_000
#: the most bytes one solve's float64 values may take, all snapshots together
MAX_VALUE_BYTES = 2**30
#: the most cell updates (substeps x layers x ny x nx) one solve may plan
MAX_CELL_UPDATES = 2**32


@dataclass(frozen=True)
class SolverConfig:
    """Numerical and control parameters for a reachability solve."""

    grid: SpaceTimeGrid
    u_max: float
    d_max: float = 0.0

    def __post_init__(self):
        check_finite("speed bounds", self.u_max, self.d_max, sign="non-negative")


@dataclass(frozen=True)
class TargetSpec:
    """Circular target region."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        check_finite("target radius", self.radius, sign="positive")
        check_finite("target center", *self.center)

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


def _hamiltonian(S, valid, V, u_eff, h):
    """Monotone upwind Hamiltonian of the reach update: the drift term reads
    the downstream neighbor, the control term the per-axis descent
    direction (Osher & Fedkiw 2003). ``S`` and ``valid`` may stack several
    (ny, nx) layers along a leading axis; each layer is stepped alone. ``V``
    holds the x and y velocities, which broadcast over each layer of ``S``,
    and ``h`` the spacings (dx, dy). A one-sided difference toward an invalid
    side (a sentinel neighbor or the domain edge) is zero, which drops that
    side from the upwind candidates."""
    # D- then D+, each with the x axis first
    D = np.zeros((2, 2, *S.shape))
    for a, lo, hi in ((0, np.s_[..., :-1], np.s_[..., 1:]),
                      (1, np.s_[..., :-1, :], np.s_[..., 1:, :])):
        d = S[hi] - S[lo]
        d /= h[a]
        np.copyto(D[0, a][hi], d, where=valid[lo])
        np.copyto(D[1, a][lo], d, where=valid[hi])
    Dm, Dp = D
    # max(D-, -D+, 0); only hypot reads it, so a zero's sign is moot
    E = np.negative(Dp)
    np.maximum(np.maximum(E, Dm, out=E), 0.0, out=E)
    # then the drift term, in the D- buffer
    np.copyto(Dm, Dp, where=V > 0)
    Dm *= V
    Dm[0] += Dm[1]
    np.hypot(E[0], E[1], out=E[0])
    E[0] *= u_eff
    Dm[0] -= E[0]
    return Dm[0]


def _target_masks(grid: SpatialGrid, target: TargetSpec, X, Y):
    """The target's nodes and the terminal distance to it, on ``grid``'s
    meshgrid ``X, Y``."""
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
    disturbance. Every interval's substeps are planned before the march.
    """
    g = config.grid
    if not -FLOAT_MAX <= t_start < terminal_time <= FLOAT_MAX:  # NaN fails too
        raise ParameterError(f"need finite t_start < terminal_time, not {t_start}, {terminal_time}")
    if not flow.covers(g.x0, g.x_max, g.y0, g.y_max, t_start, terminal_time):
        raise HorizonError(
            f"flow extent does not cover the solve domain x [{t_start}, {terminal_time}]"
        )
    out_grid = g.spanning(t_start, terminal_time)
    n_snap, dt_eff = out_grid.nt, out_grid.dt_snap
    if n_snap > MAX_SNAPSHOTS:
        raise ParameterError(f"solve window [{t_start}, {terminal_time}] would make "
                             f"{n_snap:.3g} snapshots, more than {MAX_SNAPSHOTS}")
    if 8 * n_snap * g.ny * g.nx > MAX_VALUE_BYTES:
        raise ParameterError(f"{n_snap} snapshots of {g.ny} x {g.nx} float64 values take "
                             f"{8 * n_snap * g.ny * g.nx:,} B, more than {MAX_VALUE_BYTES:,}")
    if obstacles is not None:
        check_mask_grid(obstacles, g)
    obst = obstacles.mask if obstacles is not None else np.zeros((g.ny, g.nx), dtype=bool)
    have_obst = obst.any()
    X, Y = out_grid.meshgrid()
    ts, steady = out_grid.ts, flow.is_steady
    u_eff = max(config.u_max - config.d_max, 0.0)
    diss_pad = config.u_max + config.d_max

    def cfl_rate(vx, vy):
        return float(np.max((np.abs(vx) + diss_pad) / g.dx + (np.abs(vy) + diss_pad) / g.dy))

    # the plan: the CFL rate at each snapshot time bounds the intervals on
    # either side of it (a steady flow's one rate bounds them all), and each
    # interval takes the fewest equal substeps under CFL. The terminal sample
    # also fills V, whose velocities broadcast over the layers of S; an
    # unsteady flow refills it at each substep's midpoint
    sample = flow.sampler(X, Y)
    V = np.empty((2, 1, g.ny, g.nx))
    V[0], V[1] = v_end = sample(ts[-1])
    rates = ([cfl_rate(*v_end)] * n_snap if steady
             else [cfl_rate(*sample(t)) for t in ts[:-1]] + [cfl_rate(*v_end)])
    steps = [dt_eff * max(hi, lo) / CFL for lo, hi in zip(rates, rates[1:])]
    bad = [s for s in steps if not s <= FLOAT_MAX]  # NaN fails too
    if bad:
        raise ParameterError(f"CFL step count {bad[0]} is not finite; check the flow's speeds")
    substeps = [max(1, math.ceil(s)) for s in steps]
    if dt_eff / max(substeps) < MIN_DT:
        raise ParameterError(f"CFL step {dt_eff / max(substeps)} below the floor {MIN_DT}; "
                             "coarsen the grid")
    # layer 0 is the reach value J; with obstacles, layer 1 is -W for the
    # avoidance value W (signed clearance, running minimum under best-case
    # control), so both step with one Hamiltonian call. Cells with -W > 0
    # are doomed. Layer 1's mask stays all true.
    layers = 2 if have_obst else 1
    if sum(substeps) * layers * g.ny * g.nx > MAX_CELL_UPDATES:
        raise ParameterError(f"{sum(substeps):,} substeps of {layers} x {g.ny} x {g.nx} cells "
                             f"are more than {MAX_CELL_UPDATES:,} cell updates")

    S = np.empty((layers, g.ny, g.nx))
    tgt_mask, terminal_dist = _target_masks(g, target, X, Y)
    S[0] = np.where(obst, SENTINEL, terminal_dist)
    J = S[0]
    values = np.empty((n_snap, g.ny, g.nx))
    values[n_snap - 1] = J
    if have_obst:
        # -W starts at minus the clearance, capped at the sentinel where there
        # is no free water, so it is positive on the obstacles and only there.
        # Its rate is clamped at >= 0, so -W never falls and the blocked set,
        # obstacles and doomed cells, only grows: pinned at the sentinel after
        # each substep, it stays out of J's valid mask
        S[1] = np.minimum(-obstacles.clearance, SENTINEL)
    valid = np.ones(S.shape, dtype=bool)
    tgt_cells = np.flatnonzero(tgt_mask & ~obst)

    for k in range(n_snap - 2, -1, -1):
        t_hi, m = ts[k + 1], substeps[k]
        dt = dt_eff / m
        for s in range(m):
            if not steady:
                V[0], V[1] = sample(t_hi - s * dt - 0.5 * dt)
            np.less(J, SENTINEL_THRESHOLD, out=valid[0])
            H = _hamiltonian(S, valid, V, u_eff, (g.dx, g.dy))
            if have_obst:
                np.maximum(0.0, H[1], out=H[1])
            H.put(tgt_cells, -ALPHA)  # J falls at ALPHA inside the target
            H *= dt
            S += H
            np.minimum(J, SENTINEL, out=J)
            if have_obst:
                J[S[1] > 0] = SENTINEL
        values[k] = J

    return ValueFunction(grid=out_grid, values=values, terminal_time=terminal_time)


def safe_ttr(vf: ValueFunction, t: float) -> np.ndarray:
    """Safe time-to-reach map on vf.grid's (ny, nx) nodes: terminal_time + J - t
    where J <= 0, nan elsewhere."""
    sl = vf.slice_at(t)
    ttr = vf.terminal_time + sl - t
    ttr[sl > 0] = np.nan
    return np.maximum(ttr, 0.0)
