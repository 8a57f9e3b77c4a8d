"""Time-varying 2D velocity fields: analytical forms, gridded data, file I/O.

All fields are sampled in planar Cartesian meters and seconds. Gridded
fields interpolate bilinearly in space and linearly in time; analytical
fields evaluate their closed form. Every field object is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtentError, FormatError, ParameterError
from .gridio import SpatialGrid

# meters per degree of latitude for the equirectangular adapter
M_PER_DEG = 111320.0

OFG1_MAGIC = b"OFG1"
_HEADER = struct.Struct("<4sIII6d")


@dataclass(frozen=True)
class SpaceTimeGrid(SpatialGrid):
    """Regular space-time grid: a spatial grid plus regular snapshot times."""

    t0: float = 0.0
    dt_snap: float = 1.0
    nt: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.nx < 2 or self.ny < 2:
            raise ParameterError("grid needs at least 2 nodes per spatial axis")
        if self.dt_snap <= 0:
            raise ParameterError("snapshot spacing must be strictly positive")
        if self.nt < 1:
            raise ParameterError("grid needs at least 1 snapshot")

    @property
    def t_max(self) -> float:
        return self.t0 + (self.nt - 1) * self.dt_snap

    @property
    def ts(self) -> np.ndarray:
        return self.t0 + self.dt_snap * np.arange(self.nt)


class FlowSource:
    """Base class for velocity fields sampled at continuous (x, y, t)."""

    #: spatial/temporal extents; analytical fields default to unbounded
    x_min = -math.inf
    x_max = math.inf
    y_min = -math.inf
    y_max = math.inf
    t_min = -math.inf
    t_max = math.inf

    #: True when sample_many is independent of t, letting consumers reuse
    #: one sampled snapshot instead of resampling every step
    is_steady = False

    def _space_eps(self):
        eps_x = 1e-9 * max(1.0, abs(self.x_max)) if math.isfinite(self.x_max) else 0.0
        eps_y = 1e-9 * max(1.0, abs(self.y_max)) if math.isfinite(self.y_max) else 0.0
        return eps_x, eps_y

    def inside(self, x, y):
        """Boolean mask of the points (x, y) that lie in the spatial extent,
        within the tolerance sampling allows."""
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        eps_x, eps_y = self._space_eps()
        return ~((xa < self.x_min - eps_x) | (xa > self.x_max + eps_x)
                 | (ya < self.y_min - eps_y) | (ya > self.y_max + eps_y))

    def _check_space(self, x, y):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if not np.all(self.inside(xa, ya)):
            eps_x, eps_y = self._space_eps()
            bad = xa[(xa < self.x_min - eps_x) | (xa > self.x_max + eps_x)]
            if bad.size:
                raise ExtentError("x", float(bad.flat[0]), self.x_min, self.x_max)
            bad = ya[(ya < self.y_min - eps_y) | (ya > self.y_max + eps_y)]
            raise ExtentError("y", float(bad.flat[0]), self.y_min, self.y_max)
        return xa, ya

    def _check_time(self, t, clamp_time=False):
        ta = np.asarray(t, dtype=float)
        eps_t = 1e-6 * max(1.0, abs(self.t_max)) if math.isfinite(self.t_max) else 0.0
        out = (ta < self.t_min - eps_t) | (ta > self.t_max + eps_t)
        if np.any(out):
            if not clamp_time:
                raise ExtentError("t", float(ta[out].flat[0]), self.t_min, self.t_max)
            # clamp only the times beyond the tolerance, so that each point
            # of a batch is sampled as it would be on its own
            ta = np.where(out, np.clip(ta, self.t_min, self.t_max), ta)
        return ta

    def _check_extent(self, x, y, t, clamp_time=False):
        xa, ya = self._check_space(x, y)
        return xa, ya, self._check_time(t, clamp_time)

    def sample(self, x: float, y: float, t: float, clamp_time: bool = False):
        """Velocity (u, v) in m/s at one point."""
        u, v = self.sample_many(x, y, t, clamp_time=clamp_time)
        return float(u), float(v)

    def sample_many(self, x, y, t, clamp_time: bool = False):
        """Vectorized sampling; x, y, t broadcast together."""
        raise NotImplementedError

    def sampler(self, x, y, clamp_time: bool = False):
        """``t -> (u, v)`` at the fixed points (x, y) for one time t, equal
        to ``sample_many(x, y, t, clamp_time)``; flows override it to
        precompute what does not depend on t."""
        return lambda t: self.sample_many(x, y, t, clamp_time=clamp_time)

    def covers(self, x_lo, x_hi, y_lo, y_hi, t_lo, t_hi) -> bool:
        eps = 1e-6
        return (
            self.x_min - eps <= x_lo
            and x_hi <= self.x_max + eps
            and self.y_min - eps <= y_lo
            and y_hi <= self.y_max + eps
            and self.t_min - eps * max(1.0, abs(t_lo)) <= t_lo
            and t_hi <= self.t_max + eps * max(1.0, abs(t_hi))
        )


@dataclass(frozen=True)
class UniformFlow(FlowSource):
    """Spatially and temporally constant velocity."""

    u: float
    v: float

    is_steady = True

    def sample_many(self, x, y, t, clamp_time=False):
        xa, ya, _ = self._check_extent(x, y, t, clamp_time)
        shape = np.broadcast(xa, ya).shape
        return np.full(shape, self.u), np.full(shape, self.v)


@dataclass(frozen=True)
class HighwayFlow(FlowSource):
    """Piecewise-constant band: ``band_velocity`` for y in [y1, y2], zero outside."""

    y1: float
    y2: float
    band_u: float
    band_v: float

    is_steady = True

    def __post_init__(self):
        if self.y1 >= self.y2:
            raise ParameterError("highway requires y1 < y2")

    def sample_many(self, x, y, t, clamp_time=False):
        xa, ya, _ = self._check_extent(x, y, t, clamp_time)
        xa, ya = np.broadcast_arrays(np.asarray(xa, float), np.asarray(ya, float))
        inside = (ya >= self.y1) & (ya <= self.y2)
        return np.where(inside, self.band_u, 0.0), np.where(inside, self.band_v, 0.0)


@dataclass(frozen=True)
class DoubleGyreFlow(FlowSource):
    """Periodically perturbed double gyre on [0, 2*scale] x [0, scale].

    Stream function psi = A sin(pi f(X, t)) sin(pi Y) with
    f = eps sin(omega t) X^2 + (1 - 2 eps sin(omega t)) X in normalized
    coordinates X = x/scale, Y = y/scale. Divergence-free by construction.
    """

    amplitude: float
    omega: float
    epsilon: float
    scale: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ParameterError("double gyre requires A >= 0")
        if self.scale <= 0:
            raise ParameterError("double gyre requires scale > 0")

    def sample_many(self, x, y, t, clamp_time=False):
        xa, ya, ta = self._check_extent(x, y, t, clamp_time)
        xa, ya, ta = np.broadcast_arrays(
            np.asarray(xa, float), np.asarray(ya, float), np.asarray(ta, float)
        )
        X = xa / self.scale
        Y = ya / self.scale
        b = self.epsilon * np.sin(self.omega * ta)
        a = 1.0 - 2.0 * b
        f = b * X**2 + a * X
        dfdx = 2.0 * b * X + a
        u = -math.pi * self.amplitude * np.sin(math.pi * f) * np.cos(math.pi * Y)
        v = math.pi * self.amplitude * np.cos(math.pi * f) * np.sin(math.pi * Y) * dfdx
        return u, v

    def sampler(self, x, y, clamp_time=False):
        # the y factors are fixed per point, and the x factors take one value
        # per distinct x: evaluate those once and gather them per point, in
        # the operation order of sample_many, so the result is bit-identical
        xa, ya = np.broadcast_arrays(*self._check_space(x, y))
        X_u, xi = np.unique(xa, return_inverse=True)
        xi = xi.reshape(xa.shape)
        X_u = X_u / self.scale
        Y = ya / self.scale
        cos_y, sin_y = np.cos(math.pi * Y), np.sin(math.pi * Y)

        def sample(t):
            ta = self._check_time(t, clamp_time)
            # an array, not a scalar, so np.sin takes sample_many's path
            b = self.epsilon * np.sin(self.omega * np.full(X_u.shape, ta))
            a = 1.0 - 2.0 * b
            f = b * X_u**2 + a * X_u
            dfdx = 2.0 * b * X_u + a
            u = (-math.pi * self.amplitude * np.sin(math.pi * f)).take(xi) * cos_y
            v = (math.pi * self.amplitude * np.cos(math.pi * f)).take(xi) * sin_y * dfdx.take(xi)
            return u, v

        return sample


@dataclass(frozen=True)
class GriddedFlow(FlowSource):
    """File- or array-backed field on a regular space-time grid.

    ``u`` and ``v`` are shaped (nt, ny, nx). Float32 input, such as an OFG1
    payload, is stored as float32 and any other input as float64, without a
    copy when it is already contiguous. Sampling widens the gathered corners
    to float64, which is exact, then interpolates bilinearly in space and
    linearly in time in float64.
    """

    grid: SpaceTimeGrid
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    # flat offsets of the 8 space-time corners from a cell's base index, in
    # the order sample_many reads them
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.grid
        want = (g.nt, g.ny, g.nx)

        def stored(a):
            a = np.asarray(a)
            dtype = np.float32 if a.dtype == np.float32 else np.float64
            return np.ascontiguousarray(a, dtype=dtype).reshape(want)

        u, v = stored(self.u), stored(self.v)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ParameterError("gridded flow contains non-finite values")
        # the later snapshot is k0 + 1, or k0 itself when nt == 1
        dk = g.ny * g.nx if g.nt > 1 else 0
        offsets = np.array([0, dk, 1, dk + 1, g.nx, dk + g.nx, g.nx + 1, dk + g.nx + 1])
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "_offsets", offsets)

    @property
    def x_min(self):
        return self.grid.x0

    @property
    def x_max(self):
        return self.grid.x_max

    @property
    def y_min(self):
        return self.grid.y0

    @property
    def y_max(self):
        return self.grid.y_max

    @property
    def t_min(self):
        return self.grid.t0

    @property
    def t_max(self):
        return self.grid.t_max

    @property
    def is_steady(self):
        return self.grid.nt == 1

    def sample_many(self, x, y, t, clamp_time=False):
        g = self.grid
        xa, ya, ta = self._check_extent(x, y, t, clamp_time)
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

        base = (k0 * g.ny + j0) * g.nx + i0
        idx = base + self._offsets.reshape((8,) + (1,) * base.ndim)

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

        return interp(self.u), interp(self.v)


def make_uniform(u: float, v: float) -> FlowSource:
    return UniformFlow(u, v)


def make_highway(y1: float, y2: float, band_velocity) -> FlowSource:
    """Constant-velocity band between y1 and y2, still water outside."""
    bu, bv = band_velocity
    return HighwayFlow(y1, y2, float(bu), float(bv))


def make_double_gyre(amplitude: float, omega: float, epsilon: float, scale: float) -> FlowSource:
    return DoubleGyreFlow(amplitude, omega, epsilon, scale)


def degrees_to_meters_grid(
    lon0: float, lat0: float, dlon: float, dlat: float, nx: int, ny: int,
    t0: float = 0.0, dt_snap: float = 1.0, nt: int = 1,
) -> SpaceTimeGrid:
    """Equirectangular adapter: degree-gridded axes to planar meters.

    1 deg latitude = 111320 m; longitude scaled by cos of the grid
    mid-latitude.
    """
    lat_ref = lat0 + 0.5 * (ny - 1) * dlat
    mx = M_PER_DEG * math.cos(math.radians(lat_ref))
    return SpaceTimeGrid(
        x0=lon0 * mx, y0=lat0 * M_PER_DEG,
        dx=dlon * mx, dy=dlat * M_PER_DEG,
        nx=nx, ny=ny, t0=t0, dt_snap=dt_snap, nt=nt,
    )


def write_flow_file(flow: GriddedFlow, path) -> None:
    """Write a gridded field in the OFG1 binary format (little-endian).

    Snapshots are converted and written one at a time, so no copy of the
    whole field is made."""
    g = flow.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            OFG1_MAGIC, g.nx, g.ny, g.nt, g.x0, g.dx, g.y0, g.dy, g.t0, g.dt_snap
        ))
        for arr in (flow.u, flow.v):
            for snap in arr:
                fh.write(np.ascontiguousarray(snap, dtype="<f4"))


def read_flow_file(path) -> GriddedFlow:
    """Read an OFG1 file; errors carry the byte offset of the defect.

    The flow's ``u`` and ``v`` are read-only float32 views of the file's
    bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError("truncated OFG1 header", offset=len(data))
    magic, nx, ny, nt, x0, dx, y0, dy, t0, dt_snap = _HEADER.unpack_from(data, 0)
    if magic != OFG1_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {OFG1_MAGIC!r}", offset=0)
    count = nt * ny * nx
    need = _HEADER.size + 2 * count * 4
    if len(data) < need:
        raise FormatError(
            f"truncated payload: need {need} bytes, have {len(data)}", offset=len(data)
        )
    payload = np.frombuffer(data, dtype="<f4", count=2 * count, offset=_HEADER.size)
    u, v = payload[:count], payload[count:]
    if not np.all(np.isfinite(u)):
        bad = int(np.flatnonzero(~np.isfinite(u))[0])
        raise FormatError("non-finite u value", offset=_HEADER.size + bad * 4)
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise FormatError("non-finite v value", offset=_HEADER.size + (count + bad) * 4)
    try:
        grid = SpaceTimeGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                             t0=t0, dt_snap=dt_snap, nt=nt)
    except ParameterError as exc:
        raise FormatError(f"invalid header: {exc}", offset=4) from exc
    return GriddedFlow(grid, u.reshape(nt, ny, nx), v.reshape(nt, ny, nx))
