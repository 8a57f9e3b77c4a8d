"""Time-varying 2D velocity fields: analytical forms, gridded data, file I/O.

All fields are sampled in planar Cartesian meters and seconds. Gridded
fields interpolate bilinearly in space and linearly in time; analytical
fields evaluate their closed form. Every field object is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExtentError, FormatError, ParameterError
from .gridio import SpatialGrid, check_finite

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
        check_finite("snapshot spacing", self.dt_snap, sign="positive")
        check_finite("grid start time", self.t0)
        if self.nt < 1:
            raise ParameterError("grid needs at least 1 snapshot")

    @property
    def t_max(self) -> float:
        return self.t0 + (self.nt - 1) * self.dt_snap

    @property
    def ts(self) -> np.ndarray:
        return self.t0 + self.dt_snap * np.arange(self.nt)

    def spanning(self, t_start: float, t_end: float) -> SpaceTimeGrid:
        """This grid's space over [t_start, t_end], in the fewest equal
        intervals no longer than dt_snap, and at least one."""
        span = t_end - t_start
        check_finite("time span", span)  # two finite ends may be an infinity apart
        n = max(1, math.ceil(span / self.dt_snap - 1e-9))
        return replace(self, t0=t_start, dt_snap=span / n, nt=n + 1)


class FlowSource:
    """Base class for velocity fields sampled at continuous (x, y, t)."""

    #: spatial/temporal extents; analytical fields default to unbounded
    x_min = y_min = t_min = -math.inf
    x_max = y_max = t_max = math.inf
    #: the extent per axis x, y, t as (3, 1) columns, widened by the
    #: tolerance the checks allow; bounded flows set both with _set_extent
    _lo = np.full((3, 1), -math.inf)
    _hi = np.full((3, 1), math.inf)

    #: True when sample_many is independent of t, letting consumers reuse
    #: one sampled snapshot instead of resampling every step
    is_steady = False

    def _set_extent(self, x_min, x_max, y_min, y_max, t_min, t_max):
        """Set the extent once, with its bounds padded by 1e-9 relative in
        space and 1e-6 relative in time, on the upper bound's scale, and not
        at all beside an infinite upper bound."""

        def pad(hi, rel):
            return rel * max(1.0, abs(hi)) if math.isfinite(hi) else 0.0

        eps = (pad(x_max, 1e-9), pad(y_max, 1e-9), pad(t_max, 1e-6))
        lo, hi = (x_min, y_min, t_min), (x_max, y_max, t_max)
        for name, value in dict(
            x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max, t_min=t_min, t_max=t_max,
            _lo=np.subtract(lo, eps).reshape(3, 1), _hi=np.add(hi, eps).reshape(3, 1),
        ).items():
            object.__setattr__(self, name, value)

    def _check_extent(self, *coords, axes="xyt", clamp_time=False):
        """The coordinates as float arrays, each checked against the padded
        bounds of its axis, named in ``axes``, in turn. The first point
        beyond them, or NaN, raises ExtentError; with clamp_time, times
        beyond them are clamped to the extent instead, each point as it
        would be on its own."""
        out = []
        for axis, c in zip(axes, coords, strict=True):
            k = "xyt".index(axis)
            a = np.asarray(c, dtype=float)
            ok = (a >= self._lo[k, 0]) & (a <= self._hi[k, 0])
            if not ok.all():
                lo, hi = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
                clamp = clamp_time and axis == "t"
                bad = np.isnan(a) if clamp else ~ok
                if bad.any():
                    raise ExtentError(axis, float(a[bad].flat[0]), lo, hi)
                a = np.where(ok, a, np.clip(a, lo, hi))
            out.append(a)
        return out

    def inside(self, x, y):
        """Boolean mask of the points (x, y) that lie in the padded spatial
        extent; NaN lies outside."""
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        return ((xa >= self._lo[0, 0]) & (xa <= self._hi[0, 0])
                & (ya >= self._lo[1, 0]) & (ya <= self._hi[1, 0]))

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
        """Whether the box lies within the padded extent."""
        return bool(np.all((self._lo[:, 0] <= (x_lo, y_lo, t_lo))
                           & ((x_hi, y_hi, t_hi) <= self._hi[:, 0])))


def grid_lines(xa: np.ndarray, ya: np.ndarray):
    """The first row of x and the first column of y of grid-shaped points,
    or None: 2-D float arrays of one shape whose rows of x, and columns of
    y, have the bits of the first, as ``SpatialGrid.meshgrid()`` makes them
    (bits, so that a 0.0 and a -0.0 node differ)."""
    if (xa.ndim == 2 and xa.shape == ya.shape
            and (xa.view(np.int64) == xa[:1].view(np.int64)).all()
            and (ya.view(np.int64) == ya[:, :1].view(np.int64)).all()):
        return xa[:1], ya[:, :1]
    return None


@dataclass(frozen=True)
class UniformFlow(FlowSource):
    """Spatially and temporally constant velocity."""

    u: float
    v: float

    is_steady = True

    def __post_init__(self):
        check_finite("uniform velocity", self.u, self.v)

    def sample_many(self, x, y, t, clamp_time=False):
        xa, ya, _ = self._check_extent(x, y, t, clamp_time=clamp_time)
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
        check_finite("highway band and velocity", self.y1, self.y2, self.band_u, self.band_v)
        if not self.y1 < self.y2:
            raise ParameterError(f"highway requires y1 < y2: {self}")

    def sample_many(self, x, y, t, clamp_time=False):
        xa, ya, _ = self._check_extent(x, y, t, clamp_time=clamp_time)
        xa, ya = np.broadcast_arrays(xa, ya)
        inside = (ya >= self.y1) & (ya <= self.y2)
        return np.where(inside, self.band_u, 0.0), np.where(inside, self.band_v, 0.0)


@dataclass(frozen=True)
class DoubleGyreFlow(FlowSource):
    """Periodically perturbed double gyre on [0, 2*scale] x [0, scale].

    Stream function psi = A sin(pi f(X, t)) sin(pi Y) with
    f = eps sin(omega t) X^2 + (1 - 2 eps sin(omega t)) X in normalized
    coordinates X = x/scale, Y = y/scale. Divergence-free by construction.

    Grid-shaped points, 2-D x and y of one shape with every row of x and
    every column of y bitwise equal to the first, as ``SpatialGrid.meshgrid()``
    makes them, are evaluated one grid line at a time, with the same bytes.
    """

    amplitude: float
    omega: float
    epsilon: float
    scale: float

    def __post_init__(self):
        check_finite("double gyre amplitude", self.amplitude, sign="non-negative")
        check_finite("double gyre scale", self.scale, sign="positive")
        check_finite("double gyre omega and epsilon", self.omega, self.epsilon)

    def sample_many(self, x, y, t, clamp_time=False):
        if getattr(x, "ndim", 0) == 2 and np.ndim(t) == 0:  # maybe grid-shaped
            return self.sampler(x, y, clamp_time)(t)
        return self._pointwise(x, y, t, clamp_time)

    def sampler(self, x, y, clamp_time=False):
        lines = grid_lines(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        if lines is None:
            return lambda t: self._pointwise(x, y, t, clamp_time)
        row, col = self._check_extent(*lines, axes="xy")
        X, Y = row / self.scale, col / self.scale
        cos_y, sin_y = np.cos(math.pi * Y), np.sin(math.pi * Y)

        def sample(t):
            ta, = self._check_extent(t, axes="t", clamp_time=clamp_time)
            if ta.ndim:  # a time per point, as sample_many allows
                return self._pointwise(x, y, t, clamp_time)
            # an array, not a scalar, so np.sin takes the pointwise path's loop
            return self._uv(X, cos_y, sin_y, np.full(X.shape, ta))

        return sample

    def _pointwise(self, x, y, t, clamp_time):
        xa, ya, ta = np.broadcast_arrays(*self._check_extent(x, y, t, clamp_time=clamp_time))
        Y = ya / self.scale
        return self._uv(xa / self.scale, np.cos(math.pi * Y), np.sin(math.pi * Y), ta)

    def _uv(self, X, cos_y, sin_y, ta):
        # one order of operations for both paths, on operands that broadcast
        b = self.epsilon * np.sin(self.omega * ta)
        a = 1.0 - 2.0 * b
        # X * X, not X**2: a scalar's ** calls pow, which can be 1 ulp off
        # the x * x that numpy squares an array with
        f = b * (X * X) + a * X
        dfdx = 2.0 * b * X + a
        u = -math.pi * self.amplitude * np.sin(math.pi * f) * cos_y
        v = math.pi * self.amplitude * np.cos(math.pi * f) * sin_y * dfdx
        return u, v


@dataclass(frozen=True)
class GriddedFlow(FlowSource):
    """File- or array-backed field on a regular space-time grid.

    ``u`` and ``v`` are shaped (nt, ny, nx). Float32 input, such as an OFG1
    payload, is stored as float32 and any other input as float64, without a
    copy when it is already contiguous. Sampling gathers the u and v corners
    into one array, widens them to float64, which is exact, then
    interpolates bilinearly in space and linearly in time in float64.
    """

    grid: SpaceTimeGrid
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

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
        self._set_extent(g.x0, g.x_max, g.y0, g.y_max, g.t0, g.t_max)
        # per axis x, y, t, as columns: origin, spacing, and the largest
        # fractional and base index; then the flat strides, and the offsets
        # of a cell's 8 space-time corners in the order sample_many blends
        # them. The later snapshot is k0 + 1, or k0 itself when nt == 1.
        dk = g.ny * g.nx if g.nt > 1 else 0

        def col(*a):
            return np.array(a).reshape(-1, 1)

        for name, value in dict(
            u=u, v=v,
            _origin=col(g.x0, g.y0, g.t0), _spacing=col(g.dx, g.dy, g.dt_snap),
            _f_cap=col(g.nx - 1.0, g.ny - 1.0, max(g.nt - 1.0, 0.0)),
            _i_cap=col(g.nx - 2, g.ny - 2, max(g.nt - 2, 0)),
            _strides=np.array([1, g.nx, g.ny * g.nx]),
            _offsets=col(0, dk, 1, dk + 1, g.nx, dk + g.nx, g.nx + 1, dk + g.nx + 1),
        ).items():
            object.__setattr__(self, name, value)

    @property
    def is_steady(self):
        return self.grid.nt == 1

    def sample_many(self, x, y, t, clamp_time=False):
        shape = np.broadcast(x, y, t).shape
        p = np.empty((3,) + shape)
        p[0], p[1], p[2] = x, y, t
        q = p.reshape(3, -1)  # x, y, t rows of the broadcast points
        if not (q.size and ((q >= self._lo) & (q <= self._hi)).all()):
            # a point beyond the tolerance, a NaN or no point at all: check
            # and clamp as every flow does, x before y before t
            p[0], p[1], p[2] = self._check_extent(x, y, t, clamp_time=clamp_time)
        # fractional and base index per axis: the clip ufunc with scalar bounds keeps
        # a -0.0 that np.maximum, np.fmax and array bounds lose, so the cap is a minimum
        f = (q - self._origin) / self._spacing
        f.clip(0.0, np.inf, out=f)
        np.minimum(f, self._f_cap, out=f)
        i = np.minimum(f.astype(int), self._i_cap)
        w = np.empty((2,) + f.shape)  # 1 - weight, weight
        np.subtract(f, i, out=w[1])
        if self.grid.nt == 1:
            w[1, 2] = 0.0  # one snapshot: no time weight, whatever t is
        np.subtract(1, w[1], out=w[0])
        idx = self._strides @ i + self._offsets
        # corners as (u or v, y corner, x corner, snapshot, point): blend the
        # two snapshots, then weight by x and by y, as c00 * rx * ry + ...
        a = np.array((self.u.take(idx), self.v.take(idx)), dtype=np.float64)
        a = a.reshape(2, 2, 2, 2, -1)
        a *= w[:, 2]
        c = a[..., 0, :] + a[..., 1, :]
        c *= w[:, 0]
        c *= w[:, 1, None]
        uv = c[:, 0, 0] + c[:, 0, 1] + c[:, 1, 0] + c[:, 1, 1]
        uv = uv.reshape((2,) + shape)
        return uv[0], uv[1]


def make_uniform(u: float, v: float) -> FlowSource:
    return UniformFlow(u, v)


def make_highway(y1: float, y2: float, band_velocity) -> FlowSource:
    """Constant-velocity band between y1 and y2, still water outside."""
    bu, bv = band_velocity
    return HighwayFlow(y1, y2, float(bu), float(bv))


def make_double_gyre(amplitude: float, omega: float, epsilon: float, scale: float) -> FlowSource:
    return DoubleGyreFlow(amplitude, omega, epsilon, scale)


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
    try:
        grid = SpaceTimeGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                             t0=t0, dt_snap=dt_snap, nt=nt)
    except ParameterError as exc:
        raise FormatError(f"invalid header: {exc}", offset=4) from exc
    payload = np.frombuffer(data, dtype="<f4", count=2 * count, offset=_HEADER.size)
    try:
        # GriddedFlow scans the payload for non-finite values, once
        return GriddedFlow(grid, payload[:count].reshape(nt, ny, nx),
                           payload[count:].reshape(nt, ny, nx))
    except ParameterError:
        bad = int(np.flatnonzero(~np.isfinite(payload))[0])
        raise FormatError(f"non-finite {'v' if bad >= count else 'u'} value",
                          offset=_HEADER.size + bad * 4) from None
