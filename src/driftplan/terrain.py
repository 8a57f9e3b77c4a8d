"""Elevation grids, obstacle masks, and hop-distance-to-obstacle maps."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FormatError, ParameterError
from .gridio import SpatialGrid, check_finite, euclidean_distance, taxicab_distance

#: default obstacle threshold: seafloor shallower than 150 m is unsafe
DEFAULT_THRESHOLD_M = -150.0

ELG1_MAGIC = b"ELG1"
_HEADER = struct.Struct("<4sII4d")


@dataclass(frozen=True)
class ElevationGrid:
    """Per-cell elevation in meters, negative below sea level."""

    grid: SpatialGrid
    elevation: np.ndarray = field(repr=False)  # (ny, nx)

    def __post_init__(self):
        e = np.ascontiguousarray(
            np.asarray(self.elevation, dtype=np.float64).reshape(self.grid.ny, self.grid.nx)
        )
        if not np.all(np.isfinite(e)):
            raise ParameterError("elevation grid contains non-finite values")
        object.__setattr__(self, "elevation", e)


@dataclass(frozen=True)
class ObstacleMask:
    """Boolean obstacle grid: True where elevation exceeds the threshold."""

    grid: SpatialGrid
    mask: np.ndarray = field(repr=False)  # (ny, nx) bool

    def __post_init__(self):
        m = np.ascontiguousarray(
            np.asarray(self.mask, dtype=bool).reshape(self.grid.ny, self.grid.nx)
        )
        object.__setattr__(self, "mask", m)

    @cached_property
    def clearance(self) -> np.ndarray:
        """Signed clearance on the nodes, read-only and computed at first use:
        the distance to the obstacles less that to free water."""
        g, m = self.grid, self.mask
        out = euclidean_distance(m, g.dy, g.dx) - euclidean_distance(~m, g.dy, g.dx)
        out.flags.writeable = False
        return out

    def contains(self, x: float, y: float) -> bool:
        """Obstacle membership by nearest-cell lookup."""
        return self.mask.item(self.grid.nearest_cell(x, y))

    def contains_many(self, x, y) -> np.ndarray:
        """``contains`` for arrays of points."""
        return self.mask[self.grid.nearest_cells(x, y)]


@dataclass(frozen=True)
class DistanceMap:
    """Distance to the nearest obstacle cell, in meters (0 on obstacles)."""

    grid: SpatialGrid
    distance: np.ndarray = field(repr=False)  # (ny, nx), +inf if no obstacles

    def value_at(self, x: float, y: float) -> float:
        """Bilinearly interpolated distance at a continuous position;
        +inf on an obstacle-free map."""
        j0, i0, wx, wy = self.grid.bilinear_cell(x, y)
        d, total = self.distance.item, 0.0
        # corners of weight 0 are skipped, unread: a single row or column
        # has no +1 corner, and +inf there would give inf * 0 = NaN. The
        # others add up from 0.0 in the full bilinear sum's order; sum()
        # would compensate Python floats from Python 3.12 on
        for j, i, a, b in ((j0, i0, 1 - wx, 1 - wy), (j0, i0 + 1, wx, 1 - wy),
                           (j0 + 1, i0, 1 - wx, wy), (j0 + 1, i0 + 1, wx, wy)):
            if a and b:
                total += d(j, i) * a * b
        return float(total)

    def gradient_at(self, x: float, y: float) -> tuple[float, float]:
        """Central-difference gradient of the distance field at (x, y)."""
        g = self.grid
        j, i = g.nearest_cell(x, y)
        d = self.distance.item
        im, ip = max(i - 1, 0), min(i + 1, g.nx - 1)
        jm, jp = max(j - 1, 0), min(j + 1, g.ny - 1)
        gx = (d(j, ip) - d(j, im)) / ((ip - im) * g.dx) if ip > im else 0.0
        gy = (d(jp, i) - d(jm, i)) / ((jp - jm) * g.dy) if jp > jm else 0.0
        # an obstacle-free map is uniformly infinite: inf - inf has no
        # meaningful direction, report a flat gradient instead of NaN
        if not (math.isfinite(gx) and math.isfinite(gy)):
            return 0.0, 0.0
        return float(gx), float(gy)


def coarsen_max(elev: ElevationGrid, factor: int) -> ElevationGrid:
    """Block-maximum coarsening; conservative for obstacle detection.

    Grids whose dimensions are not divisible by ``factor`` are padded by
    edge replication first.
    """
    if factor < 1:
        raise ParameterError("coarsening factor must be >= 1")
    if factor == 1:
        return elev
    e = elev.elevation
    ny, nx = e.shape
    pad_y = (-ny) % factor
    pad_x = (-nx) % factor
    if pad_x or pad_y:
        e = np.pad(e, ((0, pad_y), (0, pad_x)), mode="edge")
    NY, NX = e.shape
    blocks = e.reshape(NY // factor, factor, NX // factor, factor)
    out = blocks.max(axis=(1, 3))
    g = elev.grid
    new_grid = SpatialGrid(
        x0=g.x0, y0=g.y0, dx=g.dx * factor, dy=g.dy * factor,
        nx=out.shape[1], ny=out.shape[0],
    )
    return ElevationGrid(new_grid, out)


def obstacle_mask(elev: ElevationGrid, threshold: float = DEFAULT_THRESHOLD_M) -> ObstacleMask:
    """Cells strictly above the threshold elevation are obstacles."""
    check_finite("obstacle threshold", threshold)
    return ObstacleMask(elev.grid, elev.elevation > threshold)


def distance_map(mask: ObstacleMask) -> DistanceMap:
    """4-connected hop distance from the nearest obstacle cell.

    Distance = hop count x cell spacing; requires square cells. A mask
    with no obstacles yields +inf everywhere.
    """
    g = mask.grid
    if not math.isclose(g.dx, g.dy, rel_tol=1e-6):
        raise ParameterError("distance_map requires square cells (dx == dy)")
    m = mask.mask
    return DistanceMap(g, taxicab_distance(m) * g.dx if m.any() else np.full(m.shape, np.inf))


def read_elevation_file(path) -> ElevationGrid:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise FormatError("truncated ELG1 header", offset=len(data))
    magic, nx, ny, x0, dx, y0, dy = _HEADER.unpack_from(data, 0)
    if magic != ELG1_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {ELG1_MAGIC!r}", offset=0)
    count = ny * nx
    need = _HEADER.size + count * 4
    if len(data) < need:
        raise FormatError(
            f"truncated payload: need {need} bytes, have {len(data)}", offset=len(data)
        )
    vals = np.frombuffer(data, dtype="<f4", count=count, offset=_HEADER.size)
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise FormatError("non-finite elevation value", offset=_HEADER.size + bad * 4)
    try:
        grid = SpatialGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny)
    except ParameterError as exc:
        raise FormatError(f"invalid header: {exc}", offset=4) from exc
    return ElevationGrid(grid, vals.astype(np.float64).reshape(ny, nx))
