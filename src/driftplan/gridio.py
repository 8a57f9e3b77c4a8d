"""Regular 2D grids: node geometry, cell lookups and distance transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

@dataclass(frozen=True)
class SpatialGrid:
    """Regular 2D grid: origin, spacing and node count per axis."""

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (0 < self.dx < np.inf and 0 < self.dy < np.inf):  # NaN fails too
            raise ParameterError(f"grid spacing must be positive and finite: {self.dx}, {self.dy}")
        if self.nx < 1 or self.ny < 1:
            raise ParameterError("grid must be non-empty")

    @property
    def x_max(self) -> float:
        return self.x0 + (self.nx - 1) * self.dx

    @property
    def y_max(self) -> float:
        return self.y0 + (self.ny - 1) * self.dy

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys)

    def nearest_cell(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the node closest to (x, y), clipped to the grid."""
        i = min(max(round((x - self.x0) / self.dx), 0), self.nx - 1)
        j = min(max(round((y - self.y0) / self.dy), 0), self.ny - 1)
        return j, i

    def nearest_cells(self, x, y):
        """``nearest_cell`` for arrays of points: (rows, cols) int arrays."""
        i = np.clip(np.rint((x - self.x0) / self.dx), 0, self.nx - 1).astype(np.intp)
        j = np.clip(np.rint((y - self.y0) / self.dy), 0, self.ny - 1).astype(np.intp)
        return j, i

    def bilinear_cell(self, x: float, y: float):
        """(j0, i0, wx, wy): the lower-left node of the cell that holds (x, y),
        clamped to the grid, and the offsets in it as fractions of a cell."""
        fx = min(max((x - self.x0) / self.dx, 0.0), self.nx - 1.0)
        fy = min(max((y - self.y0) / self.dy, 0.0), self.ny - 1.0)
        i0 = min(int(fx), self.nx - 2) if self.nx > 1 else 0
        j0 = min(int(fy), self.ny - 2) if self.ny > 1 else 0
        return j0, i0, fx - i0, fy - j0


def _row_gaps(marked: np.ndarray) -> np.ndarray:
    """Column distance to the row's nearest marked cell; 2(nx+ny) or more without one."""
    ny, nx = marked.shape
    col, far = np.arange(nx), 2 * (nx + ny)
    left = np.maximum.accumulate(np.where(marked, col, -far), axis=1)
    right = np.minimum.accumulate(np.where(marked, col, far)[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(col - left, right - col)


def taxicab_distance(marked: np.ndarray) -> np.ndarray:
    """4-connected hops to the nearest marked cell, of which there must be
    one: scipy.ndimage's ``distance_transform_cdt(~marked, metric="taxicab")``."""
    gap, r = _row_gaps(marked), np.arange(marked.shape[0])[:, None]
    down = np.minimum.accumulate(gap - r, axis=0) + r
    return np.minimum(down, np.minimum.accumulate((gap + r)[::-1], axis=0)[::-1] - r)


def euclidean_distance(marked: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Distance to the nearest marked cell, rows ``dy`` and columns ``dx``
    apart, +inf without one: the square root of the least float64
    ``(dr*dy)**2 + (dc*dx)**2`` over the offsets (dr, dc) to marked cells.
    That is scipy.ndimage's ``distance_transform_edt(~marked, sampling=(dy, dx))``
    to one ulp: where offsets at one exact distance round to different
    floats, scipy keeps the one its envelope walk meets first, not the least."""
    if not marked.any():
        return np.full(marked.shape, np.inf)
    work = [m.any(1).sum() * (~m.all(1)).sum() * m.shape[1] for m in (marked, marked.T)]
    if work[0] <= work[1]:
        return np.sqrt(_least_squares(marked, dy, dx))
    return np.sqrt(_least_squares(marked.T, dx, dy).T)


def _least_squares(marked: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Least squared distances from one candidate per marked row, its nearest
    marked cell in the row: float rounding is monotone, so no farther cell in
    that row gives a smaller float."""
    src = np.flatnonzero(marked.any(axis=1))
    dst = np.flatnonzero(~marked.all(axis=1))  # the other rows are all 0
    gx = np.square(_row_gaps(marked[src]) * dx)
    d2 = np.zeros(marked.shape)
    step = max(1, (1 << 16) // gx.size)  # at most 64 Ki candidates at once
    for a in range(0, dst.size, step):
        rows = dst[a:a + step]
        d2[rows] = (np.square((src[:, None] - rows) * dy)[:, :, None] + gx[:, None]).min(axis=0)
    return d2

