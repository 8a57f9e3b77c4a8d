"""Regular 2D grids: cell lookups, plus PGM (P2) heatmap and CSV exports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

#: the gray level of a PGM's largest finite value
PGM_MAXVAL = 255


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
        if self.dx <= 0 or self.dy <= 0:
            raise ParameterError("grid spacing must be positive")
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


def write_pgm(path, array) -> None:
    """Write a 2D array as an ASCII PGM, linearly scaled to [0, PGM_MAXVAL].

    Non-finite cells map to 0. Row 0 of the array is the bottom of the
    grid, so rows are flipped for image convention.
    """
    a = np.asarray(array, dtype=float)
    finite = np.isfinite(a)
    if finite.any():
        lo = float(a[finite].min())
        hi = float(a[finite].max())
        span = hi - lo if hi > lo else 1.0
        scaled = np.where(finite, np.round((a - lo) / span * PGM_MAXVAL), 0)
    else:
        scaled = np.zeros(a.shape)
    scaled = scaled.astype(int)[::-1]
    with open(path, "w") as fh:
        fh.write(f"P2\n{a.shape[1]} {a.shape[0]}\n{PGM_MAXVAL}\n")
        for row in scaled:
            fh.write(" ".join(str(v) for v in row) + "\n")


def write_csv_grid(path, array, fmt: str = "%.6g") -> None:
    np.savetxt(path, np.asarray(array, dtype=float), delimiter=",", fmt=fmt)
