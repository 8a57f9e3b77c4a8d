"""Terrain pipeline: elevation grids, coarsening, masks, BFS distance, and
the gridio distance transforms against a brute-force oracle and scipy's."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    bfs_hops,
    brute_euclidean_distance,
    distance_gradient_at,
    distance_value_at,
    scipy_euclidean_distance,
    scipy_taxicab_distance,
)

from driftplan.errors import FormatError, ParameterError
from driftplan.gridio import FLOAT_MAX, check_finite, euclidean_distance, taxicab_distance
from driftplan.terrain import (
    DistanceMap,
    ElevationGrid,
    ObstacleMask,
    SpatialGrid,
    coarsen_max,
    distance_map,
    obstacle_mask,
    read_elevation_file,
)


def _elev(arr, dx=100.0):
    arr = np.asarray(arr, dtype=float)
    ny, nx = arr.shape
    return ElevationGrid(grid=SpatialGrid(0.0, 0.0, dx, dx, nx, ny), elevation=arr)


def write_elevation_file(elev, path):
    """Write an ELG1 binary elevation file (little-endian, y-major): the
    magic, nx and ny as u32, x0, dx, y0 and dy as f64, then f32 values."""
    g = elev.grid
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII4d", b"ELG1", g.nx, g.ny, g.x0, g.dx, g.y0, g.dy))
        fh.write(np.asarray(elev.elevation, dtype="<f4").tobytes())


def test_threshold_is_strict():
    e = _elev([[-300.0, -150.0], [-149.0, 0.0]])
    m = obstacle_mask(e, threshold=-150.0)
    assert m.mask.tolist() == [[False, False], [True, True]]


@pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf,
                                     pytest.param(10**400, id="10**400")])
def test_grid_spacing_must_be_positive_and_finite(spacing):
    for dx, dy in ((spacing, 1.0), (1.0, spacing)):
        with pytest.raises(ParameterError, match="spacing"):
            SpatialGrid(0.0, 0.0, dx, dy, 3, 3)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf,
                                       pytest.param(10**400, id="10**400")])
def test_obstacle_threshold_must_be_finite(threshold):
    with pytest.raises(ParameterError, match="obstacle threshold must be finite"):
        obstacle_mask(_elev([[-300.0, 0.0]]), threshold=threshold)


@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.integers(-int(FLOAT_MAX), int(FLOAT_MAX)))
@example(0)
@example(-0.0)
@example(5e-324)
@example(-FLOAT_MAX)
def test_check_finite_accepts_every_float_and_integer_in_float_range(value):
    check_finite("value", value)
    check_finite("value", abs(value), sign="non-negative")
    if value:
        check_finite("value", abs(value), sign="positive")


@pytest.mark.parametrize("value, sign", [
    (math.nan, ""), (math.inf, ""), (-math.inf, ""), (10**400, ""), (-10**400, ""),
    (math.nan, "positive"), (math.inf, "positive"), (10**400, "non-negative"),
    (0, "positive"), (0.0, "positive"), (-0.0, "positive"), (-5e-324, "non-negative"),
    (-1, "non-negative")], ids=["nan", "inf", "minus-inf", "huge", "minus-huge", "nan-positive",
                                "inf-positive", "huge-non-negative", "int-0-positive",
                                "0-positive", "minus-0-positive", "minus-tiny-non-negative",
                                "minus-1-non-negative"])
def test_check_finite_refuses_what_is_not_finite_or_of_its_sign(value, sign):
    with pytest.raises(ParameterError, match="^value must be .*finite"):
        check_finite("value", 1.0, value, sign=sign)


def test_mask_contains_uses_nearest_cell():
    e = _elev([[-300.0, 0.0], [-300.0, -300.0]])
    m = obstacle_mask(e)
    assert m.contains(100.0, 0.0)
    assert m.contains(60.0, 0.0)   # rounds to cell (0, 1)
    assert not m.contains(40.0, 0.0)


def test_distance_map_simple_column():
    e = _elev([[0.0, -300.0, -300.0]] * 3)
    m = obstacle_mask(e)
    d = distance_map(m)
    # obstacle occupies column 0; hop counts scale by spacing
    np.testing.assert_allclose(d.distance[:, 0], 0.0)
    np.testing.assert_allclose(d.distance[:, 1], 100.0)
    np.testing.assert_allclose(d.distance[:, 2], 200.0)


def test_distance_map_no_obstacles_is_infinite():
    e = _elev(np.full((4, 4), -500.0))
    d = distance_map(obstacle_mask(e))
    assert np.all(np.isinf(d.distance))


def test_distance_map_requires_square_cells():
    g = SpatialGrid(0.0, 0.0, 100.0, 50.0, 3, 3)
    m = ObstacleMask(grid=g, mask=np.zeros((3, 3), dtype=bool))
    m.mask[0, 0] = True
    with pytest.raises(ParameterError):
        distance_map(m)


def test_coarsen_max_exact_blocks():
    arr = np.array([[1.0, 2.0, 3.0, 4.0],
                    [5.0, 6.0, 7.0, 8.0],
                    [0.0, -1.0, -2.0, -3.0],
                    [9.0, 9.5, -9.0, -9.5]])
    c = coarsen_max(_elev(arr), 2)
    np.testing.assert_allclose(c.elevation, [[6.0, 8.0], [9.5, -2.0]])
    assert c.grid.dx == 200.0


def test_coarsen_max_pads_ragged_edges():
    arr = np.arange(9, dtype=float).reshape(3, 3)
    c = coarsen_max(_elev(arr), 2)
    assert c.elevation.shape == (2, 2)
    assert c.elevation[1, 1] == 8.0


@settings(max_examples=100, deadline=None)
@given(
    ny=st.integers(2, 12),
    nx=st.integers(2, 12),
    factor=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_coarsen_max_is_conservative(ny, nx, factor, seed):
    """Any cell flagged as obstacle on the fine grid stays flagged after
    coarsening at the same threshold (block max can only raise values)."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-400.0, 100.0, size=(ny, nx))
    e = _elev(arr)
    fine = obstacle_mask(e, threshold=-150.0)
    coarse = obstacle_mask(coarsen_max(e, factor), threshold=-150.0)
    for j in range(ny):
        for i in range(nx):
            if fine.mask[j, i]:
                assert coarse.mask[j // factor, i // factor]


@settings(max_examples=100, deadline=None)
@given(
    ny=st.integers(2, 10),
    nx=st.integers(2, 10),
    p=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**31 - 1),
)
def test_distance_map_discrete_eikonal(ny, nx, p, seed):
    """BFS distances satisfy the discrete Eikonal property: zero on
    obstacles and one 4-neighbor hop (= spacing) above the minimum
    neighboring distance elsewhere."""
    rng = np.random.default_rng(seed)
    mask = rng.random((ny, nx)) < p
    if not mask.any():
        mask[0, 0] = True
    g = SpatialGrid(0.0, 0.0, 100.0, 100.0, nx, ny)
    d = distance_map(ObstacleMask(grid=g, mask=mask)).distance
    assert np.all(d[mask] == 0.0)
    for j in range(ny):
        for i in range(nx):
            if mask[j, i]:
                continue
            nbrs = []
            if i > 0:
                nbrs.append(d[j, i - 1])
            if i < nx - 1:
                nbrs.append(d[j, i + 1])
            if j > 0:
                nbrs.append(d[j - 1, i])
            if j < ny - 1:
                nbrs.append(d[j + 1, i])
            assert d[j, i] == min(nbrs) + 100.0


def test_distance_map_interpolation_and_gradient():
    e = _elev([[0.0, -300.0, -300.0]] * 3)
    d = distance_map(obstacle_mask(e))
    assert d.value_at(150.0, 100.0) == pytest.approx(150.0)
    gx, gy = d.gradient_at(100.0, 100.0)
    assert gx == pytest.approx(1.0)
    assert gy == pytest.approx(0.0)


def test_elevation_file_round_trip(tmp_path):
    e = _elev(np.linspace(-500, 50, 12).reshape(3, 4))
    path = tmp_path / "terrain.elg"
    write_elevation_file(e, path)
    e2 = read_elevation_file(path)
    assert e2.grid == e.grid
    np.testing.assert_allclose(e2.elevation, e.elevation, atol=1e-4)


def test_elevation_file_bad_magic(tmp_path):
    path = tmp_path / "bad.elg"
    path.write_bytes(b"XXXX" + b"\x00" * 60)
    with pytest.raises(FormatError):
        read_elevation_file(path)


ELG1_HEADER = 44  # magic, nx, ny, then x0, dx, y0, dy as f64


def _set_header_nx_0(data):
    # a single column is a valid grid, so an empty one is the invalid header
    struct.pack_into("<I", data, 4, 0)
    return data, 4


def _cut_header(data):
    return data[:20], 20


def _cut_payload(data):
    return data[:-3], len(data) - 3


def _nan_in_elevation(data):
    struct.pack_into("<f", data, ELG1_HEADER + 4 * 5, math.nan)
    return data, ELG1_HEADER + 4 * 5


def _nan_x0(data):
    # a non-finite origin is an invalid header, as an empty grid is
    struct.pack_into("<d", data, 12, math.nan)
    return data, 4


def _inf_y0(data):
    struct.pack_into("<d", data, 28, math.inf)
    return data, 4


@pytest.mark.parametrize("corrupt", [_set_header_nx_0, _cut_header, _cut_payload,
                                     _nan_in_elevation, _nan_x0, _inf_y0])
def test_elevation_file_defect_offsets(tmp_path, corrupt):
    path = tmp_path / "terrain.elg"
    write_elevation_file(_elev(np.linspace(-500, 50, 12).reshape(3, 4)), path)
    data, offset = corrupt(bytearray(path.read_bytes()))
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as ei:
        read_elevation_file(path)
    assert ei.value.offset == offset


@settings(max_examples=100, deadline=None)
@given(
    ny=st.integers(1, 12),
    nx=st.integers(1, 12),
    p=st.sampled_from([0.0, 0.05, 0.3, 0.8, 1.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_distance_map_matches_bfs_reference(ny, nx, p, seed):
    """The distance transform equals the multi-source BFS, including empty
    (all +inf) and full (all 0) masks."""
    mask = np.random.default_rng(seed).random((ny, nx)) < p
    d = distance_map(ObstacleMask(grid=SpatialGrid(0.0, 0.0, 250.0, 250.0, nx, ny),
                                  mask=mask)).distance
    if not mask.any():
        assert np.all(d == np.inf)
    else:
        assert d.dtype == np.float64
        assert d.tobytes() == (bfs_hops(mask) * 250.0).tobytes()


def test_contains_many_matches_contains():
    rng = np.random.default_rng(3)
    g = SpatialGrid(-50.0, 20.0, 100.0, 100.0, 7, 5)
    om = ObstacleMask(grid=g, mask=rng.random((5, 7)) < 0.5)
    # off-grid points, exact node positions and half-way ties
    x = np.concatenate([rng.uniform(-400.0, 1000.0, 200), g.x0 + 50.0 * np.arange(-2, 16)])
    y = np.concatenate([rng.uniform(-300.0, 700.0, 200), g.y0 + 50.0 * np.arange(-2, 16)])
    got = om.contains_many(x, y)
    assert got.tolist() == [om.contains(a, b) for a, b in zip(x, y)]
    # on a zero-origin grid: signed zeros, and points far beyond both edges
    zg = ObstacleMask(grid=SpatialGrid(0.0, 0.0, 100.0, 100.0, 7, 5), mask=om.mask)
    edge = np.array([0.0, -0.0, -1e300, 1e300, -1e18, 1e18, -49.9, 650.0])
    x, y = (a.ravel() for a in np.meshgrid(edge, edge))
    got = zg.contains_many(x, y)
    assert got.tolist() == [zg.contains(a, b) for a, b in zip(x, y)]


@settings(max_examples=200, deadline=None)
@given(
    ny=st.integers(1, 6),
    nx=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    no_obstacles=st.booleans(),
)
def test_distance_value_at_matches_reference(ny, nx, seed, no_obstacles):
    """DistanceMap.value_at equals its reference byte for byte, on and up to
    one cell off a grid with a non-zero origin and dx != dy. Where the
    reference fails, the fixed results are asserted instead:
    - an obstacle-free (all +inf) map gives +inf everywhere; the reference's
      inf * 0 gives NaN on grid lines and off the grid;
    - a single row or column, where the reference reads a +1 corner that
      does not exist, gives the reference on the map padded with a copy of
      its last row and column."""
    rng = np.random.default_rng(seed)
    g = SpatialGrid(-350.0, 120.0, 90.0, 160.0, nx, ny)
    d = np.full((ny, nx), np.inf) if no_obstacles else rng.integers(0, 9, (ny, nx)) * 90.0
    dmap = DistanceMap(g, d)
    padded = DistanceMap(g, np.pad(d, ((0, 1), (0, 1)), mode="edge"))
    for _ in range(20):
        x = rng.uniform(g.x0 - g.dx, g.x_max + g.dx)
        y = rng.uniform(g.y0 - g.dy, g.y_max + g.dy)
        if rng.random() < 0.3:  # on a node or a cell edge
            x = g.x0 + g.dx * int(rng.integers(-1, nx + 1))
        with np.errstate(invalid="raise"):
            got = dmap.value_at(x, y)
        if no_obstacles:
            assert got == math.inf
            continue
        try:
            want = distance_value_at(dmap, x, y)
        except IndexError:
            assert nx == 1 or ny == 1
            want = distance_value_at(padded, x, y)
        assert math.isfinite(want)
        assert struct.pack("<d", got) == struct.pack("<d", want)


@settings(max_examples=200, deadline=None)
@given(
    ny=st.integers(1, 6),
    nx=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
    no_obstacles=st.booleans(),
)
def test_distance_gradient_at_matches_reference(ny, nx, seed, no_obstacles):
    """DistanceMap.gradient_at equals its numpy-scalar reference byte for
    byte, on and up to one cell off a grid with a non-zero origin and
    dx != dy, single rows and columns included; an obstacle-free map is
    flat everywhere, with no floating-point warning."""
    rng = np.random.default_rng(seed)
    g = SpatialGrid(-350.0, 120.0, 90.0, 160.0, nx, ny)
    d = np.full((ny, nx), np.inf) if no_obstacles else rng.integers(0, 9, (ny, nx)) * 90.0
    dmap = DistanceMap(g, d)
    for _ in range(20):
        x = rng.uniform(g.x0 - g.dx, g.x_max + g.dx)
        y = rng.uniform(g.y0 - g.dy, g.y_max + g.dy)
        if rng.random() < 0.3:  # on a node
            x = g.x0 + g.dx * int(rng.integers(-1, nx + 1))
        with np.errstate(all="raise"):
            got = dmap.gradient_at(x, y)
        want = distance_gradient_at(dmap, x, y)
        if no_obstacles:
            assert want == (0.0, 0.0)
        assert struct.pack("<2d", *got) == struct.pack("<2d", *want)


@st.composite
def _marked_grids(draw):
    """A 1x1 to 60x60 grid with one marked cell up to all but one, single
    rows and single columns included."""
    ny = draw(st.one_of(st.just(1), st.integers(1, 60)))
    nx = draw(st.one_of(st.just(1), st.integers(1, 60)))
    n = ny * nx
    k = draw(st.integers(1, max(1, n - 1)))
    cells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n)[:k]
    marked = np.zeros(n, dtype=bool)
    marked[cells] = True
    return marked.reshape(ny, nx)


SPACINGS = st.sampled_from([1.0, 0.37, 123.456, 200.0])


def _both_signs(marked):
    """The marked cells and, where there is one, the unmarked cells, as the
    solver's signed clearance takes them."""
    return (marked, ~marked) if not marked.all() else (marked,)


@settings(max_examples=300, deadline=None)
@given(marked=_marked_grids(), dy=SPACINGS, dx=SPACINGS)
def test_euclidean_distance_equals_brute_force(marked, dy, dx):
    """The Euclidean transform has the bytes of the least float over every
    marked cell; this needs numpy alone."""
    for m in _both_signs(marked):
        got = euclidean_distance(m, dy, dx)
        assert got.tobytes() == brute_euclidean_distance(m, dy, dx).tobytes()


@pytest.mark.needs_scipy
@settings(max_examples=300, deadline=None)
@given(marked=_marked_grids(), dy=SPACINGS, dx=SPACINGS)
def test_distance_transforms_equal_scipy(marked, dy, dx):
    """The Euclidean transform is within one ulp of scipy's, which keeps the
    first of two offsets at one exact distance that round apart, not the least;
    the taxicab transform is scipy's bytes."""
    for m in _both_signs(marked):
        np.testing.assert_array_max_ulp(euclidean_distance(m, dy, dx),
                                        scipy_euclidean_distance(m, dy, dx), maxulp=1)
        hops = taxicab_distance(m)
        assert (hops * dx).tobytes() == (scipy_taxicab_distance(m) * dx).tobytes()


@pytest.mark.needs_scipy
@pytest.mark.parametrize("shape,cells,dy,dx", [
    # from (0, 5) the marked cells lie (8, -1), (8, 1) and (7, 4) cells
    # away, all sqrt(65) cells, and (7, 4) rounds to the least float;
    # scipy's envelope walk stops at (8, -1)
    ((9, 10), [(8, 4), (8, 6), (7, 9)], 123.456, 123.456),
    ((9, 10), [(8, 4), (8, 6), (7, 9)], 0.37, 0.37),
    # from (0, 5), (1, -4), (1, 4) and (0, 5) cells away tie at 5/3 m: the
    # parabola of column 9 touches the envelope at one point, where scipy's
    # float test keeps it, and the walk stops at column 1
    ((2, 11), [(1, 1), (1, 9), (0, 10)], 1.0, 1 / 3),
])
def test_euclidean_distance_among_twins_is_the_least_float(shape, cells, dy, dx):
    """Offsets at one exact distance that round to different floats: the
    transform takes the least, one ulp below the twin scipy keeps."""
    marked = np.zeros(shape, dtype=bool)
    marked[tuple(np.transpose(cells))] = True
    got, want = euclidean_distance(marked, dy, dx), scipy_euclidean_distance(marked, dy, dx)
    assert got.tobytes() == brute_euclidean_distance(marked, dy, dx).tobytes()
    np.testing.assert_array_max_ulp(got, want, maxulp=1)
    assert got[0, 5] < want[0, 5]


def test_euclidean_distance_without_marked_cells_is_infinite():
    assert np.all(euclidean_distance(np.zeros((3, 4), dtype=bool), 2.0, 1.0) == np.inf)
